"""Reference deformation checks written out term by term.

``direct_violations`` is the direct route of the deformation equations
with rho^L, rho^R and the weight term summed separately, and
``set_difference_certificate`` decides the rigidity criterion by holding
Z^1 and delta_0(Nij(T)) as sets and comparing them.  The library compares
two stores per order, each summed by ``core.transport``, and counts
delta_0 images instead; the tests compare the two.
``nijenhuis_reference`` sums the four Nijenhuis conditions term by term
from the dense tensors, where the library sums the raw store rows.
"""

from itertools import product

from leibniz_rb.cohomology import (IntegerView, delta_matrix,
                                   induced_representation)
from leibniz_rb.core import basis_vec
from leibniz_rb.deformations import RigidityCertificate
from leibniz_rb.errors import ResourceLimit
from leibniz_rb.linalg import axpy, vec_add, vec_scale
from leibniz_rb.operators import induced_algebra


def direct_violations(defm):
    """(where, lhs, rhs) of every failing deformation equation, in order."""
    r = defm.base
    d, fld, lam = r.context, r.field, r.weight
    act, ts = d.actions, defm.coeffs
    out = []
    for n, a, b in product(range(defm.order + 1), range(d.h.dim),
                           range(d.h.dim)):
        ea, eb = basis_vec(fld, d.h.dim, a), basis_vec(fld, d.h.dim, b)
        lhs = [fld.zero] * d.g.dim
        rhs = vec_scale(lam, ts[n].mul_vec(d.h.bracket_basis(a, b)))
        for i in range(n + 1):
            j = n - i
            lhs = vec_add(lhs, d.g.bracket(ts[i].col(a), ts[j].col(b)))
            inner = vec_add(act.left_act(ts[j].col(a), eb),
                            act.right_act(ea, ts[j].col(b)))
            rhs = vec_add(rhs, ts[i].mul_vec(inner))
        if lhs != rhs:
            out.append(((n, a, b), lhs, rhs))
    return out


def set_difference_certificate(r, cap=10 ** 6):
    """The rigidity criterion as Z^1 == delta_0(Nij(T)), both held as sets.

    The Nijenhuis elements are those of ``nijenhuis_reference``, which
    shares no code with the library's scan, and delta_0 x0 is
    ``Matrix.mul_vec``.
    The witness is the smallest cocycle of Z^1 outside the image, in the
    lexicographic order of residues; None when the image is not inside Z^1.
    """
    fld, d = r.field, r.context
    view = IntegerView(induced_algebra(r), induced_representation(r))
    m0, m1 = (delta_matrix(r, n, view=view) for n in (0, 1))
    zb = m1.kernel_basis()
    if fld.p ** len(zb) > cap or fld.p ** d.g.dim > cap:
        raise ResourceLimit("enumeration exceeds cap %d" % cap)
    z_set = set()
    for digits in product(range(fld.p), repeat=len(zb)):
        v = [fld.zero] * (d.g.dim * d.h.dim)
        for c, base in zip(digits, zb):
            axpy(v, fld.coerce(c), base)
        z_set.add(tuple(v))
    nij_image, count = set(), 0
    for digits in product(range(fld.p), repeat=d.g.dim):
        x0 = [fld.coerce(x) for x in digits]
        if nijenhuis_reference(r, x0):
            count += 1
            nij_image.add(tuple(m0.mul_vec(x0)))
    if nij_image == z_set:
        return RigidityCertificate(True, len(zb), count)
    extra = z_set - nij_image
    witness = min(extra, key=lambda t: tuple(x.v for x in t)) \
        if extra else None
    return RigidityCertificate(False, len(zb), count, witness)


def _bilinear(fld, tensor, x, y):
    """sum_{i,j} x_i y_j tensor[i][j], one term at a time."""
    out = [fld.zero] * len(tensor[0][0])
    for i, j in product(range(len(x)), range(len(y))):
        out = vec_add(out, vec_scale(x[i] * y[j], list(tensor[i][j])))
    return out


def nijenhuis_failures(r, x0):
    """The Nijenhuis conditions, numbered 1 to 4, that x0 fails.

    With A = [x0, -] and B = rho^L(x0, -), summed from the dense tensors on
    basis vectors, the conditions are [Ax, Ay]_g = 0, [Bu, Bv]_h = 0,
    rho^L(Ax, Bu) = 0 and rho^R(Bu, Ax) = 0 on all basis vectors.
    """
    d, fld = r.context, r.field
    g, h, left, right = d.g.c, d.h.c, d.actions.left, d.actions.right
    ad = [_bilinear(fld, g, x0, basis_vec(fld, d.g.dim, i))
          for i in range(d.g.dim)]
    lu = [_bilinear(fld, left, x0, basis_vec(fld, d.h.dim, a))
          for a in range(d.h.dim)]
    conditions = ((g, ad, ad), (h, lu, lu), (left, ad, lu), (right, lu, ad))
    return {n for n, (t, xs, ys) in enumerate(conditions, 1)
            if any(any(_bilinear(fld, t, x, y)) for x in xs for y in ys)}


def nijenhuis_reference(r, x0):
    """Is x0 a Nijenhuis element of r, by ``nijenhuis_failures``?"""
    return not nijenhuis_failures(r, x0)
