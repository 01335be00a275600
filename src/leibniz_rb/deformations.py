"""Order-N deformations of weighted relative Rota-Baxter operators.

A deformation is a truncated polynomial T_t = T_0 + t T_1 + ... + t^N T_N
whose coefficients satisfy the deformation equations

    sum_{i+j=n} [T_i u, T_j v]
        = sum_{i+j=n} T_i( rho^L(T_j u, v) + rho^R(u, T_j v) )
          + lambda T_n([u, v]_h)           for n = 0..N,

equivalently d_T(T_n) = -sum_{i+j=n, i,j>=1} H(T_i, T_j) for n >= 1, with
[[P, Q]] = H(P, Q) + H(Q, P): the vanishing t^n coefficient of the
Maurer-Cartan residual (``graded._mc_coefficient``), and the obstruction
is its coefficient past N.  Both forms are always computed and compared,
in every characteristic, so a sign bug in either is trapped.
Everything is truncated polynomial arithmetic at a fixed order; no
power-series object exists.
"""

from dataclasses import dataclass
from itertools import product as iproduct
from operator import mul
from typing import Optional

from .cohomology import (delta_T, delta_T_0, delta_matrix, integer_view,
                         row_sums, x0_columns, x0_sums)
from .core import ValidationReport, leibniz_differential, transport
from .errors import (BaseMismatch, ContainmentViolated, InvalidDeformation,
                     OracleDisagreement, ResourceLimit, ShapeMismatch,
                     WrongField)
from .fields import PrimeField
from .graded import _mc_coefficient
from .linalg import Matrix
from .multimap import MultiMap
from .operators import morphism_at_order, series_coeff


class Deformation:
    """Coefficients T_0..T_N of an order-N deformation of a base operator."""

    def __init__(self, base, coeffs):
        if not coeffs:
            raise ShapeMismatch("a deformation needs at least T_0")
        if coeffs[0] != base.t:
            raise BaseMismatch("T_0 must equal the base operator")
        shape = base.t.shape
        for k, m in enumerate(coeffs):
            if m.shape != shape:
                raise ShapeMismatch("T_%d has shape %s, expected %s"
                                    % (k, m.shape, shape))
        self.base = base
        self.coeffs = list(coeffs)
        self.order = len(coeffs) - 1
        self.field = base.field

    @classmethod
    def trivial(cls, base, order):
        fld = base.field
        zero = Matrix.zeros(fld, *base.t.shape)
        return cls(base, [base.t] + [zero] * order)

    def __eq__(self, other):
        return (isinstance(other, Deformation) and self.base == other.base
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "Deformation(order=%d)" % self.order


def check_deformation(defm):
    """Verify the deformation equations for n = 0..N on all basis pairs.

    Both sides at order n are stores summed by ``core.transport``: c_g
    moved along (T_i, T_{n-i}), against T_i rho^L(T_{n-i} -, -) and
    T_i rho^R(-, T_{n-i} -) over i plus lambda T_n c_h.  The dgLa form, the
    t^n coefficient dT_n + sum_{i+j=n} H(T_i, T_j) of the MC residual, is
    built for n >= 1 from the explicit routes, in every field, and any
    verdict split raises OracleDisagreement.
    """
    r = defm.base
    d, fld, ts, act = r.context, r.field, defm.coeffs, r.context.actions
    ig, ih = (Matrix.identity(fld, m) for m in (d.g.dim, d.h.dim))
    rep = ValidationReport("deformation")
    for n in range(defm.order + 1):
        lhs = transport([(d.g.c_nz, ts[i], ts[n - i], ig)
                         for i in range(n + 1)])
        rhs = transport([(d.h.c_nz, ih, ih, ts[n].scale(r.weight))] + [
            (act.left_nz, ts[n - i], ih, ts[i]) for i in range(n + 1)] + [
            (act.right_nz, ih, ts[n - i], ts[i]) for i in range(n + 1)])
        rep.add_differences("deformation-equation", lhs, rhs, (n,))
    bad = {v.where[0] for v in rep.violations}
    maps = [MultiMap.from_matrix(t) for t in ts]
    for n in range(1, defm.order + 1):
        if _mc_coefficient(d, r.weight, maps, n).is_zero() == (n in bad):
            raise OracleDisagreement(
                "deformation equation and dgLa form disagree at order %d" % n)
    return rep


def infinitesimal(defm):
    """T_1 of a valid deformation, with its 1-cocycle verdict."""
    if defm.order < 1:
        raise InvalidDeformation("infinitesimal needs order >= 1")
    if not check_deformation(defm).ok:
        raise InvalidDeformation("deformation equations fail")
    t1 = MultiMap.from_matrix(defm.coeffs[1])
    return t1, delta_T(defm.base, t1).is_zero()


def equivalence_maps(defm, x0):
    """Phi_t = id + t ad_{x0} on g and Psi_t = id + t rho^L(x0, -) on h.

    Coefficient lists truncated at the order of defm; x0 must lie in g.
    """
    d, fld, n = defm.base.context, defm.field, defm.order
    return tuple(([Matrix.identity(fld, m), Matrix.from_cols(fld, cols, m)]
                  + [Matrix.zeros(fld, m, m)] * (n - 1))[:n + 1]
                 for cols, m in zip(x0_columns(d, x0), (d.g.dim, d.h.dim)))


def check_equivalence(defm, defm2, x0):
    """Is (Phi_t, Psi_t) an operator morphism from defm to defm2?

    (Phi_t, Psi_t) of ``equivalence_maps`` must satisfy the five conditions
    of ``operators.check_operator_morphism`` at each order in t up to the
    deformation order (``operators.morphism_at_order``).  On success with
    order >= 1, T_1 - T_1' = delta(x0) is re-checked; a mismatch raises
    OracleDisagreement.
    """
    if defm.base != defm2.base or defm.order != defm2.order:
        raise ShapeMismatch("equivalence needs deformations of a common base "
                            "and order")
    d = defm.base.context
    phi, psi = equivalence_maps(defm, x0)
    if not all(morphism_at_order(d, d, phi, psi, defm.coeffs, defm2.coeffs, n)
               for n in range(defm.order + 1)):
        return False
    if defm.order >= 1 and \
            defm.coeffs[1] - defm2.coeffs[1] != delta_T_0(defm.base, x0):
        raise OracleDisagreement("equivalence holds but T_1 - T_1' is not "
                                 "delta(x0)")
    return True


def conjugate_deformation(defm, x0):
    """The deformation Phi_t T_t Psi_t^{-1}, truncated at defm's order.

    With Psi_t = id + tB, Psi_t^{-1} is the truncated sum of (-tB)^k.
    """
    n = defm.order
    phi, psi = equivalence_maps(defm, x0)
    inv = psi[:1]
    for _ in range(n):
        inv.append(inv[-1] * -psi[1])
    left = [series_coeff(phi, defm.coeffs, k) for k in range(n + 1)]
    return Deformation(defm.base,
                       [series_coeff(left, inv, k) for k in range(n + 1)])


def check_nijenhuis(r, x0):
    """Is x0 a Nijenhuis element?  With A = ad_{x0} and B = rho^L(x0, -),
    [Ax, Ay]_g, [Bu, Bv]_h, rho^L(Ax, Bu) and rho^R(Bu, Ax) vanish on all
    basis vectors: the order-2 conditions of ``check_equivalence``.  The
    store-row sums of ``x0_columns`` go to ``_nijenhuis_raw`` as raw values."""
    d, fld = r.context, r.field
    return _nijenhuis_raw(d, *([fld.to_raw(c) for c in cols]
                               for cols in x0_columns(d, x0)))


def _nijenhuis_raw(d, ad, lu):
    """The Nijenhuis conditions on the raw columns ad of A and lu of B: for
    each pair of columns, T(x, y) is y dotted with the ``row_sums`` of x,
    reduced mod p; the scan stops at the first nonzero."""
    p = d.field.characteristic
    for store, xs, ys in ((d.g.c_nz, ad, ad), (d.h.c_nz, lu, lu),
                          (d.actions.left_nz, ad, lu),
                          (d.actions.right_nz, lu, ad)):
        for x in xs if store.rows else ():
            tx = list(zip(*row_sums(store, x))) if any(x) else ()
            if any(s % p if p else s for y in ys
                   for s in (sum(map(mul, y, t)) for t in tx)):
                return False
    return True


@dataclass
class RigidityCertificate:
    satisfied: bool
    dim_z1: int
    nijenhuis_count: int
    witness: Optional[tuple] = None


def rigidity_certificate(r, cap=10 ** 6):
    """Does Z^1 = delta(Nij(T)) hold, by exhaustive enumeration over GF(p)?

    The criterion implies rigidity; a witness cocycle outside delta(Nij(T))
    is reported when it fails.  Requires GF(p) with p > 3 so that the
    characteristic-0 identities behind the criterion are not degenerate.

    cap bounds the p^dim g candidates x0, refused before any delta is
    built.  The distinct delta_0 x0 of the Nijenhuis x0 lie in Z^1
    (``delta_matrix`` checks delta_1 . delta_0 = 0); the criterion holds
    iff there are p^dim Z^1 of them, and more raise ContainmentViolated.
    Otherwise the witness is the first cocycle missed in the digit order
    of an echelon basis, the lexicographic order of Z^1.  Each candidate's
    residue digits go to the raw core of ``check_nijenhuis``: the store-row
    sums ``x0_sums`` and ``_nijenhuis_raw``; images and cocycles are
    residue tuples, sums of raw rows.
    """
    fld = r.field
    if not isinstance(fld, PrimeField) or fld.p <= 3:
        raise WrongField("rigidity certification requires GF(p) with p > 3")
    d = r.context
    if fld.p ** d.g.dim > cap:
        raise ResourceLimit("enumeration of %d vectors exceeds cap %d"
                            % (fld.p ** d.g.dim, cap))
    view = integer_view(r)
    m0, m1 = (delta_matrix(r, n, view=view) for n in (0, 1))
    zb = m1.kernel_basis()
    size = fld.p ** len(zb)  # the elements of Z^1
    images, count = set(), 0
    for digits in iproduct(range(fld.p), repeat=d.g.dim):
        if _nijenhuis_raw(d, *x0_sums(d, digits)):
            count += 1
            images.add(tuple(sum(map(mul, row, digits)) % fld.p
                             for row in m0.raw))
    if len(images) > size:
        raise ContainmentViolated("%d distinct delta_0 images in a Z^1 of "
                                  "%d elements" % (len(images), size))
    if len(images) == size:
        return RigidityCertificate(True, len(zb), count)
    # Z^1 has more elements than images (so dim Z^1 >= 1): one is missed
    cols = list(zip(*map(fld.to_raw, Matrix(fld, zb).rref()[0])))
    for digits in iproduct(range(fld.p), repeat=len(zb)):
        v = tuple(sum(map(mul, digits, col)) % fld.p for col in cols)
        if v not in images:
            return RigidityCertificate(False, len(zb), count,
                                       tuple(fld.from_raw(v)))


@dataclass
class ObstructionClass:
    ob: MultiMap
    is_coboundary: bool
    witness: Optional[Matrix] = None


def obstruction(defm):
    """Ob = -sum_{i+j=N+1, i,j>=1} H(T_i, T_j), with coboundary verdict.

    Ob, zero at order 0, is minus the t^(N+1) coefficient of the MC
    residual, both routes of each bracket compared.  The coboundary test
    solves delta(x) = Ob in Hom(h, g); the 2-cocycle identity delta(Ob) = 0
    is re-asserted on every call.  One IntegerView of h_T and rho_T serves
    both.
    """
    r, fld = defm.base, defm.field
    d, maps = r.context, [MultiMap.from_matrix(t) for t in defm.coeffs]
    ob = -_mc_coefficient(d, r.weight, maps, defm.order + 1)
    view = integer_view(r)
    if not leibniz_differential(view.h, view.rho, ob).is_zero():
        raise OracleDisagreement("obstruction cochain is not a 2-cocycle")
    m1 = delta_matrix(r, 1, view=view)
    sol, _ = m1.solve(ob.flatten())
    if sol is None:
        return ObstructionClass(ob, False)
    witness = MultiMap.from_flat(fld, 1, d.h.dim, d.g.dim, sol).to_matrix()
    return ObstructionClass(ob, True, witness)


def extend(defm):
    """One-step extension to order N+1, or None when obstructed.

    The deformation equation at order N+1 reads d_T(T_{N+1}) = Ob; since
    d_T = -delta in degree 1, the witness x of delta(x) = Ob yields
    T_{N+1} = -x.  The extended deformation is re-validated before return.
    """
    cls = obstruction(defm)
    if not cls.is_coboundary:
        return None
    ext = Deformation(defm.base,
                      defm.coeffs + [cls.witness.scale(-defm.field.one)])
    rep = check_deformation(ext)
    if not rep.ok:
        raise OracleDisagreement("extension failed re-validation: %s"
                                 % rep.summary())
    return ext
