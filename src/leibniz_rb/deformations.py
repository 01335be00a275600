"""Order-N deformations of weighted relative Rota-Baxter operators.

A deformation is a truncated polynomial T_t = T_0 + t T_1 + ... + t^N T_N
whose coefficients satisfy the deformation equations

    sum_{i+j=n} [T_i u, T_j v]
        = sum_{i+j=n} T_i( rho^L(T_j u, v) + rho^R(u, T_j v) )
          + lambda T_n([u, v]_h)           for n = 0..N,

equivalently d_T(T_n) = -1/2 sum_{i+j=n, i,j>=1} [[T_i, T_j]] for n >= 1.
Both forms are computed and compared, so a sign bug in either route is
trapped, except over GF(2), where the second form does not exist.
Everything is truncated polynomial arithmetic at a fixed order; no
power-series object exists.
"""

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional

from .cohomology import (IntegerView, d_T, delta_T, delta_T_0, delta_matrix,
                         induced_representation)
from .core import ValidationReport, basis_vec, leibniz_differential
from .errors import (BaseMismatch, ContainmentViolated, InvalidDeformation,
                     OracleDisagreement, ResourceLimit, ShapeMismatch,
                     WrongField)
from .fields import PrimeField
from .graded import derived_bracket, derived_bracket_explicit
from .linalg import Matrix, axpy, vec_add
from .multimap import MultiMap
from .operators import induced_algebra, operator_rhs


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


def _bracket_sum(d, ts, m, bracket):
    """sum_{i+j=m, i,j>=1} bracket(d, T_i, T_j), an arity-2 map h x h -> g."""
    acc = MultiMap(d.field, 2, d.h.dim, d.g.dim)
    for i in range(1, m):
        acc = acc + bracket(d, MultiMap.from_matrix(ts[i]),
                            MultiMap.from_matrix(ts[m - i]))
    return acc


def check_deformation(defm, cross_check=True):
    """Verify the deformation equations for n = 0..N on all basis pairs.

    The right side at order n sums T_i(``operator_rhs`` at T = T_{n-i})
    over i, with the weight term for i = n only.  With cross_check
    the dgLa form of the same equations is evaluated for n >= 1 and any
    verdict split raises OracleDisagreement.  That form needs 1/2, so in
    characteristic 2 the direct verdict is reported alone.
    """
    r = defm.base
    d, fld, lam = r.context, r.field, r.field.to_raw([r.weight])[0]
    ts, nh = defm.coeffs, d.h.dim
    cols = [[t.col(a) for a in range(nh)] for t in ts]  # T_k e_a
    raw = [[t.raw_col(a) for a in range(nh)] for t in ts]
    rep = ValidationReport("deformation")
    direct_bad = set()
    for n, a, b in iproduct(range(defm.order + 1), range(nh), range(nh)):
        lhs = rhs = [fld.zero] * d.g.dim
        for i in range(n + 1):
            rj = raw[n - i]
            lhs = vec_add(lhs, d.g.bracket(cols[i][a], cols[n - i][b]))
            rhs = vec_add(rhs, ts[i].mul_vec(operator_rhs(
                d, lam if i == n else fld.raw_zero, a, rj[a], b, rj[b])))
        if lhs != rhs:
            rep.add("deformation-equation", (n, a, b), lhs, rhs)
            direct_bad.add(n)
    if cross_check and fld.characteristic != 2:
        for n in range(1, defm.order + 1):
            resid = d_T(r, MultiMap.from_matrix(ts[n]), cross_check=False) \
                .scale(fld.coerce(2)) \
                + _bracket_sum(d, ts, n, derived_bracket_explicit)
            if resid.is_zero() == (n in direct_bad):
                raise OracleDisagreement(
                    "deformation equation and dgLa form disagree at order %d"
                    % n)
    return rep


def infinitesimal(defm):
    """T_1 of a valid deformation, with its 1-cocycle verdict."""
    if defm.order < 1:
        raise InvalidDeformation("infinitesimal needs order >= 1")
    if not check_deformation(defm).ok:
        raise InvalidDeformation("deformation equations fail")
    t1 = MultiMap.from_matrix(defm.coeffs[1])
    return t1, delta_T(defm.base, t1).is_zero()


def _poly_compose(field, a, b, order):
    """Coefficients of the truncated composite a(t) . b(t)."""
    out = []
    for n in range(order + 1):
        acc = Matrix.zeros(field, a[0].nrows, b[0].ncols)
        for i in range(n + 1):
            if i < len(a) and n - i < len(b):
                acc = acc + a[i] * b[n - i]
        out.append(acc)
    return out


def _poly_inverse(field, a, order):
    """Inverse of a truncated polynomial of matrices with a_0 invertible."""
    inv0 = a[0].inverse()
    out = [inv0]
    for n in range(1, order + 1):
        acc = Matrix.zeros(field, a[0].nrows, a[0].ncols)
        for i in range(1, n + 1):
            if i < len(a):
                acc = acc + a[i] * out[n - i]
        out.append((inv0 * acc).scale(-field.one))
    return out


def equivalence_maps(defm, x0, higher_phi=None, higher_psi=None):
    """Coefficient lists of Phi_t and Psi_t truncated at the order of defm."""
    d, fld, n = defm.base.context, defm.field, defm.order
    ig, ih = Matrix.identity(fld, d.g.dim), Matrix.identity(fld, d.h.dim)
    ad = [d.g.bracket(x0, e) for e in ig.rows]  # [x0, -]
    act = [d.actions.left_act(x0, e) for e in ih.rows]  # rho^L(x0, -)
    phi = [ig, Matrix.from_cols(fld, ad, d.g.dim)] + list(higher_phi or [])
    psi = [ih, Matrix.from_cols(fld, act, d.h.dim)] + list(higher_psi or [])
    phi += [Matrix.zeros(fld, d.g.dim, d.g.dim)] * (n + 1 - len(phi))
    psi += [Matrix.zeros(fld, d.h.dim, d.h.dim)] * (n + 1 - len(psi))
    return phi[:n + 1], psi[:n + 1]


def _expands(field, op, out, lft, rgt, nx, ny, n):
    """out_n op(x, y) == sum_k op(lft_k x, rgt_{n-k} y) on basis pairs."""
    for i, j in iproduct(range(nx), range(ny)):
        x, y = basis_vec(field, nx, i), basis_vec(field, ny, j)
        rhs = [field.zero] * out[n].nrows
        for k in range(n + 1):
            rhs = vec_add(rhs, op(lft[k].mul_vec(x), rgt[n - k].mul_vec(y)))
        if out[n].mul_vec(op(x, y)) != rhs:
            return False
    return True


def check_equivalence(defm, defm2, x0, higher_phi=None, higher_psi=None):
    """Is (Phi_t, Psi_t) a morphism of deformed operators from defm to defm2?

    All five morphism conditions are expanded order-by-order in t up to
    the deformation order: Phi and Psi are algebra morphisms, intertwine
    the two truncated operators and both actions.  On success with
    order >= 1, the cohomologous-infinitesimal identity
    T_1 - T_1' = delta(x0) is re-checked; a mismatch raises
    OracleDisagreement.
    """
    if defm.base != defm2.base or defm.order != defm2.order:
        raise ShapeMismatch("equivalence needs deformations of a common base "
                            "and order")
    d, fld, order = defm.base.context, defm.field, defm.order
    phi, psi = equivalence_maps(defm, x0, higher_phi, higher_psi)
    if _poly_compose(fld, phi, defm.coeffs, order) != \
            _poly_compose(fld, defm2.coeffs, psi, order):
        return False
    g, h, act = d.g, d.h, d.actions
    conditions = [(g.bracket, phi, phi, phi, g.dim, g.dim),
                  (h.bracket, psi, psi, psi, h.dim, h.dim),
                  (act.left_act, psi, phi, psi, g.dim, h.dim),
                  (act.right_act, psi, psi, phi, h.dim, g.dim)]
    for n in range(order + 1):
        if not all(_expands(fld, *c, n) for c in conditions):
            return False
    if order >= 1 and \
            defm.coeffs[1] - defm2.coeffs[1] != delta_T_0(defm.base, x0):
        raise OracleDisagreement("equivalence holds but T_1 - T_1' is not "
                                 "delta(x0)")
    return True


def conjugate_deformation(defm, x0, higher_phi=None, higher_psi=None):
    """The deformation Phi_t . T_t . Psi_t^{-1}, truncated at defm's order."""
    fld, order = defm.field, defm.order
    phi, psi = equivalence_maps(defm, x0, higher_phi, higher_psi)
    inv = _poly_inverse(fld, psi, order)
    coeffs = _poly_compose(fld, _poly_compose(fld, phi, defm.coeffs, order),
                           inv, order)
    return Deformation(defm.base, coeffs)


def check_nijenhuis(r, x0):
    """The four Nijenhuis-element conditions on all basis tuples."""
    d, fld = r.context, r.field
    act = d.actions
    ng, nh = d.g.dim, d.h.dim
    if len(x0) != ng:
        raise ShapeMismatch("x0 must live in g")
    zg, zh = [fld.zero] * ng, [fld.zero] * nh
    bx = [d.g.bracket(x0, basis_vec(fld, ng, i)) for i in range(ng)]
    lu = [act.left_act(x0, basis_vec(fld, nh, a)) for a in range(nh)]
    for i in range(ng):
        for j in range(ng):
            if d.g.bracket(bx[i], bx[j]) != zg:
                return False
    for a in range(nh):
        for b in range(nh):
            if d.h.bracket(lu[a], lu[b]) != zh:
                return False
    for i in range(ng):
        for a in range(nh):
            if act.left_act(bx[i], lu[a]) != zh:
                return False
            if act.right_act(lu[a], bx[i]) != zh:
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
    of an echelon basis, the lexicographic order of Z^1.
    """
    fld = r.field
    if not isinstance(fld, PrimeField) or fld.p <= 3:
        raise WrongField("rigidity certification requires GF(p) with p > 3")
    d = r.context
    if fld.p ** d.g.dim > cap:
        raise ResourceLimit("enumeration of %d vectors exceeds cap %d"
                            % (fld.p ** d.g.dim, cap))
    view = IntegerView(induced_algebra(r), induced_representation(r))
    m0, m1 = (delta_matrix(r, n, view=view) for n in (0, 1))
    zb = m1.kernel_basis()
    size = fld.p ** len(zb)  # the elements of Z^1
    images, count = set(), 0
    for digits in iproduct(range(fld.p), repeat=d.g.dim):
        x0 = [fld.coerce(x) for x in digits]
        if check_nijenhuis(r, x0):
            count += 1
            images.add(tuple(m0.mul_vec(x0)))
    if len(images) > size:
        raise ContainmentViolated("%d distinct delta_0 images in a Z^1 of "
                                  "%d elements" % (len(images), size))
    if len(images) == size:
        return RigidityCertificate(True, len(zb), count)
    # Z^1 has more elements than images (so dim Z^1 >= 1): one is missed
    echelon = Matrix(fld, zb).rref()[0]
    for digits in iproduct(range(fld.p), repeat=len(zb)):
        v = [fld.zero] * (d.g.dim * d.h.dim)
        for c, row in zip(digits, echelon):
            axpy(v, fld.coerce(c), row)
        if tuple(v) not in images:
            return RigidityCertificate(False, len(zb), count, tuple(v))


@dataclass
class ObstructionClass:
    ob: MultiMap
    is_coboundary: bool
    witness: Optional[Matrix] = None


def obstruction(defm):
    """Ob = -1/2 sum_{i+j=N+1, i,j>=1} [[T_i, T_j]], with coboundary verdict.

    The sum, empty at order 0, is the one ``check_deformation`` checks
    with.  The coboundary test solves delta(x) = Ob over x in Hom(h, g);
    the 2-cocycle identity delta(Ob) = 0 is re-asserted on every call.
    One IntegerView of h_T and rho_T serves both.
    """
    r, fld = defm.base, defm.field
    d = r.context
    ob = _bracket_sum(d, defm.coeffs, defm.order + 1, derived_bracket) \
        .scale(-fld.half())
    view = IntegerView(induced_algebra(r), induced_representation(r))
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
