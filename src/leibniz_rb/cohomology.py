"""Cohomology of a weighted relative Rota-Baxter operator.

It is the Leibniz cohomology of the induced algebra h_T with coefficients
in g, C^0 = g and C^n = Hom(h^{x n}, g), where h_T acts on g by

    rhoL_T(u, x) = [Tu, x]_g - T rho^R(u, x)
    rhoR_T(x, u) = [x, Tu]_g - T rho^L(x, u)

One formula builds delta in every degree; delta_0 x = -rhoR_T(x, .) is the
map u -> T rho^L(x, u) - [x, Tu]_g.  Its checks run on the int rows of
D delta (``IntegerView``).  The twisted differential d_T = d + [[T, -]]
gives the same cohomology up to the sign d_T f = (-1)^n delta f, which the
test-suite uses as an oracle.
"""

from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import combinations, product
from math import lcm

from .core import ActionPair, add_combination, leibniz_differential
from .errors import ContainmentViolated, OracleDisagreement, ResourceLimit
from .linalg import Matrix, vec_sub, zero_vec
from .multimap import MultiMap
from .operators import induced_algebra


def induced_representation(r):
    """The action pair of the induced algebra h_T on g.

    Te_a is the column a of T; [., e_i]_g, [e_i, .]_g, rho^R(e_a, e_i)
    and rho^L(e_i, e_a) are slices of the structure and action tensors.
    """
    r.require_valid()
    d, fld, t = r.context, r.field, r.t
    ng, nh, c, act = d.g.dim, d.h.dim, d.g.c, d.actions
    cols = [t.col(a) for a in range(nh)]

    def entry(ta, bracket_rows, acted):
        # sum_j (Te_a)_j bracket_rows[j] - T(acted)
        out = [-x for x in t.mul_vec(acted)]
        add_combination(out, ta, bracket_rows)
        return out

    left = [[entry(cols[a], [plane[i] for plane in c], act.right[a][i])
             for i in range(ng)] for a in range(nh)]
    right = [[entry(cols[a], c[i], act.left[i][a]) for a in range(nh)]
             for i in range(ng)]
    return ActionPair(fld, nh, ng, left, right)


def delta_T_0(r, x):
    """Degree-0 differential: x in g goes to the map u -> T rho^L(x,u) - [x,Tu]."""
    d, fld, t = r.context, r.field, r.t
    cols = []
    for a in range(d.h.dim):
        lx = zero_vec(fld, d.h.dim)  # rho^L(x, e_a)
        add_combination(lx, x, [plane[a] for plane in d.actions.left])
        cols.append(vec_sub(t.mul_vec(lx), d.g.bracket(x, t.col(a))))
    return Matrix.from_cols(fld, cols, d.g.dim)


def delta_T(r, f):
    """The specialized Leibniz differential on cochains of arity >= 1."""
    return leibniz_differential(induced_algebra(r), induced_representation(r), f)


def d_T(r, f, cross_check=True):
    """The twisted differential d_T = d + [[T, -]] on the graded side."""
    from .graded import derived_bracket, differential_d

    d = r.context
    tm = MultiMap.from_matrix(r.t)
    return differential_d(d, r.weight, f, cross_check=cross_check) \
        + derived_bracket(d, tm, f, cross_check=cross_check)


def cochain_dim(r, n):
    return r.context.g.dim * r.context.h.dim ** n


def delta_rows(c, left, right, n):
    """The rows of delta_n: C^n -> C^{n+1} as {column: value} dicts.

    h (bracket tensor c) acts on V by the ActionPair tensors left, right,
    of field elements or ints; no axiom is assumed.  Cochains flatten
    lexicographically by (source index tuple, target index).  Output tuple
    idx takes one Loday-Pirashvili term per left-out position (from 0):
    p < n gives (-1)^p rho^L(e_idx[p], f(rest)), n gives (-1)^(n+1)
    rho^R(f(rest), e_idx[n]), and a pair p < q gives (-1)^(p+1) f(rest with
    [e_idx[p], e_idx[q]] put in at q - 1).  In degree 0 the rest is empty:
    delta_0 x = -rho^R(x, .).
    """
    nh, nv = len(c), len(right)
    # the column step of each position of a source n-tuple
    stride = [nv * nh ** (n - 1 - i) for i in range(n)]

    def terms(slab, odd):
        # (k, t, x): the image of f_k has x at f_t, negated when odd
        return [(k, t, -x if odd else x) for k, vec in enumerate(slab)
                for t, x in enumerate(vec) if x]

    lterms = [[terms(slab, odd) for slab in left] for odd in (False, True)]
    rterms = [terms([plane[a] for plane in right], n % 2 == 0)
              for a in range(nh)]
    rows = []
    for idx in product(range(nh), repeat=n + 1):
        out = [Counter() for _ in range(nv)]  # an absent column reads 0
        for p in range(n + 1):
            base = sum(s * w for s, w in zip(idx[:p] + idx[p + 1:], stride))
            for k, t, x in lterms[p % 2][idx[p]] if p < n else rterms[idx[n]]:
                out[t][base + k] += x
        for p, q in combinations(range(n + 1), 2):
            rest = idx[:p] + idx[p + 1:q] + (0,) + idx[q + 1:]
            base = sum(s * w for s, w in zip(rest, stride))
            for s, x in enumerate(c[idx[p]][idx[q]]):
                if x:
                    j, x = base + s * stride[q - 1], x if p % 2 else -x
                    for t, row in enumerate(out):
                        row[j + t] += x
        rows.extend({j: x for j, x in row.items() if x} for row in out)
    return rows


class IntegerView:
    """h acting on V by rho, with the int rows of D delta_n (``rows(n)``).

    The rows are built once per degree from D c, D rho^L and D rho^R as
    ints.  D is the lcm of the denominators over Q; over GF(p), D = 1 and
    the ints are the residues.
    """

    def __init__(self, h, rho):
        self.h, self.rho, self.den = h, rho, 1
        ints = (h.c_raw, rho.left_raw, rho.right_raw)
        if not h.field.characteristic:  # the raw views are the tensors
            self.den = lcm(*(x.denominator for t in ints for pl in t
                             for row in pl for x in row))
            ints = [[[[x.numerator * (self.den // x.denominator) for x in row]
                      for row in pl] for pl in t] for t in ints]
        self.rows = cache(lambda n: delta_rows(*ints, n))


def _require_square_zero(n, rows, prev, p):
    """Raise ContainmentViolated unless delta_n . delta_{n-1} = 0 exactly.

    rows and prev are int rows of multiples of both (residues over GF(p),
    p the characteristic); the message names the first column hit.
    """
    bad = []
    for row in rows:
        image = Counter()
        for k, a in row.items():
            for j, b in prev[k].items():
                image[j] += a * b
        bad.extend(j for j, s in image.items() if (s % p if p else s))
    if bad:
        raise ContainmentViolated("delta_%d . delta_%d is nonzero on "
                                  "column %d" % (n, n - 1, min(bad)))


def delta_matrix(r, n, cap=20000, view=None):
    """Matrix of delta: C^n -> C^{n+1} in the flattening order.

    cap bounds the cells; ``cohomology`` passes one view for all degrees.
    The int rows of D delta_n are applied to one fixed cochain with no zero
    entry, so that any single wrong entry shows: the image must be D times
    its Leibniz differential (delta_T_0 in degree 0), or
    OracleDisagreement.  For n >= 1 delta_n . delta_{n-1} = 0 is checked.
    """
    nrows, ncols = cochain_dim(r, n + 1), cochain_dim(r, n)
    if nrows * ncols > cap:
        raise ResourceLimit("delta_%d has %d x %d cells, beyond the "
                            "configured cap %d" % (n, nrows, ncols, cap))
    view = view or IntegerView(induced_algebra(r), induced_representation(r))
    fld, h, rho, rows = r.field, view.h, view.rho, view.rows(n)
    p = fld.characteristic
    probe = [1 + (j % (p - 1) if p else j) for j in range(ncols)]
    got = [sum(a * probe[j] for j, a in row.items()) for row in rows]
    x = [fld.coerce(v) for v in probe]
    want = leibniz_differential(h, rho, MultiMap.from_flat(
        fld, n, h.dim, rho.dim_v, x)) if n else \
        MultiMap.from_matrix(delta_T_0(r, x))
    if fld.from_raw(got) != [view.den * w for w in want.flatten()]:
        raise OracleDisagreement("delta_%d disagrees with the Leibniz "
                                 "differential on the probe cochain" % n)
    if n:
        _require_square_zero(n, rows, view.rows(n - 1), p)
    inv = fld.one / view.den  # the entries of delta_n itself
    return Matrix(fld, [[row[j] * inv if j in row else fld.zero
                         for j in range(ncols)] for row in rows], ncols)


@dataclass
class DegreeData:
    dim_c: int
    dim_z: int
    dim_b: int
    dim_h: int
    cocycles: list = dc_field(default_factory=list)


@dataclass
class CohomologyReport:
    max_degree: int
    degrees: dict = dc_field(default_factory=dict)

    def betti(self):
        return [self.degrees[n].dim_h for n in range(self.max_degree + 1)]


def cohomology(r, max_degree, cap=20000, representatives=False):
    """Cocycle/coboundary dimensions and Betti numbers in degrees 0..max_degree.

    One IntegerView of h_T and rho_T serves every delta matrix, and each
    is eliminated once, before the next is built.  By rank-nullity
    dim Z^n = dim C^n - rank delta_n and dim B^n = rank delta_{n-1}.
    ``delta_matrix`` verifies B^n inside Z^n as delta_n . delta_{n-1} = 0
    (ContainmentViolated on failure: a differential bug, not bad input).
    With representatives, the cocycle basis comes from the same
    elimination as the rank.  cap bounds the cells of each delta and (they
    do not grow when dim h <= 1) rows x terms x arity of the top one.
    """
    # h_T validates r before any cap is checked
    view = IntegerView(induced_algebra(r), induced_representation(r))
    # rows of the top delta (dim h^k clipped past the cap), +1 for setup
    k, nh = max_degree + 1, r.context.h.dim
    rows = r.context.g.dim * nh ** min(k, cap.bit_length() + 1)
    if (rows + 1) * k * (k + 1) // 2 * k > cap:
        raise ResourceLimit("delta_%d: rows x Loday-Pirashvili terms x "
                            "arity exceed the configured cap %d"
                            % (max_degree, cap))
    rank, z_basis = {-1: 0}, {}
    # largest first, so that the cap refuses before any row is built
    for n in reversed(range(max_degree + 1)):
        m = delta_matrix(r, n, cap=cap, view=view)
        z_basis[n] = m.kernel_basis() if representatives else []
        rank[n] = m.ncols - len(z_basis[n]) if representatives else m.rank()
    out = CohomologyReport(max_degree)
    for n in range(max_degree + 1):
        dim_c, dim_b = cochain_dim(r, n), rank[n - 1]
        dim_z = dim_c - rank[n]
        out.degrees[n] = DegreeData(dim_c, dim_z, dim_b, dim_z - dim_b,
                                    z_basis[n])
    return out
