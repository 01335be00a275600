"""Cohomology of a weighted relative Rota-Baxter operator.

It is the Leibniz cohomology of the induced algebra h_T with coefficients
in g, C^0 = g and C^n = Hom(h^{x n}, g), where h_T acts on g by

    rhoL_T(u, x) = [Tu, x]_g - T rho^R(u, x)
    rhoR_T(x, u) = [x, Tu]_g - T rho^L(x, u)

One formula builds delta in every degree; delta_0 x = -rhoR_T(x, .) is the
map u -> T rho^L(x, u) - [x, Tu]_g.  The twisted differential d_T = d +
[[T, -]] gives the same cohomology up to the sign d_T f = (-1)^n delta f,
which the test-suite uses as an oracle.
"""

from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import combinations, product

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
        add_combination(out, fld.one, ta, bracket_rows)
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
        add_combination(lx, fld.one, x, [plane[a] for plane in d.actions.left])
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
    out = differential_d(d, r.weight, f, cross_check=cross_check) \
        + derived_bracket(d, tm, f, cross_check=cross_check)
    return out


def cochain_dim(r, n):
    return r.context.g.dim * r.context.h.dim ** n


def delta_rows(h, rho, n):
    """The rows of delta_n: C^n -> C^{n+1} as {column: value} dicts.

    h acts on V by rho; no axiom is assumed.  Cochains flatten
    lexicographically by (source index tuple, target index).  Output tuple
    idx takes one Loday-Pirashvili term per left-out position (from 0):
    p < n gives (-1)^p rho^L(e_idx[p], f(rest)), n gives (-1)^(n+1)
    rho^R(f(rest), e_idx[n]), and a pair p < q gives (-1)^(p+1) f(rest with
    [e_idx[p], e_idx[q]] put in at q - 1).  In degree 0 the rest is empty:
    delta_0 x = -rho^R(x, .).
    """
    nh, nv = h.dim, rho.dim_v
    # the column step of each position of a source n-tuple
    stride = [nv * nh ** (n - 1 - i) for i in range(n)]

    def terms(slab, odd):
        # (k, t, x): the image of f_k has x at f_t, negated when odd
        return [(k, t, -x if odd else x) for k, vec in enumerate(slab)
                for t, x in enumerate(vec) if x]

    left = [[terms(slab, odd) for slab in rho.left] for odd in (False, True)]
    right = [terms([plane[a] for plane in rho.right], n % 2 == 0)
             for a in range(nh)]
    rows = []
    for idx in product(range(nh), repeat=n + 1):
        out = [Counter() for _ in range(nv)]  # an absent column reads 0
        for p in range(n + 1):
            base = sum(s * w for s, w in zip(idx[:p] + idx[p + 1:], stride))
            for k, t, x in left[p % 2][idx[p]] if p < n else right[idx[n]]:
                out[t][base + k] += x
        for p, q in combinations(range(n + 1), 2):
            rest = idx[:p] + idx[p + 1:q] + (0,) + idx[q + 1:]
            base = sum(s * w for s, w in zip(rest, stride))
            for s, c in enumerate(h.c[idx[p]][idx[q]]):
                if c:
                    j, x = base + s * stride[q - 1], c if p % 2 else -c
                    for t, row in enumerate(out):
                        row[j + t] += x
        rows.extend({j: x for j, x in row.items() if x} for row in out)
    return rows


def delta_matrix(r, n, cap=20000):
    """Matrix of delta: C^n -> C^{n+1} in the flattening order.

    h_T and rho_T are built once, the rows come from ``delta_rows`` and
    cap bounds the cells.  The matrix is probed on one fixed cochain with
    no zero entry, so that any single wrong entry shows: the image must be
    the cochain's Leibniz differential (delta_T_0 in degree 0), or
    OracleDisagreement is raised.
    """
    nrows, ncols = cochain_dim(r, n + 1), cochain_dim(r, n)
    if nrows * ncols > cap:
        raise ResourceLimit("delta_%d has %d x %d cells, beyond the "
                            "configured cap %d" % (n, nrows, ncols, cap))
    fld, h, rho = r.field, induced_algebra(r), induced_representation(r)
    m = Matrix(fld, [[row.get(j, fld.zero) for j in range(ncols)]
                     for row in delta_rows(h, rho, n)], ncols)
    p = fld.characteristic
    x = [fld.coerce(1 + (j % (p - 1) if p else j)) for j in range(ncols)]
    want = leibniz_differential(h, rho, MultiMap.from_flat(
        fld, n, h.dim, rho.dim_v, x)) if n else \
        MultiMap.from_matrix(delta_T_0(r, x))
    if m.mul_vec(x) != want.flatten():
        raise OracleDisagreement("delta_%d disagrees with the Leibniz "
                                 "differential on the probe cochain" % n)
    return m


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


def _sparse_cols(m):
    """Each column of m as the list of its nonzero (row, value) pairs."""
    cols = [[] for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for k, x in enumerate(row):
            if x:
                cols[k].append((i, x))
    return cols


def _require_square_zero(n, dn, dprev):
    """Raise ContainmentViolated unless delta_n . delta_{n-1} = 0 exactly.

    Each column of delta_{n-1} is pushed through delta_n as a combination
    of the columns of delta_n; only nonzero coefficients and the nonzero
    entries of each column are visited.
    """
    cols = _sparse_cols(dn)
    for j, coeffs in enumerate(_sparse_cols(dprev)):
        image = {}
        for k, c in coeffs:
            for i, x in cols[k]:
                image[i] = image.get(i, 0) + c * x
        if any(image.values()):
            raise ContainmentViolated("delta_%d . delta_%d is nonzero on "
                                      "column %d" % (n, n - 1, j))


def cohomology(r, max_degree, cap=20000, representatives=False):
    """Cocycle/coboundary dimensions and Betti numbers in degrees 0..max_degree.

    Each delta matrix is eliminated once.  By rank-nullity
    dim Z^n = dim C^n - rank delta_n and dim B^n = rank delta_{n-1}.
    B^n inside Z^n is verified exactly as delta_n . delta_{n-1} = 0
    (ContainmentViolated on failure, which would indicate a differential
    bug rather than bad input).  With representatives, the cocycle basis
    comes from the same elimination as the rank.
    """
    r.require_valid()
    # largest first, so that the cap refuses before any row is built
    mats = {n: delta_matrix(r, n, cap=cap)
            for n in reversed(range(max_degree + 1))}
    for n in range(1, max_degree + 1):
        _require_square_zero(n, mats[n], mats[n - 1])
    out = CohomologyReport(max_degree)
    dim_b = 0
    for n in range(max_degree + 1):
        dim_c = cochain_dim(r, n)
        if representatives:
            z_basis = mats[n].kernel_basis()
            rank = dim_c - len(z_basis)
        else:
            z_basis, rank = [], mats[n].rank()
        dim_z = dim_c - rank
        out.degrees[n] = DegreeData(dim_c, dim_z, dim_b, dim_z - dim_b, z_basis)
        dim_b = rank
    return out
