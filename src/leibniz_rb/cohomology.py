"""Cohomology of a weighted relative Rota-Baxter operator.

It is the Leibniz cohomology of the induced algebra h_T with coefficients
in g, C^0 = g and C^n = Hom(h^{x n}, g), where h_T acts on g by

    rhoL_T(u, x) = [Tu, x]_g - T rho^R(u, x)
    rhoR_T(x, u) = [x, Tu]_g - T rho^L(x, u)

One formula builds delta in every degree; delta_0 x = -rhoR_T(x, .) is the
map u -> T rho^L(x, u) - [x, Tu]_g (``delta_T_0`` builds it apart as
T B - A T).  Its checks run on the ints D h_T and D rho_T over ``ZZ``
(``IntegerView``): both the rows of D delta, whose ranks the elimination
takes as they are, and the probe's Leibniz differential.  The twisted
differential d_T = d + [[T, -]] (both routes, always) gives the same
cohomology up to the sign d_T f = (-1)^n delta f, a test oracle.
"""

from dataclasses import dataclass, field as dc_field
from itertools import combinations, product
from operator import mul

from .core import (ActionPair, LeibnizAlgebra, leibniz_differential,
                   over_ints, transport)
from .errors import (ContainmentViolated, OracleDisagreement, ResourceLimit,
                     ShapeMismatch)
from .fields import ZZ
from .graded import derived_bracket, differential_d
from .linalg import Matrix
from .multimap import MultiMap
from .operators import induced_algebra_unchecked


def induced_representation(r):
    """The action pair of h_T on g, each a two-term ``transport``:
    rhoL_T(e_a, e_i) = [Te_a, e_i]_g - T rho^R(e_a, e_i), and rhoR_T
    likewise."""
    r.require_valid()
    d, t, nt = r.context, r.t, -r.t
    act, c = d.actions, d.g.c_nz
    ig, ih = (Matrix.identity(r.field, m) for m in (d.g.dim, d.h.dim))
    return ActionPair(r.field, d.h.dim, d.g.dim,
                      transport([(c, t, ig, ig), (act.right_nz, ih, ig, nt)]),
                      transport([(c, ig, t, ig), (act.left_nz, ig, ih, nt)]))


def x0_columns(d, x0):
    """The columns of ad_{x0} on g and of rho^L(x0, -) on h over d's field:
    the store-row sums ``x0_sums``, one ``from_raw`` per column."""
    fld = d.field
    if len(x0) != d.g.dim:
        raise ShapeMismatch("x0 must live in g")
    x0 = [fld.coerce(x) for x in x0]
    return tuple(list(map(fld.from_raw, cols))
                 for cols in x0_sums(d, fld.to_raw(x0)))


def x0_sums(d, x0):
    """The raw columns of ad_{x0} and of rho^L(x0, -) for the raw x0."""
    return [row_sums(store, x0) for store in (d.g.c_nz, d.actions.left_nz)]


def row_sums(store, x):
    """Column i is sum_a x_a row (a, i) of store for the raw values x, not
    reduced mod p: the raw core of ``x0_columns`` and of the Nijenhuis scan
    (``deformations.check_nijenhuis``, ``rigidity_certificate``)."""
    _, n, m = store.dims
    cols = [[store.field.raw_zero] * m for _ in range(n)]
    for a, xa in enumerate(x):
        for i, row in store.by_first.get(a, ()) if xa else ():
            for k, t in row.items():
                cols[i][k] += xa * t
    return cols


def delta_T_0(r, x):
    """Degree-0 differential T B - A T, A = ad_x on g, B = rho^L(x, -) on h."""
    d = r.context
    a, b = (Matrix.from_cols(r.field, cols, m) for cols, m in
            zip(x0_columns(d, x), (d.g.dim, d.h.dim)))
    return r.t * b - a * r.t


def delta_T(r, f):
    """The specialized Leibniz differential on cochains of arity >= 1;
    induced_representation validates r."""
    rho = induced_representation(r)
    return leibniz_differential(induced_algebra_unchecked(r), rho, f)


def d_T(r, f):
    """The twisted differential d_T = d + [[T, -]], each term cross-checked."""
    d = r.context
    return differential_d(d, r.weight, f) \
        + derived_bracket(d, MultiMap.from_matrix(r.t), f)


def cochain_dim(r, n):
    return r.context.g.dim * r.context.h.dim ** n


def delta_rows(h, rho, n):
    """The rows of delta_n: C^n -> C^{n+1} as {column: value} dicts.

    h acts on V by the ActionPair rho; no axiom is assumed.  Entries are
    sums of raw store values (not reduced mod p).  Cochains flatten
    lexicographically by (source index tuple, target index).  Output tuple
    idx takes one Loday-Pirashvili term per left-out position (from 0):
    p < n gives (-1)^p rho^L(e_idx[p], f(rest)), n gives (-1)^(n+1)
    rho^R(f(rest), e_idx[n]), and a pair p < q gives (-1)^(p+1) f(rest with
    [e_idx[p], e_idx[q]] put in at q - 1).  In degree 0 the rest is empty:
    delta_0 x = -rho^R(x, .).  Only the nonzero store rows are visited.
    """
    nh, nv, c = h.dim, rho.dim_v, h.c_nz.rows
    brackets = [[list(c.get((p, q), {}).items()) for q in range(nh)]
                for p in range(nh)]
    # the column step of each position of a source n-tuple
    stride = [nv * nh ** (n - 1 - i) for i in range(n)]

    def terms(rows, odd):
        # (k, t, x): the image of f_k has x at f_t, negated when odd
        return [(k, t, -x if odd else x) for k, row in rows
                for t, x in row.items()]

    left, right = rho.left_nz.by_first, rho.right_nz.by_second
    lterms = [[terms(left.get(i, ()), odd) for i in range(nh)]
              for odd in (False, True)]
    rterms = [terms(right.get(a, ()), n % 2 == 0) for a in range(nh)]
    rows = []
    for idx in product(range(nh), repeat=n + 1):
        out = [{} for _ in range(nv)]  # an absent column reads 0
        gets = [row.get for row in out]
        for p in range(n + 1):
            base = sum(map(mul, idx[:p] + idx[p + 1:], stride))
            for k, t, x in lterms[p % 2][idx[p]] if p < n else rterms[idx[n]]:
                j = base + k
                out[t][j] = gets[t](j, 0) + x
        for p, q in combinations(range(n + 1), 2):
            entries = brackets[idx[p]][idx[q]]
            if not entries:
                continue
            base = sum(map(mul, idx[:p] + idx[p + 1:q] + (0,) + idx[q + 1:],
                           stride))
            for s, x in entries:
                j, x = base + s * stride[q - 1], x if p % 2 else -x
                for t in range(nv):
                    out[t][j + t] = gets[t](j + t, 0) + x
        rows.extend({j: x for j, x in row.items() if x} for row in out)
    return rows


class IntegerView:
    """h acting on V by rho, with the int rows of D delta_n (``rows(n)``).

    ``h_z`` and ``rho_z`` are D h and D rho over ``ZZ`` (``over_ints``);
    the rows of each degree are built once from them.
    """

    def __init__(self, h, rho):
        self.h, self.rho = h, rho
        self.den, (c, left, right) = over_ints(
            (h.c_nz, rho.left_nz, rho.right_nz))
        self.h_z = LeibnizAlgebra(ZZ, h.dim, c)
        self.rho_z = ActionPair(ZZ, rho.dim_g, rho.dim_v, left, right)
        self._rows = {}  # no closure over self: a cycle would wait for gc

    def rows(self, n):
        if n not in self._rows:
            self._rows[n] = delta_rows(self.h_z, self.rho_z, n)
        return self._rows[n]


def integer_view(r):
    """The IntegerView of h_T and rho_T; induced_representation validates."""
    rho = induced_representation(r)
    return IntegerView(induced_algebra_unchecked(r), rho)


def _require_square_zero(n, rows, prev, p):
    """Raise ContainmentViolated unless delta_n . delta_{n-1} = 0 exactly.

    rows and prev are int rows of multiples of both (residues over GF(p),
    p the characteristic), multiplied on dicts; the message names the first
    column hit.
    """
    bad = []
    for row in rows:
        image = {}
        get = image.get
        for k, a in row.items():
            for j, b in prev[k].items():
                image[j] = get(j, 0) + a * b
        bad.extend(j for j, s in image.items() if (s % p if p else s))
    if bad:
        raise ContainmentViolated("delta_%d . delta_%d is nonzero on "
                                  "column %d" % (n, n - 1, min(bad)))


def delta_matrix(r, n, cap=20000, view=None):
    """delta_n: C^n -> C^{n+1} in the flattening order, entries a / D for
    the int rows a of D delta_n, handed over by ``Matrix.from_int_rows``.

    cap bounds the cells (dim h^n clipped past the cap, so that a large n
    is refused at once); ``cohomology`` passes one view for all degrees.
    The int rows of D delta_n are applied to one fixed int cochain with no
    zero entry: the image must be its Leibniz differential over the ints
    D h_T, D rho_T (D delta_T_0 in degree 0), exactly over Q and mod p over
    GF(p), and each int store D times its store of h_T or rho_T, key for
    key, or OracleDisagreement.  For n >= 1 delta_n . delta_{n-1} = 0 is
    checked.
    """
    if n < 0:
        raise ShapeMismatch("delta_n needs n >= 0, got %d" % n)
    ng, nh, clip = r.context.g.dim, r.context.h.dim, cap.bit_length() + 1
    if ng * nh ** min(n + 1, clip) * ng * nh ** min(n, clip) > cap:
        raise ResourceLimit("delta_%d has more cells than the configured "
                            "cap %d" % (n, cap))
    ncols = cochain_dim(r, n)
    view = view or integer_view(r)
    fld, rows, den = r.field, view.rows(n), view.den
    p = fld.characteristic
    probe = [1 + (j % (p - 1) if p else j) for j in range(ncols)]
    got = [sum(a * probe[j] for j, a in row.items()) for row in rows]
    if n:
        want = leibniz_differential(view.h_z, view.rho_z, MultiMap.from_flat(
            ZZ, n, nh, ng, probe)).flatten()
    else:
        want = [den * w for w in fld.to_raw(MultiMap.from_matrix(
            delta_T_0(r, [fld.coerce(v) for v in probe])).flatten())]
    # and each int store must be D times its store of h_T or rho_T
    pairs = zip((view.h_z.c_nz, view.rho_z.left_nz, view.rho_z.right_nz),
                (view.h.c_nz, view.rho.left_nz, view.rho.right_nz))
    if len(got) != len(want) or any(
            z.rows != {ij: {k: den * x for k, x in row.items()}
                       for ij, row in s.rows.items()} for z, s in pairs) \
            or any((a - b) % p if p else a != b for a, b in zip(got, want)):
        raise OracleDisagreement("delta_%d disagrees with the Leibniz "
                                 "differential on the probe cochain" % n)
    if n:
        _require_square_zero(n, rows, view.rows(n - 1), p)
    return Matrix.from_int_rows(fld, rows, ncols, den)


@dataclass
class DegreeData:
    dim_c: int
    dim_z: int
    dim_b: int
    dim_h: int


@dataclass
class CohomologyReport:
    max_degree: int
    degrees: dict = dc_field(default_factory=dict)

    def betti(self):
        return [self.degrees[n].dim_h for n in range(self.max_degree + 1)]


def cohomology(r, max_degree, cap=20000):
    """Cocycle/coboundary dimensions and Betti numbers in degrees 0..max_degree.

    One IntegerView of h_T and rho_T serves every delta, and each is
    eliminated once on its int rows, before the next is built.  By
    rank-nullity dim Z^n = dim C^n - rank delta_n, dim B^n = rank delta_{n-1}.
    ``delta_matrix`` verifies B^n inside Z^n as delta_n . delta_{n-1} = 0
    (ContainmentViolated on failure: a differential bug, not bad input).
    cap bounds the cells of each delta and (they do not grow when dim h
    <= 1) rows x terms x arity of the top one.
    """
    if max_degree < 0:
        raise ShapeMismatch("cohomology needs max_degree >= 0, got %d"
                            % max_degree)
    # the view validates r before any cap is checked
    view = integer_view(r)
    # rows of the top delta (dim h^k clipped past the cap), +1 for setup
    k, nh = max_degree + 1, r.context.h.dim
    rows = r.context.g.dim * nh ** min(k, cap.bit_length() + 1)
    if (rows + 1) * k * (k + 1) // 2 * k > cap:
        raise ResourceLimit("delta_%d: rows x Loday-Pirashvili terms x "
                            "arity exceed the configured cap %d"
                            % (max_degree, cap))
    rank = {-1: 0}
    # largest first, so that the cap refuses before any row is built
    for n in reversed(range(max_degree + 1)):
        rank[n] = len(delta_matrix(r, n, cap=cap, view=view).rref()[1])
    out = CohomologyReport(max_degree)
    for n in range(max_degree + 1):
        dim_c, dim_b = cochain_dim(r, n), rank[n - 1]
        dim_z = dim_c - rank[n]
        out.degrees[n] = DegreeData(dim_c, dim_z, dim_b, dim_z - dim_b)
    return out
