"""Weighted (relative) Rota-Baxter operators on Leibniz algebras.

An operator is a linear map T: h -> g attached to a Leibniz g-representation
(g, h, rho^L, rho^R) and a weight lambda, subject to

    [Tu, Tv]_g = T( rho^L(Tu, v) + rho^R(u, Tv) + lambda [u, v]_h ).

Non-relative operators (T: g -> g) are handled by placing them in the
adjoint context, so all verification code has a single code path.
"""

from itertools import product

from .core import (ActionPair, LeibnizAlgebra, LeibnizGRep, ValidationReport,
                   adjoint_grep, basis_vec, expands, is_adjoint_grep,
                   is_algebra_morphism, transport)
from .errors import (InvalidInput, InvalidOperator, NotAdjointContext,
                     OracleDisagreement, ResourceLimit, ShapeMismatch,
                     WrongField)
from .fields import PrimeField
from .linalg import Matrix, span_rank


def _check_operator_shape(d, t):
    if not isinstance(t, Matrix):
        raise InvalidInput("T must be a Matrix, not %s" % type(t).__name__)
    if t.field != d.field:
        raise WrongField("T over %r, context over %r" % (t.field, d.field))
    if t.shape != (d.g.dim, d.h.dim):
        raise ShapeMismatch("operator must be %dx%d, got %dx%d"
                            % (d.g.dim, d.h.dim, t.shape[0], t.shape[1]))


def operator_rhs(d, lam, a, tu, b, tv):
    """rho^L(Te_a, e_b) + rho^R(e_a, Te_b) + lambda [e_a, e_b]_h in h.

    a, b are basis indices of h, tu, tv the raw columns Te_a, Te_b and lam
    the raw weight.  On basis vectors the sum is one combination of store
    rows, lam c_h[a][b] + sum_i tu_i rho^L[i][b] + sum_i tv_i rho^R[a][i],
    made field elements once; zero coefficients and rows are skipped.
    """
    act, fld, ch = d.actions, d.field, d.h.c_nz.rows
    out = [fld.raw_zero] * d.h.dim
    if lam and (a, b) in ch:
        for k, x in ch[a, b].items():
            out[k] += lam * x
    for i, row in act.left_nz.by_second.get(b, ()):
        c = tu[i]
        if c:
            for k, x in row.items():
                out[k] += c * x
    for i, row in act.right_nz.by_first.get(a, ()):
        c = tv[i]
        if c:
            for k, x in row.items():
                out[k] += c * x
    return fld.from_raw(out)


def check_weighted_relative_rbo(d, lam, t, memo=None):
    """Verify the weighted identity on all basis pairs, reading T raw once.

    A search shares memo over its hits in one g: [Te_a, Te_b]_g by raw
    column pair, up to MEMO_MAX entries; each pair's right-hand side, its
    T image and the comparison are never shared.  No memo, no hashing.
    """
    _check_operator_shape(d, t)
    lam = d.field.to_raw([d.field.coerce(lam)])[0]
    rep = ValidationReport("weighted-relative-rbo")
    cols = [t.col(a) for a in range(d.h.dim)]  # T e_a
    raw = [t.raw_col(a) for a in range(d.h.dim)]
    keys = memo is not None and [tuple(c) for c in raw]
    for a, b in product(range(d.h.dim), repeat=2):
        key = keys and (keys[a], keys[b])
        lhs = memo.get(key) if key else None
        if lhs is None:
            lhs = d.g.bracket(cols[a], cols[b])
            if key and len(memo) < MEMO_MAX:
                memo[key] = lhs
        rhs = t.mul_vec(operator_rhs(d, lam, a, raw[a], b, raw[b]))
        if lhs != rhs:
            rep.add("operator-identity", (a, b), lhs, rhs)
    return rep


def check_weighted_rbo(a, lam, t):
    """Verify [Tx,Ty] = T([Tx,y] + [x,Ty] + lambda[x,y]) on an algebra."""
    rep = check_weighted_relative_rbo(adjoint_grep(a), lam, t)
    rep.subject = "weighted-rbo"
    return rep


class WeightedRBO:
    """An operator T: h -> g of weight lambda on a Leibniz g-representation."""

    def __init__(self, context, weight, t):
        _check_operator_shape(context, t)
        self.context = context
        self.field = context.field
        self.weight = self.field.coerce(weight)
        self.t = t

    @classmethod
    def on_algebra(cls, a, weight, t):
        """Wrap a non-relative operator T: a -> a in the adjoint context."""
        return cls(adjoint_grep(a), weight, t)

    def validate(self):
        return check_weighted_relative_rbo(self.context, self.weight, self.t)

    @property
    def is_valid(self):
        return self.validate().ok

    def require_valid(self):
        """Raise InvalidOperator unless T satisfies the weighted identity."""
        rep = self.validate()
        if not rep.ok:
            raise InvalidOperator("operator fails the weighted identity: %s"
                                  % rep.summary())

    def __eq__(self, other):
        return (isinstance(other, WeightedRBO) and self.context == other.context
                and self.weight == other.weight and self.t == other.t)

    def __repr__(self):
        return "WeightedRBO(weight=%s, t=%r)" % (self.weight, self.t)


def graph_check(d, lam, t):
    """Is the graph Gr(T) = {(Tu, u)} a subalgebra of the semidirect product?

    Independent of check_weighted_relative_rbo: the graph is closed under
    the bracket of the semidirect product of the context iff adding every
    bracket of two graph basis vectors leaves the span rank unchanged.
    """
    from .core import semidirect_product_unchecked

    _check_operator_shape(d, t)
    lam = d.field.coerce(lam)
    sdp = semidirect_product_unchecked(d, lam)
    graph = [t.col(a) + basis_vec(d.field, d.h.dim, a)
             for a in range(d.h.dim)]
    brackets = [sdp.bracket(x, y) for x in graph for y in graph]
    return span_rank(d.field, graph + brackets) == span_rank(d.field, graph)


def induced_algebra(r):
    """The Leibniz algebra (h, [.,.]_T) of a valid operator; validates r."""
    r.require_valid()
    return induced_algebra_unchecked(r)


def induced_algebra_unchecked(r):
    """[u, v]_T = rho^L(Tu, v) + rho^R(u, Tv) + lambda [u, v]_h."""
    d, fld = r.context, r.field
    nh, lam = d.h.dim, fld.to_raw([r.weight])[0]
    cols = [r.t.raw_col(a) for a in range(nh)]
    c = [[operator_rhs(d, lam, a, cols[a], b, cols[b]) for b in range(nh)]
         for a in range(nh)]
    return LeibnizAlgebra(fld, nh, c)


class OperatorMorphism:
    """A pair (phi: g -> g', psi: h -> h') between operator contexts."""

    def __init__(self, phi, psi):
        self.phi = phi
        self.psi = psi


def series_coeff(a, b, n):
    """Coefficient n of the product a(t) b(t) of matrix power series."""
    return sum((a[k] * b[n - k] for k in range(1, n + 1)), a[0] * b[n])


def morphism_at_order(d, dp, phi, psi, t, tp, n):
    """Order n of the five morphism conditions from (d, T) to (d', T').

    phi: g -> g', psi: h -> h', T and T' are power series in t, lists of
    matrix coefficients: phi and psi are algebra morphisms, phi T = T' psi,
    and psi intertwines rho^L and rho^R (``core.expands``).  A coefficient
    of phi or psi of the wrong shape raises ShapeMismatch.
    """
    for s, shape in ((phi, (dp.g.dim, d.g.dim)), (psi, (dp.h.dim, d.h.dim))):
        if any(m.shape != shape for m in s):
            raise ShapeMismatch("morphism matrix has wrong shape")
    if series_coeff(phi, t, n) != series_coeff(tp, psi, n):
        return False
    act, act2 = d.actions, dp.actions
    return all(expands(*c, n) for c in (
        (d.g.c_nz, dp.g.c_nz, phi, phi, phi),
        (d.h.c_nz, dp.h.c_nz, psi, psi, psi),
        (act.left_nz, act2.left_nz, psi, phi, psi),
        (act.right_nz, act2.right_nz, psi, psi, phi)))


def check_operator_morphism(r, rp, m):
    """Is (phi, psi) a morphism of weighted operators from r to rp?

    The five conditions are ``morphism_at_order`` at order 0.  Returns a
    bool; when they hold, psi is additionally confirmed to carry the
    induced bracket of r to that of rp.
    """
    if r.weight != rp.weight or not morphism_at_order(
            r.context, rp.context, [m.phi], [m.psi], [r.t], [rp.t], 0):
        return False
    if r.is_valid and rp.is_valid and not is_algebra_morphism(
            *map(induced_algebra_unchecked, (r, rp)), m.psi):
        raise OracleDisagreement("psi satisfies the five morphism conditions "
                                 "but does not carry the induced bracket")
    return True


def check_crossed_homomorphism(d, lam, dmap):
    """Verify D[x,y]_g = rho^L(x,Dy) + rho^R(Dx,y) + lambda[Dx,Dy]_h."""
    if dmap.shape != (d.h.dim, d.g.dim):
        raise ShapeMismatch("crossed homomorphism must be %dx%d"
                            % (d.h.dim, d.g.dim))
    fld, act = d.field, d.actions
    ig, ih = Matrix.identity(fld, d.g.dim), Matrix.identity(fld, d.h.dim)
    return ValidationReport("crossed-homomorphism").add_differences(
        "crossed-homomorphism", transport([(d.g.c_nz, ig, ig, dmap)]),
        transport([(act.left_nz, ig, dmap, ih), (act.right_nz, dmap, ig, ih),
                   (d.h.c_nz, dmap, dmap, ih.scale(lam))]))


def invert_crossed(d, lam, dmap):
    """T = D^{-1} of an invertible crossed homomorphism, as a WeightedRBO."""
    rep = check_crossed_homomorphism(d, lam, dmap)
    if not rep.ok:
        raise InvalidInput("not a crossed homomorphism: %s" % rep.summary())
    return WeightedRBO(d, lam, dmap.inverse())


def derived_operators(r, nu):
    """The two derived operators of a non-relative weighted operator.

    Returns (nu T with weight nu lambda, -lambda id - T with weight lambda).
    Only defined when the context is the adjoint one.
    """
    d = r.context
    if not is_adjoint_grep(d):
        raise NotAdjointContext("derived operators need a non-relative "
                                "operator (adjoint context)")
    fld = d.field
    nu = fld.coerce(nu)
    first = WeightedRBO(d, nu * r.weight, r.t.scale(nu))
    ident = Matrix.identity(fld, d.g.dim)
    second = WeightedRBO(d, r.weight, ident.scale(-r.weight) - r.t)
    return first, second


def ideal_context(a, indices):
    """The relative context of an ideal spanned by coordinate basis vectors.

    indices selects basis vectors of a spanning a two-sided ideal h; the
    g-action on h is the restricted bracket.  Returns (context, inclusion)
    where inclusion: h -> g is the evident matrix; with weight -1 it is a
    relative Rota-Baxter operator.
    """
    indices = sorted(set(indices))
    if not indices or any(i < 0 or i >= a.dim for i in indices):
        raise InvalidInput("ideal indices out of range")
    for (i, j, k), _ in a.c_nz.cells():
        if (i in indices or j in indices) and k not in indices:
            raise InvalidInput("subspace is not an ideal: bracket at %s "
                               "leaves the span" % ((i, j),))
    fld, n, c = a.field, a.dim, a.c_nz
    incl = Matrix.from_cols(fld, [basis_vec(fld, n, i) for i in indices], n)
    proj, ig = incl.transpose(), Matrix.identity(fld, n)
    h = LeibnizAlgebra(fld, len(indices), transport([(c, incl, incl, proj)]))
    return LeibnizGRep(a, h, ActionPair(
        fld, n, h.dim, transport([(c, ig, incl, proj)]),
        transport([(c, incl, ig, proj)]))), incl


def _compile_identity(d, lam):
    """The weighted identity as quadratic polynomials mod p in the cells of T.

    Cell i * n_h + a holds T[i][a] as an int in [0, p).  Polynomial
    (a, b, k) is coordinate k of

        [Te_a, Te_b]_g
            - T(rho^L(Te_a, e_b) + rho^R(e_a, Te_b) + lambda [e_a, e_b]_h),

    so T satisfies the identity iff every polynomial vanishes mod p.  Each
    is returned as (quadratic terms (c, u, v), linear terms (c, u)) with
    nonzero c; polynomials with no terms are dropped.
    """
    p, ng, nh, lam = d.field.p, d.g.dim, d.h.dim, lam.v
    cg, ch, act = d.g.c_nz.rows, d.h.c_nz.rows, d.actions
    polys = []
    for a, b, k in product(range(nh), range(nh), range(ng)):
        terms = [(row[k], i * nh + a, j * nh + b)
                 for (i, j), row in cg.items() if k in row]
        for rows, u in ((act.left_nz.by_second.get(b, ()), a),
                        (act.right_nz.by_first.get(a, ()), b)):
            terms += [(-x, k * nh + m, i * nh + u) for i, row in rows
                      for m, x in row.items()]
        quad = {}
        for c, u, v in terms:
            key = (min(u, v), max(u, v))
            quad[key] = (quad.get(key, 0) + c) % p
        quad = [(c, u, v) for (u, v), c in quad.items() if c]
        lin = [(-lam * x % p, k * nh + m)
               for m, x in ch.get((a, b), {}).items() if lam * x % p]
        if quad or lin:
            polys.append((quad, lin))
    return polys


# The range of the bitset screen (see ``_screen``), and the most g-brackets
# a search keeps (see ``check_weighted_relative_rbo``)
BITSET_MAX_P = 5
BITSET_MAX_BITS = 1 << 20
MEMO_MAX = 1 << 14


def _screen(polys, p, cells):
    """The int tuples of length cells on which every polynomial vanishes.

    Lexicographic order, from ``_screen_bitset`` when p <= BITSET_MAX_P and
    p^cells <= BITSET_MAX_BITS, else from ``_screen_prefix``.  On a 2-core
    x86-64 host the bitset form screens Heisenberg over GF(3) in 5 ms, the
    prefix form in 60; but each term costs it up to 2 p^2 ops on
    p^cells-bit ints, so over GF(31) a 2 x 2 context takes it 356 ms against
    51, and at p = 7 or 11 the winner depends on the system.  Within the
    bound the bitset form's memory peaks under 8 MB: cells * p such ints
    (5.2 MB at GF(2), 20 cells) and the decoded bits.
    """
    if p <= BITSET_MAX_P and p ** cells <= BITSET_MAX_BITS:
        return _screen_bitset(polys, p, cells)
    return _screen_prefix(polys, p, cells)


def _screen_bitset(polys, p, cells):
    """``_screen`` on ints whose bit i stands for the candidate of rank i.

    Cell 0 is most significant; ind[u][a] holds the candidates with cell u
    = a.  A value is p ints, int r holding the candidates where it is r mod
    p, so adding a term c m (m = x_u or x_u x_v) is a cyclic convolution.
    The zero candidate passes every polynomial, so passing is never empty.
    """
    n = p ** cells
    full = (1 << n) - 1
    strides = [p ** (cells - 1 - u) for u in range(cells)]
    ind = []
    for s in strides:
        x, w = (1 << s) - 1, p * s
        while w < n:  # doubling: full // (2^w - 1) takes 1.6 s at n = 2^20
            x, w = x | x << w, 2 * w
        ind.append([(x & full) << a * s for a in range(p)])
    passing = full
    for quad, lin in polys:
        val = [passing] + [0] * (p - 1)
        for c, u, *v in quad + lin:
            mono = ind[u]
            if v:
                mono = [0] * p
                for a, b in product(range(p), repeat=2):
                    mono[a * b % p] |= ind[u][a] & ind[v[0]][b]
            new = [0] * p
            for r, t in product(range(p), repeat=2):
                new[(r + c * t) % p] |= val[r] & mono[t]
            val = new
        passing = val[0]
    bits, i = bin(passing)[:1:-1], -1
    while (i := bits.find("1", i + 1)) >= 0:
        yield tuple(i // s % p for s in strides)


def _screen_prefix(polys, p, cells):
    """``_screen`` one prefix of all cells but the last at a time.

    The last cell y changes fastest, so each polynomial is split once into
    c0 + c1 y + c2 y^2, where c0 and c1 depend on the earlier cells and c2
    is a constant.  Each prefix evaluates c0 and c1 of every polynomial
    once and reads the passing y off a bitmask (bit y set iff c0 + c1 y +
    c2 y^2 is 0 mod p), cached by the residues (c0, c1, c2).  The masks are
    ANDed over the polynomials, stopping at the first empty one.
    """
    if not cells:
        yield ()
        return
    last = cells - 1
    # per polynomial: quadratic and linear terms of c0, terms of c1 and
    # the constants in c1 and c2
    split = [([(c, u, v) for c, u, v in quad if v != last],
              [(c, u) for c, u in lin if u != last],
              [(c, u) for c, u, v in quad if u != v == last],
              sum(c for c, u in lin if u == last),
              sum(c for c, u, v in quad if u == v == last))
             for quad, lin in polys]
    full = (1 << p) - 1
    masks = {}
    for x in product(range(p), repeat=last):
        passing = full
        for q0, l0, q1, k1, c2 in split:
            c0 = (sum([c * x[u] * x[v] for c, u, v in q0])
                  + sum([c * x[u] for c, u in l0])) % p
            c1 = (k1 + sum([c * x[u] for c, u in q1])) % p
            key = (c0, c1, c2)
            mask = masks.get(key)
            if mask is None:
                mask = masks[key] = sum(1 << y for y in range(p)
                                        if (c0 + c1 * y + c2 * y * y) % p == 0)
            passing &= mask
            if not passing:
                break
        while passing:
            low = passing & -passing
            yield x + (low.bit_length() - 1,)
            passing ^= low


def search_rbos(d, lam, cap=10 ** 6):
    """All operators T over GF(p) satisfying the weighted identity.

    Enumerates every n_g x n_h matrix in lexicographic order of the
    row-major entry vector (entries ordered 0..p-1) and yields the ones
    satisfying the weighted identity.  The order is deterministic.

    Candidates are screened with int arithmetic by the identity compiled
    to polynomials mod p (``_compile_identity``), all at once on bitsets
    of p^cells bits when p <= 5 and p^cells <= 2^20 (under 8 MB), else
    once per prefix of all cells but the last (``_screen``); every candidate
    that passes is re-verified by check_weighted_relative_rbo, which shares
    no code with the screen.  The hits share one memo of [Te_a, Te_b]_g by
    raw column pair, up to MEMO_MAX entries; each hit's right-hand sides
    (``operator_rhs``), their T images and the comparisons are its own.
    A rejection there raises OracleDisagreement.
    """
    fld = d.field
    if not isinstance(fld, PrimeField):
        raise WrongField("operator search requires a finite prime field")
    p = fld.p
    ng, nh = d.g.dim, d.h.dim
    cells = ng * nh
    total = p ** cells
    if total > cap:
        raise ResourceLimit("search space %d exceeds cap %d" % (total, cap))
    lam = fld.coerce(lam)
    els, memo = fld.elements(), {}
    for x in _screen(_compile_identity(d, lam), p, cells):
        t = Matrix(fld, [[els[x[i * nh + j]] for j in range(nh)]
                         for i in range(ng)], nh)
        if not check_weighted_relative_rbo(d, lam, t, memo).ok:
            raise OracleDisagreement(
                "compiled identity accepts %r, the direct check rejects "
                "it" % (list(x),))
        yield t
