"""Balavoine bracket, derived bracket and the operator differential.

The derived bracket and the differential each have two independent
implementations: an explicit formula and a route through the Balavoine
bracket on maps of the total space V = g + h.  The explicit differential
d = [theta', -] is (-1)^n lambda times the Loday-Pirashvili coboundary of
(h, [.,.]_h) with trivial coefficients in g.  The public bracket and
differential always run both over ``ZZ`` on the context, maps and lambda,
each times the lcm of its denominators (``fields.int_scale``; residues over
GF(p)), and raise OracleDisagreement on any split of the int results: the
explicit result over the product of the scales is returned.  A context is
scaled, and its theta built, once (``LeibnizGRep.int_context``,
``make_theta``).  One route alone is called by name (``*_explicit``).

Both bracket routes visit nonzero rows only.  The explicit route scatters
each shuffle sum from the rows of P and Q and reads rho^L and rho^R from
the store rows of the action tensors; the lifted route composes with
circ_i.  The two share no code beyond the shuffle tables: per shuffle an
itemgetter that gathers indices into shuffled order, and the sign.
"""

from functools import lru_cache
from itertools import combinations
from operator import itemgetter

from .core import (ActionPair, ValidationReport, _pow_sign, block_tensor,
                   leibniz_differential)
from .errors import OracleDisagreement, ShapeMismatch, WrongField
from .fields import ZZ, int_scale
from .multimap import MultiMap
from .operators import _check_operator_shape


def _table(perms):
    """(gather, sign) per permutation: gather(vals) has vals[k] at position
    perm[k] (``tuple`` for the one permutation of fewer than two values),
    sign is (-1)^(inversions of perm)."""
    out = []
    for perm in perms:
        inv = sorted(range(len(perm)), key=perm.__getitem__)
        out.append((itemgetter(*inv) if len(inv) > 1 else tuple,
                    (-1) ** sum(a > b for a, b in combinations(perm, 2))))
    return out


@lru_cache(maxsize=None)
def shuffles2(p, q):
    """The (p,q)-shuffles of {0..p+q-1}, increasing on each block."""
    return _table([list(first) + [i for i in range(p + q) if i not in first]
                   for first in combinations(range(p + q), p)])


@lru_cache(maxsize=None)
def shuffles3(p, q):
    """The (p,1,q)-shuffles of {0..p+q}: blocks of sizes p, 1, q."""
    n = p + 1 + q
    return _table([list(first) + [mid] + [i for i in range(n)
                                          if i not in first and i != mid]
                   for first in combinations(range(n), p)
                   for mid in range(n) if mid not in first])


def circ_i(f, g, i):
    """Balavoine partial composition f o_i g, 1 <= i <= arity(f).

    The last argument of g occupies the fixed slot; the earlier
    arguments of g are shuffled with the first i-1 arguments of f.
    Only nonzero rows are visited: each nonzero row of g meets the
    nonzero rows of f whose slot-i index is in its support, and the
    product is scattered to the output tuple of every shuffle.
    """
    if not (f.src_dim == g.src_dim == f.tgt_dim == g.tgt_dim):
        raise ShapeMismatch("partial composition needs maps on one space")
    m = f.arity - 1
    n = g.arity - 1
    if not 1 <= i <= m + 1:
        raise ShapeMismatch("composition slot %d out of range 1..%d" % (i, m + 1))
    # each gather shuffles (f's first i-1 indices, g's first n indices)
    shs = shuffles2(i - 1, n)
    by_slot = {}
    for ft, frow in f.nz.items():
        by_slot.setdefault(ft[i - 1], []).append((ft, frow))
    rows = {}
    for gt, grow in g.nz.items():
        for s, gs in enumerate(grow):
            if not gs:
                continue
            for ft, frow in by_slot.get(s, ()):
                term = [gs * x for x in frow]
                vals = ft[:i - 1] + gt[:n]
                tail = gt[n:] + ft[i:]
                for gather, sign in shs:
                    idx = gather(vals) + tail
                    acc = rows.get(idx)
                    if acc is None:
                        rows[idx] = term if sign > 0 else [-x for x in term]
                    elif sign > 0:
                        rows[idx] = [a + x for a, x in zip(acc, term)]
                    else:
                        rows[idx] = [a - x for a, x in zip(acc, term)]
    out = MultiMap(f.field, m + n + 1, f.src_dim, f.tgt_dim)
    out.nz = {idx: tuple(r) for idx, r in rows.items() if any(r)}
    return out


def balavoine_bracket(f, g):
    """Graded Lie bracket on multilinear maps; degree = arity - 1.  The rows
    of its m + n + 2 partial compositions add, signed, into one dict."""
    m, n = f.arity - 1, g.arity - 1
    terms = [(f, g, i, (i - 1) * n) for i in range(1, m + 2)]
    terms += [(g, f, i, m * n + (i - 1) * m + 1) for i in range(1, n + 2)]
    rows = {}
    for a, b, i, k in terms:
        s = (-1) ** k
        for idx, row in circ_i(a, b, i).nz.items():
            acc = rows.get(idx)
            rows[idx] = [y + s * x for y, x in zip(acc, row)] if acc \
                else [s * x for x in row]
    out = MultiMap(f.field, m + n + 1, f.src_dim, f.tgt_dim)
    out.nz = {idx: tuple(r) for idx, r in rows.items() if any(r)}
    return out


# ---------------------------------------------------------------------------
# Structure elements on V = g + h


def _block_map(d, mu, lam):
    """``block_tensor`` as an arity-2 map on V = g + h."""
    n = d.g.dim + d.h.dim
    out = MultiMap(d.field, 2, n, n)
    out.nz = dict(block_tensor(d, mu, lam).dense_rows())
    return out


def make_theta(d):
    """theta = mu_g + rho^L + rho^R on V = g + h, built once and kept on d."""
    if d._theta is None:
        d._theta = _block_map(d, d.field.one, d.field.zero)
    return d._theta


def make_theta_prime(d, lam):
    """theta' = -lambda mu_h as an arity-2 map on V = g + h."""
    return _block_map(d, d.field.zero, -d.field.coerce(lam))


def lift(p, ng, nh):
    """Embed P: h^{x m} -> g as P^ on V, zero unless all inputs are in h."""
    if p.src_dim != nh or p.tgt_dim != ng:
        raise ShapeMismatch("lift expects a map h^{x m} -> g")
    out = MultiMap(p.field, p.arity, ng + nh, ng + nh)
    pad = (p.field.zero,) * nh
    out.nz = {tuple(ng + a for a in idx): row + pad
              for idx, row in p.nz.items()}
    return out


def restrict(q, ng, nh):
    """Restrict a map on V to h-inputs and project onto g."""
    out = MultiMap(q.field, q.arity, nh, ng)
    out.nz = {tuple(a - ng for a in idx): row[:ng]
              for idx, row in q.nz.items()
              if min(idx) >= ng and any(row[:ng])}
    return out


# ---------------------------------------------------------------------------
# Derived bracket: explicit shuffle formula and nested-Balavoine route


def derived_bracket_explicit(d, p, q):
    """The six-sum shuffle formula for [[P, Q]] on Hom(h^{x *}, g).

    Both halves (P outer, then Q outer times -(-1)^{mn}) are scattered
    from the nonzero rows of P and Q into one {tuple: row} accumulator,
    so only the output tuples that receive a term are visited.
    """
    fld = d.field
    m, n = p.arity, q.arity
    rows = {}
    _scatter_half(d, p, q, 1, rows)
    _scatter_half(d, q, p, -(-1) ** (m * n), rows)
    out = MultiMap(fld, m + n, d.h.dim, d.g.dim)
    out.nz = {idx: tuple(r) for idx, r in rows.items() if any(r)}
    return out


def _spread(rows, shs, c, vals, tail, term):
    """Add c*sign*term (a fresh list) at gather(vals) + tail per shuffle."""
    for gather, sign in shs:
        idx = gather(vals) + tail
        acc = rows.get(idx)
        if acc is None:
            rows[idx] = term if sign == c else [-x for x in term]
        elif sign == c:
            rows[idx] = [a + x for a, x in zip(acc, term)]
        else:
            rows[idx] = [a - x for a, x in zip(acc, term)]


def _scatter_half(d, p, q, half, rows):
    """Add half (+-1) times the three P-outer sums of the explicit formula.

    rho^L(Q(v), e_x) and rho^R(e_x, Q(v)) are summed once per nonzero row
    v of Q from the store rows by_second[x] and by_first[x] of the
    actions.  In the rho^L sum the indices v are shuffled with P's first
    i-1 and x is fixed; in the rho^R sum x is shuffled (as a middle block)
    and v's last index is fixed.  Each nonzero coordinate k of the action
    vector meets the rows of P whose slot-i index is k.
    """
    fld, nh, act = d.field, d.h.dim, d.actions
    m, n = p.arity, q.arity
    acts = []  # (shuffled indices, fixed index, rho^L?, sparse h-vector)
    for qt, qv in q.nz.items():
        qr = fld.to_raw(qv)
        for x in range(nh):
            for shuffled, fixed, is_left, store_rows in (
                    (qt, (x,), True, act.left_nz.by_second.get(x, ())),
                    ((x,) + qt[:-1], qt[-1:], False,
                     act.right_nz.by_first.get(x, ()))):
                acc = [fld.raw_zero] * nh
                for k, row in store_rows:
                    for b, t in row.items():
                        acc[b] += qr[k] * t
                vec = [(b, y) for b, y in enumerate(fld.from_raw(acc)) if y]
                if vec:
                    acts.append((shuffled, fixed, is_left, vec))
    for i in range(1, m + 1):
        block = half * (-1) ** ((i - 1) * n)
        # The rho^R shuffle sign is the parity of the permutation with the
        # middle element moved past the inner block (an extra (-1)^{n-1});
        # this is the unique convention under which the formula agrees
        # with the nested-Balavoine route.
        shs = {True: (shuffles2(i - 1, n), block),
               False: (shuffles3(i - 1, n - 1), block * (-1) ** (n - 1))}
        by_slot = {}
        for pt, pv in p.nz.items():
            by_slot.setdefault(pt[i - 1], []).append((pt, pv))
        for shuffled, fixed, is_left, vec in acts:
            for k, y in vec:
                for pt, pv in by_slot.get(k, ()):
                    _spread(rows, *shs[is_left], pt[:i - 1] + shuffled,
                            fixed + pt[i:], [y * z for z in pv])
    # [P(..), Q(..)]_g: one g-bracket per pair of nonzero rows
    shs, c = shuffles2(m, n - 1), half * (-1) ** (m * n)
    for pt, pv in p.nz.items():
        for qt, qv in q.nz.items():
            br = d.g.bracket(pv, qv)
            if any(br):
                _spread(rows, shs, c, pt + qt[:-1], qt[-1:], br)


def derived_bracket_lifted(d, p, q):
    """[[P, Q]] via (-1)^{m} [[theta, P^]_B, Q^]_B restricted to h -> g.

    Degree bookkeeping: the prefactor (-1)^m for P of arity m is the one
    under which this route agrees with the explicit formula; the
    agreement itself is asserted by derived_bracket.
    """
    ng, nh = d.g.dim, d.h.dim
    inner = balavoine_bracket(make_theta(d), lift(p, ng, nh))
    nested = balavoine_bracket(inner, lift(q, ng, nh))
    return restrict(nested, ng, nh).scale(_pow_sign(d.field, p.arity))


def _check_maps(d, maps):
    """ShapeMismatch unless each map is h^{x *} -> g; WrongField, naming
    both fields, for a map over another field than d."""
    for m in maps:
        if m.src_dim != d.h.dim or m.tgt_dim != d.g.dim:
            raise ShapeMismatch("dgLa elements are maps h^{x *} -> g")
        if m.field != d.field:
            raise WrongField("map over %r, context over %r"
                             % (m.field, d.field))


def _over_ints(d, *maps):
    """(D, [D_d d, D_m m for each map] over ZZ), D the product of the
    scales, for maps that pass ``_check_maps``."""
    _check_maps(d, maps)
    fld = d.field
    den, dz = d.int_context
    out = [dz]
    for m in maps:
        rows = [fld.to_raw(row) for row in m.nz.values()]
        k, scale = int_scale(fld, [x for row in rows for x in row])
        out.append(MultiMap(ZZ, m.arity, m.src_dim, m.tgt_dim))
        out[-1].nz, den = {idx: tuple(map(scale, row))
                           for idx, row in zip(m.nz, rows)}, den * k
    return den, out


def _from_ints(fld, den, m):
    """The int map m / den over fld (den = 1 over GF(p), zero rows dropped)."""
    inv = fld.one / den
    rows = ((idx, tuple([a * inv for a in r])) for idx, r in m.nz.items())
    out = MultiMap(fld, m.arity, m.src_dim, m.tgt_dim)
    out.nz = {idx: r for idx, r in rows if any(r)}
    return out


def derived_bracket(d, p, q):
    """Graded Lie bracket on Hom(h^{x *}, g), linear in (c_g, rho^L, rho^R),
    P and Q: the explicit int result over D_d D_p D_q, always checked."""
    den, (dz, pz, qz) = _over_ints(d, p, q)
    explicit = derived_bracket_explicit(dz, pz, qz)
    if explicit != derived_bracket_lifted(dz, pz, qz):
        raise OracleDisagreement("derived bracket: explicit formula != lifted "
                                 "route (arities %d, %d)" % (p.arity, q.arity))
    return _from_ints(d.field, den, explicit)


def differential_d_explicit(d, lam, p):
    """dP: (-1)^n lambda times the Leibniz coboundary of P for (h, [.,.]_h)
    acting by zero on g, the coboundary being linear in the bracket."""
    fld = d.field
    dp = leibniz_differential(d.h, ActionPair.zero(fld, d.h.dim, d.g.dim), p)
    return dp.scale(_pow_sign(fld, p.arity) * fld.coerce(lam))


def differential_d_lifted(d, lam, p):
    """dP via restriction of [theta', P^]_B; cross-check route."""
    ng, nh = d.g.dim, d.h.dim
    tp = make_theta_prime(d, lam)
    return restrict(balavoine_bracket(tp, lift(p, ng, nh)), ng, nh)


def differential_d(d, lam, p):
    """Differential of the operator dgLa, linear in lambda c_h and in P: the
    explicit int result over D_d D_lam D_p, always checked."""
    raw = d.field.to_raw([d.field.coerce(lam)])
    dl, scale = int_scale(d.field, raw)
    lz = scale(raw[0])
    den, (dz, pz) = _over_ints(d, p)
    explicit = differential_d_explicit(dz, lz, pz)
    if explicit != differential_d_lifted(dz, lz, pz):
        raise OracleDisagreement("differential d: explicit formula != lifted "
                                 "route (arity %d)" % p.arity)
    return _from_ints(d.field, den * dl, explicit)


def maurer_cartan_residual(d, lam, t):
    """dT + (1/2)[[T, T]]; over GF(2) the 2-scaled form 2 dT + [[T, T]].

    Zero exactly when T satisfies the weighted operator identity (over
    GF(2) the equivalence holds for the 2-scaled residual).  T, a Matrix
    or an arity-1 MultiMap, must be a dim g x dim h map over d's field.
    """
    if isinstance(t, MultiMap):
        t = t.to_matrix()
    _check_operator_shape(d, t)
    t, fld = MultiMap.from_matrix(t), d.field
    dt = differential_d_explicit(d, lam, t)
    br = derived_bracket_explicit(d, t, t)
    if fld.characteristic == 2:
        return dt.scale(fld.coerce(2)) + br
    return dt + br.scale(fld.half())


def dgla_samples(d, count=4, max_arity=2, seed=0):
    """Deterministic pseudo-random (P, Q) pairs and (P, Q, R) triples.

    Elements are multilinear maps h^{x k} -> g with small integer
    coefficients; the same (d, count, seed) always yields the same list.
    """
    import random as _random

    rng = _random.Random(seed)
    fld = d.field

    def draw(arity):
        m = MultiMap(fld, arity, d.h.dim, d.g.dim)
        for idx in m.tuples():
            m.set_(idx, [fld.coerce(rng.randrange(-2, 3))
                         for _ in range(d.g.dim)])
        return m

    out = []
    for _ in range(count):
        out.append((draw(rng.randint(1, max_arity)),
                    draw(rng.randint(1, max_arity))))
    for _ in range(count):
        out.append((draw(rng.randint(1, max_arity)),
                    draw(rng.randint(1, max_arity)),
                    draw(rng.randint(1, max_arity))))
    return out


def check_dgla(d, lam, samples, cross_check=False):
    """Verify the dgLa laws on given homogeneous elements.

    samples: list of (P, Q) pairs and (P, Q, R) triples of MultiMaps
    h^{x *} -> g.  Antisymmetry, d^2 = 0 and the graded Leibniz rule are
    checked on pairs; the graded Jacobi identity on triples.  With
    cross_check each bracket and differential runs both routes; without,
    the explicit routes alone.
    """
    _check_maps(d, [f for sample in samples for f in sample])
    rep, fld = ValidationReport("dgla"), d.field
    if cross_check:
        br = lambda a, b: derived_bracket(d, a, b)
        dd = lambda a: differential_d(d, lam, a)
    else:
        br = lambda a, b: derived_bracket_explicit(d, a, b)
        dd = lambda a: differential_d_explicit(d, lam, a)
    for k, sample in enumerate(samples):
        if len(sample) == 2:
            p, q = sample
            m, n = p.arity, q.arity
            pq = br(p, q)
            if not (pq + br(q, p).scale(_pow_sign(fld, m * n))).is_zero():
                rep.add("graded-antisymmetry", (k,), pq.flatten(), [])
            dp = dd(p)
            lhs = dd(pq)
            rhs = br(dp, q) + br(p, dd(q)).scale(_pow_sign(fld, m))
            if lhs != rhs:
                rep.add("graded-leibniz-rule", (k,), lhs.flatten(), rhs.flatten())
            ddp = dd(dp)
            if not ddp.is_zero():
                rep.add("d-squared", (k,), ddp.flatten(), [])
        else:
            p, q, r = sample
            m, n = p.arity, q.arity
            lhs = br(p, br(q, r))
            rhs = br(br(p, q), r) + br(q, br(p, r)).scale(_pow_sign(fld, m * n))
            if lhs != rhs:
                rep.add("graded-jacobi", (k,), lhs.flatten(), rhs.flatten())
    return rep
