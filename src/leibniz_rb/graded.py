"""Balavoine bracket, derived bracket and the operator differential.

The derived bracket and the differential each have two independent
implementations: an explicit formula and a route through the Balavoine
bracket on maps of the total space V = g + h.  The explicit differential
d = [theta', -] is (-1)^n lambda times the Loday-Pirashvili coboundary of
(h, [.,.]_h) with trivial coefficients in g.  Both routes of a bracket or
differential run in one checked helper (``_checked``) over ``ZZ``, on the
context, maps and lambda each times the lcm of its denominators
(``fields.int_scale``; residues over GF(p)): it raises OracleDisagreement
on any split of the int results and returns the explicit one with its
scale, not yet reduced mod p.  ``derived_bracket`` and ``differential_d``
divide it back; ``check_dgla`` compares each law on the int maps mod p.
Each context is scaled once (``int_context``) and keeps theta and theta'
(``_block_map``).  ``_mc_coefficient``, the t^n coefficient of the one
Maurer-Cartan residual dT_t + 1/2 [[T_t, T_t]], halved exactly over ``ZZ``
in every characteristic, is read by ``maurer_cartan_residual`` (n = 0) and
``deformations``; only it calls one route alone (``*_explicit``).

Both bracket routes visit nonzero rows only.  The explicit route scatters
each shuffle sum from the rows of P and Q as raw scalars, one {tuple:
value} accumulator per coordinate of g, and reads rho^L and rho^R from
the store rows of the action tensors; the lifted route composes with
circ_i.  The two share no code beyond the shuffle tables: per shuffle an
itemgetter that gathers indices into shuffled order, and the sign.
"""

from collections import defaultdict
from functools import lru_cache
from itertools import combinations, islice
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
    """``block_tensor`` as an arity-2 map on V = g + h, one ``vector`` per
    store row; built once per (mu, lam) and kept on d."""
    fld, n = d.field, d.g.dim + d.h.dim
    key = tuple(fld.to_raw([mu, lam]))
    if key not in d._blocks:
        out = MultiMap(fld, 2, n, n)
        out.nz = {ij: tuple(v) for ij, v in block_tensor(d, mu, lam).vectors()}
        d._blocks[key] = out
    return d._blocks[key]


def make_theta(d):
    """theta = mu_g + rho^L + rho^R on V = g + h."""
    return _block_map(d, d.field.one, d.field.zero)


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

    Both halves (P outer, then Q outer times -(-1)^{mn}) add raw scalars
    into one {tuple: value} accumulator per coordinate of g, so only the
    output tuples that receive a term are visited; each output row is
    then built once, with one from_raw, and dropped if zero.
    """
    fld = d.field
    m, n = p.arity, q.arity
    raws = [{idx: fld.to_raw(row) for idx, row in f.nz.items()}
            for f in (p, q)]
    accs = [defaultdict(int) for _ in range(d.g.dim)]
    _scatter_half(d, m, n, *raws, 1, accs)
    _scatter_half(d, n, m, *raws[::-1], -(-1) ** (m * n), accs)
    zero, from_raw = fld.raw_zero, fld.from_raw
    out = MultiMap(fld, m + n, d.h.dim, d.g.dim)
    for idx in set().union(*accs):
        row = tuple(from_raw([acc.get(idx, zero) for acc in accs]))
        if any(row):
            out.nz[idx] = row
    return out


def _spread(accs, shs, c, vals, tail, term):
    """Add c*sign*x to accs[t] at gather(vals) + tail per shuffle, for the
    (coordinate t, raw value x) pairs of term."""
    for gather, sign in shs:
        idx = gather(vals) + tail
        if sign == c:
            for t, x in term:
                accs[t][idx] += x
        else:
            for t, x in term:
                accs[t][idx] -= x


def _scatter_half(d, m, n, praw, qraw, half, accs):
    """Add half (+-1) times the three P-outer sums of the explicit formula,
    P of arity m and Q of arity n given by their raw rows.

    rho^L(Q(v), e_x) and rho^R(e_x, Q(v)) are summed once per nonzero row
    v of Q from the store rows by_second[x] and by_first[x] of the
    actions.  In the rho^L sum the indices v are shuffled with P's first
    i-1 and x is fixed; in the rho^R sum x is shuffled (as a middle block)
    and v's last index is fixed.  Each nonzero coordinate k of the action
    vector meets the rows of P whose slot-i index is k, in one term per
    (action entry, P row).
    """
    nh, act = d.h.dim, d.actions
    prows = [(pt, [(t, z) for t, z in enumerate(pr) if z])
             for pt, pr in praw.items()]
    acts = []  # (shuffled indices, fixed index, rho^L?, sparse h-vector)
    for qt, qr in qraw.items():
        for x in range(nh):
            for shuffled, fixed, is_left, store_rows in (
                    (qt, (x,), True, act.left_nz.by_second.get(x, ())),
                    ((x,) + qt[:-1], qt[-1:], False,
                     act.right_nz.by_first.get(x, ()))):
                sums = [0] * nh
                for k, row in store_rows:
                    for b, t in row.items():
                        sums[b] += qr[k] * t
                vec = [(b, y) for b, y in enumerate(sums) if y]
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
        for pt, ps in prows:
            by_slot.setdefault(pt[i - 1], []).append((pt, ps))
        for shuffled, fixed, is_left, vec in acts:
            for k, y in vec:
                for pt, ps in by_slot.get(k, ()):
                    _spread(accs, *shs[is_left], pt[:i - 1] + shuffled,
                            fixed + pt[i:], [(t, y * z) for t, z in ps])
    # [P(..), Q(..)]_g: one raw g-bracket per pair of nonzero rows
    shs, c = shuffles2(m, n - 1), half * (-1) ** (m * n)
    by_first = d.g.c_nz.by_first
    for pt, ps in prows:
        for qt, qr in qraw.items():
            br = defaultdict(int)
            for i, x in ps:
                for j, row in by_first.get(i, ()):
                    if qr[j]:
                        xy = x * qr[j]
                        for k, t in row.items():
                            br[k] += xy * t
            term = [(k, y) for k, y in br.items() if y]
            if term:
                _spread(accs, shs, c, pt + qt[:-1], qt[-1:], term)


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


def _to_ints(fld, maps):
    """(s, [s m over ZZ for m in maps]), one s from ``fields.int_scale``."""
    rows = [fld.to_raw(row) for m in maps for row in m.nz.values()]
    s, ints = int_scale(fld, [x for row in rows for x in row])
    ints, out = iter(ints), []
    for m in maps:
        out.append(MultiMap(ZZ, m.arity, m.src_dim, m.tgt_dim))
        out[-1].nz = {idx: tuple(islice(ints, m.tgt_dim)) for idx in m.nz}
    return s, out


def _lam_to_ints(fld, lam):
    """(k, k lambda as an int), k from ``fields.int_scale``."""
    k, (lz,) = int_scale(fld, fld.to_raw([fld.coerce(lam)]))
    return k, lz


def _reduced(fld, sm):
    """(s, m mod p) for sm = (s, int map m), rows that vanish dropped."""
    p, (s, m) = fld.characteristic, sm
    if not p:
        return sm
    rows = ((idx, tuple([x % p for x in r])) for idx, r in m.nz.items())
    out = MultiMap(ZZ, m.arity, m.src_dim, m.tgt_dim)
    out.nz = {idx: r for idx, r in rows if any(r)}
    return s, out


def _from_ints(fld, den, m):
    """The int map m / den over fld (mod p over GF(p), zero rows dropped)."""
    inv = fld.one / den
    rows = ((idx, tuple([a * inv for a in r])) for idx, r in m.nz.items())
    out = MultiMap(fld, m.arity, m.src_dim, m.tgt_dim)
    out.nz = {idx: r for idx, r in rows if any(r)}
    return out


def _checked(d, scale, explicit, lifted, *args):
    """(D scale, the explicit int result) of a route pair on args, the int
    maps (after the int lambda for d) on d's int context of scale D: both
    routes, compared over ZZ before any reduction mod p."""
    den, dz = d.int_context
    out = explicit(dz, *args)
    if out != lifted(dz, *args):
        maps = [m for m in args if isinstance(m, MultiMap)]
        raise OracleDisagreement(
            "%s: explicit formula != lifted route (arity %s)"
            % ("derived bracket" if len(maps) == 2 else "differential d",
               ", ".join(str(m.arity) for m in maps)))
    return den * scale, out


def derived_bracket(d, p, q):
    """Graded Lie bracket on Hom(h^{x *}, g), linear in (c_g, rho^L, rho^R),
    P and Q: the explicit int result over D_d s^2, always checked."""
    _check_maps(d, (p, q))
    s, (pz, qz) = _to_ints(d.field, (p, q))
    return _from_ints(d.field, *_checked(
        d, s * s, derived_bracket_explicit, derived_bracket_lifted, pz, qz))


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
    _check_maps(d, (p,))
    (k, lz), (sp, (pz,)) = _lam_to_ints(d.field, lam), _to_ints(d.field, [p])
    return _from_ints(d.field, *_checked(
        d, k * sp, differential_d_explicit, differential_d_lifted, lz, pz))


def _mc_coefficient(d, lam, maps, n):
    """dT_n + sum_{i+j=n} H(T_i, T_j), ordered pairs, for arity-1 maps T_0,
    T_1, ... (zero past the end): the t^n coefficient of the Maurer-Cartan
    residual dT_t + 1/2 [[T_t, T_t]], in every field.  As [[P, Q]] = H(P, Q)
    + H(Q, P) (``_scatter_half``), the int sum 2 dT_n + sum [[T_i, T_j]] on
    d's int context, the series of one scale, is even: it is halved over ZZ
    (OracleDisagreement if odd) and divided back once.  Brackets run once
    per unordered pair, explicit within the series and both routes past
    its end (the obstruction, with no direct form to check against)."""
    fld, (den, dz) = d.field, d.int_context
    (k, lz), (s, zs) = _lam_to_ints(fld, lam), _to_ints(fld, maps)
    out = MultiMap(ZZ, 2, d.h.dim, d.g.dim)
    if n < len(zs):
        out = differential_d_explicit(dz, lz, zs[n]).scale(2 * s)
    for i in range(max(0, n + 1 - len(zs)), n // 2 + 1):
        br = derived_bracket_explicit(dz, zs[i], zs[n - i]) if n < len(zs) \
            else _checked(d, 1, derived_bracket_explicit,
                          derived_bracket_lifted, zs[i], zs[n - i])[1]
        out = out + br.scale(k if 2 * i == n else 2 * k)
    if any(x % 2 for row in out.nz.values() for x in row):
        raise OracleDisagreement("Maurer-Cartan sum of order %d is odd" % n)
    out.nz = {idx: tuple([x // 2 for x in row]) for idx, row in out.nz.items()}
    return _from_ints(fld, den * k * s * s, out)


def maurer_cartan_residual(d, lam, t):
    """dT + H(T, T), which is dT + 1/2 [[T, T]] where 2 is invertible: the
    t^0 coefficient of ``_mc_coefficient``, zero exactly when T satisfies
    the weighted operator identity, in every field.  T, a Matrix or an
    arity-1 MultiMap, must be a dim g x dim h map over d's field.
    """
    if isinstance(t, MultiMap):
        t = t.to_matrix()
    _check_operator_shape(d, t)
    return _mc_coefficient(d, lam, [MultiMap.from_matrix(t)], 0)


SAMPLE_MAX_ARITY = 2  # the largest arity of a map ``dgla_samples`` draws


def dgla_samples(d, count=4, seed=0):
    """Deterministic pseudo-random (P, Q) pairs and (P, Q, R) triples.

    Elements are multilinear maps h^{x k} -> g, k <= SAMPLE_MAX_ARITY, with
    small integer coefficients; the same (d, count, seed) gives the same list.
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

    return [tuple(draw(rng.randint(1, SAMPLE_MAX_ARITY)) for _ in range(size))
            for size in (2, 3) for _ in range(count)]


def _check_samples(d, samples):
    """ShapeMismatch, naming the sample, unless each sample is a pair or a
    triple of MultiMaps; then ``_check_maps`` on all their maps."""
    for k, sample in enumerate(samples):
        if not (isinstance(sample, (tuple, list)) and len(sample) in (2, 3)
                and all(isinstance(f, MultiMap) for f in sample)):
            raise ShapeMismatch("dgLa sample %d is not a pair or a triple of "
                                "MultiMaps" % k)
    _check_maps(d, [f for sample in samples for f in sample])


def check_dgla(d, lam, samples, cross_check=True):
    """Verify the dgLa laws on given homogeneous elements.

    samples: list of (P, Q) pairs and (P, Q, R) triples of MultiMaps
    h^{x *} -> g.  Antisymmetry, d^2 = 0 and the graded Leibniz rule are
    checked on pairs; the graded Jacobi identity on triples.  Each bracket
    and differential runs both routes, on lambda and each sample's maps
    scaled to ints once (``_to_ints``): every element is a pair (scale,
    int map), each law is homogeneous in the scales, so its two sides
    carry the same positive factor and are compared as int maps (mod p
    over GF(p)), and only a violated law is divided back.  cross_check
    is accepted for old callers; any value but True raises ValueError.
    """
    if cross_check is not True:
        raise ValueError("check_dgla always runs both routes")
    _check_samples(d, samples)
    rep, fld = ValidationReport("dgla"), d.field
    sl, lz = _lam_to_ints(fld, lam)
    br = lambda a, b: _reduced(fld, _checked(
        d, a[0] * b[0], derived_bracket_explicit, derived_bracket_lifted,
        a[1], b[1]))
    dd = lambda a: _reduced(fld, _checked(
        d, sl * a[0], differential_d_explicit, differential_d_lifted, lz,
        a[1]))

    def plus(a, b, k):
        """a + (-1)^k b, both of one scale."""
        return _reduced(fld, (a[0], a[1] + (-b[1] if k % 2 else b[1])))

    def flat(a):
        return _from_ints(fld, *a).flatten()

    for k, sample in enumerate(samples):
        s, maps = _to_ints(fld, sample)
        p, q, *r = [(s, f) for f in maps]
        m, n = p[1].arity, q[1].arity
        if not r:
            pq = br(p, q)
            if not plus(pq, br(q, p), m * n)[1].is_zero():
                rep.add("graded-antisymmetry", (k,), flat(pq), [])
            dp = dd(p)
            lhs = dd(pq)
            rhs = plus(br(dp, q), br(p, dd(q)), m)
            if lhs[1] != rhs[1]:
                rep.add("graded-leibniz-rule", (k,), flat(lhs), flat(rhs))
            ddp = dd(dp)
            if not ddp[1].is_zero():
                rep.add("d-squared", (k,), flat(ddp), [])
        else:
            lhs = br(p, br(q, *r))
            rhs = plus(br(br(p, q), *r), br(q, br(p, *r)), m * n)
            if lhs[1] != rhs[1]:
                rep.add("graded-jacobi", (k,), flat(lhs), flat(rhs))
    return rep
