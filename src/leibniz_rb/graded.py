"""Balavoine bracket, derived bracket and the operator differential.

The derived bracket and the differential each have two independent
implementations: an explicit shuffle formula and a route through the
Balavoine bracket on maps of the total space V = g + h.  Public entry
points compare the two and raise OracleDisagreement on any split, which
traps sign-convention bugs without trusting either route alone.

Both bracket routes visit nonzero rows only.  The explicit route scatters
each shuffle sum from the rows of P and Q and reads rho^L and rho^R as
slices of the action tensors; the lifted route composes with circ_i.  The
two share no code beyond the shuffle enumeration.
"""

from functools import lru_cache
from itertools import combinations, product

from .core import (ValidationReport, _pow_sign, add_combination,
                   validate_leibniz_g_rep)
from .errors import (InvalidInput, OracleDisagreement, ShapeMismatch,
                     StructureIncompatible)
from .linalg import Matrix, axpy, vec_scale, zero_vec
from .multimap import MultiMap


def _parity_sign(field, perm):
    return _pow_sign(field, sum(a > b for a, b in combinations(perm, 2)))


@lru_cache(maxsize=None)
def shuffles2(field, p, q):
    """(p,q)-shuffles of {0..p+q-1}: increasing on each block, with parity."""
    perms = [list(first) + [i for i in range(p + q) if i not in first]
             for first in combinations(range(p + q), p)]
    return [(perm, _parity_sign(field, perm)) for perm in perms]


@lru_cache(maxsize=None)
def shuffles3(field, p, q):
    """(p,1,q)-shuffles of {0..p+q}: blocks of sizes p, 1, q, with parity."""
    out = []
    for first in combinations(range(p + 1 + q), p):
        remaining = [i for i in range(p + 1 + q) if i not in first]
        for mid in remaining:
            perm = list(first) + [mid] + [i for i in remaining if i != mid]
            out.append((perm, _parity_sign(field, perm)))
    return out


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
    fld = f.field
    # position p of the shuffled block holds value number inv[p] of
    # (f's first i-1 indices, g's first n indices)
    shs = [(sorted(range(len(perm)), key=perm.__getitem__), sign == fld.one)
           for perm, sign in shuffles2(fld, i - 1, n)]
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
                for inv, positive in shs:
                    idx = tuple([vals[k] for k in inv]) + tail
                    acc = rows.get(idx)
                    if acc is None:
                        rows[idx] = term if positive else [-x for x in term]
                    elif positive:
                        rows[idx] = [a + x for a, x in zip(acc, term)]
                    else:
                        rows[idx] = [a - x for a, x in zip(acc, term)]
    out = MultiMap(fld, m + n + 1, f.src_dim, f.tgt_dim)
    out.nz = {idx: tuple(r) for idx, r in rows.items() if any(r)}
    return out


def balavoine_bracket(f, g):
    """Graded Lie bracket on multilinear maps; degree = arity - 1."""
    m = f.arity - 1
    n = g.arity - 1
    fld = f.field
    total = None
    for i in range(1, m + 2):
        term = circ_i(f, g, i).scale(_pow_sign(fld, (i - 1) * n))
        total = term if total is None else total + term
    outer = _pow_sign(fld, m * n)
    for i in range(1, n + 2):
        term = circ_i(g, f, i).scale(outer * _pow_sign(fld, (i - 1) * m))
        total = total - term
    return total


# ---------------------------------------------------------------------------
# Structure elements on V = g + h


def make_theta(d, validate=True):
    """theta = mu_g + rho^L + rho^R as an arity-2 map on V = g + h."""
    if validate:
        check = validate_leibniz_g_rep(d)
        if not check.ok:
            raise InvalidInput(check.summary())
    fld = d.field
    ng, nh = d.g.dim, d.h.dim
    n = ng + nh
    th = MultiMap(fld, 2, n, n)
    for i, j in product(range(ng), repeat=2):
        th.set_((i, j), list(d.g.c[i][j]) + [fld.zero] * nh)
    for i in range(ng):
        for b in range(nh):
            th.set_((i, ng + b),
                    [fld.zero] * ng + list(d.actions.left[i][b]))
    for a in range(nh):
        for j in range(ng):
            th.set_((ng + a, j),
                    [fld.zero] * ng + list(d.actions.right[a][j]))
    if validate:
        if not balavoine_bracket(th, th).is_zero():
            raise StructureIncompatible("[theta, theta]_B != 0")
    return th


def make_theta_prime(d, lam, validate=True):
    """theta' = -lambda mu_h as an arity-2 map on V = g + h."""
    if validate:
        check = validate_leibniz_g_rep(d)
        if not check.ok:
            raise InvalidInput(check.summary())
    fld = d.field
    lam = fld.coerce(lam)
    ng, nh = d.g.dim, d.h.dim
    n = ng + nh
    tp = MultiMap(fld, 2, n, n)
    for a, b in product(range(nh), repeat=2):
        tp.set_((ng + a, ng + b),
                [fld.zero] * ng + [-lam * x for x in d.h.c[a][b]])
    if validate:
        if not balavoine_bracket(tp, tp).is_zero():
            raise StructureIncompatible("[theta', theta']_B != 0")
        if not balavoine_bracket(make_theta(d, validate=False), tp).is_zero():
            raise StructureIncompatible("[theta, theta']_B != 0")
    return tp


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
    _scatter_half(d, p, q, fld.one, rows)
    _scatter_half(d, q, p, -_pow_sign(fld, m * n), rows)
    out = MultiMap(fld, m + n, d.h.dim, d.g.dim)
    out.nz = {idx: tuple(r) for idx, r in rows.items() if any(r)}
    return out


def _signed(fld, shs, c):
    """(inverse permutation, whether sign * c is +1) for each shuffle."""
    return [(sorted(range(len(perm)), key=perm.__getitem__),
             sign * c == fld.one) for perm, sign in shs]


def _spread(rows, shs, vals, tail, term):
    """Add +-term at the tuple (vals shuffled) + tail for each shuffle."""
    for inv, positive in shs:
        idx = tuple([vals[k] for k in inv]) + tail
        acc = rows.get(idx)
        if acc is None:
            rows[idx] = list(term) if positive else [-x for x in term]
        elif positive:
            rows[idx] = [a + x for a, x in zip(acc, term)]
        else:
            rows[idx] = [a - x for a, x in zip(acc, term)]


def _scatter_half(d, p, q, half, rows):
    """Add half times the three P-outer sums of the explicit formula.

    rho^L(Q(v), e_x) and rho^R(e_x, Q(v)) are read from the action slices
    once per nonzero row v of Q.  In the rho^L sum the indices v are
    shuffled with P's first i-1 and x is fixed; in the rho^R sum x is
    shuffled (as a middle block) and v's last index is fixed.  Each
    nonzero coordinate k of the action vector meets the rows of P whose
    slot-i index is k.
    """
    fld, act, nh = d.field, d.actions, d.h.dim
    m, n = p.arity, q.arity
    acts = []  # (shuffled indices, fixed index, rho^L?, sparse h-vector)
    for qt, qv in q.nz.items():
        for x in range(nh):
            lv, rv = zero_vec(fld, nh), zero_vec(fld, nh)
            add_combination(lv, qv, [plane[x] for plane in act.left])
            add_combination(rv, qv, act.right[x])
            for shuffled, fixed, left, full in ((qt, (x,), True, lv),
                                                ((x,) + qt[:-1], qt[-1:],
                                                 False, rv)):
                vec = [(k, y) for k, y in enumerate(full) if y]
                if vec:
                    acts.append((shuffled, fixed, left, vec))
    for i in range(1, m + 1):
        block = half * _pow_sign(fld, (i - 1) * n)
        # The rho^R shuffle sign is the parity of the permutation with the
        # middle element moved past the inner block (an extra (-1)^{n-1});
        # this is the unique convention under which the formula agrees
        # with the nested-Balavoine route.
        shs = {True: _signed(fld, shuffles2(fld, i - 1, n), block),
               False: _signed(fld, shuffles3(fld, i - 1, n - 1),
                              block * _pow_sign(fld, n - 1))}
        by_slot = {}
        for pt, pv in p.nz.items():
            by_slot.setdefault(pt[i - 1], []).append((pt, pv))
        for shuffled, fixed, left, vec in acts:
            for k, y in vec:
                for pt, pv in by_slot.get(k, ()):
                    _spread(rows, shs[left], pt[:i - 1] + shuffled,
                            fixed + pt[i:], [y * z for z in pv])
    # [P(..), Q(..)]_g: one g-bracket per pair of nonzero rows
    shs = _signed(fld, shuffles2(fld, m, n - 1), half * _pow_sign(fld, m * n))
    for pt, pv in p.nz.items():
        for qt, qv in q.nz.items():
            br = d.g.bracket(pv, qv)
            if any(br):
                _spread(rows, shs, pt + qt[:-1], qt[-1:], br)


def derived_bracket_lifted(d, p, q, theta=None):
    """[[P, Q]] via (-1)^{m} [[theta, P^]_B, Q^]_B restricted to h -> g.

    Degree bookkeeping: the prefactor (-1)^m for P of arity m is the one
    under which this route agrees with the explicit formula; the
    agreement itself is asserted by derived_bracket.
    """
    ng, nh = d.g.dim, d.h.dim
    if theta is None:
        theta = make_theta(d, validate=False)
    inner = balavoine_bracket(theta, lift(p, ng, nh))
    nested = balavoine_bracket(inner, lift(q, ng, nh))
    return restrict(nested, ng, nh).scale(_pow_sign(d.field, p.arity))


def derived_bracket(d, p, q, cross_check=True):
    """Graded Lie bracket on Hom(h^{x *}, g); dual-route checked by default."""
    if p.src_dim != d.h.dim or p.tgt_dim != d.g.dim or not (
            q.src_dim == p.src_dim and q.tgt_dim == p.tgt_dim):
        raise ShapeMismatch("derived bracket needs maps h^{x *} -> g")
    explicit = derived_bracket_explicit(d, p, q)
    if cross_check:
        lifted = derived_bracket_lifted(d, p, q)
        if explicit != lifted:
            raise OracleDisagreement(
                "derived bracket: explicit formula != lifted route "
                "(arities %d, %d)" % (p.arity, q.arity))
    return explicit


def differential_d_explicit(d, lam, p):
    """(dP)(u_1..u_{n+1}) with the weight folded into the h bracket."""
    fld = d.field
    lam = fld.coerce(lam)
    n = p.arity
    out = MultiMap(fld, n + 1, d.h.dim, d.g.dim)
    for idx in out.tuples():
        acc = zero_vec(fld, d.g.dim)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                br = vec_scale(lam, d.h.bracket_basis(idx[i - 1], idx[j - 1]))
                args = (list(idx[:i - 1]) + list(idx[i:j - 1]) + [br]
                        + list(idx[j:]))
                axpy(acc, _pow_sign(fld, n + i), p.apply(args))
        out.set_(idx, acc)
    return out


def differential_d_lifted(d, lam, p, theta_prime=None):
    """dP via restriction of [theta', P^]_B; cross-check route."""
    ng, nh = d.g.dim, d.h.dim
    if theta_prime is None:
        theta_prime = make_theta_prime(d, lam, validate=False)
    return restrict(balavoine_bracket(theta_prime, lift(p, ng, nh)), ng, nh)


def differential_d(d, lam, p, cross_check=True):
    """Differential of the operator dgLa; dual-route checked by default."""
    if p.src_dim != d.h.dim or p.tgt_dim != d.g.dim:
        raise ShapeMismatch("differential needs a map h^{x *} -> g")
    explicit = differential_d_explicit(d, lam, p)
    if cross_check:
        lifted = differential_d_lifted(d, lam, p)
        if explicit != lifted:
            raise OracleDisagreement(
                "differential d: explicit formula != lifted route "
                "(arity %d)" % p.arity)
    return explicit


def maurer_cartan_residual(d, lam, t):
    """dT + (1/2)[[T, T]]; over GF(2) the 2-scaled form 2 dT + [[T, T]].

    Zero exactly when T satisfies the weighted operator identity (over
    GF(2) the equivalence holds for the 2-scaled residual).
    """
    if isinstance(t, Matrix):
        t = MultiMap.from_matrix(t)
    fld = d.field
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
    checked on pairs; the graded Jacobi identity on triples.
    """
    rep = ValidationReport("dgla")
    br = lambda a, b: derived_bracket(d, a, b, cross_check=cross_check)
    dd = lambda a: differential_d(d, lam, a, cross_check=cross_check)
    fld = d.field
    for k, sample in enumerate(samples):
        if len(sample) == 2:
            p, q = sample
            m, n = p.arity, q.arity
            pq = br(p, q)
            if not (pq + br(q, p).scale(_pow_sign(fld, m * n))).is_zero():
                rep.add("graded-antisymmetry", (k,), pq.flatten(), [])
            lhs = dd(pq)
            rhs = br(dd(p), q) + br(p, dd(q)).scale(_pow_sign(fld, m))
            if lhs != rhs:
                rep.add("graded-leibniz-rule", (k,), lhs.flatten(), rhs.flatten())
            if not dd(dd(p)).is_zero():
                rep.add("d-squared", (k,), dd(dd(p)).flatten(), [])
        else:
            p, q, r = sample
            m, n = p.arity, q.arity
            lhs = br(p, br(q, r))
            rhs = br(br(p, q), r) + br(q, br(p, r)).scale(_pow_sign(fld, m * n))
            if lhs != rhs:
                rep.add("graded-jacobi", (k,), lhs.flatten(), rhs.flatten())
    return rep
