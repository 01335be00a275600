"""Reference validators built from composed products.

Each identity side is evaluated the long way: nested brackets, actions
and post-Leibniz products on basis vectors, added with ``vec_add``, on
every basis triple.  The library scatters each side from the nonzero
tensor rows (``core.check_laws``); the property tests in
``test_validators.py`` require both to report the same violations in the
same order.
"""

from itertools import product

from leibniz_rb.core import ValidationReport, basis_vec
from leibniz_rb.linalg import vec_add, vec_scale, vec_sub
from leibniz_rb.postleibniz import PostLeibnizAlgebra


def validate_leibniz(a):
    rep = ValidationReport("leibniz")
    for i, j, k in product(range(a.dim), repeat=3):
        lhs = a.bracket(basis_vec(a.field, a.dim, i), a.bracket_basis(j, k))
        rhs = vec_add(a.bracket(a.bracket_basis(i, j), basis_vec(a.field, a.dim, k)),
                      a.bracket(basis_vec(a.field, a.dim, j), a.bracket_basis(i, k)))
        if lhs != rhs:
            rep.add("leibniz-identity", (i, j, k), lhs, rhs)
    return rep


def validate_representation(g, actions):
    rep = ValidationReport("representation")
    f = g.field
    dv = actions.dim_v
    for i, j in product(range(g.dim), repeat=2):
        bij = g.bracket_basis(i, j)
        ei = basis_vec(f, g.dim, i)
        ej = basis_vec(f, g.dim, j)
        for a in range(dv):
            fa = basis_vec(f, dv, a)
            lhs = actions.left_act(ei, actions.left_basis(j, a))
            rhs = vec_add(actions.left_act(bij, fa),
                          actions.left_act(ej, actions.left_basis(i, a)))
            if lhs != rhs:
                rep.add("rep-axiom-2", (i, j, a), lhs, rhs)
            lhs = actions.left_act(ei, actions.right_basis(a, j))
            rhs = vec_add(actions.right_act(actions.left_basis(i, a), ej),
                          actions.right_act(fa, bij))
            if lhs != rhs:
                rep.add("rep-axiom-3", (i, j, a), lhs, rhs)
            lhs = actions.right_act(fa, bij)
            rhs = vec_add(actions.right_act(actions.right_basis(a, i), ej),
                          actions.left_act(ei, actions.right_basis(a, j)))
            if lhs != rhs:
                rep.add("rep-axiom-4", (i, j, a), lhs, rhs)
    return rep


def validate_leibniz_g_rep(d):
    rep = ValidationReport("leibniz-g-rep")
    rep.violations.extend(validate_leibniz(d.g).violations)
    rep.violations.extend(validate_leibniz(d.h).violations)
    rep.violations.extend(validate_representation(d.g, d.actions).violations)
    f = d.field
    h, act = d.h, d.actions
    for a, b in product(range(h.dim), repeat=2):
        fa = basis_vec(f, h.dim, a)
        fb = basis_vec(f, h.dim, b)
        hab = h.bracket_basis(a, b)
        for i in range(d.g.dim):
            ei = basis_vec(f, d.g.dim, i)
            lhs = h.bracket(fa, act.right_basis(b, i))
            rhs = vec_add(act.right_act(hab, ei),
                          h.bracket(fb, act.right_basis(a, i)))
            if lhs != rhs:
                rep.add("lrep-axiom-5", (a, b, i), lhs, rhs)
            lhs = h.bracket(fa, act.left_basis(i, b))
            rhs = vec_add(h.bracket(act.right_basis(a, i), fb),
                          act.left_act(ei, hab))
            if lhs != rhs:
                rep.add("lrep-axiom-6", (a, b, i), lhs, rhs)
            lhs = act.left_act(ei, hab)
            rhs = vec_add(h.bracket(act.left_basis(i, a), fb),
                          h.bracket(fa, act.left_basis(i, b)))
            if lhs != rhs:
                rep.add("lrep-axiom-7", (a, b, i), lhs, rhs)
    return rep


def validate_post_leibniz(p):
    fld, n = p.field, p.dim
    rep = ValidationReport("post-leibniz")
    bv = [basis_vec(fld, n, i) for i in range(n)]
    for (i, u), (j, v), (k, w) in product(enumerate(bv), repeat=3):
        checks = [
            ("post-l1", p.lt(u, p.star(v, w)),
             vec_add(p.lt(p.lt(u, v), w), p.rt(v, p.lt(u, w)))),
            ("post-l2", p.rt(u, p.lt(v, w)),
             vec_add(p.lt(p.rt(u, v), w), p.lt(v, p.star(u, w)))),
            ("post-l3", p.rt(u, p.rt(v, w)),
             vec_add(p.rt(p.star(u, v), w), p.rt(v, p.rt(u, w)))),
            ("post-l4", p.rt(u, p.br(v, w)),
             vec_add(p.br(p.rt(u, v), w), p.br(v, p.rt(u, w)))),
            ("post-l5", p.br(u, p.rt(v, w)),
             vec_add(p.br(p.lt(u, v), w), p.rt(v, p.br(u, w)))),
            ("post-l6", p.br(u, p.lt(v, w)),
             vec_add(p.lt(p.br(u, v), w), p.br(v, p.lt(u, w)))),
            ("post-l7", p.br(u, p.br(v, w)),
             vec_add(p.br(p.br(u, v), w), p.br(v, p.br(u, w)))),
        ]
        for law, lhs, rhs in checks:
            if lhs != rhs:
                rep.add(law, (i, j, k), lhs, rhs)
    return rep


def validate_pre_leibniz(field, dim, left, right):
    p = PostLeibnizAlgebra(field, dim, left, right,
                           [[[field.zero] * dim for _ in range(dim)]
                            for _ in range(dim)])
    rep = ValidationReport("pre-leibniz")
    bv = [basis_vec(field, dim, i) for i in range(dim)]

    def both(x, y):
        return vec_add(p.lt(x, y), p.rt(x, y))

    for (i, u), (j, v), (k, w) in product(enumerate(bv), repeat=3):
        checks = [
            ("pre-l1", p.lt(u, both(v, w)),
             vec_add(p.lt(p.lt(u, v), w), p.rt(v, p.lt(u, w)))),
            ("pre-l2", p.rt(u, p.lt(v, w)),
             vec_add(p.lt(p.rt(u, v), w), p.lt(v, both(u, w)))),
            ("pre-l3", p.rt(u, p.rt(v, w)),
             vec_add(p.rt(both(u, v), w), p.rt(v, p.rt(u, w)))),
        ]
        for law, lhs, rhs in checks:
            if lhs != rhs:
                rep.add(law, (i, j, k), lhs, rhs)
    return rep


def skew_flags(p):
    """(u<v = -v>u, [u,v] = -[v,u]) on all pairs of basis vectors."""
    fld, n = p.field, p.dim
    bv = [basis_vec(fld, n, i) for i in range(n)]
    skew_pair = all(p.lt(bv[i], bv[j]) == vec_scale(-fld.one, p.rt(bv[j], bv[i]))
                    for i in range(n) for j in range(n))
    skew_bracket = all(p.br(bv[i], bv[j]) == vec_scale(-fld.one, p.br(bv[j], bv[i]))
                       for i in range(n) for j in range(n))
    return skew_pair, skew_bracket


def validate_post_lie(p):
    """The post-Lie laws of (a, >, [.,.]_a) on all basis triples."""
    rep = ValidationReport("post-lie")
    bv = [basis_vec(p.field, p.dim, i) for i in range(p.dim)]
    for (i, u), (j, v), (k, w) in product(enumerate(bv), repeat=3):
        lhs = p.br(u, p.br(v, w))
        rhs = vec_add(p.br(p.br(u, v), w), p.br(v, p.br(u, w)))
        if lhs != rhs:
            rep.add("lie-jacobi", (i, j, k), lhs, rhs)
        lhs = p.rt(u, p.br(v, w))
        rhs = vec_add(p.br(p.rt(u, v), w), p.br(v, p.rt(u, w)))
        if lhs != rhs:
            rep.add("post-lie-derivation", (i, j, k), lhs, rhs)
        lhs = p.rt(p.br(u, v), w)
        rhs = vec_sub(p.rt(u, p.rt(v, w)), p.rt(p.rt(u, v), w))
        rhs = vec_sub(rhs, p.rt(v, p.rt(u, w)))
        rhs = vec_add(rhs, p.rt(p.rt(v, u), w))
        if lhs != rhs:
            rep.add("post-lie-curvature", (i, j, k), lhs, rhs)
    return rep
