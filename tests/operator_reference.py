"""The weighted operator identity checked product by product.

``reference_check`` verifies

    [Te_a, Te_b]_g = T( rho^L(Te_a, e_b) + rho^R(e_a, Te_b)
                        + lambda [e_a, e_b]_h )

on every basis pair with each product taken on its own: the left side by
the bracket of g, the right side by ``left_act``, ``right_act`` and the
bracket of h on field-element vectors, summed and then mapped by T.  The
library sums the right side from raw tensor rows in one pass
(``operators.operator_rhs``) and maps only a nonzero one by T, where the
reference maps every one; the tests compare the two reports, and the
operator search is compared with this check alone.

``crossed_reference`` checks a crossed homomorphism D: g -> h,

    D[e_i, e_j]_g = rho^L(e_i, De_j) + rho^R(De_i, e_j)
                    + lambda [De_i, De_j]_h,

the same way, pair by pair, where the library compares two transported
stores (``operators.check_crossed_homomorphism``).
"""

from itertools import product

from leibniz_rb.core import ValidationReport, basis_vec
from leibniz_rb.linalg import vec_add, vec_scale


def reference_inner(d, lam, t, a, b):
    """rho^L(Te_a, e_b) + rho^R(e_a, Te_b) + lambda [e_a, e_b]_h, product by
    product: the vector in h that the right side maps by T."""
    fld, act = d.field, d.actions
    ea, eb = basis_vec(fld, d.h.dim, a), basis_vec(fld, d.h.dim, b)
    ta, tb = t.col(a), t.col(b)
    return vec_add(vec_add(act.left_act(ta, eb), act.right_act(ea, tb)),
                   vec_scale(fld.coerce(lam), d.h.bracket(ea, eb)))


def reference_check(d, lam, t):
    """The report of ``check_weighted_relative_rbo``, product by product."""
    rep = ValidationReport("weighted-relative-rbo")
    for a, b in product(range(d.h.dim), repeat=2):
        lhs = d.g.bracket(t.col(a), t.col(b))
        rhs = t.mul_vec(reference_inner(d, lam, t, a, b))
        if lhs != rhs:
            rep.add("operator-identity", (a, b), lhs, rhs)
    return rep


def crossed_reference(d, lam, dmap):
    """The report of ``check_crossed_homomorphism``, pair by pair."""
    lam = d.field.coerce(lam)
    act = d.actions
    rep = ValidationReport("crossed-homomorphism")
    e = [basis_vec(d.field, d.g.dim, i) for i in range(d.g.dim)]
    for i, j in product(range(d.g.dim), repeat=2):
        lhs = dmap.mul_vec(d.g.bracket_basis(i, j))
        di, dj = dmap.col(i), dmap.col(j)
        rhs = vec_add(vec_add(act.left_act(e[i], dj), act.right_act(di, e[j])),
                      vec_scale(lam, d.h.bracket(di, dj)))
        if lhs != rhs:
            rep.add("crossed-homomorphism", (i, j), lhs, rhs)
    return rep
