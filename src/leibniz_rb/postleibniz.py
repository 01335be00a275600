"""Post-Leibniz algebras and their reductions.

A post-Leibniz algebra carries three bilinear operations (u<v, u>v and a
bracket [u,v]_a, written left/right/bracket here) subject to seven
identities in which the combined operation

    [u, v]_star = u<v + u>v + [u,v]_a

appears; summing the seven identities shows [.,.]_star is a Leibniz
bracket (the total algebra).  Every weighted relative Rota-Baxter operator
produces one via u<v = rho^R(u, Tv), u>v = rho^L(Tu, v) and lambda-scaled
bracket, and invertible weight-1 operators correspond to compatible
structures on their codomain.
"""

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .core import (ActionPair, LeibnizAlgebra, LeibnizGRep, ValidationReport,
                   _coerce_tensor3, basis_vec, check_triples, contract,
                   residue_view, validate_leibniz, zero_tensor)
from .errors import (InvalidInput, OracleDisagreement, ShapeMismatch,
                     WrongWeight)
from .linalg import vec_add, vec_scale, vec_sub


class PostLeibnizAlgebra:
    """Structure tensors for u<v (left), u>v (right) and [u,v]_a (bracket)."""

    def __init__(self, field, dim, left, right, bracket):
        self.field = field
        self.dim = dim
        self.left = _coerce_tensor3(field, (dim, dim, dim), left)
        self.right = _coerce_tensor3(field, (dim, dim, dim), right)
        self.bracket = _coerce_tensor3(field, (dim, dim, dim), bracket)
        self.left_raw = residue_view(field, self.left)
        self.right_raw = residue_view(field, self.right)
        self.bracket_raw = residue_view(field, self.bracket)

    @classmethod
    def zero(cls, field, dim):
        z = zero_tensor(field, dim, dim, dim)
        return cls(field, dim, z, z, z)

    def lt(self, x, y):
        return contract(self.field, ((self.left_raw, x, y),), self.dim)

    def rt(self, x, y):
        return contract(self.field, ((self.right_raw, x, y),), self.dim)

    def br(self, x, y):
        return contract(self.field, ((self.bracket_raw, x, y),), self.dim)

    def star(self, x, y):
        return contract(self.field, ((self.left_raw, x, y),
                                     (self.right_raw, x, y),
                                     (self.bracket_raw, x, y)), self.dim)

    def star_tensor(self):
        return tuple(tuple(tuple(a + b + c for a, b, c in zip(*rows))
                           for rows in zip(*planes))
                     for planes in zip(self.left, self.right, self.bracket))

    def __eq__(self, other):
        return (isinstance(other, PostLeibnizAlgebra)
                and self.field == other.field and self.dim == other.dim
                and self.left == other.left and self.right == other.right
                and self.bracket == other.bracket)

    def __repr__(self):
        return "PostLeibnizAlgebra(dim=%d)" % self.dim


def _post_laws(p, star):
    """post-l1..post-l7 as ``check_triples`` laws; star is p.star_tensor()."""
    lt, rt, br = p.left, p.right, p.bracket
    lr, rr, bb = p.left_raw, p.right_raw, p.bracket_raw
    return [("post-l1", (lr, star), (lr, lt), (rr, lt)),
            ("post-l2", (rr, lt), (lr, rt), (lr, star)),
            ("post-l3", (rr, rt), (rr, star), (rr, rt)),
            ("post-l4", (rr, br), (bb, rt), (bb, rt)),
            ("post-l5", (bb, rt), (bb, lt), (rr, br)),
            ("post-l6", (bb, lt), (lr, br), (bb, lt)),
            ("post-l7", (bb, br), (bb, br), (bb, br))]


def validate_post_leibniz(p, star=None):
    """Check identities post-l1..post-l7 on all basis triples.

    star, the tensor of [.,.]_star, is built here unless given.
    """
    star = p.star_tensor() if star is None else star
    return check_triples(ValidationReport("post-leibniz"), p.field, p.dim,
                         _post_laws(p, star))


def total_algebra(p):
    """The total Leibniz algebra (a, [.,.]_star) of a valid structure."""
    star = p.star_tensor()
    rep = validate_post_leibniz(p, star)
    if not rep.ok:
        raise InvalidInput("not a post-Leibniz algebra: %s" % rep.summary())
    total = LeibnizAlgebra(p.field, p.dim, star)
    check = validate_leibniz(total)
    if not check.ok:
        raise OracleDisagreement("total bracket fails the Leibniz identity "
                                 "on a validated structure")
    return total


def from_rbo(r):
    """The post-Leibniz algebra of a valid weighted operator on h."""
    r.require_valid()
    d, fld, t = r.context, r.field, r.t
    nh, act = d.h.dim, d.actions
    bv = [basis_vec(fld, nh, a) for a in range(nh)]
    left = [[act.right_act(bv[a], t.col(b)) for b in range(nh)]
            for a in range(nh)]
    right = [[act.left_act(t.col(a), bv[b]) for b in range(nh)]
             for a in range(nh)]
    bracket = [[vec_scale(r.weight, row) for row in plane] for plane in d.h.c]
    p = PostLeibnizAlgebra(fld, nh, left, right, bracket)
    check = validate_post_leibniz(p)
    if not check.ok:
        raise OracleDisagreement("operator-induced structure fails: %s"
                                 % check.summary())
    return p


def validate_pre_leibniz(field, dim, left, right):
    """The three pre-Leibniz identities on all basis triples.

    The post-Leibniz validator on (left, right, 0) must return the same
    verdict; a split raises OracleDisagreement.
    """
    p = PostLeibnizAlgebra(field, dim, left, right,
                           zero_tensor(field, dim, dim, dim))
    star = p.star_tensor()  # u<v + u>v, the bracket being zero
    # with this star, post-l1..l3 are the three pre-Leibniz identities
    laws = [("pre" + law[4:], *rest)
            for law, *rest in _post_laws(p, star)[:3]]
    rep = check_triples(ValidationReport("pre-leibniz"), field, dim, laws)
    if rep.ok != validate_post_leibniz(p, star).ok:
        raise OracleDisagreement("pre-Leibniz and zero-bracket post-Leibniz "
                                 "validators disagree")
    return rep


@dataclass
class SkewReduction:
    skew_pair: bool
    skew_bracket: bool
    post_lie: Optional[ValidationReport] = None

    @property
    def is_skewsymmetric(self):
        return self.skew_pair and self.skew_bracket


def check_skewsymmetric_reduction(p):
    """Test u<v = -v>u and bracket antisymmetry; then the post-Lie laws.

    When both hypotheses hold, (a, >, [.,.]_a) is checked to be a post-Lie
    algebra: Lie bracket, u>. a derivation of it, and
    [u,v] > w = u>(v>w) - (u>v)>w - v>(u>w) + (v>u)>w.
    """
    fld, n = p.field, p.dim
    bv = [basis_vec(fld, n, i) for i in range(n)]
    skew_pair = all(p.lt(bv[i], bv[j]) == vec_scale(-fld.one, p.rt(bv[j], bv[i]))
                    for i in range(n) for j in range(n))
    skew_bracket = all(p.br(bv[i], bv[j]) == vec_scale(-fld.one, p.br(bv[j], bv[i]))
                       for i in range(n) for j in range(n))
    out = SkewReduction(skew_pair, skew_bracket)
    if not out.is_skewsymmetric:
        return out
    rep = ValidationReport("post-lie")
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
    out.post_lie = rep
    return out


def total_grep(p):
    """The carrier a, with its own bracket, as a representation of a_Tot.

    Left action u > v of the total algebra, right action v < u; the
    identity map then becomes a 1-weighted relative Rota-Baxter operator
    recovering p through compatible_structure.
    """
    total = total_algebra(p)
    carrier = LeibnizAlgebra(p.field, p.dim, p.bracket)
    actions = ActionPair(p.field, p.dim, p.dim, p.right, p.left)
    return LeibnizGRep(total, carrier, actions)


def compatible_structure(a, r):
    """The compatible post-Leibniz structure of an invertible weight-1 operator.

    Requires r to be a valid operator onto a with weight 1 and invertible
    T; then x<y = T(rho^R(T^-1 x, y)), x>y = T(rho^L(x, T^-1 y)) and
    [x,y]' = T[T^-1 x, T^-1 y]_h sum to the bracket of a exactly.
    """
    if r.weight != a.field.one:
        raise WrongWeight("compatible structures need weight 1")
    if r.context.g != a:
        raise InvalidInput("operator codomain differs from the target algebra")
    r.require_valid()
    d, fld, t = r.context, r.field, r.t
    if t.nrows != t.ncols:
        raise ShapeMismatch("compatible structures need T square")
    tinv = t.inverse()
    n, act = a.dim, d.actions
    bv = [basis_vec(fld, n, i) for i in range(n)]
    left = [[t.mul_vec(act.right_act(tinv.col(i), bv[j]))
             for j in range(n)] for i in range(n)]
    right = [[t.mul_vec(act.left_act(bv[i], tinv.col(j)))
              for j in range(n)] for i in range(n)]
    bracket = [[t.mul_vec(d.h.bracket(tinv.col(i), tinv.col(j)))
                for j in range(n)] for i in range(n)]
    p = PostLeibnizAlgebra(fld, n, left, right, bracket)
    star = p.star_tensor()
    if star != a.c:
        raise OracleDisagreement("compatible structure does not sum to the "
                                 "original bracket")
    check = validate_post_leibniz(p, star)
    if not check.ok:
        raise OracleDisagreement("compatible structure fails validation: %s"
                                 % check.summary())
    return p
