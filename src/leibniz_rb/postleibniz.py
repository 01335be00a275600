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
from functools import cached_property
from itertools import chain
from typing import Optional

from .core import (ActionPair, LeibnizAlgebra, LeibnizGRep, ValidationReport,
                   _as_store, _Store, check_laws, contract, parse_laws,
                   transport, validate_leibniz)
from .errors import (InvalidInput, OracleDisagreement, ShapeMismatch,
                     WrongWeight)
from .linalg import Matrix


class PostLeibnizAlgebra:
    """Structure tensors for u<v (left), u>v (right) and [u,v]_a (bracket),
    each the dense view of its store (left_nz, right_nz, bracket_nz)."""

    def __init__(self, field, dim, left, right, bracket):
        self.field, self.dim = field, dim
        self.left_nz = _as_store(field, (dim,) * 3, left)
        self.right_nz = _as_store(field, (dim,) * 3, right)
        self.bracket_nz = _as_store(field, (dim,) * 3, bracket)

    left = property(lambda self: self.left_nz.dense())
    right = property(lambda self: self.right_nz.dense())
    bracket = property(lambda self: self.bracket_nz.dense())

    @classmethod
    def zero(cls, field, dim):
        z = _Store(field, (dim, dim, dim))
        return cls(field, dim, z, z, z)

    def lt(self, x, y):
        return contract(self.field, ((self.left_nz, x, y),), self.dim)

    def rt(self, x, y):
        return contract(self.field, ((self.right_nz, x, y),), self.dim)

    def br(self, x, y):
        return contract(self.field, ((self.bracket_nz, x, y),), self.dim)

    def star(self, x, y):
        return contract(self.field, ((self.star_nz, x, y),), self.dim)

    @cached_property
    def star_nz(self):
        """The store of [u, v]_star = u<v + u>v + [u,v]_a, built once."""
        return _Store(self.field, self.left_nz.dims, chain(
            self.left_nz.cells(), self.right_nz.cells(),
            self.bracket_nz.cells()))

    def __eq__(self, other):
        return (isinstance(other, PostLeibnizAlgebra)
                and self.left_nz == other.left_nz
                and self.right_nz == other.right_nz
                and self.bracket_nz == other.bracket_nz)

    def __repr__(self):
        return "PostLeibnizAlgebra(dim=%d)" % self.dim


# On the triple (e_i, e_j, e_k): < is u<v, > is u>v, . is [u,v]_a, * is star
POST_LEIBNIZ_LAWS = parse_laws(
    ("post-l1", "i<(j*k) = (i<j)<k + j>(i<k)"),
    ("post-l2", "i>(j<k) = (i>j)<k + j<(i*k)"),
    ("post-l3", "i>(j>k) = (i*j)>k + j>(i>k)"),
    ("post-l4", "i>(j.k) = (i>j).k + j.(i>k)"),
    ("post-l5", "i.(j>k) = (i<j).k + j>(i.k)"),
    ("post-l6", "i.(j<k) = (i.j)<k + j.(i<k)"),
    ("post-l7", "i.(j.k) = (i.j).k + j.(i.k)"))
# the post-Lie algebra (a, >, [.,.]_a)
POST_LIE_LAWS = parse_laws(
    ("lie-jacobi", "i.(j.k) = (i.j).k + j.(i.k)"),
    ("post-lie-derivation", "i>(j.k) = (i>j).k + j.(i>k)"),
    ("post-lie-curvature", "(i.j)>k = i>(j>k) - (i>j)>k - j>(i>k) + (j>i)>k"))


def _tensors(p):
    """The stores of p by their names in the laws."""
    return {"<": p.left_nz, ">": p.right_nz, ".": p.bracket_nz, "*": p.star_nz}


def validate_post_leibniz(p):
    """Check identities post-l1..post-l7 on all basis triples."""
    return check_laws(ValidationReport("post-leibniz"), p.field,
                      POST_LEIBNIZ_LAWS, _tensors(p))


def total_algebra(p):
    """The total Leibniz algebra (a, [.,.]_star) of a valid structure."""
    rep = validate_post_leibniz(p)
    if not rep.ok:
        raise InvalidInput("not a post-Leibniz algebra: %s" % rep.summary())
    total = LeibnizAlgebra(p.field, p.dim, p.star_nz)
    check = validate_leibniz(total)
    if not check.ok:
        raise OracleDisagreement("total bracket fails the Leibniz identity "
                                 "on a validated structure")
    return total


def from_rbo(r):
    """The post-Leibniz algebra of a valid weighted operator on h."""
    r.require_valid()
    d, fld, t = r.context, r.field, r.t
    ih = Matrix.identity(fld, d.h.dim)
    left = transport([(d.actions.right_nz, ih, t, ih)])
    right = transport([(d.actions.left_nz, t, ih, ih)])
    bracket = transport([(d.h.c_nz, ih, ih, ih.scale(r.weight))])
    p = PostLeibnizAlgebra(fld, d.h.dim, left, right, bracket)
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
    p = PostLeibnizAlgebra(field, dim, left, right, _Store(field, (dim,) * 3))
    # with star u<v + u>v, the bracket being zero, post-l1..l3 are the
    # three pre-Leibniz identities
    laws = [("pre" + law[4:], lhs, rhs)
            for law, lhs, rhs in POST_LEIBNIZ_LAWS[:3]]
    rep = check_laws(ValidationReport("pre-leibniz"), field, laws, _tensors(p))
    if rep.ok != validate_post_leibniz(p).ok:
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


def _skew(s, t):
    """s[i][j] = -t[j][i] for all i, j: the stores sum to zero that way."""
    return not _Store(s.field, s.dims, chain(s.cells(), (
        ((j, i, k), x) for (i, j, k), x in t.cells()))).rows


def check_skewsymmetric_reduction(p):
    """Test u<v = -v>u and bracket antisymmetry; then the post-Lie laws.

    When both hypotheses hold, (a, >, [.,.]_a) is checked to be a post-Lie
    algebra: Lie bracket, u>. a derivation of it, and
    [u,v] > w = u>(v>w) - (u>v)>w - v>(u>w) + (v>u)>w.
    """
    out = SkewReduction(_skew(p.left_nz, p.right_nz),
                        _skew(p.bracket_nz, p.bracket_nz))
    if out.is_skewsymmetric:
        out.post_lie = check_laws(ValidationReport("post-lie"), p.field,
                                  POST_LIE_LAWS,
                                  {">": p.right_nz, ".": p.bracket_nz})
    return out


def total_grep(p):
    """The carrier a, with its own bracket, as a representation of a_Tot.

    Left action u > v of the total algebra, right action v < u; the
    identity map then becomes a 1-weighted relative Rota-Baxter operator
    recovering p through compatible_structure.
    """
    total = total_algebra(p)
    carrier = LeibnizAlgebra(p.field, p.dim, p.bracket_nz)
    actions = ActionPair(p.field, p.dim, p.dim, p.right_nz, p.left_nz)
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
    tinv, one = t.inverse(), Matrix.identity(fld, a.dim)
    left = transport([(d.actions.right_nz, tinv, one, t)])
    right = transport([(d.actions.left_nz, one, tinv, t)])
    bracket = transport([(d.h.c_nz, tinv, tinv, t)])
    p = PostLeibnizAlgebra(fld, a.dim, left, right, bracket)
    if p.star_nz != a.c_nz:
        raise OracleDisagreement("compatible structure does not sum to the "
                                 "original bracket")
    check = validate_post_leibniz(p)
    if not check.ok:
        raise OracleDisagreement("compatible structure fails validation: %s"
                                 % check.summary())
    return p
