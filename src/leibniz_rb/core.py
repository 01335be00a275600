"""Leibniz algebras, representations and the general Leibniz differential.

Structure constants follow the convention c[i][j][k] = coefficient of
e_k in [e_i, e_j].  Validation is always explicit: constructors accept
arbitrary tensors so that deliberately broken structures can be used in
negative tests.
"""

from dataclasses import dataclass, field as dc_field
from itertools import product

from .errors import InvalidInput, ShapeMismatch
from .linalg import axpy, zero_vec
from .multimap import MultiMap


@dataclass
class Violation:
    law: str
    where: tuple
    lhs: list
    rhs: list


@dataclass
class ValidationReport:
    subject: str
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def add(self, law, where, lhs, rhs):
        self.violations.append(Violation(law, where, lhs, rhs))

    def compare(self, law, where, field, n, lhs, rhs):
        """Add law at where unless two sums of ``contract`` terms agree."""
        lhs, rhs = contract(field, lhs, n), contract(field, rhs, n)
        if lhs != rhs:
            self.add(law, where, lhs, rhs)

    def laws_violated(self):
        return sorted({v.law for v in self.violations})

    def summary(self):
        if self.ok:
            return "%s: valid" % self.subject
        return "%s: %d violation(s) in %s" % (
            self.subject, len(self.violations), ", ".join(self.laws_violated()))


def _coerce_tensor3(field, dims, tensor):
    d0, d1, d2 = dims
    if len(tensor) != d0:
        raise ShapeMismatch("tensor first axis %d != %d" % (len(tensor), d0))
    out = []
    for plane in tensor:
        if len(plane) != d1:
            raise ShapeMismatch("tensor second axis mismatch")
        rows = []
        for row in plane:
            if len(row) != d2:
                raise ShapeMismatch("tensor third axis mismatch")
            rows.append(tuple(field.coerce(x) for x in row))
        out.append(tuple(rows))
    return tuple(out)


def residue_view(field, tensor):
    """The rows of a coerced 3-tensor through field.to_raw, built once.

    This is the form ``contract`` reads.  Over Q to_raw returns its
    argument, so every row comes back as itself and the view is the
    tensor itself.
    """
    view = tuple(tuple(field.to_raw(row) for row in plane) for plane in tensor)
    if all(v is row for vp, plane in zip(view, tensor)
           for v, row in zip(vp, plane)):
        return tensor
    return view


def contract(field, terms, n):
    """sum over terms (tensor, x, y) of sum_{i,j} x_i y_j tensor[i][j].

    The one bilinear kernel behind brackets, actions, post-Leibniz
    products and the right-hand side of the operator identity, a vector
    of length n.  Each tensor is a residue view (``residue_view``); x and
    y are read through field.to_raw, zero coordinates, zero tensor rows
    and zero entries are skipped, all terms add into one raw accumulator,
    and the sums become field elements once per entry.  When no term is
    reached the result is n zeros.
    """
    out = None
    for tensor, x, y in terms:
        y = field.to_raw(y)
        for i, xi in enumerate(field.to_raw(x)):
            if not xi:
                continue
            plane = tensor[i]
            for j, yj in enumerate(y):
                row = plane[j]
                if not yj or not any(row):
                    continue
                if out is None:
                    out = [field.raw_zero] * n
                c = xi * yj
                for k, t in enumerate(row):
                    if t:
                        out[k] += c * t
    return [field.zero] * n if out is None else field.from_raw(out)


def zero_tensor(field, *shape):
    """Nested lists of zeros, one level per axis of ``shape`` (two or more)."""
    if len(shape) == 2:
        return [[field.zero] * shape[1] for _ in range(shape[0])]
    return [zero_tensor(field, *shape[1:]) for _ in range(shape[0])]


class LeibnizAlgebra:
    """Finite-dimensional algebra given by bracket structure constants."""

    def __init__(self, field, dim, bracket):
        self.field = field
        self.dim = dim
        self.c = _coerce_tensor3(field, (dim, dim, dim), bracket)
        self.c_raw = residue_view(field, self.c)

    @classmethod
    def zero(cls, field, dim):
        return cls(field, dim, zero_tensor(field, dim, dim, dim))

    @classmethod
    def from_entries(cls, field, dim, entries):
        """entries: {(i, j, k): scalar} with [e_i, e_j] = sum_k c e_k."""
        c = zero_tensor(field, dim, dim, dim)
        for (i, j, k), v in entries.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ShapeMismatch("bracket entry index out of range")
            c[i][j][k] = field.coerce(v)
        return cls(field, dim, c)

    def bracket_basis(self, i, j):
        return list(self.c[i][j])

    def bracket(self, x, y):
        return contract(self.field, ((self.c_raw, x, y),), self.dim)

    def __eq__(self, other):
        return (isinstance(other, LeibnizAlgebra) and self.field == other.field
                and self.dim == other.dim and self.c == other.c)

    def __repr__(self):
        return "LeibnizAlgebra(dim=%d)" % self.dim


class ActionPair:
    """Left/right action tensors of an algebra g on a carrier space V.

    left[i][a][b]: coefficient of f_b in rho^L(e_i, f_a).
    right[a][i][b]: coefficient of f_b in rho^R(f_a, e_i).
    """

    def __init__(self, field, dim_g, dim_v, left, right):
        self.field = field
        self.dim_g = dim_g
        self.dim_v = dim_v
        self.left = _coerce_tensor3(field, (dim_g, dim_v, dim_v), left)
        self.right = _coerce_tensor3(field, (dim_v, dim_g, dim_v), right)
        self.left_raw = residue_view(field, self.left)
        self.right_raw = residue_view(field, self.right)

    @classmethod
    def zero(cls, field, dim_g, dim_v):
        return cls(field, dim_g, dim_v,
                   zero_tensor(field, dim_g, dim_v, dim_v),
                   zero_tensor(field, dim_v, dim_g, dim_v))

    def left_basis(self, i, a):
        return list(self.left[i][a])

    def right_basis(self, a, i):
        return list(self.right[a][i])

    def left_act(self, x, v):
        return contract(self.field, ((self.left_raw, x, v),), self.dim_v)

    def right_act(self, v, x):
        return contract(self.field, ((self.right_raw, v, x),), self.dim_v)

    def __eq__(self, other):
        return (isinstance(other, ActionPair) and self.field == other.field
                and (self.dim_g, self.dim_v) == (other.dim_g, other.dim_v)
                and self.left == other.left and self.right == other.right)

    def __repr__(self):
        return "ActionPair(dim_g=%d, dim_v=%d)" % (self.dim_g, self.dim_v)


class LeibnizGRep:
    """A Leibniz algebra h that is simultaneously a module over g."""

    def __init__(self, g, h, actions):
        if g.field != h.field or g.field != actions.field:
            raise ShapeMismatch("mixed fields in LeibnizGRep")
        if actions.dim_g != g.dim or actions.dim_v != h.dim:
            raise ShapeMismatch("action tensors do not match algebra dimensions")
        self.g = g
        self.h = h
        self.actions = actions
        self.field = g.field

    def __eq__(self, other):
        return (isinstance(other, LeibnizGRep) and self.g == other.g
                and self.h == other.h and self.actions == other.actions)

    def __repr__(self):
        return "LeibnizGRep(dim_g=%d, dim_h=%d)" % (self.g.dim, self.h.dim)


def basis_vec(field, n, i):
    v = zero_vec(field, n)
    v[i] = field.one
    return v


def adjoint_pair(a):
    """Both actions given by the bracket of a itself."""
    left = a.c
    right = a.c
    return ActionPair(a.field, a.dim, a.dim, left, right)


def adjoint_grep(a):
    return LeibnizGRep(a, a, adjoint_pair(a))


def is_adjoint_grep(d):
    return d.g == d.h and d.actions == adjoint_pair(d.g)


def check_triples(rep, field, n, laws):
    """Check laws u.(v.w) = (u.v).w + v.(u.w) on all basis triples of F^n.

    A law is (name, lhs, first, second); each of the three is a pair of
    an outer operation, as a residue view, and an inner one, as a coerced
    tensor.  On (e_i, e_j, e_k) the pair (s, t) reads s(e_i, t[j][k]) as
    lhs, s(t[i][j], e_k) as first and s(e_j, t[i][k]) as second.
    """
    e = [basis_vec(field, n, i) for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        for law, (s, t), (s1, t1), (s2, t2) in laws:
            rep.compare(law, (i, j, k), field, n, [(s, e[i], t[j][k])],
                        [(s1, t1[i][j], e[k]), (s2, e[j], t2[i][k])])
    return rep


def validate_leibniz(a):
    """Check [x,[y,z]] = [[x,y],z] + [y,[x,z]] on all basis triples."""
    c = (a.c_raw, a.c)
    return check_triples(ValidationReport("leibniz"), a.field, a.dim,
                         [("leibniz-identity", c, c, c)])


def validate_representation(g, actions):
    """Check the three representation axioms on all basis triples.

    On basis vectors every inner product is a tensor row, so each side is
    one ``contract`` of one or two terms.
    """
    if actions.dim_g != g.dim:
        raise ShapeMismatch("action tensor dim_g != algebra dim")
    rep = ValidationReport("representation")
    f, dv, c = g.field, actions.dim_v, g.c
    lt, rt = actions.left, actions.right
    lr, rr = actions.left_raw, actions.right_raw
    e = [basis_vec(f, g.dim, i) for i in range(g.dim)]
    fv = [basis_vec(f, dv, a) for a in range(dv)]
    for i, j in product(range(g.dim), repeat=2):
        for a in range(dv):
            w = (i, j, a)
            # (2): rhoL(x, rhoL(y,v)) = rhoL([x,y],v) + rhoL(y, rhoL(x,v))
            rep.compare("rep-axiom-2", w, f, dv, [(lr, e[i], lt[j][a])],
                        [(lr, c[i][j], fv[a]), (lr, e[j], lt[i][a])])
            # (3): rhoL(x, rhoR(v,y)) = rhoR(rhoL(x,v), y) + rhoR(v, [x,y])
            rep.compare("rep-axiom-3", w, f, dv, [(lr, e[i], rt[a][j])],
                        [(rr, lt[i][a], e[j]), (rr, fv[a], c[i][j])])
            # (4): rhoR(v, [x,y]) = rhoR(rhoR(v,x), y) + rhoL(x, rhoR(v,y))
            rep.compare("rep-axiom-4", w, f, dv, [(rr, fv[a], c[i][j])],
                        [(rr, rt[a][i], e[j]), (lr, e[i], rt[a][j])])
    return rep


def validate_leibniz_g_rep(d):
    """Representation axioms plus the three coupling axioms (5)-(7)."""
    rep = ValidationReport("leibniz-g-rep")
    rep.violations.extend(validate_leibniz(d.g).violations)
    rep.violations.extend(validate_leibniz(d.h).violations)
    rep.violations.extend(validate_representation(d.g, d.actions).violations)
    f, nh, act = d.field, d.h.dim, d.actions
    hc, hr, lt, rt = d.h.c, d.h.c_raw, act.left, act.right
    lr, rr = act.left_raw, act.right_raw
    e = [basis_vec(f, d.g.dim, i) for i in range(d.g.dim)]
    fv = [basis_vec(f, nh, a) for a in range(nh)]
    for a, b in product(range(nh), repeat=2):
        for i in range(d.g.dim):
            w = (a, b, i)
            # (5): [u, rhoR(v,x)]_h = rhoR([u,v]_h, x) + [v, rhoR(u,x)]_h
            rep.compare("lrep-axiom-5", w, f, nh, [(hr, fv[a], rt[b][i])],
                        [(rr, hc[a][b], e[i]), (hr, fv[b], rt[a][i])])
            # (6): [u, rhoL(x,v)]_h = [rhoR(u,x), v]_h + rhoL(x, [u,v]_h)
            rep.compare("lrep-axiom-6", w, f, nh, [(hr, fv[a], lt[i][b])],
                        [(hr, rt[a][i], fv[b]), (lr, e[i], hc[a][b])])
            # (7): rhoL(x, [u,v]_h) = [rhoL(x,u), v]_h + [u, rhoL(x,v)]_h
            rep.compare("lrep-axiom-7", w, f, nh, [(lr, e[i], hc[a][b])],
                        [(hr, lt[i][a], fv[b]), (hr, fv[a], lt[i][b])])
    return rep


def semidirect_product(d, lam):
    """Weighted semidirect bracket on g + h; validates its input."""
    check = validate_leibniz_g_rep(d)
    if not check.ok:
        raise InvalidInput(check.summary())
    return semidirect_product_unchecked(d, lam)


def semidirect_product_unchecked(d, lam):
    f = d.field
    lam = f.coerce(lam)
    ng, nh = d.g.dim, d.h.dim
    n = ng + nh
    c = zero_tensor(f, n, n, n)
    for i, j in product(range(ng), repeat=2):
        for k, v in enumerate(d.g.c[i][j]):
            c[i][j][k] = v
    for i in range(ng):
        for b in range(nh):
            # [(x,0),(0,v)] = (0, rhoL(x,v))
            for k, v in enumerate(d.actions.left[i][b]):
                c[i][ng + b][ng + k] = v
    for a in range(nh):
        for j in range(ng):
            # [(0,u),(y,0)] = (0, rhoR(u,y))
            for k, v in enumerate(d.actions.right[a][j]):
                c[ng + a][j][ng + k] = v
    for a, b in product(range(nh), repeat=2):
        for k, v in enumerate(d.h.c[a][b]):
            c[ng + a][ng + b][ng + k] = lam * v
    return LeibnizAlgebra(f, n, c)


def is_algebra_morphism(src, dst, phi):
    """phi: Matrix src -> dst with phi([x,y]) = [phi x, phi y]."""
    if phi.ncols != src.dim or phi.nrows != dst.dim:
        raise ShapeMismatch("morphism matrix has wrong shape")
    f = src.field
    for i, j in product(range(src.dim), repeat=2):
        lhs = phi.mul_vec(src.bracket_basis(i, j))
        rhs = dst.bracket(phi.col(i), phi.col(j))
        if lhs != rhs:
            return False
    return True


def leibniz_differential(g, actions, f):
    """General Leibniz cochain differential, arity n >= 1, as a plain gather.

    f is a MultiMap g^{x n} -> V; actions is the (rho^L, rho^R) pair of
    g on V.  rho^L(e_i, .), rho^R(., e_j) and [e_i, e_j] are read as slices
    of the tensors.  It is the second route for the assembled delta matrices.
    """
    if f.src_dim != g.dim or f.tgt_dim != actions.dim_v:
        raise ShapeMismatch("cochain does not match algebra/carrier dims")
    if actions.dim_g != g.dim:
        raise ShapeMismatch("actions do not match algebra dim")
    fld, n = g.field, f.arity
    # right[j][a] = rho^R(f_a, e_j)
    right = [[plane[j] for plane in actions.right] for j in range(g.dim)]
    out = MultiMap(fld, n + 1, g.dim, actions.dim_v)
    for idx in out.tuples():
        acc = zero_vec(fld, actions.dim_v)
        for i in range(1, n + 1):
            add_combination(acc, _pow_sign(fld, i + 1),
                            f.nz.get(idx[:i - 1] + idx[i:], ()),
                            actions.left[idx[i - 1]])
        add_combination(acc, _pow_sign(fld, n + 1), f.nz.get(idx[:n], ()),
                        right[idx[n]])
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                args = (idx[:i - 1] + idx[i:j - 1]
                        + (g.c[idx[i - 1]][idx[j - 1]],) + idx[j:])
                axpy(acc, _pow_sign(fld, i), f.apply(args))
        out.set_(idx, acc)
    return out


def add_combination(acc, c, coeffs, rows):
    """acc += c * sum_k coeffs[k] rows[k] in place; zero coeffs are skipped."""
    for x, row in zip(coeffs, rows):
        if x:
            axpy(acc, c * x, row)


def _pow_sign(field, k):
    """(-1)^k in the field."""
    return field.one if k % 2 == 0 else -field.one


def change_of_basis_algebra(a, s):
    """Structure constants of a in the basis e'_i = sum_j s[j][i] e_j."""
    si = s.inverse()
    c = zero_tensor(a.field, a.dim, a.dim, a.dim)
    for i, j in product(range(a.dim), repeat=2):
        v = si.mul_vec(a.bracket(s.col(i), s.col(j)))
        for k in range(a.dim):
            c[i][j][k] = v[k]
    return LeibnizAlgebra(a.field, a.dim, c)


def change_of_basis_grep(d, sg, sh):
    """Transport a LeibnizGRep along basis changes of g and h."""
    f = d.field
    g2 = change_of_basis_algebra(d.g, sg)
    h2 = change_of_basis_algebra(d.h, sh)
    shi = sh.inverse()
    left = zero_tensor(f, d.g.dim, d.h.dim, d.h.dim)
    right = zero_tensor(f, d.h.dim, d.g.dim, d.h.dim)
    for i in range(d.g.dim):
        for a in range(d.h.dim):
            v = shi.mul_vec(d.actions.left_act(sg.col(i), sh.col(a)))
            for b in range(d.h.dim):
                left[i][a][b] = v[b]
            v = shi.mul_vec(d.actions.right_act(sh.col(a), sg.col(i)))
            for b in range(d.h.dim):
                right[a][i][b] = v[b]
    return LeibnizGRep(g2, h2, ActionPair(f, d.g.dim, d.h.dim, left, right))
