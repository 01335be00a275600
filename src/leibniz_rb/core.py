"""Leibniz algebras, representations and the general Leibniz differential.

Structure constants follow the convention c[i][j][k] = coefficient of
e_k in [e_i, e_j].  Validation is always explicit: constructors accept
arbitrary tensors so that deliberately broken structures can be used in
negative tests.
"""

import re
from dataclasses import dataclass, field as dc_field
from itertools import product
from operator import itemgetter

from .errors import InvalidInput, ResourceLimit, ShapeMismatch
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
            rows.append(tuple(map(field.coerce, row)))
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
    return ActionPair(a.field, a.dim, a.dim, a.c, a.c)


def adjoint_grep(a):
    return LeibnizGRep(a, a, adjoint_pair(a))


def is_adjoint_grep(d):
    return d.g == d.h and d.actions == adjoint_pair(d.g)


# The most scalar multiply-adds ``check_laws`` spends on one law
MAX_LAW_WORK = 10 ** 5


def parse_laws(*identities):
    """The laws of (name, 'lhs = rhs') identities, for ``check_laws``.

    Each side is a signed sum of terms x O (y I z) or (x I y) O z: x, y, z
    are the slots i, j, k of the basis triple, O and I one-character names
    of the outer and inner tensors.  A law is (name, lhs terms, rhs terms),
    a term (sign, O, I, slots) with slots 'x(yz)' or '(xy)z'.
    """
    def term(sign, t):
        sign = -1 if sign == "-" else 1
        if t[0] == "(":  # (x I y) O z
            return sign, t[5], t[2], "(%s%s)%s" % (t[1], t[3], t[6])
        return sign, t[1], t[4], "%s(%s%s)" % (t[0], t[3], t[5])

    laws = []
    for name, text in identities:
        lhs, rhs = ([term(*t) for t in re.findall(r"([+-]?)([^+-]+)", side)]
                    for side in text.replace(" ", "").split("="))
        laws.append((name, lhs, rhs))
    return tuple(laws)


class _Nonzeros:
    """The nonzero rows of a raw 3-tensor, each as its nonzero (k, t) pairs.

    entries lists (a, b, row) for every nonzero tensor[a][b]; by_first[a]
    and by_second[b] list (b, row) and (a, row).  width is the row length.
    Entries that are the raw zero object itself skip the truth test.
    """

    def __init__(self, tensor, zero):
        self.entries, self.by_first, self.by_second, self.width = [], {}, {}, 0
        for a, plane in enumerate(tensor):
            for b, row in enumerate(plane):
                self.width = len(row)
                nz = [(k, t) for k, t in enumerate(row) if t is not zero and t]
                if nz:
                    self.entries.append((a, b, nz))
                    self.by_first.setdefault(a, []).append((b, nz))
                    self.by_second.setdefault(b, []).append((a, nz))


def _terms(terms, nonzeros):
    """(sign, place, outer rows by contracted index, inner entries) per term.

    place maps (basis index, inner a, inner b) to the basis triple.
    """
    for sign, outer, inner, slots in terms:
        letters = slots.replace("(", "").replace(")", "")
        rows = nonzeros[outer].by_second
        if slots[0] == "(":  # the inner row is the outer's left argument
            letters, rows = letters[2] + letters[:2], nonzeros[outer].by_first
        yield (sign, itemgetter(*map(letters.index, "ijk")), rows,
               nonzeros[inner].entries)


def _work(terms, nonzeros):
    """The scalar multiply-adds ``_scatter`` makes for terms."""
    total = 0
    for _, _, rows, entries in _terms(terms, nonzeros):
        weight = {m: sum(len(row) for _, row in r) for m, r in rows.items()}
        total += sum(weight.get(m, 0) for _, _, vec in entries for m, _ in vec)
    return total


def _scatter(terms, nonzeros, zero):
    """{w: {k: raw sum}} of one law side on every basis triple it reaches."""
    side = {}
    for sign, place, rows, entries in _terms(terms, nonzeros):
        for a, b, vec in entries:
            for m, t in vec:
                t = t if sign > 0 else -t
                for p, row in rows.get(m, ()):
                    acc = side.setdefault(place((p, a, b)), {})
                    for k, s in row:
                        acc[k] = acc.get(k, zero) + t * s
    return side


def check_laws(rep, field, laws, tensors):
    """Add to rep every violation of laws (``parse_laws``) on basis triples.

    tensors maps the names in the laws to raw 3-tensors (residue views).
    Each side is scattered from the nonzero tensor rows into raw sums per
    basis triple, so triples that no nonzero reaches cost nothing.  The
    multiply-adds of every law are counted from the nonzero counts first:
    past MAX_LAW_WORK, ResourceLimit names the law.  Violations come by
    triple in lexicographic order, then by law in table order.
    """
    zero = field.raw_zero
    nonzeros = {x: _Nonzeros(t, zero) for x, t in tensors.items()}
    for law, lhs, rhs in laws:
        work = _work(lhs + rhs, nonzeros)
        if work > MAX_LAW_WORK:
            raise ResourceLimit("%s needs %d scalar multiply-adds, beyond the "
                                "limit %d" % (law, work, MAX_LAW_WORK))
    found = []
    for pos, (law, lhs, rhs) in enumerate(laws):
        n = max(nonzeros[outer].width for _, outer, _, _ in lhs + rhs)
        sides = _scatter(lhs, nonzeros, zero), _scatter(rhs, nonzeros, zero)
        for w in sides[0].keys() | sides[1].keys():
            lv, rv = (field.from_raw([side.get(w, {}).get(k, zero)
                                      for k in range(n)]) for side in sides)
            if lv != rv:
                found.append((w, pos, law, lv, rv))
    for w, _, law, lv, rv in sorted(found, key=itemgetter(0, 1)):
        rep.add(law, w, lv, rv)
    return rep


# . is the bracket; on a representation x > v = rho^L(x, v) and
# v < x = rho^R(v, x), the identities of Loday-Pirashvili
LEIBNIZ_LAWS = parse_laws(
    ("leibniz-identity", "i.(j.k) = (i.j).k + j.(i.k)"))
# on the triple (e_i, e_j, f_k)
REPRESENTATION_LAWS = parse_laws(
    ("rep-axiom-2", "i>(j>k) = (i.j)>k + j>(i>k)"),
    ("rep-axiom-3", "i>(k<j) = (i>k)<j + k<(i.j)"),
    ("rep-axiom-4", "k<(i.j) = (k<i)<j + i>(k<j)"))
# on the triple (f_i, f_j, e_k), . the bracket of h
COUPLING_LAWS = parse_laws(
    ("lrep-axiom-5", "i.(j<k) = (i.j)<k + j.(i<k)"),
    ("lrep-axiom-6", "i.(k>j) = (i<k).j + k>(i.j)"),
    ("lrep-axiom-7", "k>(i.j) = (k>i).j + i.(k>j)"))


def validate_leibniz(a):
    """Check [x,[y,z]] = [[x,y],z] + [y,[x,z]] on all basis triples."""
    return check_laws(ValidationReport("leibniz"), a.field, LEIBNIZ_LAWS,
                      {".": a.c_raw})


def validate_representation(g, actions):
    """Check the three representation axioms (2)-(4) on all basis triples."""
    if actions.dim_g != g.dim:
        raise ShapeMismatch("action tensor dim_g != algebra dim")
    return check_laws(ValidationReport("representation"), g.field,
                      REPRESENTATION_LAWS,
                      {".": g.c_raw, ">": actions.left_raw,
                       "<": actions.right_raw})


def validate_leibniz_g_rep(d):
    """Representation axioms plus the three coupling axioms (5)-(7)."""
    rep = ValidationReport("leibniz-g-rep")
    rep.violations.extend(validate_leibniz(d.g).violations)
    rep.violations.extend(validate_leibniz(d.h).violations)
    rep.violations.extend(validate_representation(d.g, d.actions).violations)
    return check_laws(rep, d.field, COUPLING_LAWS,
                      {".": d.h.c_raw, ">": d.actions.left_raw,
                       "<": d.actions.right_raw})


def semidirect_product(d, lam):
    """Weighted semidirect bracket on g + h; validates its input."""
    check = validate_leibniz_g_rep(d)
    if not check.ok:
        raise InvalidInput(check.summary())
    return semidirect_product_unchecked(d, lam)


def semidirect_product_unchecked(d, lam):
    """[(x,u),(y,v)] = ([x,y], rho^L(x,v) + rho^R(u,y) + lam [u,v]_h)."""
    c = block_tensor(d, d.field.one, d.field.coerce(lam))
    return LeibnizAlgebra(d.field, d.g.dim + d.h.dim, c)


def block_tensor(d, mu, lam):
    """mu ([x,y]_g + rho^L(x,v) + rho^R(u,y)) + lam [u,v]_h, block by block."""
    ng, n = d.g.dim, d.g.dim + d.h.dim
    c = zero_tensor(d.field, n, n, n)
    blocks = ((d.g.c, 0, 0, 0, mu), (d.actions.left, 0, ng, ng, mu),
              (d.actions.right, ng, 0, ng, mu), (d.h.c, ng, ng, ng, lam))
    for t, i0, j0, k0, s in blocks:
        if s:  # a zero scale leaves its block zero
            for i, plane in enumerate(t):
                for j, row in enumerate(plane):
                    c[i0 + i][j0 + j][k0:k0 + len(row)] = \
                        row if s == 1 else [s * x for x in row]
    return c


def is_algebra_morphism(src, dst, phi):
    """phi: Matrix src -> dst with phi([x,y]) = [phi x, phi y]."""
    if phi.ncols != src.dim or phi.nrows != dst.dim:
        raise ShapeMismatch("morphism matrix has wrong shape")
    return all(phi.mul_vec(src.bracket_basis(i, j))
               == dst.bracket(phi.col(i), phi.col(j))
               for i, j in product(range(src.dim), repeat=2))


def leibniz_differential(g, actions, f):
    """General Leibniz cochain differential, arity n >= 1, as a plain gather.

    f is a MultiMap g^{x n} -> V; actions is the (rho^L, rho^R) pair of
    g on V.  rho^L(e_i, .), rho^R(., e_j) and [e_i, e_j] are read as slices
    of the tensors; each term, bracket terms by one f.apply with sign +-1,
    adds into the output row in place.  It is the second route for the
    assembled delta matrices.
    """
    if f.src_dim != g.dim or f.tgt_dim != actions.dim_v:
        raise ShapeMismatch("cochain does not match algebra/carrier dims")
    if actions.dim_g != g.dim:
        raise ShapeMismatch("actions do not match algebra dim")
    fld, n, one = g.field, f.arity, g.field.one
    # right[j][a] = rho^R(f_a, e_j)
    right = [[plane[j] for plane in actions.right] for j in range(g.dim)]
    out = MultiMap(fld, n + 1, g.dim, actions.dim_v)
    for idx in out.tuples():
        acc = zero_vec(fld, actions.dim_v)
        for i in range(1, n + 1):
            add_combination(acc, f.nz.get(idx[:i - 1] + idx[i:], ()),
                            actions.left[idx[i - 1]], negate=i % 2 == 0)
        add_combination(acc, f.nz.get(idx[:n], ()), right[idx[n]],
                        negate=n % 2 == 0)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                args = (idx[:i - 1] + idx[i:j - 1]
                        + (g.c[idx[i - 1]][idx[j - 1]],) + idx[j:])
                axpy(acc, -one if i % 2 else one, f.apply(args))
        out.set_(idx, acc)
    return out


def add_combination(acc, coeffs, rows, negate=False):
    """acc +-= sum_k coeffs[k] rows[k] in place; zero coeffs are skipped."""
    for x, row in zip(coeffs, rows):
        if x:
            axpy(acc, -x if negate else x, row)


def _pow_sign(field, k):
    """(-1)^k in the field."""
    return field.one if k % 2 == 0 else -field.one


def transport(op, s, t, out):
    """The tensor out(op(s e_i, t e_j)) of a bilinear op, indexed [i][j]."""
    return [[out.mul_vec(op(s.col(i), t.col(j))) for j in range(t.ncols)]
            for i in range(s.ncols)]


def change_of_basis_algebra(a, s):
    """Structure constants of a in the basis e'_i = sum_j s[j][i] e_j."""
    return LeibnizAlgebra(a.field, a.dim,
                          transport(a.bracket, s, s, s.inverse()))


def change_of_basis_grep(d, sg, sh):
    """Transport a LeibnizGRep along basis changes of g and h."""
    shi = sh.inverse()
    left = transport(d.actions.left_act, sg, sh, shi)
    right = transport(d.actions.right_act, sh, sg, shi)
    return LeibnizGRep(change_of_basis_algebra(d.g, sg),
                       change_of_basis_algebra(d.h, sh),
                       ActionPair(d.field, d.g.dim, d.h.dim, left, right))
