"""Leibniz algebras, representations and the general Leibniz differential.

Structure constants follow the convention c[i][j][k] = coefficient of
e_k in [e_i, e_j]; each tensor is kept once, as the store of its nonzero
raw rows (``_Store``), and ``.c``, ``.left``, ``.right`` are dense views
built on first read.  Validation is always explicit: constructors accept
arbitrary tensors (dense, shape checked and coerced, or stores) so that
deliberately broken structures can be used in negative tests.
"""

import re
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from operator import itemgetter

from .errors import InvalidInput, ResourceLimit, ShapeMismatch, WrongField
from .fields import ZZ, int_scale
from .linalg import Matrix, zero_vec
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

    def add_differences(self, law, lhs, rhs, prefix=()):
        """Add prefix + (i, j) and both rows, as field vectors, for each row
        on which the stores lhs and rhs differ, in key order; returns self."""
        fld, n = lhs.field, lhs.dims[2]
        for key in sorted(k for k in lhs.rows.keys() | rhs.rows.keys()
                          if lhs.rows.get(k) != rhs.rows.get(k)):
            self.add(law, prefix + key, *(fld.from_raw([
                s.rows.get(key, {}).get(k, fld.raw_zero) for k in range(n)])
                for s in (lhs, rhs)))
        return self

    def laws_violated(self):
        return sorted({v.law for v in self.violations})

    def summary(self):
        if self.ok:
            return "%s: valid" % self.subject
        return "%s: %d violation(s) in %s" % (
            self.subject, len(self.violations), ", ".join(self.laws_violated()))


class _Store:
    """A 3-tensor of shape dims over field: the sums of the raw ((i, j, k),
    x) cells as rows {(i, j): {k: raw}}, raw as ``Field.to_raw`` gives it
    (a Fraction over Q, a residue in [0, p) over GF(p), an int over ``ZZ``).

    No zero entry and no empty row is kept, so tensors are equal iff their
    rows are; by_first[i] and by_second[j] list (j, row) and (i, row).
    """

    def __init__(self, field, dims, cells=()):
        p, sums = field.characteristic, {}
        for (i, j, k), x in cells:
            row = sums.setdefault((i, j), {})
            row[k] = row[k] + x if k in row else x
        self.field, self.dims, self.rows = field, dims, {}
        self.by_first, self.by_second, self._dense = {}, {}, None
        for (i, j), row in sums.items():
            row = {k: x % p if p else x for k, x in row.items()}
            row = {k: x for k, x in row.items() if x}
            if row:
                self.rows[i, j] = row
                self.by_first.setdefault(i, []).append((j, row))
                self.by_second.setdefault(j, []).append((i, row))

    def cells(self):
        return (((i, j, k), x) for (i, j), row in self.rows.items()
                for k, x in row.items())

    def dense(self):
        """The nested tuples of field elements, built on first call."""
        if self._dense is None:
            fld, (d0, d1, d2) = self.field, self.dims
            raw = [[[fld.raw_zero] * d2 for _ in range(d1)] for _ in range(d0)]
            for (i, j, k), x in self.cells():
                raw[i][j][k] = x
            self._dense = tuple(tuple(tuple(fld.from_raw(row)) for row in pl)
                                for pl in raw)
        return self._dense

    def dense_rows(self):
        """((i, j), dense row) for every nonzero row, in sorted order."""
        return [((i, j), self.dense()[i][j]) for i, j in sorted(self.rows)]

    def __eq__(self, other):
        return (isinstance(other, _Store) and self.field == other.field
                and self.dims == other.dims and self.rows == other.rows)


def _as_store(field, dims, tensor):
    """tensor if it is a store, else the store of the dense nested tensor,
    its shape checked and every cell coerced."""
    if isinstance(tensor, _Store):
        return tensor
    d0, d1, d2 = dims
    if len(tensor) != d0:
        raise ShapeMismatch("tensor first axis %d != %d" % (len(tensor), d0))
    cells = []
    for i, plane in enumerate(tensor):
        if len(plane) != d1:
            raise ShapeMismatch("tensor second axis mismatch")
        for j, row in enumerate(plane):
            if len(row) != d2:
                raise ShapeMismatch("tensor third axis mismatch")
            raw = field.to_raw([field.coerce(x) for x in row])
            cells.extend(((i, j, k), x) for k, x in enumerate(raw) if x)
    return _Store(field, dims, cells)


def over_ints(stores):
    """(D, each store times D over ``ZZ``), D from ``fields.int_scale``."""
    den, ints = int_scale(stores[0].field,
                          [x for s in stores for _, x in s.cells()])
    it = iter(ints)
    return den, [_Store(ZZ, s.dims, [(ijk, next(it)) for ijk, _ in s.cells()])
                 for s in stores]


def contract(field, terms, n):
    """sum over terms (store, x, y) of sum_{i,j} x_i y_j tensor[i][j].

    The one bilinear kernel behind brackets, actions and post-Leibniz
    products, a vector of length n.  x and y are read through to_raw; each
    nonzero x_i meets the store rows by_first[i], zero y_j are skipped, all
    terms add into one raw accumulator, and the sums become field elements
    once per entry.  When no term is reached the result is n zeros.  An x
    or y whose length is not its store's first or second axis raises
    ShapeMismatch.
    """
    to_raw, out = field.to_raw, None
    for store, x, y in terms:
        if len(x) != store.dims[0] or len(y) != store.dims[1]:
            raise ShapeMismatch("vectors of lengths %d, %d for a tensor of "
                                "shape %s" % (len(x), len(y), store.dims))
        y, by_first = to_raw(y), store.by_first
        for i, xi in enumerate(to_raw(x)):
            if not xi or i not in by_first:
                continue
            for j, row in by_first[i]:
                yj = y[j]
                if not yj:
                    continue
                if out is None:
                    out = [field.raw_zero] * n
                c = xi * yj
                for k, t in row.items():
                    out[k] += c * t
    return [field.zero] * n if out is None else field.from_raw(out)


class LeibnizAlgebra:
    """Finite-dimensional algebra given by bracket structure constants,
    dense or a store; c is the dense view of the store c_nz."""

    def __init__(self, field, dim, bracket):
        self.field, self.dim = field, dim
        self.c_nz = _as_store(field, (dim, dim, dim), bracket)

    c = property(lambda self: self.c_nz.dense())

    @classmethod
    def zero(cls, field, dim):
        return cls(field, dim, _Store(field, (dim, dim, dim)))

    @classmethod
    def from_entries(cls, field, dim, entries):
        """entries: {(i, j, k): scalar} with [e_i, e_j] = sum_k c e_k."""
        if not all(0 <= x < dim for key in entries for x in key):
            raise ShapeMismatch("bracket entry index out of range")
        raw = field.to_raw([field.coerce(v) for v in entries.values()])
        return cls(field, dim, _Store(field, (dim,) * 3, zip(entries, raw)))

    def bracket_basis(self, i, j):
        return list(self.c[i][j])

    def bracket(self, x, y):
        return contract(self.field, ((self.c_nz, x, y),), self.dim)

    def __eq__(self, other):
        return isinstance(other, LeibnizAlgebra) and self.c_nz == other.c_nz

    def __repr__(self):
        return "LeibnizAlgebra(dim=%d)" % self.dim


class ActionPair:
    """Left/right action tensors of an algebra g on a carrier space V.

    left[i][a][b]: coefficient of f_b in rho^L(e_i, f_a).
    right[a][i][b]: coefficient of f_b in rho^R(f_a, e_i).
    Both are dense views of the stores left_nz and right_nz.
    """

    def __init__(self, field, dim_g, dim_v, left, right):
        self.field, self.dim_g, self.dim_v = field, dim_g, dim_v
        self.left_nz = _as_store(field, (dim_g, dim_v, dim_v), left)
        self.right_nz = _as_store(field, (dim_v, dim_g, dim_v), right)

    left = property(lambda self: self.left_nz.dense())
    right = property(lambda self: self.right_nz.dense())

    @classmethod
    def zero(cls, field, dim_g, dim_v):
        return cls(field, dim_g, dim_v,
                   _Store(field, (dim_g, dim_v, dim_v)),
                   _Store(field, (dim_v, dim_g, dim_v)))

    def left_basis(self, i, a):
        return list(self.left[i][a])

    def right_basis(self, a, i):
        return list(self.right[a][i])

    def left_act(self, x, v):
        return contract(self.field, ((self.left_nz, x, v),), self.dim_v)

    def right_act(self, v, x):
        return contract(self.field, ((self.right_nz, v, x),), self.dim_v)

    def __eq__(self, other):
        return (isinstance(other, ActionPair) and self.left_nz == other.left_nz
                and self.right_nz == other.right_nz)

    def __repr__(self):
        return "ActionPair(dim_g=%d, dim_v=%d)" % (self.dim_g, self.dim_v)


class LeibnizGRep:
    """A Leibniz algebra h that is simultaneously a module over g."""

    def __init__(self, g, h, actions):
        if g.field != h.field or g.field != actions.field:
            raise ShapeMismatch("mixed fields in LeibnizGRep")
        if actions.dim_g != g.dim or actions.dim_v != h.dim:
            raise ShapeMismatch("action tensors do not match algebra dimensions")
        self.g, self.h, self.actions, self.field = g, h, actions, g.field
        self._blocks = {}  # graded._block_map per (mu, lam)

    @cached_property
    def int_context(self):
        """(D, this context times D over ``ZZ``), built on first read."""
        g, h, act = self.g, self.h, self.actions
        den, (gc, hc, left, right) = over_ints(
            (g.c_nz, h.c_nz, act.left_nz, act.right_nz))
        return den, LeibnizGRep(
            LeibnizAlgebra(ZZ, g.dim, gc), LeibnizAlgebra(ZZ, h.dim, hc),
            ActionPair(ZZ, g.dim, h.dim, left, right))

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
    """Both actions given by the bracket of a itself, sharing its store."""
    return ActionPair(a.field, a.dim, a.dim, a.c_nz, a.c_nz)


def adjoint_grep(a):
    return LeibnizGRep(a, a, adjoint_pair(a))


def is_adjoint_grep(d):
    return d.g == d.h and d.actions.left_nz == d.g.c_nz == d.actions.right_nz


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


def _terms(terms, stores):
    """(sign, place, outer rows by contracted index, inner rows) per term.

    place maps (basis index, inner a, inner b) to the basis triple.
    """
    for sign, outer, inner, slots in terms:
        letters = slots.replace("(", "").replace(")", "")
        rows = stores[outer].by_second
        if slots[0] == "(":  # the inner row is the outer's left argument
            letters, rows = letters[2] + letters[:2], stores[outer].by_first
        yield (sign, itemgetter(*map(letters.index, "ijk")), rows,
               stores[inner].rows)


def _work(terms, stores):
    """The scalar multiply-adds ``_scatter`` makes for terms."""
    total = 0
    for _, _, rows, entries in _terms(terms, stores):
        weight = {m: sum(len(row) for _, row in r) for m, r in rows.items()}
        total += sum(weight.get(m, 0) for vec in entries.values() for m in vec)
    return total


def _scatter(terms, stores, zero):
    """{w: {k: raw sum}} of one law side on every basis triple it reaches."""
    side = {}
    for sign, place, rows, entries in _terms(terms, stores):
        for (a, b), vec in entries.items():
            for m, t in vec.items():
                t = t if sign > 0 else -t
                for p, row in rows.get(m, ()):
                    acc = side.setdefault(place((p, a, b)), {})
                    for k, s in row.items():
                        acc[k] = acc.get(k, zero) + t * s
    return side


def check_laws(rep, field, laws, stores):
    """Add to rep every violation of laws (``parse_laws``) on basis triples.

    stores maps the names in the laws to tensor stores.  Each side is
    scattered from their nonzero rows into raw sums per basis triple, so
    triples that no nonzero reaches cost nothing.  The multiply-adds of
    every law are counted from the row lengths first: past MAX_LAW_WORK,
    ResourceLimit names the law.  Violations come by triple in
    lexicographic order, then by law in table order.
    """
    zero = field.raw_zero
    for law, lhs, rhs in laws:
        work = _work(lhs + rhs, stores)
        if work > MAX_LAW_WORK:
            raise ResourceLimit("%s needs %d scalar multiply-adds, beyond the "
                                "limit %d" % (law, work, MAX_LAW_WORK))
    found = []
    for pos, (law, lhs, rhs) in enumerate(laws):
        n = max(stores[outer].dims[2] for _, outer, _, _ in lhs + rhs)
        sides = _scatter(lhs, stores, zero), _scatter(rhs, stores, zero)
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
                      {".": a.c_nz})


def validate_representation(g, actions):
    """Check the three representation axioms (2)-(4) on all basis triples."""
    if actions.dim_g != g.dim:
        raise ShapeMismatch("action tensor dim_g != algebra dim")
    return check_laws(ValidationReport("representation"), g.field,
                      REPRESENTATION_LAWS,
                      {".": g.c_nz, ">": actions.left_nz,
                       "<": actions.right_nz})


def validate_leibniz_g_rep(d):
    """Representation axioms plus the three coupling axioms (5)-(7)."""
    rep = ValidationReport("leibniz-g-rep")
    rep.violations.extend(validate_leibniz(d.g).violations)
    rep.violations.extend(validate_leibniz(d.h).violations)
    rep.violations.extend(validate_representation(d.g, d.actions).violations)
    return check_laws(rep, d.field, COUPLING_LAWS,
                      {".": d.h.c_nz, ">": d.actions.left_nz,
                       "<": d.actions.right_nz})


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
    """The store of mu ([x,y]_g + rho^L(x,v) + rho^R(u,y)) + lam [u,v]_h on
    g + h, offset block by block from the stores of d."""
    fld, ng, n = d.field, d.g.dim, d.g.dim + d.h.dim
    mu, lam = fld.to_raw([mu, lam])
    blocks = ((d.g.c_nz, 0, 0, 0, mu), (d.actions.left_nz, 0, ng, ng, mu),
              (d.actions.right_nz, ng, 0, ng, mu), (d.h.c_nz, ng, ng, ng, lam))
    return _Store(fld, (n, n, n), (
        ((i0 + i, j0 + j, k0 + k), s * x) for t, i0, j0, k0, s in blocks
        if s for (i, j, k), x in t.cells()))


def expands(src, dst, out, lft, rgt, n=0):
    """Order n of out(t) src(x, y) = dst(lft(t) x, rgt(t) y) on basis pairs.

    src and dst are stores, out, lft and rgt power series in t, lists of
    matrix coefficients.  The condition reads out_n src(e_i, e_j) =
    sum_{k<=n} dst(lft_k e_i, rgt_{n-k} e_j): two transported stores.
    """
    ident = [Matrix.identity(src.field, m)
             for m in src.dims[:2] + dst.dims[2:]]
    return transport([(src, ident[0], ident[1], out[n])]) == transport(
        [(dst, lft[k], rgt[n - k], ident[2]) for k in range(n + 1)])


def is_algebra_morphism(src, dst, phi):
    """phi: Matrix src -> dst with phi([x,y]) = [phi x, phi y]; a phi of the
    wrong shape raises ShapeMismatch (``transport``)."""
    return expands(src.c_nz, dst.c_nz, [phi], [phi], [phi])


def leibniz_differential(g, actions, f):
    """General Leibniz cochain differential, arity n >= 1, gathered from the
    stores: the second route for the assembled delta matrices.

    f is a MultiMap g^{x n} -> V, actions the (rho^L, rho^R) pair of g on V,
    all over one field, else WrongField.  Each output row sums the raw rows
    of f times the store rows left_nz.by_first[i] and right_nz.by_second[j],
    and f(.., [e_a, e_b], ..) for each nonzero row (a, b) of c_nz, one
    f.apply per distinct evaluation; only a nonzero row is stored.
    """
    if f.src_dim != g.dim or f.tgt_dim != actions.dim_v:
        raise ShapeMismatch("cochain does not match algebra/carrier dims")
    if actions.dim_g != g.dim:
        raise ShapeMismatch("actions do not match algebra dim")
    if not f.field == g.field == actions.field:
        raise WrongField("mixed fields in leibniz_differential")
    fld, n, nv, zero = g.field, f.arity, actions.dim_v, g.field.raw_zero
    left, right = actions.left_nz.by_first, actions.right_nz.by_second
    rows = {idx: fld.to_raw(row) for idx, row in f.nz.items()}
    brackets = {ab: fld.from_raw([row.get(k, zero) for k in range(g.dim)])
                for ab, row in g.c_nz.rows.items()}
    evals, out = {}, MultiMap(fld, n + 1, g.dim, nv)
    for idx in out.tuples():
        acc = [zero] * nv
        # rho^L(e_idx[p], f(..)), sign (-1)^p, for p < n; rho^R, (-1)^(n+1)
        for p in range(n + 1):
            frow = rows.get(idx[:p] + idx[p + 1:])
            pairs = (left if p < n else right).get(idx[p], ()) if frow else ()
            for a, row in pairs:
                x = -frow[a] if (p + (p == n)) % 2 else frow[a]
                if x:
                    for k, y in row.items():
                        acc[k] += x * y
        # f(.., [e_idx[p], e_idx[q]], ..), sign (-1)^(p+1), for p < q
        for q in range(1, n + 1):
            for p in range(q):
                key = idx[:p] + idx[p + 1:q], (idx[p], idx[q]), idx[q + 1:]
                val = evals.get(key) if key[1] in brackets else ()
                if val is None:
                    val = evals[key] = [(k, x) for k, x in enumerate(
                        fld.to_raw(f.apply(key[0] + (brackets[key[1]],)
                                           + key[2]))) if x]
                for k, x in val:
                    acc[k] += x if p % 2 else -x
        acc = fld.from_raw(acc)
        if any(acc):
            out.nz[idx] = tuple(acc)
    return out


def _pow_sign(field, k):
    """(-1)^k in the field."""
    return field.one if k % 2 == 0 else -field.one


def transport(terms):
    """The store of sum over terms (store, s, t, out) of (a, b) -> out
    T(s e_a, t e_b), T the tensor of store: the one kernel that moves
    structure tensors along linear maps.  Each nonzero cell ((i, j, k), x)
    meets only the nonzero raw entries s[i][a], t[j][b] and out[m][k]; x y
    and x y z are formed once per a and (a, b), a factor 1 (an identity
    slot) is skipped, and ``_Store`` sums and reduces the products.  A term
    whose (s.nrows, t.nrows, out.ncols) is not its store's dims raises
    ShapeMismatch, one with a matrix over another field than its store
    WrongField; the result takes its shape from the first term."""
    cells = []
    for store, s, t, out in terms:
        if (s.nrows, t.nrows, out.ncols) != store.dims:
            raise ShapeMismatch("transport matrices do not fit the tensor")
        other = {s.field, t.field, out.field} - {store.field}
        if other:
            raise WrongField("transport matrix over %r, tensor over %r"
                             % (other.pop(), store.field))
        cells += [((a, b, m), xyz if row[k] == 1 else xyz * row[k])
                  for (i, j, k), x in store.cells()
                  for a, y in enumerate(s.raw[i]) if y
                  for xy in (x if y == 1 else x * y,)
                  for b, z in enumerate(t.raw[j]) if z
                  for xyz in (xy if z == 1 else xy * z,)
                  for m, row in enumerate(out.raw) if row[k]]
    store, s, t, out = terms[0]
    return _Store(store.field, (s.ncols, t.ncols, out.nrows), cells)


def change_of_basis_algebra(a, s):
    """Structure constants of a in the basis e'_i = sum_j s[j][i] e_j."""
    return LeibnizAlgebra(a.field, a.dim,
                          transport([(a.c_nz, s, s, s.inverse())]))


def change_of_basis_grep(d, sg, sh):
    """Transport a LeibnizGRep along basis changes of g and h."""
    shi, act = sh.inverse(), d.actions
    return LeibnizGRep(change_of_basis_algebra(d.g, sg),
                       change_of_basis_algebra(d.h, sh),
                       ActionPair(d.field, d.g.dim, d.h.dim,
                                  transport([(act.left_nz, sg, sh, shi)]),
                                  transport([(act.right_nz, sh, sg, shi)])))
