"""Sparse multilinear maps V^{x k} -> W indexed by basis tuples.

A :class:`MultiMap` of arity k on source dimension s and target
dimension t stores only its nonzero rows: ``nz`` maps a source basis
k-tuple to the tuple of its t target coefficients, and a tuple that is
absent has the zero row.  A zero row is never stored and rows are
immutable tuples, so ``==`` and ``hash`` compare the stores directly
and maps may share rows.  The dense view (``coeffs``, ``flatten``) lists
the rows in lexicographic tuple order.  These are the cochains and
graded Lie algebra elements of the whole library.
"""

from itertools import product

from .errors import ShapeMismatch
from .linalg import Matrix, zero_vec


class MultiMap:
    def __init__(self, field, arity, src_dim, tgt_dim, coeffs=None):
        if arity < 1:
            raise ShapeMismatch("MultiMap arity must be >= 1")
        self.field = field
        self.arity = arity
        self.src_dim = src_dim
        self.tgt_dim = tgt_dim
        self.nz = {}
        if coeffs is not None:
            if len(coeffs) != src_dim ** arity:
                raise ShapeMismatch("expected %d coefficient rows, got %d"
                                    % (src_dim ** arity, len(coeffs)))
            for idx, row in zip(self.tuples(), coeffs):
                self.set_(idx, row)

    @classmethod
    def from_matrix(cls, m):
        """View a tgt x src matrix as an arity-1 map."""
        return cls(m.field, 1, m.ncols, m.nrows, [m.col(a) for a in range(m.ncols)])

    def to_matrix(self):
        if self.arity != 1:
            raise ShapeMismatch("only arity-1 maps convert to matrices")
        cols = [self.get((a,)) for a in range(self.src_dim)]
        return Matrix.from_cols(self.field, cols, self.tgt_dim)

    def _like(self, nz):
        out = MultiMap(self.field, self.arity, self.src_dim, self.tgt_dim)
        out.nz = nz
        return out

    @property
    def coeffs(self):
        """Dense rows in lexicographic tuple order (fresh lists)."""
        return [self.get(idx) for idx in self.tuples()]

    def tuples(self):
        return product(range(self.src_dim), repeat=self.arity)

    def get(self, idx):
        row = self.nz.get(tuple(idx))
        return list(row) if row else zero_vec(self.field, self.tgt_dim)

    def set_(self, idx, vec):
        # construction-time helper; maps are treated as frozen afterwards
        idx, src = tuple(idx), range(self.src_dim)
        if len(idx) != self.arity or not all(a in src for a in idx):
            raise ShapeMismatch("index %r outside the map's source" % (idx,))
        row = tuple(self.field.coerce(x) for x in vec)
        if len(row) != self.tgt_dim:
            raise ShapeMismatch("coefficient row of wrong length")
        if any(row):
            self.nz[idx] = row
        else:
            self.nz.pop(idx, None)

    def apply(self, args):
        """Evaluate at a mixed argument list of basis indices in
        range(src_dim) and vectors of length src_dim, else ShapeMismatch:
        the int slots are written once into an index list, and each choice
        from the nonzero entries of the vector slots writes its indices."""
        if len(args) != self.arity:
            raise ShapeMismatch("arity %d map applied to %d arguments"
                                % (self.arity, len(args)))
        n = self.src_dim
        if any(not 0 <= a < n if isinstance(a, int) else len(a) != n
               for a in args):
            raise ShapeMismatch("argument outside the %d-dim source" % n)
        idx, out = list(args), zero_vec(self.field, self.tgt_dim)
        one, get = self.field.one, self.nz.get
        for choice in product(*[[(k, j, x) for j, x in enumerate(a) if x]
                                for k, a in enumerate(args)
                                if not isinstance(a, int)]):
            c = one  # the product of the chosen entries
            for k, j, x in choice:
                idx[k] = j
                c *= x
            row = get(tuple(idx))
            if row:
                for t, y in enumerate(row):
                    if y:
                        out[t] += c * y
        return out

    def same_shape(self, other):
        return (self.arity == other.arity and self.src_dim == other.src_dim
                and self.tgt_dim == other.tgt_dim)

    def __add__(self, other):
        if not self.same_shape(other):
            raise ShapeMismatch("MultiMap shape mismatch in addition")
        nz = dict(self.nz)
        for idx, row in other.nz.items():
            if idx in nz:
                row = tuple(x + y for x, y in zip(nz.pop(idx), row))
            if any(row):
                nz[idx] = row
        return self._like(nz)

    def __sub__(self, other):
        return self + other.scale(-self.field.one)

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return self._like({})
        if c == self.field.one:
            return self._like(dict(self.nz))
        if c == -self.field.one:
            return self._like({idx: tuple(-x for x in row)
                               for idx, row in self.nz.items()})
        return self._like({idx: tuple(c * x for x in row)
                           for idx, row in self.nz.items()})

    def is_zero(self):
        return not self.nz

    def __eq__(self, other):
        return (isinstance(other, MultiMap) and self.same_shape(other)
                and self.field == other.field and self.nz == other.nz)

    def __hash__(self):
        return hash((self.field, self.arity, self.src_dim, self.tgt_dim,
                     frozenset(self.nz.items())))

    def __repr__(self):
        return "MultiMap(arity=%d, src=%d, tgt=%d)" % (self.arity, self.src_dim,
                                                       self.tgt_dim)

    def flatten(self):
        """Lexicographic (source tuple, target index) coefficient vector."""
        out = []
        for idx in self.tuples():
            out.extend(self.nz.get(idx) or zero_vec(self.field, self.tgt_dim))
        return out

    @classmethod
    def from_flat(cls, field, arity, src_dim, tgt_dim, flat):
        size = src_dim ** arity
        if len(flat) != size * tgt_dim:
            raise ShapeMismatch("flat vector of wrong length")
        rows = [flat[i * tgt_dim:(i + 1) * tgt_dim] for i in range(size)]
        return cls(field, arity, src_dim, tgt_dim, rows)
