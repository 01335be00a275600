"""Exact linear algebra: rref, rank, kernel, solve and span rank.

One class, ``Matrix``, keeps three row forms, each built from another on
first read: ``rows`` of field elements; ``raw`` rows (``Field.to_raw``)
for the products, which build at most one field element per result
entry; and ``{column: int}`` rows, ``ints``, for the elimination.
``__init__`` fills the first two, ``from_int_rows`` (each delta of
``cohomology``) the last.
One fraction-free elimination (Bareiss, Math. Comp. 1968) on the int rows
serves both fields: over Q the rows are scaled by the lcm of the
denominators and each updated row is divided by its content gcd; over
GF(p) the rows are residues and each pivot row is scaled to a leading 1.
Columns are taken left to right; the pivot is the remaining row with the
fewest nonzeros (ties to the lowest index), and only the rows holding
that column are updated.  ``rank`` counts pivots; ``rref`` back-
substitutes once and builds field elements only for the returned rows.
The reduced row echelon form is unique, so kernel bases, solutions and
inverses do not depend on the pivot choice.  ``solve`` reads the
particular solution and the kernel off one rref of [M | b].
"""

from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import NotInvertible, ShapeMismatch
from .fields import int_scale


def zero_vec(field, n):
    return [field.zero] * n


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def vec_scale(c, a):
    return [c * x for x in a]


def axpy(acc, c, v):
    """acc += c * v in place; zero entries of v are skipped."""
    for k, x in enumerate(v):
        if x:
            acc[k] = acc[k] + c * x


def vec_is_zero(v):
    return all(not x for x in v)


class Matrix:
    """Dense matrix over an exact field; immutable by convention.  Its row
    forms are ``cached_property``s, which a constructor may fill."""

    def __init__(self, field, rows, ncols=None):
        # ncols is needed only when there are no rows to read it from
        self.field = field
        self.rows = [[field.coerce(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if ncols is None:
            ncols = len(self.rows[0]) if self.rows else 0
        self.ncols = ncols
        for row in self.rows:
            if len(row) != self.ncols:
                raise ShapeMismatch("ragged rows in matrix")
        # the rows as the products read them (field.to_raw)
        self.raw = [field.to_raw(row) for row in self.rows]

    @classmethod
    def from_int_rows(cls, field, rows, ncols, den):
        """The matrix with entries a / den, a the nonzero ints of the sparse
        rows; over GF(p) they are reduced and zero residues dropped."""
        p, m = field.characteristic, cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.den = field, len(rows), ncols, den
        m.ints = [{j: a % p for j, a in row.items() if a % p}
                  for row in rows] if p else rows
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, [[field.zero] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def from_cols(cls, field, cols, nrows):
        if any(len(col) != nrows for col in cols):
            raise ShapeMismatch("a column's length is not nrows = %d" % nrows)
        return cls(field, [[col[i] for col in cols] for i in range(nrows)],
                   len(cols))

    @cached_property
    def rows(self):  # from ints: one field element per distinct int
        fld, zero = self.field, self.field.zero
        entry = {a: fld.coerce(a) / self.den
                 for a in {a for row in self.ints for a in row.values()}}
        return [[entry[row[j]] if j in row else zero
                 for j in range(self.ncols)] for row in self.ints]

    @cached_property
    def raw(self):
        return [self.field.to_raw(row) for row in self.rows]

    @cached_property
    def ints(self):  # the raw rows times one D from fields.int_scale
        nz = [[(j, x) for j, x in enumerate(raw) if x] for raw in self.raw]
        it = iter(int_scale(self.field, [x for row in nz for _, x in row])[1])
        return [{j: next(it) for j, _ in row} for row in nz]

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self.rows[i][j]

    def col(self, j):
        return [row[j] for row in self.rows]

    def raw_col(self, j):
        return [row[j] for row in self.raw]

    def mul_vec(self, v):
        if len(v) != self.ncols:
            raise ShapeMismatch("matrix %dx%d applied to vector of length %d"
                                % (self.nrows, self.ncols, len(v)))
        fld = self.field
        v = [(j, x) for j, x in enumerate(fld.to_raw(v)) if x]
        zero, out = fld.raw_zero, []
        for row in self.raw:
            acc = zero
            for j, x in v:
                t = row[j]
                if t:
                    acc += t * x
            out.append(acc)
        return fld.from_raw(out)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ShapeMismatch("matmul shape mismatch")
            fld = self.field
            zeros = [fld.raw_zero] * other.ncols
            rows = []
            for row in self.raw:
                acc = list(zeros)
                for a, brow in zip(row, other.raw):
                    if a:
                        for j, b in enumerate(brow):
                            if b:
                                acc[j] += a * b
                rows.append(fld.from_raw(acc))
            return Matrix(fld, rows, other.ncols)
        return NotImplemented

    def __add__(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("matrix addition shape mismatch")
        return Matrix(self.field, [vec_add(a, b) for a, b in zip(self.rows, other.rows)],
                      self.ncols)

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("matrix subtraction shape mismatch")
        return Matrix(self.field, [vec_sub(a, b) for a, b in zip(self.rows, other.rows)],
                      self.ncols)

    def __neg__(self):
        return Matrix(self.field, [[-x for x in row] for row in self.rows], self.ncols)

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix(self.field, [vec_scale(c, row) for row in self.rows], self.ncols)

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)], self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.shape == other.shape and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return "Matrix(%r, %r)" % (self.field, self.rows)

    def is_zero(self):
        return all(vec_is_zero(row) for row in self.rows)

    def _eliminate(self):
        """Forward elimination on copies of ``ints``: (pivot column, pivot
        row) pairs, pivots 1 over GF(p)."""
        p = self.field.characteristic
        pending = [dict(r) for r in self.ints if r]
        done = []
        for c in range(self.ncols):
            if not pending:
                break
            holding = [r for r in pending if c in r]
            if not holding:
                continue
            # fewest nonzeros; min keeps the first, i.e. lowest, row
            prow = min(holding, key=len)
            if p:  # a leading 1 over GF(p)
                inv = pow(prow[c], -1, p)
                for j, x in prow.items():
                    prow[j] = x * inv % p
            for r in holding:
                if r is not prow:
                    _clear(r, c, prow, p)
            done.append((c, prow))
            pending = [r for r in pending if r and r is not prow]
        return done

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot_columns).

        The rows are the nonzero rows of the rref in pivot order followed
        by the zero rows, nrows in all, built after one back-substitution
        on the int rows of ``_eliminate``.
        """
        fld, p, done = self.field, self.field.characteristic, self._eliminate()
        for k in reversed(range(len(done))):
            c, prow = done[k]
            for _, above in done[:k]:
                if c in above:
                    _clear(above, c, prow, p)
        rows = []
        for c, prow in done:
            pv, row = prow.pop(c), [fld.zero] * self.ncols
            row[c] = fld.one
            for j, x in zip(prow, fld.from_raw(
                    [Fraction(x, pv) for x in prow.values()] if not p
                    else prow.values())):
                row[j] = x
            rows.append(row)
        rows.extend([fld.zero] * self.ncols
                    for _ in range(self.nrows - len(done)))
        return rows, [c for c, _ in done]

    def rank(self):
        """The pivot count of the forward elimination; no rows are built."""
        return len(self._eliminate())

    def kernel_basis(self):
        """Null-space basis, one vector per free column in ascending order."""
        return self._kernel(*self.rref())

    def _kernel(self, rows, pivots):
        """Kernel basis read off an rref whose first ncols columns are rref(M)."""
        pivots = [c for c in pivots if c < self.ncols]
        basis = []
        for f in sorted(set(range(self.ncols)) - set(pivots)):
            v = zero_vec(self.field, self.ncols)
            v[f] = self.field.one
            for r, c in enumerate(pivots):
                v[c] = -rows[r][f]
            basis.append(v)
        return basis

    def solve(self, b):
        """Solve M x = b.  Returns (particular_or_None, kernel_basis).

        One rref of [M | b] answers both: its first ncols columns are
        rref(M).  The particular solution sets all free variables to zero.
        """
        if len(b) != self.nrows:
            raise ShapeMismatch("rhs length %d for %d equations" % (len(b), self.nrows))
        aug = Matrix(self.field, [row + [bx] for row, bx in zip(self.rows, b)],
                     self.ncols + 1)
        rows, pivots = aug.rref()
        kernel = self._kernel(rows, pivots)
        if self.ncols in pivots:
            return None, kernel
        x = zero_vec(self.field, self.ncols)
        for r, c in enumerate(pivots):
            x[c] = rows[r][self.ncols]
        return x, kernel

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self):
        if self.nrows != self.ncols:
            raise NotInvertible("non-square matrix")
        n = self.nrows
        aug = Matrix(self.field, [row + [self.field.one if i == j else self.field.zero
                                         for j in range(n)]
                                  for i, row in enumerate(self.rows)])
        rows, pivots = aug.rref()
        if pivots != list(range(n)):
            raise NotInvertible("singular matrix")
        return Matrix(self.field, [row[n:] for row in rows[:n]])


def _clear(row, c, prow, p):
    """row -= row[c] / prow[c] * prow exactly, on int rows; row[c] goes.

    Over GF(p) prow[c] = 1; over Q the row becomes pv row - f prow (pv, f =
    prow[c], row[c] over their gcd), divided by its content gcd."""
    f, pv = row[c], prow[c]
    g = gcd(f, pv)
    f, pv = f // g, pv // g
    if pv != 1:
        for j in row:
            row[j] *= pv
    for j, y in prow.items():
        x = row.get(j, 0) - f * y
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]
    g = 1 if p else gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def span_rank(field, vectors):
    return Matrix(field, vectors).rank()

