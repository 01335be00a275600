"""Exact linear algebra: rref, rank, kernel, solve and span rank.

A ``Matrix`` is stored as dense rows, and once more as raw rows
(``Field.to_raw``) for the products, which accumulate raw values and
build at most one field element per result entry.  One fraction-free
elimination (Bareiss, Math. Comp. 1968) on sparse ``{column: int}`` rows
serves both fields: over Q each row is scaled by the lcm of its
denominators and each updated row is divided by its content gcd; over
GF(p) the rows are residues and each pivot row is scaled to a leading 1.
Columns are taken left to right; the pivot is the remaining row with the
fewest nonzeros (ties to the lowest index), only the rows holding that
column are updated, the back-substitution runs once at the end, and field
elements are built only for the returned rows.  The reduced row echelon
form is unique, so kernel bases, solutions and inverses do not depend on
the pivot choice.  ``solve`` reads both the particular solution and the
kernel off a single rref of [M | b].
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import NotInvertible, ShapeMismatch


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
    """Dense matrix over an exact field; immutable by convention."""

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
    def zeros(cls, field, nrows, ncols):
        return cls(field, [[field.zero] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def from_cols(cls, field, cols, nrows):
        return cls(field, [[col[i] for col in cols] for i in range(nrows)],
                   len(cols))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self.rows[i][j]

    def col(self, j):
        return [row[j] for row in self.rows]

    def mul_vec(self, v):
        if len(v) != self.ncols:
            raise ShapeMismatch("matrix %dx%d applied to vector of length %d"
                                % (self.nrows, self.ncols, len(v)))
        fld = self.field
        v = [(j, x) for j, x in enumerate(fld.to_raw(v)) if x]
        out = [fld.raw_zero] * self.nrows
        for i, row in enumerate(self.raw):
            for j, x in v:
                t = row[j]
                if t:
                    out[i] += t * x
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

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot_columns).

        The rows are the nonzero rows of the rref in pivot order followed
        by the zero rows, nrows in all.  Rows are eliminated as
        {column: int} dicts (``_int_row``); a pivot row keeps its pivot
        value, and field elements are built only for the returned rows.
        """
        fld, p = self.field, self.field.characteristic
        pending = [_int_row(raw, fld.raw_zero, p) for raw in self.raw]
        pending = [r for r in pending if r]
        done = []  # (pivot column, pivot row) in column order
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
        return len(self.rref()[1])

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


def _int_row(raw, zero, p):
    """A raw row as {column: int}: the residues over GF(p), or over Q the
    row times the lcm of its denominators."""
    # the shared zero is skipped by identity, before Fraction.__bool__
    row = {j: x for j, x in enumerate(raw) if x is not zero and x}
    if not p and row:
        d = lcm(*[x.denominator for x in row.values()])
        row = {j: x.numerator * (d // x.denominator) for j, x in row.items()}
    return row


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
    if not vectors:
        return 0
    return Matrix(field, vectors).rank()

