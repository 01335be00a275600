"""Dense exact linear algebra: rref, rank, kernel, solve and span rank.

Each question is answered by one elimination: ``solve`` reads both the
particular solution and the kernel off a single rref of [M | b].
Everything is deterministic.  Elimination always picks the first row
with a nonzero entry scanning columns left to right, so bases are
reproducible across runs and platforms.
"""

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

    def __init__(self, field, rows):
        self.field = field
        self.rows = [[field.coerce(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ShapeMismatch("ragged rows in matrix")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def from_cols(cls, field, cols, nrows):
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]
        return cls(field, rows) if cols else cls.zeros(field, nrows, 0)

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
        return [sum((row[j] * v[j] for j in range(self.ncols)), self.field.zero)
                for row in self.rows]

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ShapeMismatch("matmul shape mismatch")
            return Matrix(self.field,
                          [[sum((self.rows[i][k] * other.rows[k][j]
                                 for k in range(self.ncols)), self.field.zero)
                            for j in range(other.ncols)]
                           for i in range(self.nrows)])
        return NotImplemented

    def __add__(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("matrix addition shape mismatch")
        return Matrix(self.field, [vec_add(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("matrix subtraction shape mismatch")
        return Matrix(self.field, [vec_sub(a, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.field, [[-x for x in row] for row in self.rows])

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix(self.field, [vec_scale(c, row) for row in self.rows])

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return "Matrix(%r, %r)" % (self.field, self.rows)

    def is_zero(self):
        return all(vec_is_zero(row) for row in self.rows)

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot_columns)."""
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot_row = None
            for i in range(r, self.nrows):
                if rows[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = self.field.one / rows[r][c]
            rows[r] = [inv * x for x in rows[r]]
            for i in range(self.nrows):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return rows, pivots

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
        aug = Matrix(self.field, [row + [bx] for row, bx in zip(self.rows, b)])
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


def span_rank(field, vectors):
    if not vectors:
        return 0
    return Matrix(field, vectors).rank()

