"""Reference elimination on sparse rows of field elements.

The rows are ``{column: value}`` dicts of ``Fraction`` or ``GFElement``
entries, and every update is field arithmetic.  ``Matrix.rref`` eliminates
on int rows instead; the tests compare the two.  Both use the same pivot
rule (columns left to right, the remaining row with the fewest nonzeros,
ties to the lowest row index) and one back-substitution at the end.
"""


def fraction_rref(m):
    """(rows, pivot_columns) of the rref of the Matrix m, on field rows."""
    fld = m.field
    pending = [r for r in ({c: x for c, x in enumerate(row) if x}
                           for row in m.rows) if r]
    done = []  # (pivot column, tail) in column order
    for c in range(m.ncols):
        if not pending:
            break
        holding = [r for r in pending if c in r]
        if not holding:
            continue
        # fewest nonzeros; min keeps the first, i.e. lowest, row
        prow = min(holding, key=len)
        inv = fld.one / prow.pop(c)
        tail = {j: inv * x for j, x in prow.items()}
        for r in holding:
            if r is not prow:
                _clear(r, c, tail)
        done.append((c, tail))
        pending = [r for r in pending if r and r is not prow]
    for k in reversed(range(len(done))):
        c, tail = done[k]
        for _, above in done[:k]:
            if c in above:
                _clear(above, c, tail)
    rows, pivots = [], []
    for c, tail in done:
        row = [fld.zero] * m.ncols
        row[c] = fld.one
        for j, x in tail.items():
            row[j] = x
        rows.append(row)
        pivots.append(c)
    rows.extend([fld.zero] * m.ncols for _ in range(m.nrows - len(done)))
    return rows, pivots


def _clear(row, c, tail):
    """row -= row[c] * (e_c + tail) on sparse rows; entries that cancel go."""
    f = row.pop(c)
    for j, y in tail.items():
        x = row.get(j)
        x = -(f * y) if x is None else x - f * y
        if x:
            row[j] = x
        else:
            del row[j]
