"""Independent linear-algebra oracles used to freeze expected values.

All rank/kernel/row-space assertions in the suite are double-checked through
sympy so they never depend on the code path under test.
"""

from fractions import Fraction

import sympy


def sym(rows, ncols):
    if not rows:
        return sympy.zeros(0, ncols)
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def rank(rows, ncols) -> int:
    return sym(rows, ncols).rank()


def nullity(rows, ncols) -> int:
    return ncols - rank(rows, ncols)


def row_space_equal(rows_a, rows_b, ncols) -> bool:
    a, b = sym(rows_a, ncols), sym(rows_b, ncols)
    ra, rb = a.rank(), b.rank()
    if ra != rb:
        return False
    stacked = sympy.Matrix.vstack(a, b) if a.rows and b.rows else (a if a.rows else b)
    return stacked.rank() == ra


def in_row_space(rows, vec, ncols) -> bool:
    target = sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in vec]])
    base = sym(rows, ncols)
    if base.rows == 0:
        return all(x == 0 for x in vec)
    return sympy.Matrix.vstack(base, target).rank() == base.rank()


# The dense exact kernels as they stood before zero-skipping, kept verbatim as
# the reference the sparse-aware ``syscat.vect`` kernels must match entry for
# entry.

def dense_rref(rows, ncols: int):
    """Reduced row-echelon form; returns the nonzero rows and pivot columns."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def dense_mat_mul(a_rows, b_rows, inner: int):
    # inner >= 1; callers special-case degenerate shapes.
    bt = list(zip(*b_rows))
    return tuple(
        tuple(sum((row[k] * col[k] for k in range(inner)), Fraction(0)) for col in bt)
        for row in a_rows
    )
