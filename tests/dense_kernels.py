"""The ``syscat.vect`` kernels behind a dense boundary.

The kernels take and return canonical sparse rows. These wrappers take dense
matrices of ``Fraction``s (or ints), convert them with ``vect.to_sparse``,
check that the kernel's result rows are canonical and convert them back with
``vect.to_dense``, so tests can compare them with the dense references in
``oracles`` entry for entry.
"""

from math import gcd

from syscat import vect


def canonical(rows):
    """rows, after checking that each (d, {col: n}) has d > 0, no zero n and gcd(d, *n) == 1."""
    for d, m in rows:
        assert d > 0 and all(m.values()) and gcd(d, *m.values()) == 1, (d, m)
    return rows


def rref(rows, ncols: int):
    reduced, pivots = vect.rref(vect.to_sparse(rows), ncols)
    return vect.to_dense(canonical(reduced), ncols), pivots


def rank_of(rows, ncols: int) -> int:
    return vect.rank_of(vect.to_sparse(rows), ncols)


def kernel_basis(rows, ncols: int):
    return vect.to_dense(canonical(vect.kernel_basis(vect.to_sparse(rows), ncols)), ncols)


def solve_matrix(a_rows, ncols: int, b_rows, bcols: int):
    sol = vect.solve_matrix(vect.to_sparse(a_rows), ncols, vect.to_sparse(b_rows))
    return None if sol is None else vect.to_dense(canonical(sol), bcols)


def mat_mul(a_rows, b_rows, inner: int):
    # inner >= 1, as for the dense reference
    product = vect.mat_mul(vect.to_sparse(a_rows), vect.to_sparse(b_rows[:inner]))
    return vect.to_dense(canonical(product), len(b_rows[0]))
