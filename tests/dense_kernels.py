"""The ``syscat.vect`` kernels and values behind a dense boundary.

``syscat.vect`` has one format, canonical sparse int rows ``(d, {col: n})``,
and builds its values with ``LinMap.from_rows`` and ``Subspace.from_rows``.
Tests write and read dense matrices of ``Fraction``s (or ints, or ``'p/q'``
strings) instead: ``to_sparse`` and ``to_dense`` convert between the two
forms, ``dense_map`` and ``dense_subspace`` build values from dense rows, and
``matrix_of``, ``basis_of``, ``column`` and ``contains`` read them back
as ``Fraction``s. The kernel wrappers at the end also check that each
result row is canonical, so tests can compare the kernels with the dense
references in ``oracles`` entry for entry.
"""

from fractions import Fraction
from math import gcd, lcm

from syscat import vect
from syscat.vect import LinMap, Subspace


def to_sparse(matrix):
    """The canonical rows of a dense matrix of ints, Fractions or 'p/q' strings.

    The lcm d of a row's denominators makes it primitive: the highest power
    of a prime in d divides some denominator exactly, and so not that entry's
    scaled numerator.
    """
    out = []
    for row in matrix:
        entries = {j: Fraction(x) for j, x in enumerate(row)}
        entries = {j: x for j, x in entries.items() if x}
        d = lcm(*(x.denominator for x in entries.values()))
        out.append((d, {j: x.numerator * (d // x.denominator) for j, x in entries.items()}))
    return tuple(out)


def to_dense(rows, ncols: int):
    """The dense matrix of rows over ncols columns, as tuples of Fractions."""
    return tuple(tuple(Fraction(m.get(j, 0), d) for j in range(ncols)) for d, m in rows)


def dense_map(dom, cod, matrix) -> LinMap:
    """The map with a dense matrix: cod.dim rows of dom.dim entries."""
    return LinMap.from_rows(dom, cod, to_sparse(matrix))


def dense_subspace(ambient, vectors) -> Subspace:
    """The span of dense vectors over ambient."""
    return Subspace.from_rows(ambient, to_sparse(vectors))


def matrix_of(f: LinMap):
    """f's dense matrix: cod.dim rows of dom.dim Fractions."""
    return to_dense(f.rows, f.dom.dim)


def basis_of(s: Subspace):
    """s's canonical basis as dense rows of Fractions."""
    return to_dense(s.rows, s.ambient.dim)


def column(f: LinMap, j: int):
    """The image of the j-th domain basis vector under f."""
    return tuple(row[j] for row in matrix_of(f))


def contains(s: Subspace, vec) -> bool:
    """Whether the dense vector vec lies in s."""
    return vect.rank_of(s.rows + to_sparse((vec,)), s.ambient.dim) == s.dim


def canonical(rows):
    """rows, after checking that each (d, {col: n}) has d > 0, no zero n and gcd(d, *n) == 1."""
    for d, m in rows:
        assert d > 0 and all(m.values()) and gcd(d, *m.values()) == 1, (d, m)
    return rows


def rref(rows, ncols: int):
    reduced, pivots = vect.rref(to_sparse(rows), ncols)
    return to_dense(canonical(reduced), ncols), pivots


def rank_of(rows, ncols: int) -> int:
    return vect.rank_of(to_sparse(rows), ncols)


def kernel_basis(rows, ncols: int):
    return to_dense(canonical(vect.kernel_basis(to_sparse(rows), ncols)), ncols)


def solve_matrix(a_rows, ncols: int, b_rows, bcols: int):
    sol = vect.solve_matrix(to_sparse(a_rows), ncols, to_sparse(b_rows))
    return None if sol is None else to_dense(canonical(sol), bcols)


def mat_mul(a_rows, b_rows, inner: int):
    # inner >= 1, as for the dense reference
    product = vect.mat_mul(to_sparse(a_rows), to_sparse(b_rows[:inner]))
    return to_dense(canonical(product), len(b_rows[0]))
