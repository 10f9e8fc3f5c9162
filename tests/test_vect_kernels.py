"""Differential tests: the integer kernels in ``syscat.vect`` against dense ``Fraction`` loops.

``oracles.dense_rref`` and ``oracles.dense_mat_mul`` are plain dense loops over
``Fraction``s. The kernels eliminate and multiply over the integers and build
``Fraction``s only for their results, so results must agree entry for entry
and every entry must be a ``Fraction``. Ranks and row spaces are refereed
independently by sympy. Entries range from small rationals to numerators of
10^30 over denominators of 10^12, so coefficient growth is exercised, and a
strategy of negative entries gives negative pivots.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from syscat import vect

import oracles

NONZERO = st.builds(
    Fraction,
    st.integers(-9, 9).filter(bool),
    st.integers(1, 6),
)
NEGATIVE = st.builds(Fraction, st.integers(-9, -1), st.integers(1, 6))
LARGE = st.builds(
    Fraction,
    st.integers(-10**30, 10**30).filter(bool),
    st.integers(1, 10**12),
)
INTEGER = st.builds(Fraction, st.integers(-9, 9).filter(bool))
ENTRIES = (NONZERO, NEGATIVE, LARGE)


@st.composite
def sparse_rows(draw, nrows=None, ncols=None, max_rows=12, max_cols=16, entries=None):
    """Sparse rational rows with zero rows, duplicate rows and non-unit pivots.

    The nonzero entries come from ``entries``, or else from one of ``ENTRIES``
    chosen per matrix.
    """
    if nrows is None:
        nrows = draw(st.integers(0, max_rows))
    if ncols is None:
        ncols = draw(st.integers(1, max_cols))
    if entries is None:
        entries = draw(st.sampled_from(ENTRIES))
    density = draw(st.floats(0.05, 0.6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "fresh", "fresh", "zero", "copy")))
        if kind == "zero":
            rows.append(tuple(Fraction(0) for _ in range(ncols)))
        elif kind == "copy" and rows:
            src = draw(st.sampled_from(rows))
            scale = draw(entries)
            rows.append(tuple(scale * x for x in src))
        else:
            rows.append(tuple(
                draw(entries) if draw(st.floats(0, 1)) < density else Fraction(0)
                for _ in range(ncols)
            ))
    return tuple(rows), ncols


def assert_identical(got, want):
    assert got == want
    for row in got:
        for x in row:
            assert type(x) is Fraction


@settings(deadline=None, max_examples=100)
@given(sparse_rows())
def test_rref_matches_dense_reference(m):
    rows, ncols = m
    got, pivots = vect.rref(rows, ncols)
    want, want_pivots = oracles.dense_rref(rows, ncols)
    assert_identical(got, want)
    assert pivots == want_pivots
    assert oracles.row_space_equal(got, rows, ncols)


@settings(deadline=None, max_examples=100)
@given(sparse_rows())
def test_rank_of_matches_dense_reference(m):
    rows, ncols = m
    rank = vect.rank_of(rows, ncols)
    assert rank == len(oracles.dense_rref(rows, ncols)[0])
    assert rank == oracles.rank(rows, ncols)


def test_negative_pivots_are_normalized():
    rows = ((Fraction(-2), Fraction(4), Fraction(0)), (Fraction(0), Fraction(-3, 5), Fraction(-6)))
    got, pivots = vect.rref(rows, 3)
    assert_identical(got, oracles.dense_rref(rows, 3)[0])
    assert got == ((1, 0, 20), (0, 1, 10)) and pivots == (0, 1)


@settings(deadline=None, max_examples=60)
@given(sparse_rows())
def test_kernel_basis_matches_dense_reference(m):
    rows, ncols = m
    got = vect.kernel_basis(rows, ncols)
    assert_identical(got, oracles.dense_kernel_basis(rows, ncols))
    assert len(got) == oracles.nullity(rows, ncols)


@st.composite
def linear_systems(draw):
    a_rows, ncols = draw(sparse_rows(max_rows=10, max_cols=10))
    bcols = draw(st.integers(1, 4))
    if draw(st.booleans()):
        # consistent: B = A @ X for a sparse X
        x_rows, _ = draw(sparse_rows(nrows=ncols, ncols=bcols))
        b_rows = oracles.dense_mat_mul(a_rows, x_rows, ncols)
    else:
        b_rows, _ = draw(sparse_rows(nrows=len(a_rows), ncols=bcols))
    return a_rows, ncols, b_rows, bcols


@settings(deadline=None, max_examples=80)
@given(linear_systems())
def test_solve_matrix_matches_dense_reference(system):
    a_rows, ncols, b_rows, bcols = system
    got = vect.solve_matrix(a_rows, ncols, b_rows, bcols)
    want = oracles.dense_solve_matrix(a_rows, ncols, b_rows, bcols)
    aug = [tuple(ar) + tuple(br) for ar, br in zip(a_rows, b_rows)]
    consistent = oracles.rank(a_rows, ncols) == oracles.rank(aug, ncols + bcols)
    if not consistent:
        assert got is None and want is None
        return
    assert_identical(got, want)
    assert oracles.dense_mat_mul(a_rows, got, ncols) == tuple(tuple(r) for r in b_rows)


def test_solve_matrix_consistent_and_inconsistent():
    a_rows = ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(2)), (Fraction(0), Fraction(-3)))
    b_rows = ((Fraction(1, 2),), (Fraction(1),), (Fraction(3),))
    assert_identical(vect.solve_matrix(a_rows, 2, b_rows, 1), ((Fraction(3, 4),), (Fraction(-1),)))
    b_rows = ((Fraction(1, 2),), (Fraction(2),), (Fraction(3),))
    assert vect.solve_matrix(a_rows, 2, b_rows, 1) is None


@st.composite
def matrix_pairs(draw):
    """A and B, both all-integer or each with its own mix of denominators."""
    inner = draw(st.integers(1, 12))
    entries = draw(st.sampled_from((INTEGER, None)))
    a_rows, _ = draw(sparse_rows(ncols=inner, entries=entries))
    b_rows, _ = draw(sparse_rows(nrows=inner, entries=entries))
    return a_rows, b_rows, inner


@settings(deadline=None, max_examples=100)
@given(matrix_pairs())
def test_mat_mul_matches_dense_reference(pair):
    a_rows, b_rows, inner = pair
    assert_identical(vect.mat_mul(a_rows, b_rows, inner), oracles.dense_mat_mul(a_rows, b_rows, inner))


def test_frac_passes_fractions_through():
    x = Fraction(3, 7)
    assert vect.frac(x) is x
    assert type(vect.frac(2)) is Fraction and vect.frac("1/2") == Fraction(1, 2)
