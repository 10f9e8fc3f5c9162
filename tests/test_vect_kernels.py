"""Differential tests: the zero-skipping kernels in ``syscat.vect`` against the dense ones.

``oracles.dense_rref`` and ``oracles.dense_mat_mul`` are the plain dense loops
the sparse-aware kernels replaced. Results must agree entry for entry, and the
row space of ``rref`` is refereed independently by sympy.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syscat import vect

import oracles

NONZERO = st.builds(
    Fraction,
    st.integers(-9, 9).filter(bool),
    st.integers(1, 6),
)


@st.composite
def sparse_rows(draw, nrows=None, ncols=None, max_rows=12, max_cols=16):
    """Sparse rational rows with zero rows, duplicate rows and non-unit pivots."""
    if nrows is None:
        nrows = draw(st.integers(0, max_rows))
    if ncols is None:
        ncols = draw(st.integers(1, max_cols))
    density = draw(st.floats(0.05, 0.6))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "fresh", "fresh", "zero", "copy")))
        if kind == "zero":
            rows.append(tuple(Fraction(0) for _ in range(ncols)))
        elif kind == "copy" and rows:
            src = draw(st.sampled_from(rows))
            scale = draw(NONZERO)
            rows.append(tuple(scale * x for x in src))
        else:
            rows.append(tuple(
                draw(NONZERO) if draw(st.floats(0, 1)) < density else Fraction(0)
                for _ in range(ncols)
            ))
    return tuple(rows), ncols


def assert_identical(got, want):
    assert got == want
    for row in got:
        for x in row:
            assert type(x) is Fraction


def with_dense_rref(fn, *args):
    """Run fn with the dense reference elimination in place of ``vect.rref``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vect, "rref", oracles.dense_rref)
        return fn(*args)


@settings(deadline=None, max_examples=100)
@given(sparse_rows())
def test_rref_matches_dense_reference(m):
    rows, ncols = m
    got, pivots = vect.rref(rows, ncols)
    want, want_pivots = oracles.dense_rref(rows, ncols)
    assert_identical(got, want)
    assert pivots == want_pivots
    assert oracles.row_space_equal(got, rows, ncols)


@settings(deadline=None, max_examples=60)
@given(sparse_rows())
def test_kernel_basis_matches_dense_reference(m):
    rows, ncols = m
    got = vect.kernel_basis(rows, ncols)
    assert_identical(got, with_dense_rref(vect.kernel_basis, rows, ncols))
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


@settings(deadline=None, max_examples=60)
@given(linear_systems())
def test_solve_matrix_matches_dense_reference(system):
    a_rows, ncols, b_rows, bcols = system
    got = vect.solve_matrix(a_rows, ncols, b_rows, bcols)
    want = with_dense_rref(vect.solve_matrix, a_rows, ncols, b_rows, bcols)
    if want is None:
        assert got is None
        return
    assert_identical(got, want)
    assert oracles.dense_mat_mul(a_rows, got, ncols) == tuple(tuple(r) for r in b_rows)


@st.composite
def matrix_pairs(draw):
    inner = draw(st.integers(1, 12))
    a_rows, _ = draw(sparse_rows(ncols=inner))
    b_rows, _ = draw(sparse_rows(nrows=inner))
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
