"""Differential tests: the sparse integer code in ``syscat.vect`` against dense ``Fraction`` loops.

``oracles.dense_rref`` and ``oracles.dense_mat_mul`` are plain dense loops over
``Fraction``s. The kernels eliminate and multiply sparse int rows; the
``dense_kernels`` wrappers convert at the test's boundary, so results must
agree entry for entry and every entry must be a ``Fraction``. The linear-map
constructions (``compose``, ``pullback``, ``equalizer``, ``image_factorize``,
``lift``, and ``carriers.pullback_map`` over two products) are checked the
same way through their dense matrices, ``dense_kernels.matrix_of``. Ranks,
row spaces and ``Subspace.intersect`` are refereed independently by sympy.
The structural shortcuts (unit and empty rows of A in ``mat_mul``,
single-entry columns in ``_transpose``, a unit row per domain coordinate in
``lift``, unit rows of min(dom, cod) distinct columns in ``classify``, disjoint
row supports in ``kernel_basis``, rows already in canonical RREF in
``Subspace``, the kept basis of an inclusion in ``image`` and ``classify``,
whose rows are built only when read) are drawn on purpose, together with
inputs that just miss each condition, and checked against the same
references. ``kernel_basis`` has one more: the vectors
back-substituted after its forward elimination skip the canonicalizing
pass when none has an entry left of its own free column; the
random rows here take both paths, and ``tests/test_circuits.py`` pins which
path compiled circuits take. Rows are shared between values, so a last test
checks that no kernel changes the rows it is given.
Entries range from small rationals to numerators of 10^30 over denominators
of 10^12, so coefficient growth is exercised, and a strategy of negative
entries gives negative pivots.
"""

import copy
from contextlib import nullcontext
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syscat import carriers, vect
from syscat.errors import MismatchError, NonInjectiveInclusion
from syscat.systems import System
from syscat.vect import LinMap, VectObj

import dense_kernels
from dense_kernels import basis_of, dense_map, dense_subspace, matrix_of, to_dense, to_sparse
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
    got, pivots = dense_kernels.rref(rows, ncols)
    want, want_pivots = oracles.dense_rref(rows, ncols)
    assert_identical(got, want)
    assert pivots == want_pivots
    assert oracles.row_space_equal(got, rows, ncols)


@settings(deadline=None, max_examples=100)
@given(sparse_rows())
def test_rank_of_matches_dense_reference(m):
    rows, ncols = m
    rank = dense_kernels.rank_of(rows, ncols)
    assert rank == len(oracles.dense_rref(rows, ncols)[0])
    assert rank == oracles.rank(rows, ncols)


@settings(deadline=None, max_examples=60)
@given(sparse_rows(), st.randoms(use_true_random=False))
def test_rank_of_ignores_row_order_and_scaling(m, rnd):
    # the min-degree pivot order depends on the rows' order; the count must not
    rows, ncols = m
    scales = [rnd.choice((-3, Fraction(1, 7), 5)) for _ in rows]
    scaled = [tuple(c * x for x in row) for c, row in zip(scales, rows)]
    rnd.shuffle(scaled)
    assert dense_kernels.rank_of(scaled, ncols) == dense_kernels.rank_of(rows, ncols)


M61 = 2**61 - 1  # a Mersenne prime


@st.composite
def rows_with_minors_divisible_by_m61(draw):
    """Rows whose maximal minors are all multiples of M61 or none are: a
    row of its multiples (up to 10^30 times), or a row a beside a + M61 b,
    among up to ncols - 2 rows of small ints and a few empty rows. A count
    that reduced entries modulo that prime would come out one low."""
    ncols = draw(st.integers(3, 8))
    small = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
    a, b = draw(small), draw(small)
    big = draw(st.integers(1, 10**30))
    if draw(st.booleans()):
        made = [[big * M61 * y for y in b]]
    else:
        made = [a, [x + big * M61 * y for x, y in zip(a, b)]]
    others = draw(st.lists(small, max_size=ncols - 2))
    zeros = [[0] * ncols] * draw(st.integers(0, 2))
    rows = tuple(tuple(map(Fraction, r)) for r in draw(st.permutations(made + others + zeros)))
    return rows, ncols


@settings(deadline=None, max_examples=60)
@given(rows_with_minors_divisible_by_m61())
def test_rank_of_is_exact_where_a_large_prime_divides_the_minors(m):
    rows, ncols = m
    assert dense_kernels.rank_of(rows, ncols) == oracles.rank(rows, ncols)


def test_rank_of_reads_only_the_int_part():
    # (q, {0: 1}) is 1/q: the denominator scales the row and drops out of the rank
    assert vect.rank_of(((M61, {0: 1}), (1, {1: M61})), 2) == 2
    assert vect.rank_of(((1, {0: 2}), (3, {0: 6})), 2) == 1
    assert vect.rank_of(((1, {}), (1, {})), 3) == 0
    assert vect.rank_of((), 4) == 0


def test_negative_pivots_are_normalized():
    rows = ((Fraction(-2), Fraction(4), Fraction(0)), (Fraction(0), Fraction(-3, 5), Fraction(-6)))
    got, pivots = dense_kernels.rref(rows, 3)
    assert_identical(got, oracles.dense_rref(rows, 3)[0])
    assert got == ((1, 0, 20), (0, 1, 10)) and pivots == (0, 1)


def _min_degree_model(m, cols):
    """The min-degree order, written plainly over int rows m: each step pivots
    on an allowed column held by the fewest live (not yet pivoted) rows, ties
    to the highest column, in the shortest live row holding it, ties to the
    lowest index. That row is made primitive with a positive pivot p and
    clears the column from the other live rows as (p/g)*row - (f/g)*prow,
    g = gcd(p, f), a scaled row then divided by its gcd. Returns the steps,
    the final rows, and how many live rows held each step's column."""
    m, live = [dict(row) for row in m], set(range(len(m)))
    steps, held = [], []
    while True:
        where = {c: [i for i in sorted(live) if c in m[i]] for c in cols}
        where = {c: rs for c, rs in where.items() if rs}
        if not where:
            return steps, m, held
        c = min(where, key=lambda j: (len(where[j]), -j))
        r = min(where[c], key=lambda i: (len(m[i]), i))
        g = gcd(*m[r].values()) if m[r][c] > 0 else -gcd(*m[r].values())
        prow = m[r] = {j: x // g for j, x in m[r].items()}
        live.remove(r)
        for i in where[c]:
            if i != r:
                g = gcd(prow[c], m[i][c])
                a, b = prow[c] // g, m[i][c] // g
                row = {j: a * m[i].get(j, 0) - b * prow.get(j, 0) for j in m[i].keys() | prow.keys()}
                g = gcd(*row.values()) if a != 1 else 1
                m[i] = {j: x // g for j, x in row.items() if x}
        steps.append((r, c))
        held.append(len(where[c]))


@st.composite
def singleton_cascades(draw):
    """Int rows whose every min-degree step finds its column in one live row,
    as in a ladder: the edges of a random forest over the columns, two
    entries each, and some single-entry rows, in random order."""
    ncols = draw(st.integers(1, 16))
    entry = st.integers(-9, 9).filter(bool)
    rows = [{j: draw(entry)} for j in draw(st.sets(st.integers(0, ncols - 1), max_size=3))]
    for j in range(1, ncols):
        if draw(st.booleans()):
            rows.append({draw(st.integers(0, j - 1)): draw(entry), j: draw(entry)})
    # a single-entry row at a column an edge also holds puts two rows there
    rows = [r for r in rows if len(r) == 2 or sum(next(iter(r)) in q for q in rows) == 1]
    return draw(st.permutations(rows)), ncols


@st.composite
def eliminations(draw):
    """Int rows and the columns allowed to pivot (all of them, or some), and
    whether every step must be a singleton."""
    cascade = draw(st.booleans())
    if cascade:
        m, ncols = draw(singleton_cascades())
    else:
        dense, ncols = draw(sparse_rows())
        m = vect._ints(to_sparse(dense))
    cols = range(ncols) if draw(st.booleans()) else draw(st.sets(st.integers(0, ncols - 1)))
    return m, ncols, cols, cascade


@settings(deadline=None, max_examples=300)
@given(eliminations())
def test_min_degree_elimination_follows_its_order(case):
    m, ncols, cols, cascade = case
    want, rows, held = _min_degree_model(m, cols)
    got = vect._eliminate_forward(m, cols)
    assert got == want and m == rows
    # a pivot row of one entry ends as the unit row of its column
    assert all(m[r] == {c: 1} for r, c in got if len(m[r]) == 1)
    if cascade and set(cols) == set(range(ncols)):
        assert held == [1] * len(got)


# the shape of a pullback of coordinate maps: few rows, many columns
WIDE = st.integers(1, 2).flatmap(lambda n: sparse_rows(nrows=n, max_cols=40))


@settings(deadline=None, max_examples=60)
@given(sparse_rows() | WIDE)
def test_kernel_basis_matches_dense_reference(m):
    rows, ncols = m
    got = dense_kernels.kernel_basis(rows, ncols)
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
    got = dense_kernels.solve_matrix(a_rows, ncols, b_rows, bcols)
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
    assert_identical(dense_kernels.solve_matrix(a_rows, 2, b_rows, 1), ((Fraction(3, 4),), (Fraction(-1),)))
    b_rows = ((Fraction(1, 2),), (Fraction(2),), (Fraction(3),))
    assert dense_kernels.solve_matrix(a_rows, 2, b_rows, 1) is None


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
    assert_identical(dense_kernels.mat_mul(a_rows, b_rows, inner), oracles.dense_mat_mul(a_rows, b_rows, inner))


@st.composite
def selecting_products(draw):
    """Sparse A and canonical B for ``mat_mul``: A mixes unit rows, empty rows
    and rows that just miss being a unit row, B has rational or large entries.

    The near misses are ``(1, {k: 2})``, ``(1, {k: -1})``, ``(2, {k: 1})``, the
    unit value over a common factor ``(3, {k: 3})``, an empty row over a
    denominator and rows with two entries, so each falls to the general path.
    """
    inner = draw(st.integers(1, 8))
    b_dense, ncols = draw(sparse_rows(nrows=inner, entries=draw(st.sampled_from((NONZERO, LARGE)))))
    cols = st.integers(0, inner - 1)
    kinds = {
        "unit": lambda k: (1, {k: 1}),
        "zero": lambda k: (1, {}),
        "zero over 5": lambda k: (5, {}),
        "double": lambda k: (1, {k: 2}),
        "negated": lambda k: (1, {k: -1}),
        "halved": lambda k: (2, {k: 1}),
        "unit over 3": lambda k: (3, {k: 3}),
    }
    if inner > 1:
        kinds["pair"] = lambda k: (
            draw(st.integers(1, 4)), {k: 1, (k + 1) % inner: draw(st.integers(-3, 3).filter(bool))}
        )
    a_rows = [
        kinds[draw(st.sampled_from(sorted(kinds) + ["unit", "unit"]))](draw(cols))
        for _ in range(draw(st.integers(0, 10)))
    ]
    return tuple(a_rows), to_sparse(b_dense), inner, ncols


@settings(deadline=None, max_examples=200)
@given(selecting_products())
def test_mat_mul_selects_unit_rows_and_matches_dense_reference(case):
    a_rows, b_rows, inner, ncols = case
    got = vect.mat_mul(a_rows, b_rows)
    dense_kernels.canonical(got)
    want = oracles.dense_mat_mul(to_dense(a_rows, inner), to_dense(b_rows, ncols), inner)
    assert got == to_sparse(want)
    for (d, a), row in zip(a_rows, got):
        if d == 1 and list(a.values()) == [1]:
            assert row is b_rows[next(iter(a))]


# pairwise coprime denominators of 127 to 381 bits, as in the bases of large glues
BIG_DENOMINATORS = (2**127 - 1, 3**160, 5**110 * 7, 11**90, 13**100 * 17**3)


@st.composite
def mixed_denominator_products(draw):
    """Dense A and B where each row of B has its own large denominator, or a
    product of a few, and each row of A reads only some rows of B."""
    inner, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    dens = st.lists(st.sampled_from(BIG_DENOMINATORS), min_size=1, max_size=3)
    b = []
    for _ in range(inner):
        d = 1
        for q in draw(dens):
            d *= q
        b.append([Fraction(draw(st.integers(-10**40, 10**40)), d) if draw(st.booleans()) else Fraction(0)
                  for _ in range(ncols)])
    a = [[draw(st.sampled_from((Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(5, 2**61 - 1))))
          for _ in range(inner)] for _ in range(draw(st.integers(0, 6)))]
    return a, b, inner


@settings(deadline=None, max_examples=150)
@given(mixed_denominator_products())
def test_mat_mul_matches_dense_reference_on_mixed_large_denominators(case):
    # each result row is scaled by the lcm of only the rows of B it reads, and
    # still comes back canonical and equal to the dense product
    a, b, inner = case
    got = vect.mat_mul(to_sparse(a), to_sparse(b))
    dense_kernels.canonical(got)
    assert got == to_sparse(oracles.dense_mat_mul(a, b, inner))


def test_mat_mul_returns_the_selected_row_itself():
    rows = ((1, {0: 1}), (3, {0: 2, 2: -1}))
    assert vect.mat_mul(((1, {1: 1}),), rows)[0] is rows[1]
    assert vect.mat_mul(((1, {}), (2, {1: 2})), rows) == ((1, {}), (3, {0: 2, 2: -1}))


@settings(deadline=None, max_examples=150)
@given(sparse_rows())
def test_transpose_matches_dense_reference(m):
    # sparse random rows leave many columns with one entry, whose numerator
    # often shares a factor with its row's denominator
    rows, ncols = m
    got = vect._transpose(to_sparse(rows), ncols)
    dense_kernels.canonical(got)
    assert got == to_sparse(_columns(rows, ncols))


def test_transpose_reduces_a_single_entry_column():
    # 2/4 alone in column 0 reduces to 1/2; column 1 keeps 1/4 beside 1/6
    rows = ((1, {}), (4, {0: 2, 1: 1}), (6, {1: 1}))
    assert vect._transpose(rows, 3) == ((2, {1: 1}), (12, {1: 3, 2: 2}), (1, {}))


# -- linear maps against dense references ------------------------------------------

def _space(prefix, n):
    return VectObj(tuple(f"{prefix}{i}" for i in range(n)))


DIMS = st.integers(0, 6)


@st.composite
def linmaps(draw, dom, cod):
    rows, _ = draw(sparse_rows(nrows=cod.dim, ncols=dom.dim))
    return dense_map(dom, cod, rows)


def assert_map(f, want):
    """f's rows are canonical and its dense matrix is want, entry for entry."""
    dense_kernels.canonical(f.rows)
    assert_identical(matrix_of(f), want)


def _columns(rows, ncols):
    return tuple(tuple(row[j] for row in rows) for j in range(ncols))


def _dense_product(a_rows, b_rows, ncols):
    if not b_rows:
        return tuple((Fraction(0),) * ncols for _ in a_rows)
    return oracles.dense_mat_mul(a_rows, b_rows, len(b_rows))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_compose_matches_dense_reference(data):
    x, y, z = (_space(p, data.draw(DIMS)) for p in "xyz")
    f, g = data.draw(linmaps(x, y)), data.draw(linmaps(y, z))
    want = _dense_product(matrix_of(g), matrix_of(f), x.dim)
    got = vect.compose(g, f)
    assert_map(got, want)
    assert got == dense_map(x, z, want)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_pullback_matches_dense_reference(data):
    x1, x2, z = _space("a", data.draw(DIMS)), _space("b", data.draw(DIMS)), _space("z", data.draw(DIMS))
    f1, f2 = data.draw(linmaps(x1, z)), data.draw(linmaps(x2, z))
    stacked = [r1 + tuple(-v for v in r2) for r1, r2 in zip(matrix_of(f1), matrix_of(f2))]
    basis = oracles.dense_kernel_basis(stacked, x1.dim + x2.dim)
    k, p1, p2 = vect.pullback(f1, f2)
    assert k.dim == len(basis)
    assert_map(p1, _columns(tuple(b[:x1.dim] for b in basis), x1.dim))
    assert_map(p2, _columns(tuple(b[x1.dim:] for b in basis), x2.dim))


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_equalizer_matches_dense_reference(data):
    x, z = _space("x", data.draw(DIMS)), _space("z", data.draw(DIMS))
    f = data.draw(linmaps(x, z))
    g = data.draw(st.one_of(linmaps(x, z), st.just(f)))
    diff = [tuple(a - b for a, b in zip(rf, rg)) for rf, rg in zip(matrix_of(f), matrix_of(g))]
    basis = oracles.dense_kernel_basis(diff, x.dim)
    k, arrow = vect.equalizer(f, g)
    assert k.dim == len(basis)
    assert_map(arrow, _columns(basis, x.dim))


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_image_factorize_matches_dense_reference(data):
    x, z = _space("x", data.draw(DIMS)), _space("z", data.draw(DIMS))
    f = data.draw(linmaps(x, z))
    basis, pivots = oracles.dense_rref(_columns(matrix_of(f), x.dim), z.dim)
    surj, inj = vect.image_factorize(f)
    assert_map(inj, _columns(basis, z.dim))
    assert_map(surj, tuple(matrix_of(f)[p] for p in pivots))
    assert vect.compose(inj, surj) == f


@st.composite
def invertible(draw, space):
    """A random invertible map space -> space: L @ U with L unit lower
    triangular and U upper triangular with a nonzero diagonal."""
    n = space.dim
    lower = [[Fraction(int(i == j)) if j >= i else draw(NONZERO | st.just(Fraction(0)))
              for j in range(n)] for i in range(n)]
    upper = [[draw(NONZERO) if j == i else draw(NONZERO | st.just(Fraction(0))) if j > i
              else Fraction(0) for j in range(n)] for i in range(n)]
    return dense_map(space, space, _dense_product(lower, upper, n))


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_lift_matches_dense_reference(data):
    # jointly mono families: pullback projections, an equalizer's arrow (both
    # hold a unit row per coordinate), or an arrow composed with an invertible
    # map, which in general holds none and takes the general solve
    x1, x2, z = _space("a", data.draw(DIMS)), _space("b", data.draw(DIMS)), _space("z", data.draw(DIMS))
    f1 = data.draw(linmaps(x1, z))
    family = data.draw(st.sampled_from(("pullback", "equalizer", "mixed")))
    if family == "pullback":
        _, p1, p2 = vect.pullback(f1, data.draw(linmaps(x2, z)))
        ms = (p1, p2)
    else:
        ms = (vect.equalizer(f1, data.draw(linmaps(x1, z)))[1],)
        if family == "mixed":
            ms = (vect.compose(ms[0], data.draw(invertible(ms[0].dom))),)
    dom, apex = ms[0].dom, _space("h", data.draw(st.integers(0, 4)))
    if data.draw(st.booleans()):
        u0 = data.draw(linmaps(apex, dom))
        fs = tuple(vect.compose(m, u0) for m in ms)
    else:
        fs = tuple(data.draw(linmaps(apex, m.cod)) for m in ms)
    a = [row for m in ms for row in matrix_of(m)]
    b = [row for f in fs for row in matrix_of(f)]
    want = oracles.dense_solve_matrix(a, dom.dim, b, apex.dim)
    got = vect.lift(ms, fs)
    if want is None:
        assert got is None
    else:
        assert_map(got, want)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_product_map_matches_dense_reference(data):
    x1, y1, x2, y2 = (_space(p, data.draw(DIMS)) for p in ("a", "b", "c", "d"))
    f, g = data.draw(linmaps(x1, y1)), data.draw(linmaps(x2, y2))
    want = tuple(row + (Fraction(0),) * x2.dim for row in matrix_of(f)) + tuple(
        (Fraction(0),) * x1.dim + row for row in matrix_of(g)
    )
    got = carriers.pullback_map(carriers.product(x1, x2), carriers.product(y1, y2), f, g)
    assert_map(got, want)
    assert got == dense_map(got.dom, got.cod, want)



# -- structural shortcuts ----------------------------------------------------------

def _forbidden(name):
    """A patch making vect.<name> fail the test if the code under test calls it."""
    return mock.patch.object(vect, name, side_effect=AssertionError(f"{name} was called"))


def _unit_columns(rows, n):
    """The j < n whose unit vector e_j is one of the dense rows over n columns."""
    present = set(map(tuple, rows))
    return {j for j in range(n) if tuple(Fraction(int(i == j)) for i in range(n)) in present}


@st.composite
def coordinate_maps(draw, dom, cod):
    """A coordinate map dom -> cod: some domain variables, at times two onto
    one codomain variable; unassigned codomain variables are zero rows."""
    if not cod.dim or not dom.dim:
        return vect.coordinate_map(dom, cod, {})
    names = draw(st.lists(st.sampled_from(dom.vars), unique=True))
    return vect.coordinate_map(dom, cod, {n: draw(st.sampled_from(cod.vars)) for n in names})


@st.composite
def coordinate_cones(draw):
    """A family ms out of one space, a cone fs over it, and whether ms are
    pullback projections.

    The family is coordinate maps, or the projections of a pullback of
    coordinate maps (over an empty shared block at times). The cone factors
    through the family, is such a cone with one entry moved, or is random.
    """
    projections = draw(st.booleans())
    if projections:
        x1, x2, z = _space("a", draw(DIMS)), _space("b", draw(DIMS)), _space("z", draw(DIMS))
        _, p1, p2 = vect.pullback(draw(coordinate_maps(x1, z)), draw(coordinate_maps(x2, z)))
        ms = (p1, p2)
    else:
        dom = _space("x", draw(DIMS))
        ms = tuple(
            draw(coordinate_maps(dom, _space(f"y{t}_", draw(DIMS))))
            for t in range(draw(st.integers(1, 3)))
        )
    dom, apex = ms[0].dom, _space("h", draw(st.integers(0, 3)))
    how = draw(st.sampled_from(("factors", "moved", "random")))
    if how == "random":
        return ms, tuple(draw(linmaps(apex, m.cod)) for m in ms), projections
    u0 = draw(linmaps(apex, dom))
    fs = [[list(row) for row in matrix_of(vect.compose(m, u0))] for m in ms]
    targets = [t for t, m in enumerate(ms) if m.cod.dim]
    if how == "moved" and apex.dim and targets:
        t = draw(st.sampled_from(targets))
        i, j = draw(st.integers(0, ms[t].cod.dim - 1)), draw(st.integers(0, apex.dim - 1))
        fs[t][i][j] += draw(NONZERO)
    return ms, tuple(dense_map(apex, m.cod, f) for m, f in zip(ms, fs)), projections


@settings(deadline=None, max_examples=200)
@given(coordinate_cones())
def test_lift_of_coordinate_families_matches_dense_reference(cone):
    ms, fs, projections = cone
    dom, apex = ms[0].dom, fs[0].dom
    a = [row for m in ms for row in matrix_of(m)]
    b = [row for f in fs for row in matrix_of(f)]
    want = oracles.dense_solve_matrix(a, dom.dim, b, apex.dim)
    covered = len(_unit_columns(a, dom.dim)) == dom.dim
    # pullback projections of coordinate maps always hold a unit row per coordinate
    assert covered or not projections
    with _forbidden("solve_matrix") if covered else nullcontext():
        got = vect.lift(ms, fs)
    if want is None:
        assert got is None
    else:
        assert_map(got, want)


@st.composite
def disjoint_rows(draw):
    """Rows no two of which share a column, zero rows among them, and columns
    in no row; entries negative, large or rational."""
    ncols = draw(st.integers(1, 16))
    entries = draw(st.sampled_from(ENTRIES))
    order = draw(st.permutations(range(ncols)))
    used = order[: draw(st.integers(0, ncols))]
    rows = []
    while used:
        k = draw(st.integers(1, 4))
        support, used = used[:k], used[k:]
        rows.append(tuple(draw(entries) if j in support else Fraction(0) for j in range(ncols)))
    rows += [(Fraction(0),) * ncols] * draw(st.integers(0, 2))
    return tuple(draw(st.permutations(rows))), ncols


@settings(deadline=None, max_examples=200)
@given(disjoint_rows())
def test_kernel_of_disjoint_rows_matches_dense_reference(m):
    rows, ncols = m
    with _forbidden("_eliminate_forward"):
        got = dense_kernels.kernel_basis(rows, ncols)
    assert_identical(got, oracles.dense_kernel_basis(rows, ncols))
    assert len(got) == oracles.nullity(rows, ncols)


@st.composite
def near_rref(draw):
    """Sparse rows equal to the canonical RREF of random rows, or that RREF
    with one defect: a row scaled, one row added into another, two rows
    swapped, or a zero row appended. Returns the rows, ncols and the defect."""
    dense, ncols = draw(sparse_rows())
    rows = list(vect.rref(to_sparse(dense), ncols)[0])
    defects = ["none", "zero"]
    if rows:
        defects += ["scaled", "rescaled"]
    if len(rows) > 1:
        defects += ["touched", "swapped"]
    defect = draw(st.sampled_from(defects))
    if defect == "zero":
        rows.insert(draw(st.integers(0, len(rows))), (1, {}))
    elif defect in ("scaled", "rescaled"):
        # scaled: the same canonical row over a common factor, so not primitive;
        # rescaled: a canonical row with a pivot entry other than 1
        i, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(2, 9))
        d, r = rows[i]
        rows[i] = (d * k, {j: x * k for j, x in r.items()}) if defect == "scaled" else vect._canon(
            d, {j: x * k for j, x in r.items()}
        )
    elif defect == "touched":
        i, j = draw(st.permutations(range(len(rows))))[:2]
        rows[i] = to_sparse([
            tuple(x + y for x, y in zip(*to_dense((rows[i], rows[j]), ncols)))
        ])[0]
    elif defect == "swapped":
        i, j = draw(st.permutations(range(len(rows))))[:2]
        rows[i], rows[j] = rows[j], rows[i]
    return tuple(rows), ncols, defect


@settings(deadline=None, max_examples=200)
@given(near_rref())
def test_subspace_keeps_exactly_canonical_rref_rows(m):
    rows, ncols, defect = m
    ambient = _space("x", ncols)
    want, _ = oracles.dense_rref(to_dense(rows, ncols), ncols)
    with _forbidden("rref") if defect == "none" else nullcontext():
        sub = vect.Subspace.from_rows(ambient, rows)
    # sparse rows compare their scale too, which the dense view would hide
    assert sub.rows == to_sparse(want)
    dense_kernels.canonical(sub.rows)


@st.composite
def subspace_pairs(draw):
    """Two subspaces of one ambient space of dim 0-6, each the zero space, the
    full space or the span of sparse rows; the second may also span rows of
    the first, so that the two meet."""
    n = draw(DIMS)
    ambient = _space("x", n)

    def subspace(shared=()):
        kind = draw(st.sampled_from(("zero", "full", "rows", "rows")))
        if kind == "zero":
            return dense_subspace(ambient, ())
        if kind == "full":
            return dense_subspace(ambient, [[int(i == j) for j in range(n)] for i in range(n)])
        rows, _ = draw(sparse_rows(ncols=n, max_rows=6))
        return dense_subspace(ambient, rows + shared)

    a = subspace()
    shared = tuple(draw(st.lists(st.sampled_from(basis_of(a)), max_size=2))) if basis_of(a) else ()
    return a, subspace(shared)


@settings(deadline=None, max_examples=200)
@given(subspace_pairs())
def test_intersect_matches_sympy(pair):
    a, b = pair
    want = oracles.intersection(basis_of(a), basis_of(b), a.ambient.dim)
    for meet in (a & b, b & a):
        dense_kernels.canonical(meet.rows)
        assert_identical(basis_of(meet), want)


@st.composite
def classified_maps(draw):
    """Maps with and without a unit row per domain or codomain coordinate:
    random maps, coordinate maps, equalizer arrows, projections onto some
    coordinates, and those with rows appended."""
    x, z = _space("x", draw(DIMS)), _space("z", draw(DIMS))
    kind = draw(st.sampled_from(("random", "coordinate", "arrow", "projection")))
    if kind == "random":
        f = draw(linmaps(x, z))
    elif kind == "coordinate":
        f = draw(coordinate_maps(x, z))
    elif kind == "arrow":
        f = vect.equalizer(draw(linmaps(x, z)), draw(linmaps(x, z)))[1]
    else:
        names = draw(st.permutations(x.vars))
        f = vect.projection_onto(x, names[: draw(st.integers(0, x.dim))])
    if draw(st.booleans()):
        extra = draw(linmaps(f.dom, _space("e", draw(st.integers(1, 3)))))
        f = LinMap.from_rows(f.dom, _space("w", f.cod.dim + extra.cod.dim), f.rows + extra.rows)
    return f


@settings(deadline=None, max_examples=150)
@given(classified_maps())
def test_classify_matches_rank(f):
    r = oracles.rank(matrix_of(f), f.dom.dim)
    # unit rows of distinct columns give the rank when they number min(dom, cod)
    settled = len(_unit_columns(matrix_of(f), f.dom.dim)) == min(f.dom.dim, f.cod.dim)
    with _forbidden("rank_of") if settled else nullcontext():
        assert vect.classify(f) == (r == f.dom.dim, r == f.cod.dim)


@st.composite
def inclusions(draw):
    """Maps built by transposing a canonical basis: equalizer arrows,
    subobject inclusions and ``image_factorize`` injections."""
    x, z = _space("x", draw(DIMS)), _space("z", draw(DIMS))
    kind = draw(st.sampled_from(("equalizer", "subobject", "image")))
    if kind == "equalizer":
        return vect.equalizer(draw(linmaps(x, z)), draw(linmaps(x, z)))[1]
    if kind == "subobject":
        rows, _ = draw(sparse_rows(ncols=z.dim))
        return vect.subobject_map(z, dense_subspace(z, rows))
    return vect.image_factorize(draw(linmaps(x, z)))[1]


def _image_reference(f):
    basis, _ = oracles.dense_rref(_columns(matrix_of(f), f.dom.dim), f.cod.dim)
    return basis


@settings(deadline=None, max_examples=150)
@given(inclusions())
def test_image_of_an_inclusion_reuses_its_basis(f):
    want = vect.Subspace.from_rows(f.cod, vect._transpose(f.rows, f.dom.dim))
    with mock.patch.object(vect, "_transpose", wraps=vect._transpose) as transpose:
        got = vect.image(f)
    assert transpose.call_count == 0
    assert got == want
    assert_identical(basis_of(got), _image_reference(f))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_image_of_other_maps_matches_dense_reference(data):
    x, z = _space("x", data.draw(DIMS)), _space("z", data.draw(DIMS))
    f = data.draw(linmaps(x, z))
    inc = data.draw(inclusions())
    g = vect.compose(inc, data.draw(linmaps(x, inc.dom)))
    for h in (f, g):
        assert_identical(basis_of(vect.image(h)), _image_reference(h))


@st.composite
def canonical_bases(draw):
    """(dom, cod, basis): basis the canonical rows of a random matrix's row
    space, of no rows, or of all of cod (a random invertible matrix's), with
    cod of dimension 0 to 6 and dom of one coordinate per basis row."""
    cod = _space("z", draw(DIMS))
    kind = draw(st.sampled_from(("random", "empty", "full")))
    if kind == "random":
        rows, _ = draw(sparse_rows(ncols=cod.dim))
    elif kind == "empty":
        rows = ()
    else:
        rows = matrix_of(draw(invertible(cod)))
    basis = dense_subspace(cod, rows).rows
    return _space("b", len(basis)), cod, basis


@settings(deadline=None, max_examples=150)
@given(canonical_bases())
def test_an_inclusion_reads_as_its_transposed_basis(case):
    # an inclusion keeps only its basis; its rows, built on first read, must be
    # the transposed basis, and classify and image read the basis before any row
    dom, cod, basis = case
    eager = LinMap.from_rows(dom, cod, vect._transpose(basis, cod.dim))

    def lazy():
        return vect._inclusion(dom, cod, basis)

    kind, space = carriers.classify_map(eager), vect.image(eager)
    with _forbidden("_transpose"):
        assert carriers.classify_map(lazy()) == kind
        assert vect.image(lazy()) == space
    assert lazy() == eager and eager == lazy()
    assert hash(lazy()) == hash(eager)
    f = lazy()
    assert f.rows == eager.rows and f.rows is f.rows


@pytest.mark.parametrize("dom_dim, basis", [
    (2, ((1, {0: 1}),)),
    (0, ((1, {0: 1}),)),
    (1, ((1, {3: 1}),)),
    (1, ((1, {-1: 1}),)),
], ids=["fewer-rows", "more-rows", "column-past-cod", "negative-column"])
def test_an_inclusion_checks_its_basis(dom_dim, basis):
    with pytest.raises(MismatchError):
        vect._inclusion(_space("b", dom_dim), _space("z", 3), basis)


def test_an_inclusion_checks_its_basis_once():
    # _inclusion's verdict serves classify and image, however often they read
    # it, and the zero map of a kernel representation has no column to check
    f = dense_map(_space("x", 4), _space("z", 2), ((1, 2, 0, -1), (0, 1, 1, 3)))
    want = dense_subspace(f.dom, ((1, 0, -3, 1), (0, 1, -7, 2)))
    with mock.patch.object(vect, "_is_canonical_rref", wraps=vect._is_canonical_rref) as canonical, \
            mock.patch.object(vect, "_check_columns", wraps=vect._check_columns) as columns:
        _, inc = vect.equalizer(f, vect.zero_map(f.dom, f.cod))
        s = System(inc)
        assert s.image == vect.image(inc) == want
        assert carriers.classify_map(inc) == carriers.MapClass(True, False)
    assert (canonical.call_count, columns.call_count) == (1, 1)


def test_a_system_refuses_an_inclusion_of_a_repeated_row():
    # two rows, rank one: only a basis in canonical RREF may be ranked by its length
    row = (1, {0: 1, 2: 5})
    with pytest.raises(NonInjectiveInclusion):
        System(vect._inclusion(_space("b", 2), _space("z", 3), (row, row)))
    # independent rows that are not canonical RREF are ranked by elimination
    System(vect._inclusion(_space("b", 2), _space("z", 3), ((1, {0: 1, 1: 1}), (1, {1: 1}))))


def _unchanged(fn, *args):
    """fn(*args), after checking that the call left every row in args as it was."""
    before = copy.deepcopy(args)
    out = fn(*args)
    assert args == before
    return out


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_kernels_never_mutate_their_input_rows(data):
    # rows are shared between values, and mat_mul returns rows of B itself,
    # so a kernel that changed a row in place would change other maps too
    a_rows, b_rows, inner, ncols = data.draw(selecting_products())
    product = _unchanged(vect.mat_mul, a_rows, b_rows)
    rows = product + b_rows  # shares B's rows through product
    _unchanged(vect._transpose, rows, ncols)
    _unchanged(vect.rref, rows, ncols)
    _unchanged(vect.rank_of, rows, ncols)
    _unchanged(vect.kernel_basis, rows, ncols)
    # an equalizer with the zero map hands f's own rows to kernel_basis
    f = LinMap.from_rows(_space("x", ncols), _space("y", len(rows)), tuple(rows))
    _unchanged(vect.equalizer, f, vect.zero_map(f.dom, f.cod))
    _unchanged(vect.solve_matrix, rows, ncols, rows)
    a_dense, ncols, b_dense, _ = data.draw(linear_systems())
    _unchanged(vect.solve_matrix, to_sparse(a_dense), ncols, to_sparse(b_dense))
    ms, fs, _ = data.draw(coordinate_cones())
    family = tuple(m.rows for m in ms), tuple(f.rows for f in fs)
    before = copy.deepcopy(family)
    vect.lift(ms, fs)
    assert family == before
    amb = _space("x", ncols)
    left, right = (dense_subspace(amb, data.draw(sparse_rows(ncols=ncols))[0]) for _ in range(2))
    before = copy.deepcopy((left.rows, right.rows))
    left.intersect(right)
    assert (left.rows, right.rows) == before
