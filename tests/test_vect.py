import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syscat import carriers, vect
from syscat.errors import MismatchError
from syscat.vect import LinMap, Subspace, VectObj

import dense_kernels
from dense_kernels import column, contains, dense_map, dense_subspace, matrix_of
import oracles

Q1 = VectObj(("x",))
Q2 = VectObj(("x", "y"))
Q3 = VectObj(("x", "y", "z"))

SMALL_INT = st.integers(min_value=-3, max_value=3)


def rand_matrix(rng, rows, cols, span=3):
    return tuple(tuple(Fraction(rng.randint(-span, span)) for _ in range(cols)) for _ in range(rows))


def test_compose_matrix_product():
    f = dense_map(Q2, Q2, ((1, 0), (0, 2)))
    g = dense_map(Q2, Q1, ((1, 1),))
    assert matrix_of(vect.compose(g, f)) == ((Fraction(1), Fraction(2)),)


def test_compose_identity_and_zero_dims():
    f = dense_map(Q2, Q1, ((1, -1),))
    assert vect.compose(f, vect.identity(Q2)) == f
    assert vect.compose(vect.identity(Q1), f) == f
    z = vect.zero_map(Q2, vect.ZERO_SPACE)
    g = vect.zero_map(vect.ZERO_SPACE, Q3)
    gz = vect.compose(g, z)
    assert gz == vect.zero_map(Q2, Q3)
    # a zero dimension in the domain, in the middle or in the codomain; h has
    # a unit row, which selects, and a row that is multiplied
    h = dense_map(Q2, Q2, ((1, 0), (Fraction(1, 2), 3)))
    zero = vect.ZERO_SPACE
    assert vect.compose(h, vect.zero_map(zero, Q2)) == vect.zero_map(zero, Q2)
    assert vect.compose(vect.zero_map(zero, Q2), vect.zero_map(Q3, zero)) == vect.zero_map(Q3, Q2)
    assert vect.compose(vect.zero_map(Q2, zero), h) == vect.zero_map(Q2, zero)
    assert vect.compose(vect.zero_map(zero, zero), vect.zero_map(zero, zero)) == vect.zero_map(zero, zero)


def test_product_tags_and_dims():
    obj, p1, p2 = vect.product(VectObj(("v", "i")), VectObj(("w",)))
    assert obj.vars == ("L.v", "L.i", "R.w")
    assert matrix_of(p1) == ((1, 0, 0), (0, 1, 0))
    assert matrix_of(p2) == ((0, 0, 1),)
    empty, _, _ = vect.product(vect.ZERO_SPACE, Q1)
    assert empty.dim == 1


def test_pullback_kernel_example():
    f1 = dense_map(Q2, Q1, ((1, 0),))
    f2 = dense_map(Q1, Q1, ((1,),))
    k, p1, p2 = vect.pullback(f1, f2)
    assert k.dim == 2  # frozen from the RREF oracle
    assert oracles.nullity([(1, 0, -1)], 3) == 2
    assert vect.compose(f1, p1) == vect.compose(f2, p2)
    # K = {(a, b, c) : a = c} inside Q^2 x Q^1
    emb = carriers.product_mediate(carriers.product(Q2, Q1), p1, p2)
    for j in range(k.dim):
        col = column(emb, j)
        assert col[0] == col[2]


def test_pullback_dimension_law_randomized():
    rng = random.Random(3)
    for _ in range(40):
        d1, d2, dz = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3)
        x1, x2, z = (
            VectObj(tuple(f"a{i}" for i in range(d1))),
            VectObj(tuple(f"b{i}" for i in range(d2))),
            VectObj(tuple(f"z{i}" for i in range(dz))),
        )
        f1 = dense_map(x1, z, rand_matrix(rng, dz, d1))
        f2 = dense_map(x2, z, rand_matrix(rng, dz, d2))
        k, p1, p2 = vect.pullback(f1, f2)
        stacked = [tuple(r1) + tuple(-x for x in r2) for r1, r2 in zip(matrix_of(f1), matrix_of(f2))]
        assert k.dim == d1 + d2 - oracles.rank(stacked, d1 + d2)
        assert vect.compose(f1, p1) == vect.compose(f2, p2)


def test_equalizer_symmetric_kernel():
    f = dense_map(Q2, Q1, ((1, -1),))
    g = vect.zero_map(Q2, Q1)
    e_obj, e = vect.equalizer(f, g)
    assert e_obj.dim == 1
    assert column(e, 0) == (Fraction(1), Fraction(1))


def test_image_factorize_rank_one():
    f = dense_map(Q2, Q2, ((1, 2), (2, 4)))
    surj, inj = vect.image_factorize(f)
    assert inj.dom.dim == 1  # frozen: RREF rank oracle
    assert oracles.rank(matrix_of(f), 2) == 1
    assert column(inj, 0) == (Fraction(1), Fraction(2))
    assert vect.compose(inj, surj) == f
    assert vect.classify(surj)[1] and vect.classify(inj)[0]


def test_classify_thin_column():
    f = dense_map(Q1, Q2, ((1,), (1,)))
    assert vect.classify(f) == (True, False)
    assert oracles.rank(matrix_of(f), 1) == 1


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(SMALL_INT, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rref_multiply_back(int_rows):
    rows = tuple(tuple(Fraction(x) for x in row) for row in int_rows)
    n = 3
    reduced, pivots = dense_kernels.rref(rows, n)
    # row-reduce [M | I]; the left block must be rref(M) and the right block
    # the witnessing transformation
    aug = [tuple(row) + tuple(Fraction(1 if i == j else 0) for j in range(len(rows)))
           for i, row in enumerate(rows)]
    full_red, _ = dense_kernels.rref(aug, n + len(rows))
    left = tuple(r[:n] for r in full_red if any(x != 0 for x in r[:n]))
    assert left == reduced
    transform = tuple(r[n:] for r in full_red[: len(reduced)])
    rebuilt = dense_kernels.mat_mul(transform, rows, len(rows)) if rows else ()
    assert rebuilt == reduced
    assert oracles.row_space_equal(rows, reduced, n)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(SMALL_INT, min_size=4, max_size=4), min_size=1, max_size=3))
def test_kernel_basis_matches_oracle(int_rows):
    rows = tuple(tuple(Fraction(x) for x in row) for row in int_rows)
    basis = dense_kernels.kernel_basis(rows, 4)
    assert len(basis) == oracles.nullity(rows, 4)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_solve_matrix_recovers_unique_solution():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = n + rng.randint(0, 2)
        while True:
            a = rand_matrix(rng, m, n)
            if dense_kernels.rank_of(a, n) == n:
                break
        x0 = rand_matrix(rng, n, 2)
        b = dense_kernels.mat_mul(a, x0, n)
        assert dense_kernels.solve_matrix(a, n, b, 2) == x0
    # inconsistent system
    assert dense_kernels.solve_matrix(((Fraction(1),), (Fraction(1),)), 1, ((Fraction(0),), (Fraction(1),)), 1) is None


def test_subspace_canonical_equality():
    s1 = dense_subspace(Q3, ((1, 1, 0), (0, 0, 1)))
    s2 = dense_subspace(Q3, ((2, 2, 2), (1, 1, -1)))
    assert s1 == s2
    assert contains(s1, (5, 5, -3))
    assert not contains(s1, (1, 0, 0))


def test_subspace_meet_join_examples():
    e1 = dense_subspace(Q3, ((1, 0, 0),))
    e2 = dense_subspace(Q3, ((0, 1, 0),))
    e12 = dense_subspace(Q3, ((1, 0, 0), (0, 1, 0)))
    e23 = dense_subspace(Q3, ((0, 1, 0), (0, 0, 1)))
    assert e12.intersect(e23) == e2
    zero = dense_subspace(Q3, ())
    for a, b in ((e12, zero), (zero, e12), (zero, zero)):
        assert a.intersect(b) == zero and a.intersect(b).rows == ()
    assert e1.sum(e2) == e12
    assert e1.sum(e2).dim == 2


def test_subspace_modular_law_randomized():
    rng = random.Random(5)
    amb = VectObj(tuple(f"u{i}" for i in range(5)))
    for _ in range(50):
        a = dense_subspace(amb, rand_matrix(rng, rng.randint(0, 5), 5))
        b = dense_subspace(amb, rand_matrix(rng, rng.randint(0, 5), 5))
        assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


def test_exact_fractions_survive_reduction():
    f = dense_map(Q2, Q1, ((Fraction(1, 3), Fraction(1, 6)),))
    basis = dense_kernels.kernel_basis(matrix_of(f), 2)
    assert basis == ((Fraction(1), Fraction(-2)),)


def test_coordinate_map_and_projection():
    pi = vect.projection_onto(Q3, ("z", "x"))
    assert pi.cod.vars == ("z", "x")
    assert matrix_of(pi) == ((0, 0, 1), (1, 0, 0))
    with pytest.raises(MismatchError, match="^unknown variable 'nope'$"):
        vect.projection_onto(Q3, ("nope",))
    with pytest.raises(MismatchError, match="^unknown variable 'w'$"):
        vect.coordinate_map(Q3, pi.cod, {"x": "w"})
    assert [Q3.index(v) for v in Q3.vars] == [0, 1, 2]


# -- the canonical sparse format -------------------------------------------------

def test_equal_maps_from_different_representations_are_equal():
    a = dense_map(Q2, Q1, (("2/4", 3),))
    b = dense_map(Q2, Q1, ((Fraction(1, 2), "6/2"),))
    c = LinMap.from_rows(Q2, Q1, ((2, {0: 1, 1: 6}),))
    assert a.rows == ((2, {0: 1, 1: 6}),)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert matrix_of(a) == matrix_of(b) == matrix_of(c) == ((Fraction(1, 2), Fraction(3)),)
    assert a != dense_map(Q2, Q1, ((1, 3),))
    # a kernel output: lifting 2 through 4 gives 1/2
    half = vect.lift((dense_map(Q1, Q1, ((4,),)),), (dense_map(Q1, Q1, ((-2,),)),))
    assert half == dense_map(Q1, Q1, (("-2/4",),))
    assert hash(half) == hash(dense_map(Q1, Q1, ((Fraction(-1, 2),),)))
    assert matrix_of(half) == ((Fraction(-1, 2),),)
    s = dense_subspace(Q2, ((2, 4), (3, 6)))
    t = dense_subspace(Q2, (("1/3", "2/3"),))
    assert s == t and hash(s) == hash(t)
    assert s.rows == ((1, {0: 1, 1: 2}),)
    assert s == vect.image(dense_map(Q1, Q2, (("1/7",), ("2/7",))))


def test_kernel_outputs_keep_the_shape_check():
    f = dense_map(Q2, Q2, ((1, 2), (2, 4)))
    composed = vect.compose(f, f)
    _, arrow = vect.equalizer(f, vect.zero_map(Q2, Q2))
    surj, inj = vect.image_factorize(f)
    for out in (composed, arrow, surj, inj):
        assert LinMap.from_rows(out.dom, out.cod, out.rows) == out
        with pytest.raises(MismatchError, match="rows, codomain dimension"):
            LinMap.from_rows(out.dom, Q3, out.rows)
    with pytest.raises(MismatchError, match="column outside"):
        LinMap.from_rows(Q1, Q2, composed.rows)
    with pytest.raises(MismatchError, match="column outside"):
        LinMap.from_rows(vect.ZERO_SPACE, Q2, arrow.rows)
    with pytest.raises(MismatchError, match="column outside"):
        LinMap.from_rows(Q1, Q1, ((1, {-1: 1}),))
    with pytest.raises(MismatchError, match="column outside"):
        Subspace.from_rows(Q1, composed.rows)
    # from_rows is the one constructor: a dense matrix is not taken as rows
    with pytest.raises(TypeError):
        LinMap(Q2, Q1, ((1, 2),))
    with pytest.raises(TypeError):
        Subspace(Q2, ((1, 2),))
