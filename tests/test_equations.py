import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_kernels import basis_of, column, contains, dense_map, dense_subspace, matrix_of
import oracles
from syscat import carriers, finset, vect
from syscat.equations import (
    EquationMorphism,
    EquationRep,
    arr_eq,
    arr_eq_morphism,
    certified_kernel_rep,
    check_preservation,
    compose_equation_morphisms,
    identity_equation_morphism,
    kernel_rep,
    pullback_equations,
)
from syscat.errors import MismatchError
from syscat.finset import FinMap, FinObj
from syscat.laws import _finset_equation_cospan, _vect_equation_cospan
from syscat.systems import (
    System,
    SystemMorphism,
    behavior_image,
    pullback_systems,
    system_from_behavior,
    systems_equal,
)
from syscat.vect import VectObj


def finset_rep():
    dom, cod = FinObj(("1", "2", "3")), FinObj(("a", "b"))
    f1 = FinMap(dom, cod, {"1": "a", "2": "a", "3": "b"})
    f2 = FinMap(dom, cod, {"1": "a", "2": "b", "3": "b"})
    return EquationRep(f1, f2)


def resistor_rep(resistance=1):
    u = VectObj(("v_a", "v_b", "i_ab"))
    f = dense_map(u, VectObj(("e",)), ((-1, 1, resistance),))
    return kernel_rep(f)


def series_rep():
    # the two equations of the series circuit, one matrix row each
    u = VectObj(("v_a", "v_b", "v_c", "v_d", "i_ac", "i_bd"))
    f = dense_map(u, VectObj(("e1", "e2")), (
        (-1, 0, 1, 0, -1, 0),
        (0, -1, 0, 1, 0, 0),
    ))
    return kernel_rep(f)


def test_rep_requires_parallel_pair():
    dom, cod = FinObj(("1",)), FinObj(("a", "b"))
    f = FinMap(dom, cod, {"1": "a"})
    g = FinMap(cod, dom, {"a": "1", "b": "1"})
    with pytest.raises(MismatchError):
        EquationRep(f, g)
    # a pair of mixed carriers is not parallel either
    h = dense_map(VectObj(("x",)), VectObj(("e",)), ((1,),))
    with pytest.raises(MismatchError):
        EquationRep(f, h)
    with pytest.raises(MismatchError):
        EquationRep(h, f)


def test_equal_pair_represents_the_full_behavior():
    dom, cod = FinObj(("1", "2")), FinObj(("a",))
    f = FinMap(dom, cod, {"1": "a", "2": "a"})
    s = arr_eq(EquationRep(f, f))
    assert behavior_image(s) == frozenset({"1", "2"})
    z = vect.zero_map(VectObj(("x", "y")), VectObj(("e",)))
    assert behavior_image(arr_eq(kernel_rep(z))).dim == 2


def test_kernel_rep_examples():
    f = dense_map(VectObj(("x", "y")), VectObj(("e",)), ((1, -1),))
    s = arr_eq(kernel_rep(f))
    sub = behavior_image(s)
    assert sub.dim == 1 and contains(sub, (1, 1))

    rep = series_rep()
    s = arr_eq(rep)
    assert behavior_image(s).dim == 4  # frozen: rank-2 oracle on the 2x6 matrix
    assert oracles.rank(matrix_of(rep.f1), 6) == 2


def test_arr_eq_on_finset_rep():
    rep = finset_rep()
    s = arr_eq(rep)
    assert behavior_image(s) == frozenset({"1", "3"})
    assert arr_eq(rep) is s  # interpreted once and kept


def test_arr_eq_on_resistor_rep():
    s = arr_eq(resistor_rep(2))
    sub = behavior_image(s)
    assert sub.dim == 2
    # every behavior point obeys the one voltage-current law
    for row in basis_of(sub):
        assert -row[0] + row[1] + 2 * row[2] == 0


def test_equation_morphism_squares_are_checked():
    rep = finset_rep()
    u, e = rep.universum, rep.codomain
    swap_e = FinMap(e, e, {"a": "b", "b": "a"})
    with pytest.raises(MismatchError, match="does not commute"):
        EquationMorphism(rep, rep, finset.identity(u), swap_e)
    # the f1 squares commute and the f2 squares do not
    other = EquationRep(rep.f1, FinMap(u, e, {"1": "b", "2": "b", "3": "b"}))
    with pytest.raises(MismatchError, match="does not commute"):
        EquationMorphism(rep, other, finset.identity(u), finset.identity(e))
    with pytest.raises(MismatchError, match="does not commute"):
        EquationMorphism(other, rep, finset.identity(u), finset.identity(e))
    # v_b - v_a = i_ab is not v_b - v_a = 2 i_ab
    one, two = resistor_rep(1), resistor_rep(2)
    with pytest.raises(MismatchError, match="does not commute"):
        EquationMorphism(one, two, vect.identity(one.universum), vect.identity(one.codomain))
    half = dense_map(one.universum, one.universum, ((1, 0, 0), (0, 1, 0), (0, 0, "1/2")))
    assert EquationMorphism(one, two, half, vect.identity(one.codomain))


@pytest.mark.parametrize("cospan", [_finset_equation_cospan, _vect_equation_cospan])
def test_preservation_checks_no_square_a_lift_proved(cospan, monkeypatch):
    # pullback_equations' two projections, the two arr_eq_morphism lifts and
    # pullback_systems' two projections: each square is the equation of the
    # lift that built the morphism's component
    m, n = cospan(random.Random(5))
    seen = []
    for cls in (SystemMorphism, EquationMorphism):
        post_init = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda x, _c=cls.__name__, _p=post_init: seen.append(_c) or _p(x)
        )
    assert check_preservation(m, n).equal
    assert seen == []


@pytest.mark.parametrize("cospan, seed", [(_finset_equation_cospan, 13), (_vect_equation_cospan, 14)])
def test_morphisms_a_lift_proved_pass_the_public_checks(cospan, seed):
    rng = random.Random(seed)
    for _ in range(20):
        m, n = cospan(rng)
        pb = pullback_equations(m, n)
        for k in (pb.proj1, pb.proj2):
            assert EquationMorphism(k.src, k.dst, k.psi_u, k.psi_e) == k
        lifted = (arr_eq_morphism(m), arr_eq_morphism(n))
        spb = pullback_systems(*lifted)
        for k in (*lifted, spb.proj1, spb.proj2):
            assert SystemMorphism(k.src, k.dst, k.phi_b, k.phi_u) == k


def test_arr_eq_morphism_identity_and_composite():
    rep = finset_rep()
    ident = arr_eq_morphism(identity_equation_morphism(rep))
    assert ident.phi_u == finset.identity(rep.universum)
    assert ident.phi_b == finset.identity(ident.src.behavior)

    m, n = _finset_equation_cospan(random.Random(4))
    composed = compose_equation_morphisms(identity_equation_morphism(m.dst), m)
    assert arr_eq_morphism(composed).phi_u == arr_eq_morphism(m).phi_u


@pytest.mark.parametrize("cospan, seed", [(_finset_equation_cospan, 11), (_vect_equation_cospan, 12)])
def test_arr_eq_morphism_is_mediation_into_the_target_equalizer(cospan, seed):
    rng = random.Random(seed)
    for _ in range(30):
        m, n = cospan(rng)
        pb = pullback_equations(m, n)
        for k in (m, n, pb.proj1, pb.proj2):
            src = System(carriers.equalizer(k.src.f1, k.src.f2).arrow)
            dst_eq = carriers.equalizer(k.dst.f1, k.dst.f2)
            phi_b = carriers.equalizer_mediate(dst_eq, carriers.compose(k.psi_u, src.inclusion))
            assert arr_eq_morphism(k) == SystemMorphism(src, System(dst_eq.arrow), phi_b, k.psi_u)


def test_functor_respects_composition():
    rng = random.Random(9)
    for _ in range(20):
        m, _ = _finset_equation_cospan(rng)
        lifted = arr_eq_morphism(m)
        ident_src = identity_equation_morphism(m.src)
        left = arr_eq_morphism(compose_equation_morphisms(m, ident_src))
        from syscat.systems import compose_morphisms

        right = compose_morphisms(lifted, arr_eq_morphism(ident_src))
        assert left == right


def test_series_rep_morphism_with_identity_codomain_component():
    rep = series_rep()
    u2 = rep.codomain
    target = EquationRep(vect.identity(u2), vect.zero_map(u2, u2))
    # psi_e = id forces psi_u = f1
    m = EquationMorphism(rep, target, rep.f1, vect.identity(u2))
    lifted = arr_eq_morphism(m)
    assert lifted.phi_u == rep.f1
    assert systems_equal(lifted.src, arr_eq(rep))


def test_pullback_with_no_sharing_stacks_block_diagonally():
    r1, r2 = resistor_rep(1), resistor_rep(2)
    zero_u = vect.ZERO_SPACE
    terminal = EquationRep(vect.zero_map(zero_u, zero_u), vect.zero_map(zero_u, zero_u))
    m1 = EquationMorphism(r1, terminal, vect.zero_map(r1.universum, zero_u),
                          vect.zero_map(r1.codomain, zero_u))
    m2 = EquationMorphism(r2, terminal, vect.zero_map(r2.universum, zero_u),
                          vect.zero_map(r2.codomain, zero_u))
    pb = pullback_equations(m1, m2)
    assert pb.rep.universum.dim == 6
    assert pb.rep.codomain.dim == 2
    assert behavior_image(arr_eq(pb.rep)).dim == 4


def test_two_resistor_series_syntax_pullback():
    r1, r2 = resistor_rep(1), resistor_rep(2)
    shared = VectObj(("v", "i"))
    e_c = EquationRep(vect.zero_map(shared, vect.ZERO_SPACE),
                      vect.zero_map(shared, vect.ZERO_SPACE))
    psi_u = vect.coordinate_map(r1.universum, shared, {"v_b": "v", "i_ab": "i"})
    psi_u2 = vect.coordinate_map(r2.universum, shared, {"v_a": "v", "i_ab": "i"})
    m1 = EquationMorphism(r1, e_c, psi_u, vect.zero_map(r1.codomain, vect.ZERO_SPACE))
    m2 = EquationMorphism(r2, e_c, psi_u2, vect.zero_map(r2.codomain, vect.ZERO_SPACE))
    pb = pullback_equations(m1, m2)
    assert pb.rep.universum.dim == 4  # 3 + 3 - 2 shared
    assert pb.rep.codomain.dim == 2
    sys = arr_eq(pb.rep)
    # transported into the product coordinates, the series law holds
    prod = carriers.product(r1.universum, r2.universum)
    emb = carriers.product_mediate(prod, pb.proj1.psi_u, pb.proj2.psi_u)
    points = carriers.compose(emb, sys.inclusion)
    # product order: (v_a, v_b, i_ab | v_a', v_b', i_ab')
    for j in range(sys.behavior.dim):
        va, vb, i, va2, vb2, i2 = column(points, j)
        assert vb == va2 and i == i2
        assert va - vb2 == (1 + 2) * i
    report = check_preservation(m1, m2)
    assert report.equal


def test_check_preservation_diagonal():
    rep = finset_rep()
    ident = identity_equation_morphism(rep)
    report = check_preservation(ident, ident)
    assert report.equal


def test_check_preservation_interprets_each_representation_once(monkeypatch):
    m, n = _finset_equation_cospan(random.Random(4))
    calls = []
    equalizer = carriers.equalizer
    monkeypatch.setattr(carriers, "equalizer", lambda f, g: calls.append(f) or equalizer(f, g))
    report = check_preservation(m, n)
    assert len(calls) == 4  # the two legs, the shared representation, the syntax pullback
    monkeypatch.undo()
    assert report.equal


@pytest.mark.parametrize("cospan, seed", [(_finset_equation_cospan, 15), (_vect_equation_cospan, 16)])
def test_check_preservation_pulls_the_universa_back_once(cospan, seed, monkeypatch):
    # the syntax route's pullbacks of the universum and codomain maps, and the
    # semantic route's pullback of the behavior maps over the same universum one
    rng = random.Random(seed)
    calls = []
    pullback = carriers.pullback
    monkeypatch.setattr(carriers, "pullback", lambda f, g: calls.append(f) or pullback(f, g))
    for _ in range(20):
        m, n = cospan(rng)
        calls.clear()
        report = check_preservation(m, n)
        assert report.equal and len(calls) == 3
        assert report.syntax_system.universum is report.semantics_system.universum


def test_check_preservation_randomized_finset():
    rng = random.Random(100)
    for _ in range(60):
        m, n = _finset_equation_cospan(rng)
        assert check_preservation(m, n).equal


def test_check_preservation_randomized_vect():
    rng = random.Random(101)
    for _ in range(25):
        m, n = _vect_equation_cospan(rng)
        assert check_preservation(m, n).equal


def test_distinct_reps_same_system():
    u = VectObj(("x", "y"))
    f = dense_map(u, VectObj(("e",)), ((1, -1),))
    doubled = dense_map(u, VectObj(("e",)), ((2, -2),))
    r1, r2 = kernel_rep(f), kernel_rep(doubled)
    assert r1 != r2
    assert systems_equal(arr_eq(r1), arr_eq(r2))


# -- the certificate: f . K = 0 and nullity of f = dim K ---------------------

def _series_candidate(*vectors):
    """The series circuit's equations and the system spanned by vectors in its universum."""
    f = series_rep().f1
    return f, system_from_behavior(f.dom, dense_subspace(f.dom, vectors))


# ker f of the series circuit: v_c = v_a + i_ac and v_d = v_b, so these four vectors span it
SERIES_KERNEL = ((1, 0, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0), (0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 1))


def test_certified_kernel_rep_keeps_a_spanning_candidate(monkeypatch):
    f, candidate = _series_candidate(*SERIES_KERNEL)
    calls = []
    equalizer = carriers.equalizer
    monkeypatch.setattr(carriers, "equalizer", lambda g, h: calls.append(g) or equalizer(g, h))
    rep = certified_kernel_rep(f, candidate)
    assert rep == kernel_rep(f) and arr_eq(rep) is candidate
    assert calls == []  # certified, not solved
    monkeypatch.undo()
    assert systems_equal(arr_eq(rep), arr_eq(kernel_rep(f)))


def test_certified_kernel_rep_refuses_a_candidate_missing_a_kernel_vector():
    # f . K = 0 holds, but the nullity (4) exceeds dim K (3)
    f, candidate = _series_candidate(*SERIES_KERNEL[:3])
    assert certified_kernel_rep(f, candidate) is None


def test_certified_kernel_rep_refuses_a_candidate_outside_the_kernel():
    # the right dimension, but v_a alone breaks the first equation
    f, candidate = _series_candidate((1, 0, 0, 0, 0, 0), *SERIES_KERNEL[1:])
    assert certified_kernel_rep(f, candidate) is None


@pytest.mark.parametrize("off", (1, -1), ids=("overcounts", "undercounts"))
def test_certified_kernel_rep_refuses_when_rank_of_is_off(monkeypatch, off):
    # a spanning candidate, but a rank off by one puts the nullity beside dim K
    f, candidate = _series_candidate(*SERIES_KERNEL)
    rank_of = vect.rank_of
    monkeypatch.setattr(vect, "rank_of", lambda rows, n: rank_of(rows, n) + off)
    assert certified_kernel_rep(f, candidate) is None


def test_certified_kernel_rep_needs_a_candidate_on_the_universum():
    f, _ = _series_candidate()
    other = system_from_behavior(VectObj(("x",)), dense_subspace(VectObj(("x",)), ()))
    with pytest.raises(MismatchError, match="universum"):
        certified_kernel_rep(f, other)


@st.composite
def kernel_candidates(draw):
    """Small int equations f and vectors that span ker f, miss one of its basis
    vectors, or have one perturbed; a perturbed vector may stay in the kernel."""
    ncols = draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-3, 3))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4))
    kernel = oracles.dense_kernel_basis(rows, ncols)
    vectors = [list(v) for v in kernel]
    how = draw(st.sampled_from(("kernel", "minus one", "perturbed")))
    if how != "kernel":
        if not vectors:
            vectors = [[0] * ncols]
        i = draw(st.integers(0, len(vectors) - 1))
        if how == "minus one":
            del vectors[i]
        else:
            delta = draw(st.lists(entry, min_size=ncols, max_size=ncols).filter(any))
            vectors[i] = [x + y for x, y in zip(vectors[i], delta)]
    return rows, ncols, kernel, vectors


@settings(deadline=None, max_examples=200)
@given(kernel_candidates())
def test_certified_kernel_rep_certifies_exactly_the_kernel(case):
    rows, ncols, kernel, vectors = case
    u = VectObj(tuple(f"x{j}" for j in range(ncols)))
    f = dense_map(u, VectObj(tuple(f"e{i}" for i in range(len(rows)))), rows)
    candidate = system_from_behavior(u, dense_subspace(u, vectors))
    rep = certified_kernel_rep(f, candidate)
    assert (rep is not None) == oracles.row_space_equal(vectors, kernel, ncols)
    if rep is not None:
        assert arr_eq(rep) is candidate
