import random
from fractions import Fraction
from unittest import mock

import pytest

from dense_kernels import dense_map, dense_subspace, matrix_of
import oracles
from syscat import carriers, finset, vect
from syscat.equations import arr_eq, kernel_rep
from syscat.errors import BehaviorEscapes, MismatchError, NonInjectiveInclusion, NotEpi
from syscat.finset import FinMap, FinObj
from syscat.systems import (
    BehaviorLattice,
    System,
    SystemMorphism,
    behavior_image,
    classify_morphism,
    compose_morphisms,
    factors_through,
    full_system,
    identity_morphism,
    interconnect_shared,
    make_morphism,
    product_systems,
    project_latent,
    pullback_systems,
    span_into_product,
    system_from_behavior,
    systems_equal,
    terminal_system,
)
from syscat.vect import VectObj


def fin_system(universe_labels, behavior_labels):
    u = FinObj(tuple(universe_labels))
    return system_from_behavior(u, frozenset(behavior_labels))


def compile_s():
    u = VectObj(("v_a", "v_b", "v_c", "v_d", "i_ac", "i_bd"))
    f = dense_map(u, VectObj(("ohm", "wire")), (
        (1, 0, -1, 0, -1, 0),
        (0, 1, 0, -1, 0, 0),
    ))
    return arr_eq(kernel_rep(f))


def compile_p():
    u = VectObj(("v_e", "v_f", "v_g", "v_h", "v_i", "v_j",
                 "i_eg", "i_gi", "i_fh", "i_hj", "i_gh"))
    rows = [
        (1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0),       # v_e = v_g
        (0, 0, 1, 0, -1, 0, 0, 0, 0, 0, 0),       # v_g = v_i
        (0, 1, 0, -1, 0, 0, 0, 0, 0, 0, 0),       # v_f = v_h
        (0, 0, 0, 1, 0, -1, 0, 0, 0, 0, 0),       # v_h = v_j
        (0, 0, 1, -1, 0, 0, 0, 0, 0, 0, -1),      # ohm at g-h
        (0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 1),       # current balance at g
        (0, 0, 0, 0, 0, 0, 0, 0, -1, 1, -1),      # current balance at h
    ]
    return arr_eq(kernel_rep(dense_map(u, VectObj(tuple(f"r{i}" for i in range(7))), rows)))


# -- construction -------------------------------------------------------------

def test_full_system_and_vect_span():
    u = FinObj(("a", "b"))
    s = full_system(u)
    assert behavior_image(s) == frozenset({"a", "b"})
    amb = VectObj(("v_a", "v_b"))
    sv = system_from_behavior(amb, dense_subspace(amb, ((1, 1),)))
    assert behavior_image(sv).dim == 1
    # a FinObj never equals a VectObj, so systems of different carriers differ
    assert not systems_equal(s, sv) and not systems_equal(sv, s)
    with pytest.raises(MismatchError, match="'z' is not in the universum"):
        system_from_behavior(u, {"a", "z"})
    with pytest.raises(MismatchError, match="ambient differs"):
        system_from_behavior(amb, dense_subspace(VectObj(("v_a", "v_c")), ((1, 1),)))
    # equal systems hash equally in both carriers
    assert s == system_from_behavior(u, frozenset({"a", "b"}))
    assert hash(s) == hash(system_from_behavior(u, frozenset({"a", "b"})))
    assert hash(sv) == hash(system_from_behavior(amb, dense_subspace(amb, ((2, 2),))))


def test_non_injective_inclusion_rejected():
    b = FinObj(("1", "2"))
    u = FinObj(("a",))
    with pytest.raises(NonInjectiveInclusion):
        System(FinMap(b, u, {"1": "a", "2": "a"}))


def test_identity_morphism_is_everything():
    s = fin_system("ab", "a")
    kinds = classify_morphism(identity_morphism(s))
    assert kinds.controlled and kinds.subsystem and kinds.quasi_subsystem


def test_make_morphism_behavior_escapes():
    src = fin_system("ab", "ab")
    dst = fin_system("ab", "a")
    with pytest.raises(BehaviorEscapes, match="behavior point 'b' lies outside"):
        make_morphism(src, dst, finset.identity(FinObj(("a", "b"))))


def test_make_morphism_behavior_escapes_names_a_vect_basis_vector():
    u = VectObj(("x", "y"))
    x_axis = system_from_behavior(u, dense_subspace(u, ((1, 0),)))
    # basis vectors (1, 0) and (0, 1): the second one leaves the x axis
    with pytest.raises(BehaviorEscapes, match=r"behavior vector \[0, 1\] lies outside"):
        make_morphism(full_system(u), x_axis, vect.identity(u))
    # the witness is in source-universum coordinates, here of the diagonal
    diagonal = system_from_behavior(u, dense_subspace(u, (("1/2", "1/2"),)))
    with pytest.raises(BehaviorEscapes, match=r"behavior vector \[1, 1\] lies outside"):
        make_morphism(diagonal, x_axis, vect.identity(u))
    swap = dense_map(u, u, ((0, 1), (1, 0)))
    with pytest.raises(BehaviorEscapes, match=r"behavior vector \[1, 0\] lies outside"):
        make_morphism(x_axis, x_axis, swap)


# -- the worked morphisms ------------------------------------------------------

def sc_into_s():
    u_sc = VectObj(("v_a2", "v_b2", "v_c2", "i_ac2", "i_bc2"))
    f = dense_map(u_sc, VectObj(("ohm", "wire")), (
        (1, 0, -1, -1, 0),
        (0, 1, -1, 0, 0),
    ))
    s_c = arr_eq(kernel_rep(f))
    s = compile_s()
    cols = {
        "v_a2": {"v_a": 1},
        "v_b2": {"v_b": 1},
        "v_c2": {"v_c": 1, "v_d": 1},
        "i_ac2": {"i_ac": 1},
        "i_bc2": {"i_bd": 1},
    }
    matrix = [
        [Fraction(cols[src_var].get(dst_var, 0)) for src_var in u_sc.vars]
        for dst_var in s.universum.vars
    ]
    return make_morphism(s_c, s, dense_map(u_sc, s.universum, matrix))


def p_onto_ps():
    p = compile_p()
    u_ps = VectObj(("v_g2", "v_h2", "i_gh2"))
    ps = arr_eq(kernel_rep(dense_map(u_ps, VectObj(("ohm",)), ((1, -1, -1),))))
    phi_u = vect.coordinate_map(
        p.universum, u_ps, {"v_g": "v_g2", "v_h": "v_h2", "i_gh": "i_gh2"}
    )
    return make_morphism(p, ps, phi_u)


def test_contraction_into_series_is_controlled():
    kinds = classify_morphism(sc_into_s())
    assert kinds.controlled
    assert not kinds.subsystem and not kinds.quasi_subsystem


def test_projection_onto_inner_resistor_is_subsystem():
    kinds = classify_morphism(p_onto_ps())
    assert kinds.subsystem and kinds.quasi_subsystem
    assert not kinds.controlled


def test_unique_map_to_terminal_is_subsystem():
    s = fin_system("ab", "a")
    t = terminal_system("finset")
    m = make_morphism(s, t, finset.terminal_map(s.universum))
    assert classify_morphism(m).subsystem
    sv = compile_s()
    tv = terminal_system("vect")
    mv = make_morphism(sv, tv, vect.zero_map(sv.universum, tv.universum))
    assert classify_morphism(mv).subsystem


# -- pullbacks -----------------------------------------------------------------

def test_pullback_over_terminal_is_product():
    s1 = fin_system("ab", "a")
    s2 = fin_system("xy", "xy")
    t = terminal_system("finset")
    pb = pullback_systems(
        make_morphism(s1, t, finset.terminal_map(s1.universum)),
        make_morphism(s2, t, finset.terminal_map(s2.universum)),
    )
    prod = product_systems(s1, s2)
    assert len(pb.system.universum) == len(prod.system.universum)
    assert behavior_image(pb.system) == behavior_image(prod.system)


def test_behavior_image_is_computed_once_per_system():
    amb = VectObj(("v_a", "v_b"))
    for s, fresh in (
        (fin_system("abc", "ab"), lambda: fin_system("abc", "ab")),
        (system_from_behavior(amb, dense_subspace(amb, ((1, 1),))),
         lambda: system_from_behavior(amb, dense_subspace(amb, ((2, 2),)))),
    ):
        before = (repr(s), hash(s))
        with mock.patch.object(carriers, "image", wraps=carriers.image) as image:
            first = behavior_image(s)
            assert behavior_image(s) is first and s.image is first
        assert image.call_count == 1
        # the kept value is no field: equality, hashing and repr are unchanged
        assert (repr(s), hash(s)) == before and s == fresh() and hash(s) == hash(fresh())
        assert "image" not in repr(s)


def test_pullback_along_identities_is_diagonal():
    s = fin_system("abc", "ab")
    pb = pullback_systems(identity_morphism(s), identity_morphism(s))
    transported = frozenset(
        pb.proj1.phi_u(pb.system.inclusion(b)) for b in pb.system.behavior
    )
    assert transported == behavior_image(s)


def test_series_parallel_voltage_pullback_dimensions():
    s, p = compile_s(), compile_p()
    shared = VectObj(("v_ce", "v_df"))
    psi = vect.coordinate_map(s.universum, shared, {"v_c": "v_ce", "v_d": "v_df"})
    phi = vect.coordinate_map(p.universum, shared, {"v_e": "v_ce", "v_f": "v_df"})
    pb = interconnect_shared(s, p, psi, phi)
    assert pb.system.universum.dim == 6 + 11 - 2
    # 9 independent circuit rows + 2 matching rows inside the 17-dim product
    assert behavior_image(pb.system).dim == 6


def test_finset_shared_bit_interconnection_matches_enumeration():
    bit = FinObj(("0", "1"))
    u1, _, pr1 = finset.product(bit, bit)  # share the second coordinate
    u2, pr2, _ = finset.product(bit, bit)  # share the first coordinate
    b1 = frozenset({"(0,0)", "(1,1)"})
    b2 = frozenset({"(0,1)", "(1,1)"})
    s1 = system_from_behavior(u1, b1)
    s2 = system_from_behavior(u2, b2)
    pb = interconnect_shared(s1, s2, pr1, pr2)
    got = set()
    for b in pb.system.behavior:
        u = pb.system.inclusion(b)
        got.add((pb.proj1.phi_u(u), pb.proj2.phi_u(u)))
    expected = {(x, y) for x in b1 for y in b2 if pr1(x) == pr2(y)}
    assert got == expected


def test_interconnection_is_meet_on_a_fixed_universum():
    u = FinObj(("a", "b", "c"))
    s1 = system_from_behavior(u, {"a", "b"})
    s2 = system_from_behavior(u, {"b", "c"})
    pb = interconnect_shared(s1, s2, finset.identity(u), finset.identity(u))
    meet = BehaviorLattice(u).meet(frozenset({"a", "b"}), frozenset({"b", "c"}))
    via = frozenset(pb.proj1.phi_u(pb.system.inclusion(b)) for b in pb.system.behavior)
    assert via == meet == {"b"}


def test_choice_of_common_quasi_subsystem_does_not_matter():
    rng = random.Random(23)
    u = FinObj(("a", "b", "c", "d"))
    uc = FinObj(("s", "t"))
    p = FinMap(u, uc, {"a": "s", "b": "s", "c": "t", "d": "t"})
    for _ in range(20):
        b1 = frozenset(x for x in u if rng.random() < 0.7) or frozenset({"a"})
        b2 = frozenset(x for x in u if rng.random() < 0.7) or frozenset({"c"})
        s1, s2 = system_from_behavior(u, b1), system_from_behavior(u, b2)
        baseline = interconnect_shared(s1, s2, p, p)
        # a different common quasi-subsystem with the same universum components
        images = {p(x) for x in b1} | {p(x) for x in b2}
        bc = images | ({"s"} if rng.random() < 0.5 else set())
        sc = system_from_behavior(uc, bc)
        alt = pullback_systems(make_morphism(s1, sc, p), make_morphism(s2, sc, p))
        assert systems_equal(baseline.system, alt.system)


def test_pullback_into_product_is_controlled():
    s1 = fin_system("ab", "ab")
    s2 = fin_system("xy", "x")
    uc = FinObj(("s",))
    pb = interconnect_shared(
        s1,
        s2,
        FinMap(s1.universum, uc, {e: "s" for e in s1.universum}),
        FinMap(s2.universum, uc, {e: "s" for e in s2.universum}),
    )
    m = span_into_product(pb)
    assert classify_morphism(m).controlled
    # and in Vect
    sv, pv = compile_s(), compile_p()
    shared = VectObj(("v_ce",))
    pbv = interconnect_shared(
        sv, pv,
        vect.coordinate_map(sv.universum, shared, {"v_c": "v_ce"}),
        vect.coordinate_map(pv.universum, shared, {"v_e": "v_ce"}),
    )
    assert classify_morphism(span_into_product(pbv)).controlled


# -- latent variables ----------------------------------------------------------

def test_project_latent_identity_returns_same_behavior():
    s = compile_s()
    m, manifest = project_latent(s, vect.identity(s.universum))
    assert systems_equal(manifest, s)
    assert classify_morphism(m).subsystem


def test_project_latent_requires_epi():
    s = compile_s()
    pi = dense_map(s.universum, VectObj(("q", "r")), (
        (1, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0),
    ))
    with pytest.raises(NotEpi):
        project_latent(s, pi)


def test_existential_projection_in_finset():
    u, pr1, _ = finset.product(FinObj(("0", "1")), FinObj(("x", "y")))
    s = system_from_behavior(u, {"(0,x)", "(0,y)", "(1,x)"})
    _, manifest = project_latent(s, pr1)
    assert behavior_image(manifest) == frozenset({"0", "1"})


def test_two_port_latent_elimination():
    p = compile_p()
    terminals = ("v_e", "v_f", "v_i", "v_j", "i_eg", "i_gi", "i_fh", "i_hj")
    pi = vect.projection_onto(p.universum, terminals)
    m, manifest = project_latent(p, pi)
    assert behavior_image(manifest).dim == 4  # frozen: projected-basis rank oracle
    rows = matrix_of(vect.compose(pi, p.inclusion))
    assert oracles.rank(tuple(zip(*rows)), 8) == 4
    assert classify_morphism(m).subsystem


# -- ordering and lattice --------------------------------------------------------

def test_factors_through_witness():
    u = FinObj(("a", "b", "c"))
    small = system_from_behavior(u, {"a"})
    big = system_from_behavior(u, {"a", "b"})
    h = factors_through(small, big)
    assert h is not None
    assert carriers.compose(big.inclusion, h) == small.inclusion
    assert factors_through(big, small) is None
    amb = VectObj(("x", "y"))
    line = system_from_behavior(amb, dense_subspace(amb, ((1, 1),)))
    plane = full_system(amb)
    assert factors_through(line, plane) is not None
    assert factors_through(plane, line) is None


def test_lattice_operations_and_modularity():
    amb = VectObj(("x", "y", "z"))
    lat = BehaviorLattice(amb)
    e1 = dense_subspace(amb, ((1, 0, 0),))
    e2 = dense_subspace(amb, ((0, 1, 0),))
    assert lat.meet(e1, e1) == e1 and lat.join(e1, e1) == e1
    assert lat.join(e1, e2).dim == 2
    e12 = dense_subspace(amb, ((1, 0, 0), (0, 1, 0)))
    e23 = dense_subspace(amb, ((0, 1, 0), (0, 0, 1)))
    assert lat.meet(e12, e23) == e2
    rng = random.Random(2)
    for _ in range(30):
        a = dense_subspace(amb, tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
                                for _ in range(rng.randint(0, 3))))
        b = dense_subspace(amb, tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
                                for _ in range(rng.randint(0, 3))))
        assert a.dim + b.dim == lat.join(a, b).dim + lat.meet(a, b).dim
    fin = BehaviorLattice(FinObj(("a", "b", "c")))
    ab, bc = frozenset({"a", "b"}), frozenset({"b", "c"})
    assert fin.meet(ab, bc) == {"b"} and type(fin.meet(ab, bc)) is frozenset
    assert fin.join(ab, bc) == {"a", "b", "c"} and type(fin.join(ab, bc)) is frozenset
    # an operand outside the universum is refused, also when both are
    elsewhere = dense_subspace(VectObj(("x", "y")), ((1, 0),))
    for op, good, bad in [
        (lat.meet, e1, elsewhere), (lat.join, e1, elsewhere),
        (fin.meet, ab, frozenset({"a", "z"})), (fin.join, ab, frozenset({"a", "z"})),
    ]:
        for args in ((good, bad), (bad, good), (bad, bad)):
            with pytest.raises(MismatchError):
                op(*args)


def test_nary_interconnection_folds_associatively():
    u = FinObj(("a", "b", "c", "d"))
    ident = finset.identity(u)
    bs = [frozenset({"a", "b", "c"}), frozenset({"b", "c", "d"}), frozenset({"a", "b", "d"})]
    systems = [system_from_behavior(u, b) for b in bs]

    def meet_two(s1, s2):
        pb = interconnect_shared(s1, s2, ident, ident)
        beh = frozenset(pb.proj1.phi_u(pb.system.inclusion(b)) for b in pb.system.behavior)
        return system_from_behavior(u, beh)

    left = meet_two(meet_two(systems[0], systems[1]), systems[2])
    right = meet_two(systems[0], meet_two(systems[1], systems[2]))
    assert systems_equal(left, right)
    assert behavior_image(left) == bs[0] & bs[1] & bs[2]


def test_morphism_composition_checks_squares():
    s = fin_system("ab", "a")
    t = fin_system("ab", "ab")
    m = make_morphism(s, t, finset.identity(FinObj(("a", "b"))))
    assert compose_morphisms(identity_morphism(t), m).phi_u == m.phi_u
    with pytest.raises(MismatchError):
        compose_morphisms(m, m)
    # the shapes fit, but phi_u moves the behavior point a to b and phi_b keeps it at a
    swap = FinMap(s.universum, t.universum, {"a": "b", "b": "a"})
    with pytest.raises(MismatchError, match="does not commute"):
        SystemMorphism(s, t, m.phi_b, swap)
    # the line spanned by (1, 0) into the plane: phi_b sends its basis vector to (0, 1)
    u = VectObj(("x", "y"))
    line, plane = system_from_behavior(u, dense_subspace(u, [(1, 0)])), full_system(u)
    with pytest.raises(MismatchError, match="does not commute"):
        SystemMorphism(line, plane, dense_map(line.behavior, u, ((0,), (1,))), vect.identity(u))
    assert SystemMorphism(line, plane, dense_map(line.behavior, u, ((1,), (0,))), vect.identity(u))
