import random
from itertools import product as iterproduct

import pytest

from syscat import booldual, finset
from syscat.booldual import (
    BoolHom,
    BoolSystem,
    BoolSystemMorphism,
    PowerLattice,
    all_homs,
    bool_morphism_of,
    bool_system_of,
    compose_bool_morphisms,
    compose_homs,
    duality_classify,
    functor_F,
    functor_G,
    hom_is_epi,
    hom_is_mono,
    identity_hom,
    pushout_bool,
    system_morphism_of,
    system_of_bool,
)
from syscat.errors import InvalidHom, MismatchError
from syscat.finset import FinMap, FinObj
from syscat.systems import (
    classify_morphism,
    make_morphism,
    product_systems,
    pullback_systems,
    system_from_behavior,
    systems_equal,
    terminal_system,
)


def test_base_size_cap():
    with pytest.raises(MismatchError):
        PowerLattice(FinObj(tuple(f"x{i:02d}" for i in range(17))))


def test_functor_f_examples():
    obj = FinObj(("a", "b"))
    assert functor_F(finset.identity(obj)) == identity_hom(PowerLattice(obj))

    collapse = FinMap(FinObj(("1", "2")), FinObj(("a",)), {"1": "a", "2": "a"})
    phi = functor_F(collapse)
    assert phi.dst.labels_of(phi.atom_image["a"]) == ("1", "2")

    embed = FinMap(FinObj(("1",)), FinObj(("a", "b")), {"1": "a"})
    psi = functor_F(embed)
    assert psi.dst.labels_of(psi.atom_image["a"]) == ("1",)
    assert psi.atom_image["b"] == 0
    # the preimage hom of a mono is epi: every subset of {1} is hit
    images = {psi.apply(m) for m in psi.src.subsets()}
    assert images == set(psi.dst.subsets())
    assert hom_is_epi(psi)


def test_functor_g_examples():
    obj = FinObj(("a", "b"))
    assert functor_G(identity_hom(PowerLattice(obj))) == finset.identity(obj)

    src = PowerLattice(FinObj(("a", "b")))
    dst = PowerLattice(FinObj(("1", "2")))
    phi = BoolHom(src, dst, {"a": dst.mask_of(("1", "2")), "b": 0})
    assert functor_G(phi).table == {"1": "a", "2": "a"}


def test_invalid_homs_rejected():
    src = PowerLattice(FinObj(("a", "b")))
    dst = PowerLattice(FinObj(("1", "2")))
    with pytest.raises(InvalidHom):  # overlap
        BoolHom(src, dst, {"a": 0b11, "b": 0b01})
    with pytest.raises(InvalidHom):  # no cover
        BoolHom(src, dst, {"a": 0b01, "b": 0})


def test_roundtrips_randomized():
    rng = random.Random(1)
    for _ in range(200):
        s = FinObj(tuple(f"s{i}" for i in range(rng.randint(0, 6))))
        t = FinObj(tuple(f"t{i}" for i in range(rng.randint(1, 6))))
        f = FinMap(s, t, {x: rng.choice(t.elements) for x in s})
        assert functor_G(functor_F(f)) == f
        assert functor_F(functor_G(functor_F(f))) == functor_F(f)


def test_contravariant_functoriality():
    rng = random.Random(2)
    for _ in range(50):
        a = FinObj(tuple(f"a{i}" for i in range(rng.randint(1, 4))))
        b = FinObj(tuple(f"b{i}" for i in range(rng.randint(1, 4))))
        c = FinObj(tuple(f"c{i}" for i in range(rng.randint(1, 4))))
        f = FinMap(a, b, {x: rng.choice(b.elements) for x in a})
        g = FinMap(b, c, {x: rng.choice(c.elements) for x in b})
        assert functor_F(finset.compose(g, f)) == compose_homs(functor_F(f), functor_F(g))


def test_duality_classify_examples():
    bij = finset.identity(FinObj(("a", "b")))
    rep = duality_classify(bij, functor_F(bij))
    assert rep.map_mono and rep.map_epi and rep.hom_mono and rep.hom_epi and rep.consistent

    const = FinMap(FinObj(("1", "2")), FinObj(("a", "b")), {"1": "a", "2": "a"})
    rep = duality_classify(const, functor_F(const))
    assert not rep.map_epi and not rep.hom_mono
    assert not rep.map_mono and not rep.hom_epi
    assert rep.consistent

    incl = FinMap(FinObj(("1",)), FinObj(("1", "2")), {"1": "1"})
    rep = duality_classify(incl, functor_F(incl))
    assert rep.map_mono and rep.hom_epi and rep.consistent


def brute_force_atom_images(src: PowerLattice, dst: PowerLattice):
    """Every atom-image table of a hom src -> dst, found by filtering all
    (2^|S|)^|T| tables for disjoint images that cover dst's base."""
    atoms = src.base.elements
    for combo in iterproduct(range(dst.full_mask + 1), repeat=len(atoms)):
        union, ok = 0, True
        for m in combo:
            if union & m:
                ok = False
                break
            union |= m
        if ok and union == dst.full_mask:
            yield dict(zip(atoms, combo))


def test_exhaustive_hom_enumeration_matches_map_count():
    # all_homs yields the brute-force filter's tables, each once, one per map S -> T
    for ns, nt in iterproduct(range(5), repeat=2):
        s = FinObj(tuple(f"s{i}" for i in range(ns)))
        t = FinObj(tuple(f"t{i}" for i in range(nt)))
        src, dst = PowerLattice(t), PowerLattice(s)
        homs = list(all_homs(src, dst))
        tables = [tuple(sorted(phi.atom_image.items())) for phi in homs]
        want = {tuple(sorted(table.items())) for table in brute_force_atom_images(src, dst)}
        assert len(tables) == len(set(tables)) == nt**ns == len(list(finset.all_maps(s, t)))
        assert set(tables) == want, (ns, nt)
        for phi in homs:
            assert functor_F(functor_G(phi)) == phi


def test_taxonomy_reverses_under_transport():
    u = FinObj(("a", "b", "c"))
    sub = system_from_behavior(u, {"a", "b"})
    full = system_from_behavior(u, {"a", "b", "c"})
    controlled = make_morphism(sub, full, finset.identity(u))
    assert classify_morphism(controlled).controlled
    dual = bool_morphism_of(controlled)
    assert hom_is_epi(dual.psi_u) and hom_is_epi(dual.psi_b)

    v = FinObj(("x", "y"))
    pi = FinMap(u, v, {"a": "x", "b": "y", "c": "y"})
    target = system_from_behavior(v, {"x", "y"})
    subsystem = make_morphism(full, target, pi)
    assert classify_morphism(subsystem).subsystem
    dual = bool_morphism_of(subsystem)
    assert hom_is_mono(dual.psi_u) and hom_is_mono(dual.psi_b)


def test_transport_roundtrip_on_morphisms():
    u = FinObj(("a", "b", "c"))
    s = system_from_behavior(u, {"a", "b"})
    t = system_from_behavior(u, {"a", "b", "c"})
    m = make_morphism(s, t, finset.identity(u))
    back = system_morphism_of(bool_morphism_of(m))
    assert back.phi_u == m.phi_u
    assert systems_equal(back.src, s) and systems_equal(back.dst, t)


def _all_bool_morphisms(a: BoolSystem, b: BoolSystem):
    lat_u = PowerLattice(a.universum), PowerLattice(b.universum)
    lat_b = PowerLattice(a.behavior_obj), PowerLattice(b.behavior_obj)
    for psi_u in all_homs(*lat_u):
        for psi_b in all_homs(*lat_b):
            try:
                yield BoolSystemMorphism(a, b, psi_u, psi_b)
            except MismatchError:
                continue


def test_pushout_of_identity_span_is_the_object():
    b = bool_system_of(system_from_behavior(FinObj(("a", "b")), {"a"}))
    ident = compose_bool_morphisms(
        bool_morphism_of(
            make_morphism(
                system_of_bool(b), system_of_bool(b), finset.identity(b.universum)
            )
        ),
        bool_morphism_of(
            make_morphism(
                system_of_bool(b), system_of_bool(b), finset.identity(b.universum)
            )
        ),
    )
    po = pushout_bool(ident, ident)
    got = system_of_bool(po.system)
    want = system_of_bool(b)
    # isomorphic copy: same universum and behavior sizes, matching through the injections
    assert len(got.universum) == len(want.universum)
    assert len(got.behavior) == len(want.behavior)


def test_pushout_over_initial_is_dual_of_product():
    initial = bool_system_of(terminal_system("finset"))
    s1 = system_from_behavior(FinObj(("a", "b")), {"a"})
    s2 = system_from_behavior(FinObj(("x",)), {"x"})
    m1 = bool_morphism_of(make_morphism(s1, terminal_system("finset"),
                                        finset.terminal_map(s1.universum)))
    m2 = bool_morphism_of(make_morphism(s2, terminal_system("finset"),
                                        finset.terminal_map(s2.universum)))
    assert m1.src == initial and m2.src == initial
    po = pushout_bool(m1, m2)
    prod = product_systems(s1, s2).system
    assert systems_equal(system_of_bool(po.system), prod)


def test_pushout_is_transport_of_pullback():
    bit = FinObj(("0", "1"))
    u1, _, pr1 = finset.product(bit, bit)
    u2, pr2, _ = finset.product(bit, bit)
    s1 = system_from_behavior(u1, {"(0,0)", "(1,1)"})
    s2 = system_from_behavior(u2, {"(0,1)", "(1,1)"})
    sc = system_from_behavior(bit, {"0", "1"})
    phi = make_morphism(s1, sc, pr1)
    psi = make_morphism(s2, sc, pr2)
    po = pushout_bool(bool_morphism_of(phi), bool_morphism_of(psi))
    pb = pullback_systems(phi, psi)
    assert po.system == bool_system_of(pb.system)
    assert systems_equal(system_of_bool(po.system), pb.system)


def test_pushout_universal_property_by_mediator_search():
    # small span: sc -> s1, sc -> s2 dualized
    u = FinObj(("a", "b"))
    s1 = system_from_behavior(u, {"a", "b"})
    s2 = system_from_behavior(FinObj(("x", "y")), {"x"})
    sc = system_from_behavior(FinObj(("s",)), {"s"})
    phi = make_morphism(s1, sc, FinMap(u, sc.universum, {"a": "s", "b": "s"}))
    psi = make_morphism(s2, sc, FinMap(s2.universum, sc.universum, {"x": "s", "y": "s"}))
    bpsi, bphi = bool_morphism_of(phi), bool_morphism_of(psi)
    po = pushout_bool(bpsi, bphi)
    a, b = bpsi.dst, bphi.dst

    candidates = []
    for nq in (1, 2):
        uq = FinObj(tuple(f"q{i}" for i in range(nq)))
        for mask in range(1 << nq):
            candidates.append(BoolSystem(uq, mask))
    total_cocones = 0
    for q in candidates:
        for j1 in _all_bool_morphisms(a, q):
            for j2 in _all_bool_morphisms(b, q):
                if compose_bool_morphisms(j1, bpsi) != compose_bool_morphisms(j2, bphi):
                    continue
                total_cocones += 1
                mediators = [
                    m
                    for m in _all_bool_morphisms(po.system, q)
                    if compose_bool_morphisms(m, po.inj1) == j1
                    and compose_bool_morphisms(m, po.inj2) == j2
                ]
                assert len(mediators) == 1
    assert total_cocones > 0
