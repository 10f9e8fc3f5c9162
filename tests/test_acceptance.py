"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All comparisons are exact (integer dimensions, frozen rational values);
the only tolerances are the stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

from dense_kernels import contains, dense_map, dense_subspace, matrix_of
import oracles
from syscat import finset, vect
from syscat.booldual import (
    BoolSystem,
    BoolSystemMorphism,
    all_homs,
    bool_morphism_of,
    bool_system_of,
    compose_bool_morphisms,
    duality_classify,
    functor_F,
    functor_G,
    pushout_bool,
    PowerLattice,
    system_of_bool,
)
from syscat.circuits import compile_circuit, emergence_report, glue, parse_glue, parse_netlist
from syscat.equations import arr_eq, kernel_rep
from syscat.errors import MismatchError
from syscat.finset import FinMap, FinObj
from syscat.generalized import GeneralizedSystem, adjunction_check, diagonal
from syscat.laws import (
    _gen_equation,
    adjunction_suite,
    lattice_suite,
    preservation_suite,
)
from syscat.systems import (
    behavior_image,
    classify_morphism,
    make_morphism,
    pullback_systems,
    system_from_behavior,
    systems_equal,
    terminal_system,
)
from syscat.vect import VectObj

S_TEXT = (
    "circuit S\nnode a b c d\nterminal a b c d\nresistor ac a c 1\nwire bd b d\n"
)
P_TEXT = (
    "circuit P\nnode e f g h i j\nterminal e f i j\n"
    "wire eg e g\nwire gi g i\nwire fh f h\nwire hj h j\nresistor gh g h 1\n"
)


@contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_s:
        print(f"ACCEPTANCE {number} ({description}): FAIL (took {elapsed:.2f}s > {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget")
    print(f"ACCEPTANCE {number} ({description}): PASS ({elapsed:.2f}s)")


def test_criterion_1_circuit_dimensions():
    with criterion(1, "circuit dimensions", 1.0):
        s = compile_circuit(parse_netlist(S_TEXT))
        assert s.universum.dim == 6
        assert behavior_image(s.system).dim == 4
        assert oracles.nullity(matrix_of(s.rep.f1), 6) == 4
        p = compile_circuit(parse_netlist(P_TEXT))
        assert p.universum.dim == 11
        assert behavior_image(p.system).dim == 4
        assert oracles.nullity(matrix_of(p.rep.f1), 11) == 4


def test_criterion_2_series_resistor_law():
    with criterion(2, "two-resistor series law", 1.0):
        r1 = parse_netlist("circuit R1\nnode a b\nterminal a b\nresistor ab a b 1\n")
        r2 = parse_netlist("circuit R2\nnode c d\nterminal c d\nresistor cd c d 2\n")
        spec = parse_glue("glue RR\nidentify v_b = v_c\nidentify i_ab = i_cd\n")
        res = glue(r1, r2, spec)
        law = (1, 0, -3, -1)  # v_a - v_d - 3 i = 0 over (v_a, v_b=v_c, i, v_d)
        assert contains(dense_subspace(res.universum, matrix_of(res.rep.f1)), law)
        assert oracles.in_row_space(matrix_of(res.rep.f1), law, 4)


def test_criterion_3_preservation_theorem():
    with criterion(3, "syntax/semantics preservation 200+50", 30.0):
        report = preservation_suite(seed=20240, trials=200)
        finset_suite, vect_suite = report.suites
        assert (finset_suite.passed, finset_suite.total) == (200, 200)
        assert (vect_suite.passed, vect_suite.total) == (50, 50)


def test_criterion_4_emergence_reproduction():
    with criterion(4, "emergence dims 4 / 1 / 3", 1.0):
        s = parse_netlist(
            "circuit S_aug\nnode a b c d i j\nterminal a b c d i j\n"
            "resistor ac a c 1\nwire bd b d\n"
        )
        p = parse_netlist(
            "circuit P_aug\nnode a b e f g h i j\nterminal a b e f i j\n"
            "wire eg e g\nwire gi g i\nwire fh f h\nwire hj h j\nresistor gh g h 1\n"
        )
        spec = parse_glue(
            "glue SP_aug\n"
            "identify v_a = v_a\nidentify v_b = v_b\nidentify v_c = v_e\n"
            "identify v_d = v_f\nidentify v_i = v_i\nidentify v_j = v_j\n"
            "identify i_ac = i_eg\nidentify i_bd = i_fh\n"
        )
        obs = ("v_a", "v_b", "v_i", "v_j")
        closed = emergence_report(s, p, replace(spec, close_dangling=True), obs)
        assert (closed.parts_dim, closed.whole_dim, closed.emergent) == (4, 1, True)
        open_ = emergence_report(s, p, replace(spec, close_dangling=False), obs)
        assert (open_.parts_dim, open_.whole_dim, open_.emergent) == (4, 3, True)


def test_criterion_5_bool_duality():
    with criterion(5, "powerset duality roundtrips", 30.0):
        # exhaustive: all maps between sets of size <= 4, both roundtrips
        maps_checked = 0
        for ns in range(5):
            for nt in range(5):
                s = FinObj(tuple(f"s{i}" for i in range(ns)))
                t = FinObj(tuple(f"t{i}" for i in range(nt)))
                for f in finset.all_maps(s, t):
                    phi = functor_F(f)
                    assert functor_G(phi) == f
                    assert duality_classify(f, phi).consistent
                    maps_checked += 1
        assert maps_checked == 499
        homs_checked = 0
        for ns in range(5):
            for nt in range(5):
                src = PowerLattice(FinObj(tuple(f"t{i}" for i in range(nt))))
                dst = PowerLattice(FinObj(tuple(f"s{i}" for i in range(ns))))
                for phi in all_homs(src, dst):
                    assert functor_F(functor_G(phi)) == phi
                    homs_checked += 1
        assert homs_checked == 499  # homs biject with maps
        # randomized to size 6
        rng = random.Random(5)
        for _ in range(500):
            s = FinObj(tuple(f"s{i}" for i in range(rng.randint(0, 6))))
            t = FinObj(tuple(f"t{i}" for i in range(rng.randint(1, 6))))
            f = FinMap(s, t, {x: rng.choice(t.elements) for x in s})
            phi = functor_F(f)
            assert functor_G(phi) == f
            assert functor_F(functor_G(phi)) == phi
            assert duality_classify(f, phi).consistent


def _all_bool_morphisms(a: BoolSystem, b: BoolSystem):
    for psi_u in all_homs(PowerLattice(a.universum), PowerLattice(b.universum)):
        for psi_b in all_homs(PowerLattice(a.behavior_obj), PowerLattice(b.behavior_obj)):
            try:
                yield BoolSystemMorphism(a, b, psi_u, psi_b)
            except MismatchError:
                continue


def test_criterion_6_pushout_transport():
    with criterion(6, "pushout universal property", 30.0):
        u1 = FinObj(("a", "b", "c"))
        u2 = FinObj(("x", "y"))
        uc = FinObj(("s",))
        s1 = system_from_behavior(u1, {"a", "b"})
        s2 = system_from_behavior(u2, {"x"})
        sc = system_from_behavior(uc, {"s"})
        phi = make_morphism(s1, sc, FinMap(u1, uc, {e: "s" for e in u1}))
        psi = make_morphism(s2, sc, FinMap(u2, uc, {e: "s" for e in u2}))
        bphi, bpsi = bool_morphism_of(phi), bool_morphism_of(psi)
        po = pushout_bool(bphi, bpsi)

        # equals the transport of the set-side pullback
        pb = pullback_systems(phi, psi)
        assert po.system == bool_system_of(pb.system)
        assert systems_equal(system_of_bool(po.system), pb.system)

        # universal property by exhaustive mediating-map search
        a, b = bphi.dst, bpsi.dst
        candidates = []
        for nq in (1, 2):
            uq = FinObj(tuple(f"q{i}" for i in range(nq)))
            for mask in range(1 << nq):
                candidates.append(BoolSystem(uq, mask))
        cocones = 0
        for q in candidates:
            js = list(_all_bool_morphisms(a, q))
            ks = list(_all_bool_morphisms(b, q))
            mediators_all = list(_all_bool_morphisms(po.system, q))
            for j in js:
                left = compose_bool_morphisms(j, bphi)
                for k in ks:
                    if left != compose_bool_morphisms(k, bpsi):
                        continue
                    cocones += 1
                    mediators = [
                        m
                        for m in mediators_all
                        if compose_bool_morphisms(m, po.inj1) == j
                        and compose_bool_morphisms(m, po.inj2) == k
                    ]
                    assert len(mediators) == 1
        assert cocones > 0


def test_criterion_7_adjunction():
    with criterion(7, "diagonal/equalizer adjunction", 60.0):
        report = adjunction_suite(seed=777, trials=50)
        suite = report.suites[0]
        assert (suite.passed, suite.total) == (50, 50)
        # plus a few structured instances
        rng = random.Random(778)
        g = GeneralizedSystem(FinMap(FinObj(("1", "2")), FinObj(("a",)), {"1": "a", "2": "a"}))
        assert adjunction_check(g, diagonal(g)).ok
        for _ in range(5):
            assert adjunction_check(g, _gen_equation(rng)).ok


def test_criterion_8_lattice_properties():
    with criterion(8, "lattice meet/modularity", 10.0):
        report = lattice_suite(seed=88, trials=100)
        meet, modular = report.suites
        assert (meet.passed, meet.total) == (100, 100)
        assert (modular.passed, modular.total) == (100, 100)


def test_criterion_9_morphism_taxonomy():
    with criterion(9, "worked morphism taxonomy", 1.0):
        s = compile_circuit(parse_netlist(S_TEXT)).system
        p = compile_circuit(parse_netlist(P_TEXT)).system

        u_sc = VectObj(("v_a2", "v_b2", "v_c2", "i_ac2", "i_bc2"))
        s_c = arr_eq(
            kernel_rep(
                dense_map(u_sc, VectObj(("ohm", "wire")), ((1, 0, -1, -1, 0), (0, 1, -1, 0, 0)))
            )
        )
        cols = {
            "v_a2": {"v_a": 1},
            "v_b2": {"v_b": 1},
            "v_c2": {"v_c": 1, "v_d": 1},
            "i_ac2": {"i_ac": 1},
            "i_bc2": {"i_bd": 1},
        }
        phi_u = dense_map(
            u_sc,
            s.universum,
            [
                [Fraction(cols[sv].get(dv, 0)) for sv in u_sc.vars]
                for dv in s.universum.vars
            ],
        )
        controlled = classify_morphism(make_morphism(s_c, s, phi_u))
        assert controlled.controlled and not controlled.subsystem

        u_ps = VectObj(("v_g2", "v_h2", "i_gh2"))
        ps = arr_eq(kernel_rep(dense_map(u_ps, VectObj(("ohm",)), ((1, -1, -1),))))
        proj = vect.coordinate_map(
            p.universum, u_ps, {"v_g": "v_g2", "v_h": "v_h2", "i_gh": "i_gh2"}
        )
        subsystem = classify_morphism(make_morphism(p, ps, proj))
        assert subsystem.subsystem and subsystem.quasi_subsystem
        assert not subsystem.controlled

        terminal = terminal_system("vect")
        to_terminal = classify_morphism(
            make_morphism(s, terminal, vect.zero_map(s.universum, terminal.universum))
        )
        assert to_terminal.subsystem
