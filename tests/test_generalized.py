import itertools
import random
from fractions import Fraction

import pytest

from syscat import carriers, finset, vect
from syscat.equations import EquationRep, arr_eq, kernel_rep
from syscat.errors import DomainError, MismatchError
from syscat.finset import FinMap, FinObj
from syscat.generalized import (
    GenEquation,
    GenEquationMorphism,
    GeneralizedSystem,
    GenSystemMorphism,
    adjunction_check,
    diagonal,
    diagonal_morphism,
    embed_equation,
    embed_equation_morphism,
    gen_system_homs,
    identity_gen_morphism,
    image_system,
    image_system_morphism,
    obj_eq,
    obj_eq_morphism,
    pullback_gen_equations,
    pullback_gen_systems,
)
from syscat.laws import _finset_equation_cospan, _gen_equation
from syscat.systems import behavior_image, classify_morphism, systems_equal
from syscat.vect import VectObj

from dense_kernels import contains, dense_map


def gen(dom_labels, cod_labels, table):
    return GeneralizedSystem(FinMap(FinObj(tuple(dom_labels)), FinObj(tuple(cod_labels)), table))


def test_image_system_examples():
    mono = gen("1", "ab", {"1": "a"})
    assert behavior_image(image_system(mono)) == frozenset({"a"})

    const = gen("12", "ab", {"1": "a", "2": "a"})
    assert behavior_image(image_system(const)) == frozenset({"a"})

    rank_one = GeneralizedSystem(
        dense_map(VectObj(("x", "y")), VectObj(("u", "v")), ((1, 2), (2, 4)))
    )
    sub = behavior_image(image_system(rank_one))
    assert sub.dim == 1 and contains(sub, (1, 2))


def test_image_system_is_functorial():
    g = gen("12", "ab", {"1": "a", "2": "a"})
    h = gen("34", "cd", {"3": "c", "4": "d"})
    phi = GenSystemMorphism(
        g, h,
        FinMap(g.domain, h.domain, {"1": "3", "2": "3"}),
        FinMap(g.codomain, h.codomain, {"a": "c", "b": "d"}),
    )
    m = image_system_morphism(phi)
    assert m.phi_u == phi.phi_u
    ident = image_system_morphism(identity_gen_morphism(g))
    assert ident.phi_u == finset.identity(g.codomain)
    # already-injective systems come back unchanged
    s = image_system(gen("1", "ab", {"1": "b"}))
    assert behavior_image(s) == frozenset({"b"})


def test_obj_eq_of_diagonal_recovers_the_system():
    g = gen("123", "ab", {"1": "a", "2": "a", "3": "b"})
    recovered = obj_eq(diagonal(g))
    assert recovered.domain == g.domain
    assert recovered.codomain == g.codomain
    assert recovered.arrow == g.arrow


def test_obj_eq_morphism_computes_each_equalizer_once(monkeypatch):
    g = gen("12", "ab", {"1": "a", "2": "b"})
    t = diagonal_morphism(identity_gen_morphism(g))
    calls = []
    equalizer = carriers.equalizer
    monkeypatch.setattr(carriers, "equalizer", lambda f, h: calls.append(f) or equalizer(f, h))
    m = obj_eq_morphism(t)
    assert len(calls) == 4  # the two component equalizers of source and of target
    monkeypatch.undo()
    assert m == identity_gen_morphism(obj_eq(diagonal(g)))


def test_obj_eq_componentwise_agreement():
    g = gen("123", "xyz", {"1": "x", "2": "y", "3": "z"})
    gp = gen("123", "xyz", {"1": "x", "2": "y", "3": "z"})
    phi_c1 = FinMap(g.domain, gp.domain, {"1": "1", "2": "1", "3": "3"})
    phi_c2 = FinMap(g.domain, gp.domain, {"1": "1", "2": "2", "3": "3"})
    phi_u1 = FinMap(g.codomain, gp.codomain, {"x": "x", "y": "x", "z": "z"})
    phi_u2 = FinMap(g.codomain, gp.codomain, {"x": "x", "y": "y", "z": "z"})
    e = GenEquation(
        GenSystemMorphism(g, gp, phi_c1, phi_u1), GenSystemMorphism(g, gp, phi_c2, phi_u2)
    )
    ge = obj_eq(e)
    assert set(ge.domain.elements) == {"1", "3"}
    assert set(ge.codomain.elements) == {"x", "z"}


def test_embedded_rep_agrees_with_interpretation():
    dom, cod = FinObj(("1", "2", "3")), FinObj(("a", "b"))
    rep = EquationRep(
        FinMap(dom, cod, {"1": "a", "2": "a", "3": "b"}),
        FinMap(dom, cod, {"1": "a", "2": "b", "3": "b"}),
    )
    e = embed_equation(rep)
    ge = obj_eq(e)
    eu = carriers.equalizer(e.phi1.phi_u, e.phi2.phi_u)
    composite = carriers.compose(eu.arrow, ge.arrow)
    assert composite == arr_eq(rep).inclusion

    full = EquationRep(rep.f1, rep.f1)
    assert set(obj_eq(embed_equation(full)).domain.elements) == {"1", "2", "3"}


def test_embedded_kernel_rep_agrees_in_vect():
    u = VectObj(("v_a", "v_b", "i"))
    rep = kernel_rep(dense_map(u, VectObj(("e",)), ((-1, 1, 2),)))
    e = embed_equation(rep)
    ge = obj_eq(e)
    eu = carriers.equalizer(e.phi1.phi_u, e.phi2.phi_u)
    composite = carriers.compose(eu.arrow, ge.arrow)
    assert vect.image(composite) == behavior_image(arr_eq(rep))


def test_diagonal_is_functorial():
    g = gen("12", "ab", {"1": "a", "2": "b"})
    h = gen("1", "a", {"1": "a"})
    m = GenSystemMorphism(
        g, h, FinMap(g.domain, h.domain, {"1": "1", "2": "1"}),
        FinMap(g.codomain, h.codomain, {"a": "a", "b": "a"}),
    )
    dm = diagonal_morphism(m)
    assert obj_eq_morphism(dm).phi_u == m.phi_u


def test_gen_system_morphism_square_is_checked():
    g = gen("12", "ab", {"1": "a", "2": "b"})
    swap = FinMap(g.domain, g.domain, {"1": "2", "2": "1"})
    with pytest.raises(MismatchError, match="does not commute"):
        GenSystemMorphism(g, g, swap, finset.identity(g.codomain))
    assert GenSystemMorphism(g, g, swap, FinMap(g.codomain, g.codomain, {"a": "b", "b": "a"}))


def _first_failing_face(e, taus):
    """The first face of e => e with components taus that fails to commute, by dict composition."""
    tau1, tau2, tau3, tau4 = (t.table for t in taus)
    g, gp = e.src.arrow.table, e.dst.arrow.table

    def square(a, b, c, d):  # a . b == c . d
        return all(a[b[x]] == c[d[x]] for x in b)

    faces = [("top", g, tau1, tau2, g), ("bottom", gp, tau3, tau4, gp)]
    for i, phi in enumerate((e.phi1, e.phi2), start=1):
        faces.append((f"left{i}", phi.phi_c.table, tau1, tau3, phi.phi_c.table))
        faces.append((f"right{i}", phi.phi_u.table, tau2, tau4, phi.phi_u.table))
    return next((face for face, *maps in faces if not square(*maps)), None)


def test_equation_morphism_faces_are_checked():
    g = gen("12", "ab", {"1": "a", "2": "b"})
    e = diagonal(g)
    bad = FinMap(g.domain, g.domain, {"1": "2", "2": "1"})
    good = finset.identity(g.codomain)
    with pytest.raises(MismatchError, match="face top does not commute"):
        GenEquationMorphism(e, e, bad, good, finset.identity(g.domain), good)
    # phi1 collapses the domain and phi2 does not, and c lies outside h's image
    # where the two disagree, so each of the six faces fails first for some
    # endomorphism of eq (a search over all candidate pairs found this one)
    h = gen("12", "abc", {"1": "a", "2": "b"})
    hp = gen("pq", "st", {"p": "s", "q": "t"})
    phi1 = GenSystemMorphism(h, hp, FinMap(h.domain, hp.domain, {"1": "p", "2": "p"}),
                             FinMap(h.codomain, hp.codomain, {"a": "s", "b": "s", "c": "t"}))
    phi2 = GenSystemMorphism(h, hp, FinMap(h.domain, hp.domain, {"1": "p", "2": "q"}),
                             FinMap(h.codomain, hp.codomain, {"a": "s", "b": "t", "c": "s"}))
    eq = GenEquation(phi1, phi2)
    seen = set()
    for taus in itertools.product(*(
        list(finset.all_maps(obj, obj)) for obj in (h.domain, h.codomain, hp.domain, hp.codomain)
    )):
        face = _first_failing_face(eq, taus)
        seen.add(face)
        if face is None:
            GenEquationMorphism(eq, eq, *taus)
            continue
        with pytest.raises(MismatchError, match=f"face {face} does not commute"):
            GenEquationMorphism(eq, eq, *taus)
    assert seen == {None, "top", "bottom", "left1", "right1", "left2", "right2"}


def test_obj_eq_preserves_pullbacks_on_embedded_cospans():
    rng = random.Random(77)
    for _ in range(15):
        m, n = _finset_equation_cospan(rng)
        gm, gn = embed_equation_morphism(m), embed_equation_morphism(n)
        eq, pm, pn = pullback_gen_equations(gm, gn)
        lhs = obj_eq(eq)
        k, pk, qk = pullback_gen_systems(obj_eq_morphism(gm), obj_eq_morphism(gn))
        # the mediating comparison morphism must exist and be an iso componentwise
        cpb = carriers.PullbackResult(k.domain, pk.phi_c, qk.phi_c)
        upb = carriers.PullbackResult(k.codomain, pk.phi_u, qk.phi_u)
        h_c = carriers.pullback_mediate(
            cpb, obj_eq_morphism(pm).phi_c, obj_eq_morphism(pn).phi_c
        )
        h_u = carriers.pullback_mediate(
            upb, obj_eq_morphism(pm).phi_u, obj_eq_morphism(pn).phi_u
        )
        GenSystemMorphism(lhs, k, h_c, h_u)  # validates the commuting square
        assert carriers.classify_map(h_c).iso
        assert carriers.classify_map(h_u).iso


def test_obj_eq_preserves_pullbacks_on_diagonal_cospans():
    g1 = gen("12", "ab", {"1": "a", "2": "b"})
    g2 = gen("34", "cd", {"3": "c", "4": "d"})
    gc = gen("5", "e", {"5": "e"})
    m1 = GenSystemMorphism(
        g1, gc, FinMap(g1.domain, gc.domain, {"1": "5", "2": "5"}),
        FinMap(g1.codomain, gc.codomain, {"a": "e", "b": "e"}),
    )
    m2 = GenSystemMorphism(
        g2, gc, FinMap(g2.domain, gc.domain, {"3": "5", "4": "5"}),
        FinMap(g2.codomain, gc.codomain, {"c": "e", "d": "e"}),
    )
    eq, _, _ = pullback_gen_equations(diagonal_morphism(m1), diagonal_morphism(m2))
    lhs = obj_eq(eq)
    k, _, _ = pullback_gen_systems(m1, m2)
    assert lhs.domain == k.domain and lhs.codomain == k.codomain
    assert lhs.arrow == k.arrow


def _faces(t: GenEquationMorphism):
    """t's top and bottom faces, as morphisms of generalized systems."""
    return (
        GenSystemMorphism(t.src.src, t.dst.src, t.tau1, t.tau2),
        GenSystemMorphism(t.src.dst, t.dst.dst, t.tau3, t.tau4),
    )


def _assert_corners_are_face_pullbacks(m, n):
    """Each corner pair of pullback_gen_equations(m, n) is pullback_gen_systems of two faces.

    The source system and both projections' top faces come from the top
    faces of m and n; the target system and the bottom faces from theirs.
    """
    eq, pm, pn = pullback_gen_equations(m, n)
    (m_top, m_bottom), (n_top, n_bottom) = _faces(m), _faces(n)
    k_src, p_src, q_src = pullback_gen_systems(m_top, n_top)
    k_dst, p_dst, q_dst = pullback_gen_systems(m_bottom, n_bottom)
    assert (eq.src, eq.dst) == (k_src, k_dst)
    assert _faces(pm) == (p_src, p_dst)
    assert _faces(pn) == (q_src, q_dst)


def test_pullback_gen_equations_pulls_back_each_face_on_embedded_cospans():
    rng = random.Random(91)
    for _ in range(15):
        m, n = _finset_equation_cospan(rng)
        _assert_corners_are_face_pullbacks(embed_equation_morphism(m), embed_equation_morphism(n))


def test_pullback_gen_equations_pulls_back_each_face_on_diagonal_cospans():
    rng = random.Random(92)
    for _ in range(15):
        e = _gen_equation(rng)
        _assert_corners_are_face_pullbacks(diagonal_morphism(e.phi1), diagonal_morphism(e.phi2))


def test_adjunction_on_diagonal_instance():
    g = gen("12", "ab", {"1": "a", "2": "b"})
    e = diagonal(g)
    report = adjunction_check(g, e)
    assert report.ok
    endos = gen_system_homs(g, g)
    assert report.diagonal_homs == report.objeq_homs == len(endos)


def test_adjunction_on_singleton_and_random_instances():
    rng = random.Random(8)
    g0 = gen("1", "a", {"1": "a"})
    e = _gen_equation(rng)
    assert adjunction_check(g0, e).ok
    for _ in range(10):
        e = _gen_equation(rng)
        dom = FinObj(tuple(f"c{i}" for i in range(rng.randint(1, 3))))
        cod = FinObj(tuple(f"u{i}" for i in range(rng.randint(1, 3))))
        table = {x: rng.choice(cod.elements) for x in dom}
        g = GeneralizedSystem(FinMap(dom, cod, table))
        report = adjunction_check(g, e)
        assert report.ok


def test_adjunction_size_bound():
    big = FinObj(tuple(f"x{i}" for i in range(4)))
    g = GeneralizedSystem(finset.identity(big))
    with pytest.raises(DomainError):
        adjunction_check(g, diagonal(g))
