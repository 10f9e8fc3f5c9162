import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syscat import carriers, finset
from syscat.errors import MismatchError
from syscat.finset import FinMap, FinObj, all_maps

LABELS = st.sampled_from("abcdefg")
OBJS = st.sets(LABELS, min_size=1, max_size=4).map(lambda s: FinObj(tuple(s)))


@st.composite
def obj_and_map(draw):
    dom = draw(OBJS)
    cod = draw(OBJS)
    table = {x: draw(st.sampled_from(cod.elements)) for x in dom}
    return FinMap(dom, cod, table)


def test_objects_are_canonically_sorted():
    assert FinObj(("b", "a")).elements == ("a", "b")
    with pytest.raises(MismatchError):
        FinObj(("a", "a"))


def test_map_table_must_be_total_and_land_in_cod():
    dom, cod = FinObj(("x", "y")), FinObj(("a",))
    with pytest.raises(MismatchError, match="defined on exactly the domain"):
        FinMap(dom, cod, {"x": "a"})
    with pytest.raises(MismatchError, match="defined on exactly the domain"):
        FinMap(dom, cod, {"x": "a", "y": "a", "z": "a"})
    with pytest.raises(MismatchError, match="image 'q' of 'y' is not in the codomain"):
        FinMap(dom, cod, {"x": "a", "y": "q"})
    # a table with labels that are not str is relabelled, then refused with the same messages
    dom, cod = FinObj(("1", "2")), FinObj(("3",))
    with pytest.raises(MismatchError, match="defined on exactly the domain"):
        FinMap(dom, cod, {1: 3})
    with pytest.raises(MismatchError, match="defined on exactly the domain"):
        FinMap(dom, cod, {1: 3, 2: 3, 4: 3})
    with pytest.raises(MismatchError, match="image '5' of '2' is not in the codomain"):
        FinMap(dom, cod, {1: 3, 2: 5})
    assert FinMap(dom, cod, {1: 3, "2": 3}).table == {"1": "3", "2": "3"}


def test_map_keeps_its_own_copy_of_the_table():
    dom, cod = FinObj(("x", "y")), FinObj(("a", "b"))
    table = {"x": "a", "y": "b"}
    f = FinMap(dom, cod, table)
    before = hash(f)
    table["x"] = "q"
    del table["y"]
    assert f.table == {"x": "a", "y": "b"} and hash(f) == before


@settings(deadline=None, max_examples=50)
@given(obj_and_map(), obj_and_map())
def test_constructions_equal_the_checked_constructor(f, g):
    """Every map finset builds has str labels and is the map the constructor builds from its table."""
    built = [
        finset.identity(f.dom), finset.terminal_map(f.dom),
        carriers.pullback_map(
            carriers.product(f.dom, g.dom), carriers.product(f.cod, g.cod), f, g
        ),
        *finset.product(f.dom, g.dom)[1:], *finset.image_factorize(f),
        finset.subobject_map(f.cod, finset.image(f)), finset.equalizer(f, f)[1],
        finset.lift(finset.image_factorize(f)[1:], (f,)),
        *finset.all_maps(f.dom, g.dom),
    ]
    if f.cod == g.dom:
        built.append(finset.compose(g, f))
    if f.cod == g.cod:
        built.extend(finset.pullback(f, g)[1:])
    for m in built:
        checked = FinMap(m.dom, m.cod, m.table)
        assert m == checked and hash(m) == hash(checked)
        assert all(type(x) is str and type(y) is str for x, y in m.table.items())


def test_equal_maps_hash_equally():
    f = FinMap(FinObj(("1", "2")), FinObj(("a", "b")), {"1": "a", "2": "b"})
    relabelled = FinMap(FinObj((2, 1)), FinObj(("b", "a")), {1: "a", 2: "b"})
    composed = finset.compose(finset.identity(f.cod), f)
    assert f == relabelled == composed
    assert hash(f) == hash(relabelled) == hash(composed)
    assert len({f, relabelled, composed}) == 1
    one = FinObj(("a",))
    assert hash(finset.identity(one)) == hash(FinMap(one, one, {"a": "a"}))
    assert f != FinMap(f.dom, f.cod, {"1": "b", "2": "a"})


@settings(deadline=None, max_examples=50)
@given(obj_and_map())
def test_identity_laws(f):
    assert finset.compose(f, finset.identity(f.dom)) == f
    assert finset.compose(finset.identity(f.cod), f) == f


def test_compose_constant_through_singleton():
    f = FinMap(FinObj(("1", "2")), FinObj(("a",)), {"1": "a", "2": "a"})
    g = FinMap(FinObj(("a",)), FinObj(("x", "y")), {"a": "x"})
    assert finset.compose(g, f).table == {"1": "x", "2": "x"}


def test_compose_object_mismatch():
    f = FinMap(FinObj(("1",)), FinObj(("a",)), {"1": "a"})
    g = FinMap(FinObj(("b",)), FinObj(("c",)), {"b": "c"})
    with pytest.raises(MismatchError):
        finset.compose(g, f)


def test_product_of_pairs():
    p, p1, p2 = finset.product(FinObj(("a", "b")), FinObj(("x",)))
    assert p.elements == ("(a,x)", "(b,x)")
    assert p1.table == {"(a,x)": "a", "(b,x)": "b"}
    assert p2.table == {"(a,x)": "x", "(b,x)": "x"}


def test_product_labels_with_commas_stay_distinct():
    x, y = FinObj(("a", "a,b")), FinObj(("b,c", "c"))
    p, p1, p2 = finset.product(x, y)
    assert len(p) == 4
    assert {(p1(e), p2(e)) for e in p} == {(a, b) for a in x for b in y}


def _split_pair_label(label):
    """Left inverse of pair_label: unescape, splitting at the one unescaped comma."""
    assert label[0] == "(" and label[-1] == ")"
    parts, cur, chars = [], [], iter(label[1:-1])
    for ch in chars:
        if ch == "\\":
            cur.append(next(chars))
        elif ch == ",":
            parts.append("".join(cur))
            cur = []
        else:
            assert ch not in "()"
            cur.append(ch)
    parts.append("".join(cur))
    return tuple(parts)


# Short strings over the characters pair_label escapes, or arbitrary text.
LABEL_TEXT = st.text(st.sampled_from("ab,()\\"), max_size=5) | st.text()


@settings(deadline=None, max_examples=300)
@given(LABEL_TEXT, LABEL_TEXT)
def test_pair_label_is_injective(a, b):
    assert _split_pair_label(finset.pair_label(a, b)) == (a, b)


def test_product_with_empty_is_empty():
    p, _, _ = finset.product(FinObj(()), FinObj(("x",)))
    assert len(p) == 0


def test_pullback_of_identities_is_diagonal():
    i = finset.identity(FinObj(("a", "b")))
    k, p1, p2 = finset.pullback(i, i)
    assert k.elements == ("(a,a)", "(b,b)")
    assert p1.table == p2.table == {"(a,a)": "a", "(b,b)": "b"}


def test_pullback_over_terminal_is_product():
    f1 = finset.terminal_map(FinObj(("x", "y")))
    f2 = finset.terminal_map(FinObj(("u",)))
    k, _, _ = finset.pullback(f1, f2)
    prod, _, _ = finset.product(FinObj(("x", "y")), FinObj(("u",)))
    assert k == prod


def test_pullback_cone_property_holds():
    dom1, dom2, cod = FinObj(("1", "2", "3")), FinObj(("4", "5")), FinObj(("a", "b"))
    f1 = FinMap(dom1, cod, {"1": "a", "2": "a", "3": "b"})
    f2 = FinMap(dom2, cod, {"4": "b", "5": "a"})
    k, p1, p2 = finset.pullback(f1, f2)
    assert finset.compose(f1, p1) == finset.compose(f2, p2)
    assert set(k.elements) == {"(1,5)", "(2,5)", "(3,4)"}


def _unique_mediator_count(k, p1, p2, q1, q2):
    count = 0
    for h in all_maps(q1.dom, k):
        if finset.compose(p1, h) == q1 and finset.compose(p2, h) == q2:
            count += 1
    return count


def test_pullback_universal_property_exhaustively():
    # mediating-map verification: test-only facility, objects capped at 4
    rng = random.Random(7)
    for _ in range(15):
        sizes = [rng.randint(1, 4) for _ in range(3)]
        a1 = FinObj(tuple(f"a{i}" for i in range(sizes[0])))
        a2 = FinObj(tuple(f"b{i}" for i in range(sizes[1])))
        z = FinObj(tuple(f"z{i}" for i in range(rng.randint(1, 2))))
        f1 = FinMap(a1, z, {x: rng.choice(z.elements) for x in a1})
        f2 = FinMap(a2, z, {x: rng.choice(z.elements) for x in a2})
        k, p1, p2 = finset.pullback(f1, f2)
        h_obj = FinObj(tuple(f"h{i}" for i in range(rng.randint(1, 2))))
        cones = 0
        for q1 in all_maps(h_obj, a1):
            for q2 in all_maps(h_obj, a2):
                if finset.compose(f1, q1) == finset.compose(f2, q2):
                    cones += 1
                    assert _unique_mediator_count(k, p1, p2, q1, q2) == 1
        if len(k) > 0:
            assert cones > 0  # constant cones exist whenever the pullback is inhabited


def test_equalizer_agreement_set():
    dom, cod = FinObj(("1", "2", "3")), FinObj(("a", "b"))
    f = FinMap(dom, cod, {"1": "a", "2": "a", "3": "b"})
    g = FinMap(dom, cod, {"1": "a", "2": "b", "3": "b"})
    e_obj, e = finset.equalizer(f, g)
    assert e_obj.elements == ("1", "3")
    assert finset.compose(f, e) == finset.compose(g, e)


def test_equalizer_of_equal_maps_is_iso():
    f = FinMap(FinObj(("1", "2")), FinObj(("a",)), {"1": "a", "2": "a"})
    e_obj, e = finset.equalizer(f, f)
    assert e_obj == f.dom
    assert finset.is_injective(e) and finset.is_surjective(e)


@settings(deadline=None, max_examples=50)
@given(obj_and_map(), obj_and_map())
def test_equalizer_is_always_mono(f, g):
    if f.dom != g.dom or f.cod != g.cod:
        return
    _, e = finset.equalizer(f, g)
    assert finset.is_injective(e)


def test_image_factorization_examples():
    inj = FinMap(FinObj(("1",)), FinObj(("a", "b")), {"1": "a"})
    surj, i = finset.image_factorize(inj)
    assert finset.is_injective(surj) and finset.is_surjective(surj)  # iso

    const = FinMap(FinObj(("1", "2", "3")), FinObj(("a", "b")), {x: "a" for x in "123"})
    surj, i = finset.image_factorize(const)
    assert i.dom.elements == ("a",)
    assert finset.compose(i, surj) == const


@settings(deadline=None, max_examples=60)
@given(obj_and_map())
def test_factorization_parts_classify(f):
    surj, inj = finset.image_factorize(f)
    assert finset.is_surjective(surj)
    assert finset.is_injective(inj)
    assert finset.compose(inj, surj) == f


def test_factorizations_differ_by_unique_iso():
    f = FinMap(FinObj(("1", "2", "3")), FinObj(("a", "b", "c")), {"1": "a", "2": "a", "3": "b"})
    surj, inj = finset.image_factorize(f)
    # an alternative factorization through a relabeled middle object
    mid2 = FinObj(("m0", "m1"))
    relabel = {"a": "m0", "b": "m1"}
    surj2 = FinMap(f.dom, mid2, {k: relabel[v] for k, v in surj.table.items()})
    inj2 = FinMap(mid2, f.cod, {"m0": "a", "m1": "b"})
    assert finset.compose(inj2, surj2) == f
    isos = [
        h
        for h in all_maps(surj.cod, mid2)
        if finset.is_injective(h)
        and finset.is_surjective(h)
        and finset.compose(h, surj) == surj2
        and finset.compose(inj2, h) == inj
    ]
    assert len(isos) == 1


def test_classification_examples():
    ident = finset.identity(FinObj(("a", "b")))
    assert finset.is_injective(ident) and finset.is_surjective(ident)
    collapse = FinMap(FinObj(("1", "2")), FinObj(("a",)), {"1": "a", "2": "a"})
    assert finset.is_surjective(collapse) and not finset.is_injective(collapse)
    empty_to = FinMap(FinObj(()), FinObj(("a",)), {})
    assert finset.is_injective(empty_to) and not finset.is_surjective(empty_to)
