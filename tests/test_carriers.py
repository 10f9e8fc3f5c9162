"""The carrier dispatch and ``lift``, the one factorization behind every mediator.

``lift(ms, fs)`` is checked against independent references: in FinSet a
brute-force search over every map of ``finset.all_maps``, in Vect sympy ranks
and plain ``Fraction`` products. The families are jointly mono, as every
caller's are (product and pullback projections, equalizers, inclusions), so
the reference must find at most one factorization, and ``lift`` must return
``None`` exactly when it finds none.
"""

import random
from fractions import Fraction

import pytest

from syscat import carriers, finset, vect
from syscat.errors import MismatchError
from syscat.finset import FinMap, FinObj
from syscat.vect import LinMap, VectObj

import oracles


def _finobj(rng, prefix, lo, hi):
    return FinObj(tuple(f"{prefix}{i}" for i in range(rng.randint(lo, hi))))


def _finmap(rng, dom, cod):
    return FinMap(dom, cod, {x: rng.choice(cod.elements) for x in dom})


def _jointly_injective_family(rng, dom):
    while True:
        cods = [_finobj(rng, f"b{i}_", 1, 3) for i in range(rng.randint(1, 2))]
        ms = tuple(_finmap(rng, dom, cod) for cod in cods)
        if len(set(zip(*(map(m, dom) for m in ms)))) == len(dom):
            return ms


def test_finset_lift_matches_brute_force():
    rng = random.Random(11)
    found = 0
    for _ in range(400):
        dom = _finobj(rng, "a", 0, 3)
        ms = _jointly_injective_family(rng, dom)
        apex = _finobj(rng, "x", 0, 3)
        if dom.elements and rng.random() < 0.5:
            u0 = _finmap(rng, apex, dom)
            fs = tuple(finset.compose(m, u0) for m in ms)
        else:
            fs = tuple(_finmap(rng, apex, m.cod) for m in ms)
        witnesses = [
            u for u in finset.all_maps(apex, dom)
            if all(finset.compose(m, u) == f for m, f in zip(ms, fs))
        ]
        assert len(witnesses) <= 1
        expected = witnesses[0] if witnesses else None
        assert carriers.lift(ms, fs) == expected
        found += bool(witnesses)
    assert 50 < found < 350  # both outcomes are exercised


def _vectobj(prefix, n):
    return VectObj(tuple(f"{prefix}{i}" for i in range(n)))


def _linmap(rng, dom, cod):
    return LinMap(dom, cod, tuple(
        tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dom.dim))
        for _ in range(cod.dim)
    ))


def _rank(rows, ncols):
    return oracles.rank(rows, ncols) if rows and ncols else 0


def _product(a_rows, b_rows, inner, ncols):
    return tuple(
        tuple(sum((a[k] * b_rows[k][j] for k in range(inner)), Fraction(0)) for j in range(ncols))
        for a in a_rows
    )


def _vect_family(rng):
    """A jointly mono family: the projections of a pullback or an equalizer's arrow."""
    z = _vectobj("z", rng.randint(1, 3))
    x1, x2 = _vectobj("p", rng.randint(0, 3)), _vectobj("q", rng.randint(0, 3))
    if rng.random() < 0.5:
        _, p1, p2 = vect.pullback(_linmap(rng, x1, z), _linmap(rng, x2, z))
        return (p1, p2)
    _, arrow = vect.equalizer(_linmap(rng, x1, z), _linmap(rng, x1, z))
    return (arrow,)


def test_vect_lift_matches_sympy():
    rng = random.Random(5)
    found = 0
    for _ in range(150):
        ms = _vect_family(rng)
        dom = ms[0].dom
        apex = _vectobj("h", rng.randint(0, 3))
        if dom.dim and rng.random() < 0.5:
            u0 = _linmap(rng, apex, dom)
            fs = tuple(vect.compose(m, u0) for m in ms)
        else:
            fs = tuple(_linmap(rng, apex, m.cod) for m in ms)
        a = [row for m in ms for row in m.matrix]
        b = [row for f in fs for row in f.matrix]
        augmented = [tuple(ar) + tuple(br) for ar, br in zip(a, b)]
        assert _rank(a, dom.dim) == dom.dim
        consistent = _rank(augmented, dom.dim + apex.dim) == _rank(a, dom.dim)
        u = carriers.lift(ms, fs)
        if not consistent:
            assert u is None
            continue
        found += 1
        assert u is not None and u.dom == apex and u.cod == dom
        assert _product(a, u.matrix, dom.dim, apex.dim) == tuple(map(tuple, b))
    assert 30 < found < 130  # both outcomes are exercised


# -- mediators check the cone against the family ---------------------------------

QXY = VectObj(("x", "y"))
QX = VectObj(("x",))


def test_vect_equalizer_mediate_rejects_a_map_into_another_space():
    zero = vect.zero_map(QXY, QX)
    eq = carriers.equalizer(zero, zero)
    h = LinMap(VectObj(("c",)), VectObj(("a",)), ((1,),))
    with pytest.raises(MismatchError):
        carriers.equalizer_mediate(eq, h)


def test_vect_pullback_mediate_rejects_a_cone_of_the_wrong_shape():
    ident = vect.identity(QX)
    pb = carriers.pullback(ident, ident)
    apex = VectObj(("c",))
    # rows (q1; q2) = (1, 1, 5): only the first two match the projections' rows
    q1 = LinMap(apex, QXY, ((1,), (1,)))
    q2 = LinMap(apex, QX, ((5,),))
    with pytest.raises(MismatchError):
        carriers.pullback_mediate(pb, q1, q2)


def test_finset_equalizer_mediate_rejects_a_map_into_another_set():
    a = FinObj(("a", "b"))
    const = FinMap(a, FinObj(("0",)), {"a": "0", "b": "0"})
    eq = carriers.equalizer(const, const)
    h = FinMap(FinObj(("x",)), FinObj(("a", "b", "c")), {"x": "a"})
    with pytest.raises(MismatchError):
        carriers.equalizer_mediate(eq, h)


# -- subobjects ------------------------------------------------------------------

def test_image_of_subobject_map_is_the_subobject():
    rng = random.Random(13)
    for _ in range(100):
        u = _finobj(rng, "u", 0, 5)
        b = frozenset(x for x in u if rng.random() < 0.5)
        m = carriers.subobject_map(u, b)
        assert carriers.classify_map(m).mono
        assert carriers.image(m) == b
        amb = VectObj(tuple(f"v{i}" for i in range(rng.randint(0, 5))))
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in amb.vars]
                for _ in range(rng.randint(0, amb.dim + 1))]
        sub = vect.Subspace(amb, rows)
        m = carriers.subobject_map(amb, sub)
        assert carriers.classify_map(m).mono and m.dom.dim == sub.dim
        assert carriers.image(m) == sub


# -- one dispatch: non-carrier and mixed-carrier values ---------------------------

@pytest.mark.parametrize("op", [
    carriers.identity, carriers.terminal_map, carriers.classify_map, carriers.image_factorize,
    carriers.image,
])
def test_non_carrier_value_is_a_mismatch(op):
    with pytest.raises(MismatchError):
        op("x")


def _finset_and_vect_cones():
    a = FinObj(("a", "b"))
    ident = finset.identity(a)
    h = vect.identity(QX)
    return (
        lambda: carriers.equalizer_mediate(carriers.equalizer(ident, ident), h),
        lambda: carriers.pullback_mediate(carriers.pullback(ident, ident), h, h),
        lambda: carriers.product_mediate(carriers.product(a, a), h, h),
    )


@pytest.mark.parametrize("call", _finset_and_vect_cones(), ids=["equalizer", "pullback", "product"])
def test_mediating_a_vect_cone_over_a_finset_family_is_a_mismatch(call):
    with pytest.raises(MismatchError):
        call()
