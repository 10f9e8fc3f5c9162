"""The carrier dispatch and ``lift``, the one factorization behind every mediator.

``lift(ms, fs)`` is checked against independent references: in FinSet a
brute-force search over every map of ``finset.all_maps``, in Vect sympy ranks
and plain ``Fraction`` products. The families are jointly mono, as every
caller's are (product and pullback projections, equalizers, inclusions), so
the reference must find at most one factorization, and ``lift`` must return
``None`` exactly when it finds none.
"""

import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syscat import carriers, finset, vect
from syscat.errors import MismatchError
from syscat.finset import FinMap, FinObj
from syscat.vect import LinMap, VectObj

from dense_kernels import dense_map, dense_subspace, matrix_of
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
    return dense_map(dom, cod, tuple(
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
        a = [row for m in ms for row in matrix_of(m)]
        b = [row for f in fs for row in matrix_of(f)]
        augmented = [tuple(ar) + tuple(br) for ar, br in zip(a, b)]
        assert _rank(a, dom.dim) == dom.dim
        consistent = _rank(augmented, dom.dim + apex.dim) == _rank(a, dom.dim)
        u = carriers.lift(ms, fs)
        if not consistent:
            assert u is None
            continue
        found += 1
        assert u is not None and u.dom == apex and u.cod == dom
        assert _product(a, matrix_of(u), dom.dim, apex.dim) == tuple(map(tuple, b))
    assert 30 < found < 130  # both outcomes are exercised


# -- commutes: a . b == c . d without building either composite --------------------
#
# A square is b : A -> B, a : B -> D, d : A -> C, c : C -> D. Half of the drawn
# squares are built to commute, and some of those are then perturbed, so both
# answers occur. The reference composes with plain dicts in FinSet and with
# the dense Fraction product of ``oracles`` in Vect.

def _table(draw, dom, cod):
    return {x: draw(st.sampled_from(cod.elements)) for x in dom}


@st.composite
def fin_squares(draw):
    def obj(prefix, lo):
        return FinObj(tuple(f"{prefix}{i}" for i in range(draw(st.integers(lo, 3)))))

    a_obj, b_obj, c_obj, d_obj = obj("a", 0), obj("b", 1), obj("c", 1), obj("d", 1)
    b = FinMap(a_obj, b_obj, _table(draw, a_obj, b_obj))
    a = FinMap(b_obj, d_obj, _table(draw, b_obj, d_obj))
    c = FinMap(c_obj, d_obj, _table(draw, c_obj, d_obj))
    if draw(st.booleans()):
        # send x into c's fiber over a(b(x)) wherever it is inhabited
        d_table = {}
        for x in a_obj:
            fiber = [y for y in c_obj if c.table[y] == a.table[b.table[x]]]
            d_table[x] = draw(st.sampled_from(fiber or c_obj.elements))
    else:
        d_table = _table(draw, a_obj, c_obj)
    return a, b, c, FinMap(a_obj, c_obj, d_table)


ENTRY = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))  # zero, negative, rational
DIM = st.integers(0, 3)


def _dense(draw, nrows, ncols):
    return tuple(tuple(draw(ENTRY) for _ in range(ncols)) for _ in range(nrows))


@st.composite
def vect_squares(draw):
    a_obj, b_obj, d_obj = (_vectobj(p, draw(DIM)) for p in "abd")
    b = dense_map(a_obj, b_obj, _dense(draw, b_obj.dim, a_obj.dim))
    a = dense_map(b_obj, d_obj, _dense(draw, d_obj.dim, b_obj.dim))
    if not draw(st.booleans()):
        c_obj = _vectobj("c", draw(DIM))
        c = dense_map(c_obj, d_obj, _dense(draw, d_obj.dim, c_obj.dim))
        return a, b, c, dense_map(a_obj, c_obj, _dense(draw, c_obj.dim, a_obj.dim))
    # c = (a | k) and d = (b ; m) with k m = 0, so c . d = a . b
    extra = draw(DIM)
    k, m = _dense(draw, d_obj.dim, extra), _dense(draw, extra, a_obj.dim)
    if draw(st.booleans()):
        k = tuple(tuple(Fraction(0) for _ in row) for row in k)
    else:
        m = tuple(tuple(Fraction(0) for _ in row) for row in m)
    c_obj = _vectobj("c", b_obj.dim + extra)
    c_rows = tuple(ar + kr for ar, kr in zip(matrix_of(a), k))
    d_rows = [list(row) for row in matrix_of(b) + m]
    if d_rows and d_rows[0] and draw(st.booleans()):
        d_rows[0][0] += 1
    return a, b, dense_map(c_obj, d_obj, c_rows), dense_map(a_obj, c_obj, d_rows)


def _reference_compose(g, f):
    if isinstance(f, FinMap):
        return {x: g.table[f.table[x]] for x in f.dom}
    if f.cod.dim == 0:
        return tuple(tuple(Fraction(0) for _ in f.dom.vars) for _ in g.cod.vars)
    return oracles.dense_mat_mul(matrix_of(g), matrix_of(f), f.cod.dim)


SQUARES = st.one_of(fin_squares(), vect_squares())


@settings(deadline=None, max_examples=200)
@given(SQUARES)
def test_commutes_matches_the_composites(square):
    a, b, c, d = square
    want = _reference_compose(a, b) == _reference_compose(c, d)
    assert carriers.commutes(a, b, c, d) is want
    assert (carriers.compose(a, b) == carriers.compose(c, d)) is want


def test_commutes_on_fixed_squares():
    x = FinObj(("1", "2"))
    swap = FinMap(x, x, {"1": "2", "2": "1"})
    ident = finset.identity(x)
    assert carriers.commutes(swap, swap, ident, ident)
    assert not carriers.commutes(swap, ident, ident, ident)
    line = VectObj(("x",))
    half, two, one = (dense_map(line, line, ((q,),)) for q in ("1/2", 2, 1))
    assert carriers.commutes(half, two, one, one)
    assert not carriers.commutes(half, half, one, one)


def _relabelled(f, end):
    """f between other objects: its domain (end "dom") or codomain (end "cod") renamed."""
    def z(label):
        return f"z{label}"

    if isinstance(f, FinMap):
        if end == "dom":
            return FinMap(FinObj(map(z, f.dom)), f.cod, {z(x): y for x, y in f.table.items()})
        return FinMap(f.dom, FinObj(map(z, f.cod)), {x: z(y) for x, y in f.table.items()})
    if end == "dom":
        return LinMap.from_rows(VectObj(tuple(map(z, f.dom.vars))), f.cod, f.rows)
    return LinMap.from_rows(f.dom, VectObj(tuple(map(z, f.cod.vars))), f.rows)


@settings(deadline=None, max_examples=100)
@given(SQUARES, st.integers(0, 3), st.sampled_from(("dom", "cod")))
def test_commutes_refuses_a_non_square(square, i, end):
    f = square[i]
    obj = getattr(f, end)
    # renaming an empty object changes nothing
    assume(len(obj) if isinstance(obj, FinObj) else obj.dim)
    broken = list(square)
    broken[i] = _relabelled(f, end)
    with pytest.raises(MismatchError, match="do not form a square"):
        carriers.commutes(*broken)


def test_commutes_refuses_mixed_carriers():
    ident = finset.identity(FinObj(("a",)))
    lin = vect.identity(VectObj(("x",)))
    with pytest.raises(MismatchError):
        carriers.commutes(ident, ident, lin, lin)


# -- mediators check the cone against the family ---------------------------------

QXY = VectObj(("x", "y"))
QX = VectObj(("x",))


def test_vect_equalizer_mediate_rejects_a_map_into_another_space():
    zero = vect.zero_map(QXY, QX)
    eq = carriers.equalizer(zero, zero)
    h = dense_map(VectObj(("c",)), VectObj(("a",)), ((1,),))
    with pytest.raises(MismatchError):
        carriers.equalizer_mediate(eq, h)


def test_vect_pullback_mediate_rejects_a_cone_of_the_wrong_shape():
    ident = vect.identity(QX)
    pb = carriers.pullback(ident, ident)
    apex = VectObj(("c",))
    # rows (q1; q2) = (1, 1, 5): only the first two match the projections' rows
    q1 = dense_map(apex, QXY, ((1,), (1,)))
    q2 = dense_map(apex, QX, ((5,),))
    with pytest.raises(MismatchError):
        carriers.pullback_mediate(pb, q1, q2)


def test_finset_equalizer_mediate_rejects_a_map_into_another_set():
    a = FinObj(("a", "b"))
    const = FinMap(a, FinObj(("0",)), {"a": "0", "b": "0"})
    eq = carriers.equalizer(const, const)
    h = FinMap(FinObj(("x",)), FinObj(("a", "b", "c")), {"x": "a"})
    with pytest.raises(MismatchError):
        carriers.equalizer_mediate(eq, h)


# -- pullback_map: the map between pullbacks a pair of arrows induces -------------

def _cospans_and_pair(rng, carrier):
    """Top legs x1 -> z <- x2, bottom legs y1 -> w <- y2, and a_i: x_i -> y_i.

    Half the time the top legs are g_i . a_i, so (a1, a2, id_w) is a
    morphism of cospans; otherwise they are drawn freely into their own z,
    and the induced cone may or may not commute over the bottom cospan.
    FinSet codomains have at least one element, so every map can be drawn.
    """
    in_finset = carrier == "finset"

    def obj(prefix, lo):
        return _finobj(rng, prefix, lo, 3) if in_finset else _vectobj(prefix, rng.randint(0, 3))

    def arrow(dom, cod):
        return (_finmap if in_finset else _linmap)(rng, dom, cod)

    x1, x2 = obj("x", 0), obj("xx", 0)
    y1, y2, w = obj("y", 1), obj("yy", 1), obj("w", 1)
    a1, a2 = arrow(x1, y1), arrow(x2, y2)
    g1, g2 = arrow(y1, w), arrow(y2, w)
    if rng.random() < 0.5:
        f1, f2 = carriers.compose(g1, a1), carriers.compose(g2, a2)
    else:
        z = obj("z", 1)
        f1, f2 = arrow(x1, z), arrow(x2, z)
    return carriers.pullback(f1, f2), carriers.pullback(g1, g2), a1, a2


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False), st.sampled_from(("finset", "vect")))
def test_pullback_map_commutes_and_is_compose_then_mediate(rng, carrier):
    top, bottom, a1, a2 = _cospans_and_pair(rng, carrier)
    q1, q2 = carriers.compose(a1, top.proj1), carriers.compose(a2, top.proj2)
    try:
        want = carriers.pullback_mediate(bottom, q1, q2)
    except MismatchError:
        with pytest.raises(MismatchError):
            carriers.pullback_map(top, bottom, a1, a2)
        return
    u = carriers.pullback_map(top, bottom, a1, a2)
    assert u == want
    assert carriers.commutes(bottom.proj1, u, a1, top.proj1)
    assert carriers.commutes(bottom.proj2, u, a2, top.proj2)


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
        sub = dense_subspace(amb, rows)
        m = carriers.subobject_map(amb, sub)
        assert carriers.classify_map(m).mono and m.dom.dim == sub.dim
        assert carriers.image(m) == sub


# -- one dispatch: non-carrier and mixed-carrier values ---------------------------

@pytest.mark.parametrize("op", [
    carriers.identity, carriers.terminal_map, carriers.classify_map, carriers.image_factorize,
    carriers.image, carriers.commutes,
])
def test_non_carrier_value_is_a_mismatch(op):
    with pytest.raises(MismatchError):
        op(*["x"] * len(inspect.signature(op).parameters))


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
