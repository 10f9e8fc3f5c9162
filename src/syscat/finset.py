"""Finite sets and total functions, one of the two exact carriers.

Element labels are plain strings and objects keep them sorted, so equality of
objects (and of computed subobjects such as equalizers, images, and pullbacks)
is ordinary ``==``. ``FinMap(dom, cod, table)`` keeps a copy of the table and
checks it; labels that are not ``str`` are converted with ``str()`` first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from typing import Iterator

from .errors import MismatchError


_PAIR_ESCAPES = str.maketrans({"\\": "\\\\", ",": "\\,", "(": "\\(", ")": "\\)"})


def pair_label(a: str, b: str) -> str:
    """The label ``(a,b)``, injective in (a, b): each component's ``\\ , ( )`` is escaped."""
    return f"({a.translate(_PAIR_ESCAPES)},{b.translate(_PAIR_ESCAPES)})"


@dataclass(frozen=True)
class FinObj:
    elements: tuple[str, ...]

    def __post_init__(self):
        elems = tuple(sorted(str(e) for e in self.elements))
        if len(set(elems)) != len(elems):
            raise MismatchError(f"duplicate element labels in {elems!r}")
        object.__setattr__(self, "elements", elems)
        # not a dataclass field, so == and hash still compare ``elements`` only
        object.__setattr__(self, "_members", frozenset(elems))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, label) -> bool:
        return label in self._members


def _check(dom: FinObj, cod: FinObj, table: dict[str, str]):
    """Refuse a table not defined on exactly dom or with an image outside cod."""
    if table.keys() != dom._members:
        raise MismatchError("map table must be defined on exactly the domain")
    if not cod._members.issuperset(table.values()):
        k, v = next((k, v) for k, v in table.items() if v not in cod._members)
        raise MismatchError(f"image {v!r} of {k!r} is not in the codomain")


@dataclass(frozen=True)
class FinMap:
    dom: FinObj
    cod: FinObj
    table: dict[str, str]

    def __post_init__(self):
        table = dict(self.table)
        try:
            _check(self.dom, self.cod, table)
        except MismatchError:
            # a label that is not a str matches no element, so only a failed table is relabelled
            table = {str(k): str(v) for k, v in table.items()}
            _check(self.dom, self.cod, table)
        object.__setattr__(self, "table", table)

    def __hash__(self):
        return hash((self.dom, self.cod, frozenset(self.table.items())))

    def __call__(self, x: str) -> str:
        try:
            return self.table[x]
        except KeyError:
            raise MismatchError(f"{x!r} is not in the domain") from None


def identity(obj: FinObj) -> FinMap:
    return FinMap(obj, obj, {e: e for e in obj})


def compose(g: FinMap, f: FinMap) -> FinMap:
    if f.cod != g.dom:
        raise MismatchError("compose: codomain of f must equal domain of g")
    return FinMap(f.dom, g.cod, {x: g.table[f.table[x]] for x in f.dom})


def commutes(a: FinMap, b: FinMap, c: FinMap, d: FinMap) -> bool:
    """Whether a . b == c . d, for a square checked by ``carriers.commutes``."""
    at, bt, ct, dt = a.table, b.table, c.table, d.table
    return all(at[bt[x]] == ct[dt[x]] for x in bt)


def terminal_obj() -> FinObj:
    return FinObj(("*",))


def terminal_map(obj: FinObj) -> FinMap:
    point = terminal_obj()
    return FinMap(obj, point, {e: "*" for e in obj})


def is_injective(f: FinMap) -> bool:
    return len(set(f.table.values())) == len(f.dom)


def is_surjective(f: FinMap) -> bool:
    return set(f.table.values()) == set(f.cod.elements)


def classify(f: FinMap) -> tuple[bool, bool]:
    """(mono, epi): whether f is injective and whether it is surjective."""
    return is_injective(f), is_surjective(f)


def product(x: FinObj, y: FinObj) -> tuple[FinObj, FinMap, FinMap]:
    labels, t1, t2 = [], {}, {}
    for a in x:
        for b in y:
            lab = pair_label(a, b)
            labels.append(lab)
            t1[lab] = a
            t2[lab] = b
    obj = FinObj(tuple(labels))
    return obj, FinMap(obj, x, t1), FinMap(obj, y, t2)


def pullback(f1: FinMap, f2: FinMap) -> tuple[FinObj, FinMap, FinMap]:
    if f1.cod != f2.cod:
        raise MismatchError("pullback: maps must share their codomain")
    labels, t1, t2 = [], {}, {}
    for a1 in f1.dom:
        for a2 in f2.dom:
            if f1(a1) == f2(a2):
                lab = pair_label(a1, a2)
                labels.append(lab)
                t1[lab] = a1
                t2[lab] = a2
    obj = FinObj(tuple(labels))
    return obj, FinMap(obj, f1.dom, t1), FinMap(obj, f2.dom, t2)


def equalizer(f: FinMap, g: FinMap) -> tuple[FinObj, FinMap]:
    if f.dom != g.dom or f.cod != g.cod:
        raise MismatchError("equalizer: maps must be a parallel pair")
    arrow = subobject_map(f.dom, [x for x in f.dom if f(x) == g(x)])
    return arrow.dom, arrow


def image(f: FinMap) -> frozenset[str]:
    """The subset of f's codomain that f hits."""
    return frozenset(f.table.values())


def subobject_map(universum: FinObj, behavior) -> FinMap:
    """The inclusion of a subset of universum, labelled by its own elements."""
    labels = tuple(behavior)
    for lab in labels:
        if lab not in universum:
            raise MismatchError(f"{lab!r} is not in the universum")
    obj = FinObj(labels)
    return FinMap(obj, universum, {e: e for e in obj})


def image_factorize(f: FinMap) -> tuple[FinMap, FinMap]:
    inj = subobject_map(f.cod, image(f))
    return FinMap(f.dom, inj.dom, f.table), inj


def lift(ms, fs) -> FinMap | None:
    """The u with m_i . u = f_i for jointly injective ms, or None; see ``carriers.lift``.

    u sends x to the point p with (m_1(p), ..., m_k(p)) = (f_1(x), ..., f_k(x)).
    """
    dom, apex = ms[0].dom, fs[0].dom
    index = dict(zip(zip(*[map(m.table.__getitem__, dom.elements) for m in ms]), dom.elements))
    keys = zip(*[map(f.table.__getitem__, apex.elements) for f in fs])
    table = {}
    for x, key in zip(apex.elements, keys):
        p = index.get(key)
        if p is None:
            return None
        table[x] = p
    return FinMap(apex, dom, table)


def escape_witness(inclusion: FinMap, moved: FinMap, image: frozenset[str]) -> str:
    """The first point of moved's domain that moved sends outside image; see
    ``carriers.escape_witness``. A point is its own label in inclusion's
    codomain too, so inclusion is not read."""
    b = next(b for b in moved.dom if moved(b) not in image)
    return f"behavior point {b!r}"


def all_maps(dom: FinObj, cod: FinObj) -> Iterator[FinMap]:
    """Every total function dom -> cod. Exponential; keep domains small."""
    if len(dom) == 0:
        yield FinMap(dom, cod, {})
        return
    if len(cod) == 0:
        return
    for images in _iterproduct(cod.elements, repeat=len(dom)):
        yield FinMap(dom, cod, dict(zip(dom.elements, images)))
