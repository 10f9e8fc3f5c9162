"""Carrier-generic categorical operations.

The two carriers, finite sets (``finset``) and rational vector spaces
(``vect``), are modules with the same interface: ``identity``, ``compose``,
``commutes``, ``product``, ``pullback``, ``equalizer``, ``image_factorize``,
``classify`` (mono, epi), ``terminal_obj``, ``terminal_map``, ``lift``,
``image``, ``subobject_map`` and ``escape_witness``. One table picks the
module from the type of the arguments, so each function here is one call into
it and the rest of the library stays carrier-agnostic. Values of different carriers, or values that
belong to no carrier, raise ``MismatchError``.

A subobject is a value of its carrier: a frozenset of labels in FinSet, a
canonical ``Subspace`` in Vect. ``image`` reads it off a map and
``subobject_map`` turns it into the canonical inclusion, so
``image(subobject_map(u, b)) == b``.

Every universal property used by the library reduces to ``lift``: factor a
cone through a jointly mono family (product and pullback projections, an
equalizer, a system's inclusion). Every map between two pullbacks, products
included (a product is the pullback over the terminal object), is
``pullback_map``. Every operation is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import finset, vect
from .errors import MismatchError
from .finset import FinMap, FinObj
from .vect import LinMap, VectObj

CarrierObj = FinObj | VectObj
CarrierMap = FinMap | LinMap

FINSET = "finset"
VECT = "vect"

_CARRIERS = {FinObj: finset, FinMap: finset, VectObj: vect, LinMap: vect}
_BY_NAME = {FINSET: finset, VECT: vect}


def _carrier(x, *rest):
    """The carrier module shared by x and all of rest."""
    module = _CARRIERS.get(type(x))
    if module is None:
        raise MismatchError(f"not a carrier value: {x!r}")
    for y in rest:
        if _CARRIERS.get(type(y)) is not module:
            raise MismatchError("values live in different carriers")
    return module


@dataclass(frozen=True)
class PullbackResult:
    obj: CarrierObj
    proj1: CarrierMap
    proj2: CarrierMap


@dataclass(frozen=True)
class EqualizerResult:
    obj: CarrierObj
    arrow: CarrierMap


@dataclass(frozen=True)
class Factorization:
    surj: CarrierMap
    inj: CarrierMap


@dataclass(frozen=True)
class MapClass:
    mono: bool
    epi: bool

    @property
    def iso(self) -> bool:
        return self.mono and self.epi


def identity(obj: CarrierObj) -> CarrierMap:
    return _carrier(obj).identity(obj)


def compose(g: CarrierMap, f: CarrierMap) -> CarrierMap:
    return _carrier(g, f).compose(g, f)


def commutes(a: CarrierMap, b: CarrierMap, c: CarrierMap, d: CarrierMap) -> bool:
    """Whether a . b == c . d, decided without building either composite.

    The four maps must form a square: b and d share a domain, a and c a
    codomain, and a . b and c . d must compose; anything else raises
    ``MismatchError``.
    """
    module = _carrier(a, b, c, d)
    # tuple comparison skips __eq__ for identical objects, the common case
    if (b.cod, d.cod, d.dom, c.cod) != (a.dom, c.dom, b.dom, a.cod):
        raise MismatchError("the four maps do not form a square")
    return module.commutes(a, b, c, d)


def product(x: CarrierObj, y: CarrierObj) -> PullbackResult:
    """The product of x and y: their pullback over the terminal object."""
    return PullbackResult(*_carrier(x, y).product(x, y))


def pullback(f1: CarrierMap, f2: CarrierMap) -> PullbackResult:
    return PullbackResult(*_carrier(f1, f2).pullback(f1, f2))


def equalizer(f: CarrierMap, g: CarrierMap) -> EqualizerResult:
    return EqualizerResult(*_carrier(f, g).equalizer(f, g))


def image_factorize(f: CarrierMap) -> Factorization:
    return Factorization(*_carrier(f).image_factorize(f))


def classify_map(f: CarrierMap) -> MapClass:
    return MapClass(*_carrier(f).classify(f))


def image(f: CarrierMap):
    """The subobject of f's codomain that f hits: a frozenset or a ``Subspace``."""
    return _carrier(f).image(f)


def subobject_map(universum: CarrierObj, behavior) -> CarrierMap:
    """The canonical inclusion of a subobject of universum; ``MismatchError`` if it lies elsewhere."""
    return _carrier(universum).subobject_map(universum, behavior)


def escape_witness(inclusion: CarrierMap, moved: CarrierMap, image) -> str:
    """The first behavior point, or basis vector, that moved sends outside image.

    inclusion is a system's inclusion and moved a map from its behavior into
    the universum that image, a subobject, lives in. The point is named as a
    label, the basis vector in inclusion's codomain coordinates.
    """
    return _carrier(inclusion, moved).escape_witness(inclusion, moved, image)


def terminal_obj(carrier: str) -> CarrierObj:
    module = _BY_NAME.get(carrier)
    if module is None:
        raise MismatchError(f"unknown carrier {carrier!r}")
    return module.terminal_obj()


def terminal_map(obj: CarrierObj) -> CarrierMap:
    return _carrier(obj).terminal_map(obj)


def lift(ms, fs) -> CarrierMap | None:
    """The unique u with m_i . u = f_i for a jointly mono family ms, or None.

    All ms share a domain, all fs share a domain (the apex of the cone), and
    m_i and f_i share a codomain; anything else raises ``MismatchError``.
    """
    if not ms or len(ms) != len(fs):
        raise MismatchError("lift needs one map of the cone per map of the family")
    module = _carrier(*ms, *fs)
    dom, apex = ms[0].dom, fs[0].dom
    for m, f in zip(ms, fs):
        # tuple comparison skips __eq__ for identical objects, the common case
        if (m.dom, f.dom, m.cod) != (dom, apex, f.cod):
            raise MismatchError("the cone does not match the family it should factor through")
    return module.lift(ms, fs)


def product_mediate(prod: PullbackResult, q1: CarrierMap, q2: CarrierMap) -> CarrierMap:
    """The unique map <q1, q2> into the product with the given projections."""
    return lift((prod.proj1, prod.proj2), (q1, q2))


def pullback_mediate(pb: PullbackResult, q1: CarrierMap, q2: CarrierMap) -> CarrierMap:
    """The unique map into the pullback induced by a cone (q1, q2)."""
    u = lift((pb.proj1, pb.proj2), (q1, q2))
    if u is None:
        raise MismatchError("the given pair of maps is not a cone over the pullback")
    return u


def pullback_map(
    top: PullbackResult, bottom: PullbackResult, a1: CarrierMap, a2: CarrierMap
) -> CarrierMap:
    """The map between pullbacks that a1 and a2 induce.

    It is the unique u with bottom.proj_i . u = a_i . top.proj_i. A pair
    whose cone does not commute over bottom's cospan raises ``MismatchError``.
    """
    return pullback_mediate(bottom, compose(a1, top.proj1), compose(a2, top.proj2))


def equalizer_mediate(eq: EqualizerResult, h: CarrierMap) -> CarrierMap:
    """The unique map u with arrow . u = h, for h equalizing the same pair."""
    u = lift((eq.arrow,), (h,))
    if u is None:
        raise MismatchError("map does not factor through the equalizer")
    return u
