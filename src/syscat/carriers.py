"""Carrier-generic categorical operations.

The two carriers (finite sets, rational vector spaces) expose the same
operations; this module dispatches on the value type so the rest of the
library can stay carrier-agnostic. Every operation is a pure function of
immutable inputs.
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


def carrier_of(x) -> str:
    if isinstance(x, (FinObj, FinMap)):
        return FINSET
    if isinstance(x, (VectObj, LinMap)):
        return VECT
    raise MismatchError(f"not a carrier value: {x!r}")


def _same_carrier(*xs) -> str:
    tags = {carrier_of(x) for x in xs}
    if len(tags) != 1:
        raise MismatchError("values live in different carriers")
    return tags.pop()


@dataclass(frozen=True)
class ProductResult:
    obj: CarrierObj
    proj1: CarrierMap
    proj2: CarrierMap


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

    @property
    def mid(self) -> CarrierObj:
        return self.surj.cod


@dataclass(frozen=True)
class MapClass:
    mono: bool
    epi: bool

    @property
    def iso(self) -> bool:
        return self.mono and self.epi


def identity(obj: CarrierObj) -> CarrierMap:
    if isinstance(obj, FinObj):
        return finset.identity(obj)
    return vect.identity(obj)


def compose(g: CarrierMap, f: CarrierMap) -> CarrierMap:
    if _same_carrier(g, f) == FINSET:
        return finset.compose(g, f)
    return vect.compose(g, f)


def product(x: CarrierObj, y: CarrierObj) -> ProductResult:
    if _same_carrier(x, y) == FINSET:
        return ProductResult(*finset.product(x, y))
    return ProductResult(*vect.product(x, y))


def product_map(f: CarrierMap, g: CarrierMap) -> CarrierMap:
    if _same_carrier(f, g) == FINSET:
        return finset.product_map(f, g)
    return vect.product_map(f, g)


def product_mediate(prod: ProductResult, q1: CarrierMap, q2: CarrierMap) -> CarrierMap:
    """The unique map <q1, q2> into the product with the given projections."""
    if q1.dom != q2.dom:
        raise MismatchError("product mediation requires a common domain")
    if isinstance(prod.obj, FinObj):
        index = {(prod.proj1(p), prod.proj2(p)): p for p in prod.obj}
        table = {x: index[(q1(x), q2(x))] for x in q1.dom}
        return FinMap(q1.dom, prod.obj, table)
    return LinMap(q1.dom, prod.obj, tuple(q1.matrix) + tuple(q2.matrix))


def pullback(f1: CarrierMap, f2: CarrierMap) -> PullbackResult:
    if _same_carrier(f1, f2) == FINSET:
        return PullbackResult(*finset.pullback(f1, f2))
    return PullbackResult(*vect.pullback(f1, f2))


def pullback_mediate(pb: PullbackResult, q1: CarrierMap, q2: CarrierMap) -> CarrierMap:
    """The unique map into the pullback induced by a cone (q1, q2)."""
    if q1.dom != q2.dom:
        raise MismatchError("pullback mediation requires a common cone apex")
    if isinstance(pb.obj, FinObj):
        index = {(pb.proj1(k), pb.proj2(k)): k for k in pb.obj}
        table = {}
        for x in q1.dom:
            key = (q1(x), q2(x))
            if key not in index:
                raise MismatchError("the given pair of maps is not a cone over the pullback")
            table[x] = index[key]
        return FinMap(q1.dom, pb.obj, table)
    emb = tuple(pb.proj1.matrix) + tuple(pb.proj2.matrix)
    target = tuple(q1.matrix) + tuple(q2.matrix)
    sol = vect.solve_matrix(emb, pb.obj.dim, target, q1.dom.dim)
    if sol is None:
        raise MismatchError("the given pair of maps is not a cone over the pullback")
    return LinMap(q1.dom, pb.obj, sol)


def equalizer(f: CarrierMap, g: CarrierMap) -> EqualizerResult:
    if _same_carrier(f, g) == FINSET:
        return EqualizerResult(*finset.equalizer(f, g))
    return EqualizerResult(*vect.equalizer(f, g))


def equalizer_mediate(eq: EqualizerResult, h: CarrierMap) -> CarrierMap:
    """The unique map u with arrow . u = h, for h equalizing the same pair."""
    if isinstance(eq.obj, FinObj):
        table = {}
        for x in h.dom:
            y = h(x)
            if y not in eq.obj:
                raise MismatchError("map does not factor through the equalizer")
            table[x] = y
        return FinMap(h.dom, eq.obj, table)
    sol = vect.solve_matrix(eq.arrow.matrix, eq.obj.dim, h.matrix, h.dom.dim)
    if sol is None:
        raise MismatchError("map does not factor through the equalizer")
    return LinMap(h.dom, eq.obj, sol)


def image_factorize(f: CarrierMap) -> Factorization:
    if isinstance(f, FinMap):
        return Factorization(*finset.image_factorize(f))
    return Factorization(*vect.image_factorize(f))


def classify_map(f: CarrierMap) -> MapClass:
    if isinstance(f, FinMap):
        return MapClass(finset.is_injective(f), finset.is_surjective(f))
    r = vect.rank_of(f.matrix, f.dom.dim)
    return MapClass(r == f.dom.dim, r == f.cod.dim)


def terminal_obj(carrier: str) -> CarrierObj:
    if carrier == FINSET:
        return finset.terminal_obj()
    if carrier == VECT:
        return vect.ZERO_SPACE
    raise MismatchError(f"unknown carrier {carrier!r}")


def terminal_map(obj: CarrierObj) -> CarrierMap:
    if isinstance(obj, FinObj):
        return finset.terminal_map(obj)
    return vect.zero_map(obj, vect.ZERO_SPACE)
