"""Finite powerset lattices and the contravariant passage to and from sets.

Subsets are bitmasks over the sorted base, and a lattice homomorphism is
stored by its atom images — the disjointness and covering of those images are
exactly what makes it a complete atomic homomorphism induced by a set map in
the opposite direction. ``all_homs`` enumerates them as the set maps they are:
one per assignment of the target's atoms to the source's atoms. ``functor_G``
is a pure construction, and ``check``'s duality law verifies that it inverts
``functor_F``. ``PowerLattice`` and ``BoolHom`` run their checks in their own
``__init__``, which fills the instance's ``__dict__`` in one step. Systems
reappear here as surjective restriction homs, with the
subsystem/controlled-system taxonomy reversed, and pushouts are computed by
transporting spans through the equivalence and pulling back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from typing import Iterator, NamedTuple

from . import finset
from .errors import InvalidHom, MismatchError
from .finset import FinMap, FinObj
from .systems import System, SystemMorphism, behavior_image, pullback_systems

MAX_BASE = 16


@dataclass(frozen=True, init=False)
class PowerLattice:
    base: FinObj

    def __init__(self, base: FinObj):
        if len(base) > MAX_BASE:
            raise MismatchError(f"powerset base capped at {MAX_BASE} elements")
        self.__dict__["base"] = base

    @property
    def full_mask(self) -> int:
        return (1 << len(self.base)) - 1

    def atom(self, label: str) -> int:
        return 1 << self.base.elements.index(label)

    def mask_of(self, labels) -> int:
        mask = 0
        for lab in labels:
            mask |= self.atom(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.base.elements) if mask >> i & 1)

    def subsets(self) -> Iterator[int]:
        return iter(range(1 << len(self.base)))


@dataclass(frozen=True, init=False)
class BoolHom:
    """A homomorphism 2^T -> 2^S, stored by the images of the atoms of T."""

    src: PowerLattice
    dst: PowerLattice
    atom_image: dict[str, int]

    def __init__(self, src: PowerLattice, dst: PowerLattice, atom_image: dict[str, int]):
        if set(atom_image) != src.base._members:
            raise InvalidHom("atom images must be given for exactly the source base")
        full, union = dst.full_mask, 0
        for t in src.base.elements:
            img = atom_image[t]
            if img < 0 or img > full:
                raise InvalidHom(f"atom image of {t!r} is not a subset of the target base")
            if union & img:
                raise InvalidHom("atom images overlap")
            union |= img
        if union != full:
            raise InvalidHom("atom images do not cover the target base")
        self.__dict__.update(src=src, dst=dst, atom_image=dict(atom_image))

    def apply(self, mask: int) -> int:
        out = 0
        for i, t in enumerate(self.src.base.elements):
            if mask >> i & 1:
                out |= self.atom_image[t]
        return out


def identity_hom(pl: PowerLattice) -> BoolHom:
    return BoolHom(pl, pl, {e: pl.atom(e) for e in pl.base})


def compose_homs(g: BoolHom, f: BoolHom) -> BoolHom:
    if f.dst != g.src:
        raise MismatchError("homs are not composable")
    return BoolHom(f.src, g.dst, {t: g.apply(f.atom_image[t]) for t in f.src.base})


def hom_is_mono(phi: BoolHom) -> bool:
    return all(phi.atom_image[t] != 0 for t in phi.src.base)


def hom_is_epi(phi: BoolHom) -> bool:
    return all(bin(phi.atom_image[t]).count("1") <= 1 for t in phi.src.base)


def functor_F(f: FinMap) -> BoolHom:
    """Preimage hom 2^T -> 2^S of a set map f : S -> T."""
    images = dict.fromkeys(f.cod.elements, 0)
    for i, s in enumerate(f.dom.elements):
        images[f.table[s]] |= 1 << i
    return BoolHom(PowerLattice(f.cod), PowerLattice(f.dom), images)


def functor_G(phi: BoolHom) -> FinMap:
    """The set map whose preimage hom is phi: s goes to the atom whose image holds s.

    A pure construction: phi's disjoint, covering atom images make the table
    total and single-valued, and ``check``'s duality law verifies that
    F(G(phi)) == phi.
    """
    table = {}
    for t in phi.src.base:
        for s in phi.dst.labels_of(phi.atom_image[t]):
            table[s] = t
    return FinMap(phi.dst.base, phi.src.base, table)


def all_homs(src: PowerLattice, dst: PowerLattice) -> Iterator[BoolHom]:
    """Every hom 2^T -> 2^S, one per set map S -> T: each assignment of S's
    atoms to T's atoms gives the atom images, |T|^|S| homs in all."""
    atoms = src.base.elements
    for assignment in _iterproduct(atoms, repeat=len(dst.base)):
        images = dict.fromkeys(atoms, 0)
        for i, t in enumerate(assignment):
            images[t] |= 1 << i
        yield BoolHom(src, dst, images)


class DualityReport(NamedTuple):
    map_mono: bool
    map_epi: bool
    hom_mono: bool
    hom_epi: bool

    @property
    def consistent(self) -> bool:
        return self.map_mono == self.hom_epi and self.map_epi == self.hom_mono


def duality_classify(f: FinMap, phi: BoolHom) -> DualityReport:
    """Classify f and its preimage hom phi = ``functor_F(f)``, which the caller passes."""
    return DualityReport(
        map_mono=finset.is_injective(f),
        map_epi=finset.is_surjective(f),
        hom_mono=hom_is_mono(phi),
        hom_epi=hom_is_epi(phi),
    )


# -- systems on the opposite side --------------------------------------------

@dataclass(frozen=True)
class BoolSystem:
    """The restriction hom 2^U -> 2^B of a behavior B inside U, stored as (U, B)."""

    universum: FinObj
    behavior_mask: int

    def __post_init__(self):
        full = (1 << len(self.universum)) - 1
        if self.behavior_mask < 0 or self.behavior_mask > full:
            raise MismatchError("behavior mask is not a subset of the universum")

    @property
    def behavior_obj(self) -> FinObj:
        return FinObj(PowerLattice(self.universum).labels_of(self.behavior_mask))

    def restriction_hom(self) -> BoolHom:
        lat = PowerLattice(self.universum)
        beh = PowerLattice(self.behavior_obj)
        images = {}
        for u in self.universum:
            images[u] = beh.mask_of((u,)) if lat.atom(u) & self.behavior_mask else 0
        return BoolHom(lat, beh, images)


def bool_system_of(s: System) -> BoolSystem:
    """F on system objects: squash the behavior to its image subset."""
    lat = PowerLattice(s.universum)
    return BoolSystem(s.universum, lat.mask_of(behavior_image(s)))


def system_of_bool(b: BoolSystem) -> System:
    """G on system objects: the inclusion of the marked subset."""
    return System(finset.subobject_map(b.universum, b.behavior_obj))


@dataclass(frozen=True)
class BoolSystemMorphism:
    src: BoolSystem
    dst: BoolSystem
    psi_u: BoolHom
    psi_b: BoolHom

    def __post_init__(self):
        if self.psi_u.src.base != self.src.universum or self.psi_u.dst.base != self.dst.universum:
            raise MismatchError("psi_u does not match the bool-systems")
        if (
            self.psi_b.src.base != self.src.behavior_obj
            or self.psi_b.dst.base != self.dst.behavior_obj
        ):
            raise MismatchError("psi_b does not match the bool-systems")
        h, hp = self.src.restriction_hom(), self.dst.restriction_hom()
        if compose_homs(hp, self.psi_u) != compose_homs(self.psi_b, h):
            raise MismatchError("bool-system morphism square does not commute")


def compose_bool_morphisms(b: BoolSystemMorphism, a: BoolSystemMorphism) -> BoolSystemMorphism:
    if a.dst != b.src:
        raise MismatchError("bool-system morphisms are not composable")
    return BoolSystemMorphism(
        a.src, b.dst, compose_homs(b.psi_u, a.psi_u), compose_homs(b.psi_b, a.psi_b)
    )


def bool_morphism_of(m: SystemMorphism) -> BoolSystemMorphism:
    """F on system morphisms (contravariant): from F(dst) to F(src)."""
    src_b = bool_system_of(m.dst)
    dst_b = bool_system_of(m.src)
    psi_u = functor_F(m.phi_u)
    # phi_b between the abstract behaviors, rewritten between their image subsets
    image_map_table = {}
    for b in m.src.behavior:
        image_map_table[m.src.inclusion(b)] = m.dst.inclusion(m.phi_b(b))
    image_map = FinMap(dst_b.behavior_obj, src_b.behavior_obj, image_map_table)
    return BoolSystemMorphism(src_b, dst_b, psi_u, functor_F(image_map))


def system_morphism_of(bm: BoolSystemMorphism) -> SystemMorphism:
    """G on bool-system morphisms (contravariant): from G(dst) to G(src)."""
    return SystemMorphism(
        system_of_bool(bm.dst), system_of_bool(bm.src), functor_G(bm.psi_b), functor_G(bm.psi_u)
    )


@dataclass(frozen=True)
class BoolPushout:
    system: BoolSystem
    inj1: BoolSystemMorphism
    inj2: BoolSystemMorphism


def pushout_bool(psi: BoolSystemMorphism, phi: BoolSystemMorphism) -> BoolPushout:
    """Pushout of a span of bool-systems, via pullback on the set side."""
    if psi.src != phi.src:
        raise MismatchError("pushout requires a span out of a common bool-system")
    pb = pullback_systems(system_morphism_of(psi), system_morphism_of(phi))
    return BoolPushout(
        bool_system_of(pb.system), bool_morphism_of(pb.proj1), bool_morphism_of(pb.proj2)
    )
