"""The semantics category: behaviors included in universa.

A system is a mono carrier map from its behavior object into its universum.
Morphisms are commuting squares; the taxonomy (controlled / subsystem /
quasi-subsystem) is computed from the mono/epi classification of the two
components, never asserted by callers. Interconnection is a pullback over a
common quasi-subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import carriers
from .carriers import CarrierMap, CarrierObj
from .errors import BehaviorEscapes, MismatchError, NonInjectiveInclusion, NotEpi


@dataclass(frozen=True)
class System:
    inclusion: CarrierMap

    def __post_init__(self):
        if not carriers.classify_map(self.inclusion).mono:
            raise NonInjectiveInclusion("a system's inclusion must be injective")

    @property
    def behavior(self) -> CarrierObj:
        return self.inclusion.dom

    @property
    def universum(self) -> CarrierObj:
        return self.inclusion.cod

    @cached_property
    def image(self):
        """``carriers.image`` of the inclusion, computed on first read and kept."""
        return carriers.image(self.inclusion)


def full_system(universum: CarrierObj) -> System:
    return System(carriers.identity(universum))


def terminal_system(carrier: str) -> System:
    return full_system(carriers.terminal_obj(carrier))


def behavior_image(s: System):
    """The behavior as a subobject of the universum, the value ``carriers.image`` gives.

    FinSet systems yield a frozenset of labels, Vect systems a Subspace in
    canonical form; either way equality of behaviors is equality of values.
    Each system computes it once.
    """
    return s.image


def system_from_behavior(universum: CarrierObj, behavior) -> System:
    """Canonical system for a subset (FinSet) or Subspace (Vect) of a universum."""
    return System(carriers.subobject_map(universum, behavior))


def systems_equal(s1: System, s2: System) -> bool:
    # objects of different carriers are never equal, so neither are their systems
    return s1.universum == s2.universum and behavior_image(s1) == behavior_image(s2)


@dataclass(frozen=True)
class SystemMorphism:
    src: System
    dst: System
    phi_b: CarrierMap
    phi_u: CarrierMap

    def __post_init__(self):
        if self.phi_b.dom != self.src.behavior or self.phi_b.cod != self.dst.behavior:
            raise MismatchError("behavior component does not match the systems")
        if self.phi_u.dom != self.src.universum or self.phi_u.cod != self.dst.universum:
            raise MismatchError("universum component does not match the systems")
        if not carriers.commutes(self.phi_u, self.src.inclusion, self.dst.inclusion, self.phi_b):
            raise MismatchError("morphism square does not commute")


@dataclass(frozen=True)
class MorphismClass:
    controlled: bool
    subsystem: bool
    quasi_subsystem: bool

    @property
    def plain(self) -> bool:
        return not (self.controlled or self.subsystem or self.quasi_subsystem)


def classify_morphism(m: SystemMorphism) -> MorphismClass:
    b = carriers.classify_map(m.phi_b)
    u = carriers.classify_map(m.phi_u)
    return MorphismClass(
        controlled=b.mono and u.mono,
        subsystem=b.epi and u.epi,
        quasi_subsystem=u.epi,
    )


def identity_morphism(s: System) -> SystemMorphism:
    return SystemMorphism(s, s, carriers.identity(s.behavior), carriers.identity(s.universum))


def compose_morphisms(b: SystemMorphism, a: SystemMorphism) -> SystemMorphism:
    if a.dst != b.src:
        raise MismatchError("morphisms are not composable")
    return SystemMorphism(
        a.src, b.dst, carriers.compose(b.phi_b, a.phi_b), carriers.compose(b.phi_u, a.phi_u)
    )


def _proved(cls, *components):
    """The frozen dataclass ``cls(*components)``, built without ``__post_init__``.

    Only for a morphism whose square the ``carriers.lift`` that built one of
    its components has just proved, and whose components match its ends by
    construction; every public constructor checks.
    """
    m = object.__new__(cls)
    m.__dict__.update(zip(cls.__dataclass_fields__, components))
    return m


def make_morphism(src: System, dst: System, phi_u: CarrierMap) -> SystemMorphism:
    """Restrict phi_u to the behaviors; fails if the image escapes dst's behavior.

    phi_b is the lift of phi_u . src.inclusion through dst.inclusion, so the
    lift proves the morphism's square, dst.inclusion . phi_b = phi_u .
    src.inclusion, and it is not checked again.
    """
    if phi_u.dom != src.universum or phi_u.cod != dst.universum:
        raise MismatchError("phi_u must map the source universum to the target universum")
    moved = carriers.compose(phi_u, src.inclusion)
    phi_b = carriers.lift((dst.inclusion,), (moved,))
    if phi_b is None:
        witness = carriers.escape_witness(src.inclusion, moved, behavior_image(dst))
        raise BehaviorEscapes(f"image of {witness} lies outside the target behavior")
    return _proved(SystemMorphism, src, dst, phi_b, phi_u)


@dataclass(frozen=True)
class SystemPullback:
    system: System
    proj1: SystemMorphism
    proj2: SystemMorphism


def pullback_systems(phi: SystemMorphism, psi: SystemMorphism) -> SystemPullback:
    """Glue phi.src and psi.src over their common codomain system.

    The pullback's inclusion k is the ``pullback_map`` of the two sources'
    inclusions, the lift with upb.proj_i . k = inclusion_i . bpb.proj_i. That
    is the square of projection i, so the projections are not checked again.
    """
    if phi.dst != psi.dst:
        raise MismatchError("pullback requires morphisms into the same system")
    bpb = carriers.pullback(phi.phi_b, psi.phi_b)
    upb = carriers.pullback(phi.phi_u, psi.phi_u)
    k = System(carriers.pullback_map(bpb, upb, phi.src.inclusion, psi.src.inclusion))
    proj1 = _proved(SystemMorphism, k, phi.src, bpb.proj1, upb.proj1)
    proj2 = _proved(SystemMorphism, k, psi.src, bpb.proj2, upb.proj2)
    return SystemPullback(k, proj1, proj2)


def product_systems(s: System, t: System) -> SystemPullback:
    """The product system with its projections (pullback over the terminal system)."""
    pu = carriers.product(s.universum, t.universum)
    pb = carriers.product(s.behavior, t.behavior)
    prod = System(carriers.pullback_map(pb, pu, s.inclusion, t.inclusion))
    proj1 = SystemMorphism(prod, s, pb.proj1, pu.proj1)
    proj2 = SystemMorphism(prod, t, pb.proj2, pu.proj2)
    return SystemPullback(prod, proj1, proj2)


def span_into_product(pb: SystemPullback) -> SystemMorphism:
    """The canonical morphism from a pullback into the product of its feet."""
    prod = product_systems(pb.proj1.dst, pb.proj2.dst)
    p1, p2 = prod.proj1, prod.proj2
    phi_u = carriers.lift((p1.phi_u, p2.phi_u), (pb.proj1.phi_u, pb.proj2.phi_u))
    phi_b = carriers.lift((p1.phi_b, p2.phi_b), (pb.proj1.phi_b, pb.proj2.phi_b))
    return SystemMorphism(pb.system, prod.system, phi_b, phi_u)


def interconnect_shared(s: System, t: System, p: CarrierMap, q: CarrierMap) -> SystemPullback:
    """Share the variables designated by the surjections p and q onto a common block.

    Both systems are sent onto the full system of the shared block by the
    canonical quasi-subsystem morphisms and then pulled back; the result does
    not depend on the choice of common quasi-subsystem.
    """
    if p.dom != s.universum or q.dom != t.universum:
        raise MismatchError("shared-block projections must start at the universa")
    if p.cod != q.cod:
        raise MismatchError("shared blocks disagree")
    if not carriers.classify_map(p).epi or not carriers.classify_map(q).epi:
        raise NotEpi("shared-block projections must be surjective")
    sc = full_system(p.cod)
    return pullback_systems(make_morphism(s, sc, p), make_morphism(t, sc, q))


def project_latent(s: System, pi: CarrierMap) -> tuple[SystemMorphism, System]:
    """Eliminate latent variables along a surjection of universa.

    Image-factorizes pi . inclusion; returns the induced subsystem morphism and
    the manifest system it lands on.
    """
    if pi.dom != s.universum:
        raise MismatchError("projection must start at the universum")
    if not carriers.classify_map(pi).epi:
        raise NotEpi("latent-variable projection must be surjective")
    fact = carriers.image_factorize(carriers.compose(pi, s.inclusion))
    manifest = System(fact.inj)
    morphism = SystemMorphism(s, manifest, fact.surj, pi)
    return morphism, manifest


def factors_through(s: System, t: System):
    """The unique witness h with s = t . h, or None if behavior(s) is not contained."""
    if s.universum != t.universum:
        raise MismatchError("systems must share their universum")
    return carriers.lift((t.inclusion,), (s.inclusion,))


@dataclass(frozen=True)
class BehaviorLattice:
    """Behaviors over a fixed universum, ordered by inclusion.

    Operands are behavior values as ``behavior_image`` gives them: frozensets
    of labels or ``Subspace``s.
    """

    universum: CarrierObj

    def _check(self, b):
        carriers.subobject_map(self.universum, b)
        return b

    def meet(self, b1, b2):
        return self._check(b1) & self._check(b2)

    def join(self, b1, b2):
        return self._check(b1) | self._check(b2)
