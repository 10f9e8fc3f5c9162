"""Generalized systems: arbitrary carrier maps, their equations, and the adjunction.

Dropping injectivity of the structure map gives a category where every object
has a universal description: the componentwise equalizer functor out of the
category of morphism-pairs is right adjoint to the diagonal. The adjunction is
verified extensionally here — hom-sets are enumerated on the finite-set
carrier and matched by an explicit bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import carriers, finset
from .carriers import CarrierMap, EqualizerResult
from .equations import EquationMorphism, EquationRep
from .errors import DomainError, MismatchError
from .finset import FinObj
from .systems import System, SystemMorphism, make_morphism

ENUM_BOUND = 3


@dataclass(frozen=True)
class GeneralizedSystem:
    arrow: CarrierMap

    @property
    def domain(self):
        return self.arrow.dom

    @property
    def codomain(self):
        return self.arrow.cod


@dataclass(frozen=True)
class GenSystemMorphism:
    src: GeneralizedSystem
    dst: GeneralizedSystem
    phi_c: CarrierMap
    phi_u: CarrierMap

    def __post_init__(self):
        if self.phi_c.dom != self.src.domain or self.phi_c.cod != self.dst.domain:
            raise MismatchError("phi_c does not match the generalized systems")
        if self.phi_u.dom != self.src.codomain or self.phi_u.cod != self.dst.codomain:
            raise MismatchError("phi_u does not match the generalized systems")
        if not carriers.commutes(self.phi_u, self.src.arrow, self.dst.arrow, self.phi_c):
            raise MismatchError("generalized-system morphism square does not commute")


def identity_gen_morphism(g: GeneralizedSystem) -> GenSystemMorphism:
    return GenSystemMorphism(
        g, g, carriers.identity(g.domain), carriers.identity(g.codomain)
    )


def compose_gen_morphisms(b: GenSystemMorphism, a: GenSystemMorphism) -> GenSystemMorphism:
    if a.dst != b.src:
        raise MismatchError("generalized morphisms are not composable")
    return GenSystemMorphism(
        a.src, b.dst, carriers.compose(b.phi_c, a.phi_c), carriers.compose(b.phi_u, a.phi_u)
    )


@dataclass(frozen=True)
class GenEquation:
    phi1: GenSystemMorphism
    phi2: GenSystemMorphism

    def __post_init__(self):
        if self.phi1.src != self.phi2.src or self.phi1.dst != self.phi2.dst:
            raise MismatchError("an equation needs a parallel pair of morphisms")

    @property
    def src(self) -> GeneralizedSystem:
        return self.phi1.src

    @property
    def dst(self) -> GeneralizedSystem:
        return self.phi1.dst


@dataclass(frozen=True)
class GenEquationMorphism:
    """Four component maps making the prism over both members of the pairs commute."""

    src: GenEquation
    dst: GenEquation
    tau1: CarrierMap  # src domain-of-systems  -> dst domain-of-systems
    tau2: CarrierMap  # src codomain-of-systems -> dst codomain-of-systems
    tau3: CarrierMap  # src target domain      -> dst target domain
    tau4: CarrierMap  # src target codomain    -> dst target codomain

    def __post_init__(self):
        g, gp = self.src.src.arrow, self.src.dst.arrow
        h, hp = self.dst.src.arrow, self.dst.dst.arrow
        faces = [("top", h, self.tau1, self.tau2, g), ("bottom", hp, self.tau3, self.tau4, gp)]
        for i, (sm, dm) in enumerate(
            ((self.src.phi1, self.dst.phi1), (self.src.phi2, self.dst.phi2)), start=1
        ):
            faces.append((f"left{i}", dm.phi_c, self.tau1, self.tau3, sm.phi_c))
            faces.append((f"right{i}", dm.phi_u, self.tau2, self.tau4, sm.phi_u))
        for face, a, b, c, d in faces:
            if not carriers.commutes(a, b, c, d):
                raise MismatchError(f"equation morphism face {face} does not commute")


def image_system(g: GeneralizedSystem) -> System:
    """Read a generalized system as a plain system by taking its image."""
    return System(carriers.image_factorize(g.arrow).inj)


def image_system_morphism(m: GenSystemMorphism) -> SystemMorphism:
    return make_morphism(image_system(m.src), image_system(m.dst), m.phi_u)


def _equalizers(e: GenEquation) -> tuple[EqualizerResult, EqualizerResult]:
    """The equalizers of the two component pairs of e: domains, then codomains."""
    return (
        carriers.equalizer(e.phi1.phi_c, e.phi2.phi_c),
        carriers.equalizer(e.phi1.phi_u, e.phi2.phi_u),
    )


def _obj_eq_of(e: GenEquation, eqs) -> GeneralizedSystem:
    """obj_eq(e), for eqs = _equalizers(e)."""
    ec, eu = eqs
    # the structure map carries agreeing points to agreeing points
    induced = carriers.equalizer_mediate(eu, carriers.compose(e.src.arrow, ec.arrow))
    return GeneralizedSystem(induced)


def obj_eq(e: GenEquation) -> GeneralizedSystem:
    """Componentwise equalizer of a parallel pair of morphisms."""
    return _obj_eq_of(e, _equalizers(e))


def obj_eq_morphism(t: GenEquationMorphism) -> GenSystemMorphism:
    """Functor action on equation morphisms, by mediation into the equalizers."""
    src_eqs, dst_eqs = _equalizers(t.src), _equalizers(t.dst)
    (src_ec, src_eu), (dst_ec, dst_eu) = src_eqs, dst_eqs
    phi_c = carriers.equalizer_mediate(dst_ec, carriers.compose(t.tau1, src_ec.arrow))
    phi_u = carriers.equalizer_mediate(dst_eu, carriers.compose(t.tau2, src_eu.arrow))
    return GenSystemMorphism(_obj_eq_of(t.src, src_eqs), _obj_eq_of(t.dst, dst_eqs), phi_c, phi_u)


def diagonal(g: GeneralizedSystem) -> GenEquation:
    i = identity_gen_morphism(g)
    return GenEquation(i, i)


def diagonal_morphism(m: GenSystemMorphism) -> GenEquationMorphism:
    return GenEquationMorphism(diagonal(m.src), diagonal(m.dst), m.phi_c, m.phi_u, m.phi_c, m.phi_u)


def embed_equation(rep: EquationRep) -> GenEquation:
    """A plain representation as a pair of morphisms into the terminal system."""
    u = rep.universum
    top = GeneralizedSystem(carriers.identity(u))
    bottom = GeneralizedSystem(carriers.terminal_map(rep.codomain))
    bang_u = carriers.terminal_map(u)
    phi1 = GenSystemMorphism(top, bottom, rep.f1, bang_u)
    phi2 = GenSystemMorphism(top, bottom, rep.f2, bang_u)
    return GenEquation(phi1, phi2)


def embed_equation_morphism(m: EquationMorphism) -> GenEquationMorphism:
    src, dst = embed_equation(m.src), embed_equation(m.dst)
    point_id = carriers.identity(src.dst.codomain)  # the terminal object
    return GenEquationMorphism(src, dst, m.psi_u, m.psi_u, m.psi_e, point_id)


def pullback_gen_systems(
    phi: GenSystemMorphism, psi: GenSystemMorphism
) -> tuple[GeneralizedSystem, GenSystemMorphism, GenSystemMorphism]:
    if phi.dst != psi.dst:
        raise MismatchError("pullback requires morphisms into the same generalized system")
    cpb = carriers.pullback(phi.phi_c, psi.phi_c)
    upb = carriers.pullback(phi.phi_u, psi.phi_u)
    k = GeneralizedSystem(carriers.pullback_map(cpb, upb, phi.src.arrow, psi.src.arrow))
    return (
        k,
        GenSystemMorphism(k, phi.src, cpb.proj1, upb.proj1),
        GenSystemMorphism(k, psi.src, cpb.proj2, upb.proj2),
    )


def pullback_gen_equations(
    m: GenEquationMorphism, n: GenEquationMorphism
) -> tuple[GenEquation, GenEquationMorphism, GenEquationMorphism]:
    """Cornerwise pullback of equations over a common one.

    Each corner object is the pullback of m's and n's component maps there;
    the structure maps and the two morphisms of the pulled-back equation are
    the maps between those pullbacks that m's and n's pairs induce.
    """
    if m.dst != n.dst:
        raise MismatchError("pullback requires morphisms into the same equation")
    cpb, upb, cpb_t, upb_t = map(
        carriers.pullback, (m.tau1, m.tau2, m.tau3, m.tau4), (n.tau1, n.tau2, n.tau3, n.tau4)
    )
    k_src = GeneralizedSystem(carriers.pullback_map(cpb, upb, m.src.src.arrow, n.src.src.arrow))
    k_dst = GeneralizedSystem(carriers.pullback_map(cpb_t, upb_t, m.src.dst.arrow, n.src.dst.arrow))

    def induced(phi, psi):
        return GenSystemMorphism(
            k_src, k_dst,
            carriers.pullback_map(cpb, cpb_t, phi.phi_c, psi.phi_c),
            carriers.pullback_map(upb, upb_t, phi.phi_u, psi.phi_u),
        )

    eq = GenEquation(induced(m.src.phi1, n.src.phi1), induced(m.src.phi2, n.src.phi2))
    proj_m = GenEquationMorphism(eq, m.src, cpb.proj1, upb.proj1, cpb_t.proj1, upb_t.proj1)
    proj_n = GenEquationMorphism(eq, n.src, cpb.proj2, upb.proj2, cpb_t.proj2, upb_t.proj2)
    return eq, proj_m, proj_n


# -- hom-set enumeration and the adjunction ----------------------------------

def _require_finset_small(*objs: FinObj):
    for obj in objs:
        if not isinstance(obj, FinObj):
            raise DomainError("enumeration requires the finite-set carrier")
        if len(obj) > ENUM_BOUND:
            raise DomainError(f"size bound exceeded: enumeration is capped at {ENUM_BOUND} elements")


def gen_system_homs(g: GeneralizedSystem, h: GeneralizedSystem) -> list[GenSystemMorphism]:
    """All morphisms g => h (finite-set carrier, small objects)."""
    homs = []
    for phi_c in finset.all_maps(g.domain, h.domain):
        for phi_u in finset.all_maps(g.codomain, h.codomain):
            if carriers.commutes(phi_u, g.arrow, h.arrow, phi_c):
                homs.append(GenSystemMorphism(g, h, phi_c, phi_u))
    return homs


def homs_from_diagonal(g: GeneralizedSystem, e: GenEquation) -> list[GenEquationMorphism]:
    """All equation morphisms diagonal(g) => e (finite-set carrier, small objects).

    For a diagonal source the two lower component maps are forced by the side
    faces, so only the top square is searched.
    """
    dg = diagonal(g)
    h = e.src.arrow
    out = []
    for tau1 in finset.all_maps(g.domain, e.src.domain):
        if not carriers.commutes(e.phi1.phi_c, tau1, e.phi2.phi_c, tau1):
            continue
        tau3 = carriers.compose(e.phi1.phi_c, tau1)
        for tau2 in finset.all_maps(g.codomain, e.src.codomain):
            if not carriers.commutes(h, tau1, tau2, g.arrow):
                continue
            if not carriers.commutes(e.phi1.phi_u, tau2, e.phi2.phi_u, tau2):
                continue
            tau4 = carriers.compose(e.phi1.phi_u, tau2)
            # the filters and phi1's own square make every face commute
            out.append(GenEquationMorphism(dg, e, tau1, tau2, tau3, tau4))
    return out


@dataclass(frozen=True)
class AdjunctionReport:
    diagonal_homs: int
    objeq_homs: int
    bijection_ok: bool
    naturality_ok: bool

    @property
    def ok(self) -> bool:
        return self.diagonal_homs == self.objeq_homs and self.bijection_ok and self.naturality_ok


def _transpose_to_objeq(t: GenEquationMorphism, eqs, target: GeneralizedSystem,
                        g: GeneralizedSystem) -> GenSystemMorphism:
    """The transpose g => target = obj_eq(e) of t, for eqs = _equalizers(e)."""
    ec, eu = eqs
    alpha = carriers.equalizer_mediate(ec, t.tau1)
    beta = carriers.equalizer_mediate(eu, t.tau2)
    return GenSystemMorphism(g, target, alpha, beta)


def _transpose_to_diagonal(m: GenSystemMorphism, e: GenEquation, eqs,
                           g: GeneralizedSystem) -> GenEquationMorphism:
    """The transpose diagonal(g) => e of m, for eqs = _equalizers(e)."""
    ec, eu = eqs
    tau1 = carriers.compose(ec.arrow, m.phi_c)
    tau2 = carriers.compose(eu.arrow, m.phi_u)
    tau3 = carriers.compose(e.phi1.phi_c, tau1)
    tau4 = carriers.compose(e.phi1.phi_u, tau2)
    return GenEquationMorphism(diagonal(g), e, tau1, tau2, tau3, tau4)


def adjunction_check(g: GeneralizedSystem, e: GenEquation) -> AdjunctionReport:
    """Compare Hom(diagonal(g), e) with Hom(g, obj_eq(e)) by explicit bijection.

    Both hom-sets are enumerated exhaustively; the transposition maps are then
    checked to be mutually inverse. A probe morphism into g (the first
    endomorphism other than the identity, if any) spot-checks naturality under
    precomposition.
    """
    _require_finset_small(g.domain, g.codomain, e.src.domain, e.src.codomain,
                          e.dst.domain, e.dst.codomain)
    eqs = _equalizers(e)
    target = _obj_eq_of(e, eqs)
    lhs = homs_from_diagonal(g, e)
    rhs = gen_system_homs(g, target)
    bijection_ok = len(lhs) == len(rhs)
    seen = []
    for t in lhs:
        m = _transpose_to_objeq(t, eqs, target, g)
        back = _transpose_to_diagonal(m, e, eqs, g)
        if back != t:
            bijection_ok = False
        seen.append(m)
    for m in rhs:
        if m not in seen:
            bijection_ok = False
        t = _transpose_to_diagonal(m, e, eqs, g)
        if _transpose_to_objeq(t, eqs, target, g) != m:
            bijection_ok = False

    ident = identity_gen_morphism(g)
    probe = next((m for m in gen_system_homs(g, g) if m != ident), ident)
    naturality_ok = True
    for t in lhs:
        precomposed = _compose_equation_with_diagonal(t, probe)
        direct = _transpose_to_objeq(precomposed, eqs, target, probe.src)
        expected = compose_gen_morphisms(_transpose_to_objeq(t, eqs, target, g), probe)
        if direct != expected:
            naturality_ok = False
    return AdjunctionReport(len(lhs), len(rhs), bijection_ok, naturality_ok)


def _compose_equation_with_diagonal(
    t: GenEquationMorphism, probe: GenSystemMorphism
) -> GenEquationMorphism:
    d = diagonal_morphism(probe)
    return GenEquationMorphism(
        d.src,
        t.dst,
        carriers.compose(t.tau1, d.tau1),
        carriers.compose(t.tau2, d.tau2),
        carriers.compose(t.tau3, d.tau3),
        carriers.compose(t.tau4, d.tau4),
    )
