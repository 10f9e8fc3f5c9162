"""The syntax category: parallel pairs whose equalizer is a behavior.

An equation representation is a pair f1, f2 : U -> E; the system it describes
has the equalizer of the pair as its inclusion. Each representation is
interpreted once, and ``arr_eq`` and ``arr_eq_morphism`` reuse its system.
That system is either computed on first read (``EquationRep.system``, the
equalizer) or handed to a kernel representation (f, 0) by one of two
constructions. ``certified_kernel_rep`` takes a candidate system whose
inclusion K satisfies f . K = 0 and whose dimension is the nullity of f over
Q, which holds exactly when span K = ker f. ``solved_kernel_rep`` takes the
canonical basis of ker f that its caller solved from a kernel it already
holds, with no certificate: glue's closing reads the kernel of the stacked
rows A and ``ext:`` rows E off the certified basis K of ker A, as the rows
Y . K with Y the canonical basis of ker(E . K), which is exact because
span K = ker A. Pullbacks here stack equations while identifying shared
variables, and the interpretation into systems preserves them —
`check_preservation` is the law's check over generic pullbacks: it computes
both routes and compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import carriers, vect
from .carriers import CarrierMap
from .errors import MismatchError
from .systems import System, SystemMorphism, _proved, make_morphism, pullback_systems, systems_equal
from .vect import LinMap, VectObj


@dataclass(frozen=True)
class EquationRep:
    f1: CarrierMap
    f2: CarrierMap

    def __post_init__(self):
        if self.f1.dom != self.f2.dom or self.f1.cod != self.f2.cod:
            raise MismatchError("equation maps must be a parallel pair")

    @property
    def universum(self):
        return self.f1.dom

    @property
    def codomain(self):
        return self.f1.cod

    @cached_property
    def system(self) -> System:
        """The system the pair's equalizer carves out, computed on first read and kept."""
        return System(carriers.equalizer(self.f1, self.f2).arrow)


def kernel_rep(f: LinMap) -> EquationRep:
    """The pair (f, 0); its behavior is the kernel of f."""
    if not isinstance(f, LinMap):
        raise MismatchError("kernel representations require the vector-space carrier")
    return EquationRep(f, vect.zero_map(f.dom, f.cod))


def certified_kernel_rep(f: LinMap, candidate: System) -> EquationRep | None:
    """The pair (f, 0) with the candidate as its system, if f certifies it; else None.

    f . K = 0 puts span K in ker f, and K is mono, so dim K <= nullity of f,
    with equality exactly when span K = ker f. Any other outcome (a candidate
    outside the kernel or missing part of it, or a nullity below dim K, which
    only a broken ``vect.rank_of`` gives) leaves the answer to the equalizer:
    None. f . K = 0 is one sparse dot of each row of f with each column of K,
    read off the basis an inclusion keeps, or else off K's transpose.
    """
    rep = kernel_rep(f)
    k = candidate.inclusion
    if k.cod != f.dom:
        raise MismatchError("the candidate system does not live on the equations' universum")
    columns = k._basis if k._basis is not None else vect._transpose(k.rows, k.dom.dim)
    if not vect.annihilates(f.rows, columns):
        return None
    if f.dom.dim - vect.rank_of(f.rows, f.dom.dim) != k.dom.dim:
        return None
    rep.__dict__["system"] = candidate  # the kept value ``EquationRep.system`` reads
    return rep


def solved_kernel_rep(f: LinMap, basis: vect.Rows) -> EquationRep:
    """The pair (f, 0) whose system is the inclusion of ``basis``: the
    canonical RREF basis of ker f, which the caller solved from a kernel it
    already holds. No certificate runs: the system is built as the equalizer
    would build it, and ``vect._inclusion`` checks the basis's shape and
    whether it is canonical, as for any inclusion."""
    rep = kernel_rep(f)
    rep.__dict__["system"] = System(vect._inclusion(VectObj(vect._kernel_names(len(basis))), f.dom, basis))
    return rep


def arr_eq(rep: EquationRep) -> System:
    """Interpret a representation as the system its equalizer carves out."""
    return rep.system


@dataclass(frozen=True)
class EquationMorphism:
    src: EquationRep
    dst: EquationRep
    psi_u: CarrierMap
    psi_e: CarrierMap

    def __post_init__(self):
        if self.psi_u.dom != self.src.universum or self.psi_u.cod != self.dst.universum:
            raise MismatchError("psi_u does not match the representations")
        if self.psi_e.dom != self.src.codomain or self.psi_e.cod != self.dst.codomain:
            raise MismatchError("psi_e does not match the representations")
        for f, g in ((self.src.f1, self.dst.f1), (self.src.f2, self.dst.f2)):
            if not carriers.commutes(self.psi_e, f, g, self.psi_u):
                raise MismatchError("equation morphism square does not commute")


def identity_equation_morphism(rep: EquationRep) -> EquationMorphism:
    return EquationMorphism(
        rep, rep, carriers.identity(rep.universum), carriers.identity(rep.codomain)
    )


def compose_equation_morphisms(b: EquationMorphism, a: EquationMorphism) -> EquationMorphism:
    if a.dst != b.src:
        raise MismatchError("equation morphisms are not composable")
    return EquationMorphism(
        a.src, b.dst, carriers.compose(b.psi_u, a.psi_u), carriers.compose(b.psi_e, a.psi_e)
    )


def arr_eq_morphism(m: EquationMorphism) -> SystemMorphism:
    """The unique system morphism whose universum component is psi_u."""
    # psi_u . e equalizes the target pair, so it factors through the equalizer.
    return make_morphism(arr_eq(m.src), arr_eq(m.dst), m.psi_u)


@dataclass(frozen=True)
class EquationPullback:
    rep: EquationRep
    proj1: EquationMorphism
    proj2: EquationMorphism


def pullback_equations(m: EquationMorphism, n: EquationMorphism) -> EquationPullback:
    """Stack two representations over a common one, identifying shared variables.

    Each map of the stacked pair is the ``pullback_map`` of the sources' maps,
    the lift u_k with epb.proj_i . u_k = f_k . upb.proj_i for the sources'
    f_k. Those are the squares of projection i, so the projections are not
    checked again.
    """
    if m.dst != n.dst:
        raise MismatchError("pullback requires morphisms into the same representation")
    upb = carriers.pullback(m.psi_u, n.psi_u)
    epb = carriers.pullback(m.psi_e, n.psi_e)
    rep = EquationRep(
        carriers.pullback_map(upb, epb, m.src.f1, n.src.f1),
        carriers.pullback_map(upb, epb, m.src.f2, n.src.f2),
    )
    proj1 = _proved(EquationMorphism, rep, m.src, upb.proj1, epb.proj1)
    proj2 = _proved(EquationMorphism, rep, n.src, upb.proj2, epb.proj2)
    return EquationPullback(rep, proj1, proj2)


@dataclass(frozen=True)
class PreservationReport:
    syntax_system: System
    semantics_system: System
    equal: bool


def check_preservation(m: EquationMorphism, n: EquationMorphism) -> PreservationReport:
    """Interpret-then-pull-back versus pull-back-then-interpret, compared exactly."""
    syntax_side = arr_eq(pullback_equations(m, n).rep)
    semantics_side = pullback_systems(arr_eq_morphism(m), arr_eq_morphism(n)).system
    return PreservationReport(syntax_side, semantics_side, systems_equal(syntax_side, semantics_side))
