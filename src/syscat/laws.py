"""Randomized and exhaustive law suites behind the ``check`` CLI command.

Each suite builds desk-sized instances, runs the construction under test, and
counts failures. A failed trial is listed by its number and what differed:
the hom-set sizes and the false flags, the two behaviors' sizes or universa,
the four dims of the modular law, or the duality identities that failed.
Everything is driven by a seeded ``random.Random`` so runs are reproducible.

The Vect generators work on sparse int rows, the format of ``vect``: a
random matrix is drawn row by row as canonical rows ``(1, {col: n})``, and the
kernel multiples that make a random equation morphism's squares commute are
added to its rows in integer arithmetic over each row's common denominator.
No dense ``Fraction`` matrix is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import lcm

from . import booldual, carriers, finset, vect
from .equations import EquationMorphism, EquationRep, check_preservation
from .finset import FinMap, FinObj
from .generalized import GenEquation, GeneralizedSystem, GenSystemMorphism, adjunction_check
from .systems import (
    BehaviorLattice,
    System,
    behavior_image,
    interconnect_shared,
    system_from_behavior,
)
from .vect import LinMap, Rows, Subspace, VectObj


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    total: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, why=None):
        """Count a trial. A failed one is listed as ``trial N``, followed by
        ``why()`` when given, so its detail is built only on failure."""
        self.total += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(f"trial {self.total}: {why()}" if why else f"trial {self.total}")

    @property
    def ok(self) -> bool:
        return self.passed == self.total


@dataclass
class LawReport:
    law: str
    suites: list[SuiteResult]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "ok": self.ok,
            "suites": [
                {
                    "name": s.name,
                    "passed": s.passed,
                    "total": s.total,
                    "failures": s.failures[:10],
                }
                for s in self.suites
            ],
        }


# -- random generators --------------------------------------------------------

def _obj(rng: random.Random, prefix: str, lo: int, hi: int) -> FinObj:
    return FinObj(tuple(f"{prefix}{i}" for i in range(rng.randint(lo, hi))))


def _finmap(rng: random.Random, dom: FinObj, cod: FinObj) -> FinMap:
    return FinMap(dom, cod, {x: rng.choice(cod.elements) for x in dom})


def _epi_finmap(rng: random.Random, dom: FinObj, cod: FinObj) -> FinMap:
    # assumes len(dom) >= len(cod) >= 1
    slots = list(dom.elements)
    rng.shuffle(slots)
    table = {}
    for label, target in zip(slots, cod.elements):
        table[label] = target
    for label in slots[len(cod) :]:
        table[label] = rng.choice(cod.elements)
    return FinMap(dom, cod, table)


def _finset_equation_cospan(rng: random.Random) -> tuple[EquationMorphism, EquationMorphism]:
    """A random cospan in the syntax category, built so every square commutes.

    The shared representation is drawn first; each leg picks a surjective
    codomain component so a compatible pair of equation maps always exists.
    """
    uc = _obj(rng, "uc", 1, 3)
    ec = _obj(rng, "ec", 1, 2)
    shared = EquationRep(_finmap(rng, uc, ec), _finmap(rng, uc, ec))

    def leg(side: str) -> EquationMorphism:
        u = _obj(rng, f"u{side}", 1, 4)
        e = _obj(rng, f"e{side}", len(ec), 4)
        psi_u = _finmap(rng, u, uc)
        psi_e = _epi_finmap(rng, e, ec)
        preimages = {t: [x for x in e if psi_e(x) == t] for t in ec}
        tables = []
        for h in (shared.f1, shared.f2):
            tables.append({x: rng.choice(preimages[h(psi_u(x))]) for x in u})
        rep = EquationRep(FinMap(u, e, tables[0]), FinMap(u, e, tables[1]))
        return EquationMorphism(rep, shared, psi_u, psi_e)

    return leg("a"), leg("b")


def _vect_obj(rng: random.Random, prefix: str, lo: int, hi: int) -> VectObj:
    return VectObj(tuple(f"{prefix}{i}" for i in range(rng.randint(lo, hi))))


def _int_rows(rng: random.Random, rows: int, cols: int) -> Rows:
    """rows canonical rows of cols entries drawn from -2..2, row by row."""
    out = []
    for _ in range(rows):
        entries = [rng.randint(-2, 2) for _ in range(cols)]
        out.append((1, {j: n for j, n in enumerate(entries) if n}))
    return tuple(out)


def _linmap(rng: random.Random, dom: VectObj, cod: VectObj) -> LinMap:
    return LinMap.from_rows(dom, cod, _int_rows(rng, cod.dim, dom.dim))


def _epi_linmap(rng: random.Random, dom: VectObj, cod: VectObj) -> tuple[LinMap, LinMap]:
    # assumes dom.dim >= cod.dim; resamples until full row rank, that is until
    # f has a right inverse, and returns f with it
    while True:
        f = _linmap(rng, dom, cod)
        right_inv = vect.right_inverse(f)
        if right_inv is not None:
            return f, right_inv


def _plus_kernel_multiples(rows: Rows, ncols: int, kernel: Rows, coeffs) -> Rows:
    """Row i of rows plus the sum over k of kernel[k]'s entry i times coeffs[k].

    The sum is taken in integers over one common denominator per row.
    """
    out = []
    for i, (d, m) in enumerate(rows):
        terms = [(q, b[i], c) for (q, b), c in zip(kernel, coeffs) if i in b]
        den = lcm(d, *(q for q, _, _ in terms))
        acc = [m.get(j, 0) * (den // d) for j in range(ncols)]
        for q, x, c in terms:
            for j, cj in enumerate(c):
                acc[j] += x * (den // q) * cj
        out.append(vect._canon(den, {j: n for j, n in enumerate(acc) if n}))
    return tuple(out)


def _vect_equation_cospan(rng: random.Random) -> tuple[EquationMorphism, EquationMorphism]:
    uc = _vect_obj(rng, "uc", 1, 2)
    ec = _vect_obj(rng, "ec", 1, 2)
    shared = EquationRep(_linmap(rng, uc, ec), _linmap(rng, uc, ec))

    def leg(side: str) -> EquationMorphism:
        u = _vect_obj(rng, f"u{side}", 1, 4)
        e = _vect_obj(rng, f"e{side}", ec.dim, 4)
        psi_u = _linmap(rng, u, uc)
        psi_e, right_inv = _epi_linmap(rng, e, ec)
        kernel = vect.kernel_basis(psi_e.rows, e.dim)  # canonical basis rows of ker psi_e
        maps = []
        for h in (shared.f1, shared.f2):
            base = vect.compose(right_inv, carriers.compose(h, psi_u)).rows  # u -> e
            coeffs = [[rng.randint(-1, 1) for _ in range(u.dim)] for _ in kernel]
            maps.append(LinMap.from_rows(u, e, _plus_kernel_multiples(base, u.dim, kernel, coeffs)))
        rep = EquationRep(maps[0], maps[1])
        return EquationMorphism(rep, shared, psi_u, psi_e)

    return leg("a"), leg("b")


def _subspace(rng: random.Random, ambient: VectObj) -> Subspace:
    return Subspace.from_rows(ambient, _int_rows(rng, rng.randint(0, ambient.dim), ambient.dim))


def _gen_equation(rng: random.Random) -> GenEquation:
    """A random parallel pair g => g' with a surjective target structure map."""
    c = _obj(rng, "c", 1, 3)
    u = _obj(rng, "u", 1, 3)
    up = _obj(rng, "w", 1, 2)
    cp = _obj(rng, "d", len(up), 3)
    g = GeneralizedSystem(_finmap(rng, c, u))
    gp = GeneralizedSystem(_epi_finmap(rng, cp, up))
    preimages = {y: [x for x in cp if gp.arrow(x) == y] for y in up}

    def morphism() -> GenSystemMorphism:
        phi_u = _finmap(rng, u, up)
        phi_c = FinMap(
            c, cp, {x: rng.choice(preimages[phi_u(g.arrow(x))]) for x in c}
        )
        return GenSystemMorphism(g, gp, phi_c, phi_u)

    return GenEquation(morphism(), morphism())


# -- suites --------------------------------------------------------------------

def _false(checks: dict) -> str:
    """The names of the checks that came out false."""
    return ", ".join(name for name, ok in checks.items() if not ok)


def _size(x) -> str:
    """A behavior's size: the dim of a Vect object or subspace, else its points."""
    return f"dim {x.dim}" if isinstance(x, (VectObj, Subspace)) else f"{len(x)} points"


def _preservation_failure(report) -> str:
    syn, sem = report.syntax_system, report.semantics_system
    if syn.universum != sem.universum:
        return "the universa differ"
    return f"syntax behavior {_size(syn.behavior)}, semantics behavior {_size(sem.behavior)}"


def preservation_suite(seed: int, trials: int = 200) -> LawReport:
    """``trials`` FinSet cospans, then a quarter as many (at least one) Vect cospans."""
    rng = random.Random(seed)
    fs = SuiteResult("finset")
    for _ in range(trials):
        report = check_preservation(*_finset_equation_cospan(rng))
        fs.record(report.equal, lambda: _preservation_failure(report))
    vs = SuiteResult("vect")
    for _ in range(max(1, trials // 4)):
        report = check_preservation(*_vect_equation_cospan(rng))
        vs.record(report.equal, lambda: _preservation_failure(report))
    return LawReport("preservation", [fs, vs])


# duality_suite's set sizes: every pair of sets up to EXHAUSTIVE_MAX elements,
# random sets up to RANDOM_MAX
EXHAUSTIVE_MAX = 4
RANDOM_MAX = 6


def duality_suite(seed: int, trials: int = 500) -> LawReport:
    rng = random.Random(seed)
    gf = SuiteResult("G.F=id (exhaustive)")
    cl = SuiteResult("mono/epi swap (exhaustive)")
    for ns in range(EXHAUSTIVE_MAX + 1):
        for nt in range(EXHAUSTIVE_MAX + 1):
            s = FinObj(tuple(f"s{i}" for i in range(ns)))
            t = FinObj(tuple(f"t{i}" for i in range(nt)))
            for f in finset.all_maps(s, t):
                phi = booldual.functor_F(f)
                gf.record(booldual.functor_G(phi) == f)
                cl.record(booldual.duality_classify(f, phi).consistent)
    fg = SuiteResult("F.G=id (exhaustive homs)")
    for ns in range(EXHAUSTIVE_MAX + 1):
        for nt in range(EXHAUSTIVE_MAX + 1):
            src = booldual.PowerLattice(FinObj(tuple(f"t{i}" for i in range(nt))))
            dst = booldual.PowerLattice(FinObj(tuple(f"s{i}" for i in range(ns))))
            for phi in booldual.all_homs(src, dst):
                fg.record(booldual.functor_F(booldual.functor_G(phi)) == phi)
    rnd = SuiteResult("roundtrip (randomized)")
    for _ in range(trials):
        s = _obj(rng, "s", 0, RANDOM_MAX)
        t = _obj(rng, "t", 1, RANDOM_MAX)
        f = _finmap(rng, s, t)
        phi = booldual.functor_F(f)
        g = booldual.functor_G(phi)
        checks = {"G.F=id": g == f, "F.G=id": booldual.functor_F(g) == phi,
                  "mono/epi swap": booldual.duality_classify(f, phi).consistent}
        rnd.record(all(checks.values()), lambda: "false: " + _false(checks))
    return LawReport("duality", [gf, cl, fg, rnd])


def _adjunction_failure(report) -> str:
    flags = {"bijection_ok": report.bijection_ok, "naturality_ok": report.naturality_ok}
    sizes = f"|Hom(diag g, e)|={report.diagonal_homs} |Hom(g, ObjEq e)|={report.objeq_homs}"
    return f"{sizes}, false: {_false(flags)}"


def adjunction_suite(seed: int, trials: int = 50) -> LawReport:
    rng = random.Random(seed)
    suite = SuiteResult("hom-set bijection")
    for _ in range(trials):
        e = _gen_equation(rng)
        dom = _obj(rng, "g", 1, 3)
        cod = _obj(rng, "h", 1, 3)
        g = GeneralizedSystem(_finmap(rng, dom, cod))
        report = adjunction_check(g, e)
        suite.record(report.ok, lambda: _adjunction_failure(report))
    return LawReport("adjunction", [suite])


def lattice_suite(seed: int, trials: int = 100) -> LawReport:
    rng = random.Random(seed)
    meet = SuiteResult("meet = interconnection")
    for i in range(trials):
        if i % 2 == 0:
            u = _obj(rng, "u", 1, 4)
            b1 = frozenset(x for x in u if rng.random() < 0.6)
            b2 = frozenset(x for x in u if rng.random() < 0.6)
            s1, s2 = system_from_behavior(u, b1), system_from_behavior(u, b2)
            p = finset.identity(u)
        else:
            u = _vect_obj(rng, "u", 1, 4)
            b1, b2 = _subspace(rng, u), _subspace(rng, u)
            s1, s2 = system_from_behavior(u, b1), system_from_behavior(u, b2)
            p = vect.identity(u)
        pb = interconnect_shared(s1, s2, p, p)
        via_pullback = behavior_image(
            System(carriers.compose(pb.proj1.phi_u, pb.system.inclusion))
        )
        expected = BehaviorLattice(u).meet(b1, b2)
        meet.record(
            via_pullback == expected,
            lambda: f"pullback meet {_size(via_pullback)}, lattice meet {_size(expected)}",
        )
    modular = SuiteResult("modular law")
    for _ in range(trials):
        u = _vect_obj(rng, "u", 1, 6)
        a, b = _subspace(rng, u), _subspace(rng, u)
        lat = BehaviorLattice(u)
        join, cap = lat.join(a, b), lat.meet(a, b)
        modular.record(
            a.dim + b.dim == join.dim + cap.dim,
            lambda: f"dims a={a.dim} b={b.dim} a+b={join.dim} a&b={cap.dim}",
        )
    return LawReport("lattice", [meet, modular])


LAWS = {
    "preservation": preservation_suite,
    "duality": duality_suite,
    "adjunction": adjunction_suite,
    "lattice": lattice_suite,
}


def run_law(law: str, seed: int, trials: int | None = None) -> LawReport:
    """Run one law's suite; ``trials`` replaces the suite's default count."""
    return LAWS[law](seed) if trials is None else LAWS[law](seed, trials)
