"""Deterministic input generator for the syscat benchmark.

``plan(workload, seed)`` returns the list of operations one cycle of a
workload runs. Each operation carries the ``syscat`` argv (relative to the
directory the inputs are written to), the files it needs, and the generator's
own description of every circuit, from which ``reference.py`` computes the
expected answer without looking at syscat's output. ``write(ops, directory)``
writes the files; the same workload and seed always give byte-identical files.

Run ``python3 bench/generate.py <workload> <seed> <directory>`` to inspect the
inputs of one cycle.

Why each workload exists
------------------------
``behavior``
    ``behavior`` on ladders (integer or random-rational resistors) and square
    grids (random-rational resistors, about 20 % wires), universum dimension
    about 20 to about 100. All time goes to parse -> compile -> ``rref`` /
    ``kernel_basis`` -> ``Subspace``; no ``compose``, ``mat_mul`` or pullback
    runs. This is where a sparse RREF shows, and where a ``mat_mul`` change
    must show no change.
``glue``
    ``glue`` on pairs of distinct circuits (ladder-ladder and ladder-grid)
    with a different name prefix on each side; half the operations pass
    ``--close-dangling``. Merged dimension 10 to 30. The
    commuting-square checks (``mat_mul``) dominate, then pullbacks, mediation
    solves and the three-route cross-check. It bypasses changes that only
    touch emergence.
``emergence``
    ``emergence --observe`` on augmented ladder pairs: each side declares the
    other side's outer terminals, as ``circuits/S_aug.ckt`` does, and only
    the four outer voltages are observed, so hidden variables dominate. It
    does all of glue's work plus two more compiles, phenome projection, image
    factorization and ``Subspace.intersect``: the only workload where reusing
    compiled circuits or eliminating hidden variables early can show.
``laws``
    ``check --law`` for all four laws (weighted, see ``LAW_MIX``) with seeds
    derived from the workload seed. Thousands of desk-sized constructions on FinSet, powerset lattices,
    generalized systems and tiny dense matrices, so per-call overhead and
    carrier dispatch dominate. A change that speeds up big matrices at the
    cost of small ones shows here.

Left out: gluing a circuit to a copy of itself. Its correct output, with
namespaced variable names, is not defined until syscat namespaces the two
sides, so no reference could check it.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

@dataclass(frozen=True)
class Element:
    kind: str  # "resistor" or "wire"
    ident: str
    n1: str
    n2: str
    resistance: Fraction | None = None


@dataclass(frozen=True)
class CircuitDesc:
    name: str
    nodes: tuple[str, ...]
    terminals: tuple[str, ...]
    elements: tuple[Element, ...]

    def netlist(self) -> str:
        lines = [
            f"circuit {self.name}",
            "node " + " ".join(self.nodes),
            "terminal " + " ".join(self.terminals),
        ]
        for e in self.elements:
            if e.kind == "wire":
                lines.append(f"wire {e.ident} {e.n1} {e.n2}")
            else:
                lines.append(f"resistor {e.ident} {e.n1} {e.n2} {e.resistance}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GlueDesc:
    name: str
    identify: tuple[tuple[str, str], ...]  # (left var, right var)

    def text(self) -> str:
        return "\n".join([f"glue {self.name}"] + [f"identify {l} = {r}" for l, r in self.identify]) + "\n"


@dataclass
class Op:
    """One CLI call; ``files`` maps a file name to its text."""

    kind: str
    label: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    left: CircuitDesc | None = None
    right: CircuitDesc | None = None
    glue: GlueDesc | None = None
    close: bool = False
    observe: tuple[str, ...] = ()
    law: str = ""


# -- circuit families -----------------------------------------------------------

def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 97), rng.randint(1, 97))


def ladder(prefix: str, n: int, rng: random.Random, rational: bool, extra: tuple[str, ...] = ()) -> CircuitDesc:
    """The ROADMAP ladder: rungs ``s`` between rails ``n`` (resistors ``r``) and ``g`` (wires ``w``).

    ``extra`` nodes are declared as isolated terminals, which is how the
    augmented circuits of the emergence workload name the other side's
    outer terminals.
    """
    value = (lambda: _rational(rng)) if rational else (lambda: Fraction(rng.randint(1, 9)))
    n_ = [f"{prefix}n{i}" for i in range(n + 1)]
    g_ = [f"{prefix}g{i}" for i in range(n + 1)]
    elements = []
    for i in range(n):
        elements.append(Element("resistor", f"{prefix}r{i}", n_[i], n_[i + 1], value()))
        elements.append(Element("wire", f"{prefix}w{i}", g_[i], g_[i + 1]))
        elements.append(Element("resistor", f"{prefix}s{i}", n_[i + 1], g_[i + 1], value()))
    terminals = (n_[0], g_[0], n_[n], g_[n]) + extra
    return CircuitDesc(f"{prefix}ladder{n}", tuple(n_ + g_) + extra, terminals, tuple(elements))


def grid(prefix: str, k: int, rng: random.Random) -> CircuitDesc:
    """A k x k grid of random-rational resistors, about 20 % of them wires; corners are terminals."""
    def node(x, y):
        return f"{prefix}x{x}y{y}"

    nodes = tuple(node(x, y) for y in range(k) for x in range(k))
    edges = [(f"{prefix}{tag}{x}_{y}", node(x, y), node(x2, y2))
             for y in range(k) for x in range(k)
             for tag, (x2, y2) in (("h", (x + 1, y)), ("v", (x, y + 1)))
             if x2 < k and y2 < k]
    # An exact wire count keeps the cost of one grid steadier from seed to seed.
    wires = set(rng.sample(range(len(edges)), round(0.2 * len(edges))))
    elements = [Element("wire", *e) if i in wires else Element("resistor", *e, _rational(rng))
                for i, e in enumerate(edges)]
    corners = (node(0, 0), node(0, k - 1), node(k - 1, 0), node(k - 1, k - 1))
    return CircuitDesc(f"{prefix}grid{k}", nodes, corners, tuple(elements))


def _prefixes(rng: random.Random) -> tuple[str, str]:
    a, b = rng.sample("ABCDEFGHJKLMPQRSTUVWXYZ", 2)
    return a, b


def _ladder_pair_glue(pa: str, pb: str, na: int) -> list[tuple[str, str]]:
    """Ladder A's right end meets ladder B's left end: both rail voltages and both rail currents."""
    return [
        (f"v_{pa}n{na}", f"v_{pb}n0"),
        (f"v_{pa}g{na}", f"v_{pb}g0"),
        (f"i_{pa}r{na - 1}", f"i_{pb}r0"),
        (f"i_{pa}w{na - 1}", f"i_{pb}w0"),
    ]


# -- workloads --------------------------------------------------------------------

# Shapes are fixed and only values, names and order depend on the seed, so every
# seed gives the same mix of sizes. Mid-size shapes appear more than once with
# different values, so the percentiles rest on several inputs and move less
# from seed to seed. A cycle costs 2-4.5 s, so each input runs six times or
# more in a 26 s run.

# (family, size): ladders have dim 5n+2, grids k^2 + 2k(k-1).
BEHAVIOR_SHAPES = (
    ("ladder-int", 4), ("grid", 3), ("ladder-rat", 6), ("grid", 4), ("grid", 4),
    ("ladder-int", 10), ("ladder-rat", 10), ("ladder-rat", 12), ("ladder-int", 12),
    ("grid", 5), ("ladder-int", 14), ("ladder-rat", 14), ("ladder-int", 19),
)

# (family, a, b, left rational, right rational): "ladder" glues ladder(a) to
# ladder(b), merged dim 5(a+b); "grid" glues ladder(a) to grid(b), merged dim
# 5a + b^2 + 2b(b-1). Even positions keep dangling terminals open, odd ones close them.
GLUE_SHAPES = (
    ("ladder", 1, 1, False, False), ("ladder", 1, 2, True, False), ("ladder", 2, 2, False, True),
    ("ladder", 2, 2, True, False), ("ladder", 2, 3, True, True), ("ladder", 2, 3, False, False),
    ("ladder", 2, 3, False, True), ("grid", 1, 3, False, True), ("grid", 1, 3, True, True),
    ("grid", 1, 3, False, True), ("ladder", 3, 3, True, False),
)

# (a, b, left rational, right rational): augmented ladder(a) glued to ladder(b), merged dim 5(a+b).
EMERGENCE_SHAPES = (
    (1, 1, False, True), (1, 2, True, False), (2, 1, False, False), (2, 2, True, True),
    (2, 2, False, False), (2, 2, True, False), (2, 3, False, True), (3, 2, True, False),
    (3, 4, False, False),
)

# Law checks differ in cost by law (duality ~0.08 s, lattice ~0.11 s, adjunction
# ~0.2 s with a long tail, preservation ~0.31 s) and by law seed. Equal counts
# put the median and the 75th percentile on the step between two laws, where
# they swing from seed to seed; with this mix both fall inside the steadiest
# group, preservation, while every law still runs in every cycle.
LAW_MIX = (("duality", 1), ("lattice", 1), ("adjunction", 1), ("preservation", 6))


def _behavior_ops(rng: random.Random) -> list[Op]:
    ops = []
    for i, (family, size) in enumerate(BEHAVIOR_SHAPES):
        prefix = _prefixes(rng)[0]
        if family == "grid":
            c = grid(prefix, size, rng)
        else:
            c = ladder(prefix, size, rng, rational=family == "ladder-rat")
        fname = f"b{i}.ckt"
        ops.append(Op("behavior", f"{family}{size}", ["behavior", fname, "--json"],
                      {fname: c.netlist()}, left=c))
    return ops


def _glue_ops(rng: random.Random) -> list[Op]:
    ops = []
    for i, (family, a, b, rat_a, rat_b) in enumerate(GLUE_SHAPES):
        pa, pb = _prefixes(rng)
        left = ladder(pa, a, rng, rat_a)
        if family == "ladder":
            right = ladder(pb, b, rng, rat_b)
            identify = _ladder_pair_glue(pa, pb, a)
        else:
            right = grid(pb, b, rng)
            identify = [(f"v_{pa}n{a}", f"v_{pb}x0y0"), (f"v_{pa}g{a}", f"v_{pb}x0y{b - 1}")]
        spec = GlueDesc(f"g{i}", tuple(identify))
        close = i % 2 == 1
        names = (f"g{i}L.ckt", f"g{i}R.ckt", f"g{i}.glue")
        argv = ["glue", *names, "--json"] + (["--close-dangling"] if close else [])
        files = dict(zip(names, (left.netlist(), right.netlist(), spec.text())))
        ops.append(Op("glue", f"{family}{a}-{b}" + ("c" if close else ""), argv, files,
                      left=left, right=right, glue=spec, close=close))
    return ops


def _emergence_ops(rng: random.Random) -> list[Op]:
    ops = []
    for i, (a, b, rat_a, rat_b) in enumerate(EMERGENCE_SHAPES):
        pa, pb = _prefixes(rng)
        outer_a = (f"{pa}n0", f"{pa}g0")
        outer_b = (f"{pb}n{b}", f"{pb}g{b}")
        left = ladder(pa, a, rng, rat_a, extra=outer_b)
        right = ladder(pb, b, rng, rat_b, extra=outer_a)
        shared = [(f"v_{x}", f"v_{x}") for x in outer_a + outer_b]
        spec = GlueDesc(f"e{i}", tuple(shared + _ladder_pair_glue(pa, pb, a)))
        observe = tuple(f"v_{x}" for x in outer_a + outer_b)
        close = i % 2 == 1
        names = (f"e{i}L.ckt", f"e{i}R.ckt", f"e{i}.glue")
        argv = ["emergence", *names, "--observe", ",".join(observe), "--json"]
        argv += ["--close-dangling"] if close else []
        files = dict(zip(names, (left.netlist(), right.netlist(), spec.text())))
        ops.append(Op("emergence", f"aug{a}-{b}" + ("c" if close else ""), argv, files,
                      left=left, right=right, glue=spec, close=close, observe=observe))
    return ops


def _laws_ops(rng: random.Random) -> list[Op]:
    ops = []
    for law, count in LAW_MIX:
        for _ in range(count):
            s = rng.randrange(1_000_000)
            ops.append(Op("laws", law, ["check", "--law", law, "--seed", str(s), "--json"], law=law))
    return ops


_WORKLOAD_OPS = {
    "behavior": _behavior_ops,
    "glue": _glue_ops,
    "emergence": _emergence_ops,
    "laws": _laws_ops,
}
WORKLOADS = tuple(_WORKLOAD_OPS)


def plan(workload: str, seed: int) -> list[Op]:
    """The operations of one cycle of ``workload``; a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"syscat-bench:{workload}:{seed}")
    ops = _WORKLOAD_OPS[workload](rng)
    rng.shuffle(ops)
    return ops


def write(ops: list[Op], directory: Path) -> Path:
    """Write every input file and ``ops.json`` (the argv list); return the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        for name, text in op.files.items():
            (directory / name).write_bytes(text.encode("utf-8"))
    manifest = directory / "ops.json"
    manifest.write_bytes(json.dumps([op.argv for op in ops], indent=1).encode("utf-8") + b"\n")
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: generate.py <workload> <seed> <directory>")
    print(write(plan(sys.argv[1], int(sys.argv[2])), Path(sys.argv[3])))
