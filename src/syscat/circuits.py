"""Resistive-circuit netlists compiled to exact linear behavior models.

Netlist format (line oriented, ``#`` starts a comment)::

    circuit <name>
    node <id> [<id> ...]
    terminal <id> [<id> ...]
    resistor <id> <n1> <n2> <rational: int | p/q>
    wire <id> <n1> <n2>

Glue format::

    glue <name>
    identify <leftVar> = <rightVar>
    option close_dangling

A glued circuit's merged variables are named ``<left>=<right>``; to identify
one, write the ``=`` between the two sides as a token of its own.

Compilation produces a kernel representation over the free rational space on
one voltage variable ``v_<node>`` per node and one oriented current variable
``i_<element>`` per element, together with the circuit's node graph: each
node's voltage variable keys a ``Node`` holding its label, whether it is a
terminal, and its element ends (current variable, +1 at n1 / -1 at n2).
Equation rows are Ohm's law / wire equality per element and a current-balance
row at every internal (non-terminal) node that touches an element; terminals
are left open to the environment.

Gluing identifies variables across two compiled circuits and returns a
compiled circuit again: a ``GlueResult`` is a ``CompiledCircuit`` whose node
graph is both graphs renamed to the merged names, labels prefixed ``L.``/``R.``,
with each identified voltage joining two nodes into one; the glue builds it.
Interpretation preserves interconnection, so the glue reads the glued
behavior from the parts and has the glued equations confirm it.
Interconnection is variable sharing: the merged universum, which reads each
side's variables off their merged names, is the pullback of the two universa
over the shared block. So the semantics route pulls back only the two
behaviors over that block, and reads the result onto the merged names
straight off the parts' canonical bases (``_pullback_basis``); it is the
answer. The syntax route is the glued circuit's own equations: both sides'
rows stacked over the merged names, which are the rows, in order, that the
generic pullback of the two representations over the shared block stacks.
They certify the answer (``certified_kernel_rep``: A . K = 0 and the nullity
of A is dim K), or, if the certificate fails, are solved exactly and
compared with it. The comparison is the result's ``preservation``;
interpretation must commute with the gluing, up to a bug.
With the spec's ``close_dangling`` the glued graph's terminals of at most one
element end get zero-external-current rows ``ext:``, built like the
current-balance rows: closing a terminal interconnects with {i = 0}, which is
one more equation, and interpretation preserves that interconnection too. So
the closed behavior is read on the semantics side, off the canonical basis K
of the open behavior that the stacked rows A certified (or, if they did not,
of their exact kernel): span K is ker A, so ker A cut by the ``ext:`` rows E
is Y . K, with Y the canonical basis of ker(E . K), a kernel over dim K
columns. Each ``ext:`` row has at most one entry, so E . K is read off K's
entries at the closed currents. Y . K is canonical RREF as built, since Y
and K are; it is checked against the ``ext:`` rows on its way out, and the
result's system is then the closed one, with the stacked and ``ext:`` rows as
its equations. ``preservation`` still compares the two routes of the open
interconnection.

Emergence compares the interconnection of the parts' phenomes with the
phenome of the interconnection, on observed variables, and works on
equations at the size of the cut; it builds no behavior and no glued
circuit. A ``phenome`` eliminates hidden variables from equations, forward in
min-degree order (Willems' elimination of latent variables; Kron reduction
for resistor networks), and keeps the rows left over the other variables.
Each part first hides everything but its identified variables, its observed
ones and the currents of the terminals that closing closes; those kept
equations give its phenome on the observed names, and, stacked over the
merged names with the ``ext:`` rows, the whole's. Every elimination checks
its own answer at the cost of the equations it eliminated: each vector of
the kernel it returns must extend to a solution of them.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import vect
from .equations import EquationRep, PreservationReport, arr_eq, certified_kernel_rep, kernel_rep, solved_kernel_rep
from .errors import GlueError, MismatchError, ParseError
from .systems import System, behavior_image, systems_equal
from .vect import LinMap, Subspace, VectObj

_NAME = re.compile(r"^[A-Za-z0-9_.\-]+$")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


@dataclass(frozen=True)
class Resistor:
    ident: str
    n1: str
    n2: str
    resistance: Fraction


@dataclass(frozen=True)
class Wire:
    ident: str
    n1: str
    n2: str


Element = Resistor | Wire


@dataclass(frozen=True)
class Circuit:
    name: str
    nodes: tuple[str, ...]
    terminals: tuple[str, ...]
    elements: tuple[Element, ...]

    def __post_init__(self):
        nodes = set(self.nodes)
        if len(nodes) != len(self.nodes):
            raise ParseError("duplicate node declaration")
        for t in self.terminals:
            if t not in nodes:
                raise ParseError(f"terminal {t!r} is not a declared node")
        seen = set()
        for e in self.elements:
            if e.ident in seen:
                raise ParseError(f"duplicate element id {e.ident!r}")
            seen.add(e.ident)
            if e.n1 not in nodes or e.n2 not in nodes:
                raise ParseError(f"element {e.ident!r} references an undeclared node")
            if e.n1 == e.n2:
                raise ParseError(f"element {e.ident!r} is a self-loop")
            if isinstance(e, Resistor) and e.resistance.numerator <= 0:
                raise ParseError(f"resistor {e.ident!r} must have positive resistance")


def voltage_var(node: str) -> str:
    return f"v_{node}"


def current_var(ident: str) -> str:
    return f"i_{ident}"


def _check_names(toks, what: str, line: int):
    for tok in toks:
        if not _NAME.match(tok):
            raise ParseError(f"invalid {what} {tok!r}", line)


def _parse_rational(tok: str, line: int) -> Fraction:
    m = _RATIONAL.fullmatch(tok)
    if m is None:
        raise ParseError(f"expected an exact rational (int or p/q), got {tok!r}", line)
    p, q = m.groups()
    try:
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {tok!r}", line) from None
    except ValueError:  # more digits than int() converts from a string
        raise ParseError(f"too many digits in the value {tok[:20]}...", line) from None


def _directive_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield lineno, toks


def parse_netlist(text: str) -> Circuit:
    name = None
    nodes: list[str] = []
    terminals: list[str] = []
    elements: list[Element] = []
    for lineno, toks in _directive_lines(text):
        kind, args = toks[0], toks[1:]
        if kind == "circuit":
            if name is not None:
                raise ParseError("duplicate circuit header", lineno)
            if len(args) != 1:
                raise ParseError("circuit header takes exactly one name", lineno)
            _check_names(args, "circuit name", lineno)
            name = args[0]
            continue
        if name is None:
            raise ParseError("the first directive must be 'circuit <name>'", lineno)
        if kind == "node":
            if not args:
                raise ParseError("node directive needs at least one id", lineno)
            _check_names(args, "node id", lineno)
            nodes += args
        elif kind == "terminal":
            if not args:
                raise ParseError("terminal directive needs at least one id", lineno)
            _check_names(args, "node id", lineno)
            terminals += args
        elif kind == "resistor":
            if len(args) != 4:
                raise ParseError("resistor takes: id n1 n2 value", lineno)
            ident, n1, n2, value = args
            _check_names((ident, n1, n2), "id", lineno)
            elements.append(Resistor(ident, n1, n2, _parse_rational(value, lineno)))
        elif kind == "wire":
            if len(args) != 3:
                raise ParseError("wire takes: id n1 n2", lineno)
            ident, n1, n2 = args
            _check_names(args, "id", lineno)
            elements.append(Wire(ident, n1, n2))
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    if name is None:
        raise ParseError("missing circuit header")
    if not nodes:
        raise ParseError("circuit declares no nodes")
    return Circuit(name, tuple(nodes), tuple(dict.fromkeys(terminals)), tuple(elements))


@dataclass(frozen=True)
class GlueSpec:
    name: str
    identifications: tuple[tuple[str, str], ...]
    close_dangling: bool = False


def parse_glue(text: str) -> GlueSpec:
    name = None
    idents: list[tuple[str, str]] = []
    close = False
    for lineno, toks in _directive_lines(text):
        kind = toks[0]
        if kind == "glue":
            if name is not None:
                raise ParseError("duplicate glue header", lineno)
            if len(toks) != 2:
                raise ParseError("glue header takes exactly one name", lineno)
            _check_names(toks[1:], "glue name", lineno)
            name = toks[1]
            continue
        if name is None:
            raise ParseError("the first directive must be 'glue <name>'", lineno)
        if kind == "identify":
            args = toks[1:]
            if len(args) == 3 and args[1] == "=" and args.count("=") == 1:
                # a lone "=" token: either side may be a merged name holding "="
                sides = [args[0], args[2]]
            else:
                sides = [s.strip() for s in " ".join(args).split("=")]
            if len(sides) != 2 or not all(sides):
                raise ParseError("identify takes: <leftVar> = <rightVar>", lineno)
            if any(" " in s for s in sides):
                raise ParseError("identified variables must be single names", lineno)
            left, right = sides  # either may be a merged name, names joined by "="
            _check_names(f"{left}={right}".split("="), "identified variable", lineno)
            idents.append((left, right))
        elif kind == "option":
            if toks[1:] != ["close_dangling"]:
                raise ParseError(f"unknown option {' '.join(toks[1:])!r}", lineno)
            close = True
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)
    if name is None:
        raise ParseError("missing glue header")
    return GlueSpec(name, tuple(idents), close)


# -- compilation --------------------------------------------------------------

class Node(NamedTuple):
    """A node: its label, whether it is a terminal, and its element ends
    ``(current variable, +1 at n1 / -1 at n2)`` in element order."""

    label: str
    terminal: bool
    ends: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class CompiledCircuit:
    name: str
    rep: EquationRep
    nodes: Mapping[str, Node]  # voltage variable -> node

    @property
    def system(self) -> System:
        return arr_eq(self.rep)

    @property
    def universum(self) -> VectObj:
        return self.rep.universum

    @property
    def behavior(self) -> Subspace:
        return behavior_image(self.system)


def _node_rows(kind: str, nodes, idx):
    """The row ``<kind>:<label>`` of each node: the signed sum of its ends' currents.
    Callers pass nodes whose ends have distinct currents, so each row is canonical."""
    return (
        tuple(f"{kind}:{n.label}" for n in nodes),
        tuple((1, {idx[var]: sign for var, sign in n.ends}) for n in nodes),
    )


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Deterministic translation of a circuit into a kernel representation:
    each element's law, then KCL at internal nodes that touch an element."""
    voltages = [voltage_var(n) for n in circuit.nodes]
    currents = [current_var(e.ident) for e in circuit.elements]
    universum = VectObj(tuple(voltages) + tuple(currents))
    idx = {v: i for i, v in enumerate(universum.vars)}
    ends = {n: [] for n in circuit.nodes}
    names, rows = [], []
    for e, i in zip(circuit.elements, currents):
        v1, v2 = idx[voltage_var(e.n1)], idx[voltage_var(e.n2)]
        if isinstance(e, Resistor):
            # v1 - v2 - (p/q) i, times q
            p, q = e.resistance.numerator, e.resistance.denominator
            rows.append((q, {v1: q, v2: -q, idx[i]: -p}))
        else:
            rows.append((1, {v1: 1, v2: -1}))
        names.append(f"law:{e.ident}")
        # no self-loops, so an element has one end at each of two nodes
        ends[e.n1].append((i, 1))
        ends[e.n2].append((i, -1))
    terminals = set(circuit.terminals)
    nodes = {v: Node(n, n in terminals, tuple(ends[n])) for v, n in zip(voltages, circuit.nodes)}
    kcl_names, kcl_rows = _node_rows(
        "kcl", [n for n in nodes.values() if not n.terminal and n.ends], idx
    )
    f = LinMap.from_rows(universum, VectObj(tuple(names) + kcl_names), tuple(rows) + kcl_rows)
    return CompiledCircuit(circuit.name, kernel_rep(f), nodes)


# -- gluing -------------------------------------------------------------------

@dataclass(frozen=True)
class GlueResult(CompiledCircuit):
    """The glued circuit, itself a compiled circuit, with how it was glued."""

    merged: tuple[tuple[str, str, str], ...]  # (left, right, merged name)
    preservation: PreservationReport
    close_dangling: bool
    closed_terminals: tuple[str, ...]


def _merged_names(spec: GlueSpec, left: VectObj, right: VectObj):
    """The (left, right, merged) pairs, the merged universum, and each side's
    map from its own variables to their merged names.
    """
    pairs = []
    seen_left, seen_right = set(), set()
    for l, r in spec.identifications:
        if l not in left.vars:
            raise GlueError(f"{l!r} is not a variable of the left circuit")
        if r not in right.vars:
            raise GlueError(f"{r!r} is not a variable of the right circuit")
        if l.startswith("v_") != r.startswith("v_"):  # every variable is v_ or i_
            raise GlueError(f"cannot identify {l!r} with {r!r}: different kinds")
        if l in seen_left or r in seen_right:
            raise GlueError(f"variable identified twice in {l!r} = {r!r}")
        seen_left.add(l)
        seen_right.add(r)
        pairs.append((l, r, l if l == r else f"{l}={r}"))
    by_left = {l: m for l, _, m in pairs}
    by_right = {r: m for _, r, m in pairs}
    rename1 = {v: by_left.get(v, v) for v in left.vars}
    rename2 = {v: by_right.get(v, v) for v in right.vars}
    glued = list(rename1.values()) + [v for v in right.vars if v not in seen_right]
    if len(set(glued)) != len(glued):
        dupes = sorted({v for v in glued if glued.count(v) > 1})
        raise GlueError(f"name collision after merge: {', '.join(dupes)}")
    return tuple(pairs), VectObj(tuple(glued)), rename1, rename2


def _merged_nodes(k1: CompiledCircuit, k2: CompiledCircuit, rename1, rename2):
    """Both node graphs over the merged names, labels prefixed ``L.``/``R.``.

    An identified voltage joins its two nodes into one, which keeps the right
    label; the merged names do not collide, so they key the joined graph.
    """
    def renamed(k, rename, tag):
        return {
            rename[v]: Node(
                f"{tag}.{n.label}", n.terminal, tuple((rename[i], s) for i, s in n.ends)
            )
            for v, n in k.nodes.items()
        }

    nodes = renamed(k1, rename1, "L")
    for v, n in renamed(k2, rename2, "R").items():
        if v in nodes:
            n = Node(n.label, nodes[v].terminal or n.terminal, nodes[v].ends + n.ends)
        nodes[v] = n
    return nodes


def _closed_terminals(nodes) -> list[Node]:
    """The terminals of at most one element end, by label: closing gives each
    a zero-external-current row."""
    return sorted((n for n in nodes.values() if n.terminal and len(n.ends) <= 1), key=lambda n: n.label)


def glue(c1: Circuit, c2: Circuit, spec: GlueSpec) -> GlueResult:
    """Interconnect two circuits by identifying variables.

    Returns the glued circuit: the stacked representation over the
    merged-name universum and the merged node graph, together with the
    preservation report of the two routes of the open interconnection: the
    stacked equations' system (syntax), the pullback of the two behaviors
    over the identified variables, read off the parts' bases onto the merged
    universum (semantics), and whether the two behaviors agree. Both systems
    live on the merged-name universum. When the stacked equations certify the
    pullback, the two are one system and the open interconnection solves no
    whole-circuit kernel; otherwise the syntax system is the stacked
    equations' exact kernel. With ``close_dangling`` the result's equations
    are the stacked rows plus one ``ext:`` row per closed terminal, and its
    system is that open behavior cut by the ``ext:`` rows, a kernel over the
    open behavior's coordinates rather than the merged names; the report
    still describes the open interconnection.
    """
    return _glue_compiled(compile_circuit(c1), compile_circuit(c2), spec)


def _behavior_rows(s: System) -> vect.Rows:
    """The canonical basis of s's behavior: the one its inclusion keeps, or
    else its image's."""
    inc = s.inclusion
    return inc._rref if inc._rref is not None else vect.image(inc).rows


def _coefficient_row(*parts) -> vect.Row:
    """One integer row over the coordinates of stacked bases: for each part
    (basis, c, sign, at), sign times column c of basis at coordinates at + i,
    all over the lcm of the denominators of the basis rows that hold c."""
    col = [(at + i, d, sign * m[c]) for b, c, sign, at in parts for i, (d, m) in enumerate(b) if c in m]
    e = lcm(*(d for _, d, _ in col))
    return (1, {i: x * (e // d) for i, d, x in col})


def _pullback_basis(k1: CompiledCircuit, k2: CompiledCircuit, pairs, at) -> vect.Rows:
    """The canonical basis, over the merged names, of the pullback of the two
    behaviors over the identified variables; ``at`` holds the merged column of
    each variable of k2, and k1's variables keep their columns.

    With B1 and B2 the parts' canonical bases, a point of the pullback is a
    pair (x, y) with x . B1 = y . B2 on every identified pair; one integer row
    per pair over k1 + k2 columns (B1's column at the left variable, minus
    B2's at the right one) cuts out the canonical basis C of those pairs. The
    point x . B1 = y . B2 then reads, on the merged names, x . B1 on the left
    variables and y . B2 on the right-only ones, so the basis is C . B, B
    being B1 and B2 restricted to the right-only names, stacked. It is
    canonical RREF already: the merged names list the left variables first,
    C's rows lead with increasing columns and are zero at each other's leads,
    and a row of C with x = 0 has y . B2 zero on the identified variables, so
    it leads on a right-only name.
    """
    b1, b2 = _behavior_rows(k1.system), _behavior_rows(k2.system)
    u1, u2, k = k1.universum, k2.universum, len(b1)
    rows = [_coefficient_row((b1, u1.index(l), 1, 0), (b2, u2.index(r), -1, k)) for l, r, _ in pairs]
    c = vect.kernel_basis(rows, k + len(b2))
    n1 = u1.dim  # the right-only names are the merged columns past k1's
    right = tuple(vect._canon(d, {at[j]: x for j, x in m.items() if at[j] >= n1}) for d, m in b2)
    # B is block diagonal, so row (x, y) of C . B is x . B1 beside y . B2:
    # each half is multiplied and reduced on its own, and two canonical
    # halves over the lcm of their denominators make a canonical row
    xs = vect.mat_mul(tuple(vect._canon(d, {i: v for i, v in m.items() if i < k}) for d, m in c), b1)
    ys = vect.mat_mul(tuple(vect._canon(d, {i - k: v for i, v in m.items() if i >= k}) for d, m in c), right)
    basis = []
    for (p, x), (q, y) in zip(xs, ys):
        if not (x and y):  # one half is (1, {}): the other is the row
            basis.append((p, x) if x else (q, y))
            continue
        e = lcm(p, q)
        basis.append((e, {j: v * (e // p) for j, v in x.items()} | {j: v * (e // q) for j, v in y.items()}))
    return tuple(basis)


def _glue_compiled(k1: CompiledCircuit, k2: CompiledCircuit, spec: GlueSpec) -> GlueResult:
    pairs, glued, rename1, rename2 = _merged_names(spec, k1.universum, k2.universum)
    # the syntax route: both sides' equations stacked over the merged names,
    # where the left's variables keep their columns
    f1, f2 = k1.rep.f1, k2.rep.f1
    row_names = tuple(f"L:{n}" for n in f1.cod.vars) + tuple(f"R:{n}" for n in f2.cod.vars)
    at = [glued.index(rename2[v]) for v in k2.universum.vars]
    stacked = LinMap.from_rows(
        glued, VectObj(row_names), f1.rows + tuple((d, {at[j]: x for j, x in m.items()}) for d, m in f2.rows)
    )

    # the semantics route: the pullback of the parts' behaviors over the
    # identified variables, read off their bases onto the merged names
    basis = _pullback_basis(k1, k2, pairs, at)
    semantics = System(vect._inclusion(VectObj(vect._kernel_names(len(basis))), glued, basis))
    # the stacked equations certify it as their system, or else are solved
    rep = certified_kernel_rep(stacked, semantics) or kernel_rep(stacked)
    syntax = arr_eq(rep)
    preservation = PreservationReport(syntax, semantics, systems_equal(syntax, semantics))

    nodes = _merged_nodes(k1, k2, rename1, rename2)
    closed = _closed_terminals(nodes) if spec.close_dangling else []
    if closed:
        # closing interconnects with {i = 0}: one ext: row per closed terminal,
        # at most one entry each. With K the open behavior's canonical basis,
        # span K = ker A, so the closed behavior is ker(E . K) . K, canonical
        # RREF as built since both factors are
        ext_names, ext_rows = _node_rows("ext", closed, {v: i for i, v in enumerate(glued.vars)})
        k = _behavior_rows(syntax)
        ek = [_coefficient_row(*((k, c, s, 0) for c, s in e.items())) for _, e in ext_rows]
        basis = vect.mat_mul(vect.kernel_basis(ek, len(k)), k)
        if not vect.annihilates(ext_rows, basis):
            raise MismatchError("the closed behavior does not solve its ext: rows")
        closing = LinMap.from_rows(glued, VectObj(row_names + ext_names), stacked.rows + ext_rows)
        rep = solved_kernel_rep(closing, basis)
    return GlueResult(
        name=spec.name,
        rep=rep,
        nodes=nodes,
        merged=pairs,
        preservation=preservation,
        close_dangling=spec.close_dangling,
        closed_terminals=tuple(n.label for n in closed),
    )


# -- phenomes and emergence ---------------------------------------------------

def phenome(rows, space: VectObj, names) -> tuple[vect.Rows, vect.Rows]:
    """The phenome on ``names`` of the system ker ``rows`` over ``space``:
    equations over names whose kernel is the projection of ker rows onto
    them, and that kernel's canonical basis, columns in the order of names.

    Every other variable is hidden and eliminated: forward elimination in
    min-degree order pivots only on the hidden columns, and the rows left
    hold none. They are row combinations of rows, so their kernel holds the
    projection. The converse is checked: each basis vector, placed on names,
    is back-substituted through the hidden pivot rows into a vector X over
    space whose coordinates on names must not change, and ``annihilates``
    must confirm rows . X = 0; otherwise ``MismatchError``.
    """
    kept = [space.index(n) for n in names]
    at = {c: j for j, c in enumerate(kept)}
    m = vect._ints(rows)
    steps = vect._eliminate_forward(m, set(range(space.dim)).difference(kept))
    pivoted = {r for r, _ in steps}
    eqs = tuple(
        (1, {at[c]: x for c, x in row.items()}) for i, row in enumerate(m) if row and i not in pivoted
    )
    basis = vect.kernel_basis(eqs, len(kept))
    back = [(m[r], c) for r, c in reversed(steps)]
    xs, unchanged = [], True
    for _, v in basis:
        x = {kept[j]: n for j, n in v.items()}
        a = vect._back_substitute(x, back)
        unchanged = unchanged and all(x.get(c, 0) == a * v.get(j, 0) for j, c in enumerate(kept))
        xs.append((1, x))
    if not unchanged or not vect.annihilates(rows, xs):
        raise MismatchError("eliminated equations disagree with the equations they come from")
    return eqs, basis


def _check_observed(space: VectObj, obs):
    for n in obs:
        if n not in space.vars:
            raise MismatchError(f"unknown observable variable {n!r}")


@dataclass(frozen=True)
class EmergenceReport:
    observed: tuple[str, ...]
    parts_dim: int
    whole_dim: int
    emergent: bool
    close_dangling: bool

    def to_json(self) -> dict:
        return {
            "observe": list(self.observed),
            "parts_dim": self.parts_dim,
            "whole_dim": self.whole_dim,
            "emergent": self.emergent,
            "close_dangling": self.close_dangling,
        }


def emergence_report(c1: Circuit, c2: Circuit, spec: GlueSpec, names) -> EmergenceReport:
    """Compare the interconnection of phenomes with the phenome of the interconnection.

    Both are read off equations at the size of the cut; no part's behavior
    and no glued circuit is built. Each part's ``phenome`` on its kept
    variables (identified, observed, or the current of a terminal that
    ``close_dangling`` closes) hides the rest; its phenome on the observed
    names hides the kept ones too, and the parts' phenome is the kernel of
    both sides' equations on the observed names. The whole stacks the parts'
    kept equations over the merged names, adds the ``ext:`` row of each
    closed terminal (its at most one end lies in one part), and takes the
    phenome of that on the observed names. Hidden variables of the two parts
    are distinct, so hiding them commutes with the interconnection.
    Each ``phenome`` checks that every vector of its kernel extends to a
    solution of the equations it eliminated from. That is one inclusion; the
    other holds because the rows it keeps are row combinations of those
    equations. So the kept equations, and the phenomes read from them, have
    exactly the projected behaviors, at a cost linear in each part.
    """
    obs = tuple(names)
    k1, k2 = compile_circuit(c1), compile_circuit(c2)
    _check_observed(k1.universum, obs)
    observed = set(VectObj(obs).vars)  # VectObj rejects a repeated name
    _check_observed(k2.universum, obs)
    pairs, glued, rename1, rename2 = _merged_names(spec, k1.universum, k2.universum)
    _check_observed(glued, obs)
    closed = _closed_terminals(_merged_nodes(k1, k2, rename1, rename2)) if spec.close_dangling else []
    cut = {i for n in closed for i, _ in n.ends}
    part_eqs, sides = (), []
    for k, rename, joined in ((k1, rename1, {l for l, _, _ in pairs}), (k2, rename2, {r for _, r, _ in pairs})):
        kept = VectObj(tuple(v for v in k.universum.vars if v in joined or v in observed or rename[v] in cut))
        eqs, _ = phenome(k.rep.f1.rows, k.universum, kept.vars)
        part_eqs += phenome(eqs, kept, obs)[0]
        sides.append((eqs, [rename[v] for v in kept.vars]))
    at: dict[str, int] = {}
    for _, merged in sides:
        for v in merged:
            at.setdefault(v, len(at))
    stacked = [(d, {at[merged[j]]: x for j, x in m.items()}) for eqs, merged in sides for d, m in eqs]
    stacked += _node_rows("ext", closed, at)[1]
    _, whole = phenome(tuple(stacked), VectObj(tuple(at)), obs)
    parts = vect.kernel_basis(part_eqs, len(obs))
    # both are canonical bases of subspaces of the observed space, equal when the subspaces are
    return EmergenceReport(
        observed=obs,
        parts_dim=len(parts),
        whole_dim=len(whole),
        emergent=whole != parts,
        close_dangling=spec.close_dangling,
    )
