"""Independent reference answers for the benchmark's operations, computed with sympy.

Every expected value is derived from the generator's own description of the
circuits (Ohm's law per element, current balance at every internal node,
zero external current at dangling terminals when asked), never from syscat's
output. ``expected(op)`` runs once per operation, outside the timed region;
``check(op, exp, text)`` compares one CLI JSON output with it and returns a
description of the first mismatch, or ``None``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from generate import CircuitDesc, Op

# Suite totals of ``syscat check --law <law>`` at its default trial counts.
# duality: sum over |S|, |T| in 0..4 of |T|^|S| maps (and as many Boolean homs).
_DUALITY_MAPS = sum(nt ** ns for ns in range(5) for nt in range(5))
LAW_TOTALS = {
    "preservation": (200, 50),
    "duality": (_DUALITY_MAPS, _DUALITY_MAPS, _DUALITY_MAPS, 500),
    "adjunction": (50,),
    "lattice": (100, 100),
}


# -- exact linear algebra over QQ -------------------------------------------------

def _dm(rows, ncols: int) -> DomainMatrix:
    rows = [[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in row] for row in rows]
    if not rows:
        return DomainMatrix.zeros((0, ncols), QQ)
    return DomainMatrix(rows, (len(rows), ncols), QQ)


def _canonical(m: DomainMatrix) -> tuple:
    """The nonzero rows of the RREF: equal exactly when the row spaces are equal."""
    if m.shape[0] == 0:
        return ()
    r, pivots = m.rref()
    return tuple(tuple(row) for row in r.to_list()[: len(pivots)])


def _rank(m: DomainMatrix) -> int:
    return m.rank() if m.shape[0] else 0


def _kernel(rows, ncols: int) -> DomainMatrix:
    if not rows:
        return _dm([[int(i == j) for j in range(ncols)] for i in range(ncols)], ncols)
    return _dm(rows, ncols).nullspace()


def _columns(m: DomainMatrix, cols: list[int]) -> DomainMatrix:
    if m.shape[0] == 0:
        return DomainMatrix.zeros((0, len(cols)), QQ)
    return m.extract(list(range(m.shape[0])), cols)


# -- circuit equations ------------------------------------------------------------

def _variables(c: CircuitDesc) -> list[str]:
    return [f"v_{n}" for n in c.nodes] + [f"i_{e.ident}" for e in c.elements]


def _laws(c: CircuitDesc, name) -> list[dict[str, Fraction]]:
    """Equations as {variable: coefficient}; ``name`` renames variables after gluing."""
    eqs = []
    for e in c.elements:
        eq = {name(f"v_{e.n1}"): Fraction(1), name(f"v_{e.n2}"): Fraction(-1)}
        if e.kind == "resistor":
            eq[name(f"i_{e.ident}")] = -e.resistance
        eqs.append(eq)
    terminals = set(c.terminals)
    for n in c.nodes:
        if n in terminals:
            continue
        eq: dict[str, Fraction] = {}
        for e in c.elements:
            for end, sign in ((e.n1, 1), (e.n2, -1)):
                if end == n:
                    var = name(f"i_{e.ident}")
                    eq[var] = eq.get(var, Fraction(0)) + sign
        if eq:
            eqs.append(eq)
    return eqs


def _dangling(op: Op, name_l, name_r) -> list[dict[str, Fraction]]:
    """Zero external current at each glued terminal that touches at most one element."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for l, r in op.glue.identify:
        if l.startswith("v_"):
            parent[find(("L", l[2:]))] = find(("R", r[2:]))
    terminal: dict[tuple, bool] = {}
    incident: dict[tuple, list] = {}
    for tag, c, name in (("L", op.left, name_l), ("R", op.right, name_r)):
        for n in c.nodes:
            root = find((tag, n))
            terminal[root] = terminal.get(root, False) or n in c.terminals
            incident.setdefault(root, [])
        for e in c.elements:
            for end, sign in ((e.n1, 1), (e.n2, -1)):
                incident[find((tag, end))].append((name(f"i_{e.ident}"), sign))
    eqs = []
    for root, ends in incident.items():
        if terminal[root] and len(ends) <= 1:
            eq: dict[str, Fraction] = {}
            for var, sign in ends:
                eq[var] = eq.get(var, Fraction(0)) + sign
            eqs.append(eq)
    return eqs


def _glued(op: Op):
    """Merged variable names and the stacked equations (open, and closed if asked)."""
    merged_l = {l: (l if l == r else f"{l}={r}") for l, r in op.glue.identify}
    merged_r = {r: merged_l[l] for l, r in op.glue.identify}
    def name_l(v): return merged_l.get(v, v)
    def name_r(v): return merged_r.get(v, v)
    variables = [name_l(v) for v in _variables(op.left)]
    variables += [v for v in _variables(op.right) if v not in merged_r]
    eqs = _laws(op.left, name_l) + _laws(op.right, name_r)
    closed = eqs + _dangling(op, name_l, name_r) if op.close else eqs
    return variables, eqs, closed


def _matrix(eqs, variables: list[str]):
    col = {v: i for i, v in enumerate(variables)}
    rows = []
    for eq in eqs:
        row = [Fraction(0)] * len(variables)
        for var, coeff in eq.items():
            row[col[var]] += coeff
        rows.append(row)
    return rows


def _behavior(eqs, variables: list[str]) -> DomainMatrix:
    return _kernel(_matrix(eqs, variables), len(variables))


def _phenome(kernel: DomainMatrix, variables: list[str], observe) -> DomainMatrix:
    return _columns(kernel, [variables.index(v) for v in observe])


def _contains(big: DomainMatrix, small: DomainMatrix) -> bool:
    if small.shape[0] == 0:
        return True
    if big.shape[0] == 0:
        return _rank(small) == 0
    return _rank(big.vstack(small)) == _rank(big)


# -- expected answers ---------------------------------------------------------------

@dataclass(frozen=True)
class Expected:
    variables: tuple[str, ...] = ()
    basis: tuple = ()  # canonical row space of the reported behavior
    dim: int = 0
    open_dim: int = 0  # glue: dimension before closing dangling terminals
    parts_dim: int = 0
    whole_dim: int = 0
    emergent: bool = False
    totals: tuple[int, ...] = ()


def expected(op: Op) -> Expected:
    if op.kind == "behavior":
        variables = _variables(op.left)
        k = _behavior(_laws(op.left, lambda v: v), variables)
        return Expected(tuple(variables), _canonical(k), k.shape[0])
    if op.kind == "glue":
        variables, eqs, closed = _glued(op)
        k = _behavior(closed, variables)
        return Expected(tuple(variables), _canonical(k), k.shape[0],
                        open_dim=_behavior(eqs, variables).shape[0])
    if op.kind == "emergence":
        parts = []
        for c in (op.left, op.right):
            variables = _variables(c)
            parts.append(_phenome(_behavior(_laws(c, lambda v: v), variables), variables, op.observe))
        a, b = parts
        ra, rb = _rank(a), _rank(b)
        parts_dim = ra + rb - _rank(a.vstack(b))
        variables, _, closed = _glued(op)
        whole = _phenome(_behavior(closed, variables), variables, op.observe)
        whole_dim = _rank(whole)
        same = whole_dim == parts_dim and _contains(a, whole) and _contains(b, whole)
        return Expected(parts_dim=parts_dim, whole_dim=whole_dim, emergent=not same)
    if op.kind == "laws":
        return Expected(totals=LAW_TOTALS[op.law])
    raise ValueError(f"unknown operation kind {op.kind!r}")


# -- checking one output ------------------------------------------------------------

def _check_basis(exp: Expected, report: dict) -> str | None:
    variables = report["universum"]["vars"]
    if sorted(variables) != sorted(exp.variables):
        return "universum variables differ from the reference"
    basis = report["behavior"]["basis"]
    if report["behavior"]["dim"] != exp.dim or len(basis) != exp.dim:
        return f"behavior dim {report['behavior']['dim']} != reference {exp.dim}"
    order = [variables.index(v) for v in exp.variables]
    rows = [[Fraction(row[j]) for j in order] for row in basis]
    if _canonical(_dm(rows, len(order))) != exp.basis:
        return "behavior row space differs from the reference"
    return None


def check(op: Op, exp: Expected, text: str) -> str | None:
    try:
        report = json.loads(text)
        if op.kind == "behavior":
            return _check_basis(exp, report)
        if op.kind == "glue":
            if report["preservation_equal"] is not True:
                return "preservation_equal is not true"
            if (report["syntax_dim"], report["semantics_dim"]) != (exp.open_dim, exp.open_dim):
                return (f"syntax/semantics dims {report['syntax_dim']}/{report['semantics_dim']}"
                        f" != reference {exp.open_dim}")
            if report["close_dangling"] is not op.close:
                return "close_dangling flag not echoed"
            return _check_basis(exp, report)
        if op.kind == "emergence":
            got = (report["parts_dim"], report["whole_dim"], report["emergent"])
            want = (exp.parts_dim, exp.whole_dim, exp.emergent)
            return None if got == want else f"emergence {got} != reference {want}"
        if op.kind == "laws":
            if report["ok"] is not True:
                return "law check not ok"
            totals = tuple(s["total"] for s in report["suites"])
            if totals != exp.totals:
                return f"trial totals {totals} != reference {exp.totals}"
            if any(s["passed"] != s["total"] for s in report["suites"]):
                return "a suite has failed trials"
            return None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
    return f"unknown operation kind {op.kind!r}"
