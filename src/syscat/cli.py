"""Command-line interface: behavior, glue, emergence, and check.

Exit codes: 0 success; 1 a domain error, a failed ``check`` law, or a glue
whose two routes disagree (its report is printed all the same); 2 usage or
input-parsing error.
Rationals are always printed as ``p/q`` (or a plain integer), never as
decimals; with ``--json`` every command emits a machine-readable report.
Every report is written by one writer, ``_dumps``, byte-identical to
``json.dumps(report, indent=2)`` for the values reports hold (dicts with str
keys, lists, strs, ints and bools); it refuses a float, or any other value,
with ``TypeError``.

With ``--close-dangling``, glue's ``behavior`` is the closed interconnection,
the kernel of the glued equations and one zero-current row per closed
terminal, while ``syntax_dim``, ``semantics_dim`` and ``preservation_equal``
describe the cross-check of the open one.

The argument parser is built on the first ``main`` call and reused by every
later call in the same process; importing the module builds nothing. The law
suites (``syscat.laws``) are imported by the first ``check``, so the other
commands never load them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .circuits import compile_circuit, emergence_report, glue, parse_glue, parse_netlist
from .errors import DomainError, ParseError
from .vect import row_text


# the keys of ``laws.LAWS``, sorted: the choices of ``check --law``
LAW_NAMES = ("adjunction", "duality", "lattice", "preservation")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for dicts with str keys, lists, strs, ints and bools.

    Strings go through ``json``'s own C escaper, without a call of their own
    when they sit in a list, such as a basis row. ``indent`` is the newline
    and indentation that close obj's brackets.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [encode_basestring_ascii(x) if type(x) is str else _dumps(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"report keys must be str, not {type(k).__name__}")
            items.append(encode_basestring_ascii(k) + ": " + _dumps(v, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"a report holds no {type(obj).__name__}")


def _behavior_json(sub) -> dict:
    """The behavior with every entry formatted by ``vect.row_text``, before
    anything is written."""
    ncols = sub.ambient.dim
    try:
        basis = [row_text(row, ncols) for row in sub.rows]
    except ValueError:  # an int past Python's int-to-text conversion limit
        raise DomainError(
            f"a behavior entry has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer"
        ) from None
    return {"ambient": list(sub.ambient.vars), "dim": sub.dim, "basis": basis}


def _print_basis(behavior: dict, out):
    for row in behavior["basis"]:
        out.write("  [" + ", ".join(row) + "]\n")


def cmd_behavior(args, out) -> int:
    compiled = compile_circuit(parse_netlist(_read(args.netlist)))
    sub = compiled.behavior
    behavior = _behavior_json(sub)
    if args.json:
        report = {
            "circuit": compiled.name,
            "universum": {"vars": list(compiled.universum.vars), "dim": compiled.universum.dim},
            "equations": {
                "count": compiled.rep.codomain.dim,
                "names": list(compiled.rep.codomain.vars),
            },
            "behavior": behavior,
        }
        out.write(_dumps(report) + "\n")
        return 0
    out.write(f"circuit {compiled.name}: dim(U)={compiled.universum.dim} dim(B)={sub.dim}\n")
    out.write("universum: " + " ".join(compiled.universum.vars) + "\n")
    out.write("basis:\n")
    _print_basis(behavior, out)
    return 0


def _glue_inputs(args):
    """The left and right circuits and the glue spec, read and parsed in that order."""
    left = parse_netlist(_read(args.left))
    right = parse_netlist(_read(args.right))
    spec = parse_glue(_read(args.glue))
    if args.close_dangling:
        spec = dataclasses.replace(spec, close_dangling=True)
    return left, right, spec


def cmd_glue(args, out) -> int:
    left, right, spec = _glue_inputs(args)
    result = glue(left, right, spec)
    sub = result.behavior
    behavior = _behavior_json(sub)
    # an inclusion is mono, so each route's behavior object has its image's dim
    pres = result.preservation
    syntax_dim, semantics_dim = pres.syntax_system.behavior.dim, pres.semantics_system.behavior.dim
    if args.json:
        report = {
            "glue": spec.name,
            "close_dangling": result.close_dangling,
            "identify": [[l, r] for l, r, _ in result.merged],
            "universum": {"vars": list(result.universum.vars), "dim": result.universum.dim},
            "behavior": behavior,
            "syntax_dim": syntax_dim,
            "semantics_dim": semantics_dim,
            "preservation_equal": pres.equal,
            "closed_terminals": list(result.closed_terminals),
        }
        out.write(_dumps(report) + "\n")
        return 0 if pres.equal else 1
    out.write(
        f"glued universum: dim={result.universum.dim}\n"
        f"behavior: dim={sub.dim}\n"
        f"syntax dim={syntax_dim} semantics dim={semantics_dim} "
        f"syntax==semantics: {str(pres.equal).lower()}\n"
    )
    if result.close_dangling:
        out.write("closed terminals: " + " ".join(result.closed_terminals) + "\n")
    out.write("basis:\n")
    _print_basis(behavior, out)
    return 0 if pres.equal else 1


def cmd_emergence(args, out) -> int:
    left, right, spec = _glue_inputs(args)
    observed = [v for v in args.observe.split(",") if v]
    report = emergence_report(left, right, spec, observed)
    if args.json:
        out.write(_dumps(report.to_json()) + "\n")
        return 0
    out.write(
        f"parts={report.parts_dim} whole={report.whole_dim} "
        f"emergent={str(report.emergent).lower()}\n"
    )
    return 0


def cmd_check(args, out) -> int:
    from .laws import run_law

    report = run_law(args.law, args.seed, args.trials)
    if args.json:
        out.write(_dumps(report.to_json()) + "\n")
        return 0 if report.ok else 1
    for suite in report.suites:
        status = "pass" if suite.ok else "FAIL"
        out.write(f"{report.law}: {suite.name}: {suite.passed}/{suite.total} {status}\n")
        for failure in suite.failures[:5]:
            out.write(f"  failed: {failure}\n")
    return 0 if report.ok else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syscat",
        description="Exact behavioral-system composition over finite sets and rational vector spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("behavior", help="compile a netlist and print its behavior")
    p.add_argument("netlist")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_behavior)

    p = sub.add_parser("glue", help="interconnect two netlists along a glue spec")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("glue")
    p.add_argument("--close-dangling", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("emergence", help="compare phenomes of parts against the whole")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("glue")
    p.add_argument("--observe", required=True, help="comma-separated variable names")
    p.add_argument("--close-dangling", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_emergence)

    p = sub.add_parser("check", help="run a law-check suite")
    p.add_argument("--law", required=True, choices=LAW_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
