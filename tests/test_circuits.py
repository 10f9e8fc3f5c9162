import importlib
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_kernels import basis_of, contains, dense_map, dense_subspace, matrix_of, to_sparse
import oracles
from syscat import carriers, circuits, vect
from syscat.circuits import (
    Circuit,
    GlueSpec,
    Node,
    Resistor,
    Wire,
    _glue_compiled,
    compile_circuit,
    current_var,
    emergence_report,
    glue,
    parse_glue,
    parse_netlist,
    phenome,
    voltage_var,
)
from syscat.equations import EquationMorphism, EquationRep, check_preservation, pullback_equations
from syscat.errors import DomainError, GlueError, MismatchError, ParseError
from syscat.systems import (
    SystemMorphism,
    behavior_image,
    interconnect_shared,
    product_systems,
    systems_equal,
)
from syscat.vect import Subspace, VectObj

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"
BENCH = CIRCUITS.parent / "bench"

S_TEXT = """\
circuit S
node a b c d
terminal a b c d
resistor ac a c 1
wire bd b d
"""

P_TEXT = """\
circuit P
node e f g h i j
terminal e f i j
wire eg e g
wire gi g i
wire fh f h
wire hj h j
resistor gh g h 1
"""

SP_GLUE = """\
glue SP
identify v_c = v_e
identify v_d = v_f
identify i_ac = i_eg
identify i_bd = i_fh
"""


def sp_circuits():
    return parse_netlist(S_TEXT), parse_netlist(P_TEXT)


def aug_circuits():
    s = parse_netlist(
        "circuit S_aug\nnode a b c d i j\nterminal a b c d i j\n"
        "resistor ac a c 1\nwire bd b d\n"
    )
    p = parse_netlist(
        "circuit P_aug\nnode a b e f g h i j\nterminal a b e f i j\n"
        "wire eg e g\nwire gi g i\nwire fh f h\nwire hj h j\nresistor gh g h 1\n"
    )
    spec = parse_glue(
        "glue SP_aug\n"
        "identify v_a = v_a\nidentify v_b = v_b\nidentify v_c = v_e\n"
        "identify v_d = v_f\nidentify v_i = v_i\nidentify v_j = v_j\n"
        "identify i_ac = i_eg\nidentify i_bd = i_fh\n"
    )
    return s, p, spec


# -- parsing -------------------------------------------------------------------

def test_parse_series_netlist():
    c = parse_netlist(S_TEXT)
    assert c.name == "S"
    assert c.nodes == ("a", "b", "c", "d")
    assert c.terminals == ("a", "b", "c", "d")
    assert c.elements == (Resistor("ac", "a", "c", Fraction(1)), Wire("bd", "b", "d"))


def test_parse_degenerate_and_comments():
    c = parse_netlist("# lonely\ncircuit X\nnode n # trailing comment\n")
    assert c.nodes == ("n",) and c.elements == ()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_netlist("circuit X\nnode a b\n\nresistor r a b 1.5\n")
    assert err.value.line == 4
    assert "line 4" in str(err.value)


_H = "circuit X\nnode a b\n"
_NOT_RATIONAL = "expected an exact rational (int or p/q), got {!r}"


@pytest.mark.parametrize("text, message, line", [
    pytest.param("circuit X!\n", "invalid circuit name 'X!'", 1, id="bad-circuit-name"),
    pytest.param("circuit X\nnode a b!\n", "invalid node id 'b!'", 2, id="bad-node-id"),
    pytest.param(_H + "terminal a b/c\n", "invalid node id 'b/c'", 3, id="bad-terminal-id"),
    pytest.param(_H + "resistor r? a b 1\n", "invalid id 'r?'", 3, id="bad-element-id"),
    pytest.param(_H + "wire w a b$\n", "invalid id 'b$'", 3, id="bad-element-node"),
    pytest.param(_H + "resistor r a b! 1.5\n", "invalid id 'b!'", 3, id="names-before-value"),
    pytest.param(_H + "resistor r a b 1.5\n", _NOT_RATIONAL.format("1.5"), 3, id="decimal"),
    pytest.param(_H + "resistor r a b 1e3\n", _NOT_RATIONAL.format("1e3"), 3, id="exponent"),
    pytest.param(_H + "resistor r a b 1/-2\n", _NOT_RATIONAL.format("1/-2"), 3, id="signed-denominator"),
    pytest.param(_H + "resistor r a b 1/\n", _NOT_RATIONAL.format("1/"), 3, id="empty-denominator"),
    pytest.param(_H + "resistor r a b +-1\n", _NOT_RATIONAL.format("+-1"), 3, id="two-signs"),
    pytest.param(_H + "resistor r a b 1_000\n", _NOT_RATIONAL.format("1_000"), 3, id="underscore"),
    pytest.param(_H + "resistor r a b ١٢\n", _NOT_RATIONAL.format("١٢"), 3,
                 id="non-ascii-digits"),
    pytest.param(_H + "resistor r a b 1/0\n", "zero denominator in '1/0'", 3, id="zero-denominator"),
    pytest.param(_H + "resistor r a b 1/" + "7" * 5000 + "\n",
                 "too many digits in the value 1/" + "7" * 18 + "...", 3, id="too-many-digits"),
    pytest.param(_H + "resistor r a b " + "7" * 5000 + "/0\n",
                 "too many digits in the value " + "7" * 20 + "...", 3, id="too-many-digits-over-0"),
    pytest.param(_H + "resistor r a b\n", "resistor takes: id n1 n2 value", 3, id="resistor-arity-3"),
    pytest.param(_H + "resistor r a b 1 2\n", "resistor takes: id n1 n2 value", 3, id="resistor-arity-5"),
    pytest.param(_H + "wire w a\n", "wire takes: id n1 n2", 3, id="wire-arity-2"),
    pytest.param(_H + "wire w! a b c\n", "wire takes: id n1 n2", 3, id="arity-before-names"),
    pytest.param("circuit X\nnode\n", "node directive needs at least one id", 2, id="empty-node"),
    pytest.param(_H + "terminal\n", "terminal directive needs at least one id", 3, id="empty-terminal"),
    pytest.param(_H + "frobnicate a\n", "unknown directive 'frobnicate'", 3, id="unknown-directive"),
    pytest.param("# only a comment\n\n", "missing circuit header", None, id="missing-header"),
    pytest.param("node a\n", "the first directive must be 'circuit <name>'", 1, id="first-directive"),
    pytest.param("\n# c\nnode a\n", "the first directive must be 'circuit <name>'", 3,
                 id="directive-before-header"),
    pytest.param("circuit A\n# c\ncircuit B\nnode a\n", "duplicate circuit header", 3,
                 id="duplicate-header"),
    pytest.param("circuit A B\nnode a\n", "circuit header takes exactly one name", 1, id="two-names"),
    pytest.param("circuit X\n", "circuit declares no nodes", None, id="no-nodes"),
    pytest.param("circuit X\nnode a\nresistor r a a 1\n", "element 'r' is a self-loop", None, id="self-loop"),
    pytest.param("circuit X\nnode a\nresistor r a a 0\n", "element 'r' is a self-loop", None,
                 id="self-loop-before-resistance"),
    pytest.param(_H + "resistor r a b 0\n", "resistor 'r' must have positive resistance", None,
                 id="zero-resistance"),
    pytest.param(_H + "resistor r a b -1/2\n", "resistor 'r' must have positive resistance", None,
                 id="negative-resistance"),
    pytest.param(_H + "resistor r a b -0/5\n", "resistor 'r' must have positive resistance", None,
                 id="signed-zero-resistance"),
    pytest.param(_H + "wire w a q\n", "element 'w' references an undeclared node", None,
                 id="undeclared-node"),
    pytest.param(_H + "wire w q q\n", "element 'w' references an undeclared node", None,
                 id="undeclared-before-self-loop"),
    pytest.param(_H + "terminal q\n", "terminal 'q' is not a declared node", None,
                 id="undeclared-terminal"),
    pytest.param("circuit X\nnode a b\nnode a\n", "duplicate node declaration", None, id="duplicate-node"),
    pytest.param(_H + "resistor r a b 1\nwire r a b\n", "duplicate element id 'r'", None,
                 id="duplicate-element"),
])
def test_parse_errors(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_netlist(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


_NAMES = st.text(alphabet="ABCXYZabcxyz0123456789_.-", min_size=1, max_size=6)


@st.composite
def printed_circuits(draw):
    """A ladder or grid circuit and a netlist that declares it: names from
    ``_NAME``'s alphabet, values written as p, +p or p/q, nodes split over
    several lines, comments and blank lines in between."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 5))  # rungs; rails n0..nk and g0..gk
        n_nodes = 2 * (k + 1)
        edges = [(i, i + 1) for i in range(k)] + [(k + 1 + i, k + 2 + i) for i in range(k)]
        edges += [(i, k + 1 + i) for i in range(1, k + 1)]
    else:
        w, h = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        n_nodes = w * h
        edges = [(y * w + x, y * w + x + 1) for y in range(h) for x in range(w - 1)]
        edges += [(y * w + x, (y + 1) * w + x) for y in range(h - 1) for x in range(w)]
    nodes = draw(st.lists(_NAMES, min_size=n_nodes, max_size=n_nodes, unique=True))
    idents = draw(st.lists(_NAMES, min_size=len(edges), max_size=len(edges), unique=True))
    terminals = draw(st.lists(st.sampled_from(nodes), unique=True))
    name = draw(_NAMES)
    lines = [f"circuit {name}"]
    cut = draw(st.integers(1, n_nodes))
    lines += ["node " + " ".join(nodes[:cut]), "", "node " + " ".join(nodes[cut:])]
    if cut == n_nodes:
        lines.pop()
    if terminals:
        lines.append("terminal " + " ".join(terminals) + "  # open to the environment")
    elements = []
    for ident, (a, b) in zip(idents, edges):
        if draw(st.booleans()):
            a, b = b, a
        if draw(st.booleans()):
            elements.append(Wire(ident, nodes[a], nodes[b]))
            lines.append(f"wire {ident} {nodes[a]} {nodes[b]}")
            continue
        p, q = draw(st.integers(1, 10**30)), draw(st.integers(1, 10**6))
        form = draw(st.sampled_from(["p", "+p", "p/q"]))
        value = {"p": str(p), "+p": f"+{p}", "p/q": f"{p}/{q}"}[form]
        elements.append(Resistor(ident, nodes[a], nodes[b], Fraction(p, q if form == "p/q" else 1)))
        lines.append(f"\tresistor {ident} {nodes[a]} {nodes[b]} {value}")
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n# end\n"]))
    return text, Circuit(name, tuple(nodes), tuple(terminals), tuple(elements))


@settings(deadline=None, max_examples=150)
@given(printed_circuits())
def test_printed_circuits_parse_back(case):
    text, circuit = case
    assert parse_netlist(text) == circuit


def test_parse_glue_forms():
    spec = parse_glue(
        "glue G\nidentify v_a = v_b\nidentify i_x=i_y\nidentify i_p=i_q = i_r\noption close_dangling\n"
    )
    assert spec.identifications == (("v_a", "v_b"), ("i_x", "i_y"), ("i_p=i_q", "i_r"))
    assert spec.close_dangling


_IDENTIFY = "identify takes: <leftVar> = <rightVar>"
_SINGLE = "identified variables must be single names"
_FIRST = "the first directive must be 'glue <name>'"


@pytest.mark.parametrize("text, message, line", [
    pytest.param("glue A\n# c\nglue B\n", "duplicate glue header", 3, id="duplicate-header"),
    pytest.param("glue\n", "glue header takes exactly one name", 1, id="header-no-name"),
    pytest.param("\nglue A B\n", "glue header takes exactly one name", 2, id="header-two-names"),
    pytest.param("identify v_a = v_b\n", _FIRST, 1, id="first-directive"),
    pytest.param("# c\n\noption close_dangling\nglue G\n", _FIRST, 3, id="directive-before-header"),
    pytest.param("glue G\nidentify\n", _IDENTIFY, 2, id="identify-nothing"),
    pytest.param("glue G\nidentify v_a v_b\n", _IDENTIFY, 2, id="identify-no-equals"),
    pytest.param("glue G\nidentify v_a =\n", _IDENTIFY, 2, id="identify-no-right"),
    pytest.param("glue G\nidentify =v_b\n", _IDENTIFY, 2, id="identify-no-left"),
    pytest.param("glue G\nidentify v_a=v_b=v_c\n", _IDENTIFY, 2, id="identify-two-equals-joined"),
    pytest.param("glue G\nidentify v_a = v_b = v_c\n", _IDENTIFY, 2, id="identify-two-lone-equals"),
    pytest.param("glue G\n\nidentify v_a= =v_b\n", _IDENTIFY, 3, id="identify-empty-middle"),
    pytest.param("glue G\nidentify v_a = v_b v_c\n", _SINGLE, 2, id="right-not-single"),
    pytest.param("glue G\nidentify v_a v_b = v_c\n", _SINGLE, 2, id="left-not-single"),
    pytest.param("glue G\nidentify v_a v_b=v_c\n", _SINGLE, 2, id="left-not-single-joined"),
    pytest.param("glue S\u00e4!\nidentify v_a = v_b\n", "invalid glue name 'S\u00e4!'", 1, id="header-bad-name"),
    pytest.param("glue G\nidentify v_c! = v_e\n", "invalid identified variable 'v_c!'", 2,
                 id="left-bad-name"),
    pytest.param("glue G\n\nidentify v_c=v_\u00e9\n", "invalid identified variable 'v_\u00e9'", 3,
                 id="right-bad-name-joined"),
    pytest.param("glue G\nidentify i_p=i_q! = i_r\n", "invalid identified variable 'i_q!'", 2,
                 id="merged-side-bad-part"),
    pytest.param("glue G\nidentify i_p==i_q = i_r\n", "invalid identified variable ''", 2,
                 id="merged-side-empty-part"),
    pytest.param("glue G\noption quench\n", "unknown option 'quench'", 2, id="unknown-option"),
    pytest.param("glue G\noption\n", "unknown option ''", 2, id="option-without-name"),
    pytest.param("glue G\noption close_dangling now\n", "unknown option 'close_dangling now'", 2,
                 id="option-with-extra"),
    pytest.param("glue G\nfrobnicate a\n", "unknown directive 'frobnicate'", 2, id="unknown-directive"),
    pytest.param("# only a comment\n\n", "missing glue header", None, id="missing-header"),
    pytest.param("", "missing glue header", None, id="empty"),
])
def test_parse_glue_errors(text, message, line):
    with pytest.raises(ParseError) as err:
        parse_glue(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


_MERGED = st.lists(_NAMES, min_size=1, max_size=3).map("=".join)


@st.composite
def printed_glues(draw):
    """A glue spec and a text that declares it: sides that may be merged names
    holding ``=`` (then written with ``=`` as a token of its own), ``option
    close_dangling`` anywhere after the header, comments and blank lines."""
    name = draw(_NAMES)
    idents = draw(st.lists(st.tuples(_MERGED, _MERGED), max_size=5))
    close = draw(st.booleans())
    body = []
    for l, r in idents:
        eq = " = " if "=" in l + r else draw(st.sampled_from([" = ", "=", " =", "= ", "\t=\t"]))
        body.append(f"identify {l}{eq}{r}")
    if close:
        body.insert(draw(st.integers(0, len(body))), "option close_dangling")
    comment = st.text(alphabet="abc =#\t", max_size=8).map(lambda t: "#" + t)
    lines = [draw(st.sampled_from(["", "  "])) + f"glue {name}"]
    for line in body:
        lines += draw(st.lists(st.sampled_from(["", " \t", "# note"]) | comment, max_size=2))
        lines.append(draw(st.sampled_from(["", "\t", "  "])) + line + draw(st.sampled_from(["", "  ", " #x=y"])))
    lead = draw(st.lists(comment | st.just(""), max_size=2))
    text = "\n".join(lead + lines) + draw(st.sampled_from(["", "\n", "\n# end\n"]))
    return text, GlueSpec(name, tuple(idents), close)


@settings(deadline=None, max_examples=150)
@given(printed_glues())
def test_printed_glues_parse_back(case):
    text, spec = case
    assert parse_glue(text) == spec


# -- compilation ---------------------------------------------------------------

def test_compile_series_circuit():
    c = compile_circuit(parse_netlist(S_TEXT))
    assert c.universum.vars == ("v_a", "v_b", "v_c", "v_d", "i_ac", "i_bd")
    assert c.rep.codomain.dim == 2  # no balance rows: every node is a terminal
    sub = behavior_image(c.system)
    assert sub.dim == 4
    assert oracles.nullity(matrix_of(c.rep.f1), 6) == 4
    assert contains(sub, (1, 0, 0, 0, 1, 0))  # v_a=1, i_ac=1 satisfies the ohm row


def test_compile_parallel_circuit():
    c = compile_circuit(parse_netlist(P_TEXT))
    assert c.universum.dim == 11
    assert c.rep.codomain.dim == 7  # 4 wires + 1 ohm + 2 internal balance rows
    assert behavior_image(c.system).dim == 4
    assert oracles.nullity(matrix_of(c.rep.f1), 11) == 4


def test_compile_isolated_node():
    c = compile_circuit(parse_netlist("circuit X\nnode n\n"))
    assert c.universum.dim == 1
    assert c.rep.codomain.dim == 0
    assert behavior_image(c.system).dim == 1


def test_compile_is_deterministic():
    a = compile_circuit(parse_netlist(P_TEXT))
    b = compile_circuit(parse_netlist(P_TEXT))
    assert a.rep == b.rep
    assert a.universum.vars == b.universum.vars


@st.composite
def ladders_and_grids(draw):
    """A ladder or a grid whose edges are rational resistors or wires, each in a
    random orientation, with random terminals and one isolated node."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        nodes = [f"n{i}" for i in range(n + 1)] + [f"g{i}" for i in range(n + 1)]
        edges = [
            edge
            for i in range(n)
            for edge in ((f"r{i}", f"n{i}", f"n{i + 1}"), (f"w{i}", f"g{i}", f"g{i + 1}"),
                         (f"s{i}", f"n{i + 1}", f"g{i + 1}"))
        ]
    else:
        k = draw(st.integers(2, 4))
        nodes = [f"x{x}y{y}" for y in range(k) for x in range(k)]
        edges = [
            (f"{tag}{x}_{y}", f"x{x}y{y}", f"x{x2}y{y2}")
            for y in range(k) for x in range(k)
            for tag, x2, y2 in (("h", x + 1, y), ("v", x, y + 1))
            if x2 < k and y2 < k
        ]
    nodes.append("z")
    resistance = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
    elements = []
    for ident, a, b in edges:
        if draw(st.booleans()):
            a, b = b, a
        r = draw(st.none() | resistance)
        elements.append(Wire(ident, a, b) if r is None else Resistor(ident, a, b, r))
    terminals = draw(st.lists(st.sampled_from(nodes), unique=True, max_size=4))
    return Circuit("c", tuple(nodes), tuple(terminals), tuple(elements))


def _kernel_paths(rows, dim):
    """``vect.kernel_basis(rows, dim)``, and how many times it ran the forward
    elimination in min-degree order and the canonicalizing pass, a
    ``reduced`` one in column order."""
    with mock.patch.object(vect, "_eliminate_forward", wraps=vect._eliminate_forward) as eliminate:
        got = vect.kernel_basis(rows, dim)
    canonicalize = sum(bool(call.kwargs.get("reduced")) for call in eliminate.call_args_list)
    return got, eliminate.call_count - canonicalize, canonicalize


def _dense_kernel(compiled):
    dim = compiled.universum.dim
    return to_sparse(oracles.dense_kernel_basis(matrix_of(compiled.rep.f1), dim))


@settings(max_examples=80, deadline=None)
@given(ladders_and_grids())
def test_compiled_rows_match_the_dense_reference(circuit):
    compiled = compile_circuit(circuit)
    names, rows = oracles.dense_equation_rows(circuit, compiled.universum)
    assert compiled.rep.f1 == dense_map(compiled.universum, VectObj(names), rows)
    dim = compiled.universum.dim
    # these kernels take both paths: read off canonical, and canonicalized once
    got, forwards, canonicalized = _kernel_paths(compiled.rep.f1.rows, dim)
    assert forwards == (vect._disjoint_kernel(compiled.rep.f1.rows, dim) is None)
    assert canonicalized <= forwards
    want = _dense_kernel(compiled)
    assert got == want
    # the rank glue's certificate counts, on the same circuit rows
    assert vect.rank_of(compiled.rep.f1.rows, dim) == dim - len(want)


def test_long_chain_behavior_is_exact():
    # 500 unit resistors in series: a common potential, and one current through
    # every resistor with the voltages falling by 1 across each
    n = 500
    nodes = tuple(f"n{k}" for k in range(n + 1))
    elements = tuple(Resistor(f"r{k}", f"n{k}", f"n{k + 1}", Fraction(1)) for k in range(n))
    compiled = compile_circuit(Circuit("chain", nodes, ("n0", f"n{n}"), elements))
    behavior = behavior_image(compiled.system)
    assert behavior.dim == 2

    def point(voltage, current):
        """voltage(k) at each node n<k>, and current through each resistor."""
        return [
            voltage(int(v.removeprefix("v_n"))) if v.startswith("v_") else current
            for v in compiled.universum.vars
        ]

    assert contains(behavior, point(lambda k: 1, 0))
    assert contains(behavior, point(lambda k: n - k, 1))


# -- gluing ---------------------------------------------------------------------

def test_glue_series_parallel_dimensions():
    s, p = sp_circuits()
    res = glue(s, p, parse_glue(SP_GLUE))
    assert res.universum.dim == 6 + 11 - 4
    assert res.behavior.dim == 4
    assert oracles.nullity(matrix_of(res.rep.f1), 13) == 4
    assert res.preservation.equal
    assert behavior_image(res.preservation.syntax_system).dim == 4
    assert behavior_image(res.preservation.semantics_system).dim == 4
    # both routes live on the merged names, so the report's verdict is systems_equal's
    assert res.preservation.semantics_system.universum == res.universum
    assert systems_equal(res.preservation.syntax_system, res.preservation.semantics_system)


@pytest.mark.parametrize("close", [False, True], ids=["open", "closed"])
def test_glue_interprets_each_representation_once(circuits_dir, monkeypatch, close):
    left, right = (parse_netlist((circuits_dir / f).read_text()) for f in ("S.ckt", "P.ckt"))
    spec = parse_glue((circuits_dir / "SP.glue").read_text())
    seen = []
    equalizer = carriers.equalizer
    monkeypatch.setattr(carriers, "equalizer", lambda f, g: seen.append(f) or equalizer(f, g))
    glue(left, right, replace(spec, close_dangling=close)).system
    # left and right; the stacked equations certify their system, unsolved,
    # and closing reads the closed system off it, so the closed equations
    # (stacked and ext: rows) are not solved either
    assert len(seen) == 2


@pytest.mark.parametrize("close", [False, True], ids=["open", "closed"])
def test_glue_pulls_back_only_the_behaviors(circuits_dir, monkeypatch, close):
    # the behaviors' pullback is read off the parts' bases straight onto the
    # merged names: no categorical pullback, no lift through the universa's
    # pullback and no system morphism
    left, right = (parse_netlist((circuits_dir / f).read_text()) for f in ("S.ckt", "P.ckt"))
    spec = parse_glue((circuits_dir / "SP.glue").read_text())
    seen = Counter()
    for name in ("pullback", "lift"):
        wrapped = getattr(carriers, name)
        monkeypatch.setattr(carriers, name, lambda *a, _n=name, _w=wrapped: seen.update([_n]) or _w(*a))
    post_init = SystemMorphism.__post_init__
    monkeypatch.setattr(SystemMorphism, "__post_init__", lambda m: seen.update(["morphism"]) or post_init(m))
    glue(left, right, replace(spec, close_dangling=close))
    assert (seen["pullback"], seen["lift"], seen["morphism"]) == (0, 0, 0)


@pytest.mark.parametrize("close", [False, True])
def test_glue_ranks_only_in_its_certificates(circuits_dir, monkeypatch, close):
    # every lift, mono check and subspace of a glue has a structural
    # certificate; the only rank is the nullity the one equation certificate
    # counts, the open glue's, whether or not closing cuts its behavior down
    left, right = (parse_netlist((circuits_dir / f).read_text()) for f in ("S.ckt", "P.ckt"))
    spec = parse_glue((circuits_dir / "SP.glue").read_text())
    seen, reps = [], []
    for name in ("solve_matrix", "rank_of", "rref"):
        kernel = getattr(vect, name)
        monkeypatch.setattr(vect, name, lambda *a, _n=name, _k=kernel: seen.append(_n) or _k(*a))
    certify = circuits.certified_kernel_rep
    monkeypatch.setattr(circuits, "certified_kernel_rep", lambda *a: reps.append(certify(*a)) or reps[-1])
    res = glue(left, right, replace(spec, close_dangling=close))
    assert res.preservation.equal and res.behavior.dim == (1 if close else 4)
    assert seen == ["rank_of"]
    assert len(reps) == 1 and None not in reps  # the certificate holds


def test_closing_solves_one_kernel_over_the_open_behavior(circuits_dir, monkeypatch):
    # each part's kernel (6 and 11 columns) and the behaviors' pullback over
    # the shared block (4 + 4); closing adds the kernel of E . K over the open
    # behavior's 4 coordinates, and no kernel over the 13 merged names
    left, right = (parse_netlist((circuits_dir / f).read_text()) for f in ("S.ckt", "P.ckt"))
    spec = parse_glue((circuits_dir / "SP.glue").read_text())
    widths = {}
    kernel = vect.kernel_basis
    for close in (False, True):
        seen = widths[close] = []
        monkeypatch.setattr(vect, "kernel_basis", lambda rows, n, _s=seen: _s.append(n) or kernel(rows, n))
        res = glue(left, right, replace(spec, close_dangling=close))
        res.behavior
    assert widths[False] == [6, 11, 8]
    assert widths[True] == widths[False] + [res.preservation.syntax_system.behavior.dim] == [6, 11, 8, 4]


def test_closing_a_terminal_with_no_element_end_changes_nothing():
    # two resistors in parallel between two terminals, and an isolated
    # terminal z: every terminal with an element has two ends, so closing
    # closes only z and qz, whose ext: rows are zero, and the closed behavior
    # is the open one
    c = parse_netlist("circuit c\nnode a b z\nterminal a b z\nresistor r a b 1\nresistor s a b 2\n")
    spec = GlueSpec("g", (("v_a", "v_qa"),))
    open_, closed = (glue(c, prefixed(c, "q"), replace(spec, close_dangling=x)) for x in (False, True))
    assert closed.closed_terminals == ("L.z", "R.qz")
    assert closed.rep.codomain.vars[-2:] == ("ext:L.z", "ext:R.qz")
    assert closed.rep.f1.rows[-2:] == ((1, {}), (1, {}))
    assert closed.behavior == open_.behavior
    assert basis_of(closed.behavior) == _kernel_of_equations(closed)
    assert closed.preservation.equal


def augmented(c: Circuit, extra) -> Circuit:
    """c with the nodes extra declared as isolated terminals, as an emergence
    part declares the other part's outer terminals."""
    return replace(c, nodes=c.nodes + tuple(extra), terminals=c.terminals + tuple(extra))


def aug_ladders(n: int):
    """Two augmented n-rung ladders chained at a's right and b's left end, voltages
    and currents, with the four outer voltages shared by name and observed."""
    outer_a, outer_b = ("an0", "ag0"), (f"bn{n}", f"bg{n}")
    spec = GlueSpec("AB", tuple((voltage_var(x), voltage_var(x)) for x in outer_a + outer_b) + (
        (f"v_an{n}", "v_bn0"), (f"v_ag{n}", "v_bg0"), (f"i_ar{n - 1}", "i_br0"), (f"i_aw{n - 1}", "i_bw0"),
    ))
    obs = tuple(voltage_var(x) for x in outer_a + outer_b)
    return augmented(ladder("a", n), outer_b), augmented(ladder("b", n), outer_a), spec, obs


@pytest.mark.parametrize("close", [False, True])
def test_emergence_runs_only_cut_sized_kernels(monkeypatch, close):
    # no glue, certificate, pullback, rank, RREF or solve, no part's system
    # (its equalizer), and every kernel is over the kept variables of a part
    left, right, spec, obs = aug_ladders(6)
    seen, widths = [], []
    for owner, name in ((circuits, "_glue_compiled"), (circuits, "certified_kernel_rep"),
                        (carriers, "pullback"), (carriers, "equalizer"),
                        (vect, "rank_of"), (vect, "rref"), (vect, "solve_matrix")):
        monkeypatch.setattr(owner, name, lambda *a, _n=name: seen.append(_n))
    kernel_basis = vect.kernel_basis
    monkeypatch.setattr(vect, "kernel_basis", lambda rows, n: widths.append(n) or kernel_basis(rows, n))
    rep = emergence_report(left, right, replace(spec, close_dangling=close), obs)
    assert (rep.parts_dim, rep.whole_dim) == (4, 2 if close else 3)
    assert seen == []
    # a part has 34 variables; it keeps 6 voltages, 2 glued currents and, closed, 2 more
    assert max(widths) == (10 if close else 8)


def test_glue_close_dangling_collapses_to_a_line():
    s, p = sp_circuits()
    res = glue(s, p, replace(parse_glue(SP_GLUE), close_dangling=True))
    assert res.behavior.dim == 1
    assert res.closed_terminals == ("L.a", "L.b", "R.i", "R.j")
    # every vector has all node voltages equal and all currents zero
    basis = basis_of(behavior_image(res.system))
    assert len(basis) == 1
    vec = dict(zip(res.universum.vars, basis[0]))
    volts = {v for k, v in vec.items() if k.startswith("v_")}
    amps = {v for k, v in vec.items() if k.startswith("i_")}
    assert len(volts) == 1 and amps == {0}


def prefixed(c: Circuit, p: str) -> Circuit:
    """c with every node and element id prefixed by p."""
    return Circuit(
        c.name,
        tuple(p + n for n in c.nodes),
        tuple(p + t for t in c.terminals),
        tuple(replace(e, ident=p + e.ident, n1=p + e.n1, n2=p + e.n2) for e in c.elements),
    )


@st.composite
def glued_pairs(draw):
    """Two ladders or grids and a glue of random voltages and currents; often
    the first merged node joins two nodes of at most one end each (closing may
    close the join), and often it also identifies a current at each half."""
    c1, c2 = draw(ladders_and_grids()), prefixed(draw(ladders_and_grids()), "q")

    def matched(xs, ys):
        k = draw(st.integers(0, min(len(xs), len(ys), 3)))
        return list(zip(draw(st.permutations(xs))[:k], draw(st.permutations(ys))[:k]))

    def dangling(c):
        """The nodes of one end or, if there are none, the isolated ones."""
        ends = Counter(n for e in c.elements for n in (e.n1, e.n2))
        return [n for n in c.nodes if ends[n] == 1] or [n for n in c.nodes if not ends[n]]

    volts = []
    if draw(st.booleans()):
        volts.append((draw(st.sampled_from(dangling(c1))), draw(st.sampled_from(dangling(c2)))))
    used = {x for pair in volts for x in pair}
    volts += matched([n for n in c1.nodes if n not in used], [n for n in c2.nodes if n not in used])
    currents = []
    if volts and draw(st.booleans()):
        a, b = volts[0]
        at_a = [e.ident for e in c1.elements if a in (e.n1, e.n2)]
        at_b = [e.ident for e in c2.elements if b in (e.n1, e.n2)]
        if at_a and at_b:
            currents.append((draw(st.sampled_from(at_a)), draw(st.sampled_from(at_b))))
    used = {x for pair in currents for x in pair}
    currents += matched(
        [e.ident for e in c1.elements if e.ident not in used],
        [e.ident for e in c2.elements if e.ident not in used],
    )
    spec = GlueSpec(
        "g",
        tuple((voltage_var(a), voltage_var(b)) for a, b in volts)
        + tuple((current_var(a), current_var(b)) for a, b in currents),
    )
    return c1, c2, spec


LADDER1 = parse_netlist(
    "circuit c\nnode n0 n1 g0 g1 z\nterminal n0 z\n"
    "resistor r0 n0 n1 1\nwire w0 g0 g1\nresistor s0 n1 g1 2\n"
)


@settings(max_examples=60, deadline=None)
@given(glued_pairs())
# n0=qn0 holds i_r0=i_qr0 at two ends and stays open; z=qz has none and is
# closed under the right label
@example((LADDER1, prefixed(LADDER1, "q"),
          GlueSpec("g", (("v_n0", "v_qn0"), ("v_z", "v_qz"), ("i_r0", "i_qr0")))))
def test_closing_matches_the_union_find_reference(pair):
    c1, c2, spec = pair
    res = glue(c1, c2, replace(spec, close_dangling=True))
    names, rows, closed = oracles._close_rows(c1, c2, res.merged, res.universum)
    assert res.closed_terminals == closed
    n = res.rep.codomain.dim - len(names)
    assert res.rep.codomain.vars[n:] == names
    assert res.rep.f1.rows[n:] == rows
    assert not any(v.startswith("ext:") for v in res.rep.codomain.vars[:n])


def ladder(p: str, n: int) -> Circuit:
    """n rungs: r_i joins n_i to n_{i+1} (value i+1), wire w_i joins g_i to
    g_{i+1}, s_i joins n_{i+1} to g_{i+1} (value 2); every id prefixed by p."""
    elements = []
    for i in range(n):
        elements += [
            Resistor(f"{p}r{i}", f"{p}n{i}", f"{p}n{i + 1}", Fraction(i + 1)),
            Wire(f"{p}w{i}", f"{p}g{i}", f"{p}g{i + 1}"),
            Resistor(f"{p}s{i}", f"{p}n{i + 1}", f"{p}g{i + 1}", Fraction(2)),
        ]
    nodes = tuple(f"{p}{k}{i}" for k in "ng" for i in range(n + 1))
    return Circuit(p, nodes, (f"{p}n0", f"{p}g0", f"{p}n{n}", f"{p}g{n}"), tuple(elements))


def ugrid(p: str, k: int) -> Circuit:
    """A k-by-k grid of resistors h{i}_{j} (value 1+(i*j)%5) and u{i}_{j}
    (value 1+(i+j)%3) with terminals at two corners; every id prefixed by p."""
    def x(i, j):
        return f"{p}x{i}_{j}"

    elements = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                elements.append(Resistor(f"{p}h{i}_{j}", x(i, j), x(i + 1, j), Fraction(1 + (i * j) % 5)))
            if j + 1 < k:
                elements.append(Resistor(f"{p}u{i}_{j}", x(i, j), x(i, j + 1), Fraction(1 + (i + j) % 3)))
    nodes = tuple(x(i, j) for i in range(k) for j in range(k))
    return Circuit(p, nodes, (x(0, 0), x(k - 1, k - 1)), tuple(elements))


@pytest.mark.parametrize("circuit, forward", [
    *(pytest.param(parse_netlist((CIRCUITS / f).read_text()), n, id=f)
      for f, n in (("R1.ckt", 0), ("R2.ckt", 0), ("S.ckt", 0), ("S_aug.ckt", 0), ("P.ckt", 1), ("P_aug.ckt", 1))),
    pytest.param(ladder("a", 5), 1, id="ladder5"),
])
def test_circuit_kernels_are_read_off_canonical(circuit, forward):
    # disjoint rows (forward == 0) are written directly; the rest are eliminated
    # forward, and high-column ties leave free exactly the kernel's pivot columns
    compiled = compile_circuit(circuit)
    got, forwards, canonicalized = _kernel_paths(compiled.rep.f1.rows, compiled.universum.dim)
    assert (forwards, canonicalized) == (forward, 0)
    assert got == _dense_kernel(compiled)


def test_grid_kernel_is_canonicalized_once():
    compiled = compile_circuit(ugrid("a", 3))
    rows, dim = compiled.rep.f1.rows, compiled.universum.dim
    free = set(range(dim)) - {c for _, c in vect._eliminate_forward(vect._ints(rows), range(dim))}
    got, forwards, canonicalized = _kernel_paths(rows, dim)
    assert free != {min(m) for _, m in got}  # the kernel's RREF pivots
    assert (forwards, canonicalized) == (1, 1)
    assert got == _dense_kernel(compiled)


def _glue_pairs():
    pairs = [
        pytest.param(*(parse_netlist((CIRCUITS / f).read_text()) for f in ckts),
                     parse_glue((CIRCUITS / g).read_text()), id=g)
        for ckts, g in ((("S.ckt", "P.ckt"), "SP.glue"), (("S_aug.ckt", "P_aug.ckt"), "SP_aug.glue"),
                        (("R1.ckt", "R2.ckt"), "RR.glue"))
    ]
    ladders = GlueSpec("AB", (("v_an3", "v_bn0"), ("v_ag3", "v_bg0")))
    chained = GlueSpec("AB", ladders.identifications + (("i_ar2", "i_br0"), ("i_aw2", "i_bw0")))
    grids = GlueSpec("AB", (("v_ax2_2", "v_bx0_0"), ("v_ax2_0", "v_bx0_2"), ("i_ah1_2", "i_bu0_0")))
    mixed = GlueSpec("AB", (("v_an3", "v_bx0_0"), ("v_ag3", "v_bx2_2")))
    return pairs + [
        pytest.param(ladder("a", 3), ladder("b", 3), ladders, id="ladders"),
        pytest.param(ladder("a", 3), ladder("b", 3), chained, id="ladders-with-currents"),
        pytest.param(ugrid("a", 3), ugrid("b", 3), grids, id="grids"),
        pytest.param(ladder("a", 3), ugrid("b", 3), mixed, id="ladder-grid"),
    ]


def _shared_block(k1, k2, merged):
    """Each side's map onto the block of merged names it shares."""
    shared = VectObj(tuple(m for _, _, m in merged))
    return (
        vect.coordinate_map(k1.universum, shared, {l: m for l, _, m in merged}),
        vect.coordinate_map(k2.universum, shared, {r: m for _, r, m in merged}),
    )


@pytest.mark.parametrize("left, right, spec", _glue_pairs())
def test_stacked_equations_are_the_syntax_pullback(left, right, spec):
    # glue's syntax route is its stacked equations: the generic pullback of the
    # two representations over the shared block stacks the same rows in order
    res = glue(left, right, spec)
    k1, k2 = compile_circuit(left), compile_circuit(right)
    psi1, psi2 = _shared_block(k1, k2, res.merged)
    shared = psi1.cod
    e_shared = EquationRep(vect.zero_map(shared, vect.ZERO_SPACE), vect.zero_map(shared, vect.ZERO_SPACE))
    m1 = EquationMorphism(k1.rep, e_shared, psi1, vect.zero_map(k1.rep.codomain, vect.ZERO_SPACE))
    m2 = EquationMorphism(k2.rep, e_shared, psi2, vect.zero_map(k2.rep.codomain, vect.ZERO_SPACE))
    assert pullback_equations(m1, m2).rep.f1.rows == res.rep.f1.rows
    assert check_preservation(m1, m2).equal
    assert res.preservation.equal


def _lifts(k1, k2, res):
    """Each side's map reading its variables off the merged names."""
    by_left = {l: m for l, _, m in res.merged}
    by_right = {r: m for _, r, m in res.merged}
    u1, u2 = k1.universum, k2.universum
    return (
        vect.coordinate_map(res.universum, u1, {by_left.get(v, v): v for v in u1.vars}),
        vect.coordinate_map(res.universum, u2, {by_right.get(v, v): v for v in u2.vars}),
    )


def _assert_semantics_through_the_universa(left, right, spec):
    """glue's semantics route has the inclusion of the route through the
    universa's pullback: ``interconnect_shared`` of the parts, carried onto the
    merged names by the lift through lift1 and lift2, which is an iso."""
    res = glue(left, right, spec)
    k1, k2 = compile_circuit(left), compile_circuit(right)
    lift1, lift2 = _lifts(k1, k2, res)
    psi1, psi2 = _shared_block(k1, k2, res.merged)
    upb = carriers.pullback(psi1, psi2)
    alpha = carriers.lift((lift1, lift2), (upb.proj1, upb.proj2))
    assert carriers.classify_map(alpha).iso
    pb = interconnect_shared(k1.system, k2.system, psi1, psi2)
    assert (pb.proj1.phi_u, pb.proj2.phi_u) == (upb.proj1, upb.proj2)
    want = carriers.compose(alpha, pb.system.inclusion)
    got = res.preservation.semantics_system.inclusion
    assert (got.cod, got.rows) == (want.cod, want.rows)


@pytest.mark.parametrize("close", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("left, right, spec", _glue_pairs())
def test_semantics_route_is_the_pullback_through_the_universa(left, right, spec, close):
    _assert_semantics_through_the_universa(left, right, replace(spec, close_dangling=close))


def _kernel_of_equations(res):
    """The canonical basis the glued equations give when solved exactly by the
    dense reference, not by ``vect.kernel_basis``."""
    return oracles.dense_kernel_basis(matrix_of(res.rep.f1), res.universum.dim)


@st.composite
def random_glues(draw):
    """Two ladders or 3x3-or-smaller grids, with some node voltages and at most
    one element current of each side identified, open or closed."""
    def part(p):
        if draw(st.booleans()):
            return ladder(p, draw(st.integers(1, 4)))
        return ugrid(p, draw(st.integers(2, 3)))

    left, right = part("a"), part("b")
    n = draw(st.integers(0, 3))
    ls = draw(st.permutations([voltage_var(x) for x in left.nodes]))[:n]
    rs = draw(st.permutations([voltage_var(x) for x in right.nodes]))[:n]
    idents = list(zip(ls, rs))
    if draw(st.booleans()):
        idents.append((
            draw(st.sampled_from([current_var(e.ident) for e in left.elements])),
            draw(st.sampled_from([current_var(e.ident) for e in right.elements])),
        ))
    return left, right, GlueSpec("AB", tuple(idents), draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(random_glues())
def test_glue_behavior_is_the_kernel_of_its_equations(case):
    # the certified pullback of the parts (open), or that behavior cut by the
    # ext: rows (closed), is the dense kernel of the glued circuit's equations
    left, right, spec = case
    res = glue(left, right, spec)
    assert basis_of(res.behavior) == _kernel_of_equations(res)
    assert res.preservation.equal


@settings(max_examples=30, deadline=None)
@given(random_glues())
def test_random_semantics_route_is_the_pullback_through_the_universa(case):
    _assert_semantics_through_the_universa(*case)


def _categorical_semantics(k1, k2, res):
    """The inclusion of the behaviors' pullback built categorically: the
    pullback of the behaviors over the shared block, and the ``pullback_map``
    onto the merged universum, the universa's pullback with ``_lifts``."""
    psi1, psi2 = _shared_block(k1, k2, res.merged)
    i1, i2 = k1.system.inclusion, k2.system.inclusion
    bpb = carriers.pullback(carriers.compose(psi1, i1), carriers.compose(psi2, i2))
    return carriers.pullback_map(bpb, carriers.PullbackResult(res.universum, *_lifts(k1, k2, res)), i1, i2)


@st.composite
def random_reglues(draw):
    """A glued result of ``random_glues`` and a third ladder or grid, in either
    order, with up to three voltages of each identified."""
    left, right, spec = draw(random_glues())
    first = glue(left, right, spec)
    third = compile_circuit(ladder("c", draw(st.integers(1, 3))) if draw(st.booleans()) else ugrid("c", 2))
    n = draw(st.integers(0, 3))
    ours = draw(st.permutations([v for v in first.universum.vars if v.startswith("v_")]))[:n]
    theirs = draw(st.permutations([v for v in third.universum.vars if v.startswith("v_")]))[:n]
    if draw(st.booleans()):
        return first, third, GlueSpec("ABC", tuple(zip(ours, theirs)), draw(st.booleans()))
    return third, first, GlueSpec("CAB", tuple(zip(theirs, ours)), draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(random_glues())
def test_random_basis_semantics_is_the_categorical_pullback(case):
    # the basis read off the parts' bases is the inclusion the categorical
    # route builds, row for row, is canonical RREF as built, and the glued
    # equations certify it
    left, right, spec = case
    res = glue(left, right, spec)
    got = res.preservation.semantics_system.inclusion
    assert got == _categorical_semantics(compile_circuit(left), compile_circuit(right), res)
    assert got._rref is got._basis
    assert res.preservation.syntax_system is res.preservation.semantics_system


@settings(max_examples=30, deadline=None)
@given(random_reglues())
def test_reglued_basis_semantics_is_the_categorical_pullback(case):
    k1, k2, spec = case
    res = _glue_compiled(k1, k2, spec)
    got = res.preservation.semantics_system.inclusion
    assert got == _categorical_semantics(k1, k2, res)
    assert got._rref is got._basis
    assert res.preservation.equal


@pytest.mark.parametrize("close", [False, True], ids=["open", "closed"])
def test_glue_solves_its_equations_when_the_pullback_misses_a_vector(monkeypatch, close):
    # a semantics route that loses a kernel vector fails the certificate, and
    # the answer is the stacked equations' exact kernel, reported as a mismatch
    pullback_basis = circuits._pullback_basis
    monkeypatch.setattr(circuits, "_pullback_basis", lambda *a: pullback_basis(*a)[:-1])
    s, p = sp_circuits()
    res = glue(s, p, replace(parse_glue(SP_GLUE), close_dangling=close))
    assert not res.preservation.equal
    assert res.preservation.syntax_system.behavior.dim == 4
    assert res.preservation.semantics_system.behavior.dim == 3
    assert basis_of(res.behavior) == _kernel_of_equations(res)
    assert res.behavior.dim == (1 if close else 4)


def test_glue_result_glues_again():
    r1 = parse_netlist("circuit R1\nnode a b\nterminal a b\nresistor ab a b 1\n")
    r2 = parse_netlist("circuit R2\nnode c d\nterminal c d\nresistor cd c d 2\n")
    r3 = compile_circuit(parse_netlist("circuit R3\nnode e f\nterminal e f\nresistor ef e f 3\n"))
    first = glue(r1, r2, parse_glue("glue RR\nidentify v_b = v_c\nidentify i_ab = i_cd\n"))
    spec = GlueSpec("RRR", (("v_d", "v_e"), ("i_ab=i_cd", "i_ef")))
    for close, closed in ((False, ()), (True, ("L.L.a", "R.f"))):
        res = _glue_compiled(first, r3, replace(spec, close_dangling=close))
        assert res.preservation.equal
        assert res.behavior.dim == oracles.nullity(matrix_of(res.rep.f1), res.universum.dim)
        assert res.closed_terminals == closed
    # closing both ends of the series chain stops its current
    assert res.behavior.dim == 1


def test_glue_text_names_a_merged_variable():
    r1 = parse_netlist("circuit R1\nnode a b\nterminal a b\nresistor ab a b 1\n")
    r2 = parse_netlist("circuit R2\nnode c d\nterminal c d\nresistor cd c d 2\n")
    r3 = compile_circuit(parse_netlist("circuit R3\nnode e f\nterminal e f\nresistor ef e f 3\n"))
    first = glue(r1, r2, parse_glue("glue RR\nidentify v_b = v_c\nidentify i_ab = i_cd\n"))
    spec = parse_glue("glue RRR\nidentify v_d = v_e\nidentify i_ab=i_cd = i_ef\n")
    res = _glue_compiled(first, r3, spec)
    assert res.merged[1] == ("i_ab=i_cd", "i_ef", "i_ab=i_cd=i_ef")
    assert res.preservation.equal and res.behavior.dim == 2
    assert res.nodes["v_d=v_e"] == Node("R.e", True, (("i_ab=i_cd=i_ef", -1), ("i_ab=i_cd=i_ef", 1)))


def test_two_resistors_in_series():
    r1 = parse_netlist("circuit R1\nnode a b\nterminal a b\nresistor ab a b 1\n")
    r2 = parse_netlist("circuit R2\nnode c d\nterminal c d\nresistor cd c d 2\n")
    spec = parse_glue("glue RR\nidentify v_b = v_c\nidentify i_ab = i_cd\n")
    res = glue(r1, r2, spec)
    assert res.universum.vars == ("v_a", "v_b=v_c", "i_ab=i_cd", "v_d")
    rows = dense_subspace(res.universum, matrix_of(res.rep.f1))
    assert contains(rows, (1, 0, -3, -1))  # v_a - v_d = (R + R') i
    assert oracles.in_row_space(matrix_of(res.rep.f1), (1, 0, -3, -1), 4)


def test_glue_with_no_identifications_is_the_product():
    r1 = parse_netlist("circuit R1\nnode a b\nterminal a b\nresistor ab a b 1\n")
    r2 = parse_netlist("circuit R2\nnode c d\nterminal c d\nresistor cd c d 2\n")
    res = glue(r1, r2, GlueSpec("none", ()))
    assert res.universum.dim == 6
    assert res.behavior.dim == 4
    c1, c2 = compile_circuit(r1), compile_circuit(r2)
    lifted_left = [tuple(row) + (0, 0, 0) for row in basis_of(behavior_image(c1.system))]
    lifted_right = [(0, 0, 0) + tuple(row) for row in basis_of(behavior_image(c2.system))]
    assert behavior_image(res.system) == dense_subspace(res.universum, lifted_left + lifted_right)
    prod = product_systems(c1.system, c2.system).system
    assert behavior_image(prod).dim == res.behavior.dim


@pytest.mark.parametrize(
    "identify, fragment",
    [
        ("identify v_a = i_cd\n", "different kinds"),
        ("identify v_q = v_c\n", "not a variable"),
        ("identify v_a = v_c\nidentify v_a = v_d\n", "identified twice"),
    ],
)
def test_glue_validation_errors(identify, fragment):
    r1 = parse_netlist("circuit R1\nnode a b\nterminal a b\nresistor ab a b 1\n")
    r2 = parse_netlist("circuit R2\nnode c d\nterminal c d\nresistor cd c d 2\n")
    spec = parse_glue("glue G\n" + identify)
    with pytest.raises(GlueError) as err:
        glue(r1, r2, spec)
    assert fragment in str(err.value)


def test_glue_name_collision_detected():
    c1 = parse_netlist("circuit A\nnode x y\nterminal x y\nwire w x y\n")
    c2 = parse_netlist("circuit B\nnode x z\nterminal x z\nwire w2 x z\n")
    with pytest.raises(GlueError) as err:
        glue(c1, c2, GlueSpec("bad", ()))
    assert "collision" in str(err.value)
    # identifying the common name resolves it
    res = glue(c1, c2, GlueSpec("good", (("v_x", "v_x"),)))
    assert "v_x" in res.universum.vars


def test_orientation_reversal_changes_nothing_observable():
    fwd = parse_netlist("circuit F\nnode a b c\nterminal a c\nresistor r a b 2\nwire w b c\n")
    rev = parse_netlist("circuit R\nnode a b c\nterminal a c\nresistor r b a 2\nwire w b c\n")
    cf, cr = compile_circuit(fwd), compile_circuit(rev)
    flip = dense_map(
        cf.universum,
        cf.universum,
        tuple(
            tuple(
                (Fraction(-1) if (i == j and cf.universum.vars[i] == "i_r") else
                 Fraction(1) if i == j else Fraction(0))
                for j in range(cf.universum.dim)
            )
            for i in range(cf.universum.dim)
        ),
    )
    flipped = vect.image(
        vect.compose(flip, cf.system.inclusion)
    )
    assert flipped == behavior_image(cr.system)
    obs = ("v_a", "v_c")
    assert phenome(cf.rep.f1.rows, cf.universum, obs) == phenome(cr.rep.f1.rows, cr.universum, obs)


# -- phenomes and emergence ------------------------------------------------------

def test_phenome_of_all_variables_is_the_behavior():
    # nothing is hidden, so the equations are the circuit's own rows
    c = compile_circuit(parse_netlist(S_TEXT))
    eqs, basis = phenome(c.rep.f1.rows, c.universum, c.universum.vars)
    assert Subspace.from_rows(c.universum, basis) == behavior_image(c.system)
    assert Subspace.from_rows(c.universum, eqs) == Subspace.from_rows(c.universum, c.rep.f1.rows)


def test_phenome_unknown_variable():
    c = compile_circuit(parse_netlist(S_TEXT))
    with pytest.raises(MismatchError):
        phenome(c.rep.f1.rows, c.universum, ("v_a", "v_nope"))


def test_phenome_rejects_a_solution_that_changes_the_kept_variables(monkeypatch):
    # the zero vector solves every equation, so only the comparison on the kept
    # variables catches a back-substitution that loses them; no rows survive
    # the elimination here, so the kernel is written without back-substitution
    c = compile_circuit(parse_netlist(S_TEXT))
    assert phenome(c.rep.f1.rows, c.universum, ("v_a", "v_c")) == ((), ((1, {0: 1}), (1, {1: 1})))
    monkeypatch.setattr(vect, "_back_substitute", lambda x, back: x.clear() or 1)
    with pytest.raises(MismatchError, match="eliminated equations disagree"):
        phenome(c.rep.f1.rows, c.universum, ("v_a", "v_c"))


def test_augmented_phenomes_are_full():
    s, p, _ = aug_circuits()
    obs = ("v_a", "v_b", "v_i", "v_j")
    for c in (compile_circuit(s), compile_circuit(p)):
        eqs, basis = phenome(c.rep.f1.rows, c.universum, obs)
        assert len(basis) == 4 and not any(m for _, m in eqs)


def test_emergence_open_and_closed():
    s, p, spec = aug_circuits()
    obs = ("v_a", "v_b", "v_i", "v_j")
    open_rep = emergence_report(s, p, spec, obs)
    assert (open_rep.parts_dim, open_rep.whole_dim, open_rep.emergent) == (4, 3, True)
    closed_rep = emergence_report(s, p, replace(spec, close_dangling=True), obs)
    assert (closed_rep.parts_dim, closed_rep.whole_dim, closed_rep.emergent) == (4, 1, True)


def test_whole_phenome_is_contained_in_parts():
    # on the full route, and the report gives the dims of that route's two spaces
    s, p, spec = aug_circuits()
    obs = ("v_a", "v_b", "v_i", "v_j")
    k1, k2 = compile_circuit(s), compile_circuit(p)
    parts = oracles.full_phenome(k1.system, obs).intersect(oracles.full_phenome(k2.system, obs))
    for close in (False, True):
        whole = oracles.full_phenome(glue(s, p, replace(spec, close_dangling=close)).system, obs)
        assert whole & parts == whole
        rep = emergence_report(s, p, replace(spec, close_dangling=close), obs)
        assert (rep.parts_dim, rep.whole_dim, rep.emergent) == (parts.dim, whole.dim, whole != parts)


def _outcome(report, case):
    try:
        return report(*case)
    except DomainError as exc:
        return type(exc), str(exc)


@st.composite
def emergence_cases(draw):
    """A ladder and a ladder or grid, each declaring the other's outer nodes as
    isolated terminals identified by name, joined at some junction voltages
    and maybe currents, open or closed, observed at shared names.

    Some draws observe a name that the left side identifies with a different
    name while the right keeps it, glue the current of a terminal that closing
    closes (the left ladder's n0 has one end, r0), observe a name one part
    lacks or a name twice, or identify a variable that does not exist.
    """
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        m = draw(st.integers(1, 4))
        right, outer_b, entry = ladder("b", m), (f"bn{m}", f"bg{m}"), ["bn0", "bg0"]
    else:
        k = draw(st.integers(2, 3))
        right, outer_b, entry = ugrid("b", k), (f"bx{k - 1}_{k - 1}",), ["bx0_0", f"bx0_{k - 1}"]
    outer_a = ("an0", "ag0")
    alias = (f"an{n}",) if draw(st.booleans()) else ()
    left, right = augmented(ladder("a", n), outer_b), augmented(right, outer_a + alias)
    idents = [(voltage_var(x), voltage_var(x)) for x in outer_a + outer_b]
    joins = list(zip([f"an{n}", f"ag{n}"], draw(st.permutations(entry))))
    idents += [(voltage_var(a), voltage_var(b)) for a, b in joins[:draw(st.integers(len(alias), 2))]]
    currents = draw(st.permutations([current_var(e.ident) for e in right.elements]))
    if draw(st.booleans()):
        idents.append(("i_ar0", currents[0]))
    if draw(st.booleans()):
        idents.append((current_var(draw(st.sampled_from(left.elements[1:] or left.elements)).ident), currents[-1]))
    if draw(st.integers(0, 9)) == 9:
        idents.append(("v_nope", voltage_var(entry[0])))
    shared = [voltage_var(x) for x in outer_a + outer_b + alias]
    obs = draw(st.lists(st.sampled_from(shared), min_size=1, unique=True, max_size=5))
    if draw(st.integers(0, 4)) == 4:
        obs.insert(draw(st.integers(0, len(obs))), draw(st.sampled_from(["v_an1", "i_ar0", *obs[:1]])))
    return left, right, GlueSpec("AB", tuple(idents), draw(st.booleans())), tuple(obs)


@settings(max_examples=80, deadline=None)
@given(emergence_cases())
def test_emergence_matches_the_full_route(case):
    # equal reports or the same typed error as the full kernels, glue and projection
    assert _outcome(emergence_report, case) == _outcome(oracles.full_emergence_report, case)


@pytest.mark.parametrize("seed", [1, 7, 101])
def test_bench_emergence_ops_match_the_full_route(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(BENCH))
    generate = importlib.import_module("generate")
    for op in generate.plan("emergence", seed):
        left, right, spec = (parse(op.files[name]) for parse, name in zip(
            (parse_netlist, parse_netlist, parse_glue), op.argv[1:4]))
        case = (left, right, replace(spec, close_dangling=op.close), op.observe)
        assert emergence_report(*case) == oracles.full_emergence_report(*case)


@pytest.mark.parametrize("close", [False, True])
def test_emergence_stops_where_the_elimination_pivots_on_a_kept_variable(monkeypatch, close):
    # the observed v_an0 pivots too: ker of the left rows leaves it free, but
    # back-substitution solves for it, so a basis vector changes on a kept variable
    left, right, spec, obs = aug_ladders(3)
    forward = vect._eliminate_forward

    def pivoting_on_v_an0(m, cols, reduced=False):
        return forward(m, set(cols) | {0}, reduced)  # v_an0 is the first variable of the left ladder

    monkeypatch.setattr(vect, "_eliminate_forward", pivoting_on_v_an0)
    with pytest.raises(MismatchError, match="eliminated equations disagree"):
        emergence_report(left, right, replace(spec, close_dangling=close), obs)


def test_no_emergence_without_internal_interaction():
    c1 = parse_netlist("circuit A\nnode a b x y\nterminal a b x y\nresistor r1 a b 1\n")
    c2 = parse_netlist("circuit B\nnode c d x y\nterminal c d x y\nresistor r2 c d 1\n")
    spec = GlueSpec("obs_only", (("v_x", "v_x"), ("v_y", "v_y")))
    rep = emergence_report(c1, c2, spec, ("v_x", "v_y"))
    assert rep.parts_dim == rep.whole_dim == 2
    assert not rep.emergent
