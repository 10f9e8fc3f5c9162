import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syscat import circuits, cli, equations, generalized, vect
from syscat.circuits import Resistor
from syscat.cli import main
from syscat.vect import LinMap, Subspace, VectObj

import test_cli_golden
from test_vect_kernels import ENTRIES, INTEGER, sparse_rows

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_behavior_text_output(circuits_dir, capsys):
    code, out, _ = run_cli(["behavior", str(circuits_dir / "S.ckt")], capsys)
    assert code == 0
    assert "dim(U)=6 dim(B)=4" in out


def test_behavior_json_roundtrip(circuits_dir, capsys):
    code, out, _ = run_cli(["behavior", str(circuits_dir / "P.ckt"), "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["universum"]["dim"] == 11
    assert report["behavior"]["dim"] == 4
    assert all(isinstance(x, str) for row in report["behavior"]["basis"] for x in row)


def bench_ladder(n: int) -> str:
    """A ladder as the benchmark draws it: rail n of resistors r, rail g of
    wires w, rungs s of resistors, the four ends as terminals."""
    lines = [f"circuit ladder{n}", "node " + " ".join(f"{k}{i}" for k in "ng" for i in range(n + 1)),
             f"terminal n0 g0 n{n} g{n}"]
    for i in range(n):
        lines += [f"resistor r{i} n{i} n{i + 1} {i + 1}/{i + 2}", f"wire w{i} g{i} g{i + 1}",
                  f"resistor s{i} n{i + 1} g{i + 1} {2 * i + 3}"]
    return "\n".join(lines) + "\n"


def bench_grid(k: int) -> str:
    """A k x k grid as the benchmark draws it: every fifth edge a wire, the
    others rational resistors, the four corners as terminals."""
    lines = [f"circuit grid{k}", "node " + " ".join(f"x{x}y{y}" for y in range(k) for x in range(k)),
             f"terminal x0y0 x0y{k - 1} x{k - 1}y0 x{k - 1}y{k - 1}"]
    edges = [(f"{tag}{x}_{y}", f"x{x}y{y}", f"x{x2}y{y2}") for y in range(k) for x in range(k)
             for tag, x2, y2 in (("h", x + 1, y), ("v", x, y + 1)) if x2 < k and y2 < k]
    for i, (name, a, b) in enumerate(edges):
        lines.append(f"wire {name} {a} {b}" if i % 5 == 0 else f"resistor {name} {a} {b} {i + 2}/{i % 7 + 1}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("netlist", [bench_ladder(14), bench_grid(5)], ids=["ladder14", "grid5"])
def test_behavior_never_transposes_its_inclusion(netlist, tmp_path, capsys):
    # behavior prints the kernel's basis, which its inclusion keeps, so the
    # inclusion's rows are never built
    path = tmp_path / "c.ckt"
    path.write_text(netlist)
    with mock.patch.object(vect, "_transpose", wraps=vect._transpose) as transpose:
        code, out, _ = run_cli(["behavior", str(path), "--json"], capsys)
    assert code == 0 and json.loads(out)["behavior"]["dim"] == 4
    assert transpose.call_count == 0


def test_behavior_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["behavior", str(tmp_path / "nope.ckt")], capsys)
    assert code == 2
    assert "error" in err


def test_behavior_empty_nodes_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "empty.ckt"
    bad.write_text("circuit X\n")
    code, _, err = run_cli(["behavior", str(bad)], capsys)
    assert code == 2
    assert "no nodes" in err


@pytest.mark.parametrize("command", ["behavior", "glue", "emergence"])
def test_non_utf8_input_is_usage_error(command, circuits_dir, tmp_path, capsys):
    bad = tmp_path / "bad.ckt"
    bad.write_bytes(b"\xff\xfe")
    argv = {
        "behavior": ["behavior", str(bad)],
        "glue": ["glue", str(circuits_dir / "S.ckt"), str(bad), str(circuits_dir / "SP.glue")],
        "emergence": ["emergence", str(circuits_dir / "S_aug.ckt"), str(circuits_dir / "P_aug.ckt"),
                      str(bad), "--observe", "v_a"],
    }[command]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "Traceback" not in err
    assert str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize("kind, text", [
    ("ckt", ""),
    ("ckt", "circuit T\nnode a b\nresistor r1 x\n"),
    ("ckt", "circuit A\ncircuit B\nnode a b\nresistor r1 a b 1\n"),
    ("glue", ""),
    ("glue", "glue a\nglue b\nidentify v_c = v_e\n"),
    ("glue", "glue g\nidentify v_c =\n"),
    ("ckt", "circuit T\nnode a b\nresistor r1 a b 1/" + "7" * 5000 + "\n"),
    ("ckt", "circuit T\nnode a b\nresistor r1 a b \u0661\u0662\n"),
], ids=["empty-netlist", "truncated-netlist", "duplicate-circuit-header",
        "empty-glue", "duplicate-glue-header", "malformed-identify", "overlong-value",
        "non-ascii-digits"])
def test_malformed_file_is_usage_error(kind, text, circuits_dir, tmp_path, capsys):
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text)
    if kind == "ckt":
        argv = ["behavior", str(bad)]
    else:
        argv = ["glue", str(circuits_dir / "S.ckt"), str(circuits_dir / "P.ckt"), str(bad)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_unprintable_behavior_entry_is_domain_error(flags, tmp_path, capsys):
    # the behavior holds r/s, an integer past Python's int-to-text digit limit
    net = tmp_path / "big.ckt"
    net.write_text("circuit big\nnode a b c\nterminal a c\nresistor r a b " + "7" * 4000
                   + "\nresistor s b c 1/" + "3" * 4000 + "\n")
    code, out, err = run_cli(["behavior", str(net), *flags], capsys)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"{sys.get_int_max_str_digits()} digits" in lines[0]


HUGE = st.builds(Fraction, st.integers(-10**300, 10**300).filter(bool), st.integers(1, 10**90))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from((INTEGER, HUGE) + ENTRIES).flatmap(lambda entries: sparse_rows(entries=entries)))
def test_behavior_json_formats_entries_as_fractions(m):
    rows, ncols = m
    sub = Subspace(VectObj(tuple(f"x{i}" for i in range(ncols))), rows)
    assert cli._behavior_json(sub)["basis"] == [[str(x) for x in row] for row in sub.basis]


# every character json escapes by name, a control character it writes as
# \u00XX, non-ASCII ones (a surrogate pair and a lone surrogate), and plain ones
_JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀\ud800ab:,[]{}'))
_REPORT_VALUES = st.recursive(
    st.booleans() | st.integers() | _JSON_TEXT | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(deadline=None, max_examples=300)
@given(_REPORT_VALUES)
def test_report_writer_matches_json_indent_2(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, 0.0, None, {1: "a"}, {None: 1}, {"a": [1, 2.0]}, ["a", None], {"a": {"b": {(): 1}}},
], ids=["float", "zero-float", "None", "int-key", "None-key", "nested-float", "nested-None",
        "nested-tuple-key"])
def test_report_writer_refuses_floats_none_and_non_str_keys(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


@pytest.mark.parametrize("netlist", [bench_ladder(14), bench_grid(5)], ids=["ladder14", "grid5"])
def test_behavior_stacks_no_rows(netlist, tmp_path, capsys):
    # a kernel representation equalizes f with the zero map, so the
    # equalizer hands f's own rows to kernel_basis instead of stacking f - 0
    path = tmp_path / "c.ckt"
    path.write_text(netlist)
    with mock.patch.object(vect, "_stack", wraps=vect._stack) as stack:
        code, out, _ = run_cli(["behavior", str(path), "--json"], capsys)
    assert code == 0 and json.loads(out)["behavior"]["dim"] == 4
    assert stack.call_count == 0


def test_glue_text_output(circuits_dir, capsys):
    code, out, _ = run_cli(
        ["glue", str(circuits_dir / "S.ckt"), str(circuits_dir / "P.ckt"),
         str(circuits_dir / "SP.glue")],
        capsys,
    )
    assert code == 0
    assert "behavior: dim=4" in out
    assert "syntax==semantics: true" in out


def test_glue_close_dangling(circuits_dir, capsys):
    code, out, _ = run_cli(
        ["glue", str(circuits_dir / "S.ckt"), str(circuits_dir / "P.ckt"),
         str(circuits_dir / "SP.glue"), "--close-dangling", "--json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["behavior"]["dim"] == 1
    assert report["close_dangling"] is True
    assert report["preservation_equal"] is True


@pytest.mark.parametrize("flags, images", [([], 1), (["--close-dangling"], 2)], ids=["open", "closed"])
def test_glue_computes_each_behavior_once(flags, images, circuits_dir, capsys):
    # the behaviors' pullback on the merged names, which the stacked equations
    # certify as their own system, and the closed behavior cut from it; the
    # CLI reads the kept ones
    with mock.patch.object(vect, "image", wraps=vect.image) as image:
        code, _, _ = run_cli(
            ["glue", str(circuits_dir / "S.ckt"), str(circuits_dir / "P.ckt"),
             str(circuits_dir / "SP.glue"), *flags],
            capsys,
        )
    assert code == 0
    assert image.call_count == images


def drop_first_law_row(monkeypatch, netlist):
    """Make glue's stacked equations lose the law row of the left part's first
    resistor, which no other row implies, while the parts compile as before:
    in the map the certificate receives and in the one the fallback solves."""
    left = circuits.parse_netlist(netlist.read_text())
    row = "L:law:" + next(e.ident for e in left.elements if isinstance(e, Resistor))

    def dropping(make):
        def wrapped(f, *rest):
            names = f.cod.vars
            if names and names[0].startswith("L:"):
                k = names.index(row)
                f = LinMap.from_rows(f.dom, VectObj(names[:k] + names[k + 1:]), f.rows[:k] + f.rows[k + 1:])
            return make(f, *rest)
        return wrapped

    for name in ("certified_kernel_rep", "kernel_rep"):
        monkeypatch.setattr(circuits, name, dropping(getattr(circuits, name)))


@pytest.mark.parametrize("flags", [[], ["--close-dangling"]], ids=["open", "closed"])
def test_glue_prints_a_failed_cross_check(flags, circuits_dir, monkeypatch, capsys):
    # the mismatch is reported, never printed as agreed
    drop_first_law_row(monkeypatch, circuits_dir / "S.ckt")
    argv = ["glue", str(circuits_dir / "S.ckt"), str(circuits_dir / "P.ckt"), str(circuits_dir / "SP.glue")]
    code, out, _ = run_cli(argv + flags, capsys)
    assert code == 1
    assert "syntax dim=5 semantics dim=4 syntax==semantics: false" in out
    code, out, _ = run_cli(argv + flags + ["--json"], capsys)
    report = json.loads(out)
    assert code == 1 and report["preservation_equal"] is False
    assert (report["syntax_dim"], report["semantics_dim"]) == (5, 4)


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_glue_stops_on_a_closed_basis_its_ext_rows_refuse(flags, circuits_dir, monkeypatch, capsys):
    # a stand-in kernel of E . K that returns every coordinate of the open
    # behavior, which the ext: rows do not annihilate: the closed basis is
    # checked on its way out, so nothing is printed as the closed behavior
    kernel_basis = vect.kernel_basis

    def everything_for_closing(rows, ncols):
        if sys._getframe(1).f_code.co_name == "_glue_compiled":
            return vect._unit_rows(range(ncols))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(vect, "kernel_basis", everything_for_closing)
    argv = ["glue", str(circuits_dir / "S.ckt"), str(circuits_dir / "P.ckt"), str(circuits_dir / "SP.glue")]
    code, out, err = run_cli(argv + ["--close-dangling"] + flags, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    # the open glue runs no such kernel
    assert run_cli(argv + flags, capsys)[0] == 0


def drop_first_reduced_row(monkeypatch):
    """Make the first elimination lose its first reduced row, a row left with
    no hidden column: in emergence, one of the left part's kept equations."""
    forward = vect._eliminate_forward
    calls = []

    def dropping(m, cols, reduced=False):
        steps = forward(m, cols, reduced)
        if not calls:
            pivoted = {r for r, _ in steps}
            next(row for i, row in enumerate(m) if row and i not in pivoted).clear()
        calls.append(cols)
        return steps

    monkeypatch.setattr(vect, "_eliminate_forward", dropping)


@pytest.mark.parametrize("flags", [[], ["--close-dangling"], ["--json"]], ids=["open", "closed", "json"])
def test_emergence_stops_on_a_failed_cross_check(flags, circuits_dir, monkeypatch, capsys):
    # the emergence report has no verdict to print, so it prints nothing
    drop_first_reduced_row(monkeypatch)
    argv = [
        "emergence",
        str(circuits_dir / "S_aug.ckt"),
        str(circuits_dir / "P_aug.ckt"),
        str(circuits_dir / "SP_aug.glue"),
        "--observe",
        "v_a,v_b,v_i,v_j",
    ]
    code, out, err = run_cli(argv + flags, capsys)
    assert code == 1
    assert out == ""
    assert "eliminated equations disagree with the equations they come from" in err


SP_GLUE_ARGV = ["glue", "S.ckt", "P.ckt", "SP.glue"]
SP_EMERGENCE_ARGV = ["emergence", "S_aug.ckt", "P_aug.ckt", "SP_aug.glue", "--observe", "v_a,v_b,v_i,v_j"]
CERTIFIED_CASES = [
    argv + flags
    for argv in (SP_GLUE_ARGV, SP_EMERGENCE_ARGV)
    for flags in ([], ["--close-dangling"], ["--json"], ["--close-dangling", "--json"])
]


def _in_circuits(argv, circuits_dir):
    return [str(circuits_dir / a) if a.endswith((".ckt", ".glue")) else a for a in argv]


@pytest.mark.parametrize("flags", [[], ["--close-dangling"]], ids=["open", "closed"])
def test_glue_reports_a_wrong_transport(flags, circuits_dir, monkeypatch, capsys):
    # the semantics step carries the behaviors' pullback onto the merged
    # names; a wrong one puts it outside the stacked equations' kernel, so the
    # certificate fails and the equations are solved
    argv = _in_circuits(SP_GLUE_ARGV, circuits_dir) + flags + ["--json"]
    _, out, _ = run_cli(argv, capsys)
    want = json.loads(out)
    pullback_basis = circuits._pullback_basis

    def doubling_v_a(*args):
        # v_a, the left's first variable, is merged coordinate 0
        basis = pullback_basis(*args)
        return tuple(vect._canon(d, {j: 2 * x if j == 0 else x for j, x in m.items()}) for d, m in basis)

    monkeypatch.setattr(circuits, "_pullback_basis", doubling_v_a)
    code, out, _ = run_cli(argv, capsys)
    report = json.loads(out)
    assert code == 1 and report["preservation_equal"] is False
    assert report["behavior"] == want["behavior"]
    assert (report["syntax_dim"], report["semantics_dim"]) == (4, 4)


@pytest.mark.parametrize("off_by", [1, -1], ids=["overcounts", "undercounts"])
@pytest.mark.parametrize("argv", CERTIFIED_CASES, ids=" ".join)
def test_a_wrong_rank_falls_back_to_the_same_output(argv, off_by, circuits_dir, monkeypatch, capsys):
    # a nullity that is not dim K leaves glue's answer to the exact kernel: the
    # same bytes; glue ranks only in its certificate, so nothing else is off,
    # and emergence ranks nothing, so it runs the same kernels
    argv = _in_circuits(argv, circuits_dir)
    with mock.patch.object(vect, "kernel_basis", wraps=vect.kernel_basis) as kernel:
        want = run_cli(argv, capsys)
    certified = kernel.call_count
    rank_of = vect.rank_of
    monkeypatch.setattr(vect, "rank_of", lambda rows, n: rank_of(rows, n) + off_by)
    with mock.patch.object(vect, "kernel_basis", wraps=vect.kernel_basis) as kernel:
        assert run_cli(argv, capsys) == want
    if argv[0] == "glue":
        assert kernel.call_count > certified  # the fallback solved the glued equations
    else:
        assert kernel.call_count == certified


def test_glue_domain_error_exit_code(circuits_dir, tmp_path, capsys):
    bad = tmp_path / "bad.glue"
    bad.write_text("glue bad\nidentify v_a = i_gh\n")
    code, _, err = run_cli(
        ["glue", str(circuits_dir / "S.ckt"), str(circuits_dir / "P.ckt"), str(bad)],
        capsys,
    )
    assert code == 1
    assert "different kinds" in err


def test_emergence_outputs(circuits_dir, capsys):
    base = [
        "emergence",
        str(circuits_dir / "S_aug.ckt"),
        str(circuits_dir / "P_aug.ckt"),
        str(circuits_dir / "SP_aug.glue"),
        "--observe",
        "v_a,v_b,v_i,v_j",
    ]
    code, out, _ = run_cli(base + ["--close-dangling"], capsys)
    assert code == 0
    assert out.strip() == "parts=4 whole=1 emergent=true"
    code, out, _ = run_cli(base, capsys)
    assert code == 0
    assert out.strip() == "parts=4 whole=3 emergent=true"
    code, out, _ = run_cli(base + ["--json"], capsys)
    report = json.loads(out)
    assert report == {
        "observe": ["v_a", "v_b", "v_i", "v_j"],
        "parts_dim": 4,
        "whole_dim": 3,
        "emergent": True,
        "close_dangling": False,
    }


def test_emergence_unknown_observable(circuits_dir, capsys):
    code, _, err = run_cli(
        [
            "emergence",
            str(circuits_dir / "S_aug.ckt"),
            str(circuits_dir / "P_aug.ckt"),
            str(circuits_dir / "SP_aug.glue"),
            "--observe",
            "v_zz",
        ],
        capsys,
    )
    assert code == 1
    assert "unknown observable" in err


def test_check_laws(capsys):
    code, out, _ = run_cli(["check", "--law", "preservation", "--trials", "25"], capsys)
    assert code == 0
    assert "25/25 pass" in out
    code, out, _ = run_cli(["check", "--law", "lattice", "--trials", "20", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert {s["name"] for s in report["suites"]} == {"meet = interconnection", "modular law"}


def test_check_unknown_law_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--law", "gravity"])
    assert exc.value.code == 2


@pytest.mark.parametrize("law", ["lattice", "preservation"])
@pytest.mark.parametrize("trials", ["0", "-1", "-5"])
def test_check_trials_below_one_is_usage_error(law, trials, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--law", law, "--trials", trials])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_check_non_integer_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--law", "lattice", "--trials", "abc"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def drop_first_diagonal_hom(monkeypatch):
    """Make Hom(diagonal(g), e) lose its first morphism, so it is smaller than Hom(g, ObjEq e)."""
    homs = generalized.homs_from_diagonal
    monkeypatch.setattr(generalized, "homs_from_diagonal", lambda g, e: homs(g, e)[1:])


def ignore_the_probe(monkeypatch):
    """Make the composite m . probe come out as m, which breaks naturality unless probe is the identity."""
    monkeypatch.setattr(generalized, "compose_gen_morphisms", lambda b, a: b)


def one_transpose_per_hom_set(monkeypatch):
    """Make every transpose g => ObjEq e the first one computed between the same
    two systems, so the transpositions are no longer mutually inverse."""
    transpose = generalized._transpose_to_objeq
    first = {}

    def the_first(t, eqs, target, g):
        m = transpose(t, eqs, target, g)
        return first.setdefault((m.src, m.dst), m)

    monkeypatch.setattr(generalized, "_transpose_to_objeq", the_first)


def pull_back_the_left_leg_twice(monkeypatch):
    """Make the semantic pullback of (m, n) the pullback of (m, m), over another universum."""
    pullback = equations.pullback_systems
    monkeypatch.setattr(equations, "pullback_systems", lambda f, g: pullback(f, f))


def test_check_prints_a_failed_law(monkeypatch, capsys):
    drop_first_diagonal_hom(monkeypatch)
    code, out, _ = run_cli(["check", "--law", "adjunction", "--trials", "3"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "adjunction: hom-set bijection: 1/3 FAIL",
        "  failed: |Hom(diag g, e)|=2 |Hom(g, ObjEq e)|=3",
        "  failed: |Hom(diag g, e)|=0 |Hom(g, ObjEq e)|=1",
    ]
    # preservation records no detail, so a failure is named by its trial
    pull_back_the_left_leg_twice(monkeypatch)
    code, out, _ = run_cli(["check", "--law", "preservation", "--trials", "2"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "preservation: finset: 0/2 FAIL",
        "  failed: trial 1",
        "  failed: trial 2",
        "preservation: vect: 0/1 FAIL",
        "  failed: trial 1",
    ]


@pytest.mark.parametrize("law,fault", [
    ("adjunction", drop_first_diagonal_hom),
    ("adjunction", ignore_the_probe),
    ("adjunction", one_transpose_per_hom_set),
    ("preservation", pull_back_the_left_leg_twice),
], ids=["hom-set sizes", "naturality", "transposes", "preservation"])
def test_a_failed_check_lists_at_most_its_first_failures(law, fault, monkeypatch, capsys):
    # every suite fails more than ten of its trials: five are printed, ten kept in the report
    fault(monkeypatch)
    argv = ["check", "--law", law, "--trials", "60"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    shown = {}
    for line in out.splitlines():
        if line.startswith("  failed: "):
            shown[suite] += 1
        else:
            suite = line
            shown[suite] = 0
    assert all(suite.endswith(" FAIL") and n == 5 for suite, n in shown.items())
    code, out, _ = run_cli(argv + ["--json"], capsys)
    report = json.loads(out)
    assert code == 1 and report["ok"] is False
    assert len(report["suites"]) == len(shown)
    for s in report["suites"]:
        assert s["total"] - s["passed"] > 10 and len(s["failures"]) == 10


def test_outputs_are_deterministic(circuits_dir, capsys):
    args = ["check", "--law", "adjunction", "--trials", "5"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    args = ["behavior", str(circuits_dir / "S.ckt")]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


# -- one parser per process ------------------------------------------------------

def fresh_process(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports this checkout's syscat, from its root."""
    src = str(test_cli_golden.ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], cwd=test_cli_golden.ROOT, capture_output=True, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
    )


def test_importing_the_cli_builds_no_parser():
    proc = fresh_process("-c", "import syscat.cli as c; print(c.build_parser.cache_info().currsize)")
    assert (proc.stdout, proc.stderr) == ("0\n", "")


def test_the_cli_imports_the_law_suites_only_for_check():
    code = (
        "import sys, syscat.cli as c\n"
        "print('syscat.laws' in sys.modules)\n"
        "c.main(['check', '--law', 'lattice', '--trials', '1'])\n"
        "print('syscat.laws' in sys.modules)\n"
    )
    proc = fresh_process("-c", code)
    assert proc.stdout.splitlines() == [
        "False",
        "lattice: meet = interconnection: 1/1 pass",
        "lattice: modular law: 1/1 pass",
        "True",
    ]
    assert proc.stderr == ""


def test_the_package_root_binds_only_its_modules():
    code = (
        "import sys, syscat\n"
        "print(sorted(n for n in vars(syscat) if not n.startswith('_')))\n"
        "print(syscat.__version__)\n"
        "print('syscat.cli' in sys.modules, 'syscat.laws' in sys.modules)\n"
    )
    proc = fresh_process("-c", code)
    modules = ["booldual", "carriers", "circuits", "equations", "errors", "finset", "generalized",
               "systems", "vect"]
    assert proc.stdout.splitlines() == [str(modules), "0.1.0", "False False"]
    assert proc.stderr == ""


def test_law_choices_are_the_law_suites():
    from syscat import laws

    assert cli.LAW_NAMES == tuple(sorted(laws.LAWS))


def test_reused_parser_matches_a_fresh_process(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal width
    assert cli.build_parser() is cli.build_parser()
    usage = [["check"], ["check", "--law", "nope"], ["check", "--law", "lattice", "--trials", "0"],
             ["check", "--law", "lattice", "--trials", "abc"], ["--help"]]
    for argv in usage + test_cli_golden.CASES:
        proc = fresh_process("-m", "syscat.cli", *argv)
        fresh = {"argv": argv, "stdout": proc.stdout, "stderr": proc.stderr, "exit": proc.returncode}
        assert test_cli_golden.run(argv) == fresh


# -- parser fuzzing ---------------------------------------------------------------

# (left netlist, right netlist, glue spec): each triple glues as it stands
TRIPLES = (("S.ckt", "P.ckt", "SP.glue"), ("R1.ckt", "R2.ckt", "RR.glue"),
           ("S_aug.ckt", "P_aug.ckt", "SP_aug.glue"))
VALUES = ("1e3", "-1", "0", "1/0", "9" * 5000, "\u0661\u0662")  # the last: Arabic-Indic 12
NON_ASCII = ("ñ", "Ω1", "节点", "a\u00a0b", "é=é")  # str.split() splits at the no-break space


@st.composite
def mutated(draw, text):
    """text with one directive line changed: a token dropped, duplicated, or
    replaced by an odd value or a non-ASCII name."""
    lines = text.splitlines()
    line = draw(st.sampled_from([i for i, l in enumerate(lines) if l.split("#", 1)[0].split()]))
    toks = lines[line].split("#", 1)[0].split()
    k = draw(st.integers(0, len(toks) - 1))
    how = draw(st.sampled_from(("drop", "duplicate", "value", "name")))
    if how == "drop":
        del toks[k]
    elif how == "duplicate":
        toks.insert(k, toks[k])
    else:
        toks[k] = draw(st.sampled_from(VALUES if how == "value" else NON_ASCII))
    lines[line] = " ".join(toks)
    return "\n".join(lines) + "\n"


def fuzzed(text):
    return st.one_of(st.just(text), mutated(text), st.text(max_size=200))


@st.composite
def fuzzed_triples(draw):
    names = draw(st.sampled_from(TRIPLES))
    texts = [(CIRCUITS / n).read_text(encoding="utf-8") for n in names]
    which = draw(st.integers(0, 2))
    texts[which] = draw(fuzzed(texts[which]))
    return names, texts


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_triples())
def test_fuzzed_inputs_exit_cleanly(tmp_path, triple):
    names, texts = triple
    for name, text in zip(names, texts):
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths = [str(tmp_path / n) for n in names]
    for argv in (["behavior", paths[0]], ["behavior", paths[1]], ["glue", *paths]):
        code, err = run_quietly(argv)
        assert code in (0, 1, 2)
        if code:
            assert err.count("\n") == 1 and err.startswith("error: ")
        else:
            assert err == ""
