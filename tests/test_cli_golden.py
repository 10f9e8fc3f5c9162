"""CLI output pinned byte for byte: stdout, stderr and exit code of ``cli.main``.

The expected values live in ``tests/golden_cli.json``. After an intended
output change, regenerate them from the repository root with::

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden_cli.json
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from syscat.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"

_TRIPLES = (("S", "P", "SP"), ("S_aug", "P_aug", "SP_aug"), ("R1", "R2", "RR"))


def _cases():
    cases = [
        ["behavior", f"circuits/{p.name}", "--json"]
        for p in sorted((ROOT / "circuits").glob("*.ckt"))
    ]
    for left, right, spec in _TRIPLES:
        argv = ["glue", f"circuits/{left}.ckt", f"circuits/{right}.ckt", f"circuits/{spec}.glue", "--json"]
        cases += [argv, argv + ["--close-dangling"]]
    # P_aug has no v_d, so the second observation set pins an error path
    cases += [
        ["emergence", "circuits/S_aug.ckt", "circuits/P_aug.ckt", "circuits/SP_aug.glue",
         "--observe", observed, "--json"]
        for observed in ("v_a,v_b,v_i,v_j", "v_a,v_d")
    ]
    cases.append(["glue", "circuits/S.ckt", "circuits/S.ckt", "circuits/SP.glue"])
    cases += [
        ["check", "--law", law, "--seed", "3", "--json"]
        for law in ("preservation", "duality", "adjunction", "lattice")
    ]
    return cases


CASES = _cases()


def run(argv) -> dict:
    """One in-process CLI run from the repository root, every output byte kept;
    a usage error's or ``--help``'s ``SystemExit`` gives the exit code."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _golden() -> dict:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in CASES)


def test_error_case_is_one_error_line():
    case = _golden()["glue circuits/S.ckt circuits/S.ckt circuits/SP.glue"]
    assert case["exit"] == 1 and case["stdout"] == ""
    assert case["stderr"].startswith("error: ") and case["stderr"].count("\n") == 1
    assert "'v_e'" in case["stderr"]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert run(argv) == _golden()[" ".join(argv)]


if __name__ == "__main__":
    json.dump([run(argv) for argv in CASES], sys.stdout, indent=1)
    sys.stdout.write("\n")
