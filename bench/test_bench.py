"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import calibration
import generate
import reference
import run
import tracer
from syscat import cli


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run(op: generate.Op, directory: Path) -> str:
    generate.write([op], directory)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(op.argv) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue()


def _op(workload: str, label: str, seed: int = 3) -> generate.Op:
    return next(op for op in generate.plan(workload, seed) if op.label == label)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload, tmp_path):
    generate.write(generate.plan(workload, 11), tmp_path / "a")
    generate.write(generate.plan(workload, 11), tmp_path / "b")
    generate.write(generate.plan(workload, 12), tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def test_every_workload_keeps_its_shapes_across_seeds():
    for workload in generate.WORKLOADS:
        labels = {seed: sorted(op.label for op in generate.plan(workload, seed)) for seed in (1, 2)}
        assert labels[1] == labels[2]


def _bindings():
    """Every attribute of every syscat module and traced class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "syscat" or name.startswith("syscat.")):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        seen[(name, attr, cattr)] = cvalue
    return seen


def test_tracer_counts_calls_and_restores_every_name(tmp_path):
    from syscat import vect

    before = _bindings()
    original_rref = vect.rref
    op = _op("glue", "ladder1-1")
    with tracer.Tracer() as t:
        assert vect.rref is not original_rref
        text = _run(op, tmp_path)
    assert reference.check(op, reference.expected(op), text) is None
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    assert vect.rref is original_rref
    assert not t.missing
    assert t.stats["cli.main"].calls == 1
    assert t.stats["circuits.compile_circuit"].calls == 2
    assert t.stats["vect.mat_mul"].calls > 0
    assert t.stats["vect.LinMap.__post_init__"].calls > 0
    assert t.total_self() > 0


def test_tracer_attributes_generator_time_to_the_generator(tmp_path):
    op = generate.Op("laws", "duality", ["check", "--law", "duality", "--seed", "1", "--json"],
                     law="duality")
    with tracer.Tracer() as t:
        text = _run(op, tmp_path)
    assert reference.check(op, reference.expected(op), text) is None
    assert t.stats["finset.all_maps"].calls > 0
    assert t.stats["finset.all_maps"].self_s > 0


@pytest.mark.parametrize("workload,label", [
    ("behavior", "ladder-int4"), ("behavior", "grid3"), ("glue", "ladder1-2c"),
    ("glue", "grid1-3"), ("emergence", "aug1-1"), ("emergence", "aug1-2c"), ("laws", "lattice"),
])
def test_reference_accepts_syscat_output(workload, label, tmp_path):
    op = _op(workload, label)
    assert reference.check(op, reference.expected(op), _run(op, tmp_path)) is None


def test_reference_flags_a_corrupted_basis_entry(tmp_path):
    op = _op("behavior", "ladder-int4")
    exp = reference.expected(op)
    report = json.loads(_run(op, tmp_path))
    basis = report["behavior"]["basis"]
    pivots = [next(j for j, x in enumerate(row) if x != "0") for row in basis]
    # Changing a non-pivot entry keeps the rows in reduced echelon form, and
    # that form is unique, so the row space must change.
    j = next(j for j in range(pivots[0] + 1, len(basis[0])) if j not in pivots)
    basis[0][j] = str(Fraction(basis[0][j]) + 1)
    assert "row space" in reference.check(op, exp, json.dumps(report))


def test_reference_flags_a_flipped_emergent(tmp_path):
    op = _op("emergence", "aug1-1")
    exp = reference.expected(op)
    report = json.loads(_run(op, tmp_path))
    report["emergent"] = not report["emergent"]
    assert "emergence" in reference.check(op, exp, json.dumps(report))


def test_reference_flags_wrong_law_totals(tmp_path):
    op = _op("laws", "adjunction")
    report = json.loads(_run(op, tmp_path))
    report["suites"][0]["total"] -= 1
    report["suites"][0]["passed"] -= 1
    assert "totals" in reference.check(op, reference.expected(op), json.dumps(report))


def test_times_are_scaled_by_the_calibrations_around_them():
    ref = calibration.REFERENCE_S
    assert calibration.scale(0.3, ref, ref) == pytest.approx(0.3)
    # On a machine running at half speed both the operation and its calibrations
    # take twice as long; the scaled time is the same.
    assert calibration.scale(0.6, 2 * ref, 2 * ref) == pytest.approx(0.3)
    wall, cpu = calibration.calibrate()
    assert wall > 0 and cpu > 0


def test_end_to_end_reads_scaled_cpu_time_and_ranks_failures_last():
    ref = calibration.REFERENCE_S
    record = {
        "latency": [0.25, 0.5, 0.9, 9.0],
        "cpu": [0.2, 0.4, 0.8, 1.0],
        "cal": [ref, ref, 2 * ref, 2 * ref, ref],
    }
    metrics, logged = run.end_to_end(record, ["", "", "", "x: raised"], wall=30.0)
    # scaled: 0.2, 0.4 * 2/3, 0.8 / 2, 1.0 * 2/3; the failure reads as the loop wall time
    assert metrics["latency_p50_s"] == pytest.approx((0.4 * 2 / 3 + 0.4) / 2)
    assert metrics["latency_p75_s"] == pytest.approx(0.4)
    assert metrics["ops_per_s"] == pytest.approx(3 / (0.2 + 0.4 * 2 / 3 + 0.4 + 2 / 3))
    assert metrics["success_ratio"] == 0.75
    assert logged["wall.latency_p75_s"] == 0.9


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(generate.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    traced = {
        "timed": {"latency": [1.0]},
        "traced": {"latency": [1.0]},
        "stats": {name: [0, 0.0] for name in tracer.target_names()},
        "sizes": tracer.Sizes().metrics(),
        "stats_time_s": 0.0,
        "traced_self_s": 1.0,
    }
    reported = {name: unit for name, (_, unit) in run.per_layer(traced).items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == reported
