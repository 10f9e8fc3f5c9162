"""The timed process of one benchmark run: a closed loop of in-process CLI calls.

    python3 bench/worker.py <ops.json> <result.json> <seconds> <min_ops> <trace 0|1>

One client sends the next ``syscat.cli.main([..., "--json"])`` call as soon as
the previous one returns. The loop runs as many whole cycles of the operation
list as fit in ``seconds``, and at least ``min_ops`` operations, so every run
holds the same mix of inputs. With trace 1 it runs whole cycles untraced for
a third of ``seconds``, then as many cycles again under ``tracer.Tracer``.
The process imports nothing but syscat and the standard library, so its peak
resident memory is syscat's.

Each operation's wall and CPU time is kept. Before the first operation and
after every one, the loop times ``calibration.calibrate()``; the two
calibrations on either side of an operation measure the speed of the machine
while it ran (see ``calibration.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from syscat import cli  # noqa: E402

import calibration  # noqa: E402


class Loop:
    """Runs operations and keeps latency, exit status and each distinct output."""

    def __init__(self, ops: list[list[str]]):
        self.ops = ops
        self.latency: list[float] = []
        self.cpu: list[float] = []
        self.cal: list[float] = []  # CPU seconds; one before the first operation, one after each
        self.index: list[int] = []
        self.status: list[str] = []  # "ok", "exit <code>" or the exception
        self.digest: list[str] = []
        self.outputs: dict[str, str] = {}  # "<op index>:<digest>" -> output text

    def call(self, i: int):
        if not self.cal:
            self.cal.append(calibration.calibrate()[1])
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(self.ops[i]))
            status = "ok" if code == 0 else f"exit {code}: {err.getvalue().strip()[:200]}"
        except SystemExit as exc:
            status = f"exit {exc.code}: {err.getvalue().strip()[:200]}"
        except Exception as exc:  # a failed operation is counted, never fatal
            status = f"raised {exc!r}"[:300]
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        self.cal.append(calibration.calibrate()[1])
        text = out.getvalue()
        digest = hashlib.sha1(text.encode()).hexdigest()
        self.outputs.setdefault(f"{i}:{digest}", text)
        self.latency.append(dt)
        self.cpu.append(dc)
        self.index.append(i)
        self.status.append(status)
        self.digest.append(digest)

    def cycles(self, n: int) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            for i in range(len(self.ops)):
                self.call(i)
        return time.perf_counter() - t0

    def until(self, seconds: float, min_ops: int) -> tuple[int, float]:
        """Whole cycles while one more, as long as the last, still fits in ``seconds``
        (and until ``min_ops`` operations are done); returns (cycles, wall seconds)."""
        t0 = time.perf_counter()
        n = 0
        while True:
            last = self.cycles(1)
            n += 1
            wall = time.perf_counter() - t0
            if n * len(self.ops) >= min_ops and wall + last > seconds:
                return n, wall

    def record(self) -> dict:
        return {
            "latency": self.latency,
            "cpu": self.cpu,
            "cal": self.cal,
            "index": self.index,
            "status": self.status,
            "digest": self.digest,
            "outputs": self.outputs,
        }


def main(argv: list[str]) -> int:
    manifest, result_path, seconds, min_ops, trace = argv
    ops = json.loads(Path(manifest).read_text())
    os.chdir(Path(manifest).parent)
    Loop(ops).call(0)  # warm-up: first-call costs of argparse, json and regex compilation

    loop = Loop(ops)
    if trace == "0":
        _, wall = loop.until(float(seconds), int(min_ops))
        result = {"timed": loop.record(), "wall_s": wall}
    else:
        from tracer import Tracer

        cycles, wall = loop.until(float(seconds) / 3, 1)
        traced = Loop(ops)
        with Tracer() as tracer:
            traced.cycles(cycles)
        result = {
            "timed": loop.record(),
            "wall_s": wall,
            "traced": traced.record(),
            "stats": {name: [s.calls, s.self_s] for name, s in tracer.stats.items()},
            "sizes": tracer.sizes.metrics(),
            "stats_time_s": tracer.stats_time,
            "traced_self_s": tracer.total_self(),
            "missing": tracer.missing,
        }
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
