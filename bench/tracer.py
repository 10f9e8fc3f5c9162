"""Outside-in tracing of syscat: wrap functions at every binding site, then restore them.

``Tracer`` replaces each target function in every loaded ``syscat`` module
whose namespace holds the same object (so ``from .vect import rref`` call
sites are traced too), and replaces methods on their class. The wrappers keep
a stack of open spans, so each function gets its own call count and self time
(its wall time minus the time of traced callees). Size and ratio statistics
are computed after a span closes, and that time is charged to nobody.
Leaving the ``with`` block puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

TARGETS = {
    "circuits": ("parse_netlist", "parse_glue", "compile_circuit", "glue", "emergence_report", "phenome"),
    "cli": ("main",),
    "equations": ("kernel_rep", "arr_eq", "arr_eq_morphism", "pullback_equations",
                  "EquationMorphism.__post_init__"),
    "systems": ("System.__post_init__", "SystemMorphism.__post_init__", "make_morphism",
                "pullback_systems", "project_latent", "behavior_image", "systems_equal"),
    "carriers": ("compose", "pullback", "pullback_mediate", "equalizer", "equalizer_mediate",
                 "image_factorize", "classify_map", "product_mediate"),
    "vect": ("rref", "kernel_basis", "solve_matrix", "mat_mul", "LinMap.__post_init__",
             "Subspace.__post_init__", "Subspace.intersect"),
    "finset": ("compose", "pullback", "equalizer", "product", "all_maps"),
    "booldual": ("functor_F", "functor_G", "all_homs", "duality_classify", "pushout_bool"),
    "generalized": ("adjunction_check", "gen_system_homs", "homs_from_diagonal"),
}

PACKAGE = "syscat"


def target_names() -> list[str]:
    return [f"{mod}.{qual}" for mod, quals in TARGETS.items() for qual in quals]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0


class Sizes:
    """Size and ratio statistics gathered at the rref, mat_mul and compile boundaries."""

    def __init__(self):
        self.rref_cells = 0
        self.rref_nonzeros = 0
        self.rref_max_cells = 0
        self.rref_max_bits = 0
        self.mat_mul_products = 0
        self.mat_mul_useful = 0
        self.compile_max_dim = 0

    def rref(self, args, result):
        rows, ncols = args[0], args[1]
        rows = list(rows)
        cells = len(rows) * ncols
        self.rref_cells += cells
        self.rref_max_cells = max(self.rref_max_cells, cells)
        self.rref_nonzeros += sum(1 for row in rows for x in row if x != 0)
        for row in result[0]:
            for x in row:
                bits = max(x.numerator.bit_length(), x.denominator.bit_length())
                if bits > self.rref_max_bits:
                    self.rref_max_bits = bits

    def mat_mul(self, args, result):
        a_rows, b_rows, inner = args[0], args[1], args[2]
        ncols = len(b_rows[0]) if b_rows else 0
        self.mat_mul_products += len(a_rows) * ncols * inner
        col_nnz = [sum(1 for row in a_rows if row[k] != 0) for k in range(inner)]
        row_nnz = [sum(1 for x in b_rows[k] if x != 0) for k in range(inner)]
        self.mat_mul_useful += sum(c * r for c, r in zip(col_nnz, row_nnz))

    def compile_circuit(self, args, result):
        self.compile_max_dim = max(self.compile_max_dim, result.universum.dim)

    def metrics(self) -> dict[str, float]:
        return {
            "vect.rref.max_cells": self.rref_max_cells,
            "vect.rref.density": self.rref_nonzeros / self.rref_cells if self.rref_cells else 0.0,
            "vect.rref.max_bits": self.rref_max_bits,
            "vect.mat_mul.useful_ratio": (
                self.mat_mul_useful / self.mat_mul_products if self.mat_mul_products else 0.0
            ),
            "circuits.compile_circuit.max_dim": self.compile_max_dim,
        }


class Tracer:
    """Context manager that traces every function in ``TARGETS`` while it is open."""

    def __init__(self):
        self.stats = {name: Stat() for name in target_names()}
        self.sizes = Sizes()
        self.missing: list[str] = []
        self.stats_time = 0.0  # time spent computing ``sizes``, excluded from every span
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self._hooks = {
            "vect.rref": self.sizes.rref,
            "vect.mat_mul": self.sizes.mat_mul,
            "circuits.compile_circuit": self.sizes.compile_circuit,
        }

    # -- span bookkeeping --------------------------------------------------------

    def _close(self, name: str, frame: list[float], t0: float, args=None, result=None, hook=None):
        t1 = time.perf_counter()
        self._stack.pop()
        stat = self.stats[name]
        stat.self_s += (t1 - t0) - frame[0]
        t2 = t1
        if hook is not None:
            try:
                hook(args, result)
            except (TypeError, IndexError, AttributeError, ValueError):
                pass  # a changed signature loses the statistic, never the run
            t2 = time.perf_counter()
            self.stats_time += t2 - t1
        if self._stack:
            self._stack[-1][0] += t2 - t0

    def _wrap(self, name: str, fn):
        stats, stack, close = self.stats, self._stack, self._close
        hook = self._hooks.get(name)

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while it is resumed, so each resume is a span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stats[name].calls += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        close(name, frame, t0)
                        return
                    except BaseException:
                        close(name, frame, t0)
                        raise
                    close(name, frame, t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[name].calls += 1
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(name, frame, t0, args, result, hook)

        return wrapper

    # -- patching ------------------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def __enter__(self):
        try:
            self._patch_all()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _patch_all(self):
        for mod_name, quals in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for qual in quals:
                name = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name, None)
                    original = cls.__dict__.get(attr) if cls is not None else None
                    if original is None:
                        self.missing.append(name)
                        continue
                    self._patch(cls, attr, original, self._wrap(name, original))
                    continue
                original = getattr(module, qual, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for m in self._modules():
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def total_self(self) -> float:
        return sum(s.self_s for s in self.stats.values())
