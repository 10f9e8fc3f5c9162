"""Exact compositional modeling of behavioral systems.

Two carriers (finite sets, finite-dimensional rational vector spaces) support
systems-as-inclusions, equation representations interpreted through
equalizers, pullback interconnection, powerset duality, generalized systems
with their adjunction, and a resistive-circuit front end. All arithmetic is
exact.

Every public name is imported from its module, e.g.
``from syscat.vect import LinMap``; the package root re-exports none.
"""

# bench/test_bench.py's tracer test snapshots every loaded module's bindings
# before the tracer imports the modules it hooks, so ``import syscat`` keeps
# loading these nine until ROADMAP item 5 changes that test; the CLI and the
# law suites still load only on demand.
from . import booldual, carriers, circuits, equations, errors, finset, generalized, systems, vect

__version__ = "0.1.0"
