"""The law suites' generators against the dense ``Fraction`` construction
they replaced (``oracles.dense_*``): equal instances, and the same ``rng``
state afterwards, so every suite runs the same trials."""

import random

import pytest

import oracles
from syscat import laws
from syscat.vect import VectObj

SEEDS = (0, 1, 2, 3, 7, 11, 42, 101, 2021, 2025)
DOM, COD, AMBIENT = VectObj(("a", "b", "c")), VectObj(("x", "y")), VectObj(("a", "b", "c", "d"))

GENERATORS = {
    "linmap": (lambda rng: laws._linmap(rng, DOM, COD), lambda rng: oracles.dense_linmap(rng, DOM, COD)),
    "subspace": (lambda rng: laws._subspace(rng, AMBIENT), lambda rng: oracles.dense_subspace(rng, AMBIENT)),
    "vect_cospan": (laws._vect_equation_cospan, oracles.dense_vect_equation_cospan),
    "finset_cospan": (laws._finset_equation_cospan, oracles.dense_finset_equation_cospan),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_match_the_dense_construction(name, seed):
    sparse, dense = GENERATORS[name]
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    for _ in range(8):
        assert sparse(got_rng) == dense(want_rng)
    assert got_rng.getstate() == want_rng.getstate()
