import random

import pytest
from hypothesis import HealthCheck, settings

import oracles
from gridfloer import build_complex, build_gc_prime, cobordism, corpus_grids

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")

SEED = 20260814


@pytest.fixture(scope="session")
def corpus():
    return corpus_grids()


@pytest.fixture(scope="session")
def gc_primes(corpus):
    """Single-variable complexes of the whole corpus, built once."""
    return {name: build_gc_prime(g) for name, g in corpus.items()}


@pytest.fixture(scope="session")
def multi_complexes(corpus):
    """Multivariable complexes for the small corpus entries."""
    return {name: build_complex(g) for name, g in corpus.items() if g.n <= 5}


@pytest.fixture
def complement_band_maps(monkeypatch):
    """Every band map the package makes is `oracles.complement_band_map`,
    which is never a chain map: the fault that its chain-map check names."""
    monkeypatch.setattr(
        cobordism, "band_map_raw", lambda c, choice: oracles.complement_band_map(c, choice.site)
    )


@pytest.fixture
def rng():
    return random.Random(SEED)
