"""Shared fixtures: group models, deterministic RNG, random symbol factory
(``random_symbol``, from :mod:`gmult.symbols`)."""
import numpy as np
import pytest
from hypothesis import settings

from gmult.groups import model_from_name
from gmult.symbols import random_symbol  # noqa: F401  (shared by the tests)

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def su2():
    return model_from_name("su2")


@pytest.fixture(scope="session")
def torus3():
    return model_from_name("torus-3")


@pytest.fixture(scope="session")
def torus2():
    return model_from_name("torus-2")


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)
