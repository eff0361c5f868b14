import os
import random

import pytest

import propclust
from propclust.generate import random_instance


@pytest.fixture(scope="session")
def corpus500():
    """The shared seeded corpus: 500 instances, n <= 12, |C| <= 12, k <= 5."""
    rng = random.Random(20260809)
    return [random_instance(rng, 12, 12, 5) for _ in range(500)]


@pytest.fixture(scope="session")
def small_corpus():
    """120 small instances for in-module oracle spot checks."""
    rng = random.Random(4242)
    return [random_instance(rng, 7, 6, 4) for _ in range(120)]


@pytest.fixture(scope="session")
def child_env():
    """Environment for a ``python -m propclust.cli`` child process: the
    directory holding the imported package comes first on PYTHONPATH, so
    the child runs the same code from a checkout or an install."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(propclust.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def pytest_configure(config):
    from hypothesis import settings

    settings.register_profile("repeatable", derandomize=True, deadline=None)
    settings.load_profile("repeatable")
