import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qclattice import gf2, presets


@pytest.fixture(scope="session")
def example1_bundle():
    return presets.example1()


@pytest.fixture(scope="session")
def wimax_bundle():
    return presets.wimax1152()


@pytest.fixture
def eliminations(monkeypatch):
    """A list that gets the packed shape of every ``gf2.rref_words`` call
    (every GF(2) elimination but the search's) made during the test."""
    calls = []
    kernel = gf2.rref_words

    def counted(W, n):
        calls.append(W.shape)
        return kernel(W, n)

    monkeypatch.setattr(gf2, "rref_words", counted)
    return calls
