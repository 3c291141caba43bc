import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qclattice import codes, gf2, presets, qc


@pytest.fixture(scope="session")
def example1_bundle():
    return presets.get_bundle("example1")


@pytest.fixture(scope="session")
def wimax_bundle():
    return presets.get_bundle("wimax1152")


@pytest.fixture
def eliminations(monkeypatch):
    """A list that gets the packed shape of every ``gf2.rref_words`` call
    made during the test through ``gf2``'s own name: every GF(2)
    elimination, the low-weight search's set-up ``nullspace_basis``
    included, but the search's stacked per-iteration calls, which go
    through ``wmin._rref_packed``, bound at import."""
    calls = []
    kernel = gf2.rref_words

    def counted(W, n):
        calls.append(W.shape)
        return kernel(W, n)

    monkeypatch.setattr(gf2, "rref_words", counted)
    return calls


@pytest.fixture
def expansions(monkeypatch):
    """A list that gets the prototype of every ``qc.expand`` call made
    during the test, through ``qc``'s own name or ``codes``' import of
    it."""
    calls = []
    expand = qc.expand

    def counted(P):
        calls.append(P)
        return expand(P)

    for module in (qc, codes):
        monkeypatch.setattr(module, "expand", counted)
    return calls
