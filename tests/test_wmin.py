import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_nullspace
from qclattice import codes, qc, wmin
from qclattice.gf2 import BitMatrix

HAMMING_7_4 = BitMatrix.from_rows([
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
])


class TestExactDmin:
    def test_spc_3_3(self):
        assert wmin.exact_dmin(codes.build_spc(3, 3)) == 4

    def test_chain_code(self):
        H = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        assert wmin.exact_dmin(H) == 3

    def test_hamming_7_4(self):
        assert wmin.exact_dmin(HAMMING_7_4) == 3
        # cross-check by full enumeration
        weights = [sum(w) for w in exhaustive_nullspace(HAMMING_7_4.a) if any(w)]
        assert min(weights) == 3

    def test_too_large(self):
        H = BitMatrix.zeros(1, 40)
        with pytest.raises(wmin.TooLargeError):
            wmin.exact_dmin(H)

    def test_trivial_code_raises(self):
        with pytest.raises(ValueError):
            wmin.exact_dmin(BitMatrix.identity(4))

    def test_spc_grid(self):
        for p, q in [(2, 4), (3, 4), (4, 4), (2, 6)]:
            assert wmin.exact_dmin(codes.build_spc(p, q)) == 4

    def test_split_enumeration_path(self):
        # k > 16 exercises the two-table enumeration
        H = BitMatrix.from_rows([np.ones(19, dtype=np.uint8)])
        assert wmin.exact_dmin(H) == 2

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_matches_enumeration_on_random_codes(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        H = BitMatrix(rng.integers(0, 2, (m, n)).astype(np.uint8))
        words = [w for w in exhaustive_nullspace(H.a) if any(w)]
        if not words:
            return
        assert wmin.exact_dmin(H) == min(sum(w) for w in words)


class TestLowWeightSearch:
    def test_spc_4_4_finds_exact(self):
        H = codes.build_spc(4, 4)
        w, c = wmin.low_weight_search(H, 1000, seed=1)
        assert w == wmin.exact_dmin(H) == 4
        assert not H.mul_vec(c).any() and c.sum() == 4

    def test_example1_finds_16(self, example1_bundle):
        H = qc.expand(example1_bundle.proto)
        w, c = wmin.low_weight_search(H, 5000, seed=1, stop_at=16)
        assert w == 16
        assert not H.mul_vec(c).any() and c.sum() == 16

    def test_deterministic(self):
        H = codes.build_spc(3, 5)
        a = wmin.low_weight_search(H, 200, seed=42)
        b = wmin.low_weight_search(H, 200, seed=42)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_stop_at_short_circuits(self):
        H = codes.build_spc(5, 5)
        w, _ = wmin.low_weight_search(H, 10 ** 6, seed=3, stop_at=4)
        assert w == 4  # returns long before the iteration cap

    def test_never_below_exact(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(4, 10))
            H = BitMatrix(rng.integers(0, 2, (m, n)).astype(np.uint8))
            words = [w for w in exhaustive_nullspace(H.a) if any(w)]
            if not words:
                continue
            exact = min(sum(w) for w in words)
            found, c = wmin.low_weight_search(H, 300, seed=int(rng.integers(2 ** 31)))
            assert found >= exact
            assert not H.mul_vec(c).any() and c.sum() == found

    def test_reaches_exact_on_small_qc_codes(self):
        # randomized QC codes with k <= 16: the search matches exact_dmin
        rng = np.random.default_rng(123)
        for _ in range(6):
            z = int(rng.integers(3, 9))
            m_b, n_b = 2, 3
            P = qc.ProtoMatrix.from_shifts(rng.integers(-1, z, (m_b, n_b)), z)
            H = qc.expand(P)
            try:
                exact = wmin.exact_dmin(H)
            except ValueError:
                continue
            found, _ = wmin.low_weight_search(H, 10_000, seed=9, stop_at=exact)
            assert found == exact

    def test_trivial_code_raises(self):
        with pytest.raises(ValueError):
            wmin.low_weight_search(BitMatrix.identity(5), 10, seed=0)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            wmin.low_weight_search(codes.build_spc(2, 2), 0, seed=0)

    def test_witness_violating_h_raises(self, monkeypatch):
        # a generator whose rows are not codewords yields a witness that
        # fails H c = 0; the explicit check (kept under python -O) refuses it
        H = codes.build_spc(2, 2)
        monkeypatch.setattr(wmin, "nullspace_basis",
                            lambda H: [np.eye(H.cols, dtype=np.uint8)[0]])
        with pytest.raises(wmin.WitnessError):
            wmin.low_weight_search(H, 3, seed=0)
