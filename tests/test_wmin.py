import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import exhaustive_nullspace, ref_lightest, ref_low_weight_search
from qclattice import codes, qc, wmin
from qclattice.gf2 import BitMatrix, pack, rref, unpack


def _record_blocks(monkeypatch) -> list[int]:
    """Stack sizes of the search's eliminations, in call order."""
    sizes: list[int] = []
    kernel = wmin._rref_packed
    monkeypatch.setattr(wmin, "_rref_packed",
                        lambda W, n, limit=None:
                        sizes.append(W.shape[0]) or kernel(W, n, limit))
    return sizes


def _small_searches(count: int, seed: int) -> list:
    """``count`` searches ``(H, iterations, seed, None)`` of random codes
    with m in 2..7 checks, n in m+1..15 columns and 1..5 iterations."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(m + 1, 16))
        H = BitMatrix(rng.integers(0, 2, (m, n)).astype(np.uint8))
        cases.append((H, int(rng.integers(1, 6)), int(rng.integers(2 ** 31)), None))
    return cases


HAMMING_7_4 = BitMatrix(np.array([
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]))


class TestExactDmin:
    def test_spc_3_3(self):
        assert wmin.exact_dmin(codes.build_spc(3, 3)) == 4

    def test_chain_code(self):
        H = BitMatrix(np.array([[1, 1, 0], [0, 1, 1]]))
        assert wmin.exact_dmin(H) == 3

    def test_hamming_7_4(self):
        assert wmin.exact_dmin(HAMMING_7_4) == 3
        # cross-check by full enumeration
        weights = [sum(w) for w in exhaustive_nullspace(HAMMING_7_4.a) if any(w)]
        assert min(weights) == 3

    def test_too_large(self):
        H = BitMatrix(np.zeros((1, 40), np.uint8))
        with pytest.raises(wmin.TooLargeError):
            wmin.exact_dmin(H)

    def test_trivial_code_raises(self):
        with pytest.raises(ValueError):
            wmin.exact_dmin(BitMatrix(np.eye(4, dtype=np.uint8)))

    def test_spc_grid(self):
        for p, q in [(2, 4), (3, 4), (4, 4), (2, 6)]:
            assert wmin.exact_dmin(codes.build_spc(p, q)) == 4

    def test_split_enumeration_path(self):
        # k > 16 exercises the two-table enumeration
        H = BitMatrix(np.ones((1, 19), np.uint8))
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

    @pytest.mark.parametrize("name,iterations,stop_at",
                             [("example1", 21, 20), ("wimax1152", 5, 155),
                              ("small", None, None)],
                             ids=["example1-20", "wimax1152-155", "small-random"])
    def test_matches_frozen_search(self, name, iterations, stop_at, example1_bundle,
                                   wimax_bundle):
        # the chunked kernel, the pair scan over non-pivot columns, the block
        # eliminations and the one row-and-pair table leave every seed's
        # search path as it was; 21 iterations span a full block and part
        # of the next; each stop_at ends some seed early (example1 seed 2
        # after one iteration, wimax seed 3 after 3); on the small random
        # codes a single row often ties with a pair of the same weight, and
        # the row must win
        if name == "small":
            cases = _small_searches(300, seed=22)
        else:
            bundle = example1_bundle if name == "example1" else wimax_bundle
            H = qc.expand(bundle.proto)
            cases = [(H, iterations, seed, stop)
                     for seed in range(4) for stop in (None, stop_at)]
        for H, iterations, seed, stop in cases:
            w, c = wmin.low_weight_search(H, iterations, seed, stop_at=stop)
            w_ref, c_ref = ref_low_weight_search(H, iterations, seed, stop_at=stop)
            assert w == w_ref
            assert np.array_equal(c, c_ref)

    # (seed, stop_at, iterations, iterations run, stack sizes) on the
    # wimax1152 H_qc: with stop_at the blocks grow 1, 2, 4, 8, 16, so a stop
    # inside a block leaves fewer eliminations unused than it ran; without
    # it they hold _BLOCK = 16 permutations, and only the last block may be
    # shorter
    @pytest.mark.parametrize("seed,stop_at,iterations,stops_after,sizes", [
        (0, 156, 100, 1, [1]), (3, 162, 100, 2, [1, 2]), (3, 142, 100, 6, [1, 2, 4]),
        (4, 152, 100, 9, [1, 2, 4, 8]), (3, 132, 100, 19, [1, 2, 4, 8, 16]),
        (0, None, 21, 21, [16, 5])])
    def test_block_schedule(self, seed, stop_at, iterations, stops_after, sizes,
                            wimax_bundle, monkeypatch):
        assert wmin._BLOCK == 16
        H = qc.expand(wimax_bundle.proto)
        ref_calls = []
        ref_kernel = oracles.ref_rref_words
        monkeypatch.setattr(oracles, "ref_rref_words",
                            lambda W, n: ref_calls.append(1) or ref_kernel(W, n))
        w_ref, c_ref = ref_low_weight_search(H, iterations, seed, stop_at=stop_at)
        # one elimination for the generator, then one per iteration
        assert len(ref_calls) - 1 == stops_after
        got_sizes = _record_blocks(monkeypatch)
        w, c = wmin.low_weight_search(H, iterations, seed, stop_at=stop_at)
        assert w == w_ref and (stop_at is None or w <= stop_at)
        assert np.array_equal(c, c_ref)
        assert got_sizes == sizes

    def test_trivial_code_raises(self):
        with pytest.raises(ValueError):
            wmin.low_weight_search(BitMatrix(np.eye(5, dtype=np.uint8)), 10, seed=0)

    @pytest.mark.parametrize("stop_at", [0, -1])
    def test_stop_at_below_one_refused(self, stop_at):
        with pytest.raises(ValueError, match="stop_at"):
            wmin.low_weight_search(codes.build_spc(2, 2), 10, seed=0, stop_at=stop_at)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            wmin.low_weight_search(codes.build_spc(2, 2), 0, seed=0)

    def test_witness_violating_h_raises(self, monkeypatch):
        # a generator whose rows are not codewords yields a witness that
        # fails H c = 0; the explicit check (kept under python -O) refuses it
        H = codes.build_spc(2, 2)
        monkeypatch.setattr(wmin, "nullspace_basis",
                            lambda H: np.eye(H.cols, dtype=np.uint8)[:1])
        with pytest.raises(wmin.WitnessError):
            wmin.low_weight_search(H, 3, seed=0)

    def test_table_disagreeing_with_word_raises(self, monkeypatch):
        # a scan that reports a weight other than its word's (a wrapped
        # popcount, a wrong diagonal map) is refused, not followed
        lightest = wmin._lightest

        def off_by_one(rows, free):
            i, j, w = lightest(rows, free)
            return i, j, w - 1

        monkeypatch.setattr(wmin, "_lightest", off_by_one)
        with pytest.raises(wmin.WitnessError, match="table gave weight"):
            wmin.low_weight_search(codes.build_spc(3, 3), 3, seed=0)

    def test_refusals_hold_under_optimize(self):
        # both refusals are real checks, not asserts, so they still refuse
        # under python -O
        script = (
            "import numpy as np\n"
            "from qclattice import codes, wmin\n"
            "basis, lightest = wmin.nullspace_basis, wmin._lightest\n"
            "wmin.nullspace_basis = lambda H: np.eye(H.cols, dtype=np.uint8)[:1]\n"
            "try:\n"
            "    wmin.low_weight_search(codes.build_spc(2, 2), 3, seed=0)\n"
            "except wmin.WitnessError:\n"
            "    print('witness refused')\n"
            "wmin.nullspace_basis = basis\n"
            "wmin._lightest = lambda rows, free: lightest(rows, free)[:2] + (0,)\n"
            "try:\n"
            "    wmin.low_weight_search(codes.build_spc(3, 3), 3, seed=0)\n"
            "except wmin.WitnessError:\n"
            "    print('table refused')\n"
            "print('debug', __debug__)\n")
        env = dict(os.environ)
        src_dir = str(Path(wmin.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["witness refused", "table refused",
                                            "debug False", ""]

    @pytest.mark.parametrize("scan_blocks", [1, 2, 3])
    def test_matches_frozen_search_any_scan_blocks(self, scan_blocks, monkeypatch):
        # with few rows per scan block, the small random codes' ties (a row
        # against a pair, two pairs) cross block borders
        monkeypatch.setattr(wmin, "_SCAN_BLOCKS", scan_blocks)
        for H, iterations, seed, stop in _small_searches(300, seed=22):
            w, c = wmin.low_weight_search(H, iterations, seed, stop_at=stop)
            w_ref, c_ref = ref_low_weight_search(H, iterations, seed, stop_at=stop)
            assert w == w_ref
            assert np.array_equal(c, c_ref)

    @pytest.mark.parametrize("iterations,stop_at,sizes", [
        (40, None, [16, 16, 8]), (3, 5, [1, 2]), (16, None, [16]),
        (100, 1, [1, 2, 4, 8, 16, 16, 16, 16, 16, 5])])
    def test_block_sizes(self, iterations, stop_at, sizes):
        assert list(wmin._block_sizes(iterations, stop_at)) == sizes

    def test_traced_peak_on_wimax_hqc(self, wimax_bundle):
        # a 40-iteration search (blocks of 16, 16, 8) traced 10.3 MiB with a
        # transposing pack and the full (r, r) table
        H = qc.expand(wimax_bundle.proto)
        tracemalloc.start()
        try:
            wmin.low_weight_search(H, 40, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.5 * 2 ** 20


class TestSearchSteps:
    """The search's pack and pair scan against the code they replace."""

    @given(st.integers(1, 200), st.integers(1, 40), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_pack_permuted_is_pack_of_transpose(self, n, k, seed):
        # n % 8 != 0 and n % 64 != 0 leave padding bits, which stay zero
        rng = np.random.default_rng(seed)
        G0T = rng.integers(0, 2, (n, k)).astype(np.uint8)
        perm = rng.permutation(n)
        out = np.zeros((k, (n + 63) // 64), dtype=np.uint64)
        wmin._pack_permuted(G0T, perm, out)
        assert np.array_equal(out, pack(G0T[perm].T))
        # the search packs only the non-unit columns: any subset, any order
        sub = perm[: n // 2]
        out = np.zeros((k, (len(sub) + 63) // 64), dtype=np.uint64)
        wmin._pack_permuted(G0T, sub, out)
        assert np.array_equal(out, pack(G0T[sub].T))

    @given(st.integers(1, 12), st.integers(0, 40),
           st.sampled_from(["dense", "sparse", "repeated"]), st.integers(1, 5),
           st.integers(0, 2 ** 31))
    @example(k=6, r=0, kind="dense", B=3, seed=1)     # all-zero H: no non-unit column
    @example(k=6, r=1, kind="dense", B=3, seed=2)     # a single non-unit column
    @settings(max_examples=80, deadline=None)
    def test_limited_elimination_is_rref(self, k, r, kind, B, seed):
        # a systematic generator, the identity on k random columns and its
        # other r columns dense, sparse or drawn from a few repeated ones
        # (zero, unit or dense), eliminated in stacks of up to B
        # permutations: every permutation's rows in pivot order and its
        # pivots are those of the RREF of the permuted generator
        rng = np.random.default_rng(seed)
        n = k + r
        if kind == "repeated":
            pool = np.concatenate([np.zeros((k, 1)), np.eye(k)[:, :2],
                                   rng.integers(0, 2, (k, 2))], axis=1)
            F = pool[:, rng.integers(0, pool.shape[1], r)]
        else:
            F = rng.random((k, r)) < (0.5 if kind == "dense" else 0.1)
        unit = rng.choice(n, k, replace=False)
        G0 = np.zeros((k, n), dtype=np.uint8)
        G0[np.arange(k), unit] = 1
        G0[:, np.setdiff1d(np.arange(n), unit)] = F
        perms = rng.permuted(np.tile(np.arange(n), (2 * B, 1)), axis=1)
        blocks = [perms[:B], perms[B:]]
        found = list(wmin._eliminated(np.ascontiguousarray(G0.T), blocks))
        assert len(found) == 2 * B
        for perm, (cols, rows, free) in zip(perms, found):
            R, pivots = rref(G0[:, perm])
            at = np.argsort(perm)[cols]     # permuted position of each layout column
            got = np.zeros((k, n), dtype=np.uint8)
            got[:, at] = unpack(rows, n)
            assert np.array_equal(got, R)
            assert np.setdiff1d(np.arange(n), at[free]).tolist() == pivots

    @given(st.integers(1, 12), st.integers(0, 30), st.sampled_from([0.05, 0.2, 0.5]),
           st.integers(0, 2 ** 31))
    @settings(max_examples=80, deadline=None)
    def test_lightest_is_first_argmin_of_full_table(self, r, m, density, seed):
        # RREF-like rows: an identity on r random pivot columns, sparse or
        # dense bits on the m others, with planted ties: rows whose free
        # parts repeat (pairs of weight 2) and rows of free weight 0 or 1
        # (weight 1 or 2, tying with those pairs)
        rng = np.random.default_rng(seed)
        n = r + m
        pivots = np.sort(rng.choice(n, r, replace=False))
        free = np.setdiff1d(np.arange(n), pivots)
        F = (rng.random((r, m)) < density).astype(np.uint8)
        for _ in range(int(rng.integers(0, r))):
            F[rng.integers(r)] = F[rng.integers(r)]
        if m and rng.random() < 0.5:
            F[rng.integers(r)] = np.eye(m, dtype=np.uint8)[rng.integers(m)]
        R = np.zeros((r, n), dtype=np.uint8)
        R[np.arange(r), pivots] = 1
        R[:, free] = F
        expected = ref_lightest(R, pivots)
        with pytest.MonkeyPatch.context() as mp:
            for blocks in range(1, r + 1):
                mp.setattr(wmin, "_SCAN_BLOCKS", blocks)
                assert wmin._lightest(pack(R), free) == expected
