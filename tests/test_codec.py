import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (lattice_points_in_box, nearest_lattice_point,
                     ref_bp_decode_batch, ref_exclusive_products, ref_llr_coefficients,
                     ref_wrapped_llr, tree_bitwise_map, wide_llr)
from qclattice import codec, codes, lattice, presets, qc, sim
from qclattice.gf2 import BitMatrix


@pytest.fixture(scope="module")
def toy_setup():
    P = qc.ProtoMatrix.from_shifts([[0, 0]], 2)
    pair = codes.make_pair_row_sums(P, [(0,)])
    plans = (codec.EncoderPlan(pair.h0), codec.EncoderPlan(pair.h1))
    return pair, plans


class TestPlanLevel:
    def test_identity_no_free_columns(self):
        plan = codec.EncoderPlan(BitMatrix(np.eye(6, dtype=np.uint8)))
        assert plan.num_info == 0

    def test_example1_free_counts(self, example1_bundle):
        assert example1_bundle.plan0.num_info == 68
        assert example1_bundle.plan1.num_info == 132


def _syndrome(rows, c0):
    """``stage_syndrome`` of one word as a batch of one, as lists."""
    s, odd = codec.stage_syndrome(np.array(rows), np.array([c0], np.uint8))
    return s[0].tolist(), odd[0].tolist()


class TestStageSyndrome:
    def test_zero_codeword(self):
        assert _syndrome([[1, 1, 0], [0, 1, 1]], [0, 0, 0]) == ([0, 0], [False, False])

    def test_dot_two_gives_one(self):
        assert _syndrome([[1, 1, 0]], [1, 1, 0]) == ([1], [False])

    def test_dot_four_gives_zero(self):
        assert _syndrome([[1, 1, 1, 1]], [1, 1, 1, 1]) == ([0], [False])

    def test_odd_dot_flagged(self):
        assert _syndrome([[1, 0, 0], [1, 1, 1]], [1, 1, 0]) == ([0, 1], [True, False])

    def test_example1_syndromes_solvable(self, example1_bundle):
        # the level-1 syndrome of any g0 codeword is always achievable; the
        # subsequent solve must never raise
        pair = example1_bundle.pair
        from qclattice.gf2 import nullspace_basis
        basis = np.array(nullspace_basis(pair.h0))
        rng = np.random.default_rng(6)
        plan1 = example1_bundle.plan1
        c0 = np.array([(rng.integers(0, 2, basis.shape[0]).astype(np.uint8) @ basis) % 2
                       for _ in range(100)], np.uint8)
        s1, odd = codec.stage_syndrome(pair.h1.a, c0)
        assert not odd.any()
        assert (s1.sum(axis=1) % 2 == 0).all()  # total parity even by even codeword weight
        c1 = plan1.encode_batch(s1, np.zeros((100, plan1.num_info), np.uint8))
        assert np.array_equal(c1 @ pair.h1.a.T.astype(np.int64) % 2, s1)


class TestEncode:
    def test_all_zero_info(self, example1_bundle):
        c0, c1, x = codec.encode_lattice(example1_bundle.plans,
                                         np.zeros((1, 68), np.uint8),
                                         np.zeros((1, 132), np.uint8),
                                         np.zeros((1, 171), int))
        assert x[0, 0] == 3
        assert not x[0, 1:].any() and not c0.any() and not c1.any()

    def test_random_encodes_are_members(self, example1_bundle):
        pair = example1_bundle.pair
        rng = np.random.default_rng(12)
        draws = [(rng.integers(0, 2, 68), rng.integers(0, 2, 132),
                  rng.integers(-2, 3, 170), int(rng.integers(-2, 3)))
                 for _ in range(25)]
        i0, i1, zv, z0 = (np.array(d) for d in zip(*draws))
        z = np.column_stack([z0, zv])
        c0, c1, x = codec.encode_lattice(example1_bundle.plans, i0, i1, z)
        s1 = ((c0 @ pair.h1.a.T.astype(np.int64)) % 4 // 2).astype(np.uint8)
        for b in range(25):
            assert x[b, 0] == 3 + 4 * z0[b]
            assert np.array_equal(x[b, 1:], c0[b] + 2 * c1[b].astype(np.int64) + 4 * zv[b])
            assert lattice.is_member(pair, x[b, 1:])
            assert np.array_equal(pair.h0.mul_vec(c0[b]), np.zeros(107, np.uint8))
            assert np.array_equal(pair.h1.mul_vec(c1[b]), s1[b])

    def test_inputs_unchanged(self, example1_bundle):
        # the point is assembled in place in its own array
        rng = np.random.default_rng(13)
        i0 = rng.integers(0, 2, (6, 68)).astype(np.uint8)
        i1 = rng.integers(0, 2, (6, 132)).astype(np.uint8)
        z = rng.integers(-2, 3, (6, 171))
        before = [a.copy() for a in (i0, i1, z)]
        codec.encode_lattice(example1_bundle.plans, i0, i1, z)
        for a, b in zip((i0, i1, z), before):
            assert np.array_equal(a, b)

    def test_toy_exhaustive_distinct_members(self, toy_setup):
        pair, plans = toy_setup
        k0, k1 = plans[0].num_info, plans[1].num_info
        assert (k0, k1) == (1, 1)
        i0, i1, zv = (np.array(d) for d in zip(*itertools.product(
            range(2), range(2), itertools.product(range(2), repeat=4))))
        z = np.column_stack([np.zeros(len(zv), int), zv])
        _, _, x = codec.encode_lattice(plans, i0[:, None], i1[:, None], z)
        assert all(lattice.is_member(pair, p[1:]) for p in x)
        assert len({tuple(p) for p in x.tolist()}) == 2 * 2 * 16  # injective encoding

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("name", ["example1", "wimax1152"])
    def test_none_syndrome_is_zero(self, name, level):
        # None stands for the all-zero syndrome, as in bp_decode_batch
        plan = presets.get_bundle(name).plans[level]
        infos = np.random.default_rng(14).integers(0, 2, (7, plan.num_info), dtype=np.uint8)
        zeros = np.zeros((7, plan.matrix.rows), np.uint8)
        assert np.array_equal(plan.encode_batch(None, infos),
                              plan.encode_batch(zeros, infos))

    def test_non_nested_pair_refused(self, toy_setup):
        # H1 plus a weight-1 row that H0's row space does not contain:
        # the level-0 codeword 1111 has an odd dot with it
        pair = toy_setup[0]
        h1 = BitMatrix(np.vstack([pair.h1.a, [[1, 0, 0, 0]]]))
        plans = (codec.EncoderPlan(pair.h0), codec.EncoderPlan(h1))
        assert not plans[0].in_row_space(h1.a).all()
        with pytest.raises(codec.OddDotError, match="row 4 .* point 1"):
            codec.encode_lattice(plans, np.array([[0], [1]]), np.zeros((2, 1), int),
                                 np.zeros((2, 5), int))

    def test_unachievable_syndrome_refused_under_optimize(self):
        # the achievability check is a real test, not an assert, so it
        # still refuses under python -O
        script = (
            "import numpy as np\n"
            "from qclattice import codec\n"
            "from qclattice.gf2 import BitMatrix, InconsistentSyndromeError\n"
            "plan = codec.EncoderPlan(BitMatrix(np.array([[1, 1], [1, 1]])))\n"
            "try:\n"
            "    plan.encode_batch(np.array([[1, 0]], np.uint8), np.zeros((1, 1), np.uint8))\n"
            "except InconsistentSyndromeError:\n"
            "    print('debug', __debug__, 'refused')\n")
        env = dict(os.environ)
        src_dir = str(Path(codec.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "debug False refused"


class TestWrappedLlr:
    def test_halfway_is_zero(self):
        for sigma in (0.2, 0.5, 1.0):
            assert codec.wrapped_llr(np.array([0.5]), sigma)[0] == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value_at_zero(self):
        got = codec.wrapped_llr(np.array([0.0]), 0.5)[0]
        assert got == pytest.approx(1.307523407190987, rel=1e-9)

    def test_antisymmetry_frozen(self):
        got = codec.wrapped_llr(np.array([1.0]), 0.5)[0]
        assert got == pytest.approx(-1.307523407190987, rel=1e-9)

    @given(st.floats(-4, 4), st.floats(0.05, 2.5))
    @settings(max_examples=120)
    def test_antisymmetry(self, y, sigma):
        a = codec.wrapped_llr(np.array([y]), sigma)[0]
        b = codec.wrapped_llr(np.array([y + 1.0]), sigma)[0]
        assert a == pytest.approx(-b, rel=1e-9, abs=1e-9)

    @given(st.floats(-3, 5), st.floats(0.1, 2.0))
    @settings(max_examples=80)
    def test_truncation_window_accuracy(self, y, sigma):
        narrow = codec.wrapped_llr(np.array([y]), sigma)[0]
        w = max(3, math.ceil(6 * sigma))
        wide = ref_wrapped_llr(np.array([y]), sigma, window=10 * w)[0]
        assert narrow == pytest.approx(wide, rel=1e-9, abs=1e-12)

    def test_matches_direct_sum(self):
        for y, sigma in [(0.0, 0.5), (0.3, 0.2), (1.7, 1.0), (-2.2, 0.8)]:
            got = codec.wrapped_llr(np.array([y]), sigma)[0]
            assert got == pytest.approx(wide_llr(y, sigma), rel=1e-9, abs=1e-9)

    def test_period_two(self):
        y = np.array([0.37])
        a = codec.wrapped_llr(y, 0.6)[0]
        b = codec.wrapped_llr(y + 2.0, 0.6)[0]
        assert a == pytest.approx(b, rel=1e-9)


# both presets' stage-0 and stage-1 sigma lie in this list
ORACLE_SIGMAS = [0.05, 0.147, 0.294, 0.335, 0.5, 1.0, 2.5]


class TestClosedFormLlr:
    """The closed-form kernel against the frozen logaddexp chain."""

    @staticmethod
    def _points(seed):
        # random points on a 2^-20 grid, where the chain's own y - 1 is
        # exact (elsewhere it rounds where y - 1 changes binade, e.g. on
        # (-512, -511), by up to 2a ulp(512)), as a (B, n) batch, plus
        # exact integers and half-integers
        rng = np.random.default_rng(seed)
        wide = np.rint(rng.uniform(-1e3, 1e3, (6, 50)) * 2.0 ** 20) / 2.0 ** 20
        near = np.rint(rng.uniform(-3.0, 3.0, (6, 50)) * 2.0 ** 20) / 2.0 ** 20
        grid = np.arange(-1000.0, 1000.5, 0.5)
        return np.concatenate([wide, near]), grid

    @pytest.mark.parametrize("sigma", ORACLE_SIGMAS)
    @pytest.mark.parametrize("ref_window", [None, 40])
    def test_matches_logaddexp_chain(self, sigma, ref_window):
        # the chain over the earlier window max(3, ceil(6 sigma)), and over a
        # much wider one
        batch, grid = self._points(ORACLE_SIGMAS.index(sigma))
        for y in (batch, grid):
            got = codec.wrapped_llr(y, sigma)
            want = ref_wrapped_llr(y, sigma, window=ref_window)
            assert got.shape == y.shape
            assert np.abs(got - want).max() <= 1e-12, (sigma, ref_window)

    def test_coefficient_cut_is_the_window_rule(self):
        # the e^-45 cut alone keeps exactly the coefficients that the
        # earlier rule kept inside its window max(3, ceil(6 sigma)), over
        # SIGMA_RANGE (both ends included) and densely where sweeps run
        lo, hi = codec.SIGMA_RANGE
        sigmas = np.concatenate([np.geomspace(lo, hi, 2001), np.linspace(0.01, 4.0, 4000),
                                 ORACLE_SIGMAS])
        assert sigmas[0] == lo and sigmas[2000] == hi
        for sigma in sigmas.tolist():
            assert codec._llr_coefficients(sigma) == ref_llr_coefficients(sigma), sigma

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf"),
                                       0.0, -0.5])
    @pytest.mark.parametrize("func", ["wrapped_llr"])
    def test_bad_sigma_refused(self, func, sigma):
        with pytest.raises(ValueError, match="sigma"):
            getattr(codec, func)(np.array([0.3, 1.2]), sigma)


class TestLlrBlocks:
    """``wrapped_llr`` evaluates in blocks of ``_LLR_BLOCK`` values; the
    result cannot depend on them."""

    @staticmethod
    def _rows_alone(y, sigma):
        return np.stack([codec.wrapped_llr(row, sigma) for row in y])

    @pytest.mark.parametrize("sigma", [0.147, 0.6, 2.5])
    def test_batch_is_its_rows(self, sigma):
        # 31 rows of 1152: blocks of 14 rows, the last one ragged; then the
        # strided view Y[:, 1:] that the decoder passes
        rng = np.random.default_rng(40)
        n = 1152
        assert codec._LLR_BLOCK % n and 31 % (codec._LLR_BLOCK // n)
        Y = rng.normal(scale=3.0, size=(31, n + 1))
        for y in (np.ascontiguousarray(Y[:, 1:]), Y[:, 1:]):
            got = codec.wrapped_llr(y, sigma)
            assert got.shape == y.shape
            assert np.array_equal(got, self._rows_alone(y, sigma))

    def test_rows_wider_than_a_block(self):
        rng = np.random.default_rng(41)
        n = codec._LLR_BLOCK + 1000
        y = rng.normal(scale=3.0, size=(3, n))
        got = codec.wrapped_llr(y, 0.3)
        assert np.array_equal(got, self._rows_alone(y, 0.3))
        for i, j in itertools.product(range(3), (0, codec._LLR_BLOCK - 1,
                                                 codec._LLR_BLOCK, n - 1)):
            assert got[i, j] == codec.wrapped_llr(y[i, j], 0.3)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks(self, monkeypatch, block):
        # every way a row can be cut: rows per block, a row per block, a
        # row in several blocks with a ragged last one
        rng = np.random.default_rng(block)
        y = rng.normal(scale=3.0, size=(9, 20))
        want = codec.wrapped_llr(y, 0.4)
        monkeypatch.setattr(codec, "_LLR_BLOCK", block)
        assert np.array_equal(codec.wrapped_llr(y, 0.4), want)
        assert np.array_equal(codec.wrapped_llr(y[:, 3:], 0.4), want[:, 3:])

    def test_shapes_kept(self):
        y = np.array([0.3, -1.7, 2.2])
        one = codec.wrapped_llr(y, 0.5)
        assert one.shape == (3,)
        point = codec.wrapped_llr(np.float64(-1.7), 0.5)
        assert point.shape == () and point == one[1]
        assert codec.wrapped_llr(1.0, 0.5).shape == ()
        cube = np.stack([y, -y])[None]
        got = codec.wrapped_llr(cube, 0.5)
        assert got.shape == (1, 2, 3)
        assert np.array_equal(got[0, 0], one)
        assert codec.wrapped_llr(np.empty((0, 5)), 0.5).shape == (0, 5)

    @pytest.mark.parametrize("sigma", [0.0, float("nan")])
    def test_empty_input_still_checked(self, sigma):
        for y in (np.empty(0), np.empty((4, 0))):
            with pytest.raises(ValueError, match="sigma"):
                codec.wrapped_llr(y, sigma)

    def test_scratch_is_bounded(self):
        # one call over the decoder's (256, 1152) view allocates its output
        # and block-sized scratch, nothing of the input's size besides
        Y = np.random.default_rng(42).normal(size=(256, 1153))
        tracemalloc.start()
        try:
            out = codec.wrapped_llr(Y[:, 1:], 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (1 << 20), peak


def _decode_one(H, syndrome, llr, max_iter=100):
    """One frame through ``bp_decode_batch``: (hard, iterations, converged)."""
    hard, iters, conv = codec.bp_decode_batch(
        codec.TannerGraph(H), np.reshape(llr, (1, -1)),
        np.reshape(syndrome, (1, -1)), max_iter)
    return hard[0], int(iters[0]), bool(conv[0])


class TestSpaDecode:
    def test_noiseless_converges_immediately(self):
        H = codes.build_spc(3, 3)
        hard, iters, conv = _decode_one(H, np.zeros(6, np.uint8), np.full(9, 8.0))
        assert conv and iters <= 1
        assert not hard.any()

    def test_single_flip_corrected(self):
        # strong LLRs for the zero codeword except one flipped coordinate;
        # the nearest codeword is still zero, and the decoder recovers it
        H = codes.build_spc(3, 3)
        llr = np.full(9, 6.0)
        llr[3] = -6.0
        hard, iters, conv = _decode_one(H, np.zeros(6, np.uint8), llr)
        assert conv
        assert not hard.any()

    def test_no_information_never_converges(self):
        # all-zero channel LLRs and a nonzero syndrome: nothing to work with
        H = codes.build_spc(2, 2)
        syn = np.array([1, 1, 0, 0], np.uint8)
        hard, iters, conv = _decode_one(H, syn, np.zeros(4), max_iter=100)
        assert not conv
        assert iters == 100

    def test_syndrome_decoding(self):
        # a random achievable syndrome with strong correct priors
        H = codes.build_spc(3, 3)
        rng = np.random.default_rng(7)
        c = rng.integers(0, 2, 9).astype(np.uint8)
        syn = H.mul_vec(c)
        llr = np.where(c == 0, 9.0, -9.0).astype(float)
        hard, iters, conv = _decode_one(H, syn, llr)
        assert conv
        assert np.array_equal(hard, c)

    def test_tree_code_matches_exact_marginals(self):
        # cycle-free code: after convergence the hard decision equals the
        # exact bitwise MAP (enumeration over [syndrome | H] with the dummy
        # pinned to 1 by a saturated LLR)
        H = BitMatrix(np.array([[1, 1, 0], [0, 1, 1]]))
        rng = np.random.default_rng(15)
        for syn in ([0, 0], [1, 0], [0, 1], [1, 1]):
            ext = np.hstack([np.array(syn, np.uint8)[:, None], H.a])
            for _ in range(10):
                llr = np.concatenate([[-codec.LLR_SAT], rng.normal(0, 2, 3)])
                hard, iters, conv = _decode_one(H, syn, llr[1:], max_iter=50)
                exact = tree_bitwise_map(ext, np.zeros(2), llr)
                assert exact[0] == 1
                if conv:
                    assert np.array_equal(hard, exact[1:])

    def test_batch_matches_single(self, example1_bundle):
        H = example1_bundle.pair.h1
        graph = codec.TannerGraph(H)
        rng = np.random.default_rng(3)
        llrs = rng.normal(0, 2, (6, 170))
        syns = rng.integers(0, 2, (6, H.rows)).astype(np.uint8)
        hb, ib, cb = codec.bp_decode_batch(graph, llrs, syns, max_iter=30)
        for i in range(6):
            h1, i1, c1 = _decode_one(H, syns[i], llrs[i], max_iter=30)
            assert np.array_equal(h1, hb[i])
            assert (i1, c1) == (int(ib[i]), bool(cb[i]))


def _kernel_frames(H, rng, batch, syndromes):
    """LLRs and syndromes for a batch that mixes frames converging at
    iteration 0, frames converging later and frames that never converge."""
    n = H.cols
    words = rng.integers(0, 2, (batch, n)).astype(np.uint8)
    if syndromes == "coset":
        syn = (words.astype(np.int64) @ H.a.T.astype(np.int64) % 2).astype(np.uint8)
        # every fourth frame gets a random (often unachievable) syndrome
        syn[3::4] = rng.integers(0, 2, (len(syn[3::4]), H.rows))
    else:
        words[:] = 0
        syn = None
    # frame kinds by index mod 4: clean, a few wrong bits, noisy, pure noise
    amp = np.array([6.0, 6.0, 2.0, 0.0])[np.arange(batch) % 4, None]
    llrs = (1.0 - 2.0 * words) * amp + rng.normal(0.0, 1.0, (batch, n))
    for i in range(1, batch, 4):
        flip = rng.choice(n, size=1 + i % 3, replace=False)
        llrs[i, flip] *= -0.3
    return llrs, syn


def _kernel_matrix(label):
    if label == "edge-degrees":
        # checks of degree 1, 2 and 31 (the ends of the prefix and suffix
        # products) among checks of degree 4 to 9
        a = np.zeros((8, 40), np.uint8)
        a[0, 5] = 1
        a[1, [6, 7]] = 1
        a[2, :31] = 1
        for i, cols in enumerate([range(0, 8), range(8, 16), range(16, 24),
                                  range(24, 32), range(32, 40)]):
            a[3 + i, list(cols)[i:]] = 1
        a[3:, 39] = 1
        return BitMatrix(a)
    if label == "idle-row":
        # SPC(3,3) plus an all-zero check and an unchecked variable
        a = np.zeros((7, 10), np.uint8)
        a[:6, :9] = codes.build_spc(3, 3).a
        return BitMatrix(a)
    name, level = label.rsplit("-", 1)
    return getattr(presets.get_bundle(name).pair, level)


# (matrix, syndromes): check degrees up to 34 (example1) and 48 (wimax1152);
# the idle-row matrix has an all-zero check and an all-zero column, and the
# edge-degrees matrix has checks of degree 1, 2 and 31
KERNEL_CASES = [("example1-h0", None), ("example1-h1", "coset"),
                ("wimax1152-h0", None), ("wimax1152-h1", "coset"),
                ("idle-row", "coset"), ("edge-degrees", "coset")]


def _same(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
               for g, w in zip(got, want))


def _tiling(graph, batch):
    """(tiles, tile size, last tile size) of a batch, by the codec's rule."""
    size = codec._tile_size(graph, batch)
    tiles = math.ceil(batch / size)
    return tiles, size, batch - (tiles - 1) * size


def _multi_tile_batch(graph):
    """A batch of about 2.5 tiles whose last tile is shorter than the rest."""
    batch = 5 * codec._TILE_BYTES // (2 * codec._Work.frame_bytes(graph))
    tiles, size, last = _tiling(graph, batch)
    while last == size:
        batch += 1
        tiles, size, last = _tiling(graph, batch)
    assert tiles >= 3 and 0 < last < size, (batch, tiles, size, last)
    return batch


def _record_work(monkeypatch):
    """The list that every :class:`codec._Work` made from now on joins."""
    made = []

    class Recorded(codec._Work):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(codec, "_Work", Recorded)
    return made


def _work_bytes(work):
    """Bytes of every buffer a work set holds, pairs counted twice."""
    return sum(b.nbytes for v in vars(work).values()
               for b in (v if isinstance(v, list) else [v]))


class TestBpKernelEquivalence:
    """The kernel is bit-identical to the frozen original (tests/oracles.py)."""

    @pytest.mark.parametrize("label,syn_kind", KERNEL_CASES,
                             ids=[c[0] for c in KERNEL_CASES])
    @pytest.mark.parametrize("max_iter", [0, 1, 100])
    def test_matches_reference(self, label, syn_kind, max_iter):
        H = _kernel_matrix(label)
        rng = np.random.default_rng([KERNEL_CASES.index((label, syn_kind)), max_iter])
        graph = codec.TannerGraph(H)
        llrs, syn = _kernel_frames(H, rng, 24, syn_kind)
        want = ref_bp_decode_batch(H, llrs, syn, max_iter)
        assert _same(codec.bp_decode_batch(graph, llrs, syn, max_iter), want), label
        # a batch of one, frame by frame
        for i in (0, 1, 3):
            one = codec.bp_decode_batch(graph, llrs[i:i + 1],
                                        None if syn is None else syn[i:i + 1], max_iter)
            assert _same(one, tuple(w[i:i + 1] for w in want)), (label, i)
        # the same frames in another order
        perm = rng.permutation(len(llrs))
        shuffled = codec.bp_decode_batch(graph, llrs[perm],
                                         None if syn is None else syn[perm], max_iter)
        assert _same(shuffled, tuple(w[perm] for w in want)), label

    @pytest.mark.parametrize("label,syn_kind",
                             [("wimax1152-h0", None), ("wimax1152-h1", "coset")])
    @pytest.mark.parametrize("max_iter", [0, 1, 100])
    def test_tiles_match_small_batches(self, label, syn_kind, max_iter):
        # a batch of several tiles decodes exactly as the same frames in
        # 24-frame calls (one tile each) and in shuffled order
        H = _kernel_matrix(label)
        graph = codec.TannerGraph(H)
        batch = _multi_tile_batch(graph)
        assert _tiling(graph, 24)[0] == 1
        rng = np.random.default_rng([len(KERNEL_CASES), max_iter])
        llrs, syn = _kernel_frames(H, rng, batch, syn_kind)
        got = codec.bp_decode_batch(graph, llrs, syn, max_iter)
        chunks = [codec.bp_decode_batch(graph, llrs[i:i + 24],
                                        None if syn is None else syn[i:i + 24], max_iter)
                  for i in range(0, batch, 24)]
        want = tuple(np.concatenate(parts) for parts in zip(*chunks))
        assert _same(got, want), label
        if max_iter == 100:   # the last tile mixes converged and failed frames
            tiles, size, _ = _tiling(graph, batch)
            last = want[2][(tiles - 1) * size:]
            assert last.any() and not last.all()
        perm = rng.permutation(batch)
        shuffled = codec.bp_decode_batch(graph, llrs[perm],
                                         None if syn is None else syn[perm], max_iter)
        assert _same(shuffled, tuple(w[perm] for w in want)), label

    @pytest.mark.parametrize("label", ["example1-h0", "wimax1152-h0"])
    def test_tiles_compact_repeatedly(self, label, monkeypatch):
        # tiles of 40 frames whose noise grows frame by frame: every tile
        # has frames converging at iteration 0, compacts at 3 or more
        # distinct iterations and keeps frames that never converge, so
        # later tiles start on work buffers holding the previous tile's
        # messages and compaction turns the buffer pairs more than once
        H = _kernel_matrix(label)
        graph = codec.TannerGraph(H)
        monkeypatch.setattr(codec, "_TILE_BYTES", 40 * codec._Work.frame_bytes(graph))
        rng = np.random.default_rng(8)
        words = rng.integers(0, 2, (120, H.cols)).astype(np.uint8)
        syn = (words.astype(np.int64) @ H.a.T.astype(np.int64) % 2).astype(np.uint8)
        scale = np.tile(np.linspace(0.2, 1.2, 40), 3)[:, None]
        llrs = (1.0 - 2.0 * words) * 2.0 * (1.0 + scale * rng.normal(size=words.shape))
        want = ref_bp_decode_batch(H, llrs, syn, 100)
        assert _tiling(graph, 120) == (3, 40, 40)
        for lo in range(0, 120, 40):
            iters, conv = want[1][lo:lo + 40], want[2][lo:lo + 40]
            assert not conv.all() and (iters[conv] == 0).any()
            assert np.unique(iters[conv]).size >= 3
        assert _same(codec.bp_decode_batch(graph, llrs, syn, 100), want), label

    @pytest.mark.parametrize("syn_kind", [None, "coset"])
    @pytest.mark.parametrize("max_iter", [0, 1, 7])
    def test_frames_leave_a_tile_once(self, syn_kind, max_iter):
        # one tile of frames that converge at iterations 0, 1, 3 and 7 and
        # frames that never do, so at max_iter 0, 1 and 7 some converge
        # before the cap, some exactly at it and some never.  The tile
        # decodes into outputs that hold values no frame can have, so a
        # frame whose results are not written, or written wrong, fails
        H = _kernel_matrix("example1-h0")
        graph = codec.TannerGraph(H)
        rng = np.random.default_rng(11)
        words = np.zeros((400, H.cols), np.uint8)
        syn = None
        if syn_kind == "coset":
            words = rng.integers(0, 2, words.shape).astype(np.uint8)
            syn = (words.astype(np.int64) @ H.a.T.astype(np.int64) % 2).astype(np.uint8)
        amp = np.linspace(0.8, 2.5, len(words))[:, None]
        pool = (1.0 - 2.0 * words) * amp + rng.normal(0.0, 1.0, words.shape)
        _, iters, conv = ref_bp_decode_batch(H, pool, syn, 20)
        kinds = [np.flatnonzero(conv & (iters == t))[:2] for t in (0, 1, 3, 7)]
        kinds.append(np.flatnonzero(~conv)[:3])
        assert all(k.size for k in kinds)
        pick = rng.permutation(np.concatenate(kinds))
        llrs, syn = pool[pick], None if syn is None else syn[pick]
        want = ref_bp_decode_batch(H, llrs, syn, max_iter)
        at_cap = want[1] == max_iter
        assert (want[2] & at_cap).any() and (~want[2]).any()
        assert max_iter == 0 or (want[2] & ~at_cap).any()

        B = len(pick)
        assert _tiling(graph, B) == (1, B, B)
        hard = np.full((B, H.cols), 2, np.uint8)
        got_iters = np.full(B, -1, np.int64)
        conv_bytes = np.full(B, 2, np.uint8)
        codec._bp_tile(graph, llrs, np.zeros((B, H.rows), np.uint8) if syn is None else syn,
                       max_iter, codec._Work(graph, B), hard, got_iters,
                       conv_bytes.view(np.bool_))
        assert np.array_equal(conv_bytes, want[2].view(np.uint8))
        assert _same((hard, got_iters), want[:2])
        assert _same(codec.bp_decode_batch(graph, llrs, syn, max_iter), want)

    @pytest.mark.parametrize("label", ["example1-h0", "example1-h1",
                                       "wimax1152-h0", "wimax1152-h1"])
    def test_work_set_within_budget(self, label, monkeypatch):
        # one call allocates one work set within _TILE_BYTES at any batch
        # size, and a sweep's batch is not cut into tiles under 40 frames
        graph = codec.TannerGraph(_kernel_matrix(label))
        made = _record_work(monkeypatch)
        llr = np.full(graph.n_vars, 8.0)
        for batch in (1, 24, 256, 512, 4096):
            made.clear()
            llrs = np.broadcast_to(llr, (batch, graph.n_vars))
            assert codec.bp_decode_batch(graph, llrs, None, 0)[2].all()
            size = codec._tile_size(graph, batch)
            assert len(made) == 1 and size >= min(batch, 40), (label, batch)
            assert _work_bytes(made[0]) <= codec._TILE_BYTES, (label, batch)
            assert _work_bytes(made[0]) == size * codec._Work.frame_bytes(graph)

    def test_frame_over_budget_is_one_tile(self, monkeypatch):
        # a frame whose work set alone exceeds the budget still decodes,
        # one frame per tile, as in one tile
        H = _kernel_matrix("example1-h1")
        graph = codec.TannerGraph(H)
        llrs, syn = _kernel_frames(H, np.random.default_rng(4), 24, "coset")
        want = codec.bp_decode_batch(graph, llrs, syn, 100)
        made = _record_work(monkeypatch)
        monkeypatch.setattr(codec, "_TILE_BYTES", codec._Work.frame_bytes(graph) - 1)
        assert _same(codec.bp_decode_batch(graph, llrs, syn, 100), want)
        assert len(made) == 1 and _work_bytes(made[0]) == codec._Work.frame_bytes(graph)

    def test_cases_cover_convergence_mix(self):
        # the generated batches really mix early, late and no convergence
        rng = np.random.default_rng(0)
        H = _kernel_matrix("example1-h1")
        llrs, syn = _kernel_frames(H, rng, 24, "coset")
        _, iters, conv = ref_bp_decode_batch(H, llrs, syn, 100)
        assert conv.any() and not conv.all()
        assert (iters[conv] == 0).any() and (iters[conv] > 0).any()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 34, 48])
    def test_exclusive_products_match_frozen_loop(self, d):
        # bit for bit, exact and signed zeros included; 34 and 48 are the
        # staircase check degrees of example1 and wimax1152
        rng = np.random.default_rng(d)
        t = np.tanh(rng.uniform(-15.0, 15.0, (d, 4, 6)))
        t[rng.random(t.shape) < 0.1] = 0.0
        t[rng.random(t.shape) < 0.1] = -0.0
        sgn = 1.0 - 2.0 * rng.integers(0, 2, (4, 6))
        t_ref, out, out_ref = t.copy(), np.full_like(t, np.nan), np.full_like(t, np.nan)
        codec._exclusive_products(t, sgn, out)
        ref_exclusive_products(t_ref, sgn, out_ref)
        assert np.array_equal(out.view(np.uint64), out_ref.view(np.uint64))
        assert np.array_equal(t.view(np.uint64), t_ref.view(np.uint64))

    def test_messages_stay_finite(self):
        # a degree-1 check has an empty exclusive product (|excl| = 1); it is
        # capped below 1, so atanh never gives inf and post - c2v never nan
        H = _kernel_matrix("edge-degrees")
        llrs, syn = _kernel_frames(H, np.random.default_rng(5), 24, "coset")
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            codec.bp_decode_batch(codec.TannerGraph(H), llrs, syn, 100)

    @pytest.mark.parametrize("label", ["example1-h1", "edge-degrees"])
    def test_saturated_messages_stay_finite(self, label):
        # channel LLRs at the +/-64 saturation against random syndromes:
        # the frames never converge and every message sits at the clip,
        # where tanh(15) < 1 keeps each exclusive product below 1
        H = _kernel_matrix(label)
        rng = np.random.default_rng(3)
        llrs = 64.0 * (1.0 - 2.0 * rng.integers(0, 2, (16, H.cols)))
        syn = rng.integers(0, 2, (16, H.rows)).astype(np.uint8)
        want = ref_bp_decode_batch(H, llrs, syn, 20)
        assert not want[2].any()
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            got = codec.bp_decode_batch(codec.TannerGraph(H), llrs, syn, 20)
        assert _same(got, want), label

    def test_idle_check_with_syndrome_never_converges(self):
        H = _kernel_matrix("idle-row")
        syn = np.zeros((2, H.rows), np.uint8)
        syn[1, -1] = 1
        llrs = np.full((2, 10), 8.0)
        hard, iters, conv = codec.bp_decode_batch(codec.TannerGraph(H), llrs, syn, 7)
        assert conv.tolist() == [True, False]
        assert iters.tolist() == [0, 7]
        assert not hard.any()

    def test_idle_check_frame_in_a_later_tile(self):
        H = _kernel_matrix("idle-row")
        graph = codec.TannerGraph(H)
        batch = _multi_tile_batch(graph)
        never = batch - 2          # past the first tile
        assert never >= _tiling(graph, batch)[1]
        syn = np.zeros((batch, H.rows), np.uint8)
        syn[never, -1] = 1
        hard, iters, conv = codec.bp_decode_batch(graph, np.full((batch, 10), 8.0), syn, 7)
        assert np.flatnonzero(~conv).tolist() == [never]
        assert np.flatnonzero(iters).tolist() == [never] and iters[never] == 7
        assert not hard.any()

    @given(st.integers(2, 10), st.integers(2, 14), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_idle_nodes_anywhere(self, m, n, seed, max_iter):
        # several all-zero rows and columns at random positions; every
        # frame's syndrome is random on the idle checks, and every third
        # frame's is random everywhere.  Up to 2 iterations only: on such
        # small random graphs (repeated rows, contradictory syndromes,
        # messages at the clip, where atanh magnifies rounding) the
        # log-domain oracle and the product-domain kernel part on about 1
        # case in 300 to 3000 from 3 iterations on
        rng = np.random.default_rng(seed)
        a = (rng.random((m, n)) < 0.4).astype(np.uint8)
        idle = rng.choice(m, rng.integers(1, m // 2 + 1), replace=False)
        a[idle] = 0
        a[:, rng.choice(n, rng.integers(1, n // 2 + 1), replace=False)] = 0
        H = BitMatrix(a)
        batch = 12
        words = rng.integers(0, 2, (batch, n))
        syn = (words @ a.T % 2).astype(np.uint8)
        syn[:, idle] = rng.integers(0, 2, (batch, idle.size))
        syn[::3] = rng.integers(0, 2, (len(syn[::3]), m))
        amp = np.array([6.0, 2.0, 0.5])[np.arange(batch) % 3, None]
        llrs = (1.0 - 2.0 * words) * amp + rng.normal(0.0, 1.0, (batch, n))
        want = ref_bp_decode_batch(H, llrs, syn, max_iter)
        assert _same(codec.bp_decode_batch(codec.TannerGraph(H), llrs, syn, max_iter), want)

    def test_negative_max_iter_rejected(self):
        graph = codec.TannerGraph(codes.build_spc(2, 2))
        with pytest.raises(ValueError, match="max_iter"):
            codec.bp_decode_batch(graph, np.ones((1, 4)), None, max_iter=-3)

    @pytest.mark.parametrize("shape", [(4, 38), (4, 42), (6, 39), (3, 39), (4,)], ids=str)
    def test_syndromes_of_wrong_shape_rejected(self, example1_bundle, shape):
        # a clipped take once decoded (4, 38), (4, 42) and (6, 39) without
        # a word; the shape must be (batch, checks)
        graph = codec.TannerGraph(example1_bundle.pair.h1)
        assert graph.n_checks == 39
        with pytest.raises(ValueError, match=re.escape(f"{shape} != (4, 39)")):
            codec.bp_decode_batch(graph, np.ones((4, 170)),
                                  np.zeros(shape, np.uint8), max_iter=5)


def _decode_points(dec, Y, sigma):
    """Received points (batch, n+1) through ``decode_batch``: the decoded
    points, assembled here as (3 + 4*z0, c0 + 2*c1 + 4*zvec), and the two
    stages' convergence flags."""
    c0, c1, z, diag = dec.decode_batch(np.asarray(Y, dtype=float), sigma)
    x = np.column_stack([3 + 4 * z[:, 0], c0 + 2 * c1.astype(np.int64) + 4 * z[:, 1:]])
    return x, diag["conv0"], diag["conv1"]


def _random_points(b, rng, count, noise=False):
    """``count`` random encodes of bundle ``b``, drawn point by point (info
    bits, integer parts, z0, then the noise if asked for); returns the
    points and the noise."""
    k0, k1, n = b.plan0.num_info, b.plan1.num_info, b.pair.n
    draws = []
    for _ in range(count):
        d = (rng.integers(0, 2, k0), rng.integers(0, 2, k1),
             rng.integers(-2, 3, n), int(rng.integers(-2, 3)))
        draws.append(d + (rng.normal(size=n + 1) if noise else np.zeros(n + 1),))
    i0, i1, zv, z0, e = (np.array(d) for d in zip(*draws))
    _, _, x = codec.encode_lattice(b.plans, i0, i1, np.column_stack([z0, zv]))
    return x, e


class TestMultistage:
    def test_noiseless_roundtrip(self, example1_bundle):
        b = example1_bundle
        x, _ = _random_points(b, np.random.default_rng(20), 5)
        # x determines c0 = x mod 2, c1 and the integer parts
        got, conv0, conv1 = _decode_points(codec.MultistageDecoder(b.pair), x, 1e-3)
        assert np.array_equal(got, x)
        assert conv0.all() and conv1.all()

    def test_small_noise_roundtrip(self, example1_bundle):
        b = example1_bundle
        x, noise = _random_points(b, np.random.default_rng(21), 50, noise=True)
        got, _, _ = _decode_points(codec.MultistageDecoder(b.pair), x + 0.01 * noise, 0.01)
        assert np.array_equal(got, x)

    def test_received_points_unchanged(self, example1_bundle):
        # the stages work in their own residual, never in Y
        b = example1_bundle
        x, noise = _random_points(b, np.random.default_rng(22), 20, noise=True)
        Y = x + 0.3 * noise
        before = Y.copy()
        codec.MultistageDecoder(b.pair).decode_batch(Y, 0.3)
        assert np.array_equal(Y, before)

    def test_toy_sigma_to_zero_equals_nearest_point(self, toy_setup):
        pair, plans = toy_setup
        dec = codec.MultistageDecoder(pair)
        members = np.array(lattice_points_in_box(pair, -2, 2))
        x = np.column_stack([np.full(len(members), 3), members])
        got, _, _ = _decode_points(dec, x, 1e-4)
        for pt in members:
            nearest = nearest_lattice_point(pair, pt.astype(float))
            assert np.array_equal(nearest, pt)
        assert np.array_equal(got, x)

    def test_decoder_tolerates_unconverged_stage(self, toy_setup):
        # a received point whose level-0 hard decision breaks a check, with
        # no iterations to repair it: no error raised, the flag reports it
        pair, plans = toy_setup
        y = np.array([3.0, 1.0, 0.0, 0.0, 0.0])
        dec = codec.MultistageDecoder(pair, max_iter=0)
        x, conv0, conv1 = _decode_points(dec, [y], 0.1)
        assert x.shape == (1, 5)
        assert not conv0[0]
        x, conv0, conv1 = _decode_points(codec.MultistageDecoder(pair), [y], 0.1)
        assert conv0[0] and conv1[0]


class TestNonFiniteInputs:
    """A NaN once decoded: ``bp_decode_batch`` gave all zeros, converged
    at iteration 0, and ``wrapped_llr`` only warned and returned NaN."""

    def test_nan_llr_refused_naming_its_frame(self, example1_bundle):
        llrs = np.full((4, 170), 5.0)
        llrs[2, 17] = np.nan
        graph = codec.TannerGraph(example1_bundle.pair.h0)
        with pytest.raises(ValueError, match="frame 2 hold a NaN"):
            codec.bp_decode_batch(graph, llrs)

    def test_infinite_llr_is_a_pinned_bit(self, example1_bundle):
        graph = codec.TannerGraph(example1_bundle.pair.h0)
        llrs = np.full((2, 170), 0.5)
        llrs[:, :3] = [np.inf, -np.inf, np.inf]
        pinned = np.clip(llrs, -codec.LLR_SAT, codec.LLR_SAT)
        assert _same(codec.bp_decode_batch(graph, llrs, max_iter=5),
                     codec.bp_decode_batch(graph, pinned, max_iter=5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_wrapped_llr_refuses_before_any_work(self, value):
        y = np.zeros((3, 4))
        y[1, 2] = value
        with pytest.raises(ValueError, match=f"y holds {value}; wrapped LLRs need finite"):
            codec.wrapped_llr(y, 0.5)
        with pytest.raises(ValueError, match="finite"):
            codec.wrapped_llr(y[1:, 1:], 0.5)    # a strided view

    @pytest.mark.parametrize("column", [0, 5])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_decode_batch_refuses(self, example1_bundle, column, value):
        # column 0, the dummy coordinate, once became a garbage z0
        Y = np.full((3, 171), 4.0)
        Y[:, 0] = 3.0
        Y[1, column] = value
        with pytest.raises(ValueError, match="finite"):
            codec.MultistageDecoder(example1_bundle.pair).decode_batch(Y, 0.3)

    def test_refused_under_optimize(self):
        # real checks, not asserts: they hold under python -O too
        script = (
            "import numpy as np\n"
            "from qclattice import codec, codes\n"
            "graph = codec.TannerGraph(codes.build_spc(2, 2))\n"
            "for call in (lambda: codec.bp_decode_batch(graph, np.full((1, 4), np.nan)),\n"
            "             lambda: codec.wrapped_llr(np.array([np.inf]), 0.5)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError:\n"
            "        print('debug', __debug__, 'refused')\n")
        env = dict(os.environ)
        src_dir = str(Path(codec.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["debug False refused"] * 2 + [""]


def _random_codewords(plan, rng, frames):
    return plan.encode_batch(np.zeros((frames, plan.matrix.rows), np.uint8),
                             rng.integers(0, 2, (frames, plan.num_info), dtype=np.uint8))


def _code_errors(plan, u, sigma, rng):
    """Error patterns and BP iterations of the code of ``plan`` decoding its
    own random codewords from wrapped LLRs of (cw + sigma u) mod 2."""
    cw = _random_codewords(plan, rng, len(u))
    llr = codec.wrapped_llr(np.mod(cw + sigma * u, 2.0), sigma)
    hard, iters, _ = codec.bp_decode_batch(codec.TannerGraph(plan.matrix), llr)
    return hard ^ cw, iters


class TestFrameIdentity:
    """The lattice decoder is its component codes, frame by frame.

    On common standard normals u, stage 0 of the lattice at sigma has, in
    every frame, the error pattern and BP iteration count of the level-0
    code at sigma, and stage 1, given the true c0, those of the H1 code at
    sigma/2.  Each code decodes its own random codewords: the mod-2 channel
    is output-symmetric and BP is odd in its messages, so a frame's errors
    do not depend on the word sent.  The test builds its points without
    ``stage_syndrome``, so a fault there shows in the decoder alone.
    """

    FRAMES = 300

    def frames(self, name, vnr_db, seed):
        b = presets.get_bundle(name)
        rng = np.random.default_rng(seed)
        sigma = math.sqrt(sim.vnr_to_sigma2(vnr_db, b.profile.normalized_volume))
        c0 = _random_codewords(b.plan0, rng, self.FRAMES)
        s1 = (c0.astype(np.int64) @ b.pair.h1.a.T.astype(np.int64)) % 4 // 2
        c1 = b.plan1.encode_batch(s1.astype(np.uint8),
                                  rng.integers(0, 2, (self.FRAMES, b.plan1.num_info),
                                               dtype=np.uint8))
        x = 4 * rng.integers(-2, 3, (self.FRAMES, b.pair.n + 1))
        x[:, 0] += 3
        x[:, 1:] += c0 + 2 * c1
        u = rng.normal(size=x.shape)
        return b, rng, sigma, c0, c1, x + sigma * u, u[:, 1:]

    @pytest.mark.parametrize("name, vnr_db, least", [("example1", 2.5, 20),
                                                     ("wimax1152", 1.5, 5)])
    def test_stage0_is_the_level0_code(self, name, vnr_db, least):
        b, rng, sigma, c0, _, Y, u = self.frames(name, vnr_db, 2701)
        d0, _, _, diag = codec.MultistageDecoder(b.pair).decode_batch(Y, sigma)
        errors, iters = _code_errors(b.plan0, u, sigma, rng)
        assert np.array_equal(d0 ^ c0, errors)
        assert np.array_equal(diag["it0"], iters)
        assert errors.any(axis=1).sum() >= least      # the identity has errors to match

    @pytest.mark.parametrize("name, vnr_db, least", [("example1", 0.0, 10),
                                                     ("wimax1152", -1.0, 10)])
    def test_stage1_given_c0_is_the_h1_code(self, monkeypatch, name, vnr_db, least):
        b, rng, sigma, c0, c1, Y, u = self.frames(name, vnr_db, 2702)
        dec = codec.MultistageDecoder(b.pair)
        decode = codec.bp_decode_batch

        def genie(graph, llrs, syndromes=None, max_iter=100):
            # stage 0 returns the true c0; stage 1 decodes as it would
            if graph is dec.graph0:
                return c0.copy(), np.zeros(len(c0), np.int64), np.ones(len(c0), bool)
            return decode(graph, llrs, syndromes, max_iter)
        monkeypatch.setattr(codec, "bp_decode_batch", genie)
        _, d1, _, diag = dec.decode_batch(Y, sigma)
        errors, iters = _code_errors(b.plan1, u, sigma / 2, rng)
        assert np.array_equal(d1 ^ c1, errors)
        assert np.array_equal(diag["it1"], iters)
        assert errors.any(axis=1).sum() >= least
