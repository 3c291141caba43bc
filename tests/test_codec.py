import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (lattice_points_in_box, nearest_lattice_point,
                     ref_bp_decode_batch, tree_bitwise_map, wide_llr)
from qclattice import codec, codes, lattice, presets, qc
from qclattice.gf2 import BitMatrix


@pytest.fixture(scope="module")
def toy_setup():
    P = qc.ProtoMatrix.from_shifts([[0, 0]], 2)
    pair = codes.make_pair_block_row(P, 0)
    fam = lattice.make_family(pair)
    plans = (codec.plan_level(pair.h0), codec.plan_level(pair.h1))
    return pair, fam, plans


class TestPlanLevel:
    def test_identity_no_free_columns(self):
        plan = codec.plan_level(BitMatrix.identity(6))
        assert plan.num_info == 0

    def test_example1_free_counts(self, example1_bundle):
        assert example1_bundle.plan0.num_info == 68
        assert example1_bundle.plan1.num_info == 132


class TestStageSyndrome:
    def test_zero_codeword(self):
        rows = np.array([[1, 1, 0], [0, 1, 1]])
        assert codec.stage_syndrome(rows, np.zeros(3, np.uint8)).tolist() == [0, 0]

    def test_dot_two_gives_one(self):
        s = codec.stage_syndrome(np.array([[1, 1, 0]]), np.array([1, 1, 0], np.uint8))
        assert s.tolist() == [1]

    def test_dot_four_gives_zero(self):
        s = codec.stage_syndrome(np.array([[1, 1, 1, 1]]), np.ones(4, np.uint8))
        assert s.tolist() == [0]

    def test_odd_dot_raises(self):
        with pytest.raises(codec.OddDotError):
            codec.stage_syndrome(np.array([[1, 0, 0]]), np.array([1, 0, 0], np.uint8))

    def test_example1_syndromes_solvable(self, example1_bundle):
        # the level-1 syndrome of any g0 codeword is always achievable; the
        # subsequent solve must never raise
        pair = example1_bundle.pair
        from qclattice.gf2 import nullspace_basis, solve_coset
        basis = np.array(nullspace_basis(pair.h0))
        rng = np.random.default_rng(6)
        plan1 = example1_bundle.plan1
        for _ in range(100):
            c0 = (rng.integers(0, 2, basis.shape[0]).astype(np.uint8) @ basis) % 2
            s1 = codec.stage_syndrome(pair.h1.a, c0)
            assert s1.sum() % 2 == 0  # total parity even by even codeword weight
            c1 = solve_coset(plan1.plan, pair.h1, s1,
                             np.zeros(plan1.num_info, np.uint8))
            assert np.array_equal(pair.h1.mul_vec(c1), s1)


class TestEncode:
    def test_all_zero_info(self, example1_bundle):
        pair = example1_bundle.pair
        w = codec.encode_lattice(pair, example1_bundle.plans,
                                 np.zeros(68, np.uint8), np.zeros(132, np.uint8),
                                 np.zeros(170, int), 0)
        assert w.x[0] == 3
        assert not w.x[1:].any()

    def test_random_encodes_are_members(self, example1_bundle):
        pair, fam = example1_bundle.pair, example1_bundle.family
        rng = np.random.default_rng(12)
        for _ in range(25):
            w = codec.encode_lattice(
                pair, example1_bundle.plans,
                rng.integers(0, 2, 68), rng.integers(0, 2, 132),
                rng.integers(-2, 3, 170), int(rng.integers(-2, 3)))
            assert w.x[0] % 4 == 3
            assert lattice.is_member(fam, w.x[1:])
            assert np.array_equal(pair.h0.mul_vec(w.c0), np.zeros(107, np.uint8))
            assert np.array_equal(pair.h1.mul_vec(w.c1), w.s1)

    def test_toy_exhaustive_distinct_members(self, toy_setup):
        pair, fam, plans = toy_setup
        k0, k1 = plans[0].num_info, plans[1].num_info
        assert (k0, k1) == (1, 1)
        seen = set()
        for i0, i1, z in itertools.product(
                range(2), range(2), itertools.product(range(2), repeat=4)):
            w = codec.encode_lattice(pair, plans,
                                     np.array([i0], np.uint8), np.array([i1], np.uint8),
                                     np.array(z, int), 0)
            assert lattice.is_member(fam, w.x[1:])
            seen.add(tuple(w.x.tolist()))
        assert len(seen) == 2 * 2 * 16  # injective encoding


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
        wide = codec.wrapped_llr(np.array([y]), sigma, window=10 * w)[0]
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


def _ext(H, syndrome):
    return BitMatrix(np.hstack([np.asarray(syndrome, np.uint8)[:, None], H.a]))


class TestSpaDecode:
    def test_noiseless_converges_immediately(self):
        H = codes.build_spc(3, 3)
        ext = _ext(H, np.zeros(6, np.uint8))
        llr = np.full(10, 8.0)
        llr[0] = -codec.LLR_SAT
        hard, iters, conv = codec.spa_decode(ext, llr)
        assert conv and iters <= 1
        assert hard[0] == 1 and not hard[1:].any()

    def test_single_flip_corrected(self):
        # strong LLRs for the zero codeword except one flipped coordinate;
        # the nearest codeword is still zero, and the decoder recovers it
        H = codes.build_spc(3, 3)
        ext = _ext(H, np.zeros(6, np.uint8))
        llr = np.full(10, 6.0)
        llr[0] = -codec.LLR_SAT
        llr[4] = -6.0
        hard, iters, conv = codec.spa_decode(ext, llr)
        assert conv
        assert not hard[1:].any()

    def test_no_information_never_converges(self):
        # all-zero channel LLRs and a nonzero syndrome: nothing to work with
        H = codes.build_spc(2, 2)
        syn = np.array([1, 1, 0, 0], np.uint8)
        ext = _ext(H, syn)
        llr = np.zeros(5)
        hard, iters, conv = codec.spa_decode(ext, llr, max_iter=100)
        assert not conv
        assert iters == 100

    def test_syndrome_decoding(self):
        # a random achievable syndrome with strong correct priors
        H = codes.build_spc(3, 3)
        rng = np.random.default_rng(7)
        c = rng.integers(0, 2, 9).astype(np.uint8)
        syn = H.mul_vec(c)
        ext = _ext(H, syn)
        llr = np.where(c == 0, 9.0, -9.0).astype(float)
        llr = np.concatenate([[-codec.LLR_SAT], llr])
        hard, iters, conv = codec.spa_decode(ext, llr)
        assert conv
        assert np.array_equal(hard[1:], c)

    def test_tree_code_matches_exact_marginals(self):
        # cycle-free code: after convergence the hard decision equals the
        # exact bitwise MAP (enumeration), dummy included
        H = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
        rng = np.random.default_rng(15)
        for syn in ([0, 0], [1, 0], [0, 1], [1, 1]):
            ext = _ext(H, np.array(syn, np.uint8))
            for _ in range(10):
                llr = np.concatenate([[-codec.LLR_SAT], rng.normal(0, 2, 3)])
                hard, iters, conv = codec.spa_decode(ext, llr, max_iter=50)
                exact = tree_bitwise_map(ext.a, np.zeros(2), llr)
                if conv:
                    assert np.array_equal(hard, exact)

    def test_batch_matches_single(self, example1_bundle):
        H = example1_bundle.pair.h1
        graph = codec.TannerGraph(H)
        rng = np.random.default_rng(3)
        llrs = rng.normal(0, 2, (6, 170))
        syns = rng.integers(0, 2, (6, H.rows)).astype(np.uint8)
        hb, ib, cb = codec.bp_decode_batch(graph, llrs, syns, max_iter=30)
        for i in range(6):
            ext = _ext(H, syns[i])
            llr_one = np.concatenate([[-codec.LLR_SAT], llrs[i]])
            h1, i1, c1 = codec.spa_decode(ext, llr_one, max_iter=30)
            assert np.array_equal(h1[1:], hb[i])
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
    if label == "idle-row":
        # SPC(3,3) plus an all-zero check and an unchecked variable
        a = np.zeros((7, 10), np.uint8)
        a[:6, :9] = codes.build_spc(3, 3).a
        return BitMatrix(a)
    name, level = label.rsplit("-", 1)
    return getattr(presets.get_bundle(name).pair, level)


# (matrix, syndromes): check degrees up to 34 (example1) and 48 (wimax1152);
# the idle-row matrix has an all-zero check and an all-zero column
KERNEL_CASES = [("example1-h0", None), ("example1-h1", "coset"),
                ("wimax1152-h0", None), ("wimax1152-h1", "coset"),
                ("idle-row", "coset")]


def _same(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
               for g, w in zip(got, want))


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

    def test_cases_cover_convergence_mix(self):
        # the generated batches really mix early, late and no convergence
        rng = np.random.default_rng(0)
        H = _kernel_matrix("example1-h1")
        llrs, syn = _kernel_frames(H, rng, 24, "coset")
        _, iters, conv = ref_bp_decode_batch(H, llrs, syn, 100)
        assert conv.any() and not conv.all()
        assert (iters[conv] == 0).any() and (iters[conv] > 0).any()

    def test_idle_check_with_syndrome_never_converges(self):
        H = _kernel_matrix("idle-row")
        syn = np.zeros((2, H.rows), np.uint8)
        syn[1, -1] = 1
        llrs = np.full((2, 10), 8.0)
        hard, iters, conv = codec.bp_decode_batch(codec.TannerGraph(H), llrs, syn, 7)
        assert conv.tolist() == [True, False]
        assert iters.tolist() == [0, 7]
        assert not hard.any()

    @pytest.mark.parametrize("degree", list(range(1, 20)) + [33, 34, 47, 48, 129, 130, 300])
    def test_slot_sum_matches_reduceat(self, degree):
        # per-check sums reproduce np.add.reduceat bit for bit
        rng = np.random.default_rng(degree)
        m, batch = 3, 5
        x = rng.normal(size=(degree, m, batch)) * 10.0 ** rng.integers(-6, 6, (degree, m, batch))
        rows = x.transpose(2, 1, 0).reshape(batch, m * degree)
        want = np.add.reduceat(rows, np.arange(0, m * degree, degree), axis=1)
        assert np.array_equal(codec._slot_sum(x).T, want)

    def test_negative_max_iter_rejected(self):
        graph = codec.TannerGraph(codes.build_spc(2, 2))
        with pytest.raises(ValueError, match="max_iter"):
            codec.bp_decode_batch(graph, np.ones((1, 4)), None, max_iter=-3)


class TestMultistage:
    def test_noiseless_roundtrip(self, example1_bundle):
        b = example1_bundle
        rng = np.random.default_rng(20)
        dec = codec.MultistageDecoder(b.pair)
        for _ in range(5):
            w = codec.encode_lattice(b.pair, b.plans,
                                     rng.integers(0, 2, 68), rng.integers(0, 2, 132),
                                     rng.integers(-2, 3, 170), int(rng.integers(-2, 3)))
            word, diag = codec.decode_multistage(w.x.astype(float), 1e-3,
                                                 b.family, b.pair, decoder=dec)
            assert np.array_equal(word.c0, w.c0)
            assert np.array_equal(word.c1, w.c1)
            assert np.array_equal(word.zvec, w.zvec)
            assert word.z0 == w.z0
            assert np.array_equal(word.x, w.x)
            assert diag.stage0_converged and diag.stage1_converged

    def test_small_noise_roundtrip(self, example1_bundle):
        b = example1_bundle
        rng = np.random.default_rng(21)
        dec = codec.MultistageDecoder(b.pair)
        errors = 0
        for _ in range(50):
            w = codec.encode_lattice(b.pair, b.plans,
                                     rng.integers(0, 2, 68), rng.integers(0, 2, 132),
                                     rng.integers(-2, 3, 170), int(rng.integers(-2, 3)))
            y = w.x + 0.01 * rng.normal(size=171)
            word, _ = codec.decode_multistage(y, 0.01, b.family, b.pair, decoder=dec)
            if not np.array_equal(word.x, w.x):
                errors += 1
        assert errors == 0

    def test_toy_sigma_to_zero_equals_nearest_point(self, toy_setup):
        pair, fam, plans = toy_setup
        dec = codec.MultistageDecoder(pair)
        members = lattice_points_in_box(fam.rows, fam.m1, -2, 2)
        for pt in members:
            x = np.concatenate([[3], np.array(pt)])
            word, _ = codec.decode_multistage(x.astype(float), 1e-4, fam, pair,
                                              decoder=dec)
            nearest = nearest_lattice_point(fam.rows, fam.m1, x[1:].astype(float))
            assert np.array_equal(nearest, np.array(pt))
            assert np.array_equal(word.x, x)

    def test_decoder_tolerates_unconverged_stage(self, toy_setup):
        # garbage received point: no error raised, diag reports the failure
        pair, fam, plans = toy_setup
        y = np.array([0.2, 0.7, 1.3, 0.1, 0.9])
        word, diag = codec.decode_multistage(y, 0.4, fam, pair)
        assert word.x.shape == (5,)
