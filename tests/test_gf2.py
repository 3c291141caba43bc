import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (exhaustive_nullspace, kernel_rank, ref_nullspace_basis, ref_rank,
                     ref_rref, ref_rref_words, ref_solve)
from qclattice import qc
from qclattice.codec import EncoderPlan
from qclattice.codes import build_spc
from qclattice.gf2 import (BitMatrix, InconsistentSyndromeError, nullspace_basis, pack,
                           rref, rref_words, unpack, vstack)


@st.composite
def bit_matrices(draw, max_rows=12, max_cols=24):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return BitMatrix(np.array(bits, dtype=np.uint8))


class TestRank:
    def test_identity(self):
        assert kernel_rank(BitMatrix.identity(3)) == 3

    def test_all_zero(self):
        assert kernel_rank(BitMatrix.zeros(2, 4)) == 0

    def test_spc_3_3(self):
        # 6x9 SPC product check matrix has one redundant row
        assert kernel_rank(build_spc(3, 3)) == 3 + 3 - 1

    @given(bit_matrices())
    def test_matches_reference(self, M):
        assert kernel_rank(M) == ref_rank(M.a)

    @given(bit_matrices(max_rows=8, max_cols=8))
    def test_rank_plus_nullity(self, M):
        assert kernel_rank(M) == M.cols - len(nullspace_basis(M))


class TestNullspace:
    def test_identity_empty(self):
        assert nullspace_basis(BitMatrix.identity(4)) == []

    def test_single_parity(self):
        basis = nullspace_basis(BitMatrix.from_rows([[1, 1]]))
        assert len(basis) == 1
        assert basis[0].tolist() == [1, 1]

    def test_spc_2_2_by_enumeration(self):
        H = build_spc(2, 2)
        basis = nullspace_basis(H)
        assert len(basis) == 1
        assert basis[0].tolist() == [1, 1, 1, 1]
        # full enumeration over 16 words agrees
        words = exhaustive_nullspace(H.a)
        assert set(words) == {(0, 0, 0, 0), (1, 1, 1, 1)}

    @given(bit_matrices(max_rows=6, max_cols=8))
    def test_members_and_count(self, M):
        basis = nullspace_basis(M)
        for v in basis:
            assert not M.mul_vec(v).any()
        assert len(exhaustive_nullspace(M.a)) == 2 ** len(basis)


class TestMulVec:
    @given(bit_matrices(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_integer_product(self, M, data):
        # the parity of the int64 product, for any uint8 entries of v
        v = data.draw(st.one_of(
            st.just(np.zeros(M.cols, np.uint8)), st.just(np.ones(M.cols, np.uint8)),
            st.lists(st.integers(0, 255), min_size=M.cols, max_size=M.cols)
            .map(lambda xs: np.array(xs, np.uint8))))
        got = M.mul_vec(v)
        assert got.dtype == np.uint8
        assert np.array_equal(got, (M.a.astype(np.int64) @ v.astype(np.int64)) % 2)

    @pytest.mark.parametrize("n", [4, 6])
    def test_wrong_length_refused(self, n):
        with pytest.raises(ValueError):
            BitMatrix.zeros(3, 5).mul_vec(np.ones(n, np.uint8))

    def test_traced_peak_on_wimax_hqc(self, wimax_bundle):
        # the witness check of a distance search on the 576x1152 H_qc; an
        # int64 copy of the matrix traced 5.1 MB here
        H = qc.expand(wimax_bundle.proto)
        v = np.ones(H.cols, np.uint8)
        tracemalloc.start()
        try:
            H.mul_vec(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestPackedKernel:
    """The packed-word RREF against the uint8-row kernel and the
    column-at-a-time packed kernel it replaced."""

    @staticmethod
    def _same_as_reference(a):
        R, piv = rref(a)
        R_ref, piv_ref = ref_rref(a)
        assert piv == piv_ref
        assert R.dtype == np.uint8 and R.shape == R_ref.shape
        assert np.array_equal(R, R_ref)
        TestPackedKernel._same_as_frozen(a)

    @staticmethod
    def _same_as_frozen(a):
        # the 8-column chunked kernel against the frozen column-at-a-time
        # one: identical packed words (padding included) and pivots
        n = np.shape(a)[1]
        W = pack(a)
        W_ref = W.copy()
        assert rref_words(W, n) == ref_rref_words(W_ref, n)
        assert np.array_equal(W, W_ref)

    @given(bit_matrices(max_rows=20, max_cols=140))
    @settings(max_examples=80, deadline=None)
    def test_rref_matches_reference(self, M):
        self._same_as_reference(M.a)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 128, 129])
    def test_word_boundary_widths(self, n):
        rng = np.random.default_rng(n)
        for m in (1, 5, 40):
            a = (rng.random((m, n)) < 0.3).astype(np.uint8)
            a[:, -1] = rng.integers(0, 2, m)
            self._same_as_reference(a)

    def test_all_zero(self):
        R, piv = rref(np.zeros((4, 70), np.uint8))
        assert piv == [] and not R.any() and R.shape == (4, 70)

    def test_more_rows_than_columns(self):
        a = np.random.default_rng(8).integers(0, 2, (90, 7)).astype(np.uint8)
        self._same_as_reference(a)

    @given(bit_matrices(max_rows=12, max_cols=70))
    @settings(max_examples=60, deadline=None)
    def test_nullspace_matches_reference(self, M):
        basis = nullspace_basis(M)
        ref = ref_nullspace_basis(M.a)
        assert len(basis) == len(ref)
        for v, w in zip(basis, ref):
            assert v.dtype == np.uint8 and np.array_equal(v, w)

    def test_wimax_hqc_nullspace_matches_reference(self, wimax_bundle):
        H = qc.expand(wimax_bundle.proto)
        assert np.array_equal(np.array(nullspace_basis(H)),
                              np.array(ref_nullspace_basis(H.a)))

    def test_duplicate_rows_and_chunk_ranks(self):
        # chunk 0 has rank 0, chunk 1 rank 1, chunk 2 rank 8 and chunk 3
        # rank 2 with every bit used; half the rows are repeats
        rng = np.random.default_rng(5)
        m = 40
        a = np.zeros((m, 40), dtype=np.uint8)
        a[:, 8:16] = rng.integers(0, 2, (m, 1)) * np.array([1, 0, 1, 1, 0, 0, 1, 0])
        a[:, 16:24] = rng.integers(0, 2, (m, 8))
        pair = rng.integers(0, 2, (m, 2))
        a[:, 24:32] = np.hstack([pair, pair, pair, pair])
        a[:, 32:] = rng.integers(0, 2, (m, 8))
        a[m // 2:] = a[rng.integers(0, m // 2, m - m // 2)]
        self._same_as_reference(a)
        self._same_as_reference(a[rng.permutation(m)])
        self._same_as_reference(np.repeat(a[:3], 10, axis=0))

    @pytest.mark.parametrize("name", ["example1", "wimax1152"])
    def test_preset_h_identity(self, name, example1_bundle, wimax_bundle):
        # the [H | I] eliminations under the bundles' encoder plans, and the
        # plans' blocks as cut from the reference RREF
        bundle = example1_bundle if name == "example1" else wimax_bundle
        for H, plan in zip((bundle.pair.h0, bundle.pair.h1), bundle.plans):
            HI = np.hstack([H.a, np.eye(H.rows, dtype=np.uint8)])
            self._same_as_reference(HI)
            R, pivots = ref_rref(HI)
            n, r = H.cols, sum(p < H.cols for p in pivots)
            free = np.setdiff1d(np.arange(n), pivots[:r])
            assert np.array_equal(plan.pivot_cols, pivots[:r])
            assert np.array_equal(plan.free_cols, free)
            for got, want in zip(plan._blocks, (R[:r, free], R[:r, n:], R[r:, n:])):
                assert np.array_equal(got, want.T)

    def test_permuted_wimax_generator(self, wimax_bundle):
        G = np.array(nullspace_basis(qc.expand(wimax_bundle.proto)), dtype=np.uint8)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(G.shape[1])
            self._same_as_frozen(G[:, perm])

    def test_padding_bits_never_pivot(self):
        # set padding bits change nothing on the first n columns
        rng = np.random.default_rng(11)
        for m, n in ((30, 13), (10, 70), (65, 127), (5, 1)):
            a = (rng.random((m, n)) < 0.4).astype(np.uint8)
            W = pack(a)
            W_ref = W.copy()
            pad = np.unpackbits(W.view(np.uint8), axis=1, bitorder="little")
            pad[:, n:] = rng.integers(0, 2, (m, pad.shape[1] - n))
            W_pad = np.packbits(pad, axis=1, bitorder="little").view("<u8").copy()
            piv = rref_words(W_pad, n)
            assert piv == ref_rref_words(W_ref, n)
            assert all(c < n for c in piv)
            assert np.array_equal(unpack(W_pad, n), unpack(W_ref, n))


class TestStackedKernel:
    """A stack ``(B, m, words)`` eliminated in one call against each matrix
    eliminated alone and against the frozen column-at-a-time kernel: same
    pivots and the same words, padding words included."""

    @staticmethod
    def _same_as_alone(a):
        n = a.shape[2]
        W = np.stack([pack(x) for x in a])
        W_one = W.copy()
        W_ref = W.copy()
        pivots = rref_words(W, n)
        assert len(pivots) == len(a)
        for b in range(len(a)):
            assert pivots[b] == rref_words(W_one[b], n) == ref_rref_words(W_ref[b], n)
            assert np.array_equal(W[b], W_one[b])
            assert np.array_equal(W[b], W_ref[b])

    def test_mixed_ranks_duplicates_and_zero(self):
        rng = np.random.default_rng(21)
        m, n = 24, 50
        full = rng.integers(0, 2, (m, n))
        low = rng.integers(0, 2, (m, 4)) @ rng.integers(0, 2, (4, n)) % 2
        dup = np.repeat(rng.integers(0, 2, (3, n)), 8, axis=0)
        sparse = (rng.random((m, n)) < 0.05).astype(np.uint8)
        stack = np.stack([full, low, np.zeros((m, n)), dup, sparse, full[::-1]])
        self._same_as_alone(stack.astype(np.uint8))

    def test_more_rows_than_columns(self):
        rng = np.random.default_rng(22)
        a = rng.integers(0, 2, (5, 40, 11)).astype(np.uint8)
        a[1, 20:] = a[1, :20]
        self._same_as_alone(a)

    @pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65])
    def test_word_boundary_widths(self, n):
        rng = np.random.default_rng(100 + n)
        for m in (3, 30):
            a = (rng.random((4, m, n)) < 0.3).astype(np.uint8)
            a[:, :, -1] = rng.integers(0, 2, (4, m))
            self._same_as_alone(a)

    def test_one_matrix_full_rank_chunks_early(self):
        # matrix 0 has full rank after its first 2 chunks; the others stay
        # zero for 5 chunks and then run to the end
        rng = np.random.default_rng(23)
        m, n = 12, 90
        a = np.zeros((3, m, n), dtype=np.uint8)
        a[0] = rng.integers(0, 2, (m, n))
        a[0, :, :m] = np.eye(m, dtype=np.uint8)
        a[1:, :, 40:] = rng.integers(0, 2, (2, m, n - 40))
        a[2, m // 2:] = a[2, : m - m // 2]
        self._same_as_alone(a)

    def test_stack_of_one(self):
        a = np.random.default_rng(24).integers(0, 2, (1, 20, 70)).astype(np.uint8)
        self._same_as_alone(a)

    def test_permuted_wimax_generators(self, wimax_bundle):
        # a block of the low-weight search
        G = np.array(nullspace_basis(qc.expand(wimax_bundle.proto)), dtype=np.uint8)
        rng = np.random.default_rng(25)
        self._same_as_alone(np.stack([G[:, rng.permutation(G.shape[1])]
                                      for _ in range(3)]))

    @given(st.integers(2, 5), st.integers(1, 20), st.integers(1, 80),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_stacks(self, B, m, n, seed):
        rng = np.random.default_rng(seed)
        a = (rng.random((B, m, n)) < rng.random((B, 1, 1))).astype(np.uint8)
        self._same_as_alone(a)


def _encode_one(plan, s, info):
    return plan.encode_batch(np.asarray(s, np.uint8).reshape(1, -1),
                             np.asarray(info, np.uint8).reshape(1, -1))[0]


class TestSolveCoset:
    """Coset solves ``M c^T = s^T`` with prescribed free columns, through
    the affine maps of :class:`qclattice.codec.EncoderPlan`."""

    def test_zero_syndrome_zero_info(self):
        M = build_spc(3, 3)
        plan = EncoderPlan(M)
        c = _encode_one(plan, np.zeros(M.rows), np.zeros(plan.num_info))
        assert not c.any()

    def test_single_check(self):
        M = BitMatrix.from_rows([[1, 1]])
        plan = EncoderPlan(M)
        c = _encode_one(plan, [1], [1])
        assert M.mul_vec(c).tolist() == [1]
        assert c[plan.free_cols[0]] == 1

    def test_random_20x40(self):
        rng = np.random.default_rng(23)
        M = BitMatrix(rng.integers(0, 2, (20, 40)).astype(np.uint8))
        plan = EncoderPlan(M)
        for _ in range(20):
            s = M.mul_vec(rng.integers(0, 2, 40).astype(np.uint8))
            info = rng.integers(0, 2, plan.num_info).astype(np.uint8)
            c = _encode_one(plan, s, info)
            assert np.array_equal(M.mul_vec(c), s)
            assert np.array_equal(c[plan.free_cols], info)

    def test_inconsistent_raises(self):
        M = BitMatrix.from_rows([[1, 1], [1, 1]])
        plan = EncoderPlan(M)
        with pytest.raises(InconsistentSyndromeError):
            _encode_one(plan, [1, 0], np.zeros(plan.num_info))

    @given(bit_matrices(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_dense_oracle(self, M, seed):
        # fixing the free columns makes the solution unique; ref_solve leaves
        # the non-pivot columns of the same RREF at zero, so with zero info
        # the two solves agree bit for bit
        rng = np.random.default_rng(seed)
        plan = EncoderPlan(M)
        s = M.mul_vec(rng.integers(0, 2, M.cols).astype(np.uint8))
        assert np.array_equal(_encode_one(plan, s, np.zeros(plan.num_info)),
                              ref_solve(M.a, s))
        info = rng.integers(0, 2, plan.num_info).astype(np.uint8)
        c = _encode_one(plan, s, info)
        assert np.array_equal(M.mul_vec(c), s)
        assert np.array_equal(c[plan.free_cols], info)
        s_any = rng.integers(0, 2, M.rows).astype(np.uint8)
        if ref_solve(M.a, s_any) is None:
            with pytest.raises(InconsistentSyndromeError):
                _encode_one(plan, s_any, info)
        else:
            assert np.array_equal(M.mul_vec(_encode_one(plan, s_any, info)), s_any)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        M = BitMatrix(rng.integers(0, 2, (12, 25)).astype(np.uint8))
        plan = EncoderPlan(M)
        S = np.array([M.mul_vec(rng.integers(0, 2, 25).astype(np.uint8))
                      for _ in range(8)])
        INFO = rng.integers(0, 2, (8, plan.num_info)).astype(np.uint8)
        batch = plan.encode_batch(S, INFO)
        for i in range(8):
            assert np.array_equal(batch[i], _encode_one(plan, S[i], INFO[i]))

    @pytest.mark.parametrize("M, k", [(BitMatrix.identity(5), 0), (build_spc(3, 3), 4)],
                             ids=["identity5", "spc3x3"])
    def test_info_bit_count(self, M, k):
        plan = EncoderPlan(M)
        assert plan.num_info == k == M.cols - kernel_rank(M)
        assert sorted(plan.free_cols.tolist()) == plan.free_cols.tolist()

    def test_example1_hqc_roundtrip(self, example1_bundle):
        H = qc.expand(example1_bundle.proto)
        plan = EncoderPlan(H)
        rng = np.random.default_rng(17)
        for _ in range(100):
            v = rng.integers(0, 2, H.cols).astype(np.uint8)
            s = H.mul_vec(v)
            info = rng.integers(0, 2, plan.num_info).astype(np.uint8)
            c = _encode_one(plan, s, info)
            assert np.array_equal(H.mul_vec(c), s)
            assert np.array_equal(c[plan.free_cols], info)


def row_space_contains(M: BitMatrix, v) -> bool:
    """One vector against the row space of M: one encoder plan (one RREF),
    then its in_row_space."""
    return bool(EncoderPlan(M).in_row_space(v)[0])


class TestRowSpaceContains:
    def test_own_row(self):
        rng = np.random.default_rng(2)
        M = BitMatrix(rng.integers(0, 2, (6, 10)).astype(np.uint8))
        assert row_space_contains(M, M.a[0])

    def test_int64_vector(self):
        # a default-integer vector is converted, not refused
        M = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
        assert row_space_contains(M, np.array([1, 1, 0]))

    def test_all_ones_not_in_single_row(self):
        M = BitMatrix.from_rows([[1, 1, 0, 1]])
        assert not row_space_contains(M, np.ones(4, np.uint8))

    def test_wimax_block_row_sum(self, wimax_bundle):
        # the sum of expanded block rows 1 and 8 lies in the row space
        H = qc.expand(wimax_bundle.proto)
        z = wimax_bundle.proto.z
        v = H.a[1 * z: 2 * z].sum(axis=0) % 2 ^ H.a[8 * z: 9 * z].sum(axis=0) % 2
        assert row_space_contains(H, v.astype(np.uint8))

    @given(bit_matrices(max_rows=6, max_cols=10), st.integers(0, 2 ** 31))
    @settings(max_examples=50)
    def test_matches_rank_augmentation(self, M, seed):
        v = np.random.default_rng(seed).integers(0, 2, M.cols).astype(np.uint8)
        expected = ref_rank(np.vstack([M.a, v[None, :]])) == ref_rank(M.a)
        assert row_space_contains(M, v) == expected

    def test_one_elimination(self, eliminations):
        M = BitMatrix(np.random.default_rng(3).integers(0, 2, (6, 10)).astype(np.uint8))
        assert row_space_contains(M, M.a[1] ^ M.a[4])
        assert len(eliminations) == 1


def _combinations_and_flips(M: BitMatrix, count: int, seed: int):
    """``count`` random combinations of the rows of M, and the same rows
    with one random bit flipped each."""
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, 2, (count, M.rows))
    V = (coeffs @ M.a % 2).astype(np.uint8)
    flipped = V.copy()
    flipped[np.arange(count), rng.integers(0, M.cols, count)] ^= 1
    return V, flipped


class TestInRowSpace:
    """Batched membership on an encoder plan's RREF, against rank
    augmentation."""

    @given(bit_matrices(max_rows=6, max_cols=10), st.integers(0, 2 ** 31))
    @settings(max_examples=100)
    def test_matches_rank_augmentation(self, M, seed):
        V, flipped = _combinations_and_flips(M, 4, seed)
        rand = np.random.default_rng(seed + 1).integers(0, 2, (4, M.cols)).astype(np.uint8)
        rows = np.vstack([V, flipped, rand])
        expected = [ref_rank(np.vstack([M.a, v[None, :]])) == ref_rank(M.a) for v in rows]
        assert EncoderPlan(M).in_row_space(rows).tolist() == expected
        assert all(expected[:4])

    @pytest.mark.parametrize("bundle", ["example1_bundle", "wimax_bundle"])
    def test_presets_h0(self, bundle, request):
        # combinations of about half of H0's rows (column sums well past 1,
        # so the mod-2 reduction matters) and the same with one bit flipped
        b = request.getfixturevalue(bundle)
        H = b.pair.h0
        V, flipped = _combinations_and_flips(H, 6, 5)
        r = kernel_rank(H)
        expected = [kernel_rank(vstack(H, BitMatrix(v[None, :]))) == r for v in flipped]
        assert not any(expected)
        got = b.plan0.in_row_space(np.vstack([V, flipped]))
        assert got.tolist() == [True] * 6 + expected

    def test_rank_zero_and_full_rank(self):
        zero = BitMatrix.zeros(2, 3)
        rows = np.array([[0, 0, 0], [0, 1, 0]])
        assert EncoderPlan(zero).in_row_space(rows).tolist() == [True, False]
        full = BitMatrix.identity(3)
        assert EncoderPlan(full).in_row_space(rows).tolist() == [True, True]

    def test_wrong_length_refused(self):
        M = BitMatrix.identity(3)
        with pytest.raises(ValueError, match="length 4"):
            EncoderPlan(M).in_row_space(np.ones((2, 4), np.uint8))
        with pytest.raises(ValueError, match="length 4"):
            EncoderPlan(M).in_row_space(np.ones(4, np.uint8))


class TestBitMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BitMatrix(np.zeros((0, 3), dtype=np.uint8))

    def test_immutable(self):
        M = BitMatrix.identity(3)
        with pytest.raises(ValueError):
            M.a[0, 0] = 0

    def test_vstack(self):
        M = vstack(BitMatrix.identity(2), BitMatrix.zeros(1, 2))
        assert M.shape == (3, 2)

    def test_rref_pivots_unique_ones(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, (7, 11)).astype(np.uint8)
        R, piv = rref(a)
        for i, p in enumerate(piv):
            col = R[:, p]
            assert col[i] == 1 and col.sum() == 1
