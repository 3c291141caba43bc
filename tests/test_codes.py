import dataclasses

import numpy as np
import pytest

from oracles import exhaustive_nullspace, ref_rank
from qclattice import codes, qc, wmin
from qclattice.codec import EncoderPlan
from qclattice.gf2 import BitMatrix, nullspace_basis, vstack


class TestStaircase:
    def test_2_3(self):
        S = codes.build_staircase(2, 3)
        assert S.a.tolist() == [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]

    def test_single_row(self):
        assert codes.build_staircase(1, 4).a.tolist() == [[1, 1, 1, 1]]

    def test_example1_shape(self):
        S = codes.build_staircase(5, 34)
        assert S.shape == (5, 170)
        assert (S.a.sum(axis=1) == 34).all()
        assert (S.a.sum(axis=0) == 1).all()


class TestSpc:
    def test_2_2_nullspace(self):
        H = codes.build_spc(2, 2)
        assert H.shape == (4, 4)
        assert set(exhaustive_nullspace(H.a)) == {(0, 0, 0, 0), (1, 1, 1, 1)}

    def test_3_3_rank_and_dim(self):
        H = codes.build_spc(3, 3)
        assert ref_rank(H.a) == 5
        assert len(nullspace_basis(H)) == 4

    def test_rank_formula_exhaustive(self):
        for p in range(2, 9):
            for q in range(2, 9):
                assert ref_rank(codes.build_spc(p, q).a) == p + q - 1

    def test_min_weight_four(self):
        for p, q in [(2, 2), (2, 3), (3, 3), (4, 3)]:
            assert wmin.exact_dmin(codes.build_spc(p, q)) == 4

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            codes.build_spc(1, 4)


class TestBuildH0:
    def test_example1_shape(self, example1_bundle):
        assert example1_bundle.pair.h0.shape == (107, 170)

    def test_wimax_shape(self, wimax_bundle):
        assert wimax_bundle.pair.h0.shape == (600, 1152)

    def test_tiny(self):
        P = qc.ProtoMatrix.from_shifts([[0]], 2)
        H0 = codes.build_h0(P)
        assert H0.a.tolist() == [[1, 0], [0, 1], [1, 1]]
        assert ref_rank(H0.a) == 2

    def test_row_order_qc_then_staircase(self, example1_bundle):
        H0 = example1_bundle.pair.h0
        A = qc.expand(example1_bundle.proto)
        assert np.array_equal(H0.a[:102], A.a)
        assert np.array_equal(H0.a[102:], codes.build_staircase(5, 34).a)


class TestBuildH1BlockRow:
    # a block row is the row-sum group of one row
    def test_example1(self, example1_bundle):
        H1 = codes.build_h1_row_sums(example1_bundle.proto, [(0,)])
        assert H1.shape == (39, 170)
        assert ref_rank(H1.a) == 38
        assert len(nullspace_basis(H1)) == 132

    def test_toy_is_spc_product_code(self):
        # all-{0} 1x2 prototype at z=2: H1 = [I2 I2; staircase(2,2)]
        P = qc.ProtoMatrix.from_shifts([[0, 0]], 2)
        H1 = codes.build_h1_row_sums(P, [(0,)])
        spc = codes.build_spc(2, 2)
        assert set(exhaustive_nullspace(H1.a)) == set(exhaustive_nullspace(spc.a))

    def test_zero_block_raises(self):
        P = qc.ProtoMatrix(1, 2, 3, (((0,), ()),))
        with pytest.raises(codes.BadGroupsError):
            codes.build_h1_row_sums(P, [(0,)])


class TestBuildH1RowSums:
    def test_single_group_equals_block_row(self, example1_bundle):
        # block row i of the expansion over the staircase, sliced directly
        P = example1_bundle.proto
        stair = codes.build_staircase(P.n_b, P.z)
        for i in range(P.m_b):
            band = BitMatrix(qc.expand(P).a[i * P.z: (i + 1) * P.z])
            assert codes.build_h1_row_sums(P, [(i,)]) == vstack(band, stair)

    def test_wimax_dimensions_and_band(self, wimax_bundle):
        H1 = wimax_bundle.pair.h1
        assert H1.shape == (120, 1152)
        band1 = H1.a[:48].reshape(48, 24, 48)
        occupied = np.nonzero(band1.sum(axis=(0, 2)))[0].tolist()
        assert occupied == [0, 1, 4, 5, 7, 11, 12, 13, 14, 18, 20, 21]

    def test_wimax_five_double_cpms(self, wimax_bundle):
        H1 = wimax_bundle.pair.h1
        b1 = H1.a[:48].reshape(48, 24, 48)
        b2 = H1.a[48:96].reshape(48, 24, 48)
        doubles1 = np.nonzero(b1.sum(axis=0).max(axis=1) == 2)[0].tolist()
        doubles2 = np.nonzero(b2.sum(axis=0).max(axis=1) == 2)[0].tolist()
        assert doubles1 == [5, 7, 11]
        assert doubles2 == [2, 9]

    def test_bands_are_gf2_block_row_sums(self, wimax_bundle):
        A = qc.expand(wimax_bundle.proto).a
        H1 = wimax_bundle.pair.h1
        z = 48
        assert np.array_equal(H1.a[:z], A[1 * z: 2 * z] ^ A[8 * z: 9 * z])
        assert np.array_equal(H1.a[z: 2 * z], A[4 * z: 5 * z] ^ A[10 * z: 11 * z])

    def test_wimax_h1_min_weight_four(self, wimax_bundle):
        w, c = wmin.low_weight_search(wimax_bundle.pair.h1, 300, seed=5, stop_at=4)
        assert w == 4
        assert not wimax_bundle.pair.h1.mul_vec(c).any()

    def test_bad_groups(self, wimax_bundle):
        P = wimax_bundle.proto
        with pytest.raises(codes.BadGroupsError):
            codes.build_h1_row_sums(P, [])
        with pytest.raises(codes.BadGroupsError):
            codes.build_h1_row_sums(P, [(1, 8), ()])
        with pytest.raises(codes.BadGroupsError):
            codes.build_h1_row_sums(P, [(1, 8)])  # leaves columns uncovered
        with pytest.raises(codes.BadGroupsError):
            codes.build_h1_row_sums(P, [(0, 25)])

    @pytest.mark.parametrize("groups, message", [
        ([(1, 1)], r"group 1\+1 names block row 1 twice"),
        ([(0,), (2, 1, 2)], r"group 2\+1\+2 names block row 2 twice"),
    ])
    def test_block_row_twice_in_a_group(self, example1_bundle, groups, message):
        # a block row plus itself is the zero band; 1+1 once built row 1 alone
        with pytest.raises(codes.BadGroupsError, match=message):
            codes.build_h1_row_sums(example1_bundle.proto, groups)


class TestNestedPair:
    def test_two_fields_and_n_from_h0(self, example1_bundle):
        pair = example1_bundle.pair
        assert [f.name for f in dataclasses.fields(pair)] == ["h0", "h1"]
        assert pair.n == pair.h0.cols == 170

    def test_widths_must_agree(self, example1_bundle):
        pair = example1_bundle.pair
        with pytest.raises(ValueError, match="columns"):
            codes.NestedPair(h0=pair.h0, h1=BitMatrix(pair.h1.a[:, :-1]))


def nested(pair: codes.NestedPair) -> bool:
    """Every row of H1 in the row space of H0: one RREF, the encoder plan
    of H0."""
    return bool(EncoderPlan(pair.h0).in_row_space(pair.h1.a).all())


class TestVerifyNesting:
    def test_example1(self, example1_bundle):
        assert nested(example1_bundle.pair)

    def test_wimax(self, wimax_bundle):
        assert nested(wimax_bundle.pair)

    def test_one_elimination(self, wimax_bundle, eliminations):
        assert nested(wimax_bundle.pair)
        # the plan's [H0 | I]: 1152 + 600 columns in 28 words
        assert eliminations == [(600, 28)]

    def test_random_row_breaks_nesting(self, example1_bundle):
        pair = example1_bundle.pair
        rng = np.random.default_rng(99)
        rogue = rng.integers(0, 2, 170).astype(np.uint8)
        h1_bad = vstack(pair.h1, BitMatrix(rogue[None, :]))
        bad = codes.NestedPair(h0=pair.h0, h1=h1_bad)
        assert not nested(bad)

    def test_toy_nullspace_containment(self):
        # nesting implies nullspace(H0) subset of nullspace(H1), checked
        # exhaustively on the z=2 toy
        P = qc.ProtoMatrix.from_shifts([[0, 0], [0, 1]], 2)
        pair = codes.make_pair_row_sums(P, [(0,)])
        assert nested(pair)
        null0 = set(exhaustive_nullspace(pair.h0.a))
        null1 = set(exhaustive_nullspace(pair.h1.a))
        assert null0 <= null1

    def test_nullspace_membership_sampled(self, example1_bundle):
        pair = example1_bundle.pair
        basis = np.array(nullspace_basis(pair.h0))
        rng = np.random.default_rng(41)
        coeffs = rng.integers(0, 2, (200, basis.shape[0])).astype(np.uint8)
        words = coeffs @ basis % 2
        assert not (pair.h1.a @ words.T % 2).any()


class TestEvenWeight:
    def test_h1_codewords_have_even_weight(self, example1_bundle):
        pair = example1_bundle.pair
        basis = np.array(nullspace_basis(pair.h1))
        rng = np.random.default_rng(8)
        coeffs = rng.integers(0, 2, (300, basis.shape[0])).astype(np.uint8)
        words = coeffs @ basis % 2
        assert (words.sum(axis=1) % 2 == 0).all()

    def test_g0_codewords_have_even_weight_toy(self):
        P = qc.ProtoMatrix.from_shifts([[0, 1], [1, 0]], 3)
        pair = codes.make_pair_row_sums(P, [(0,)])
        for word in exhaustive_nullspace(pair.h0.a):
            assert sum(word) % 2 == 0
