import importlib.util
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_four_cycle
from qclattice import qc


@st.composite
def protos(draw, max_mb=4, max_nb=6, max_z=8, allow_doubles=True):
    m_b = draw(st.integers(1, max_mb))
    n_b = draw(st.integers(1, max_nb))
    z = draw(st.integers(2, max_z))
    cells = []
    for _ in range(m_b):
        row = []
        for _ in range(n_b):
            kind = draw(st.integers(0, 2 if allow_doubles else 1))
            if kind == 0:
                row.append(())
            elif kind == 1:
                row.append((draw(st.integers(0, z - 1)),))
            else:
                a = draw(st.integers(0, z - 1))
                b = draw(st.integers(0, z - 1))
                row.append((a,) if a == b else (a, b))
        cells.append(tuple(row))
    return qc.ProtoMatrix(m_b, n_b, z, tuple(cells))


@st.composite
def z96_protos(draw):
    # double cells are often near pairs, or a multiple of the scaled z
    # apart, so that each rule maps some of them to one exponent; the
    # tables have 24 columns, the only width the scaling rules take, with
    # up to 4 drawn ones ahead of empty cells
    m_b = draw(st.integers(1, 3))
    n_b = draw(st.integers(1, 4))
    gap = st.sampled_from([1, 2, 3, 24, 48, 72, 80]) | st.integers(1, 95)
    cell = st.one_of(st.just(()), st.tuples(st.integers(0, 95)),
                     st.builds(lambda a, d: (a, (a + d) % 96), st.integers(0, 95), gap))
    rows = draw(st.lists(st.lists(cell, min_size=n_b, max_size=n_b),
                         min_size=m_b, max_size=m_b))
    return qc.ProtoMatrix(m_b, 24, 96, tuple(tuple(r) + ((),) * (24 - n_b) for r in rows))


class TestExpand:
    def test_single_zero_shift_is_identity(self):
        P = qc.ProtoMatrix.from_shifts([[0]], 3)
        assert np.array_equal(qc.expand(P).a, np.eye(3, dtype=np.uint8))

    def test_empty_cell_is_zero_block(self):
        P = qc.ProtoMatrix(1, 1, 3, ((() ,),))
        assert not qc.expand(P).a.any()

    def test_shift_pattern(self):
        P = qc.ProtoMatrix.from_shifts([[2]], 4)
        A = qc.expand(P).a
        for r in range(4):
            assert A[r, (r + 2) % 4] == 1
        assert A.sum() == 4

    def test_double_cell_weight_two(self):
        P = qc.ProtoMatrix(1, 1, 5, (((1, 3),),))
        A = qc.expand(P).a
        assert (A.sum(axis=0) == 2).all() and (A.sum(axis=1) == 2).all()

    def test_example1_regular(self, example1_bundle):
        H = qc.expand(example1_bundle.proto)
        assert H.shape == (102, 170)
        assert (H.a.sum(axis=1) == 5).all()
        assert (H.a.sum(axis=0) == 3).all()

    @given(protos(allow_doubles=False))
    @settings(max_examples=40)
    def test_regularity_of_all_singleton_protos(self, P):
        if any(not c for row in P.cells for c in row):
            return
        A = qc.expand(P).a
        assert (A.sum(axis=0) == P.m_b).all()
        assert (A.sum(axis=1) == P.n_b).all()


class TestScaleShifts:
    def test_mod_example(self):
        P = qc.ProtoMatrix.from_shifts([[94] + [-1] * 23] * 12, 96)
        scaled = qc.scale(P, 1152, "mod")
        assert scaled.z == 48
        assert scaled.cells[0][0] == (94 % 48,) == (46,)

    def test_empty_cells_unchanged(self):
        P = qc.ProtoMatrix.from_shifts([[-1, 3] + [-1] * 22, [5] + [-1] * 23], 96)
        scaled = qc.scale(P, 1152, "mod")
        assert scaled.cells[0][0] == () and scaled.cells[1][1] == ()

    def test_identity_scaling(self):
        P = qc.ProtoMatrix.from_shifts([[7] + [-1] * 23], 96)
        assert qc.scale(P, 2304, "mod").cells[0][0] == (7,)

    @pytest.mark.parametrize("rule", ["mod", "floor"])
    @pytest.mark.parametrize("z, n, match", [(96, 1000, "integer circulant size"),
                                             (96, 0, "integer circulant size"),
                                             (48, 1152, "z=96 prototype")],
                             ids=["length", "zero-length", "base-z"])
    def test_bad_length(self, rule, z, n, match):
        P = qc.ProtoMatrix.from_shifts([[7]], z)
        with pytest.raises(qc.BadLengthError, match=match):
            qc.scale(P, n, rule)

    @pytest.mark.parametrize("rule", ["mod", "floor"])
    def test_width_other_than_24_refused(self, rule):
        # z = 96*n/2304 gives length n only to a 24-column table; a 1x2
        # table at n = 1152 once came out at length 96 without a word
        P = qc.ProtoMatrix.from_shifts([[0, 5]], 96)
        with pytest.raises(qc.BadLengthError) as e:
            qc.scale(P, 1152, rule)
        assert str(e.value) == ("the 1x2 prototype scales to length 96, not 1152; the "
                                "802.16e rule gives length n only to a 24-column table")

    def test_identity_scaling_preserves_expansion(self):
        rng = np.random.default_rng(0)
        P = qc.ProtoMatrix.from_shifts(rng.integers(-1, 96, (3, 24)), 96)
        assert qc.expand(qc.scale(P, 2304, "mod")) == qc.expand(P)

    def test_floor_rule(self):
        P = qc.ProtoMatrix.from_shifts([[94, 0] + [-1] * 22], 96)
        scaled = qc.scale(P, 1152, "floor")
        assert scaled.cells[0][:3] == ((47,), (0,), ())

    @pytest.mark.parametrize("rule, exponent", [
        ("mod", lambda e, z: e % z),
        ("floor", lambda e, z: e * z // 96),
    ], ids=["mod", "floor"])
    @pytest.mark.parametrize("n", [576, 1152, 1920])
    @given(P=z96_protos())
    @settings(max_examples=100, deadline=None)
    def test_rule_is_its_exponent_map(self, rule, exponent, n, P):
        # each block is the GF(2) sum of the CPMs of its mapped exponents,
        # so a double cell whose two exponents meet is the zero block
        z = 96 * n // 2304
        expected = np.zeros((P.m_b * z, P.n_b * z), dtype=np.uint8)
        for i, row in enumerate(P.cells):
            for j, cell in enumerate(row):
                for e in cell:
                    cpm = np.roll(np.eye(z, dtype=np.uint8), exponent(e, z), axis=1)
                    expected[i * z:(i + 1) * z, j * z:(j + 1) * z] ^= cpm
        assert np.array_equal(qc.expand(qc.scale(P, n, rule)).a, expected)


class TestApplyEdits:
    def test_empty_edits(self):
        P = qc.ProtoMatrix.from_shifts([[1, 2], [3, 4]], 5)
        assert qc.apply_edits(P, []) == P

    def test_single_edit(self):
        P = qc.ProtoMatrix(1, 1, 8, (((),),))
        Q = qc.apply_edits(P, [(0, 0, (5,))])
        assert Q.cells[0][0] == (5,)

    def test_cell_edited_twice_refused(self):
        # the last edit of a cell once replaced the earlier ones silently
        P = qc.ProtoMatrix.from_shifts([[1, 2], [3, 4]], 5)
        with pytest.raises(ValueError, match=r"cell \(1, 0\) is edited twice"):
            qc.apply_edits(P, [(1, 0, (2,)), (0, 1, ()), (1, 0, (4,))])

    def test_out_of_range(self):
        P = qc.ProtoMatrix.from_shifts([[1]], 4)
        with pytest.raises(qc.OutOfRangeError):
            qc.apply_edits(P, [(1, 0, (0,))])

    def test_wimax_row1_cells(self, wimax_bundle):
        # after scaling and the five edits, block row 1 has CPMs exactly at
        # columns 1,5,7,11,12,13,14 and cell (1,6) is cleared
        P = wimax_bundle.proto
        occupied = tuple(j for j in range(24) if P.cells[1][j])
        assert occupied == (1, 5, 7, 11, 12, 13, 14)
        assert P.cells[1][6] == ()
        assert P.cells[1][12] == (33,)
        assert P.cells[4][15] == (6,)
        assert P.cells[8][18] == (10,)
        assert P.cells[10][19] == (46,)

    def test_edit_then_expand_is_block_replacement(self):
        rng = np.random.default_rng(4)
        P = qc.ProtoMatrix.from_shifts(rng.integers(-1, 6, (3, 4)), 6)
        Q = qc.apply_edits(P, [(1, 2, (3,))])
        A, B = qc.expand(P).a.copy(), qc.expand(Q).a
        blk = np.zeros((6, 6), dtype=np.uint8)
        blk[np.arange(6), (np.arange(6) + 3) % 6] = 1
        A[6:12, 12:18] = blk
        assert np.array_equal(A, B)


class TestFourCycle:
    def test_two_by_two_all_zero_shifts(self):
        P = qc.ProtoMatrix.from_shifts([[0, 0], [0, 0]], 2)
        assert qc.has_four_cycle(P) is True

    def test_cycle_free_small(self):
        P = qc.ProtoMatrix.from_shifts([[0, 1], [0, 0]], 3)
        assert qc.has_four_cycle(P) is False
        assert brute_four_cycle(qc.expand(P).a) is False

    def test_wimax_modified_cycle_free(self, wimax_bundle):
        assert qc.has_four_cycle(wimax_bundle.proto) is False

    def test_double_cell_self_cycle(self):
        # 2*(a1-a2) = 0 mod z creates a cycle inside one block
        P = qc.ProtoMatrix(1, 2, 4, (((0, 2), (1,)),))
        assert qc.has_four_cycle(P) is True
        assert brute_four_cycle(qc.expand(P).a) is True

    @given(protos())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, P):
        assert qc.has_four_cycle(P) == brute_four_cycle(qc.expand(P).a)

    def test_matches_brute_force_bulk(self):
        # seeded bulk sweep, >= 10^4 random prototypes up to 4x6, z <= 8
        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(10_000):
            m_b = int(rng.integers(1, 5))
            n_b = int(rng.integers(1, 7))
            z = int(rng.integers(2, 9))
            cells = []
            for _ in range(m_b):
                row = []
                for _ in range(n_b):
                    kind = rng.integers(0, 3)
                    if kind == 0:
                        row.append(())
                    elif kind == 1:
                        row.append((int(rng.integers(0, z)),))
                    else:
                        pair = rng.choice(z, size=2, replace=False)
                        row.append(tuple(int(x) for x in pair))
                cells.append(tuple(row))
            P = qc.ProtoMatrix(m_b, n_b, z, tuple(cells))
            if qc.has_four_cycle(P) != brute_four_cycle(qc.expand(P).a):
                mismatches += 1
        assert mismatches == 0


class TestTextFormats:
    def test_roundtrip(self):
        # a whole file: header, an empty cell and a double cell
        P = qc.ProtoMatrix(2, 3, 9, (((0,), (), (3, 7)), ((8,), (1,), ())))
        assert qc.parse_proto("2 3 9\n0 -1 3+7\n8 1 -1\n") == P

    def test_cell_tokens(self):
        assert qc.parse_cell_token("-1") == ()
        assert qc.parse_cell_token("4") == (4,)
        assert qc.parse_cell_token("3+7") == (3, 7)

    def test_parse_edits(self):
        edits = qc.parse_edits("# comment\n1 2 -1\n0 0 3+4\n")
        assert edits == [(1, 2, ()), (0, 0, (3, 4))]

    def test_bundled_files_load(self):
        assert qc.parse_proto(qc.bundled_text("example1_3x5_z34.txt")).z == 34
        assert qc.parse_proto(qc.bundled_text("wimax_r12_z96.txt")).z == 96
        assert len(qc.parse_edits(qc.bundled_text("wimax_r12_edits_n1152.txt"))) == 5

    def test_bundled_text_reads_its_own_copy(self, tmp_path):
        # a copy of the package loaded under another name, as an in-process
        # A/B of two checkouts loads it, reads its own data files
        copy = tmp_path / "qclattice_copy"
        shutil.copytree(Path(qc.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "data" / "example1_3x5_z34.txt").write_text("1 2 5\n0 3\n")
        spec = importlib.util.spec_from_file_location(
            copy.name, copy / "__init__.py", submodule_search_locations=[str(copy)])
        pkg = importlib.util.module_from_spec(spec)
        sys.modules[copy.name] = pkg
        try:
            spec.loader.exec_module(pkg)
            copy_qc = sys.modules[f"{copy.name}.qc"]
            assert Path(copy_qc.__file__) == copy / "qc.py"
            P = copy_qc.parse_proto(copy_qc.bundled_text("example1_3x5_z34.txt"))
        finally:
            for name in [k for k in sys.modules if k.split(".")[0] == copy.name]:
                del sys.modules[name]
        assert (P.m_b, P.n_b, P.z, P.cells) == (1, 2, 5, (((0,), (3,)),))
        assert qc.parse_proto(qc.bundled_text("example1_3x5_z34.txt")).z == 34

    def test_header_errors(self):
        with pytest.raises(ValueError):
            qc.parse_proto("1 2\n0 0\n")
        with pytest.raises(ValueError):
            qc.parse_proto("1 2 4\n0\n")
