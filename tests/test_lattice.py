import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import kernel_rank, lattice_points_in_box
from qclattice import codec, codes, lattice, presets, qc
from qclattice.gf2 import BitMatrix, vstack


@pytest.fixture(scope="module")
def toy_pair():
    # all-{0} 1x2 prototype at z=2: n=4, H1 = H0
    P = qc.ProtoMatrix.from_shifts([[0, 0]], 2)
    return codes.make_pair_row_sums(P, [(0,)])


class TestIsNested:
    def test_not_nested_raises(self, example1_bundle):
        pair = example1_bundle.pair
        rng = np.random.default_rng(1)
        bad_h1 = vstack(pair.h1, BitMatrix(rng.integers(0, 2, (1, 170)).astype(np.uint8)))
        bad = codes.NestedPair(h0=pair.h0, h1=bad_h1)
        assert lattice.is_nested(pair, example1_bundle.plan0) is True
        assert lattice.is_nested(bad, example1_bundle.plan0) is False
        with pytest.raises(lattice.NotNestedError):
            presets._bundle("bad", example1_bundle.proto, bad, (16, 4))

    def test_weight_one_row_refused(self, example1_bundle):
        # H1 plus e_0, which H0's row space does not hold
        pair = example1_bundle.pair
        e0 = BitMatrix(np.eye(1, 170, dtype=np.uint8))
        assert kernel_rank(vstack(pair.h0, e0)) == kernel_rank(pair.h0) + 1
        bad = dataclasses.replace(pair, h1=vstack(pair.h1, e0))
        assert lattice.is_nested(bad, example1_bundle.plan0) is False

    def test_plan_of_another_matrix_refused(self, example1_bundle):
        pair = example1_bundle.pair
        # H1's plan, and a plan of H0's rows reversed (same row space)
        for plan in (example1_bundle.plan1,
                     codec.EncoderPlan(BitMatrix(pair.h0.a[::-1]))):
            with pytest.raises(ValueError, match="plan0 must be"):
                lattice.is_nested(pair, plan)


class TestBundle:
    @pytest.mark.parametrize("name", ["example1", "wimax1152"])
    def test_uncached_bundle_runs_two_eliminations(self, name, eliminations):
        # the two encoder plans, and nothing else
        b = presets.BUILTIN_LATTICES[name].__wrapped__()
        m0, m1 = b.pair.h0.rows, b.pair.h1.rows
        assert [shape[0] for shape in eliminations] == [m0, m1]

    def test_non_nested_pair_refused_under_optimize(self):
        # nesting is a real check, not an assert, so the bundle path
        # still refuses under python -O
        script = (
            "import dataclasses\n"
            "import numpy as np\n"
            "from qclattice import codes, lattice, presets, qc\n"
            "from qclattice.gf2 import BitMatrix, vstack\n"
            "proto = qc.example1_proto()\n"
            "pair = codes.make_pair_row_sums(proto, [(0,)])\n"
            "h1 = vstack(pair.h1, BitMatrix(np.eye(1, 170, dtype=np.uint8)))\n"
            "bad = dataclasses.replace(pair, h1=h1)\n"
            "try:\n"
            "    presets._bundle('bad', proto, bad, (16, 4))\n"
            "except lattice.NotNestedError:\n"
            "    print('debug', __debug__, 'refused')\n")
        env = dict(os.environ)
        src_dir = str(Path(lattice.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "debug False refused"


class TestMembership:
    def test_zero_is_member(self, toy_pair):
        assert lattice.is_member(toy_pair, np.zeros(4, dtype=int))

    def test_4z_subset(self, toy_pair):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = 4 * rng.integers(-3, 4, 4)
            assert lattice.is_member(toy_pair, x)

    def test_toy_box_matches_enumeration(self, toy_pair):
        expected = set(lattice_points_in_box(toy_pair, -2, 2))
        got = {p for p in itertools.product(range(-2, 3), repeat=4)
               if lattice.is_member(toy_pair, np.array(p))}
        assert got == expected
        assert len(got) == 19  # frozen from the enumeration oracle

    def test_closed_under_addition_and_negation(self, toy_pair):
        members = [np.array(p) for p in lattice_points_in_box(toy_pair, -2, 2)]
        for a in members:
            assert lattice.is_member(toy_pair, -a)
            for b in members:
                assert lattice.is_member(toy_pair, a + b)

    def test_richer_toy_box(self):
        # two block rows at z=2 so levels differ
        P = qc.ProtoMatrix.from_shifts([[0, 1], [0, 0]], 2)
        pair = codes.make_pair_row_sums(P, [(1,)])
        assert (pair.h1.rows, pair.h0.rows) == (4, 6)
        expected = set(lattice_points_in_box(pair, -2, 2))
        got = {p for p in itertools.product(range(-2, 3), repeat=4)
               if lattice.is_member(pair, np.array(p))}
        assert got == expected
        assert len(got) == 19  # as with the reduced family (H0's rows in H1 dropped)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_prototypes_match_enumeration(self, data):
        # small random prototypes, one or two block rows, n = z * n_b <= 6
        z = data.draw(st.integers(1, 3), label="z")
        n_b = data.draw(st.integers(2, 6 // z), label="n_b")
        m_b = data.draw(st.integers(1, 2), label="m_b")
        shifts = data.draw(st.lists(st.lists(st.integers(-1, z - 1), min_size=n_b,
                                             max_size=n_b),
                                    min_size=m_b, max_size=m_b), label="shifts")
        groups = data.draw(st.lists(st.lists(st.integers(0, m_b - 1), min_size=1,
                                             max_size=m_b),
                                    min_size=1, max_size=2), label="groups")
        P = qc.ProtoMatrix.from_shifts(shifts, z)
        try:
            pair = codes.make_pair_row_sums(P, groups)
        except codes.BadGroupsError:
            assume(False)
        assert lattice.is_nested(pair, codec.EncoderPlan(pair.h0))
        expected = set(lattice_points_in_box(pair, -2, 2))
        got = {p for p in itertools.product(range(-2, 3), repeat=pair.n)
               if lattice.is_member(pair, np.array(p))}
        assert got == expected

    def test_same_lattice_as_reduced_family(self, example1_bundle):
        # the congruences once listed at level 0 only the rows of H0 that
        # are not rows of H1; the rows H0 adds repeat level-1 congruences
        # mod 2
        b = example1_bundle
        pair = b.pair
        h1_rows = {r.tobytes() for r in pair.h1.a}
        level0 = [r for r in pair.h0.a if r.tobytes() not in h1_rows]
        reduced = np.vstack([pair.h1.a, level0]).astype(np.int64)
        assert len(reduced) == 107

        def reduced_member(x):
            dots = reduced @ x
            return not (dots[:pair.h1.rows] % 4).any() and not (dots[pair.h1.rows:] % 2).any()

        rng = np.random.default_rng(23)
        t = 60
        z = rng.integers(-2, 3, (t, 171))
        _, _, x = codec.encode_lattice(b.plans, rng.integers(0, 2, (t, 68)),
                                       rng.integers(0, 2, (t, 132)), z)
        points = [p[1:] for p in x]
        for p in x[:, 1:]:
            for delta in (1, 2, 3):
                q = p.copy()
                q[rng.integers(170)] += delta
                points.append(q)
        answers = [lattice.is_member(pair, p) for p in points]
        assert answers == [reduced_member(p) for p in points]
        assert all(answers[:t]) and not any(answers[t:])

    def test_wrong_length_refused(self, toy_pair):
        with pytest.raises(ValueError, match="length-4"):
            lattice.is_member(toy_pair, np.zeros(5, dtype=int))

    @pytest.mark.parametrize("value", [0.5, 4.7, -2.5, np.nan, np.inf])
    def test_non_integer_point_refused(self, example1_bundle, value):
        # the point was once cast to int64 first: 0.5 and 4.7 passed as 0 and 4
        x = np.zeros(170)
        x[7] = value
        with pytest.raises(ValueError, match="must be an integer"):
            lattice.is_member(example1_bundle.pair, x)

    def test_integral_floats_accepted(self, example1_bundle):
        # 2^70 is a multiple of 4 that int64 cannot hold
        pair = example1_bundle.pair
        assert lattice.is_member(pair, np.full(170, 4.0))
        assert lattice.is_member(pair, np.full(170, 2.0 ** 70))
        assert not lattice.is_member(pair, np.eye(170)[7])


def code_dimensions(pair: codes.NestedPair) -> tuple[int, int]:
    """(k0, k1) with k_l = n - rank(H_l)."""
    return pair.n - kernel_rank(pair.h0), pair.n - kernel_rank(pair.h1)


class TestDimensions:
    def test_example1(self, example1_bundle):
        # the preset takes k from its encoder plans' ranks
        b = example1_bundle
        assert b.profile.k == code_dimensions(b.pair) == (68, 132)

    def test_wimax(self, wimax_bundle):
        b = wimax_bundle
        assert b.profile.k == code_dimensions(b.pair) == (564, 1034)

    def test_h0_equals_h1(self, toy_pair):
        k0, k1 = code_dimensions(toy_pair)
        assert k0 == k1 == 1


class TestVolumeGain:
    def test_trivial_rates(self):
        prof = lattice.profile((10, 10), 10, (4, 1))
        assert prof.d2min == 4
        assert prof.normalized_volume == pytest.approx(1.0)
        assert prof.gain_db == pytest.approx(10 * np.log10(4.0))

    def test_example1_gain(self, example1_bundle):
        prof = lattice.profile((68, 132), 171, (16, 4))
        assert prof == example1_bundle.profile
        assert prof.normalized_volume == pytest.approx(3.1619591151679227, rel=1e-12)
        assert prof.gain_db == pytest.approx(7.04, abs=0.005)

    def test_wimax_gain(self):
        prof = lattice.profile((564, 1034), 1153, (25, 4))
        assert prof.gain_db == pytest.approx(8.34, abs=0.005)


class TestDminBounds:
    # the design bound d2min = min(d0, 4 d1, 16), computed by the profile

    def test_balanced_pair(self):
        assert lattice.profile((68, 132), 171, (16, 4)).d2min == 16

    def test_weak_codes(self):
        assert lattice.profile((68, 132), 171, (1, 1)).d2min == 1

    def test_overshoot_capped(self):
        prof = lattice.profile((68, 132), 171, (25, 4))
        assert prof.d2min == 16 and prof.d == (25, 4)

    def test_rejects_nonpositive(self):
        for N, d in [(171, (0, 4)), (171, (16, -1)), (0, (16, 4))]:
            with pytest.raises(ValueError, match="must be >= 1"):
                lattice.profile((68, 132), N, d)


class TestBalancedCheck:
    def test_examples(self):
        assert lattice.balanced_check((16, 4)) is True
        assert lattice.balanced_check((16, 5)) is False
        assert lattice.balanced_check((4, 1)) is True
        assert lattice.balanced_check((25, 4)) is False
