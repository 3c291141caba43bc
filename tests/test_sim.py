import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import lattice_points_in_box, wrapped_logpdf
from qclattice import codec, codes, lattice, qc, sim
from qclattice.gf2 import nullspace_basis


class TestConversions:
    def test_snr_examples(self):
        assert sim.snr_to_sigma2(0.0) == pytest.approx(1.0)
        assert sim.snr_to_sigma2(3.0) == pytest.approx(0.5011872336272722, rel=1e-12)
        assert sim.snr_to_sigma2(-3.0) == pytest.approx(1.9952623149688795, rel=1e-12)

    def test_vnr_examples(self):
        assert sim.vnr_to_sigma2(0.0, 1.0) == pytest.approx(0.05854983152431917, rel=1e-12)
        assert sim.vnr_to_sigma2(10.0, 1.0) == pytest.approx(0.005854983152431917, rel=1e-12)

    def test_example1_poltyrev_point(self, example1_bundle):
        nv = example1_bundle.profile.normalized_volume
        assert nv == pytest.approx(3.1619591151679227, rel=1e-12)
        assert sim.vnr_to_sigma2(0.0, nv) == pytest.approx(0.18513217347986718, rel=1e-12)

    def test_roundtrips(self):
        for db in (-5.0, 0.0, 2.5, 17.0):
            assert sim.sigma2_to_snr(sim.snr_to_sigma2(db)) == pytest.approx(db, abs=1e-12)
            assert sim.sigma2_to_vnr(sim.vnr_to_sigma2(db, 2.7), 2.7) == pytest.approx(db, abs=1e-12)

    def test_channel_params_consistency(self):
        cp = sim.ChannelParams.from_snr_db(4.2, normalized_volume=3.0)
        assert sim.snr_to_sigma2(cp.snr_db) == pytest.approx(cp.sigma2, rel=1e-12)
        assert sim.vnr_to_sigma2(cp.vnr_db, 3.0) == pytest.approx(cp.sigma2, rel=1e-12)
        cp2 = sim.ChannelParams.from_vnr_db(cp.vnr_db, 3.0)
        assert cp2.sigma2 == pytest.approx(cp.sigma2, rel=1e-12)


class TestFolding:
    def test_wrapped_density_normalizes(self):
        # the mod-2 folded density must integrate to 1 over one period
        for sigma in (0.2, 0.5, 1.0):
            def pdf(y, s=sigma):
                return float(np.exp(codec.wrapped_log_density(np.array([y]), s, 0))[0])
            val, _ = quad(pdf, 0.0, 2.0, limit=200)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_density_matches_reference(self):
        y = np.linspace(0.01, 1.99, 23)
        for sigma in (0.3, 0.8):
            got = codec.wrapped_log_density(y, sigma, 1)
            ref = wrapped_logpdf(y, sigma, 1)
            assert np.allclose(got, ref, rtol=1e-9)


class TestSweepCode:
    def test_high_snr_no_errors(self, example1_bundle):
        rep = sim.sweep_code(example1_bundle.pair.h0, example1_bundle.plan0, [40.0],
                             max_trials=1000, target_errors=1000, seed=5,
                             label="example1:g0")[0]
        assert rep.trials == 1000
        assert rep.block_errors == 0
        assert rep.iterations_mean == pytest.approx(0.0)

    def test_deterministic(self, example1_bundle):
        kw = dict(max_trials=400, target_errors=40, seed=9, label="example1:g0")
        a = sim.sweep_code(example1_bundle.pair.h0, example1_bundle.plan0, [7.0], **kw)
        b = sim.sweep_code(example1_bundle.pair.h0, example1_bundle.plan0, [7.0], **kw)
        assert a == b

    def test_batch_size_invariance(self, example1_bundle):
        kw = dict(max_trials=300, target_errors=30, seed=9, label="example1:g0")
        a = sim.sweep_code(example1_bundle.pair.h0, example1_bundle.plan0, [7.0],
                           batch=64, **kw)
        b = sim.sweep_code(example1_bundle.pair.h0, example1_bundle.plan0, [7.0],
                           batch=77, **kw)
        assert a == b

    def test_stop_rule_serial_semantics(self, example1_bundle):
        # at SNR where every frame fails, exactly target_errors trials run
        rep = sim.sweep_code(example1_bundle.pair.h0, example1_bundle.plan0, [0.0],
                             max_trials=5000, target_errors=25, seed=3,
                             label="example1:g0")[0]
        assert rep.trials == 25
        assert rep.block_errors == 25

    def test_spa_close_to_ml_at_moderate_noise(self):
        # exhaustive-codebook ML on the same noise stream; at SNR 9 dB the
        # sum-product decoder matches ML within 3 Monte Carlo sigma
        H = codes.build_spc(3, 3)
        plan = codec.plan_level(H)
        N, seed = 4000, 31
        rep = sim.sweep_code(H, plan, [9.0], max_trials=N, target_errors=N,
                             seed=seed, label="spc33")[0]
        assert rep.bler == pytest.approx(0.1625, abs=0.0005)  # frozen, deterministic
        ml = _ml_bler_spc33(plan, H, seed, 9.0, N)
        p = max(rep.bler, ml)
        assert abs(rep.bler - ml) <= 3 * math.sqrt(p * (1 - p) / N)

    @pytest.mark.parametrize("bad", [{"max_trials": 0}, {"target_errors": 0},
                                     {"seed": -1}, {"max_iter": -3}],
                             ids=["max_trials", "target_errors", "seed", "max_iter"])
    def test_bad_arguments_rejected(self, example1_bundle, bad):
        b = example1_bundle
        kwargs = {"max_trials": 4, "target_errors": 4, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            sim.sweep_code(b.pair.h0, b.plan0, [9.0], **kwargs)
        with pytest.raises(ValueError, match=next(iter(bad))):
            sim.sweep_lattice(b.pair, b.plans, b.profile.normalized_volume, [3.0],
                              **kwargs)

    def test_spa_lower_bounded_by_ml_in_deep_noise(self):
        # at SNR 6 dB the loopy-graph decoder is measurably worse than ML;
        # the ML simulation still lower-bounds it
        H = codes.build_spc(3, 3)
        plan = codec.plan_level(H)
        N, seed = 2000, 31
        rep = sim.sweep_code(H, plan, [6.0], max_trials=N, target_errors=N,
                             seed=seed, label="spc33")[0]
        ml = _ml_bler_spc33(plan, H, seed, 6.0, N)
        p = max(rep.bler, ml)
        assert rep.bler >= ml - 3 * math.sqrt(p * (1 - p) / N)


def _ml_bler_spc33(plan, H, seed, snr_db, trials):
    basis = np.array(nullspace_basis(H))
    codebook = np.zeros((16, 10), dtype=np.uint8)
    for i in range(16):
        bits = np.array([(i >> j) & 1 for j in range(4)], dtype=np.uint8)
        codebook[i, 0] = 1
        codebook[i, 1:] = bits @ basis % 2
    sigma = math.sqrt(sim.snr_to_sigma2(snr_db))
    errors = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, 0, trial])
        info = rng.integers(0, 2, plan.num_info).astype(np.uint8)
        noise = rng.normal(size=10)
        cw = plan.encode_batch(np.zeros((1, H.rows), np.uint8), info.reshape(1, -1))[0]
        sent = np.concatenate([[1], cw]).astype(np.uint8)
        y = np.mod(sent + sigma * noise, 2.0)
        ll0 = wrapped_logpdf(y, sigma, 0)
        ll1 = wrapped_logpdf(y, sigma, 1)
        scores = np.where(codebook == 0, ll0, ll1).sum(axis=1)
        if not np.array_equal(codebook[int(np.argmax(scores))], sent):
            errors += 1
    return errors / trials


@pytest.fixture(scope="module")
def toy():
    P = qc.ProtoMatrix.from_shifts([[0, 0]], 2)
    pair = codes.make_pair_block_row(P, 0)
    fam = lattice.make_family(pair)
    plans = (codec.plan_level(pair.h0), codec.plan_level(pair.h1))
    nv = 4.0 ** (2 - 0.2 - 0.2)  # k0 = k1 = 1, N = 5
    return pair, fam, plans, nv


class TestSweepLattice:
    def test_high_vnr_no_errors(self, example1_bundle):
        b = example1_bundle
        rep = sim.sweep_lattice(b.pair, b.plans, b.profile.normalized_volume, [40.0],
                                max_trials=1000, target_errors=1000, seed=2,
                                label="example1")[0]
        assert rep.block_errors == 0
        assert rep.trials == 1000

    def test_deterministic_and_batch_invariant(self, toy):
        pair, fam, plans, nv = toy
        kw = dict(max_trials=500, target_errors=500, seed=7, label="toy")
        a = sim.sweep_lattice(pair, plans, nv, [7.0], batch=128, **kw)
        b = sim.sweep_lattice(pair, plans, nv, [7.0], batch=61, **kw)
        assert a == b

    def test_stage_attribution_sums(self, toy):
        pair, fam, plans, nv = toy
        rep = sim.sweep_lattice(pair, plans, nv, [6.0], max_trials=2000,
                                target_errors=2000, seed=13, label="toy")[0]
        assert rep.block_errors > 0
        assert (rep.stage0_errors + rep.stage1_errors + rep.integer_errors
                == rep.block_errors)

    def test_multistage_versus_nearest_point_oracle(self, toy):
        # shared noise stream; exact nearest-point decoding via the four
        # cosets of 4Z^4, multistage cannot beat it and the gap stays small
        pair, fam, plans, nv = toy
        M, seed, vnr = 4000, 77, 7.0
        rep = sim.sweep_lattice(pair, plans, nv, [vnr], max_trials=M,
                                target_errors=M, seed=seed, label="toy")[0]
        assert rep.bler == pytest.approx(0.017, abs=0.0005)  # frozen, deterministic
        sigma = math.sqrt(sim.vnr_to_sigma2(vnr, nv))
        reps_mod4 = np.array(lattice_points_in_box(fam.rows, fam.m1, 0, 3),
                             dtype=np.int64)
        assert len(reps_mod4) == 4
        ml_errors = 0
        for trial in range(M):
            rng = np.random.default_rng([seed, 0, trial])
            i0 = rng.integers(0, 2, 1).astype(np.uint8)
            i1 = rng.integers(0, 2, 1).astype(np.uint8)
            zv = rng.integers(-2, 3, 4)
            z0 = int(rng.integers(-2, 3))
            noise = rng.normal(size=5)
            w = codec.encode_lattice(pair, plans, i0, i1, zv, z0)
            y = w.x + sigma * noise
            x0 = 3 + 4 * int(np.rint((y[0] - 3) / 4))
            cand = reps_mod4 + 4 * np.rint((y[1:] - reps_mod4) / 4).astype(np.int64)
            d2 = ((y[1:] - cand) ** 2).sum(axis=1)
            best = cand[int(np.argmin(d2))]
            if x0 != w.x[0] or not np.array_equal(best, w.x[1:]):
                ml_errors += 1
        ml = ml_errors / M
        p = max(rep.bler, ml)
        noise3 = 3 * math.sqrt(p * (1 - p) / M)
        assert rep.bler >= ml - noise3          # optimal decoder lower-bounds
        assert rep.bler <= 12 * ml + noise3     # but the gap stays bounded

    def test_paired_noise_mode(self, toy):
        pair, fam, plans, nv = toy
        reps = sim.sweep_lattice(pair, plans, nv, [5.0, 7.0, 9.0],
                                 max_trials=800, target_errors=800, seed=4,
                                 label="toy", paired_noise=True)
        blers = [r.bler for r in reps]
        assert blers == sorted(blers, reverse=True)
