import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (toy_lattice, toy_nearest_point_errors, wrapped_log_density,
                     wrapped_logpdf)
from qclattice import codec, codes, sim
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
            snr = -10.0 * math.log10(sim.snr_to_sigma2(db))
            vnr = 10.0 * math.log10(2.7 / (sim.TWO_PI_E * sim.vnr_to_sigma2(db, 2.7)))
            assert snr == pytest.approx(db, abs=1e-12)
            assert vnr == pytest.approx(db, abs=1e-12)


class TestFolding:
    def test_wrapped_density_normalizes(self):
        # the mod-2 folded density must integrate to 1 over one period
        for sigma in (0.2, 0.5, 1.0):
            def pdf(y, s=sigma):
                return float(np.exp(wrapped_log_density(np.array([y]), s, 0))[0])
            val, _ = quad(pdf, 0.0, 2.0, limit=200)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_density_matches_reference(self):
        y = np.linspace(0.01, 1.99, 23)
        for sigma in (0.3, 0.8):
            got = wrapped_log_density(y, sigma, 1)
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

    def test_llr_reads_the_unfolded_channel_output(self, example1_bundle, monkeypatch):
        # the LLR's own fold reads y modulo 2, so the sweep hands it
        # word + sigma * noise exactly, with no rounding fold before it
        seen = []

        def spy(y, sigma):
            seen.append((y.copy(), sigma))
            return codec.wrapped_llr(y, sigma)

        monkeypatch.setattr(sim, "wrapped_llr", spy)
        H, plan = example1_bundle.pair.h0, example1_bundle.plan0
        sim.sweep_code(H, plan, [3.0], max_trials=40, target_errors=1000, seed=4,
                       batch=16)
        sigma = math.sqrt(sim.snr_to_sigma2(3.0))
        infos, noise = sim.trial_draws(4, 0, 0, 40,
                                       (sim.Integers(0, 2, plan.num_info, np.uint8),
                                        sim.Normals(H.cols + 1)))
        want = plan.encode_batch(None, infos) + sigma * noise[:, 1:]
        assert [s for _, s in seen] == [sigma] * 3
        got = np.concatenate([y for y, _ in seen])
        assert np.array_equal(got, want)
        assert (got < 0).any() and (got >= 2).any()

    def test_spa_close_to_ml_at_moderate_noise(self):
        # exhaustive-codebook ML on the same noise stream; at SNR 9 dB the
        # sum-product decoder matches ML within 3 Monte Carlo sigma
        H = codes.build_spc(3, 3)
        plan = codec.EncoderPlan(H)
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
        plan = codec.EncoderPlan(H)
        N, seed = 2000, 31
        rep = sim.sweep_code(H, plan, [6.0], max_trials=N, target_errors=N,
                             seed=seed, label="spc33")[0]
        ml = _ml_bler_spc33(plan, H, seed, 6.0, N)
        p = max(rep.bler, ml)
        assert rep.bler >= ml - 3 * math.sqrt(p * (1 - p) / N)


class TestSweepRefusals:
    """Input a sweep refuses before its first trial (``trial_draws`` is
    never called): plans of other matrices, which once gave plausible
    wrong counts or a shape error deep in numpy, and points whose noise
    the channel cannot represent, which once raised OverflowError or
    ZeroDivisionError or hung in the LLR window."""

    @pytest.fixture
    def no_trials(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "trial_draws", lambda *a, **kw: calls.append(a))
        yield
        assert calls == []

    @pytest.mark.parametrize("h, plan", [("h1", "plan0"), ("h0", "plan1")])
    def test_code_plan_of_another_matrix(self, example1_bundle, no_trials, h, plan):
        b = example1_bundle
        with pytest.raises(ValueError, match="^plan was built for a .* other than"):
            sim.sweep_code(getattr(b.pair, h), getattr(b, plan), [12.0],
                           max_trials=64, target_errors=64, seed=1)

    @pytest.mark.parametrize("swap, level", [((1, 0), "level-0"), ((0, 0), "level-1")])
    def test_lattice_plans_of_other_matrices(self, example1_bundle, no_trials, swap,
                                             level):
        b = example1_bundle
        plans = tuple(b.plans[i] for i in swap)
        with pytest.raises(ValueError, match=f"^{level} plan"):
            sim.sweep_lattice(b.pair, plans, b.profile.normalized_volume, [2.0],
                              max_trials=64, target_errors=64, seed=1)

    @pytest.mark.parametrize("points, named", [
        ([12.0, -4000.0], "SNR -4000 dB"), ([12.0, -300.0], "SNR -300 dB"),
        ([12.0, 3200.0], "SNR 3200 dB")])
    def test_code_points_out_of_range(self, example1_bundle, no_trials, points, named):
        b = example1_bundle
        with pytest.raises(ValueError, match=f"^{named}: "):
            sim.sweep_code(b.pair.h0, b.plan0, points, max_trials=4, target_errors=4)

    @pytest.mark.parametrize("point", [4000.0, -4000.0])
    def test_lattice_points_out_of_range(self, example1_bundle, no_trials, point):
        b = example1_bundle
        with pytest.raises(ValueError, match=f"^VNR {point:g} dB: "):
            sim.sweep_lattice(b.pair, b.plans, b.profile.normalized_volume,
                              [3.0, point], max_trials=4, target_errors=4)

    @pytest.mark.parametrize("sweep, points, named", [
        ("code", [4.0, 5.0, 4.0], "SNR 4 dB"), ("lattice", [4.0, 4.0], "VNR 4 dB"),
        ("lattice", [0.0, -0.0], "VNR -0 dB")])
    def test_point_listed_twice(self, example1_bundle, no_trials, sweep, points, named):
        # two rows of one operating point would come from two streams
        b = example1_bundle
        with pytest.raises(ValueError, match=f"^{named} is listed twice"):
            if sweep == "code":
                sim.sweep_code(b.pair.h0, b.plan0, points, max_trials=4, target_errors=4)
            else:
                sim.sweep_lattice(b.pair, b.plans, b.profile.normalized_volume, points,
                                  max_trials=4, target_errors=4)

    def test_sigma_range_is_the_codec_range(self):
        # a sweep accepts the sigmas wrapped_llr accepts, at both levels
        lo, hi = codec.SIGMA_RANGE
        assert len(codec._llr_coefficients(hi)[1]) == 51_811
        assert sim._point_sigmas("SNR", [1.0], lambda db: hi) == [hi]
        for bad in (np.nextafter(hi, np.inf), lo):    # lo / 2 is out of range
            with pytest.raises(ValueError, match="^SNR 1 dB: sigma must be in"):
                sim._point_sigmas("SNR", [1.0], lambda db: bad)


def _ml_bler_spc33(plan, H, seed, snr_db, trials):
    basis = np.array(nullspace_basis(H))
    codebook = np.zeros((16, 10), dtype=np.uint8)
    for i in range(16):
        bits = np.array([(i >> j) & 1 for j in range(4)], dtype=np.uint8)
        codebook[i, 0] = 1
        codebook[i, 1:] = bits @ basis % 2
    sigma = math.sqrt(sim.snr_to_sigma2(snr_db))
    infos, noise = sim.trial_draws(seed, 0, 0, trials,
                                   (sim.Integers(0, 2, plan.num_info, np.uint8),
                                    sim.Normals(10)))
    cw = plan.encode_batch(np.zeros((trials, H.rows), np.uint8), infos)
    sent = np.concatenate([np.ones((trials, 1), np.uint8), cw], axis=1)
    y = np.mod(sent + sigma * noise, 2.0)
    ll0 = wrapped_logpdf(y, sigma, 0)
    ll1 = wrapped_logpdf(y, sigma, 1)
    scores = np.where(codebook == 0, ll0[:, None], ll1[:, None]).sum(axis=2)
    return float((codebook[np.argmax(scores, axis=1)] != sent).any(axis=1).mean())


@pytest.fixture(scope="module")
def toy():
    return toy_lattice()


class TestSweepLattice:
    def test_high_vnr_no_errors(self, example1_bundle):
        b = example1_bundle
        rep = sim.sweep_lattice(b.pair, b.plans, b.profile.normalized_volume, [40.0],
                                max_trials=1000, target_errors=1000, seed=2,
                                label="example1")[0]
        assert rep.block_errors == 0
        assert rep.trials == 1000

    def test_stage0_is_the_level0_code(self, example1_bundle):
        # in the waterfall, stage 0 of the lattice sweep at VNR v is the
        # level-0 code on the mod-2 channel at SNR = -10 log10 sigma^2(v):
        # their error counts agree within a wide two-proportion interval,
        # which a wrong volume or VNR conversion leaves far behind
        b = example1_bundle
        M, vnr = 4000, 2.5
        lat = sim.sweep_lattice(b.pair, b.plans, b.profile.normalized_volume, [vnr],
                                max_trials=M, target_errors=M, seed=1,
                                label="example1")[0]
        snr = -10 * math.log10(sim.vnr_to_sigma2(vnr, b.profile.normalized_volume))
        code = sim.sweep_code(b.pair.h0, b.plan0, [snr], max_trials=M,
                              target_errors=M, seed=1, label="example1:g0")[0]
        assert lat.trials == code.trials == M
        assert 0 < code.block_errors < M    # the point is in the waterfall
        p = (lat.stage0_errors + code.block_errors) / (2 * M)
        z = (lat.stage0_errors - code.block_errors) / M / math.sqrt(p * (1 - p) * 2 / M)
        assert abs(z) <= 3.3, (lat.stage0_errors, code.block_errors, z)

    def test_deterministic_and_batch_invariant(self, toy):
        pair, plans, nv = toy
        kw = dict(max_trials=500, target_errors=500, seed=7, label="toy")
        a = sim.sweep_lattice(pair, plans, nv, [7.0], batch=128, **kw)
        b = sim.sweep_lattice(pair, plans, nv, [7.0], batch=61, **kw)
        assert a == b

    def test_non_nested_pair_refused_under_optimize(self):
        # the toy pair with a weight-1 row added to H1 is not nested: the
        # sweep's encode refuses it (a real check, so also under python -O)
        # rather than reporting a row of trials
        script = (
            "import dataclasses\n"
            "import numpy as np\n"
            "from qclattice import codec, codes, qc, sim\n"
            "from qclattice.gf2 import BitMatrix\n"
            "pair = codes.make_pair_row_sums(qc.ProtoMatrix.from_shifts([[0, 0]], 2), [(0,)])\n"
            "h1 = BitMatrix(np.vstack([pair.h1.a, [[1, 0, 0, 0]]]))\n"
            "bad = dataclasses.replace(pair, h1=h1)\n"
            "plans = (codec.EncoderPlan(bad.h0), codec.EncoderPlan(bad.h1))\n"
            "try:\n"
            "    sim.sweep_lattice(bad, plans, 4.0 ** 1.6, [6.0], max_trials=200,\n"
            "                      target_errors=200, seed=1)\n"
            "except codec.OddDotError:\n"
            "    print('debug', __debug__, 'refused')\n")
        env = dict(os.environ)
        src_dir = str(Path(sim.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "debug False refused"

    def test_stage_attribution_sums(self, toy):
        pair, plans, nv = toy
        rep = sim.sweep_lattice(pair, plans, nv, [6.0], max_trials=2000,
                                target_errors=2000, seed=13, label="toy")[0]
        assert rep.block_errors > 0
        assert (rep.stage0_errors + rep.stage1_errors + rep.integer_errors
                == rep.block_errors)

    def test_multistage_versus_nearest_point_oracle(self, toy):
        # shared noise stream; exact nearest-point decoding via the four
        # cosets of 4Z^4, multistage cannot beat it and the gap stays small
        pair, plans, nv = toy
        M, seed, vnr = 4000, 77, 7.0
        rep = sim.sweep_lattice(pair, plans, nv, [vnr], max_trials=M,
                                target_errors=M, seed=seed, label="toy")[0]
        assert rep.bler == pytest.approx(0.017, abs=0.0005)  # frozen, deterministic
        ml = toy_nearest_point_errors(seed, M, math.sqrt(sim.vnr_to_sigma2(vnr, nv))) / M
        p = max(rep.bler, ml)
        noise3 = 3 * math.sqrt(p * (1 - p) / M)
        assert rep.bler >= ml - noise3          # optimal decoder lower-bounds
        assert rep.bler <= 12 * ml + noise3     # but the gap stays bounded

    @pytest.mark.parametrize("paired", [False, True], ids=["keyed", "paired"])
    def test_batch_invariant_with_mid_batch_stop(self, toy, paired):
        pair, plans, nv = toy
        kw = dict(max_trials=2000, target_errors=19, seed=5, label="toy",
                  paired_noise=paired)
        reps = [sim.sweep_lattice(pair, plans, nv, [5.0, 6.0], batch=b, **kw)
                for b in (1, 7, 256)]
        assert reps[0] == reps[1] == reps[2]
        for r in reps[0]:
            assert r.block_errors == 19 and r.trials < 2000
            assert r.stage0_errors == 19    # here every error starts at level 0
            assert r.trials % 7 and r.trials % 256   # the stop cuts a batch

    def test_paired_noise_mode(self, toy):
        pair, plans, nv = toy
        reps = sim.sweep_lattice(pair, plans, nv, [5.0, 7.0, 9.0],
                                 max_trials=800, target_errors=800, seed=4,
                                 label="toy", paired_noise=True)
        blers = [r.bler for r in reps]
        assert blers == sorted(blers, reverse=True)


# a scripted trial draws a stage code in 0..7 and 0..49 BP iterations
_SCRIPT = (sim.Integers(0, 8, 1), sim.Integers(0, 50, 1))


def _scripted_step(draws, sigma):
    """Stage -1 (codes 3..7, 5 in 8), 0, 1 or 2 (1 in 8 each) and the
    drawn iterations of each trial."""
    code, iters = (d[:, 0] for d in draws)
    return np.where(code < 3, code, -1), iters


def _scripted_sweep(batch, points=(1.0, 2.0), paired=False, **kw):
    kw = {"max_trials": 400, "target_errors": 60, "seed": 3, **kw}
    return sim._sweep("lattice", "scripted", list(points), lambda db: 1.0, _SCRIPT,
                      _scripted_step, max_iter=0, batch=batch, paired=paired, **kw)


class TestSweepDriver:
    """The driver with a scripted step, which makes stage-1 and integer
    errors that no seeded sweep here produces; the serial outcome is
    replayed one trial at a time from ``sim.trial_draws``."""

    @staticmethod
    def _replay(seed, point, target, max_trials, paired=False):
        outcomes = []
        while len(outcomes) < max_trials and sum(s >= 0 for s, _ in outcomes) < target:
            t = len(outcomes)
            stage, iters = _scripted_step(sim.trial_draws(seed, point, t, t + 1,
                                                          _SCRIPT, paired), 1.0)
            outcomes.append((int(stage[0]), int(iters[0])))
        return np.array(outcomes).reshape(-1, 2)

    def _check(self, rep, out):
        stages, iters = out[:, 0], out[:, 1]
        assert rep.trials == len(out)
        assert rep.block_errors == int((stages >= 0).sum())
        assert (rep.stage0_errors, rep.stage1_errors, rep.integer_errors) == \
            tuple(int((stages == s).sum()) for s in range(3))
        assert rep.iterations_mean == float(iters.sum()) / len(out)
        assert rep.bler == rep.block_errors / rep.trials

    def test_stop_lands_on_the_target_trial(self):
        reps = {b: _scripted_sweep(b) for b in (1, 5, 64)}
        assert reps[1] == reps[5] == reps[64]
        for pt, rep in enumerate(reps[1]):
            out = self._replay(3, pt, 60, 400)
            self._check(rep, out)
            assert rep.block_errors == 60 and out[-1, 0] >= 0
            assert rep.stage1_errors > 0 and rep.integer_errors > 0
            assert rep.trials % 5 and rep.trials % 64   # the stop cuts a batch

    def test_max_trials_ends_a_point(self):
        reps = {b: _scripted_sweep(b, max_trials=37) for b in (1, 5, 64)}
        assert reps[1] == reps[5] == reps[64]
        for pt, rep in enumerate(reps[1]):
            self._check(rep, self._replay(3, pt, 60, 37))
            assert rep.trials == 37 and rep.block_errors < 60

    def test_paired_points_share_their_streams(self):
        a, b = _scripted_sweep(5, paired=True)
        self._check(a, self._replay(3, 0, 60, 400, paired=True))
        assert a == dataclasses.replace(b, x_db=a.x_db)


# a field spec: (kind, lo, hi, width); the dtype it comes back as by kind
_DTYPES = {"bits": np.uint8, "int8": np.int8, "ints": np.int64, "normals": np.float64}


def _field(spec):
    kind, lo, hi, width = spec
    if kind == "normals":
        return sim.Normals(width)
    return sim.Integers(lo, hi, width, _DTYPES[kind])


_specs = st.lists(st.one_of(
    st.tuples(st.just("bits"), st.just(0), st.just(2), st.integers(1, 6)),
    # drawn as int64 and stored as int8: a range inside -128..127
    st.integers(-128, 127).flatmap(lambda lo: st.tuples(
        st.just("int8"), st.just(lo), st.integers(lo + 1, 128), st.integers(1, 6))),
    st.integers(-2 ** 40, 2 ** 40).flatmap(lambda lo: st.tuples(
        st.just("ints"), st.just(lo), st.integers(lo + 1, lo + 2 ** 41),
        st.integers(1, 6))),
    st.tuples(st.just("normals"), st.none(), st.none(), st.integers(1, 6))),
    min_size=1, max_size=4)


def _reference_draws(seed, point, t0, t1, specs, paired):
    """One generator per trial, each field drawn in turn, rows stacked."""
    rows = []
    for t in range(t0, t1):
        rng = np.random.default_rng([seed, t] if paired else [seed, point, t])
        rows.append([rng.normal(size=w) if kind == "normals" else rng.integers(lo, hi, w)
                     for kind, lo, hi, w in specs])
    return [np.array([r[i] for r in rows], dtype=_DTYPES[spec[0]])
            for i, spec in enumerate(specs)]


class TestTrialDraws:
    @given(st.integers(0, 2 ** 32), st.integers(0, 20), st.integers(0, 1000),
           st.integers(1, 12), _specs, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_one_generator_per_trial(self, seed, point, t0, count, specs, paired):
        got = sim.trial_draws(seed, point, t0, t0 + count,
                              [_field(s) for s in specs], paired)
        want = _reference_draws(seed, point, t0, t0 + count, specs, paired)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)

    @given(st.integers(0, 2 ** 32), st.integers(0, 20), st.integers(0, 1000),
           st.integers(1, 12), st.integers(0, 12), _specs, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_split_ranges_concatenate(self, seed, point, t0, first, second, specs,
                                      paired):
        fields = [_field(s) for s in specs]
        tm, t1 = t0 + first, t0 + first + second
        whole = sim.trial_draws(seed, point, t0, t1, fields, paired)
        parts = zip(sim.trial_draws(seed, point, t0, tm, fields, paired),
                    sim.trial_draws(seed, point, tm, t1, fields, paired))
        for w, (a, b) in zip(whole, parts):
            assert np.array_equal(w, np.concatenate([a, b]))

    @pytest.mark.parametrize("seed, point, paired",
                             [(0, 0, False), (91, 3, False), (2 ** 31, 1, True)])
    def test_lattice_fields_equal_five_draws(self, wimax_bundle, seed, point, paired):
        # merged fields over one range continue the same stream: the bits of
        # both levels in one field, and z0 last in the integer field
        b = wimax_bundle
        k0, k1, n = b.plan0.num_info, b.plan1.num_info, b.pair.n
        bits, z, noise = sim.trial_draws(seed, point, 10, 40,
                                         sim._lattice_fields(k0, k1, n), paired)
        assert z.dtype == np.int8
        for row, t in enumerate(range(10, 40)):
            rng = np.random.default_rng([seed, t] if paired else [seed, point, t])
            i0, i1 = rng.integers(0, 2, k0), rng.integers(0, 2, k1)
            zv, z0 = rng.integers(-2, 3, n), rng.integers(-2, 3)
            assert np.array_equal(bits[row], np.concatenate([i0, i1]))
            assert np.array_equal(z[row], np.append(zv, z0))
            assert np.array_equal(noise[row], rng.normal(size=n + 1))
