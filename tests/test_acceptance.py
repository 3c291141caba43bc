"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The component-gap
criterion (test 8) measures two waterfalls at >= 1e5 trials per point and
dominates the runtime; the whole module typically finishes in 15-30 minutes
on a desktop CPU.
"""

import math

import numpy as np
import pytest

from oracles import brute_four_cycle, kernel_rank, toy_lattice, toy_nearest_point_errors
from qclattice import codec, codes, qc, sim, wmin
from qclattice.gf2 import InconsistentSyndromeError

BLER_TARGET = 1e-3


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_01_coding_gain_reproduction(example1_bundle, wimax_bundle):
    g1 = example1_bundle.profile.gain_db
    g2 = wimax_bundle.profile.gain_db
    ok = abs(g1 - 7.04) <= 0.01 and abs(g2 - 8.34) <= 0.01
    _report(1, ok, f"example1 gain {g1:.4f} dB (target 7.04), "
                   f"wimax1152 gain {g2:.4f} dB (target 8.34)")


def test_02_dimension_reproduction(example1_bundle, wimax_bundle):
    # k_l = n - rank(H_l), and the bundles' encoder plans agree
    k_ex, k_wx = ((b.pair.n - kernel_rank(b.pair.h0), b.pair.n - kernel_rank(b.pair.h1))
                  for b in (example1_bundle, wimax_bundle))
    plans_agree = all(b.profile.k == (b.plan0.num_info, b.plan1.num_info) == k
                      for b, k in ((example1_bundle, k_ex), (wimax_bundle, k_wx)))
    ok = k_ex == (68, 132) and k_wx == (564, 1034) and plans_agree
    _report(2, ok, f"example1 k={k_ex} (target (68, 132)), "
                   f"wimax1152 k={k_wx} (target (564, 1034)), "
                   f"encoder plans agree: {plans_agree}")


def test_03_spc_properties():
    bad = []
    for p in range(2, 7):
        for q in range(2, 7):
            H = codes.build_spc(p, q)
            r = kernel_rank(H)
            d = wmin.exact_dmin(H)
            if r != p + q - 1 or d != 4:
                bad.append((p, q, r, d))
    _report(3, not bad, f"rank p+q-1 and exact d_min 4 for all 2<=p,q<=6"
                        + (f"; violations {bad}" if bad else ""))


def test_04_four_cycle_freeness(wimax_bundle):
    proto = wimax_bundle.proto
    structural = qc.has_four_cycle(proto)
    brute = brute_four_cycle(qc.expand(proto).a)
    ok = structural is False and brute is False
    _report(4, ok, f"modified z=48 prototype: structural={structural}, "
                   f"expanded brute force={brute} (both must be False)")


@pytest.mark.parametrize("name", ["example1", "wimax1152"])
def test_05_round_trip(name, example1_bundle, wimax_bundle):
    b = example1_bundle if name == "example1" else wimax_bundle
    n = b.pair.n
    k0, k1 = b.plan0.num_info, b.plan1.num_info
    sigma = 0.01
    trials = 1000
    fields = sim._lattice_fields(k0, k1, n)
    decoder = codec.MultistageDecoder(b.pair)
    errors = 0
    members = 0
    batch = 200
    for done in range(0, trials, batch):
        # streams keyed by (515, trial), as in a paired sweep
        bits, z, noise = sim.trial_draws(515, 0, done, min(done + batch, trials), fields,
                                         paired=True)
        zm = np.roll(z, 1, axis=1)
        c0, c1, x = codec.encode_lattice(b.pair, b.plans, bits[:, :k0], bits[:, k0:], zm)
        # congruence membership of every encoded point: H1 mod 4, H0 mod 2
        xs = x[:, 1:].astype(np.int64)
        good = ((xs @ b.pair.h1.a.T.astype(np.int64) % 4 == 0).all(axis=1)
                & (xs @ b.pair.h0.a.T.astype(np.int64) % 2 == 0).all(axis=1)
                & (x[:, 0] % 4 == 3))
        members += int(good.sum())
        d0, d1, dz, _ = decoder.decode_batch(x + sigma * noise, sigma)
        errors += int(((d0 != c0).any(axis=1) | (d1 != c1).any(axis=1)
                       | (dz != zm).any(axis=1)).sum())
    ok = errors == 0 and members == trials
    _report(5, ok, f"{name}: {trials} encodes at sigma={sigma}: "
                   f"{errors} block errors, {members}/{trials} members")


@pytest.mark.parametrize("name", ["example1", "wimax1152"])
def test_06_even_weight_and_solvability(name, example1_bundle, wimax_bundle):
    b = example1_bundle if name == "example1" else wimax_bundle
    pair = b.pair
    from qclattice.gf2 import nullspace_basis
    basis = np.array(nullspace_basis(pair.h0), dtype=np.uint8)
    rng = np.random.default_rng(606)
    coeffs = rng.integers(0, 2, (1000, basis.shape[0])).astype(np.uint8)
    words = (coeffs.astype(np.float32) @ basis.astype(np.float32)).astype(np.int64) % 2
    even = int((words.sum(axis=1) % 2 == 0).sum())
    syndromes = ((words @ pair.h1.a.T.astype(np.int64)) % 4 // 2).astype(np.uint8)
    odd_dots = int(((words @ pair.h1.a.T.astype(np.int64)) % 2 != 0).sum())
    try:
        sols = b.plan1.encode_batch(syndromes,
                                    np.zeros((1000, b.plan1.num_info), np.uint8))
        check = (sols @ pair.h1.a.T.astype(np.int64) % 2 == syndromes).all()
        inconsistent = not check
    except InconsistentSyndromeError:
        inconsistent = True
    ok = even == 1000 and odd_dots == 0 and not inconsistent
    _report(6, ok, f"{name}: {even}/1000 codewords even weight, "
                   f"{odd_dots} odd level-1 dots, "
                   f"level-1 encode inconsistent: {inconsistent}")


def test_07_distance_witness(example1_bundle):
    H = qc.expand(example1_bundle.proto)
    budget = 1_000_000
    hits = []
    for seed in (1, 2, 3):
        w, c = wmin.low_weight_search(H, budget, seed=seed, stop_at=16)
        valid = (w == 16 and not H.mul_vec(c).any() and int(c.sum()) == 16)
        hits.append(valid)
    ok = sum(hits) >= 2
    _report(7, ok, f"weight-16 witness on the (3,5) z=34 code within {budget} "
                   f"iterations: seeds hit {sum(hits)}/3 (need >= 2)")


def _snr_at_target(H, plan, label, coarse_grid, seed):
    """Measured SNR where BLER crosses 1e-3, >= 1e5 trials per fine point."""
    coarse = sim.sweep_code(H, plan, coarse_grid, max_trials=2000,
                            target_errors=100, seed=seed, label=label)
    above = [r.x_db for r in coarse if r.bler >= BLER_TARGET]
    if not above:
        raise AssertionError(f"{label}: coarse scan never reached the target range")
    lo = max(above)
    fine_pts = {}

    def fine(x_db):
        if x_db not in fine_pts:
            rep = sim.sweep_code(H, plan, [x_db], max_trials=100_000,
                                 target_errors=100_000, seed=seed, label=label)[0]
            fine_pts[x_db] = rep
        return fine_pts[x_db]

    a, b = lo, lo + 1.0
    for _ in range(8):
        ra, rb = fine(a), fine(b)
        if ra.bler >= BLER_TARGET and rb.bler < BLER_TARGET:
            break
        if ra.bler < BLER_TARGET:
            a, b = a - 1.0, a
        else:
            a, b = b, b + 1.0
    ra, rb = fine(a), fine(b)
    assert ra.bler >= BLER_TARGET > rb.bler, f"{label}: failed to bracket"
    # log-linear interpolation; floor the upper point at one error
    la = math.log10(ra.bler)
    lb = math.log10(max(rb.bler, 1.0 / rb.trials / 10))
    snr = a + (b - a) * (la - math.log10(BLER_TARGET)) / (la - lb)
    return snr, {p: (r.trials, r.bler) for p, r in fine_pts.items()}


@pytest.mark.slow
def test_08_component_gap(example1_bundle):
    b = example1_bundle
    snr0, pts0 = _snr_at_target(b.pair.h0, b.plan0, "example1:g0",
                                [9.0, 10.0, 11.0, 12.0], seed=808)
    snr1, pts1 = _snr_at_target(b.pair.h1, b.plan1, "example1:g1",
                                [12.0, 13.0, 14.0, 15.0, 16.0], seed=808)
    gap = abs(snr1 - snr0)
    ok = gap < 6.0
    _report(8, ok, f"SNR at BLER 1e-3: g0 {snr0:.2f} dB {pts0}, "
                   f"g1 {snr1:.2f} dB {pts1}; gap {gap:.2f} dB (< 6 required)")


@pytest.mark.slow
def test_09_waterfall_monotonic(example1_bundle):
    b = example1_bundle
    grid = [1.0, 2.0, 3.0, 4.0, 5.0]
    reps = sim.sweep_lattice(b.pair, b.plans, b.profile.normalized_volume, grid,
                             max_trials=10_000, target_errors=10_000,
                             seed=909, label="example1", paired_noise=True)
    blers = [r.bler for r in reps]
    ok = all(blers[i + 1] <= blers[i] for i in range(len(blers) - 1))
    _report(9, ok, "example1 BLER over VNR 1..5 dB (1e4 paired trials/point): "
                   + ", ".join(f"{g}dB={v:.4g}" for g, v in zip(grid, blers)))


@pytest.mark.slow
def test_10_scaled_comparison(example1_bundle, wimax_bundle):
    points = [2.0, 2.5]
    r_ex = sim.sweep_lattice(example1_bundle.pair, example1_bundle.plans,
                             example1_bundle.profile.normalized_volume, points,
                             max_trials=10_000, target_errors=10_000,
                             seed=1010, label="example1")
    r_wx = sim.sweep_lattice(wimax_bundle.pair, wimax_bundle.plans,
                             wimax_bundle.profile.normalized_volume, points,
                             max_trials=10_000, target_errors=10_000,
                             seed=1010, label="wimax1152", batch=128)
    dominated = all(w.bler <= e.bler for w, e in zip(r_wx, r_ex))

    # toy-lattice multistage versus the exact nearest-point oracle
    pair, plans, nv = toy_lattice()
    M, seed, vnr = 10_000, 77, 7.0
    rep = sim.sweep_lattice(pair, plans, nv, [vnr], max_trials=M,
                            target_errors=M, seed=seed, label="toy")[0]
    ml = toy_nearest_point_errors(seed, M, math.sqrt(sim.vnr_to_sigma2(vnr, nv))) / M
    p = max(rep.bler, ml)
    band = 3 * math.sqrt(p * (1 - p) / M)
    toy_ok = (rep.bler >= ml - band) and (rep.bler <= 12 * ml + band)

    ok = dominated and toy_ok
    _report(10, ok,
            "matched-VNR dominance: "
            + ", ".join(f"{pt}dB wimax={w.bler:.4g} <= example1={e.bler:.4g}"
                        for pt, w, e in zip(points, r_wx, r_ex))
            + f"; toy multistage {rep.bler:.4f} vs nearest-point {ml:.4f} "
              f"(band {band:.4f})")
