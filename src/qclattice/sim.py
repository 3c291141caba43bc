"""Channel models and seeded Monte Carlo block-error-rate sweeps.

Two channels:

* mod-2 additive Gaussian noise for the binary component codes, output
  folded into [0, 2); operating point given as SNR = 1/sigma^2.
* power-unconstrained additive Gaussian noise for the lattice, operating
  point given as the volume-to-noise ratio VNR = V^(2/N) / (2*pi*e*sigma^2)
  (0 dB is the Poltyrev limit).

Every trial draws from its own counter-derived stream (master seed, point
index, trial index), so results are independent of batch size and identical
whether trials run serially or in parallel.  Stopping follows serial
semantics: a point ends at the exact trial where the target error count is
reached, or at max_trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import (EncoderPlan, MultistageDecoder, TannerGraph,
                    _stage_syndrome_batch, bp_decode_batch, wrapped_llr)
from .gf2 import BitMatrix

TWO_PI_E = 2.0 * math.pi * math.e
DEFAULT_MAX_TRIALS = 1_000_000
DEFAULT_TARGET_ERRORS = 100


def snr_to_sigma2(snr_db: float) -> float:
    """Noise variance from SNR in dB, with SNR = 1/sigma^2."""
    return 10.0 ** (-snr_db / 10.0)


def sigma2_to_snr(sigma2: float) -> float:
    return -10.0 * math.log10(sigma2)


def vnr_to_sigma2(vnr_db: float, normalized_volume: float) -> float:
    """Noise variance at a given VNR in dB: sigma^2 = V^(2/N)/(2 pi e VNR)."""
    if normalized_volume <= 0:
        raise ValueError("normalized volume must be positive")
    return normalized_volume / (TWO_PI_E * 10.0 ** (vnr_db / 10.0))


def sigma2_to_vnr(sigma2: float, normalized_volume: float) -> float:
    return 10.0 * math.log10(normalized_volume / (TWO_PI_E * sigma2))


@dataclass(frozen=True)
class ChannelParams:
    """One operating point; the dB values are mutually consistent."""

    sigma2: float
    snr_db: float
    vnr_db: float | None = None

    @classmethod
    def from_snr_db(cls, snr_db: float,
                    normalized_volume: float | None = None) -> "ChannelParams":
        s2 = snr_to_sigma2(snr_db)
        vnr = sigma2_to_vnr(s2, normalized_volume) if normalized_volume else None
        return cls(sigma2=s2, snr_db=snr_db, vnr_db=vnr)

    @classmethod
    def from_vnr_db(cls, vnr_db: float, normalized_volume: float) -> "ChannelParams":
        s2 = vnr_to_sigma2(vnr_db, normalized_volume)
        return cls(sigma2=s2, snr_db=sigma2_to_snr(s2), vnr_db=vnr_db)


@dataclass(frozen=True)
class SimReport:
    """One sweep point: operating parameter, counts, stage attribution."""

    kind: str
    label: str
    x_db: float
    trials: int
    block_errors: int
    bler: float
    stage0_errors: int
    stage1_errors: int
    integer_errors: int
    iterations_mean: float
    seed: int


def _check_sweep_args(max_trials: int, target_errors: int, seed: int,
                      max_iter: int, batch: int) -> None:
    for name, value, least in (("max_trials", max_trials, 1),
                               ("target_errors", target_errors, 1),
                               ("seed", seed, 0), ("max_iter", max_iter, 0),
                               ("batch", batch, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _trial_rng(seed: int, point: int, trial: int, paired: bool) -> np.random.Generator:
    if paired:
        return np.random.default_rng([seed, trial])
    return np.random.default_rng([seed, point, trial])


def sweep_code(H: BitMatrix, plan: EncoderPlan, snr_points_db,
               *, max_trials: int = DEFAULT_MAX_TRIALS,
               target_errors: int = DEFAULT_TARGET_ERRORS,
               seed: int = 0, max_iter: int = 100, batch: int = 512,
               label: str = "code") -> list[SimReport]:
    """Monte Carlo block-error sweep of one binary code over the mod-2
    Gaussian channel.

    Per trial: draw information bits, encode with zero syndrome, transmit
    the codeword with its dummy head bit over y = (word + noise) mod 2,
    decode from wrapped LLRs with the dummy pinned to 1, and count a block
    error when the decision differs from the transmitted word.
    """
    _check_sweep_args(max_trials, target_errors, seed, max_iter, batch)
    graph = TannerGraph(H)
    n = H.cols
    k = plan.num_info
    m = H.rows
    zero_syn = np.zeros((1, m), dtype=np.uint8)
    reports = []
    for pt, snr_db in enumerate(snr_points_db):
        sigma = math.sqrt(snr_to_sigma2(snr_db))
        trials = errors = 0
        iter_sum = 0.0
        while trials < max_trials and errors < target_errors:
            bsz = min(batch, max_trials - trials)
            infos = np.empty((bsz, k), dtype=np.uint8)
            noise = np.empty((bsz, n + 1), dtype=np.float64)
            for b in range(bsz):
                rng = _trial_rng(seed, pt, trials + b, False)
                infos[b] = rng.integers(0, 2, k)
                noise[b] = rng.normal(size=n + 1)
            cw = plan.encode_batch(np.repeat(zero_syn, bsz, axis=0), infos)
            sent = np.concatenate([np.ones((bsz, 1), dtype=np.uint8), cw], axis=1)
            y = np.mod(sent + sigma * noise, 2.0)
            llr = wrapped_llr(y[:, 1:], sigma)
            hard, iters, _ = bp_decode_batch(graph, llr, None, max_iter)
            errs = (hard != cw).any(axis=1)
            # serial stop semantics: cut the batch at the target-hitting trial
            cum = np.cumsum(errs)
            if errors + cum[-1] >= target_errors:
                stop_at = int(np.nonzero(errors + cum >= target_errors)[0][0]) + 1
            else:
                stop_at = bsz
            errors += int(cum[stop_at - 1])
            iter_sum += float(iters[:stop_at].sum())
            trials += stop_at
        reports.append(SimReport(
            kind="code", label=label, x_db=float(snr_db), trials=trials,
            block_errors=errors, bler=errors / trials,
            stage0_errors=errors, stage1_errors=0, integer_errors=0,
            iterations_mean=iter_sum / trials, seed=seed))
    return reports


def sweep_lattice(pair, plans: tuple[EncoderPlan, EncoderPlan],
                  normalized_volume: float, vnr_points_db,
                  *, max_trials: int = DEFAULT_MAX_TRIALS,
                  target_errors: int = DEFAULT_TARGET_ERRORS,
                  seed: int = 0, max_iter: int = 100, batch: int = 256,
                  label: str = "lattice", zrange: int = 2,
                  paired_noise: bool = False) -> list[SimReport]:
    """Monte Carlo block-error sweep of the lattice over unconstrained AWGN.

    Per trial: encode a random lattice point (uniform info bits, integer
    parts uniform over -zrange..zrange), add Gaussian noise with variance
    from the VNR, decode multistage, and count a block error when any
    coordinate of the recovered point differs.  Errors are attributed to the
    first failing stage (level 0, level 1, or integer rounding).

    ``paired_noise=True`` keys each trial's stream by (seed, trial) only, so
    every VNR point sees the same randomness; sweeps are then paired across
    points (used for monotonicity checks).
    """
    _check_sweep_args(max_trials, target_errors, seed, max_iter, batch)
    plan0, plan1 = plans
    n = pair.n
    k0, k1 = plan0.num_info, plan1.num_info
    decoder = MultistageDecoder(pair, max_iter=max_iter)
    m0 = pair.h0.rows
    reports = []
    for pt, vnr_db in enumerate(vnr_points_db):
        sigma = math.sqrt(vnr_to_sigma2(vnr_db, normalized_volume))
        trials = errors = e0 = e1 = ez = 0
        iter_sum = 0.0
        while trials < max_trials and errors < target_errors:
            bsz = min(batch, max_trials - trials)
            infos0 = np.empty((bsz, k0), dtype=np.uint8)
            infos1 = np.empty((bsz, k1), dtype=np.uint8)
            zmat = np.empty((bsz, n + 1), dtype=np.int64)
            noise = np.empty((bsz, n + 1), dtype=np.float64)
            for b in range(bsz):
                rng = _trial_rng(seed, pt, trials + b, paired_noise)
                infos0[b] = rng.integers(0, 2, k0)
                infos1[b] = rng.integers(0, 2, k1)
                zmat[b, 1:] = rng.integers(-zrange, zrange + 1, n)
                zmat[b, 0] = rng.integers(-zrange, zrange + 1)
                noise[b] = rng.normal(size=n + 1)
            c0 = plan0.encode_batch(np.zeros((bsz, m0), dtype=np.uint8), infos0)
            s1 = _stage_syndrome_batch(decoder.rows1_t, c0)
            c1 = plan1.encode_batch(s1, infos1)
            x = np.empty((bsz, n + 1), dtype=np.int64)
            x[:, 0] = 3 + 4 * zmat[:, 0]
            x[:, 1:] = c0.astype(np.int64) + 2 * c1.astype(np.int64) + 4 * zmat[:, 1:]
            y = x + sigma * noise

            d0, d1, dz, diag = decoder.decode_batch(y, sigma)
            bad0 = (d0 != c0).any(axis=1)
            bad1 = (d1 != c1).any(axis=1)
            badz = (dz != zmat).any(axis=1)
            errs = bad0 | bad1 | badz

            cum = np.cumsum(errs)
            if errors + cum[-1] >= target_errors:
                stop_at = int(np.nonzero(errors + cum >= target_errors)[0][0]) + 1
            else:
                stop_at = bsz
            sl = slice(0, stop_at)
            errors += int(cum[stop_at - 1])
            e0 += int(bad0[sl].sum())
            e1 += int((bad1[sl] & ~bad0[sl]).sum())
            ez += int((badz[sl] & ~bad0[sl] & ~bad1[sl]).sum())
            iter_sum += float((diag["it0"][sl] + diag["it1"][sl]).sum())
            trials += stop_at
        reports.append(SimReport(
            kind="lattice", label=label, x_db=float(vnr_db), trials=trials,
            block_errors=errors, bler=errors / trials,
            stage0_errors=e0, stage1_errors=e1, integer_errors=ez,
            iterations_mean=iter_sum / trials, seed=seed))
    return reports
