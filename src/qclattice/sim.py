"""Channel models and seeded Monte Carlo block-error-rate sweeps.

Two channels:

* mod-2 additive Gaussian noise for the binary component codes, output
  folded into [0, 2); operating point given as SNR = 1/sigma^2.
* power-unconstrained additive Gaussian noise for the lattice, operating
  point given as the volume-to-noise ratio VNR = V^(2/N) / (2*pi*e*sigma^2)
  (0 dB is the Poltyrev limit).

Both sweeps run on one driver, ``_sweep``.  It checks the arguments and
every point's noise before the first point runs, takes each batch's random
draws from :func:`trial_draws` (every trial draws from its own stream,
keyed by master seed, point index and trial index), counts errors by stage
and builds the reports.  Each sweep declares the fields a
trial draws (:class:`Integers`, :class:`Normals`) and supplies a
``step(draws, sigma)`` that runs one batch from those arrays, one row per
trial, and returns two per-frame arrays: the first failing stage (-1 for
none, 0 for level 0, 1 for level 1, 2 for integer rounding) and the BP
iterations.  Results are therefore independent of batch size and identical
whether trials run serially or in parallel.  Stopping follows serial
semantics: a point ends at the exact trial where the target error count is
reached, or at max_trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import (EncoderPlan, MultistageDecoder, TannerGraph, bp_decode_batch,
                    check_sigma, encode_lattice, wrapped_llr)
from .gf2 import BitMatrix

TWO_PI_E = 2.0 * math.pi * math.e
DEFAULT_MAX_TRIALS = 1_000_000
DEFAULT_TARGET_ERRORS = 100
ZRANGE = 2   # a lattice trial's integer parts are uniform over -ZRANGE..ZRANGE


def snr_to_sigma2(snr_db: float) -> float:
    """Noise variance from SNR in dB, with SNR = 1/sigma^2."""
    return 10.0 ** (-snr_db / 10.0)


def vnr_to_sigma2(vnr_db: float, normalized_volume: float) -> float:
    """Noise variance at a given VNR in dB: sigma^2 = V^(2/N)/(2 pi e VNR)."""
    if normalized_volume <= 0:
        raise ValueError("normalized volume must be positive")
    return normalized_volume / (TWO_PI_E * 10.0 ** (vnr_db / 10.0))


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


def _check_plan(plan: EncoderPlan, H: BitMatrix, what: str) -> None:
    """Refuse a plan of another matrix, whose codewords H does not check."""
    if plan.matrix != H:
        raise ValueError(f"{what} was built for a {plan.matrix.rows}x{plan.matrix.cols} "
                         f"matrix other than the {H.rows}x{H.cols} matrix it must encode")


def _point_sigmas(axis: str, points_db, sigma_of) -> list[float]:
    """The noise standard deviation ``sigma_of(x_db)`` of every point, each
    checked before any point runs; ``axis`` names the points."""
    sigmas = []
    for x_db in points_db:
        try:
            sigma = sigma_of(x_db)
        except ArithmeticError:    # OverflowError, ZeroDivisionError
            raise ValueError(f"{axis} {x_db:g} dB: its noise variance is out of "
                             "floating-point range") from None
        try:
            sigmas.append(check_sigma(sigma))
            check_sigma(sigma / 2)    # level 1 of a lattice decodes at sigma/2
        except ValueError as e:
            raise ValueError(f"{axis} {x_db:g} dB: {e}") from None
    return sigmas


@dataclass(frozen=True)
class Integers:
    """``width`` integers per trial, uniform in [lo, hi), as ``dtype``."""

    lo: int
    hi: int
    width: int
    dtype: type = np.int64

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(self.lo, self.hi, self.width)


@dataclass(frozen=True)
class Normals:
    """``width`` standard normals per trial."""

    width: int
    dtype = np.float64

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(size=self.width)


def trial_draws(seed: int, point: int, t0: int, t1: int, fields,
                paired: bool = False) -> list[np.ndarray]:
    """The draws of trials [t0, t1) of a point: one (t1 - t0, width) array
    per field, one row per trial.

    Trial t draws its fields in order from its own stream,
    ``default_rng([seed, point, t])``, or ``default_rng([seed, t])`` when
    ``paired``, so that every point sees the same draws.  A trial's row
    depends on nothing else, so the draws of [t0, t1) are those of [t0, tm)
    followed by those of [tm, t1).
    """
    outs = [np.empty((t1 - t0, f.width), dtype=f.dtype) for f in fields]
    for row, t in enumerate(range(t0, t1)):
        rng = np.random.default_rng([seed, t] if paired else [seed, point, t])
        for f, out in zip(fields, outs):
            out[row] = f.draw(rng)
    return outs


def _lattice_fields(k0: int, k1: int, n: int) -> tuple:
    """What a lattice trial draws: the info bits of both levels, the integer
    parts in [-ZRANGE, ZRANGE] with z0 drawn last, and the noise."""
    return (Integers(0, 2, k0 + k1, np.uint8),
            Integers(-ZRANGE, ZRANGE + 1, n + 1), Normals(n + 1))


def _sweep(kind: str, label: str, points_db, sigma_of, fields, step, *,
           max_trials: int, target_errors: int, seed: int, max_iter: int,
           batch: int, paired: bool = False) -> list[SimReport]:
    """Run ``step`` (see the module docstring) over batches of trials at
    each point until max_trials or target_errors, cutting the last batch at
    the target-hitting trial; each batch gets its :func:`trial_draws` of
    ``fields``, and ``sigma_of(x_db)`` gives a point's noise standard
    deviation, checked for every point before the first runs.  The draws
    are the step's own: it may overwrite them (the sweeps form the channel
    output over the noise)."""
    _check_sweep_args(max_trials, target_errors, seed, max_iter, batch)
    sigmas = _point_sigmas({"code": "SNR", "lattice": "VNR"}[kind], points_db, sigma_of)
    reports = []
    for pt, (x_db, sigma) in enumerate(zip(points_db, sigmas)):
        trials = errors = 0
        stages = np.zeros(3, dtype=np.int64)
        iter_sum = 0.0
        while trials < max_trials and errors < target_errors:
            bsz = min(batch, max_trials - trials)
            draws = trial_draws(seed, pt, trials, trials + bsz, fields, paired)
            stage, iters = step(draws, sigma)
            # serial stop semantics: cut the batch at the target-hitting trial
            cum = np.cumsum(stage >= 0)
            if errors + cum[-1] >= target_errors:
                stop_at = int(np.nonzero(errors + cum >= target_errors)[0][0]) + 1
            else:
                stop_at = bsz
            errors += int(cum[stop_at - 1])
            stages += np.bincount(stage[:stop_at] + 1, minlength=4)[1:]
            iter_sum += float(iters[:stop_at].sum())
            trials += stop_at
        e0, e1, ez = (int(e) for e in stages)
        reports.append(SimReport(
            kind=kind, label=label, x_db=float(x_db), trials=trials,
            block_errors=errors, bler=errors / trials,
            stage0_errors=e0, stage1_errors=e1, integer_errors=ez,
            iterations_mean=iter_sum / trials, seed=seed))
    return reports


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
    error when the decision differs from the transmitted word.  Raises
    ValueError when ``plan`` was built for another matrix than ``H``.
    """
    _check_plan(plan, H, "plan")
    graph = TannerGraph(H)
    zero_syn = np.zeros((1, H.rows), dtype=np.uint8)
    fields = (Integers(0, 2, plan.num_info, np.uint8), Normals(H.cols + 1))

    def step(draws, sigma):
        infos, noise = draws
        cw = plan.encode_batch(np.repeat(zero_syn, len(infos), axis=0), infos)
        # y = (word + sigma * noise) mod 2, over the noise; the dummy
        # coordinate (column 0) is never read
        y = noise[:, 1:]
        y *= sigma
        y += cw
        np.mod(y, 2.0, out=y)
        llr = wrapped_llr(y, sigma)
        hard, iters, _ = bp_decode_batch(graph, llr, None, max_iter)
        return np.where((hard != cw).any(axis=1), 0, -1), iters

    return _sweep("code", label, snr_points_db,
                  lambda db: math.sqrt(snr_to_sigma2(db)), fields, step,
                  max_trials=max_trials, target_errors=target_errors,
                  seed=seed, max_iter=max_iter, batch=batch)


def sweep_lattice(pair, plans: tuple[EncoderPlan, EncoderPlan],
                  normalized_volume: float, vnr_points_db,
                  *, max_trials: int = DEFAULT_MAX_TRIALS,
                  target_errors: int = DEFAULT_TARGET_ERRORS,
                  seed: int = 0, max_iter: int = 100, batch: int = 256,
                  label: str = "lattice", paired_noise: bool = False) -> list[SimReport]:
    """Monte Carlo block-error sweep of the lattice over unconstrained AWGN.

    Per trial: encode a random lattice point (uniform info bits, integer
    parts uniform over -ZRANGE..ZRANGE), add Gaussian noise with variance
    from the VNR, decode multistage, and count a block error when any
    coordinate of the recovered point differs.  Errors are attributed to the
    first failing stage (level 0, level 1, or integer rounding).  A pair
    that is not nested is refused by the encode (:class:`OddDotError`), and
    plans built for other matrices than (H0, H1) by a ValueError that names
    the level.

    ``paired_noise=True`` keys each trial's stream by (seed, trial) only, so
    every VNR point sees the same randomness; sweeps are then paired across
    points (used for monotonicity checks).
    """
    plan0, plan1 = plans
    _check_plan(plan0, pair.h0, "level-0 plan (plans[0])")
    _check_plan(plan1, pair.h1, "level-1 plan (plans[1])")
    k0, k1 = plan0.num_info, plan1.num_info
    decoder = MultistageDecoder(pair, max_iter=max_iter)

    def step(draws, sigma):
        bits, z, noise = draws
        # z0, drawn last, goes to column 0 of the encode's integer parts
        c0, c1, x = encode_lattice(plans, bits[:, :k0], bits[:, k0:],
                                   np.roll(z, 1, axis=1))
        y = noise                        # y = x + sigma * noise, over the noise
        y *= sigma
        y += x
        del x

        d0, d1, dz, diag = decoder.decode_batch(y, sigma)
        bad = [(d0 != c0).any(axis=1), (d1 != c1).any(axis=1),
               (dz[:, 0] != z[:, -1]) | (dz[:, 1:] != z[:, :-1]).any(axis=1)]
        return np.select(bad, [0, 1, 2], -1), diag["it0"] + diag["it1"]

    return _sweep("lattice", label, vnr_points_db,
                  lambda db: math.sqrt(vnr_to_sigma2(db, normalized_volume)),
                  _lattice_fields(k0, k1, pair.n), step,
                  max_trials=max_trials, target_errors=target_errors,
                  seed=seed, max_iter=max_iter, batch=batch, paired=paired_noise)
