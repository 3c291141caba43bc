"""Command-line front end.

Subcommands: info, build, search, distance, simulate-code, simulate-lattice.
Every flag can also be supplied as ``key=value`` in a flat config file given
with --config; explicit flags override config values.  Simulation commands
append rows to a stable-schema CSV and write a JSON manifest (resolved
config + seed + version) next to it.

Exit codes: 0 success, 2 config error (including bad numeric options and
any ValueError raised by the library), 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__, codes, lattice, presets, qc, sim, wmin
from .gf2 import rank

CSV_HEADER = ["kind", "label", "x_db", "trials", "block_errors", "bler",
              "stage0_errors", "stage1_errors", "integer_errors",
              "iterations_mean", "seed"]


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _parse_range(spec: str) -> list[float]:
    """Parse 'a:step:b' (inclusive grid) or a comma list 'a,b,c'."""
    try:
        if ":" in spec:
            a, step, b = (float(x) for x in spec.split(":"))
            if step <= 0:
                raise ValueError
            out = []
            x = a
            while x <= b + 1e-9:
                out.append(round(x, 9))
                x += step
            return out
        return [float(x) for x in spec.split(",")]
    except ValueError:
        raise ConfigError(f"bad range {spec!r}; expected 'a:step:b' or 'a,b,...'")


def _int_opt(opts: dict, key: str, default: int | None) -> int | None:
    """Integer option ``key`` (flag or config value); ``default`` if unset.

    Ranges are checked by the library calls the value goes to.
    """
    raw = opts.get(key)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"--{key.replace('_', '-')} must be an integer, got {raw!r}")


def _load_config(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Overlay config-file values under explicit flags."""
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.config:
        cfg = _load_config(args.config)
        valid = set(opts)
        for key, val in cfg.items():
            k = key.replace("-", "_")
            if k not in valid:
                raise ConfigError(f"unknown config key {key!r}")
            if opts[k] is None or opts[k] == parser.get_default(k):
                opts[k] = val
    return opts


def _write_reports(reports: list[sim.SimReport], out_path: str | None,
                   manifest: dict) -> None:
    if out_path is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(_report_row(r))
        return
    new_file = not (os.path.exists(out_path) and os.path.getsize(out_path) > 0)
    with open(out_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(_report_row(r))
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reports)} rows to {out_path}")


def _report_row(r: sim.SimReport) -> list:
    return [r.kind, r.label, f"{r.x_db:g}", r.trials, r.block_errors,
            f"{r.bler:.8g}", r.stage0_errors, r.stage1_errors,
            r.integer_errors, f"{r.iterations_mean:.4g}", r.seed]


def _manifest(command: str, opts: dict) -> dict:
    clean = {k: v for k, v in opts.items() if v is not None}
    return {"command": command, "config": clean, "version": __version__}


def _get_bundle(name: str | None) -> presets.LatticeBundle:
    if not name:
        raise ConfigError("missing key: lattice")
    try:
        return presets.get_bundle(name)
    except KeyError as e:
        raise ConfigError(str(e))


def _load_proto_file(path: str) -> qc.ProtoMatrix:
    try:
        return qc.load_proto(path)
    except OSError as e:
        raise DataError(f"cannot read prototype file {path}: {e}")
    except ValueError as e:
        raise DataError(f"bad prototype file {path}: {e}")


def cmd_info(opts: dict) -> int:
    bundle = _get_bundle(opts["lattice"])
    p = bundle.profile
    print(f"lattice {bundle.name}")
    print(f"  N = {p.N} (code length {p.N - 1} + dummy coordinate)")
    print(f"  k = ({p.k[0]}, {p.k[1]})")
    print(f"  rates = ({p.r[0]:.3f}, {p.r[1]:.3f})")
    print(f"  design distances = ({p.d[0]}, {p.d[1]})")
    print(f"  d2min = {p.d2min}")
    print(f"  normalized volume V^(2/N) = {p.normalized_volume:.6f}")
    print(f"  coding gain = {p.gain_db:.2f} dB")
    return 0


def cmd_build(opts: dict) -> int:
    if opts.get("proto"):
        P = _load_proto_file(opts["proto"])
        if opts.get("scale_n"):
            rule = opts.get("scale_rule") or "mod"
            if rule == "mod":
                P = qc.scale_shifts(P, int(opts["scale_n"]))
            elif rule == "floor":
                P = qc.scale_shifts_floor(P, int(opts["scale_n"]))
            else:
                raise ConfigError(f"unknown scale-rule {rule!r}; use mod or floor")
        if opts.get("edits"):
            try:
                P = qc.apply_edits(P, qc.load_edits(opts["edits"]))
            except OSError as e:
                raise DataError(f"cannot read edits file: {e}")
        if opts.get("h1_groups"):
            groups = [tuple(int(i) for i in g.split("+"))
                      for g in str(opts["h1_groups"]).split(",")]
            pair = codes.make_pair_row_sums(P, groups)
        else:
            pair = codes.make_pair_block_row(P, int(opts.get("h1_block_row") or 0))
    else:
        bundle = _get_bundle(opts.get("lattice"))
        pair = bundle.pair
    k0, k1 = lattice.code_dimensions(pair)
    print(f"H0: {pair.h0.rows}x{pair.h0.cols}  rank {rank(pair.h0)}  k0 {k0}")
    print(f"H1: {pair.h1.rows}x{pair.h1.cols}  rank {rank(pair.h1)}  k1 {k1}")
    print(f"nested: {codes.verify_nesting(pair)}")
    return 0


def cmd_search(opts: dict) -> int:
    for key in ("rows", "cols", "z", "target"):
        if opts.get(key) is None:
            raise ConfigError(f"missing key: {key}")
    seed = _int_opt(opts, "seed", 0)
    res = qc.random_proto_search(
        (_int_opt(opts, "rows", None), _int_opt(opts, "cols", None)),
        _int_opt(opts, "z", None), _int_opt(opts, "target", None),
        not bool(_int_opt(opts, "no_girth_filter", 0)),
        _int_opt(opts, "budget", 10), seed,
        score_iterations=_int_opt(opts, "score_iters", 2000))
    text = qc.format_proto(res.proto)
    if opts.get("out"):
        with open(opts["out"], "w") as fh:
            fh.write(text)
        print(f"wrote prototype to {opts['out']}")
    else:
        sys.stdout.write(text)
    print(f"found weight bound {res.weight_bound} "
          f"after scoring {res.candidates_scored} candidates (seed {seed})")
    return 0


def cmd_distance(opts: dict) -> int:
    if opts.get("proto"):
        H = qc.expand(_load_proto_file(opts["proto"]))
        label = opts["proto"]
    else:
        bundle = _get_bundle(opts.get("lattice"))
        which = opts.get("matrix") or "hqc"
        if which == "hqc":
            H = qc.expand(bundle.proto)
        elif which == "h0":
            H = bundle.pair.h0
        elif which == "h1":
            H = bundle.pair.h1
        else:
            raise ConfigError(f"unknown matrix {which!r}; use hqc, h0 or h1")
        label = f"{bundle.name}:{which}"
    iters = _int_opt(opts, "iterations", 10000)
    seed = _int_opt(opts, "seed", 0)
    stop = _int_opt(opts, "stop_at", None)
    try:
        w, witness = wmin.low_weight_search(H, iters, seed, stop_at=stop)
    except wmin.WitnessError as e:
        raise DataError(f"{label}: {e}")
    if not witness.any() or H.mul_vec(witness).any():
        raise DataError(f"{label}: witness of weight {w} is not a nonzero codeword")
    print(f"{label}: found codeword weight {w} "
          f"(iterations <= {iters}, seed {seed}); upper bound on d_min")
    return 0


def _sim_common(opts: dict) -> tuple[int, int, int, int]:
    return (_int_opt(opts, "seed", 0),
            _int_opt(opts, "max_trials", sim.DEFAULT_MAX_TRIALS),
            _int_opt(opts, "target_errors", sim.DEFAULT_TARGET_ERRORS),
            _int_opt(opts, "iters", 100))


def cmd_simulate_code(opts: dict) -> int:
    bundle = _get_bundle(opts.get("lattice"))
    if not opts.get("snr"):
        raise ConfigError("missing key: snr")
    points = _parse_range(str(opts["snr"]))
    seed, max_trials, target_errors, iters = _sim_common(opts)
    which = opts.get("code") or "g0"
    if which == "g0":
        H, plan = bundle.pair.h0, bundle.plan0
    elif which == "g1":
        H, plan = bundle.pair.h1, bundle.plan1
    else:
        raise ConfigError(f"unknown code {which!r}; use g0 or g1")
    label = f"{bundle.name}:{which}"
    reports = sim.sweep_code(H, plan, points, max_trials=max_trials,
                             target_errors=target_errors, seed=seed,
                             max_iter=iters, label=label)
    _write_reports(reports, opts.get("out"), _manifest("simulate-code", opts))
    return 0


def cmd_simulate_lattice(opts: dict) -> int:
    bundle = _get_bundle(opts.get("lattice"))
    if not opts.get("vnr"):
        raise ConfigError("missing key: vnr")
    points = _parse_range(str(opts["vnr"]))
    seed, max_trials, target_errors, iters = _sim_common(opts)
    reports = sim.sweep_lattice(bundle.pair, bundle.plans,
                                bundle.profile.normalized_volume, points,
                                max_trials=max_trials, target_errors=target_errors,
                                seed=seed, max_iter=iters, label=bundle.name)
    _write_reports(reports, opts.get("out"), _manifest("simulate-lattice", opts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qclattice",
                                 description="Two-level lattice constructions "
                                             "from QC-LDPC and SPC product codes")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (unsigned)")

    p = sub.add_parser("info", help="print the profile of a built-in lattice")
    add_common(p)
    p.add_argument("--lattice", help="example1 or wimax1152")

    p = sub.add_parser("build", help="build a nested pair and report dimensions")
    add_common(p)
    p.add_argument("--lattice", help="built-in name (alternative to --proto)")
    p.add_argument("--proto", help="prototype matrix file")
    p.add_argument("--edits", help="cell edits file")
    p.add_argument("--scale-n", dest="scale_n", help="rescale to length n")
    p.add_argument("--scale-rule", dest="scale_rule",
                   help="shift scaling rule: mod (default) or floor")
    p.add_argument("--h1-block-row", dest="h1_block_row", help="level-1 block row index")
    p.add_argument("--h1-groups", dest="h1_groups",
                   help="level-1 row-sum groups, e.g. '1+8,4+10'")

    p = sub.add_parser("search", help="random prototype search for large d_min")
    add_common(p)
    p.add_argument("--rows", help="block rows m_b")
    p.add_argument("--cols", help="block columns n_b")
    p.add_argument("--z", help="circulant size")
    p.add_argument("--target", help="target minimum weight")
    p.add_argument("--budget", help="candidates to score (default 10)")
    p.add_argument("--score-iters", dest="score_iters",
                   help="low-weight-search iterations per candidate")
    p.add_argument("--no-girth-filter", dest="no_girth_filter", default="0",
                   help="1 to allow 4-cycles in candidates")
    p.add_argument("--out", help="output prototype file")

    p = sub.add_parser("distance", help="probabilistic low-weight codeword search")
    add_common(p)
    p.add_argument("--lattice", help="built-in name")
    p.add_argument("--matrix", help="hqc (default), h0 or h1")
    p.add_argument("--proto", help="prototype matrix file (alternative)")
    p.add_argument("--iterations", help="search iterations (default 10000)")
    p.add_argument("--stop-at", dest="stop_at", help="stop once weight <= this")

    p = sub.add_parser("simulate-code", help="AMGN sweep of one component code")
    add_common(p)
    p.add_argument("--lattice", help="built-in name")
    p.add_argument("--code", help="g0 (default) or g1")
    p.add_argument("--snr", help="SNR grid in dB: a:step:b or comma list")
    p.add_argument("--max-trials", dest="max_trials", help="trial cap per point")
    p.add_argument("--target-errors", dest="target_errors", help="error target per point")
    p.add_argument("--iters", help="decoder iteration cap (default 100)")
    p.add_argument("--out", help="CSV output path (appends)")

    p = sub.add_parser("simulate-lattice", help="unconstrained-AWGN lattice sweep")
    add_common(p)
    p.add_argument("--lattice", help="built-in name")
    p.add_argument("--vnr", help="VNR grid in dB: a:step:b or comma list")
    p.add_argument("--max-trials", dest="max_trials", help="trial cap per point")
    p.add_argument("--target-errors", dest="target_errors", help="error target per point")
    p.add_argument("--iters", help="decoder iteration cap (default 100)")
    p.add_argument("--out", help="CSV output path (appends)")
    return ap


COMMANDS = {
    "info": cmd_info,
    "build": cmd_build,
    "search": cmd_search,
    "distance": cmd_distance,
    "simulate-code": cmd_simulate_code,
    "simulate-lattice": cmd_simulate_lattice,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args, parser)
        if "seed" in opts and opts["seed"] is None:
            opts["seed"] = 0
        return COMMANDS[args.command](opts)
    except (ConfigError, ValueError) as e:
        # the library raises ValueError for out-of-range options (a seed
        # below 0, zero trials, a negative iteration cap): refused input
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
