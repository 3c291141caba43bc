"""Command-line front end.

Subcommands: info, build, search, distance, simulate-code, simulate-lattice.
Every flag can also be supplied as ``key=value`` in a flat config file given
with --config; explicit flags override config values.  Simulation commands
append rows to a stable-schema CSV and write a JSON manifest next to it.
The manifest's top-level keys describe the latest run (command, resolved
config with the seed, version, Python/numpy/BLAS versions, git revision and
``git_dirty`` (true when tracked files differ from that revision; both null
outside a git checkout), ``src_sha256`` over the package's source files,
and ``csv_rows``, the first and last CSV data row it wrote, counted from 1
after the header); ``runs`` keeps one such record per run appended to the
CSV.

Exit codes: 0 success, 2 config error (including bad numeric options and
any ValueError raised by the library), 3 data error (including an input
file, prototype or edits, that is unreadable or malformed).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

import numpy as np

from . import __version__, codec, codes, presets, qc, sim, wmin

CSV_HEADER = ["kind", "label", "x_db", "trials", "block_errors", "bler",
              "stage0_errors", "stage1_errors", "integer_errors",
              "iterations_mean", "seed"]


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


MAX_GRID_POINTS = 100_000


def _parse_range(spec: str) -> list[float]:
    """Parse 'a:step:b' (inclusive grid a + i*step) or a comma list 'a,b,c'.

    Refuses a grid that is empty, has a non-finite value or has more than
    MAX_GRID_POINTS points.
    """
    try:
        if ":" in spec:
            a, step, b = (float(x) for x in spec.split(":"))
            if not (step > 0 and all(map(math.isfinite, (a, step, b)))):
                raise ValueError
            # the loop below would build every point before any check
            span = (b + 1e-9 - a) / step
            if span >= MAX_GRID_POINTS:
                raise ConfigError(f"range {spec!r} has more than {MAX_GRID_POINTS} "
                                  "points, the most a sweep accepts")
            out = []
            i = 0
            while a + i * step <= b + 1e-9:
                out.append(round(a + i * step, 9))
                i += 1
        else:
            out = [float(x) for x in spec.split(",")]
        if not out or not all(math.isfinite(x) for x in out):
            raise ValueError
        return out
    except ValueError:
        raise ConfigError(f"bad range {spec!r}; expected 'a:step:b' or 'a,b,...' "
                          "with at least one point, all finite")


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


def _resolve(args: argparse.Namespace) -> dict:
    """Overlay config-file values under explicit flags: a config value fills
    a key only when its flag is unset."""
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.config:
        cfg = _load_config(args.config)
        valid = set(opts)
        for key, val in cfg.items():
            k = key.replace("-", "_")
            if k not in valid:
                raise ConfigError(f"unknown config key {key!r}")
            if opts[k] is None:
                opts[k] = val
    return opts


def _check_out_dir(out_path: str) -> None:
    """Refuse an output path that is a directory or whose directory does not
    exist, before any work whose result would have nowhere to go."""
    where = os.path.dirname(out_path) or "."
    if not os.path.isdir(where):
        raise DataError(f"cannot write {out_path}: directory {where} does not exist")
    if os.path.isdir(out_path):
        raise DataError(f"cannot write {out_path}: it is a directory")


def _check_csv_header(out_path: str) -> None:
    """Refuse to append to a non-empty CSV whose header is not CSV_HEADER."""
    if not (os.path.exists(out_path) and os.path.getsize(out_path) > 0):
        return
    try:
        with open(out_path, newline="") as fh:
            header = next(csv.reader(fh), None)
    except (UnicodeDecodeError, csv.Error):
        header = None
    if header != CSV_HEADER:
        raise DataError(f"{out_path} has a different header; expected "
                        f"{','.join(CSV_HEADER)}")


def _prior_runs(out_path: str | None) -> list[dict]:
    """Check that ``out_path`` can be appended to; return the run records
    of its manifest (none if absent).

    Refuses a path in a directory that does not exist, a CSV with a
    foreign header (see :func:`_check_csv_header`) and a manifest that is
    not a JSON object with a list of runs, so the rows it describes never
    lose their provenance.  A manifest from before run records were kept
    becomes one record.
    """
    if out_path is None:
        return []
    _check_out_dir(out_path)
    _check_csv_header(out_path)
    path = out_path + ".manifest.json"
    if not os.path.exists(path):
        return []
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read manifest {path}: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("runs", []), list):
        raise DataError(f"{path} is not a qclattice manifest")
    return doc["runs"] if "runs" in doc else [doc]


def _write_reports(reports: list[sim.SimReport], out_path: str | None,
                   manifest: dict, runs: list[dict]) -> None:
    """Write the rows to stdout, or append them to ``out_path`` and rewrite
    its manifest: the top-level keys describe this run, with the span of
    CSV data rows it wrote, and ``runs`` holds the records of the earlier
    runs (``runs``, dropped if the CSV was empty) followed by this one.
    A failed write is a :class:`DataError`."""
    if out_path is None:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(_report_row(r))
        return
    try:
        new_file = not (os.path.exists(out_path) and os.path.getsize(out_path) > 0)
        done = 0
        if new_file:
            runs = []
        else:
            with open(out_path, newline="") as fh:
                done = sum(1 for _ in csv.reader(fh)) - 1
        with open(out_path, "a", newline="") as fh:
            writer = csv.writer(fh)
            if new_file:
                writer.writerow(CSV_HEADER)
            for r in reports:
                writer.writerow(_report_row(r))
        record = dict(manifest, csv_rows=[done + 1, done + len(reports)])
        path = out_path + ".manifest.json"
        with open(path + ".tmp", "w") as fh:
            json.dump(dict(record, runs=[*runs, record]), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(path + ".tmp", path)    # the earlier records survive a crash
    except OSError as e:
        raise DataError(f"cannot write {out_path}: {e}")
    print(f"wrote {len(reports)} rows to {out_path}")


def _report_row(r: sim.SimReport) -> list:
    return [r.kind, r.label, f"{r.x_db:g}", r.trials, r.block_errors,
            f"{r.bler:.8g}", r.stage0_errors, r.stage1_errors,
            r.integer_errors, f"{r.iterations_mean:.4g}", r.seed]


_PKG_DIR = os.path.dirname(os.path.abspath(__file__))


def _git(where: str, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True,
                              timeout=30, cwd=where)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _git_state(where: str = _PKG_DIR) -> tuple[str | None, bool | None]:
    """``(revision, dirty)`` of the git checkout holding ``where``: the HEAD
    commit, and whether a tracked file differs from it (so that HEAD alone
    does not describe the code that ran); ``(None, None)`` outside one."""
    rev = _git(where, "rev-parse", "HEAD")
    if rev is None:
        return None, None
    # --no-optional-locks: a read-only query that never takes index.lock
    # nor refreshes .git/index in the checkout it describes
    status = _git(where, "--no-optional-locks", "status", "--porcelain",
                  "--untracked-files=no")
    return rev.strip(), None if status is None else bool(status.strip())


def _src_digest(pkg: str = _PKG_DIR) -> str:
    """SHA-256 over the package's ``.py`` and ``.txt`` files (each one's path
    relative to ``pkg``, a NUL byte, then its bytes, in sorted path order):
    names the code that ran with or without git."""
    h = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), pkg)
                   for d, _, files in os.walk(pkg) for f in files
                   if f.endswith((".py", ".txt")))
    for rel in paths:
        with open(os.path.join(pkg, rel), "rb") as fh:
            h.update(rel.replace(os.sep, "/").encode() + b"\0" + fh.read())
    return h.hexdigest()


def _blas() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except KeyError:    # a build whose report names no BLAS
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _manifest(command: str, opts: dict) -> dict:
    clean = {k: v for k, v in opts.items() if v is not None}
    rev, dirty = _git_state()
    return {"command": command, "config": clean, "version": __version__,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "git_rev": rev, "git_dirty": dirty,
            "src_sha256": _src_digest()}


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
    if opts.get("h1_block_row") and opts.get("h1_groups"):
        raise ConfigError("give --h1-block-row or --h1-groups, not both")
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
            except (ValueError, qc.OutOfRangeError) as e:
                raise DataError(f"bad edits file {opts['edits']}: {e}")
        if opts.get("h1_groups"):
            groups = [tuple(int(i) for i in g.split("+"))
                      for g in str(opts["h1_groups"]).split(",")]
            pair = codes.make_pair_row_sums(P, groups)
        else:
            # block row i is the group of one row (i,)
            try:
                pair = codes.make_pair_row_sums(P, [(_int_opt(opts, "h1_block_row", 0),)])
            except codes.BadGroupsError as e:
                raise ConfigError(f"--h1-block-row: {e}")
        # one RREF per level: each plan gives its k, plan0 the nesting test
        plan0, plan1 = codec.EncoderPlan(pair.h0), codec.EncoderPlan(pair.h1)
        k0, k1 = plan0.num_info, plan1.num_info
        nested = bool(plan0.in_row_space(pair.h1.a).all())
    else:
        # building a bundle refuses a pair that is not nested
        bundle = _get_bundle(opts.get("lattice"))
        pair = bundle.pair
        k0, k1 = bundle.profile.k
        nested = True
    print(f"H0: {pair.h0.rows}x{pair.h0.cols}  rank {pair.n - k0}  k0 {k0}")
    print(f"H1: {pair.h1.rows}x{pair.h1.cols}  rank {pair.n - k1}  k1 {k1}")
    print(f"nested: {nested}")
    return 0


def cmd_search(opts: dict) -> int:
    for key in ("rows", "cols", "z", "target"):
        if opts.get(key) is None:
            raise ConfigError(f"missing key: {key}")
    seed = _int_opt(opts, "seed", 0)
    if opts.get("out"):
        _check_out_dir(opts["out"])
    res = qc.random_proto_search(
        (_int_opt(opts, "rows", None), _int_opt(opts, "cols", None)),
        _int_opt(opts, "z", None), _int_opt(opts, "target", None),
        not bool(_int_opt(opts, "no_girth_filter", 0)),
        _int_opt(opts, "budget", 10), seed,
        score_iterations=_int_opt(opts, "score_iters", 2000))
    text = qc.format_proto(res.proto)
    if opts.get("out"):
        try:
            with open(opts["out"], "w") as fh:
                fh.write(text)
        except OSError as e:
            raise DataError(f"cannot write {opts['out']}: {e}")
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
    t0 = time.perf_counter()
    try:
        w, witness = wmin.low_weight_search(H, iters, seed, stop_at=stop)
    except wmin.WitnessError as e:
        raise DataError(f"{label}: {e}")
    wall = time.perf_counter() - t0
    if not witness.any() or H.mul_vec(witness).any():
        raise DataError(f"{label}: witness of weight {w} is not a nonzero codeword")
    print(f"{label}: search took {wall:.2f} s (budget {iters} iterations)",
          file=sys.stderr)
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
    runs = _prior_runs(opts.get("out"))
    reports = sim.sweep_code(H, plan, points, max_trials=max_trials,
                             target_errors=target_errors, seed=seed,
                             max_iter=iters, label=label)
    _write_reports(reports, opts.get("out"), _manifest("simulate-code", opts), runs)
    return 0


def cmd_simulate_lattice(opts: dict) -> int:
    bundle = _get_bundle(opts.get("lattice"))
    if not opts.get("vnr"):
        raise ConfigError("missing key: vnr")
    points = _parse_range(str(opts["vnr"]))
    seed, max_trials, target_errors, iters = _sim_common(opts)
    runs = _prior_runs(opts.get("out"))
    reports = sim.sweep_lattice(bundle.pair, bundle.plans,
                                bundle.profile.normalized_volume, points,
                                max_trials=max_trials, target_errors=target_errors,
                                seed=seed, max_iter=iters, label=bundle.name)
    _write_reports(reports, opts.get("out"), _manifest("simulate-lattice", opts), runs)
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
    p.add_argument("--h1-block-row", dest="h1_block_row",
                   help="level-1 block row index (default 0); not with --h1-groups")
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
    p.add_argument("--no-girth-filter", dest="no_girth_filter",
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
        opts = _resolve(args)
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
