"""Command-line front end.

Subcommands: info, build, search, distance, simulate-code, simulate-lattice.
:func:`build_parser` declares each flag once: its type, default, choices,
whether it is required and which flags exclude it.  Flag names match
exactly, never by abbreviation.  A flat config file given with --config
holds ``key=value`` lines; each becomes ``--key=value`` ahead of the
command line's own flags and the same parser reads both, so an explicit
flag wins, a key that is not a flag of the command is refused, and so is a
config value that an explicit flag excludes.  ``build --proto`` and
``distance --proto`` read their matrix through one reader: the prototype
file, rescaled by --scale-n and --scale-rule, then edited by --edits.  A
flag that the chosen input does not read is refused too: ``--lattice``
with one of those options (or build's --h1-groups), ``distance --proto``
with ``--matrix``.

Simulation commands append rows to a stable-schema CSV and write a JSON
manifest next to it.  The manifest's top-level keys describe the latest run
(command; ``config``, every resolved option, typed, defaults included;
version, Python/numpy/BLAS versions, git revision and ``git_dirty`` (true
when tracked files differ from that revision; both null outside a git
checkout), ``src_sha256`` over the package's source files, and
``csv_rows``, the first and last CSV data row it wrote, counted from 1
after the header); ``runs`` keeps one such record per run appended to the
CSV.

Exit codes: 0 success, 2 config error (any parse error, as one line, and
any ValueError raised by the library), 3 data error (including an input
file, prototype or edits, that is unreadable or malformed).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np

from . import __version__, codec, codes, lattice, presets, qc, sim, wmin

# the CSV columns are sim.SimReport's fields, in order; a field without a
# format spec here is written as str() writes it
CSV_HEADER = [f.name for f in dataclasses.fields(sim.SimReport)]
_CSV_FORMATS = {"x_db": "g", "bler": ".8g", "iterations_mean": ".4g"}


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


def _config_flags(path: str) -> list[str]:
    """The ``key=value`` lines of a config file as ``--key=value`` flags."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        # a directory, an unreadable file or one that is not text
        raise ConfigError(f"cannot read config file {path}: "
                          f"{getattr(e, 'strerror', None) or e}")
    out = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = (s.strip() for s in line.partition("="))
        if not (key and sep):
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key == "config":
            raise ConfigError(f"{path}:{lineno}: unknown config key 'config'; "
                              "a config file cannot name another")
        out.append(f"--{key}={val}")
    return out


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with its --config file's flags placed right after the
    command, ahead of the command line's own flags, which therefore win."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None or not argv or argv[0] not in COMMANDS:
        return argv
    return [argv[0], *_config_flags(path), *argv[1:]]


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


def _report_row(r: sim.SimReport) -> list[str]:
    return [format(getattr(r, k), _CSV_FORMATS.get(k, "")) for k in CSV_HEADER]


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


def _manifest(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    rev, dirty = _git_state()
    return {"command": args.command, "config": config, "version": __version__,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "git_rev": rev, "git_dirty": dirty,
            "src_sha256": _src_digest()}


def cmd_info(args: argparse.Namespace) -> int:
    bundle = presets.get_bundle(args.lattice)
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


SCALE_RULES = {"mod": qc.scale_shifts, "floor": qc.scale_shifts_floor}
# options that only a prototype file reads; each is None when unset
# (distance has no --h1-groups)
_PROTO_ONLY = ("edits", "scale_n", "scale_rule", "h1_groups")


def _groups(spec: str) -> list[tuple[int, ...]]:
    """'1+8,4+10' -> [(1, 8), (4, 10)]"""
    try:
        return [tuple(int(i) for i in g.split("+")) for g in spec.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected block rows such as '1+8,4+10', "
                                         f"got {spec!r}")


def _lattice_bundle(args: argparse.Namespace) -> presets.LatticeBundle:
    """The built-in bundle that --lattice names; a prototype option is
    refused, since no prototype file is read."""
    unread = [k for k in _PROTO_ONLY if getattr(args, k, None) is not None]
    if unread:
        raise ConfigError(f"--{unread[0].replace('_', '-')} applies to --proto; "
                          f"--lattice {args.lattice} does not read it")
    return presets.get_bundle(args.lattice)


def _prototype(args: argparse.Namespace) -> qc.ProtoMatrix:
    """The prototype that --proto, --scale-n, --scale-rule and --edits
    describe: the file, rescaled, then edited.  The 802.16e rules give
    length n only to a 24-column table, so a --scale-n that does not give
    this prototype length n is refused."""
    if args.scale_rule is not None and args.scale_n is None:
        raise ConfigError("--scale-rule applies only with --scale-n")
    try:
        P = qc.load_proto(args.proto)
    except OSError as e:
        raise DataError(f"cannot read prototype file {args.proto}: {e}")
    except ValueError as e:
        raise DataError(f"bad prototype file {args.proto}: {e}")
    if args.scale_n is not None:
        P = SCALE_RULES[args.scale_rule or "mod"](P, args.scale_n)
        if P.n_b * P.z != args.scale_n:
            raise ConfigError(f"--scale-n {args.scale_n}: the {P.m_b}x{P.n_b} prototype "
                              f"{args.proto} scales to length {P.n_b * P.z}; the 802.16e "
                              "rule gives length n only to a 24-column table")
    if args.edits is not None:
        try:
            P = qc.apply_edits(P, qc.load_edits(args.edits))
        except OSError as e:
            raise DataError(f"cannot read edits file: {e}")
        except (ValueError, qc.OutOfRangeError) as e:
            raise DataError(f"bad edits file {args.edits}: {e}")
    return P


def _prototype_label(args: argparse.Namespace) -> str:
    """--proto and the options that changed its matrix, as typed, with the
    scaling rule resolved."""
    label = args.proto
    if args.scale_n is not None:
        label += f" --scale-n {args.scale_n} --scale-rule {args.scale_rule or 'mod'}"
    if args.edits is not None:
        label += f" --edits {args.edits}"
    return label


def _proto_pair(args: argparse.Namespace) -> codes.NestedPair:
    """The nested pair that build's prototype options describe."""
    try:
        return codes.make_pair_row_sums(_prototype(args), args.h1_groups or [(0,)])
    except codes.BadGroupsError as e:
        if args.h1_groups is None:
            raise ConfigError(f"level 1 is the default group (0,), as --h1-groups "
                              f"was not given: {e}; --h1-groups picks other groups")
        raise ConfigError(f"--h1-groups: {e}")


def cmd_build(args: argparse.Namespace) -> int:
    if args.lattice is not None:
        # building a bundle refuses a pair that is not nested
        bundle = _lattice_bundle(args)
        pair, (plan0, plan1) = bundle.pair, bundle.plans
    else:
        pair = _proto_pair(args)
        plan0, plan1 = codec.EncoderPlan(pair.h0), codec.EncoderPlan(pair.h1)
    # one RREF per level: each plan gives its k, plan0 the nesting test
    k0, k1 = plan0.num_info, plan1.num_info
    print(f"H0: {pair.h0.rows}x{pair.h0.cols}  rank {pair.n - k0}  k0 {k0}")
    print(f"H1: {pair.h1.rows}x{pair.h1.cols}  rank {pair.n - k1}  k1 {k1}")
    print(f"nested: {lattice.is_nested(pair, plan0)}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.out:
        _check_out_dir(args.out)
    res = qc.random_proto_search((args.rows, args.cols), args.z, args.target,
                                 not args.no_girth_filter, args.budget, args.seed,
                                 score_iterations=args.score_iters)
    text = qc.format_proto(res.proto)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise DataError(f"cannot write {args.out}: {e}")
        print(f"wrote prototype to {args.out}")
    else:
        sys.stdout.write(text)
    print(f"found weight bound {res.weight_bound} "
          f"after scoring {res.candidates_scored} candidates (seed {args.seed})")
    return 0


MATRICES = {"hqc": lambda b: qc.expand(b.proto),
            "h0": lambda b: b.pair.h0,
            "h1": lambda b: b.pair.h1}


def cmd_distance(args: argparse.Namespace) -> int:
    if args.proto is not None:
        if args.matrix is not None:
            raise ConfigError("--matrix picks a matrix of --lattice; "
                              "with --proto the search runs on its H_qc")
        H, label = qc.expand(_prototype(args)), _prototype_label(args)
    else:
        which = args.matrix or "hqc"
        H = MATRICES[which](_lattice_bundle(args))
        label = f"{args.lattice}:{which}"
    t0 = time.perf_counter()
    try:
        w, witness = wmin.low_weight_search(H, args.iterations, args.seed,
                                            stop_at=args.stop_at)
    except wmin.WitnessError as e:
        raise DataError(f"{label}: {e}")
    wall = time.perf_counter() - t0
    if not witness.any() or H.mul_vec(witness).any():
        raise DataError(f"{label}: witness of weight {w} is not a nonzero codeword")
    print(f"{label}: search took {wall:.2f} s (budget {args.iterations} iterations)",
          file=sys.stderr)
    print(f"{label}: found codeword weight {w} "
          f"(iterations <= {args.iterations}, seed {args.seed}); upper bound on d_min")
    return 0


def _simulate(args: argparse.Namespace, grid: str, sweep) -> int:
    """Shared body of the simulate commands: ``sweep(bundle, points,
    **stopping)`` runs the sweep; its rows go to stdout or --out."""
    bundle = presets.get_bundle(args.lattice)
    points = _parse_range(grid)
    runs = _prior_runs(args.out)
    reports = sweep(bundle, points, max_trials=args.max_trials,
                    target_errors=args.target_errors, seed=args.seed,
                    max_iter=args.iters)
    _write_reports(reports, args.out, _manifest(args), runs)
    return 0


CODES = {"g0": lambda b: (b.pair.h0, b.plan0),
         "g1": lambda b: (b.pair.h1, b.plan1)}


def cmd_simulate_code(args: argparse.Namespace) -> int:
    return _simulate(args, args.snr, lambda b, points, **kw: sim.sweep_code(
        *CODES[args.code](b), points, label=f"{b.name}:{args.code}", **kw))


def cmd_simulate_lattice(args: argparse.Namespace) -> int:
    return _simulate(args, args.vnr, lambda b, points, **kw: sim.sweep_lattice(
        b.pair, b.plans, b.profile.normalized_volume, points, label=b.name, **kw))


class _Parser(argparse.ArgumentParser):
    """Matches exact flag names only, and turns every parse error into a
    :class:`ConfigError`: one line, exit 2, no usage text.

    A token that starts with a minus sign and a digit, or a minus sign, a
    dot and a digit, is a value, not a flag, so a grid may start below
    zero (``--vnr -1,0``, ``--snr -2:0.5:1``).  This is the rule of
    Python 3.13's argparse; earlier versions take only a plain negative
    number for a value.  Subparsers are made of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="qclattice",
                 description="Two-level lattice constructions "
                             "from QC-LDPC and SPC product codes")
    sub = ap.add_subparsers(dest="command", required=True)
    lattices = presets.BUILTIN_LATTICES

    def command(name, summary, seeded=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key=value config file, "
                                        "read ahead of the flags")
        if seeded:
            p.add_argument("--seed", type=int, default=0,
                           help="master seed (unsigned, default %(default)s)")
        return p

    def proto_flags(p):
        p.add_argument("--edits", help="cell edits file (with --proto)")
        p.add_argument("--scale-n", type=int, help="rescale to length n (with --proto)")
        p.add_argument("--scale-rule", choices=SCALE_RULES,
                       help="shift scaling rule for --scale-n: mod (default) or floor")

    def sweep_flags(p):
        p.add_argument("--max-trials", type=int, default=sim.DEFAULT_MAX_TRIALS,
                       help="trial cap per point (default %(default)s)")
        p.add_argument("--target-errors", type=int, default=sim.DEFAULT_TARGET_ERRORS,
                       help="error target per point (default %(default)s)")
        p.add_argument("--iters", type=int, default=100,
                       help="decoder iteration cap (default %(default)s)")
        p.add_argument("--out", help="CSV output path (appends)")

    p = command("info", "print the profile of a built-in lattice", seeded=False)
    p.add_argument("--lattice", required=True, choices=lattices)

    p = command("build", "build a nested pair and report dimensions", seeded=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lattice", choices=lattices, help="built-in name")
    source.add_argument("--proto", help="prototype matrix file")
    proto_flags(p)
    p.add_argument("--h1-groups", type=_groups,
                   help="level-1 row-sum groups, e.g. '1+8,4+10' or block row '2' "
                        "(with --proto; default 0)")

    p = command("search", "random prototype search for large d_min")
    p.add_argument("--rows", type=int, required=True, help="block rows m_b")
    p.add_argument("--cols", type=int, required=True, help="block columns n_b")
    p.add_argument("--z", type=int, required=True, help="circulant size")
    p.add_argument("--target", type=int, required=True, help="target minimum weight")
    p.add_argument("--budget", type=int, default=10,
                   help="candidates to score (default %(default)s)")
    p.add_argument("--score-iters", type=int, default=2000,
                   help="low-weight-search iterations per candidate "
                        "(default %(default)s)")
    p.add_argument("--no-girth-filter", type=int, choices=(0, 1), default=0,
                   help="1 to allow 4-cycles in candidates")
    p.add_argument("--out", help="output prototype file")

    p = command("distance", "probabilistic low-weight codeword search")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lattice", choices=lattices, help="built-in name")
    source.add_argument("--proto", help="prototype matrix file; searches its H_qc")
    proto_flags(p)
    p.add_argument("--matrix", choices=MATRICES,
                   help="with --lattice: hqc (default), h0 or h1")
    p.add_argument("--iterations", type=int, default=10000,
                   help="search iterations (default %(default)s)")
    p.add_argument("--stop-at", type=int, help="stop once weight <= this")

    p = command("simulate-code", "mod-2 Gaussian sweep of one component code")
    p.add_argument("--lattice", required=True, choices=lattices)
    p.add_argument("--code", choices=CODES, default="g0",
                   help="component code (default %(default)s)")
    p.add_argument("--snr", required=True, help="SNR grid in dB: a:step:b or comma list")
    sweep_flags(p)

    p = command("simulate-lattice", "unconstrained-AWGN lattice sweep")
    p.add_argument("--lattice", required=True, choices=lattices)
    p.add_argument("--vnr", required=True, help="VNR grid in dB: a:step:b or comma list")
    sweep_flags(p)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        return COMMANDS[args.command](args)
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
