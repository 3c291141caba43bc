import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qclattice
from qclattice import cli, presets, qc, wmin

_DATA = Path(qclattice.__file__).parent / "data"
_EXAMPLE1_PROTO = _DATA / "example1_3x5_z34.txt"
_WIMAX_Z96 = _DATA / "wimax_r12_z96.txt"
_WIMAX_EDITS = _DATA / "wimax_r12_edits_n1152.txt"
_EXAMPLE1_BUILD = "H0: 107x170  rank 102  k0 68\nH1: 39x170  rank 38  k1 132\nnested: True\n"
_WIMAX_BUILD = "H0: 600x1152  rank 588  k0 564\nH1: 120x1152  rank 118  k1 1034\nnested: True\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_example1(self, capsys):
        code, out, _ = run(capsys, "info", "--lattice", "example1")
        assert code == 0
        assert "N = 171" in out
        assert "k = (68, 132)" in out
        assert "d2min = 16" in out
        assert "7.04 dB" in out

    def test_wimax(self, capsys):
        code, out, _ = run(capsys, "info", "--lattice", "wimax1152")
        assert code == 0
        assert "N = 1153" in out
        assert "k = (564, 1034)" in out
        assert "8.34 dB" in out

    def test_unknown_lattice_is_config_error(self, capsys):
        code, _, err = run(capsys, "info", "--lattice", "nope")
        assert code == 2
        assert "nope" in err


class TestBuild:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "build", "--lattice", "example1")
        assert code == 0
        assert "rank 102" in out and "k0 68" in out
        assert "rank 38" in out and "k1 132" in out
        assert "nested: True" in out

    def test_from_proto_file(self, capsys, tmp_path):
        p = tmp_path / "toy.proto"
        p.write_text("1 2 2\n0 0\n")
        code, out, _ = run(capsys, "build", "--proto", str(p), "--h1-groups", "0")
        assert code == 0
        assert "H0: 4x4" in out

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "build", "--proto", "/nonexistent.proto")
        assert code == 3
        assert "nonexistent" in err

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "bad.proto"
        p.write_text("not a header\n")
        code, _, err = run(capsys, "build", "--proto", str(p))
        assert code == 3

    @pytest.mark.parametrize("row", ["7", "-1"])
    def test_block_row_outside_grid_is_config_error(self, capsys, tmp_path, row):
        p = tmp_path / "toy.proto"
        p.write_text("1 2 2\n0 0\n")
        code, out, err = run(capsys, "build", "--proto", str(p), "--h1-groups", row)
        assert code == 2 and out == ""
        assert err.startswith("config error: --h1-groups:") and f"block row {row}" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("groups, row", [("1+1", 1), ("0,2+1+2", 2)])
    def test_block_row_twice_in_a_group_is_config_error(self, capsys, groups, row):
        # 1+1 once printed k1 132, the band of row 1 alone
        err = run_refused(capsys, ["build", "--proto", str(_EXAMPLE1_PROTO),
                                   "--h1-groups", groups])
        group = groups.split(",")[-1]
        assert err == f"config error: --h1-groups: group {group} names block row {row} twice\n"

    def test_zero_block_in_block_row_is_config_error(self, capsys, tmp_path):
        # without --h1-groups the message names the default group it used
        p = tmp_path / "toy.proto"
        p.write_text("1 2 2\n0 -1\n")
        code, out, err = run(capsys, "build", "--proto", str(p))
        assert code == 2 and out == ""
        assert err.startswith("config error: level 1 is the default group (0,), "
                              "as --h1-groups was not given: block columns [1] ")
        assert err.rstrip().endswith("; --h1-groups picks other groups")
        assert len(err.strip().splitlines()) == 1

    def test_zero_block_in_named_block_row_is_config_error(self, capsys, tmp_path):
        p = tmp_path / "toy.proto"
        p.write_text("1 2 2\n0 -1\n")
        code, out, err = run(capsys, "build", "--proto", str(p), "--h1-groups", "0")
        assert code == 2 and out == ""
        assert err == "config error: --h1-groups: block columns [1] not covered by any group\n"

    def test_block_row_flag_is_unknown(self, capsys):
        # --h1-groups 2 is block row 2; the flag that duplicated it is gone
        code, out, err = run(capsys, "build", "--proto", str(_EXAMPLE1_PROTO),
                             "--h1-block-row", "2")
        assert code == 2 and out == ""
        assert err.startswith("config error: unrecognized arguments: --h1-block-row")
        assert len(err.strip().splitlines()) == 1

    def test_single_group_is_block_row(self, capsys):
        _, default, _ = run(capsys, "build", "--proto", str(_EXAMPLE1_PROTO))
        _, row0, _ = run(capsys, "build", "--proto", str(_EXAMPLE1_PROTO), "--h1-groups", "0")
        code, row2, _ = run(capsys, "build", "--proto", str(_EXAMPLE1_PROTO),
                            "--h1-groups", "2")
        assert code == 0 and default == row0
        assert row2 == ("H0: 107x170  rank 102  k0 68\n"
                        "H1: 39x170  rank 38  k1 132\nnested: True\n")

    @pytest.mark.parametrize("edit", ["0 5 3", "0 1", "0 0 9"],
                             ids=["cell-outside-grid", "malformed-line", "bad-exponent"])
    def test_bad_edits_file_is_data_error(self, capsys, tmp_path, edit):
        p = tmp_path / "toy.proto"
        p.write_text("1 2 2\n0 0\n")
        e = tmp_path / "bad.edits"
        e.write_text(edit + "\n")
        code, out, err = run(capsys, "build", "--proto", str(p), "--edits", str(e))
        assert code == 3 and out == ""
        assert err.startswith("data error: bad edits file") and "bad.edits" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("args, expected", [
        (["--lattice", "wimax1152"], _WIMAX_BUILD),
        (["--lattice", "example1"], _EXAMPLE1_BUILD),
        (["--proto", str(_EXAMPLE1_PROTO)], _EXAMPLE1_BUILD),
        (["--proto", str(_EXAMPLE1_PROTO), "--h1-groups", "0+1,2"],
         "H0: 107x170  rank 102  k0 68\nH1: 73x170  rank 70  k1 100\nnested: True\n"),
        (["--proto", str(_WIMAX_Z96), "--scale-n", "1152", "--scale-rule", "floor",
          "--edits", str(_WIMAX_EDITS), "--h1-groups", "1+8,4+10"], _WIMAX_BUILD),
    ], ids=["lattice-wimax1152", "lattice-example1", "proto", "proto-h1-groups",
            "proto-wimax1152"])
    def test_two_eliminations(self, capsys, monkeypatch, eliminations, args, expected):
        # one RREF per level, with the built-in bundles uncached; the
        # outputs are pinned from the build that ran 8 (--lattice) or 4
        for name, build in list(presets.BUILTIN_LATTICES.items()):
            monkeypatch.setitem(presets.BUILTIN_LATTICES, name, build.__wrapped__)
        code, out, _ = run(capsys, "build", *args)
        assert code == 0 and out == expected
        assert len(eliminations) == 2

    def test_proto_flags_give_the_preset_lattice(self):
        # the wimax1152 recipe's options, given as flags, build the preset's
        # pair and plans; a lattice from flags has no design distances
        args = cli.build_parser().parse_args([
            "build", "--proto", str(_WIMAX_Z96), "--scale-n", "1152", "--scale-rule",
            "floor", "--edits", str(_WIMAX_EDITS), "--h1-groups", "1+8,4+10"])
        b, preset = cli._bundle(args), presets.get_bundle("wimax1152")
        assert (b.proto, b.pair, b.design_d) == (preset.proto, preset.pair, None)
        assert ([plan.num_info for plan in b.plans]
                == [plan.num_info for plan in preset.plans] == [564, 1034])


class TestPlansOnFirstUse:
    """A command builds the encoder plans it reads and no other: one
    elimination per plan, counted with the built-in bundles uncached
    (build's two and distance's none are pinned above)."""

    @pytest.mark.parametrize("argv, count", [
        (["info", "--lattice", "example1"], 2),
        (["simulate-lattice", "--lattice", "example1", "--vnr", "12",
          "--max-trials", "8", "--target-errors", "8"], 2),
        (["simulate-code", "--lattice", "example1", "--code", "g0", "--snr", "12",
          "--max-trials", "8", "--target-errors", "8"], 1),
    ], ids=["info", "simulate-lattice", "simulate-code-g0"])
    def test_eliminations(self, capsys, monkeypatch, eliminations, argv, count):
        for name, build in list(presets.BUILTIN_LATTICES.items()):
            monkeypatch.setitem(presets.BUILTIN_LATTICES, name, build.__wrapped__)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(eliminations) == count


class TestOutputDirectory:
    # a missing directory once cost the whole sweep, then a
    # FileNotFoundError traceback; it is refused before any work
    @pytest.mark.parametrize("command, grid, work", [
        ("simulate-code", "--snr", "sweep_code"),
        ("simulate-lattice", "--vnr", "sweep_lattice"),
    ])
    def test_sweep_refused_before_it_runs(self, capsys, tmp_path, monkeypatch,
                                          command, grid, work):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep started despite the missing directory")
        monkeypatch.setattr(cli.sim, work, no_sweep)
        out = tmp_path / "missing" / "rows.csv"
        code, _, err = run(capsys, command, "--lattice", "example1", grid, "5",
                           "--out", str(out))
        assert code == 3
        assert err.startswith("data error: cannot write") and "does not exist" in err
        assert len(err.strip().splitlines()) == 1

    def test_directory_as_csv_refused(self, capsys, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep started despite the directory")
        monkeypatch.setattr(cli.sim, "sweep_code", no_sweep)
        code, _, err = run(capsys, "simulate-code", "--lattice", "example1",
                           "--snr", "5", "--out", str(tmp_path))
        assert code == 3
        assert err.startswith("data error:") and "is a directory" in err
        assert len(err.strip().splitlines()) == 1

    def test_failed_csv_write_is_data_error(self, capsys, tmp_path, monkeypatch):
        # the directory goes away while the sweep runs
        where = tmp_path / "gone"
        where.mkdir()
        sweep = cli.sim.sweep_code

        def sweep_then_remove(*args, **kwargs):
            reports = sweep(*args, **kwargs)
            where.rmdir()
            return reports
        monkeypatch.setattr(cli.sim, "sweep_code", sweep_then_remove)
        code, out, err = run(capsys, "simulate-code", "--lattice", "example1",
                             "--snr", "12", "--max-trials", "4", "--out",
                             str(where / "rows.csv"))
        assert code == 3 and out == ""
        assert err.startswith("data error: cannot write")
        assert len(err.strip().splitlines()) == 1


class TestDistance:
    def test_spc_weight(self, capsys, tmp_path):
        p = tmp_path / "toy.proto"
        p.write_text("1 3 4\n0 1 2\n")
        code, out, _ = run(capsys, "distance", "--proto", str(p),
                           "--iterations", "300", "--seed", "2")
        assert code == 0
        assert "found codeword weight" in out

    def test_builtin_matrix(self, capsys):
        code, out, _ = run(capsys, "distance", "--lattice", "example1",
                           "--matrix", "h1", "--iterations", "200",
                           "--stop-at", "4", "--seed", "0")
        assert code == 0
        assert "weight 4" in out

    def test_wall_time_on_stderr_only(self, capsys):
        code, out, err = run(capsys, "distance", "--lattice", "example1",
                             "--matrix", "hqc", "--iterations", "3", "--seed", "1")
        assert code == 0
        assert out == ("example1:hqc: found codeword weight 16 "
                       "(iterations <= 3, seed 1); upper bound on d_min\n")
        assert re.fullmatch(r"example1:hqc: search took \d+\.\d\d s "
                            r"\(budget 3 iterations\)\n", err)

    def test_proto_with_scaling_and_edits(self, capsys):
        # the stdout label names the options that changed the file's matrix
        code, out, _ = run(capsys, "distance", "--proto", str(_WIMAX_Z96),
                           "--scale-n", "1152", "--scale-rule", "mod",
                           "--edits", str(_WIMAX_EDITS), "--iterations", "3", "--seed", "1")
        assert code == 0
        label = f"{_WIMAX_Z96} --scale-n 1152 --scale-rule mod --edits {_WIMAX_EDITS}"
        assert re.fullmatch(re.escape(label) + r": found codeword weight \d+ "
                            r"\(iterations <= 3, seed 1\); upper bound on d_min\n", out)

    def test_negative_seed_names_its_flag(self, capsys):
        # numpy's own refusal, "expected non-negative integer", did not
        err = run_refused(capsys, ["distance", "--lattice", "example1", "--seed", "-1"])
        assert err == "config error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("stop", ["0", "-1"])
    def test_stop_at_below_one_is_config_error(self, capsys, stop):
        # no nonzero codeword weighs less than 1, so such a stop_at could
        # only run out the whole iteration budget
        code, out, err = run(capsys, "distance", "--lattice", "example1",
                             "--stop-at", stop)
        assert code == 2 and out == ""
        assert err.startswith("config error:") and "stop_at" in err
        assert len(err.strip().splitlines()) == 1


class TestDistanceProtoMatrix:
    """``distance --proto`` searches the matrix that ``build --proto`` reads."""

    @pytest.mark.parametrize("argv, message", [
        (["--lattice", "example1", "--edits", str(_WIMAX_EDITS)],
         "--edits applies to --proto; --lattice example1 does not read it"),
        (["--lattice", "example1", "--scale-n", "1152"],
         "--scale-n applies to --proto; --lattice example1 does not read it"),
        (["--lattice", "example1", "--scale-rule", "floor"],
         "--scale-rule applies to --proto; --lattice example1 does not read it"),
        (["--proto", str(_WIMAX_Z96), "--scale-rule", "floor"],
         "--scale-rule applies only with --scale-n"),
    ], ids=["lattice-edits", "lattice-scale-n", "lattice-scale-rule",
            "scale-rule-without-scale-n"])
    def test_refused(self, capsys, argv, message):
        assert run_refused(capsys, ["distance", *argv]) == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["build", "distance"])
    @pytest.mark.parametrize("rule", ["mod", "floor"])
    def test_scale_n_that_misses_the_length_is_refused(self, capsys, tmp_path,
                                                        command, rule):
        # the 802.16e rule sets z = 96*n/2304, length n only for a 24-column
        # table; this 1x2 table once built at length 96 with exit 0
        p = tmp_path / "narrow.proto"
        p.write_text("1 2 96\n0 5\n")
        err = run_refused(capsys, [command, "--proto", str(p), "--scale-n", "1152",
                                   "--scale-rule", rule])
        assert err == (f"config error: --scale-n 1152 with {p}: the 1x2 prototype "
                       "scales to length 96, not 1152; the 802.16e rule gives length "
                       "n only to a 24-column table\n")

    @pytest.mark.parametrize("command", ["build", "distance"])
    def test_cell_edited_twice_is_data_error(self, capsys, tmp_path, command):
        # the last edit of a cell once won silently: (1, 12) became 5
        e = tmp_path / "twice.edits"
        e.write_text("1 12 33\n1 12 5\n")
        code, out, err = run(capsys, command, "--proto", str(_WIMAX_Z96),
                             "--scale-n", "1152", "--edits", str(e))
        assert code == 3 and out == ""
        assert err == f"data error: bad edits file {e}: cell (1, 12) is edited twice\n"

    def test_floor_rule_cancels_a_double_cell_it_maps_to_one_shift(self, capsys, tmp_path):
        # 0+1 scales to 0+0 at z=48, the zero block; it was once refused
        # with "a double cell needs two distinct exponents"
        out = []
        for cell in ("0+1", "-1"):
            p = tmp_path / f"{cell}.proto"
            p.write_text("2 24 96\n" + " ".join(["0"] * 24) + "\n"
                         + " ".join([cell] + ["-1"] * 23) + "\n")
            code, stdout, _ = run(capsys, "build", "--proto", str(p),
                                  "--scale-n", "1152", "--scale-rule", "floor")
            assert code == 0
            out.append(stdout)
        assert out[0] == out[1] and out[0].startswith("H0: 120x1152")

    @staticmethod
    def searched(capsys, monkeypatch, *argv):
        seen = []
        search = wmin.low_weight_search

        def spy(H, iters, seed, stop_at=None):
            seen.append(H)
            return search(H, 1, seed, stop_at=stop_at)
        monkeypatch.setattr(cli.wmin, "low_weight_search", spy)
        code, _, _ = run(capsys, "distance", *argv, "--iterations", "1")
        assert code == 0 and len(seen) == 1
        return seen[0]

    def test_mod_scaling_with_edits(self, capsys, monkeypatch):
        H = self.searched(capsys, monkeypatch, "--proto", str(_WIMAX_Z96),
                          "--scale-n", "1152", "--scale-rule", "mod",
                          "--edits", str(_WIMAX_EDITS))
        P = qc.apply_edits(qc.scale(qc.load_proto(_WIMAX_Z96), 1152, "mod"),
                           qc.load_edits(_WIMAX_EDITS))
        assert H == qc.expand(P)

    def test_floor_scaling_with_edits_is_the_preset(self, capsys, monkeypatch):
        H = self.searched(capsys, monkeypatch, "--proto", str(_WIMAX_Z96),
                          "--scale-n", "1152", "--scale-rule", "floor",
                          "--edits", str(_WIMAX_EDITS))
        assert H == self.searched(capsys, monkeypatch, "--lattice", "wimax1152")

    @pytest.mark.parametrize("matrix", ["hqc", "h0", "h1"])
    def test_lattice_runs_no_encoder_plan(self, capsys, monkeypatch, eliminations, matrix):
        # the search reads the recipe's matrices; an uncached bundle once
        # ran the two encoder-plan eliminations that it never used
        for name, build in list(presets.BUILTIN_LATTICES.items()):
            monkeypatch.setitem(presets.BUILTIN_LATTICES, name, build.__wrapped__)
        seen, search = [], wmin.low_weight_search

        def spy(H, iters, seed, stop_at=None):
            seen.append((H, len(eliminations)))      # before the search's own
            return search(H, 1, seed, stop_at=stop_at)
        monkeypatch.setattr(cli.wmin, "low_weight_search", spy)
        code, _, _ = run(capsys, "distance", "--lattice", "example1", "--matrix", matrix)
        assert code == 0 and len(seen) == 1
        H, count = seen[0]
        assert count == 0
        b = presets.get_bundle("example1")
        assert H == {"hqc": qc.expand(b.proto), "h0": b.pair.h0, "h1": b.pair.h1}[matrix]


class TestOversizedPrototype:
    @pytest.mark.parametrize("command", ["build", "distance"])
    def test_out_of_memory_is_data_error(self, capsys, tmp_path, command):
        # z = 10^9 asks numpy for 888 PiB, which it refuses before touching
        # memory; this was a traceback
        p = tmp_path / "huge.proto"
        p.write_text("1 1 1000000000\n0\n")
        code, out, err = run(capsys, command, "--proto", str(p))
        assert code == 3 and out == ""
        assert err.startswith("data error: Unable to allocate")
        assert len(err.strip().splitlines()) == 1


class TestDistanceWitnessCheck:
    # the witness check is an explicit test (not an assert), so it also
    # holds under python -O; a bad witness is a data error
    def test_zero_witness_is_data_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.wmin, "low_weight_search",
                            lambda H, iters, seed, stop_at=None: (0, np.zeros(H.cols, np.uint8)))
        code, _, err = run(capsys, "distance", "--lattice", "example1",
                           "--matrix", "h1", "--iterations", "1")
        assert code == 3
        assert "not a nonzero codeword" in err

    def test_non_codeword_witness_is_data_error(self, capsys, monkeypatch):
        def fake(H, iters, seed, stop_at=None):
            c = np.zeros(H.cols, np.uint8)
            c[0] = 1
            return 1, c
        monkeypatch.setattr(cli.wmin, "low_weight_search", fake)
        code, _, err = run(capsys, "distance", "--lattice", "example1",
                           "--matrix", "h1", "--iterations", "1")
        assert code == 3
        assert "not a nonzero codeword" in err

    def test_search_witness_error_is_data_error(self, capsys, monkeypatch):
        def fail(H, iters, seed, stop_at=None):
            raise wmin.WitnessError("low-weight search produced no nonzero codeword of H")
        monkeypatch.setattr(cli.wmin, "low_weight_search", fail)
        code, _, err = run(capsys, "distance", "--lattice", "example1",
                           "--matrix", "h1", "--iterations", "1")
        assert code == 3
        assert "data error" in err


def run_process(*argv, timeout=120):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(qclattice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "qclattice.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _git_in(where, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
                    *args], cwd=where, check=True, capture_output=True)


class TestProvenance:
    def test_manifest_names_the_source(self, capsys, tmp_path):
        out = tmp_path / "run.csv"
        code, _, _ = run(capsys, "simulate-code", "--lattice", "example1",
                         "--snr", "12", "--seed", "1", "--max-trials", "5",
                         "--target-errors", "5", "--out", str(out))
        assert code == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        for rec in (manifest, *manifest["runs"]):
            assert rec["src_sha256"] == cli._src_digest()
            assert rec["git_dirty"] in (True, False, None)
            assert (rec["git_rev"] is None) == (rec["git_dirty"] is None)

    def test_digest_is_sha256_over_py_and_txt(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "data").mkdir(parents=True)
        files = {"a.py": b"x = 1\n", "data/t.txt": b"1 2\n", "b.py": b""}
        for rel, body in files.items():
            (pkg / rel).write_bytes(body)
        (pkg / "notes.md").write_text("not source")
        want = hashlib.sha256()
        for rel in sorted(files):
            want.update(rel.encode() + b"\0" + files[rel])
        assert cli._src_digest(str(pkg)) == want.hexdigest()
        (pkg / "notes.md").write_text("still not source")
        assert cli._src_digest(str(pkg)) == want.hexdigest()
        (pkg / "data/t.txt").write_bytes(b"1 3\n")
        assert cli._src_digest(str(pkg)) != want.hexdigest()

    def test_git_state_marks_a_dirty_tree(self, tmp_path):
        assert cli._git_state(str(tmp_path)) == (None, None)
        _git_in(tmp_path, "init", "-q")
        (tmp_path / "m.py").write_text("x = 1\n")
        _git_in(tmp_path, "add", "m.py")
        _git_in(tmp_path, "commit", "-q", "-m", "one")
        rev, dirty = cli._git_state(str(tmp_path))
        assert re.fullmatch(r"[0-9a-f]{40}", rev) and dirty is False
        (tmp_path / "untracked.txt").write_text("ignored")
        assert cli._git_state(str(tmp_path)) == (rev, False)
        (tmp_path / "m.py").write_text("x = 2\n")
        assert cli._git_state(str(tmp_path)) == (rev, True)

    def test_git_state_leaves_the_index_alone(self, tmp_path):
        # a rewritten file with unchanged content has stale stat data, which
        # a plain `git status` refreshes by rewriting .git/index
        _git_in(tmp_path, "init", "-q")
        (tmp_path / "m.py").write_text("x = 1\n")
        _git_in(tmp_path, "add", "m.py")
        _git_in(tmp_path, "commit", "-q", "-m", "one")
        index = (tmp_path / ".git" / "index").read_bytes()
        (tmp_path / "m.py").write_text("x = 1\n")
        os.utime(tmp_path / "m.py", ns=(10 ** 18, 10 ** 18))
        assert cli._git_state(str(tmp_path))[1] is False
        assert (tmp_path / ".git" / "index").read_bytes() == index
        assert not (tmp_path / ".git" / "index.lock").exists()


class TestBadNumbersExitTwo:
    # each of these once gave a traceback or a silently wrong CSV row
    @pytest.mark.parametrize("flags", [
        ["--max-trials", "0"],
        ["--seed", "-1"],
        ["--max-trials", "abc"],
        ["--iters", "abc"],
        ["--iters", "-3"],
    ], ids=["max-trials-0", "seed-negative", "max-trials-abc", "iters-abc",
            "iters-negative"])
    def test_simulate_code(self, flags, tmp_path):
        out = tmp_path / "rows.csv"
        proc = run_process("simulate-code", "--lattice", "example1", "--snr", "20",
                           "--target-errors", "5", "--out", str(out), *flags)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()


class TestUnrepresentableNoise:
    # each point once gave a traceback (OverflowError, ZeroDivisionError),
    # and SNR -300 dB (sigma 1e15) an LLR window that grew until killed
    @pytest.mark.parametrize("argv, value", [
        (["simulate-lattice", "--lattice", "example1", "--vnr", "4000"], "VNR 4000 dB"),
        (["simulate-lattice", "--lattice", "example1", "--vnr=-4000"], "VNR -4000 dB"),
        (["simulate-code", "--lattice", "example1", "--snr=-4000"], "SNR -4000 dB"),
        (["simulate-code", "--lattice", "example1", "--snr=12,-300"], "SNR -300 dB"),
    ], ids=["vnr-4000", "vnr-minus-4000", "snr-minus-4000", "snr-minus-300"])
    def test_refused_before_any_point(self, capsys, tmp_path, argv, value):
        out = tmp_path / "rows.csv"
        code, stdout, err = run(capsys, *argv, "--max-trials", "4", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"config error: {value}: ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestBadGrid:
    # an empty grid once gave exit 0 and a header-only CSV; a NaN point was
    # refused only by accident, deep inside the LLR code
    @pytest.mark.parametrize("grid", ["1:1:0", "nan", "0:inf:1", "4,inf"])
    def test_refused(self, grid, tmp_path):
        out = tmp_path / "rows.csv"
        proc = run_process("simulate-code", "--lattice", "example1", "--snr", grid,
                           "--target-errors", "5", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()

    def test_huge_grid_refused_before_it_is_built(self, tmp_path):
        # 0:1e-9:1000 once built a 1e12-point list until it was killed
        out = tmp_path / "rows.csv"
        proc = run_process("simulate-code", "--lattice", "example1",
                           "--snr", "0:1e-9:1000", "--out", str(out), timeout=30)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not out.exists()

    def test_grid_size_limit(self):
        assert len(cli._parse_range(f"0:1:{cli.MAX_GRID_POINTS - 1}")) == cli.MAX_GRID_POINTS
        with pytest.raises(cli.ConfigError):
            cli._parse_range(f"0:1:{cli.MAX_GRID_POINTS}")

    def test_points_are_a_plus_i_step(self):
        # adding float steps drifted: point 96 came out as 100000.959999999
        got = cli._parse_range("100000:0.01:100010")
        assert got == [round(100000 + i * 0.01, 9) for i in range(1001)]
        assert got[96] == 100000.96


class TestSimulateCsv:
    def test_lattice_csv_schema_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "run.csv"
        code, _, _ = run(capsys, "simulate-lattice", "--lattice", "example1",
                         "--vnr", "4:1:5", "--seed", "7",
                         "--max-trials", "50", "--target-errors", "50",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("kind,label,x_db,trials,block_errors,bler,"
                            "stage0_errors,stage1_errors,integer_errors,"
                            "iterations_mean,seed")
        assert len(lines) == 3
        assert lines[1].startswith("lattice,example1,4,")
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate-lattice"
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["vnr"] == "4:1:5"
        assert "version" in manifest

    def test_append_safe(self, capsys, tmp_path):
        out = tmp_path / "run.csv"
        for _ in range(2):
            code, _, _ = run(capsys, "simulate-lattice", "--lattice", "example1",
                             "--vnr", "5,6", "--seed", "1",
                             "--max-trials", "20", "--target-errors", "20",
                             "--out", str(out))
            assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # one header + 2 rows per run
        assert sum(1 for ln in lines if ln.startswith("kind,")) == 1

    def test_append_keeps_every_run(self, capsys, tmp_path):
        out = tmp_path / "run.csv"
        for seed in ("1", "2"):
            code, _, _ = run(capsys, "simulate-code", "--lattice", "example1",
                             "--snr", "12,13", "--seed", seed,
                             "--max-trials", "10", "--target-errors", "10",
                             "--out", str(out))
            assert code == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert [r["config"]["seed"] for r in manifest["runs"]] == [1, 2]
        assert [r["csv_rows"] for r in manifest["runs"]] == [[1, 2], [3, 4]]
        assert manifest["config"]["seed"] == 2 and manifest["csv_rows"] == [3, 4]
        for rec in manifest["runs"]:
            assert rec["command"] == "simulate-code"
            assert rec["python"] and rec["numpy"] == np.__version__
            assert "blas" in rec and "git_rev" in rec
        rows = out.read_text().strip().split("\n")[1:]
        assert [r.rsplit(",", 1)[1] for r in rows] == ["1", "1", "2", "2"]

    def test_unreadable_manifest_refused(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "run.csv"
        manifest = tmp_path / "run.csv.manifest.json"
        manifest.write_text("not json")

        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep started despite the unreadable manifest")
        monkeypatch.setattr(cli.sim, "sweep_code", no_sweep)
        code, _, err = run(capsys, "simulate-code", "--lattice", "example1",
                           "--snr", "5", "--out", str(out))
        assert code == 3
        assert err.startswith("data error:")
        assert manifest.read_text() == "not json"
        assert not out.exists()

    @pytest.mark.parametrize("command, grid, sweep", [
        ("simulate-code", "--snr", "sweep_code"),
        ("simulate-lattice", "--vnr", "sweep_lattice"),
    ])
    def test_foreign_header_refused(self, capsys, tmp_path, monkeypatch,
                                    command, grid, sweep):
        out = tmp_path / "run.csv"
        out.write_text("a,b,c\n1,2,3\n")
        manifest = tmp_path / "run.csv.manifest.json"
        manifest.write_text('{"command": "earlier"}\n')

        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep started despite the header mismatch")
        monkeypatch.setattr(cli.sim, sweep, no_sweep)
        code, _, err = run(capsys, command, "--lattice", "example1", grid, "5",
                           "--max-trials", "20", "--target-errors", "20",
                           "--out", str(out))
        assert code == 3
        assert err.startswith("data error:")
        assert len(err.strip().splitlines()) == 1
        assert out.read_text() == "a,b,c\n1,2,3\n"
        assert manifest.read_text() == '{"command": "earlier"}\n'

    @pytest.mark.parametrize("tail", [b"code,\xff\xfe,1\n", b"code,\x00,1\n"],
                             ids=["undecodable", "nul"])
    def test_non_text_csv_refused(self, capsys, tmp_path, monkeypatch, tail):
        # the header is right: the message names the bytes, not the header
        out = tmp_path / "run.csv"
        data = ",".join(cli.CSV_HEADER).encode() + b"\n" + tail
        out.write_bytes(data)

        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep started despite the non-text CSV")
        monkeypatch.setattr(cli.sim, "sweep_code", no_sweep)
        code, stdout, err = run(capsys, "simulate-code", "--lattice", "example1",
                                "--snr", "5", "--out", str(out))
        assert code == 3 and stdout == ""
        assert err.startswith(f"data error: {out} is not a text CSV: ")
        assert len(err.strip().splitlines()) == 1
        assert "header" not in err
        assert out.read_bytes() == data
        assert not (tmp_path / "run.csv.manifest.json").exists()

    # damage -> (the CSV's data rows, the rows its manifest accounts for)
    DAMAGE = {"manifest-deleted": (2, 0), "csv-cut-to-header": (0, 2),
              "manifest-write-failed": (4, 2), "legacy-manifest": (2, 0)}

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_rows_without_a_run_record_refused(self, capsys, tmp_path, monkeypatch,
                                               damage):
        # each case was once appended to and left rows that no run record names
        out = tmp_path / "run.csv"
        manifest = tmp_path / "run.csv.manifest.json"
        argv = ["simulate-code", "--lattice", "example1", "--snr", "12,13",
                "--max-trials", "10", "--target-errors", "10", "--out", str(out)]
        assert run(capsys, *argv)[0] == 0
        if damage == "manifest-deleted":
            manifest.unlink()
        elif damage == "csv-cut-to-header":
            out.write_text(out.read_text().split("\n", 1)[0] + "\n")
        elif damage == "manifest-write-failed":
            # a directory where the manifest's temporary file goes
            (tmp_path / "run.csv.manifest.json.tmp").mkdir()
            code, _, err = run(capsys, *argv)
            assert code == 3 and err.startswith("data error: cannot write")
        else:
            # a manifest from before run records were kept
            doc = json.loads(manifest.read_text())
            del doc["runs"], doc["csv_rows"]
            manifest.write_text(json.dumps(doc))
        before = out.read_bytes(), manifest.exists() and manifest.read_bytes()

        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep started despite rows without a run record")
        monkeypatch.setattr(cli.sim, "sweep_code", no_sweep)
        code, stdout, err = run(capsys, *argv)
        assert code == 3 and stdout == ""
        assert err.startswith("data error:") and len(err.strip().splitlines()) == 1
        rows, accounted = self.DAMAGE[damage]
        assert f"has {rows} data rows but {manifest} accounts for {accounted}" in err
        assert (out.read_bytes(), manifest.exists() and manifest.read_bytes()) == before

    def test_simulate_code(self, capsys, tmp_path):
        out = tmp_path / "code.csv"
        code, _, _ = run(capsys, "simulate-code", "--lattice", "example1",
                         "--code", "g1", "--snr", "12", "--seed", "3",
                         "--max-trials", "40", "--target-errors", "40",
                         "--out", str(out))
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[1].startswith("code,example1:g1,12,40,")

    def test_deterministic_rows(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(capsys, "simulate-lattice", "--lattice", "example1",
                "--vnr", "4", "--seed", "9", "--max-trials", "30",
                "--target-errors", "30", "--out", str(out))
        assert a.read_text() == b.read_text()

    def test_replay_from_manifest(self, capsys, tmp_path):
        # a run is reproducible from its manifest alone
        out = tmp_path / "orig.csv"
        run(capsys, "simulate-lattice", "--lattice", "example1", "--vnr", "4,5",
            "--seed", "21", "--max-trials", "25", "--target-errors", "25",
            "--out", str(out))
        manifest = json.loads((tmp_path / "orig.csv.manifest.json").read_text())
        replay = tmp_path / "replay.csv"
        argv = [manifest["command"]]
        for key, val in manifest["config"].items():
            if key == "out":
                continue
            argv += [f"--{key.replace('_', '-')}", str(val)]
        argv += ["--out", str(replay)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        orig_rows = out.read_text().strip().split("\n")[1:]
        replay_rows = replay.read_text().strip().split("\n")[1:]
        assert orig_rows == replay_rows

    @pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config-file"])
    def test_manifest_holds_every_resolved_option(self, capsys, tmp_path, from_config):
        # defaults included and typed, so a later change of a default
        # cannot change what replaying the manifest runs
        out = tmp_path / "run.csv"
        stopping = ["--max-trials", "5", "--target-errors", "5"]
        if from_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("max-trials=5\ntarget-errors=5\n")
            stopping = ["--config", str(cfg)]
        code, _, _ = run(capsys, "simulate-lattice", "--lattice", "example1",
                         "--vnr", "5", *stopping, "--out", str(out))
        assert code == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["config"] == {"lattice": "example1", "vnr": "5", "max_trials": 5,
                                      "target_errors": 5, "iters": 100, "seed": 0,
                                      "out": str(out)}

    def test_missing_grid_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate-lattice", "--lattice", "example1")
        assert code == 2
        assert "vnr" in err

    def test_bad_range_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate-lattice", "--lattice", "example1",
                           "--vnr", "5:0:4")
        assert code == 2


class TestNegativeGrid:
    """A grid that starts below zero is a value, not a flag, whether it is
    a separate argument, joined by '=' or read from a config file."""

    @pytest.mark.parametrize("command,flag", [("simulate-code", "snr"),
                                              ("simulate-lattice", "vnr")])
    @pytest.mark.parametrize("form", ["separate", "equals", "config-file"])
    @pytest.mark.parametrize("grid,points", [("-1,0", ["-1", "0"]),
                                             ("-2:0.5:1", ["-2", "-1.5", "-1", "-0.5",
                                                           "0", "0.5", "1"]),
                                             ("-.5", ["-0.5"])])
    def test_accepted(self, capsys, tmp_path, command, flag, form, grid, points):
        argv = [command, "--lattice", "example1", "--max-trials", "1",
                "--target-errors", "1", "--iters", "0"]
        if form == "separate":
            argv += [f"--{flag}", grid]
        elif form == "equals":
            argv += [f"--{flag}={grid}"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag}={grid}\n")
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert [row.split(",")[2] for row in out.strip().splitlines()[1:]] == points

    def test_unknown_flag_still_refused(self, capsys):
        code, _, err = run(capsys, "simulate-lattice", "--lattice", "example1",
                           "--vnr", "-1,0", "-x")
        assert code == 2
        assert "-x" in err


_OK_FLAGS = {
    "info": ["--lattice", "example1"],
    "build": ["--lattice", "example1"],
    "distance": ["--lattice", "example1"],
    "simulate-code": ["--lattice", "example1", "--snr", "5"],
    "simulate-lattice": ["--lattice", "example1", "--vnr", "5"],
}
# per command: a non-integer for an integer flag (info has none), a bad
# choice, a required flag left out, an abbreviated flag and, for the
# simulate commands, a grid that names one point twice
_BAD_FLAGS = {
    "info": [None, ["--lattice", "nope"], [], ["--lat", "example1"]],
    "build": [["--proto", str(_EXAMPLE1_PROTO), "--scale-n", "x"], ["--lattice", "nope"],
              [], ["--proto", str(_EXAMPLE1_PROTO), "--h1-group", "0"]],
    "distance": [["--lattice", "example1", "--iterations", "x"],
                 ["--lattice", "example1", "--matrix", "h2"], ["--iterations", "5"],
                 ["--lattice", "example1", "--iter", "5"]],
    "simulate-code": [[*_OK_FLAGS["simulate-code"], "--iters", "x"],
                      [*_OK_FLAGS["simulate-code"], "--code", "g2"],
                      ["--lattice", "example1"], [*_OK_FLAGS["simulate-code"], "--max", "5"],
                      ["--lattice", "example1", "--snr", "4,5,4"]],
    "simulate-lattice": [[*_OK_FLAGS["simulate-lattice"], "--max-trials", "x"],
                         ["--lattice", "nope", "--vnr", "5"], ["--vnr", "5"],
                         [*_OK_FLAGS["simulate-lattice"], "--target", "5"],
                         ["--lattice", "example1", "--vnr", "4,4"]],
}
_PARSE_ERRORS = [
    *[pytest.param([cmd, *ok, "--bogus", "1"], id=f"{cmd}-unknown-flag")
      for cmd, ok in _OK_FLAGS.items()],
    *[pytest.param([cmd, *flags], id=f"{cmd}-{kind}")
      for cmd, cases in _BAD_FLAGS.items()
      for kind, flags in zip(["not-integer", "bad-choice", "missing", "abbreviated",
                              "point-twice"], cases)
      if flags is not None],
    # flags that the chosen input does not read
    pytest.param(["build", "--lattice", "example1", "--h1-groups", "0+1,2",
                  "--edits", "/nonexistent"], id="build-lattice-with-proto-flags"),
    pytest.param(["distance", "--lattice", "example1", "--matrix", "h1",
                  "--proto", str(_EXAMPLE1_PROTO)], id="distance-lattice-and-proto"),
    pytest.param(["distance", "--proto", str(_EXAMPLE1_PROTO), "--matrix", "h1"],
                 id="distance-proto-with-matrix"),
    pytest.param(["info", "--lattice", "example1", "--seed", "3"], id="info-seed"),
    pytest.param(["build", "--lattice", "example1", "--seed", "3"], id="build-seed"),
]


def run_refused(capsys, argv):
    """``cli.main(argv)`` must refuse ``argv`` with one config-error line."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        pytest.fail(f"cli.main raised SystemExit({e.code})")
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    return err


class TestParseErrors:
    # a parse error once printed the usage text and raised SystemExit, and
    # build --lattice and distance --proto once dropped flags they do not read
    @pytest.mark.parametrize("argv", _PARSE_ERRORS)
    def test_one_line_exit_two(self, capsys, argv):
        run_refused(capsys, argv)

    def test_unknown_flag_named(self, capsys):
        assert "--bogus" in run_refused(capsys, ["info", "--lattice", "example1",
                                                 "--bogus", "1"])

    def test_tables_cover_every_command(self):
        # a retired command's rows would pass as refusals of an unknown command
        assert set(_OK_FLAGS) == set(_BAD_FLAGS) == set(cli.COMMANDS)

    def test_retired_search_refused(self, capsys):
        err = run_refused(capsys, ["search", "--rows", "2"])
        assert "invalid choice" in err and "search" in err

    @pytest.mark.parametrize("command", _OK_FLAGS)
    def test_config_key_config_refused(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("config=x\n")
        err = run_refused(capsys, [command, *_OK_FLAGS[command], "--config", str(cfg)])
        assert "'config'" in err

    @pytest.mark.parametrize("command", ["build", "distance"])
    def test_config_value_excluded_by_flag(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"proto={_EXAMPLE1_PROTO}\n")
        err = run_refused(capsys, [command, "--config", str(cfg), "--lattice", "example1"])
        assert "not allowed with" in err


def _readme_cli_commands() -> list[list[str]]:
    """Each ``qclattice ...`` command of README's CLI code block, split
    into words without the program name and the comments."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("qclattice ")]


class TestReadme:
    def test_cli_block_parses(self):
        # the documented commands cannot drift from the parser; nothing runs
        commands = _readme_cli_commands()
        assert {argv[0] for argv in commands} == set(cli.COMMANDS)
        for argv in commands:
            cli.build_parser().parse_args(argv)

    def test_csv_header_is_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        after = readme.split("Simulation commands append rows", 1)[1]
        header = after.split("```\n", 1)[1].split("\n```", 1)[0]
        assert header == ",".join(cli.CSV_HEADER)


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lattice=example1\nvnr=5\nmax-trials=20\n"
                       "target-errors=20\nseed=4\n")
        out = tmp_path / "out.csv"
        code, _, _ = run(capsys, "simulate-lattice", "--config", str(cfg),
                         "--out", str(out))
        assert code == 0
        assert out.exists()

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lattice=wimax1152\n")
        code, out, _ = run(capsys, "info", "--config", str(cfg),
                           "--lattice", "example1")
        assert code == 0
        assert "example1" in out

    def test_unknown_key_named_in_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lattice=example1\nbanana=3\n")
        code, _, err = run(capsys, "info", "--config", str(cfg))
        assert code == 2
        assert "banana" in err

    def test_config_directory_refused(self, capsys, tmp_path):
        # a directory once raised IsADirectoryError
        code, out, err = run(capsys, "info", "--config", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: cannot read config file {tmp_path}:")
        assert len(err.strip().splitlines()) == 1

    def test_readme_curve_lines_read_curves_cfg(self):
        # README's six curve sweeps share curves.cfg at the repository root:
        # each of its keys must be a flag of the command that reads it
        root = Path(__file__).resolve().parents[1]
        lines = [argv for argv in _readme_cli_commands() if "--config" in argv]
        assert len(lines) == 6
        for argv in lines:
            cfg = root / argv[argv.index("--config") + 1]
            args = cli.build_parser().parse_args(
                [argv[0], *cli._config_flags(str(cfg)), *argv[1:]])
            assert (args.seed, args.max_trials, args.target_errors) == (1, 200_000, 200)
            assert args.out.startswith("curves/")

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "info", "--config", "/no/such.cfg")
        assert code == 2
