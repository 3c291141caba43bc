import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qclattice
from qclattice import cli, wmin


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
        code, out, _ = run(capsys, "build", "--proto", str(p), "--h1-block-row", "0")
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


class TestSearch:
    def test_writes_reproducible_file(self, capsys, tmp_path):
        out1 = tmp_path / "a.proto"
        out2 = tmp_path / "b.proto"
        for out in (out1, out2):
            code, _, _ = run(capsys, "search", "--rows", "2", "--cols", "4",
                             "--z", "8", "--target", "200", "--budget", "2",
                             "--score-iters", "40", "--seed", "5",
                             "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_key_is_config_error(self, capsys):
        code, _, err = run(capsys, "search", "--rows", "2")
        assert code == 2
        assert "cols" in err


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


def run_process(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(qclattice.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "qclattice.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


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

    def test_library_value_error_exits_two(self, capsys):
        # --budget 0 is refused by the search library itself
        code, _, err = run(capsys, "search", "--rows", "2", "--cols", "4",
                           "--z", "8", "--target", "20", "--budget", "0")
        assert code == 2
        assert err.startswith("config error:")


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
                             "--vnr", "5,5", "--seed", "1",
                             "--max-trials", "20", "--target-errors", "20",
                             "--out", str(out))
            assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # one header + 2 rows per run
        assert sum(1 for ln in lines if ln.startswith("kind,")) == 1

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

    def test_missing_grid_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate-lattice", "--lattice", "example1")
        assert code == 2
        assert "vnr" in err

    def test_bad_range_is_config_error(self, capsys):
        code, _, err = run(capsys, "simulate-lattice", "--lattice", "example1",
                           "--vnr", "5:0:4")
        assert code == 2


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

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "info", "--config", "/no/such.cfg")
        assert code == 2
