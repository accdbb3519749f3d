import json
import subprocess
import sys

import pytest

from truncmix import harness
from truncmix.cli import main
from truncmix.core import MonotonicityError


CFG = {
    "K": 4, "C": 6, "C_prime": 2, "A": 32.0, "D": 8,
    "eps_W": 0.005, "eps_R": 0.01, "theta_bvsb": 0.6, "epochs": 2, "seed": 0,
}


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(CFG))
    assert main([
        "synth", "--clusters", "4", "--dim", "8", "--n", "200",
        "--seed", "1", "--out", str(tmp_path / "tr"),
    ]) == 0
    assert main([
        "synth", "--clusters", "4", "--dim", "8", "--n", "100",
        "--seed", "2", "--out", str(tmp_path / "te"),
    ]) == 0
    return tmp_path


@pytest.fixture()
def square_run(workspace):
    # D=8 is not a perfect square, so build a square synthetic run; the
    # class column must fit the panel height, so K <= side here.
    (workspace / "sq.json").write_text(json.dumps({**CFG, "K": 3, "D": 9, "A": 36.0}))
    assert main([
        "synth", "--clusters", "3", "--dim", "9", "--n", "60",
        "--seed", "3", "--out", str(workspace / "sq"),
    ]) == 0
    assert main([
        "train", "--config", str(workspace / "sq.json"),
        "--images", str(workspace / "sq" / "images-idx3-ubyte"),
        "--labels", str(workspace / "sq" / "labels-idx1-ubyte"),
        "--test-images", str(workspace / "sq" / "images-idx3-ubyte"),
        "--test-labels", str(workspace / "sq" / "labels-idx1-ubyte"),
        "--out", str(workspace / "sqrun"),
    ]) == 0
    return workspace / "sqrun"


def train_args(ws, out, extra=()):
    return [
        "train", "--config", str(ws / "cfg.json"),
        "--images", str(ws / "tr" / "images-idx3-ubyte"),
        "--labels", str(ws / "tr" / "labels-idx1-ubyte"),
        "--test-images", str(ws / "te" / "images-idx3-ubyte"),
        "--test-labels", str(ws / "te" / "labels-idx1-ubyte"),
        "--out", str(out), *extra,
    ]


class TestTrainEvalFlow:
    def test_round_trip(self, workspace, capsys):
        assert main(train_args(workspace, workspace / "run")) == 0
        report = json.loads((workspace / "run" / "report.json").read_text())
        assert len(report["test_errors"]) == CFG["epochs"] + 1
        assert main([
            "eval", "--weights", str(workspace / "run"),
            "--test-images", str(workspace / "te" / "images-idx3-ubyte"),
            "--test-labels", str(workspace / "te" / "labels-idx1-ubyte"),
        ]) == 0
        out = capsys.readouterr().out
        assert "test error" in out

    def test_byte_identical_outputs_across_identical_invocations(self, workspace):
        assert main(train_args(workspace, workspace / "a", ("--labels-per-class", "5"))) == 0
        assert main(train_args(workspace, workspace / "b", ("--labels-per-class", "5"))) == 0
        for name in ("report.json", "free_energy.csv", "test_error.csv", "config.json"):
            assert (workspace / "a" / name).read_bytes() == (workspace / "b" / name).read_bytes()

    def test_seed_override_changes_run(self, workspace):
        assert main(train_args(workspace, workspace / "a")) == 0
        assert main(train_args(workspace, workspace / "b", ("--seed", "7"))) == 0
        ra = json.loads((workspace / "a" / "report.json").read_text())
        rb = json.loads((workspace / "b" / "report.json").read_text())
        assert rb["seed"] == 7
        assert ra["init_hash"] != rb["init_hash"]

    def test_labels_per_class_recorded(self, workspace):
        assert main(train_args(workspace, workspace / "run", ("--labels-per-class", "3"))) == 0
        report = json.loads((workspace / "run" / "report.json").read_text())
        assert report["n_labeled"] == 12


class TestCompareAndTools:
    def test_compare_emits_per_setting_traces(self, workspace):
        args = train_args(workspace, workspace / "cmp")
        args[0] = "compare"
        assert main(args[:1] + ["--cprime-list", "1,2,C"] + args[1:]) == 0
        summary = json.loads((workspace / "cmp" / "compare.json").read_text())
        assert set(summary) == {"1", "2", "6"}
        for cp in (1, 2, 6):
            assert (workspace / "cmp" / f"cprime_{cp}" / "free_energy.csv").exists()
        hashes = {
            json.loads((workspace / "cmp" / f"cprime_{cp}" / "report.json").read_text())["init_hash"]
            for cp in (1, 2, 6)
        }
        assert len(hashes) == 1

    def test_export_weights(self, workspace, square_run):
        assert main([
            "export-weights", "--weights", str(square_run),
            "--rows", "2", "--cols", "3", "--out", str(workspace / "grid.pgm"),
        ]) == 0
        assert (workspace / "grid.pgm").read_bytes().startswith(b"P5\n")

    def test_aggregate(self, workspace, capsys):
        assert main(train_args(workspace, workspace / "a")) == 0
        assert main(train_args(workspace, workspace / "b", ("--seed", "9"))) == 0
        assert main([
            "aggregate",
            str(workspace / "a" / "report.json"),
            str(workspace / "b" / "report.json"),
            "--out", str(workspace / "agg.json"),
        ]) == 0
        summary = json.loads((workspace / "agg.json").read_text())
        assert summary["n_runs"] == 2
        assert "mean_final_error" in capsys.readouterr().out

    @pytest.mark.parametrize("case,message", [
        ("not_json", "not valid JSON"),
        ("json_list", "not a run report"),
        ("no_seed", "not a run report"),
        ("no_final_error", "final_error is missing or not a number"),
        ("text_final_error", "final_error is missing or not a number"),
    ])
    def test_aggregate_malformed_report_is_data_error(self, workspace, capsys, case, message):
        assert main(train_args(workspace, workspace / "a")) == 0
        doc = json.loads((workspace / "a" / "report.json").read_text())
        if case == "no_seed":
            del doc["seed"]
        elif case == "no_final_error":
            del doc["final_error"]
        elif case == "text_final_error":
            doc["final_error"] = "low"
        text = {"not_json": '{"seed": 0,', "json_list": "[0.1, 0.2]"}.get(case, json.dumps(doc))
        bad = workspace / "bad.json"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["aggregate", str(workspace / "a" / "report.json"), str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: {message}" in err
        assert err.count("\n") == 1


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, workspace, capsys):
        args = train_args(workspace, workspace / "x")
        i = args.index("--images")
        del args[i : i + 2]
        assert main(args) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, workspace, capsys):
        (workspace / "bad.json").write_text(json.dumps({**CFG, "typo_key": 1}))
        args = train_args(workspace, workspace / "x")
        args[args.index("--config") + 1] = str(workspace / "bad.json")
        assert main(args) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_mass_is_usage_error(self, workspace, capsys):
        (workspace / "bad.json").write_text(json.dumps({**CFG, "A": 4.0}))
        args = train_args(workspace, workspace / "x")
        args[args.index("--config") + 1] = str(workspace / "bad.json")
        assert main(args) == 1
        assert "A must exceed D" in capsys.readouterr().err

    def test_negative_labels_per_class_is_usage_error(self, workspace, capsys):
        args = train_args(workspace, workspace / "x", ("--labels-per-class", "-1"))
        assert main(args) == 1
        assert "labels per class must be >= 0, got -1" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_negative_trace_every_is_usage_error(self, workspace, capsys):
        args = train_args(workspace, workspace / "x", ("--trace-every", "-1"))
        assert main(args) == 1
        assert "trace_every must be >= 0, got -1" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    @pytest.mark.parametrize("rows,cols", [("0", "3"), ("2", "0")])
    def test_empty_weight_grid_is_usage_error(self, workspace, square_run, capsys, rows, cols):
        out = workspace / "grid.pgm"
        assert main([
            "export-weights", "--weights", str(square_run),
            "--rows", rows, "--cols", cols, "--out", str(out),
        ]) == 1
        assert f"grid must be at least 1x1, got {rows}x{cols}" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_idx_is_data_error(self, workspace, capsys):
        img = workspace / "tr" / "images-idx3-ubyte"
        data = bytearray(img.read_bytes())
        data[3] = 0x55
        img.write_bytes(bytes(data))
        assert main(train_args(workspace, workspace / "x")) == 2
        assert "bad magic" in capsys.readouterr().err

    def test_weights_disagreeing_with_config_is_data_error(self, workspace, capsys):
        assert main(train_args(workspace, workspace / "run")) == 0
        (workspace / "run" / "config.json").write_text(json.dumps({**CFG, "C": 5}))
        assert main([
            "eval", "--weights", str(workspace / "run"),
            "--test-images", str(workspace / "te" / "images-idx3-ubyte"),
            "--test-labels", str(workspace / "te" / "labels-idx1-ubyte"),
        ]) == 2
        err = capsys.readouterr().err
        assert "W.npy has shape (6, 8), config.json implies (5, 8)" in err

    def test_eval_on_data_of_other_dimension_is_data_error(self, workspace, square_run, capsys):
        assert main(train_args(workspace, workspace / "run")) == 0
        capsys.readouterr()
        assert main([
            "eval", "--weights", str(workspace / "run"),
            "--test-images", str(workspace / "sq" / "images-idx3-ubyte"),
            "--test-labels", str(workspace / "sq" / "labels-idx1-ubyte"),
        ]) == 2
        assert "weights have D=8 but test data has D=9" in capsys.readouterr().err

    def test_repeated_cprime_is_usage_error(self, workspace, capsys):
        args = train_args(workspace, workspace / "cmp")
        args[0] = "compare"
        assert main(args[:1] + ["--cprime-list", "2,2,C,6"] + args[1:]) == 1
        assert "C' values listed more than once: 2, 6" in capsys.readouterr().err
        assert not (workspace / "cmp").exists()

    def test_out_of_range_cprime_is_usage_error_before_training(
        self, workspace, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a run was trained before the C' list was checked")

        monkeypatch.setattr(harness, "train", no_training)
        args = train_args(workspace, workspace / "cmp")
        args[0] = "compare"
        assert main(args[:1] + ["--cprime-list", "2,9,0"] + args[1:]) == 1
        assert "C' values out of range [1, 6]: 0, 9" in capsys.readouterr().err
        assert not (workspace / "cmp").exists()

    @pytest.mark.parametrize("layer", ["W", "R"])
    def test_broken_weight_invariant_after_epoch_is_numeric_failure(
        self, workspace, monkeypatch, capsys, layer
    ):
        real_epoch = harness.online_epoch

        def drifting_epoch(ds, W, R, cfg, rng):
            stats = real_epoch(ds, W, R, cfg, rng)
            (W.W if layer == "W" else R.R)[0] *= 1.01
            return stats

        monkeypatch.setattr(harness, "online_epoch", drifting_epoch)
        assert main(train_args(workspace, workspace / "x")) == 3
        assert f"epoch 1: {layer} row 0 sums to" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_missing_file_is_data_error(self, workspace):
        args = train_args(workspace, workspace / "x")
        args[args.index("--images") + 1] = str(workspace / "nope")
        assert main(args) == 2

    def test_numeric_failure_maps_to_exit_three(self, workspace, monkeypatch):
        def boom(*a, **k):
            raise MonotonicityError("free energy fell")
        monkeypatch.setattr("truncmix.cli.train", boom)
        assert main(train_args(workspace, workspace / "x")) == 3

    def test_console_entry_point(self, workspace):
        # The module is executable directly; missing subcommand is usage.
        proc = subprocess.run(
            [sys.executable, "-m", "truncmix.cli"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "usage" in proc.stderr
