import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import truncmix
from truncmix import cli, harness
from truncmix.cli import main
from truncmix.core import DataError, MonotonicityError
from truncmix.harness import load_weights, save_run
from truncmix.data import load_idx, write_idx_images, write_idx_labels


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

    def test_bad_cprime_entry_is_usage_error_before_data_is_read(self, workspace, capsys):
        args = train_args(workspace, workspace / "cmp")
        args[0] = "compare"
        args[args.index("--images") + 1] = str(workspace / "nope")
        assert main(args[:1] + ["--cprime-list", "2,x"] + args[1:]) == 1
        assert "bad --cprime-list entry 'x'" in capsys.readouterr().err
        assert not (workspace / "cmp").exists()

    def test_out_of_range_cprime_is_usage_error_before_data_is_read(self, workspace, capsys):
        args = train_args(workspace, workspace / "cmp")
        args[0] = "compare"
        args[args.index("--images") + 1] = str(workspace / "nope")
        assert main(args[:1] + ["--cprime-list", "2,9"] + args[1:]) == 1
        assert "C' values out of range [1, 6]: 9" in capsys.readouterr().err
        assert not (workspace / "cmp").exists()

    def test_failed_save_leaves_no_stale_compare_summary(self, workspace, monkeypatch):
        args = train_args(workspace, workspace / "cmp")
        args = args[:1] + ["--cprime-list", "1,2"] + args[1:]
        args[0] = "compare"
        assert main(args) == 0
        assert (workspace / "cmp" / "compare.json").exists()
        saved = []

        def second_save_fails(out_dir, *rest):
            if saved:
                raise OSError("No space left on device")
            saved.append(out_dir)
            save_run(out_dir, *rest)

        monkeypatch.setattr(cli, "save_run", second_save_fails)
        assert main(args) == 2
        assert saved == [workspace / "cmp" / "cprime_1"]
        assert not (workspace / "cmp" / "compare.json").exists()

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

    def test_failed_synth_leaves_old_pair_whole(self, workspace, monkeypatch):
        out = workspace / "tr"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        old = load_idx(out / "images-idx3-ubyte", out / "labels-idx1-ubyte")

        def labels_write_fails(path, labels):
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "write_idx_labels", labels_write_fails)
        assert main(["synth", "--clusters", "4", "--dim", "8", "--n", "200",
                     "--seed", "5", "--out", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        raw = load_idx(out / "images-idx3-ubyte", out / "labels-idx1-ubyte")
        np.testing.assert_array_equal(raw.X, old.X)
        np.testing.assert_array_equal(raw.labels, old.labels)

    def test_failed_export_leaves_old_grid_whole(self, workspace, square_run, monkeypatch):
        grid = workspace / "grid.pgm"
        args = ["export-weights", "--weights", str(square_run), "--out", str(grid)]
        assert main(args + ["--rows", "2", "--cols", "3"]) == 0
        before = grid.read_bytes()

        class HeaderOnlyFile(io.FileIO):  # every write after the first fails
            def write(self, b):
                if self.tell():
                    raise OSError("No space left on device")
                return super().write(b)

        def failing_open(path, mode="r"):
            return (HeaderOnlyFile if "w" in mode else open)(path, mode)

        monkeypatch.setattr(harness, "open", failing_open, raising=False)
        assert main(args + ["--rows", "1", "--cols", "2"]) == 2
        assert grid.read_bytes() == before
        assert not list(workspace.glob(".*.tmp"))

    def test_failed_aggregate_write_leaves_old_summary_whole(self, workspace, monkeypatch):
        assert main(train_args(workspace, workspace / "a")) == 0
        report, agg = str(workspace / "a" / "report.json"), workspace / "agg.json"
        assert main(["aggregate", report, "--out", str(agg)]) == 0
        before = agg.read_bytes()
        write_text = Path.write_text

        def half_write(path, text, *rest, **kwargs):
            write_text(path, text[: len(text) // 2], *rest, **kwargs)
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_text", half_write)
        assert main(["aggregate", report, report, "--out", str(agg)]) == 2
        monkeypatch.undo()
        assert agg.read_bytes() == before
        assert not list(workspace.glob(".*.tmp"))

    @pytest.mark.parametrize("case,message", [
        ("not_json", "not valid JSON"),
        ("json_list", "not a run report"),
        ("no_seed", "not a run report"),
        ("no_final_error", "final_error is missing or not a number"),
        ("text_final_error", "final_error is missing or not a number"),
        ("nan_final_error", "final_error is nan, not finite"),
        ("huge_int_final_error", "final_error is an integer too large for a float"),
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
        elif case == "nan_final_error":
            doc["final_error"] = float("nan")
        elif case == "huge_int_final_error":
            doc["final_error"] = 10**400
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

    @pytest.mark.parametrize("field,value", [
        ("A", "900"), ("eps_W", "0.1"), ("theta_bvsb", None), ("eps_R", [0.1]), ("eps_W", True),
    ])
    def test_non_numeric_config_real_is_usage_error(self, workspace, capsys, field, value):
        (workspace / "bad.json").write_text(json.dumps({**CFG, field: value}))
        args = train_args(workspace, workspace / "x")
        args[args.index("--config") + 1] = str(workspace / "bad.json")
        assert main(args) == 1
        assert f"config error: {field} must be a real number" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_single_class_config_is_usage_error(self, workspace, capsys):
        # One class leaves the BvSB margin undefined at the first unlabeled point.
        assert main([
            "synth", "--clusters", "1", "--dim", "8", "--n", "40",
            "--seed", "4", "--out", str(workspace / "one"),
        ]) == 0
        (workspace / "k1.json").write_text(json.dumps({**CFG, "K": 1}))
        one = [str(workspace / "one" / f) for f in ("images-idx3-ubyte", "labels-idx1-ubyte")]
        capsys.readouterr()
        assert main([
            "train", "--config", str(workspace / "k1.json"), "--images", one[0],
            "--labels", one[1], "--test-images", one[0], "--test-labels", one[1],
            "--labels-per-class", "5", "--out", str(workspace / "x"),
        ]) == 1
        assert "K must be >= 2" in capsys.readouterr().err
        assert not (workspace / "x").exists()

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

    @pytest.mark.parametrize("command,where", [
        ("train", "config"), ("train", "flag"), ("compare", "config"), ("compare", "flag"),
    ])
    def test_negative_seed_is_usage_error(self, workspace, capsys, command, where):
        # numpy's default_rng rejects a negative seed with a traceback.
        extra = ()
        if where == "config":
            (workspace / "cfg.json").write_text(json.dumps({**CFG, "seed": -1}))
        else:
            extra = ("--seed", "-1")
        args = train_args(workspace, workspace / "x", extra)
        args[0] = command
        if command == "compare":
            args[1:1] = ["--cprime-list", "1,C"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "truncmix: config error: seed must be >= 0\n"
        assert not (workspace / "x").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--n", "-5", "got n=-5, seed=0"),
        ("--seed", "-1", "got n=40, seed=-1"),
    ])
    def test_negative_synth_count_or_seed_is_data_error(
        self, tmp_path, capsys, flag, value, message
    ):
        opts = {"--n": "40", "--seed": "0", flag: value}
        args = ["synth", "--clusters", "2", "--dim", "4", "--out", str(tmp_path / "s")]
        assert main(args + [x for item in opts.items() for x in item]) == 2
        err = capsys.readouterr().err
        assert err == f"truncmix: data error: need n >= 0 and seed >= 0, {message}\n"
        assert not (tmp_path / "s").exists()

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

    @pytest.mark.parametrize("name,message", [
        ("W.npy", "W entries must be strictly positive"),
        ("R.npy", "R entries must be nonnegative"),
    ])
    def test_corrupted_weight_values_are_data_error(self, workspace, capsys, name, message):
        run = workspace / "run"
        assert main(train_args(workspace, run)) == 0
        arr = np.load(run / name)
        arr[0, 0] = -1.0
        np.save(run / name, arr)
        capsys.readouterr()
        assert main([
            "eval", "--weights", str(run),
            "--test-images", str(workspace / "te" / "images-idx3-ubyte"),
            "--test-labels", str(workspace / "te" / "labels-idx1-ubyte"),
        ]) == 2
        assert f"data error: {run / name}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        ("bytes", "not a numeric .npy file"),
        ("text", "could not convert string to float"),
    ])
    @pytest.mark.parametrize("name", ["W.npy", "R.npy"])
    def test_non_numeric_weight_file_is_data_error(self, workspace, capsys, name, content, message):
        run = workspace / "run"
        assert main(train_args(workspace, run)) == 0
        if content == "bytes":
            (run / name).write_bytes(b"garbage")
        else:  # a .npy of strings with the right shape
            np.save(run / name, np.full(np.load(run / name).shape, "abc"))
        capsys.readouterr()
        assert main([
            "eval", "--weights", str(run),
            "--test-images", str(workspace / "te" / "images-idx3-ubyte"),
            "--test-labels", str(workspace / "te" / "labels-idx1-ubyte"),
        ]) == 2
        err = capsys.readouterr().err
        assert f"data error: {run / name}: {message}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text,message", [
        ("{not json", "config is not valid JSON"),
        ("[]", "config JSON must be an object"),
        ('{"K": 4}', "missing config keys"),
        (json.dumps({**CFG, "A": 4.0}), "A must exceed D"),
    ], ids=["not-json", "not-object", "missing-keys", "broken-rule"])
    def test_bad_weights_config_is_data_error(self, workspace, capsys, text, message):
        run = workspace / "run"
        assert main(train_args(workspace, run)) == 0
        (run / "config.json").write_text(text)
        capsys.readouterr()
        assert main([
            "eval", "--weights", str(run),
            "--test-images", str(workspace / "te" / "images-idx3-ubyte"),
            "--test-labels", str(workspace / "te" / "labels-idx1-ubyte"),
        ]) == 2
        assert f"data error: {run / 'config.json'}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("body,message", [
        ("1,0.5,2\n2,3\n", "the number of columns changed from 3 to 2"),
        ("1,0.5,2\n2,x,3\n", "could not convert string 'x'"),
    ], ids=["ragged", "non-numeric"])
    def test_malformed_csv_is_data_error(self, workspace, capsys, body, message):
        csv = workspace / "bad.csv"
        csv.write_text("label,p0,p1\n" + body)
        args = train_args(workspace, workspace / "x")
        i = args.index("--labels")
        del args[i : i + 2]
        args[args.index("--images") + 1] = str(csv)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"data error: malformed CSV {csv}: {message}" in err
        assert err.count("\n") == 1
        assert not (workspace / "x").exists()

    def test_eval_on_data_of_other_dimension_is_data_error(self, workspace, square_run, capsys):
        assert main(train_args(workspace, workspace / "run")) == 0
        capsys.readouterr()
        assert main([
            "eval", "--weights", str(workspace / "run"),
            "--test-images", str(workspace / "sq" / "images-idx3-ubyte"),
            "--test-labels", str(workspace / "sq" / "labels-idx1-ubyte"),
        ]) == 2
        assert "weights have D=8 but test data has D=9" in capsys.readouterr().err

    def test_empty_test_set_is_data_error(self, workspace, capsys):
        assert main(train_args(workspace, workspace / "run")) == 0
        empty = workspace / "empty"
        empty.mkdir()
        write_idx_images(empty / "img", np.empty((0, 8)), 1, 8)
        write_idx_labels(empty / "lab", np.empty(0, dtype=np.int64))
        capsys.readouterr()
        assert main([
            "eval", "--weights", str(workspace / "run"),
            "--test-images", str(empty / "img"), "--test-labels", str(empty / "lab"),
        ]) == 2
        assert "test set is empty" in capsys.readouterr().err
        args = train_args(workspace, workspace / "x")
        args[args.index("--test-images") + 1] = str(empty / "img")
        args[args.index("--test-labels") + 1] = str(empty / "lab")
        assert main(args) == 2
        assert "test set is empty" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_empty_training_set_is_data_error(self, workspace, capsys):
        empty = workspace / "empty"
        empty.mkdir()
        write_idx_images(empty / "img", np.empty((0, 8)), 1, 8)
        write_idx_labels(empty / "lab", np.empty(0, dtype=np.int64))
        args = train_args(workspace, workspace / "x")
        args[args.index("--images") + 1] = str(empty / "img")
        args[args.index("--labels") + 1] = str(empty / "lab")
        assert main(args) == 2
        assert "data error: training set is empty" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_test_set_of_other_dimension_is_named(self, workspace, square_run, capsys):
        args = train_args(workspace, workspace / "x")
        args[args.index("--test-images") + 1] = str(workspace / "sq" / "images-idx3-ubyte")
        args[args.index("--test-labels") + 1] = str(workspace / "sq" / "labels-idx1-ubyte")
        capsys.readouterr()
        assert main(args) == 1
        assert "config D=8 but test data has D=9" in capsys.readouterr().err
        assert not (workspace / "x").exists()

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

    def test_non_finite_weight_in_epoch_is_numeric_failure(self, workspace, monkeypatch, capsys):
        real_epoch = harness.online_epoch

        def poisoned_epoch(ds, W, R, cfg, rng):
            W.W[0, 0] = np.inf
            return real_epoch(ds, W, R, cfg, rng)

        monkeypatch.setattr(harness, "online_epoch", poisoned_epoch)
        assert main(train_args(workspace, workspace / "x")) == 3
        assert "epoch 1: non-finite activation at epoch sample 0" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_interrupted_save_over_old_run_is_data_error(self, workspace, monkeypatch, capsys):
        # Run A (C'=2, seed 1) is overwritten by run B (C'=6, seed 2) whose
        # config.json write fails: B's weights must not load with A's config.
        run = workspace / "run"
        assert main(train_args(workspace, run, ("--seed", "1"))) == 0
        (workspace / "cfg6.json").write_text(json.dumps({**CFG, "C_prime": 6}))
        args = train_args(workspace, run, ("--seed", "2"))
        args[args.index("--config") + 1] = str(workspace / "cfg6.json")
        write_text = Path.write_text

        def config_write_fails(path, *rest, **kwargs):
            if path.name == "config.json":
                raise OSError("No space left on device")
            return write_text(path, *rest, **kwargs)

        monkeypatch.setattr(Path, "write_text", config_write_fails)
        assert main(args) == 2
        monkeypatch.undo()
        with pytest.raises(DataError, match="not a weights directory"):
            load_weights(run)
        capsys.readouterr()
        assert main([
            "eval", "--weights", str(run),
            "--test-images", str(workspace / "te" / "images-idx3-ubyte"),
            "--test-labels", str(workspace / "te" / "labels-idx1-ubyte"),
        ]) == 2
        assert "not a weights directory" in capsys.readouterr().err

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


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="BLAS has one core either way")
@pytest.mark.parametrize("c_prime", [15, 400])
def test_seeded_run_independent_of_blas_thread_environment(tmp_path, c_prime):
    # A multi-threaded GEMM rounds differently from a single-threaded one;
    # the package pins BLAS to one thread unless the environment says otherwise.
    # At C'=C the bottom step's worker thread runs a matvec too.
    assert main([
        "synth", "--clusters", "10", "--dim", "784", "--n", "800",
        "--seed", "7", "--out", str(tmp_path / "d"),
    ]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({
        "K": 10, "C": 400, "C_prime": c_prime, "A": 900.0, "D": 784,
        "eps_W": 0.1, "eps_R": 0.0025, "theta_bvsb": 0.6, "epochs": 1, "seed": 7,
    }))
    src = str(Path(truncmix.__file__).parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    images, labels = (str(tmp_path / "d" / f) for f in ("images-idx3-ubyte", "labels-idx1-ubyte"))
    cmd = [sys.executable, "-m", "truncmix.cli", "train", "--config", str(tmp_path / "cfg.json"),
           "--images", images, "--labels", labels, "--test-images", images, "--test-labels", labels]
    outputs = []
    for i, env in enumerate((base, dict(base, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))):
        out = tmp_path / f"run{i}"
        proc = subprocess.run([*cmd, "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / f).read_bytes() for f in ("W.npy", "report.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the process has one CPU either way")
@pytest.mark.parametrize("C, n", [(400, 400), (401, 500)])
def test_untruncated_run_independent_of_cpu_count(tmp_path, C, n):
    # At C'=C the bottom step and the next point's matvec split their rows
    # across two threads only where the process may use two CPUs; pinned to
    # one CPU before import, they stay serial.  Both must write the same
    # bytes.  C=401 leaves an odd 209 rows past the aligned split at 192.
    assert main([
        "synth", "--clusters", "10", "--dim", "784", "--n", str(n),
        "--seed", "7", "--out", str(tmp_path / "d"),
    ]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({
        "K": 10, "C": C, "C_prime": C, "A": 900.0, "D": 784,
        "eps_W": 0.1, "eps_R": 0.0025, "theta_bvsb": 0.6, "epochs": 1, "seed": 7,
    }))
    src = str(Path(truncmix.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import os, sys\n"
        "if sys.argv[1] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from truncmix import inference\n"
        "from truncmix.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "print('split' if inference._WORKER else 'serial')\n"
        "sys.exit(code)\n"
    )
    images, labels = (str(tmp_path / "d" / f) for f in ("images-idx3-ubyte", "labels-idx1-ubyte"))
    args = ["train", "--config", str(tmp_path / "cfg.json"), "--images", images,
            "--labels", labels, "--test-images", images, "--test-labels", labels]
    outputs = {}
    for cpus, mode in (("one", "serial"), ("all", "split")):
        out = tmp_path / cpus
        proc = subprocess.run([sys.executable, "-c", script, cpus, *args, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == mode
        outputs[cpus] = [(out / f).read_bytes() for f in ("W.npy", "report.json")]
    assert outputs["one"] == outputs["all"]


# Runs one job in a fresh interpreter and prints the BLAS thread count
# numpy started with and whether the passes have a worker thread.  argv:
# which module to import first, "one" or "all" CPUs, "train", "tvem" or
# "scores", the output directory, then the train options or the image and
# label files.  "tvem" runs 4 iterations of run_tv_em at C'=15 from a
# farthest-point init and saves W.npy; "scores" saves the C'=15 class
# scores of that init under a seeded R, as evaluate computes them, and
# then prints the BLAS thread count again.
RUN_SCRIPT = """
import os, sys
first, cpus, mode, out, *args = sys.argv[1:]
if cpus == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
if first == "numpy":
    import numpy  # before truncmix: OpenBLAS takes its threads from the environment
from truncmix import inference
lib = inference._openblas()
print("blas", lib.scipy_openblas_get_num_threads64_() if lib else None)
print("split" if inference._WORKER else "serial", flush=True)
if mode == "train":
    from truncmix.cli import main
    sys.exit(main(["train", *args, "--out", out]))
import numpy as np
from truncmix.data import load_idx, preprocess
from truncmix.learning import init_from_data, run_tv_em
ds = preprocess(load_idx(*args), 900.0, 10)
W0 = init_from_data(ds.Y, 400, 900.0, np.random.default_rng(7))
os.makedirs(out)
if mode == "tvem":
    W, _ = run_tv_em(ds.Y, W0, 15, 4, ds.lgamma_sums)
    np.save(os.path.join(out, "W.npy"), W.W)
    sys.exit(0)
from truncmix.core import TopWeights
from truncmix.harness import _class_scores
R = TopWeights(np.random.default_rng(7).dirichlet(np.ones(400), size=10))
np.save(os.path.join(out, "scores.npy"), _class_scores(ds.Y, W0, R, 15))
print("blas after", lib.scipy_openblas_get_num_threads64_() if lib else None)
"""


def run_script_outputs(tmp_path, n, job, runs):
    """Synthesize n points, run RUN_SCRIPT's ``job`` (a train run's C' or
    "tvem" or "scores") once per (name, env, first, cpus) in ``runs`` at
    C=400, and return each run's stdout lines and output bytes (W.npy, plus
    report.json for a train run, or scores.npy)."""
    assert main([
        "synth", "--clusters", "10", "--dim", "784", "--n", str(n),
        "--seed", "7", "--out", str(tmp_path / "d"),
    ]) == 0
    images, labels = (str(tmp_path / "d" / f) for f in ("images-idx3-ubyte", "labels-idx1-ubyte"))
    if job in ("tvem", "scores"):
        mode, args = job, [images, labels]
        files = ("W.npy",) if job == "tvem" else ("scores.npy",)
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({
            "K": 10, "C": 400, "C_prime": job, "A": 900.0, "D": 784,
            "eps_W": 0.1, "eps_R": 0.0025, "theta_bvsb": 0.6, "epochs": 1, "seed": 7,
        }))
        mode, files = "train", ("W.npy", "report.json")
        args = ["--config", str(tmp_path / "cfg.json"), "--images", images, "--labels", labels,
                "--test-images", images, "--test-labels", labels]
    src = str(Path(truncmix.__file__).parents[1])
    results = {}
    for name, env, first, cpus in runs:
        env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-c", RUN_SCRIPT, first, cpus, mode, str(out), *args],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        results[name] = (proc.stdout.splitlines(), [(out / f).read_bytes() for f in files])
    return results


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the process has one CPU either way")
@pytest.mark.parametrize("job", [15, "tvem"], ids=["train-c15", "run_tv_em"])
def test_batch_passes_independent_of_cpu_count(tmp_path, job):
    # Below C'=C the trace pass, the evaluation and every TV-EM pass split
    # their fixed row blocks between two threads only where the process may
    # use two CPUs.  600 points span three 256-row blocks.
    results = run_script_outputs(tmp_path, 600, job, [
        (cpus, os.environ, "truncmix", cpus) for cpus in ("one", "all")])
    assert "serial" in results["one"][0] and "split" in results["all"][0]
    assert results["one"][1] == results["all"][1]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="BLAS has one core either way")
@pytest.mark.parametrize("job", [15, 400, "tvem", "scores"],
                         ids=["train-c15", "train-c400", "run_tv_em", "class-scores"])
def test_numpy_first_caller_gets_pinned_bits(tmp_path, job):
    # A caller that imports numpy before truncmix starts OpenBLAS at the
    # environment's two threads; train and run_tv_em set one thread for the
    # run, and every split pass (the class scores of evaluate among them)
    # for the pass, so W and the scores match a run under the import-time
    # pin.  The caller's count is restored afterwards.
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    results = run_script_outputs(tmp_path, 1200, job, [
        ("pinned", base, "truncmix", "all"),
        ("numpy-first", dict(base, OPENBLAS_NUM_THREADS="2"), "numpy", "all"),
    ])
    if "blas None" in results["pinned"][0]:
        pytest.skip("numpy's BLAS exports no scipy_openblas thread setter")
    assert "blas 1" in results["pinned"][0] and "blas 2" in results["numpy-first"][0]
    if job == "scores":
        assert "blas after 2" in results["numpy-first"][0]
    assert results["pinned"][1][0] == results["numpy-first"][1][0]
