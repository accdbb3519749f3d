import json
import resource
from dataclasses import replace

import numpy as np
import pytest

from truncmix import inference
from truncmix.core import BottomWeights, ConfigError, DataError, ModelConfig, TopWeights
from truncmix.data import Dataset, generate_mixture, preprocess, subsample_labels
from truncmix.harness import (
    _class_scores,
    aggregate,
    evaluate,
    export_weight_grid,
    load_weights,
    predict_batch,
    save_run,
    train,
)
from truncmix.inference import (
    class_activation, integrate, normalized_columns, select_truncation, truncated_posterior,
)

from conftest import posteriors_by_row, random_observations, random_weights


def small_problem(seed=0, n_train=240, n_test=120):
    raw_tr, _ = generate_mixture(4, 8, n_train, seed=seed)
    raw_te, _ = generate_mixture(4, 8, n_test, seed=seed + 1000)
    train_ds = preprocess(raw_tr, 32.0, K=4)
    test_ds = preprocess(raw_te, 32.0, K=4)
    cfg = ModelConfig(K=4, C=6, C_prime=2, A=32.0, D=8,
                      eps_W=0.2 * 6 / n_train, eps_R=1.0 * 4 / n_train,
                      theta_bvsb=0.6, epochs=3, seed=seed)
    return train_ds, test_ds, cfg


class TestEvaluate:
    def test_perfect_predictor_scores_zero(self):
        W = BottomWeights(np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 6.0]]), 8.0)
        R = TopWeights(np.array([[1.0, 0.0], [0.0, 1.0]]))
        Y = np.array([[5.5, 1.0, 1.5], [1.5, 1.0, 5.5], [6.0, 1.0, 1.0]])
        ds = Dataset(Y, np.array([0, 1, 0]), 2, 8.0)
        assert evaluate(ds, W, R, 1) == 0.0

    def test_uniform_top_weights_predict_class_zero(self):
        rng = np.random.default_rng(0)
        W = random_weights(rng, 5, 6, 13.0)
        R = TopWeights(np.full((3, 5), 0.2))
        raw, _ = generate_mixture(3, 6, 90, seed=2)
        ds = preprocess(raw, 13.0, K=3)
        err = evaluate(ds, W, R, 2)
        freq0 = np.mean(ds.labels == 0)
        assert err == pytest.approx(1.0 - freq0)

    def test_hand_computable_error(self):
        W = BottomWeights(np.array([[6.0, 1.0, 1.0], [1.0, 1.0, 6.0]]), 8.0)
        R = TopWeights(np.array([[1.0, 0.0], [0.0, 1.0]]))
        Y = np.array([[5.5, 1.0, 1.5], [1.5, 1.0, 5.5], [6.0, 1.0, 1.0]])
        ds = Dataset(Y, np.array([0, 1, 1]), 2, 8.0)  # last label is wrong
        assert evaluate(ds, W, R, 1) == pytest.approx(1.0 / 3.0)

    def test_unlabeled_test_set_rejected(self):
        W = BottomWeights(np.full((2, 3), 8.0 / 3), 8.0)
        R = TopWeights(np.full((2, 2), 0.5))
        ds = Dataset(np.full((2, 3), 8.0 / 3), np.array([0, -1]), 2, 8.0)
        with pytest.raises(DataError, match="fully labeled"):
            evaluate(ds, W, R, 1)

    def test_batch_predictions_match_per_point_path(self):
        rng = np.random.default_rng(1)
        W = random_weights(rng, 9, 7, 15.0)
        R = TopWeights(rng.dirichlet(np.ones(9), size=4))
        raw, _ = generate_mixture(4, 7, 50, seed=3)
        ds = preprocess(raw, 15.0, K=4)
        batch = predict_batch(ds.Y, W, R, 3)
        mix = normalized_columns(R.R)
        for n in range(ds.N):
            I = integrate(W, ds.Y[n : n + 1])[0]
            sup = select_truncation(I, 3)
            assert batch[n] == np.argmax(class_activation(sup, truncated_posterior(I, sup), mix))

    @pytest.mark.parametrize("c_prime", [1, 3, 9])
    def test_batch_predictions_equal_reference_construction(self, c_prime):
        rng = np.random.default_rng(4)
        W = random_weights(rng, 9, 7, 15.0)
        W.W[1:4] = W.W[0]  # four equal top activations for rows shaped like W[0]
        R = TopWeights(rng.dirichlet(np.full(9, 0.3), size=4))
        Y = np.vstack([W.W[0], random_observations(rng, 60, 7, 15.0)])
        I = integrate(W, Y)
        if c_prime < 4:
            assert np.count_nonzero(I[0] >= np.sort(I[0])[-c_prime]) > c_prime
        sets = select_truncation(I, c_prime)
        S = np.zeros_like(I)
        np.put_along_axis(S, sets, posteriors_by_row(I, sets), axis=1)
        want = np.argmax(S @ normalized_columns(R.R).T, axis=1)
        before = [a.copy() for a in (Y, W.W, R.R)]
        got = predict_batch(Y, W, R, c_prime)
        assert np.array_equal(got, want)
        assert len(set(want)) > 1
        for a, b in zip((Y, W.W, R.R), before):
            assert np.array_equal(a, b)

    def test_class_scores_read_the_training_mixture_bit_for_bit(self):
        # Evaluation and the online class posterior normalize R's columns by
        # one rule.  At C'=1 each posterior is one-hot, so the score GEMM is
        # exact and a row of scores is its cluster's normalized column: the
        # one a support's gather normalizes, as at training time.
        rng = np.random.default_rng(5)
        W = random_weights(rng, 400, 16, 48.0)
        R = TopWeights(rng.dirichlet(np.ones(400), size=10))
        Y = random_observations(rng, 300, 16, 48.0)
        scores = _class_scores(Y, W, R, 1)
        sets = select_truncation(integrate(W, Y), 1)
        mix = normalized_columns(R.R)
        one = np.array([1.0])
        for n, s in enumerate(sets):
            assert scores[n].tobytes() == class_activation(s, one, mix).tobytes()
            assert scores[n].tobytes() == (normalized_columns(R.R[:, s]) @ one).tobytes()


class TestTrain:
    def test_zero_epochs_reports_initial_error_only(self):
        train_ds, test_ds, cfg = small_problem()
        cfg = replace(cfg, epochs=0)
        report, W, R = train(train_ds, test_ds, cfg)
        assert len(report.test_errors) == 1
        assert report.to_dict()["final_error"] == report.test_errors[0]
        assert report.gate_stats == [] and report.timings == []
        assert [it for it, _ in report.trace.entries] == [0]

    def test_epoch_zero_error_shared_across_truncation_sizes(self):
        train_ds, test_ds, cfg = small_problem()
        r_trunc, _, _ = train(train_ds, test_ds, replace(cfg, epochs=0))
        r_full, _, _ = train(train_ds, test_ds, replace(cfg, epochs=0, C_prime=6))
        assert r_trunc.test_errors[0] == r_full.test_errors[0]
        assert r_trunc.init_hash == r_full.init_hash

    def test_deterministic_reports(self):
        train_ds, test_ds, cfg = small_problem()
        r1, W1, R1 = train(train_ds, test_ds, cfg)
        r2, W2, R2 = train(train_ds, test_ds, cfg)
        assert r1.to_json() == r2.to_json()
        assert np.array_equal(W1.W, W2.W) and np.array_equal(R1.R, R2.R)

    def test_trace_every(self):
        train_ds, test_ds, cfg = small_problem()
        report, _, _ = train(train_ds, test_ds, cfg, trace_every=2)
        assert [it for it, _ in report.trace.entries] == [0, 2, 3]
        report, _, _ = train(train_ds, test_ds, cfg, trace_every=0)
        assert report.trace.entries == []
        # Without a trace nothing reads the per-point lgamma sums, so the
        # pass that computes them does not run.
        train_ds, test_ds, cfg = small_problem()
        train(train_ds, test_ds, cfg, trace_every=0)
        assert "lgamma_sums" not in train_ds.__dict__

    def test_full_truncation_trace_pass_is_one_gemm_pass(self, monkeypatch):
        # At C'=C the E-step computes no activations, so a trace pass runs
        # one padded GEMM per row block, free_energy's, not two.
        train_ds, test_ds, cfg = small_problem(n_train=600)
        cfg = replace(cfg, epochs=0, C_prime=cfg.C)
        calls = []
        block_matmul = inference._block_matmul

        def counting(*args):
            calls.append(1)
            block_matmul(*args)

        monkeypatch.setattr(inference, "_block_matmul", counting)
        counts = []
        for trace_every in (0, 1):
            calls.clear()
            train(train_ds, test_ds, cfg, trace_every=trace_every)
            counts.append(len(calls))
        assert counts[1] - counts[0] == -(-train_ds.N // inference._ROW_BLOCK) == 3

    def test_report_json_excludes_timings(self):
        train_ds, test_ds, cfg = small_problem()
        report, _, _ = train(train_ds, test_ds, cfg)
        doc = json.loads(report.to_json())
        assert "timings" not in doc
        assert len(report.timings) == cfg.epochs
        assert set(report.timings[0]) == {
            "integrate", "select", "posterior", "update_bottom", "update_top"}
        assert len(doc["gate_stats"]) == cfg.epochs
        assert doc["n_labeled"] == train_ds.N

    def test_mismatched_data_rejected(self):
        train_ds, test_ds, cfg = small_problem()
        with pytest.raises(ConfigError, match="D="):
            train(train_ds, test_ds, replace(cfg, D=9, A=32.0))

    @pytest.mark.parametrize("which", ["training", "test"])
    def test_data_of_other_mass_rejected_naming_the_set(self, which):
        train_ds, test_ds, cfg = small_problem()
        raw, _ = generate_mixture(4, 8, 40, seed=5)
        other = preprocess(raw, 64.0, K=4)
        train_ds, test_ds = (other, test_ds) if which == "training" else (train_ds, other)
        with pytest.raises(ConfigError, match=f"{which} data was normalized to A=64.0"):
            train(train_ds, test_ds, cfg)

    @pytest.mark.parametrize("which", ["training", "test"])
    def test_data_of_other_class_count_rejected_naming_the_set(self, which):
        train_ds, test_ds, cfg = small_problem()
        other = preprocess(generate_mixture(5, 8, 240, seed=0)[0], 32.0, K=5)
        train_ds, test_ds = (other, test_ds) if which == "training" else (train_ds, other)
        with pytest.raises(ConfigError, match=f"config K=4 but {which} data has K=5"):
            train(train_ds, test_ds, cfg)

    def test_learning_reduces_error(self):
        train_ds, test_ds, cfg = small_problem()
        sub = subsample_labels(train_ds, 4, seed=0)
        report, _, _ = train(sub, test_ds, replace(cfg, epochs=5))
        assert report.test_errors[-1] < report.test_errors[0]
        assert report.n_labeled == 16

    def test_epoch_zero_free_energy_ordering(self):
        # At shared initial weights, the full-support free energy is the
        # data log-likelihood and dominates every truncated value.
        train_ds, test_ds, cfg = small_problem()
        reports = {cp: train(train_ds, test_ds, replace(cfg, epochs=0, C_prime=cp))[0]
                   for cp in (1, 2, 6)}
        f0 = {cp: r.trace.entries[0][1] for cp, r in reports.items()}
        assert f0[6] >= f0[2] >= f0[1]


class TestExportWeightGrid:
    def test_constant_panel_renders_mid_gray(self, tmp_path):
        W = BottomWeights(np.full((1, 4), 2.0), 8.0)
        R = TopWeights(np.array([[1.0], [1.0]]))  # one column, both classes equal
        out = tmp_path / "grid.pgm"
        export_weight_grid(W, R, 1, 1, out)
        data = out.read_bytes()
        assert data.startswith(b"P5\n4 2\n255\n")
        canvas = np.frombuffer(data[len(b"P5\n4 2\n255\n"):], dtype=np.uint8).reshape(2, 4)
        expected = np.array([
            [127, 127, 0, 127],
            [127, 127, 0, 127],
        ], dtype=np.uint8)
        np.testing.assert_array_equal(canvas, expected)

    def test_golden_two_by_two_grid(self, tmp_path):
        # Hand-constructed expected bytes for 4 clusters of D=4 at side 2.
        W = BottomWeights(np.array([
            [5.0, 1.0, 1.0, 1.0],
            [1.0, 5.0, 1.0, 1.0],
            [1.0, 1.0, 5.0, 1.0],
            [1.0, 1.0, 1.0, 5.0],
        ]), 8.0)
        R = TopWeights(np.array([
            [0.4, 0.1, 0.3, 0.2],
            [0.2, 0.3, 0.1, 0.4],
        ]))
        out = tmp_path / "grid.pgm"
        export_weight_grid(W, R, 2, 2, out)
        expected_canvas = np.array([
            [255, 0, 0, 255, 0, 0, 255, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 255],
            [0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 255, 0, 0, 0, 0, 0],
            [255, 0, 0, 0, 0, 0, 255, 0, 255],
        ], dtype=np.uint8)
        assert out.read_bytes() == b"P5\n9 5\n255\n" + expected_canvas.tobytes()

    def test_capacity_and_shape_errors(self, tmp_path):
        W = BottomWeights(np.full((2, 4), 2.0), 8.0)
        R = TopWeights(np.full((2, 2), 0.5))
        with pytest.raises(DataError, match="capacity"):
            export_weight_grid(W, R, 2, 2, tmp_path / "x.pgm")
        with pytest.raises(DataError, match="D=3 is not a perfect square"):
            export_weight_grid(BottomWeights(np.full((2, 3), 4.0), 12.0), R, 1, 2,
                               tmp_path / "x.pgm")
        tall_R = TopWeights(np.full((5, 2), 0.5))
        with pytest.raises(DataError, match="does not fit"):
            export_weight_grid(W, tall_R, 1, 2, tmp_path / "x.pgm")


class TestAggregate:
    def test_mean_and_sem(self):
        reports = [
            {"seed": 0, "final_error": 0.1},
            {"seed": 1, "final_error": 0.2},
            {"seed": 2, "final_error": 0.3},
        ]
        out = aggregate(reports)
        assert out["n_runs"] == 3
        assert out["mean_final_error"] == pytest.approx(0.2)
        assert out["sem_final_error"] == pytest.approx(0.1 / np.sqrt(3))

    def test_single_run_has_no_sem(self):
        out = aggregate([{"seed": 5, "final_error": 0.25}])
        assert out["sem_final_error"] is None

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no reports"):
            aggregate([])


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        train_ds, test_ds, cfg = small_problem()
        report, W, R = train(train_ds, test_ds, replace(cfg, epochs=1))
        save_run(tmp_path / "run", report, W, R)
        W2, R2, cfg2 = load_weights(tmp_path / "run")
        assert np.array_equal(W.W, W2.W) and np.array_equal(R.R, R2.R)
        assert cfg2 == replace(cfg, epochs=1)
        doc = json.loads((tmp_path / "run" / "report.json").read_text())
        assert doc["final_error"] == report.test_errors[-1]
        fe = (tmp_path / "run" / "free_energy.csv").read_text().splitlines()
        assert fe[0] == "epoch,free_energy"
        te = (tmp_path / "run" / "test_error.csv").read_text().splitlines()
        assert te[0] == "epoch,test_error"
        assert len(te) == 1 + len(report.test_errors)
        # Both traces round-trip at full float precision.
        assert len(fe) == 1 + len(report.trace.entries)
        for line, (epoch, v) in zip(fe[1:], report.trace.entries):
            e_str, v_str = line.split(",")
            assert int(e_str) == epoch and float(v_str) == v
        for line, (epoch, err) in zip(te[1:], enumerate(report.test_errors)):
            e_str, v_str = line.split(",")
            assert int(e_str) == epoch and float(v_str) == err

    def test_timings_hold_phases_and_peak_rss(self, tmp_path):
        train_ds, test_ds, cfg = small_problem()
        report, W, R = train(train_ds, test_ds, replace(cfg, epochs=2))
        save_run(tmp_path / "run", report, W, R)
        timings = json.loads((tmp_path / "run" / "timings.json").read_text())
        assert set(timings) == {"per_epoch", "peak_rss_mb", "blas_threads"}
        assert timings["per_epoch"] == report.timings
        # One OpenBLAS thread during the run, or null where it cannot be set.
        assert timings["blas_threads"] == (1 if inference._openblas() else None)
        # The process's peak so far, in ru_maxrss KiB / 1024: it cannot
        # exceed the peak read after the save.
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        assert 0.0 < timings["peak_rss_mb"] <= after
        assert "peak_rss_mb" not in (tmp_path / "run" / "report.json").read_text()

    def test_top_shape_checked_against_config(self, tmp_path):
        train_ds, test_ds, cfg = small_problem()
        report, W, R = train(train_ds, test_ds, replace(cfg, epochs=0))
        save_run(tmp_path / "run", report, W, R)
        np.save(tmp_path / "run" / "R.npy", np.full((cfg.K + 1, cfg.C), 1.0 / cfg.C))
        with pytest.raises(DataError, match=r"R\.npy has shape \(5, 6\), config.json implies \(4, 6\)"):
            load_weights(tmp_path / "run")

    def test_missing_weights_dir(self, tmp_path):
        with pytest.raises(DataError, match="not a weights directory"):
            load_weights(tmp_path / "nope")
