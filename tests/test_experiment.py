import itertools
import os
import shutil

import numpy as np
import pytest

from conftest import SYNTH_FORMANTS, make_corpus, write_wav
from vowelkit.corpus import PhonemeToken, load_corpus_tokens
from vowelkit.errors import InvalidInput
from vowelkit.experiment import (
    ExperimentConfig,
    GridCell,
    RunReport,
    build_dataset,
    evaluate,
    extract_token_features,
    frontend_for,
    grid_search,
    parse_report_csv,
    plan_grid,
    report_to_csv,
    report_to_markdown,
    selection_for,
)
import vowelkit.experiment as experiment
import vowelkit.multiclass as multiclass
from vowelkit.frame_select import MiddleFrames
from vowelkit.kernels import Rbf, Sigmoid, make_kernel
from vowelkit.multiclass import predict_ovo_batch, predict_phoneme, save_model, train_ovo
from vowelkit.svm import SvmParams


def make_token_dir(tmp_path, specs):
    """specs: list of (utt, label, n_samples, split). One token per file."""
    tokens = []
    rng = np.random.default_rng(0)
    for utt, label, n_samples, split in specs:
        path = tmp_path / f"{utt}.wav"
        write_wav(path, rng.uniform(-0.4, 0.4, n_samples))
        tokens.append(PhonemeToken(label, 0, n_samples, utt, split, str(path)))
    return tokens


class TestBuildDataset:
    def test_middle3_row_counts(self, tmp_path):
        tokens = make_token_dir(
            tmp_path,
            [("a", "aa", 1024, "train"), ("b", "iy", 1024, "train"),
             ("c", "aa", 1024, "test"), ("d", "iy", 1024, "test")],
        )
        train, test, scaler = build_dataset(
            tokens, frontend_for("mfcc36"), MiddleFrames(3)
        )
        # 1024 samples -> 7 frames -> centered 3 selected, 36 dims
        assert train.X.shape == (6, 36)
        assert test.X.shape == (6, 36)
        assert train.token_spans == [(0, 3), (3, 6)]

    def test_short_tokens_skipped_and_counted(self, tmp_path):
        tokens = make_token_dir(
            tmp_path,
            [("a", "aa", 1024, "train"), ("b", "iy", 1024, "train"),
             ("c", "aa", 200, "train"), ("d", "aa", 1024, "test"),
             ("e", "iy", 1024, "test")],
        )
        train, _test, _ = build_dataset(tokens, frontend_for("mfcc36"), MiddleFrames(3))
        assert train.skipped == 1
        assert train.n_tokens == 2

    def test_scaled_to_unit_interval(self, tmp_path):
        tokens = make_token_dir(
            tmp_path,
            [("a", "aa", 2048, "train"), ("b", "iy", 2048, "train"),
             ("c", "aa", 1024, "test")],
        )
        train, test, _ = build_dataset(tokens, frontend_for("mfcc36"), MiddleFrames(3))
        assert train.X.min() >= 0.0 and train.X.max() <= 1.0
        assert test.X.min() >= 0.0 and test.X.max() <= 1.0

    def test_scaler_fit_on_train_only(self, tmp_path):
        tokens = make_token_dir(
            tmp_path,
            [("a", "aa", 1024, "train"), ("b", "iy", 1024, "train"),
             ("c", "aa", 4096, "test"), ("d", "iy", 4096, "test")],
        )
        _train, test, scaler = build_dataset(tokens, frontend_for("mfcc36"), MiddleFrames(3))
        # refitting with the test rows moves the extrema, proving the fit
        # never consulted them
        from vowelkit.preprocessing import fit_scaler

        feats = extract_token_features(tokens, frontend_for("mfcc36"))
        all_rows = np.vstack([f for _t, f in feats])
        refit = fit_scaler(all_rows)
        assert not np.allclose(refit.mins, scaler.mins)

    def test_given_scaler_needs_no_training_rows(self, tmp_path):
        tokens = make_token_dir(
            tmp_path,
            [("a", "aa", 1024, "train"), ("b", "iy", 1024, "train"),
             ("c", "aa", 4096, "test"), ("d", "iy", 4096, "test")],
        )
        frontend, selection = frontend_for("mfcc36"), MiddleFrames(3)
        _train, full_test, scaler = build_dataset(tokens, frontend, selection)
        train, test, same = build_dataset(
            [t for t in tokens if t.split == "test"], frontend, selection,
            label_names=["aa", "iy"], scaler=scaler,
        )
        assert same is scaler
        assert train.n_tokens == 0
        assert np.array_equal(test.X, full_test.X)

    def test_empty_tokens_rejected(self):
        with pytest.raises(InvalidInput):
            build_dataset([], frontend_for("mfcc36"), MiddleFrames(3))

    def test_label_without_a_class_rejected(self, tmp_path):
        tokens = make_token_dir(
            tmp_path,
            [("a", "aa", 1024, "train"), ("b", "iy", 1024, "train"),
             ("c", "aa", 1024, "test"), ("d", "eh", 1024, "test")],
        )
        with pytest.raises(InvalidInput, match="eh"):
            build_dataset(tokens, frontend_for("mfcc36"), MiddleFrames(3),
                          label_names=["aa", "iy"])

    def test_span_past_the_signal_rejected(self, tmp_path):
        (token,) = make_token_dir(tmp_path, [("a", "aa", 1024, "train")])
        past = PhonemeToken("aa", 512, 1025, "a", "train", token.audio_path)
        with pytest.raises(InvalidInput, match=r"span \[512, 1025\) exceeds signal of 1024"):
            extract_token_features([past], frontend_for("mfcc36"))


class TestEvaluate:
    def train_small(self, small_corpus, selection=None, params=None):
        tokens = load_corpus_tokens(small_corpus)
        selection = selection or MiddleFrames(3)
        train, test, scaler = build_dataset(tokens, frontend_for("mfcc36"), selection)
        model = train_ovo(
            train, params or SvmParams(C=10.0, kernel=Rbf(0.5)),
            fingerprint=train.fingerprint, scaler=scaler,
        )
        return model, train, test

    def test_predicts_each_test_row_once(self, small_corpus, monkeypatch):
        # a weak model with an even frame count, so errors and vote ties occur
        model, _train, test = self.train_small(
            small_corpus, MiddleFrames(4), SvmParams(C=1.0, kernel=Sigmoid(0.5, -1.0)))
        frame_preds = predict_ovo_batch(model, test.X)
        expected = np.zeros((3, 3), dtype=int)
        for (start, stop), label in zip(test.token_spans, test.token_labels):
            expected[label, predict_phoneme(model, test.X[start:stop])] += 1
        rows = []
        votes_and_scores = multiclass._votes_and_scores

        def counting(model, X):
            rows.append(X.shape[0])
            return votes_and_scores(model, X)

        monkeypatch.setattr(multiclass, "_votes_and_scores", counting)
        metrics = evaluate(model, test)
        assert sum(rows) == test.X.shape[0]
        assert np.array_equal(metrics["confusion"], expected)
        assert 0 < np.trace(expected) < test.n_tokens
        assert metrics["phoneme_accuracy"] == 100.0 * np.trace(expected) / test.n_tokens
        assert metrics["frame_accuracy"] == 100.0 * np.mean(frame_preds == test.labels)

    def test_separable_training_accuracy(self, small_corpus):
        model, train, test = self.train_small(small_corpus)
        metrics = evaluate(model, train)
        assert metrics["frame_accuracy"] == 100.0
        assert metrics["phoneme_accuracy"] == 100.0

    def test_confusion_matrix_identities(self, small_corpus):
        model, _train, test = self.train_small(small_corpus)
        metrics = evaluate(model, test)
        confusion = metrics["confusion"]
        assert confusion.sum() == test.n_tokens
        per_class = np.bincount(test.token_labels, minlength=confusion.shape[0])
        assert np.array_equal(confusion.sum(axis=1), per_class)
        trace_acc = 100.0 * np.trace(confusion) / confusion.sum()
        assert trace_acc == pytest.approx(metrics["phoneme_accuracy"])

    def test_fingerprint_mismatch_rejected(self, small_corpus):
        model, _train, _test = self.train_small(small_corpus)
        tokens = load_corpus_tokens(small_corpus)
        _tr, other_test, _ = build_dataset(
            tokens, frontend_for("mfcc36"), MiddleFrames(5)
        )
        with pytest.raises(InvalidInput):
            evaluate(model, other_test)


def small_grid_config(corpus, **overrides):
    base = dict(
        corpus_root=str(corpus), phonemes=("aa", "iy", "uw"),
        kernels=("rbf",), features=("mfcc36",), c_values=(10.0,),
        sigmas=(0.5,), k_values=(3,), methods=("middle",), seed=0, workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGridSearch:
    def test_cell_count_is_cartesian_product(self, small_corpus):
        config = small_grid_config(
            small_corpus, kernels=("rbf", "polynomial", "sigmoid"),
            features=("mfcc36", "mfcc12"), c_values=(1.0, 10.0, 100.0, 1000.0),
        )
        report = grid_search(config)
        assert len(report.cells) == 3 * 2 * 4

    def test_single_cell_runs(self, small_corpus):
        config = small_grid_config(small_corpus, sigmas=(0.027,))
        report = grid_search(config)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.error == ""
        assert 0.0 <= cell.frame_acc <= 100.0
        assert cell.converged_pairs == "3/3"

    def test_determinism_across_runs_and_workers(self, small_corpus):
        config1 = small_grid_config(small_corpus, kernels=("rbf", "polynomial"), workers=1)
        config4 = small_grid_config(small_corpus, kernels=("rbf", "polynomial"), workers=4)
        r1 = grid_search(config1)
        r2 = grid_search(config1)
        r4 = grid_search(config4)
        for a, b in ((r1, r2), (r1, r4)):
            for ca, cb in zip(a.cells, b.cells):
                assert ca.coords == cb.coords
                assert ca.frame_acc == cb.frame_acc
                assert ca.phoneme_acc == cb.phoneme_acc
                assert ca.confusion == cb.confusion

    def test_cell_failure_is_isolated(self, small_corpus):
        config = small_grid_config(small_corpus, sigmas=(0.5, -1.0))
        report = grid_search(config)
        errors = [c for c in report.cells if c.error]
        ok = [c for c in report.cells if not c.error]
        assert len(errors) == 1 and len(ok) == 1
        assert ok[0].frame_acc > 0.0

    @pytest.mark.parametrize("stage", ["build_dataset", "train_ovo_many", "evaluate"])
    def test_a_failed_stage_fails_only_the_cells_that_share_it(self, small_corpus, monkeypatch,
                                                                stage):
        original, calls = getattr(experiment, stage), []

        def second_call_fails(*args, **kwargs):
            calls.append(stage)
            if len(calls) == 2:
                raise InvalidInput(f"{stage} failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, stage, second_call_fails)
        report = grid_search(small_grid_config(small_corpus, c_values=(10.0, 100.0),
                                               k_values=(3, 5)))
        # groups run in sorted order, K=3 first; evaluate runs once per cell
        failed = {(3, 100.0)} if stage == "evaluate" else {(5, 10.0), (5, 100.0)}
        assert {(c.K, c.C) for c in report.cells if c.error} == failed
        assert {c.error for c in report.cells if c.error} == {f"{stage} failed"}
        assert all(c.phoneme_acc > 0.0 for c in report.cells if not c.error)

    def test_saves_first_best_cell_in_sorted_order(self, small_corpus, tmp_path):
        config = small_grid_config(small_corpus, kernels=("rbf", "polynomial"),
                                   c_values=(100.0, 10.0), sigmas=(0.5, 0.027, -1.0))
        saved = tmp_path / "best.svmodel"
        report = grid_search(config, save_best=str(saved))
        assert [c.coords for c in report.cells] == sorted(c.coords for c in report.cells)
        ok = [c for c in report.cells if not c.error]
        assert len(ok) == 8
        best = max(ok, key=lambda c: (c.phoneme_acc, c.frame_acc))
        tokens = load_corpus_tokens(config.corpus_root, whitelist=config.phonemes)
        train, _test, scaler = build_dataset(
            tokens, frontend_for(best.feature), selection_for(best.method, best.K, seed=0),
            label_names=sorted(config.phonemes),
        )
        params = SvmParams(C=best.C, kernel=make_kernel(best.kernel, best.sigma))
        model = train_ovo(train, params, fingerprint=train.fingerprint, scaler=scaler)
        save_model(model, str(tmp_path / "reference.svmodel"))
        assert saved.read_bytes() == (tmp_path / "reference.svmodel").read_bytes()

    def test_batched_grid_equals_per_cell_reference(self, small_corpus, tmp_path):
        config = small_grid_config(small_corpus, kernels=("rbf", "polynomial"),
                                   c_values=(1000.0, 1.0), sigmas=(0.5, 0.027))
        saved = tmp_path / "best.svmodel"
        report = grid_search(config, save_best=str(saved))
        tokens = load_corpus_tokens(config.corpus_root, whitelist=config.phonemes)
        train, test, scaler = build_dataset(
            tokens, frontend_for("mfcc36"), selection_for("middle", 3, seed=0),
            label_names=sorted(config.phonemes),
        )
        # each cell trained alone with train_ovo, in sorted order; the first best is kept
        cells, best, best_score = [], None, None
        for kern, c, sigma in sorted(itertools.product(config.kernels, config.c_values,
                                                       config.sigmas)):
            params = SvmParams(C=c, kernel=make_kernel(kern, sigma))
            model = train_ovo(train, params, fingerprint=train.fingerprint, scaler=scaler)
            metrics = evaluate(model, test)
            n_pairs = len(model.pair_index)
            cells.append(GridCell(
                kernel=kern, feature="mfcc36", C=c, sigma=sigma, K=3, method="middle",
                frame_acc=metrics["frame_accuracy"], phoneme_acc=metrics["phoneme_accuracy"],
                n_train=train.n_tokens, n_test=test.n_tokens,
                skipped=train.skipped + test.skipped,
                converged_pairs=f"{n_pairs - len(model.not_converged)}/{n_pairs}",
                confusion=metrics["confusion"].tolist(),
            ))
            if best_score is None or (cells[-1].phoneme_acc, cells[-1].frame_acc) > best_score:
                best, best_score = model, (cells[-1].phoneme_acc, cells[-1].frame_acc)

        def untimed(cells):
            rows = parse_report_csv(report_to_csv(RunReport(cells, {}, 0)))
            return [{k: v for k, v in row.items() if k not in ("train_s", "test_s")}
                    for row in rows]

        assert untimed(report.cells) == untimed(cells)
        assert [c.confusion for c in report.cells] == [c.confusion for c in cells]
        assert all(c.train_s > 0.0 for c in report.cells)
        save_model(best, str(tmp_path / "reference.svmodel"))
        assert saved.read_bytes() == (tmp_path / "reference.svmodel").read_bytes()

    def test_failed_extraction_runs_once_per_feature(self, small_corpus, tmp_path,
                                                     monkeypatch):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        (corpus / "train" / "iy" / "utt000.wav").write_bytes(b"RIFFjunk")
        original, calls = experiment.extract_token_features, []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "extract_token_features", counted)
        report = grid_search(small_grid_config(corpus, k_values=(3, 5, 7),
                                               methods=("middle", "fcm")))
        assert len(calls) == 1
        assert len(report.cells) == 6
        assert len({c.error for c in report.cells}) == 1
        assert "utt000.wav" in report.cells[0].error

    def test_test_only_vowel_is_named_in_every_cell(self, tmp_path):
        formants = {k: SYNTH_FORMANTS[k] for k in ("aa", "eh", "iy", "uw")}
        corpus = make_corpus(tmp_path / "corpus", formants=formants, tokens_per_class=8,
                             noise=0.1, jitter=0.05, seed=4)
        shutil.rmtree(os.path.join(corpus, "train", "eh"))
        report = grid_search(small_grid_config(corpus, phonemes=tuple(sorted(formants)),
                                               c_values=(10.0, 100.0), k_values=(3, 5)))
        assert len(report.cells) == 4
        assert {c.error for c in report.cells} == {"no training frames for class(es) eh"}

    def test_config_echo_includes_seed(self, small_corpus):
        report = grid_search(small_grid_config(small_corpus, seed=42))
        assert report.config_echo["seed"] == 42
        assert report.seed == 42

    def test_empty_grid_list_rejected(self, small_corpus):
        with pytest.raises(InvalidInput):
            small_grid_config(small_corpus, kernels=())


class TestPlanGrid:
    def test_groups_hold_the_cells_whose_settings_build(self):
        config = ExperimentConfig(corpus_root=None, kernels=("rbf",), features=("mfcc36",),
                                  c_values=(10.0,), sigmas=(0.5, -1.0), k_values=(3, 5),
                                  methods=("middle", "fcmx"))
        cells, groups = plan_grid(config)
        assert [c.coords for c in cells] == sorted(c.coords for c in cells)
        errors = {(c.sigma, c.K, c.method): c.error for c in cells}
        # a kernel error is recorded before the cell's selection error
        assert all("sigma" in errors[(-1.0, k, m)] for k in (3, 5) for m in ("middle", "fcmx"))
        assert all("fcmx" in errors[(0.5, k, "fcmx")] for k in (3, 5))
        assert [(selection, [(n, cell.coords) for n, cell, _params in group])
                for _frontend, selection, group in groups] == [
            (MiddleFrames(3), [(5, ("rbf", "mfcc36", 10.0, 0.5, 3, "middle"))]),
            (MiddleFrames(5), [(7, ("rbf", "mfcc36", 10.0, 0.5, 5, "middle"))]),
        ]
        assert all(frontend == frontend_for("mfcc36") for frontend, _s, _g in groups)
        assert all(params.C == 10.0 and params.kernel == Rbf(0.5)
                   for _f, _s, group in groups for _n, _c, params in group)


class TestReports:
    def one_cell_report(self):
        cell = GridCell(
            kernel="rbf", feature="mfcc36", C=10.0, sigma=0.027, K=3, method="middle",
            frame_acc=51.6, phoneme_acc=52.123456789012345, train_s=1.5, test_s=0.25,
            n_train=100, n_test=40, skipped=2, converged_pairs="190/190",
        )
        return RunReport(cells=[cell], config_echo={"seed": 0}, seed=0)

    def test_csv_single_row(self):
        text = report_to_csv(self.one_cell_report())
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("kernel,feature,C,sigma,K,method,frame_acc")

    def test_csv_round_trip_exact(self):
        report = self.one_cell_report()
        rows = parse_report_csv(report_to_csv(report))
        assert rows[0]["phoneme_acc"] == report.cells[0].phoneme_acc
        assert rows[0]["sigma"] == 0.027
        assert rows[0]["n_test"] == 40
        # every GridCell field but confusion is a column, in field order, read back as its type
        cell = {k: v for k, v in vars(report.cells[0]).items() if k != "confusion"}
        assert list(rows[0]) == list(cell) and rows[0] == cell

    def test_markdown_pivot_shape(self, small_corpus):
        config = small_grid_config(
            small_corpus, kernels=("rbf", "polynomial", "sigmoid"),
            k_values=(3, 5), methods=("middle", "fcm"),
        )
        report = grid_search(config)
        text = report_to_markdown(report)
        lines = [l for l in text.splitlines() if l.startswith("|")]
        # two pivots: 3 kernel rows + header + separator each
        assert len(lines) == 2 * (3 + 2)
        header = lines[0]
        for col in ("K=3 fcm", "K=3 middle", "K=5 fcm", "K=5 middle"):
            assert col in header

    def test_markdown_pivot_marks_a_missing_cell(self):
        report = self.one_cell_report()
        report.cells.append(GridCell(kernel="polynomial", feature="mfcc36", C=10.0, sigma=2.0,
                                     K=5, method="middle", phoneme_acc=40.0))
        lines = report_to_markdown(report).splitlines()
        assert "| kernel | K=3 middle | K=5 middle |" in lines
        assert "| polynomial | - | 40.00 |" in lines
        assert "| rbf | 52.12 | - |" in lines

    def test_markdown_lists_failed_cells(self):
        report = self.one_cell_report()
        assert "Failed cells" not in report_to_markdown(report)
        report.cells.append(GridCell(kernel="rbf", feature="plp36", C=10.0, sigma=0.027, K=3,
                                     method="middle", error="order too high"))
        lines = report_to_markdown(report).splitlines()
        section = lines.index("## Failed cells")
        assert lines[section + 2] == "- ('rbf', 'plp36', 10.0, 0.027, 3, 'middle'): order too high"
        # the failed cell stays out of the pivots
        assert not any("plp36" in line for line in lines[:section])

    def test_json_round_trip(self):
        report = self.one_cell_report()
        clone = RunReport.from_dict(report.to_dict())
        assert clone.cells[0] == report.cells[0]
        assert clone.seed == report.seed

    def test_feature_cache_does_not_change_results(self, small_corpus):
        tokens = load_corpus_tokens(small_corpus)
        frontend = frontend_for("mfcc36")
        selection = selection_for("middle", 3)
        cached = extract_token_features(tokens, frontend)
        t1, s1, _ = build_dataset(tokens, frontend, selection, token_feats=cached)
        t2, s2, _ = build_dataset(tokens, frontend, selection)
        assert np.array_equal(t1.X, t2.X)
        assert np.array_equal(s1.X, s2.X)
