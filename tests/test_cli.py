import csv
import itertools
import json
import os
import re
import shlex
import shutil
import wave
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SYNTH_FORMANTS, make_corpus, synth_token, write_wav
from test_corpus import FUZZ, sphere_bytes
from test_multiclass import MALFORMED, write_malformed
from vowelkit import cli, experiment, frontend
from vowelkit.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, UsageError, run_cli
from vowelkit.corpus import load_corpus_tokens
from vowelkit.errors import DegenerateSpectrum, TooShort, VowelkitError
from vowelkit.experiment import (
    ExperimentConfig,
    GridCell,
    extract_token_features,
    frontend_for,
    grid_search,
    parse_report_csv,
    select_tokens,
    selection_for,
    vote_tokens,
)
from vowelkit.frame_select import select_frames
from vowelkit.frontend import FrontendConfig
from vowelkit.kernels import make_kernel
from vowelkit.multiclass import load_model, predict_phoneme, save_model
from vowelkit.preprocessing import apply_scaler
from vowelkit.svm import SvmParams


@pytest.fixture(scope="module")
def trained_model(small_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "m.svmodel"
    code = run_cli([
        "train", "--corpus", str(small_corpus), "--out", str(out),
        "--kernel", "rbf", "--sigma", "0.5", "--C", "10",
        "--frames", "middle:3", "--feature", "mfcc36",
    ])
    assert code == EXIT_OK
    return out


def _readme_commands():
    """Every `vowelkit …` line of README's sh blocks, backslash continuations joined."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("vowelkit ")]


class TestUsage:
    def test_readme_examples_parse(self):
        commands = _readme_commands()
        assert len(commands) == 5
        for argv in commands:
            cli.build_parser().parse_args(argv)

    def test_unknown_flag(self, capsys):
        assert run_cli(["train", "--nope"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand(self):
        assert run_cli([]) == EXIT_USAGE

    def test_bad_frames_spec(self, small_corpus, tmp_path):
        code = run_cli([
            "train", "--corpus", str(small_corpus),
            "--out", str(tmp_path / "m.svmodel"), "--frames", "middle-3",
        ])
        assert code == EXIT_USAGE

    def test_grid_needs_corpus(self, tmp_path):
        assert run_cli(["grid", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_unknown_feature(self, small_corpus, tmp_path):
        code = run_cli([
            "train", "--corpus", str(small_corpus),
            "--out", str(tmp_path / "m.svmodel"), "--feature", "mfcc99",
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "m.svmodel").exists()


class TestTrain:
    def test_echoes_config(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "m.svmodel"
        code = run_cli([
            "train", "--corpus", str(small_corpus), "--out", str(out),
            "--kernel", "rbf", "--sigma", "0.027", "--C", "10",
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "# config" in captured
        assert "# sigma = 0.027" in captured
        assert "# seed = 0" in captured
        assert out.exists()

    @pytest.mark.parametrize("flags", [["--C", "nan"], ["--C", "inf"], ["--sigma", "nan"],
                                       ["--kernel", "linear", "--sigma", "nan"]])
    def test_non_finite_parameter_exits_2_without_model(self, small_corpus, tmp_path, capsys,
                                                        flags):
        out = tmp_path / "m.svmodel"
        code = run_cli(["train", "--corpus", str(small_corpus), "--out", str(out)] + flags)
        assert code == EXIT_DATA
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--C", "--sigma"])
    def test_non_finite_parameter_is_refused_before_audio_is_read(self, tmp_path, capsys, flag):
        code = run_cli(["train", "--corpus", str(tmp_path / "missing"),
                        "--out", str(tmp_path / "m.svmodel"), flag, "nan"])
        assert code == EXIT_DATA
        assert "must be finite" in capsys.readouterr().err

    def test_no_training_tokens_exits_2_without_model(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "m.svmodel"
        code = run_cli(["train", "--corpus", str(small_corpus), "--out", str(out),
                        "--phonemes", "eh"])
        assert code == EXIT_DATA
        assert "no training tokens under" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_fcm_seed_exits_2_without_model(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "m.svmodel"
        code = run_cli(["train", "--corpus", str(small_corpus), "--out", str(out),
                        "--frames", "fcm:3", "--seed", "-1"])
        assert code == EXIT_DATA
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # outside pytest numpy only warns
    def test_non_finite_model_exits_2_without_model(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "m.svmodel"
        code = run_cli(["train", "--corpus", str(small_corpus), "--out", str(out),
                        "--kernel", "polynomial", "--sigma", "1e200"])
        assert code == EXIT_DATA
        assert "non-finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_psd_check_flag(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "m.svmodel"
        code = run_cli([
            "train", "--corpus", str(small_corpus), "--out", str(out), "--psd-check",
        ])
        assert code == EXIT_OK
        assert "minimum eigenvalue" in capsys.readouterr().out


class TestPredict:
    def test_output_format(self, trained_model, small_corpus, capsys):
        wav = sorted(
            os.path.join(dp, f)
            for dp, _dn, fn in os.walk(os.path.join(small_corpus, "test"))
            for f in fn if f.endswith(".wav")
        )[0]
        phn = wav[:-4] + ".phn"
        code = run_cli([
            "predict", "--model", str(trained_model), "--audio", wav, "--phn", phn,
        ])
        assert code == EXIT_OK
        lines = [
            l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")
        ]
        assert len(lines) == 1
        fields = lines[0].split()
        assert len(fields) == 5
        assert fields[1] == "0" and fields[2] == "1024"
        assert fields[3] in ("aa", "iy", "uw")
        assert fields[4] in ("aa", "iy", "uw")

    def test_config_mismatch_rejected(self, trained_model, small_corpus, capsys):
        wav = sorted(
            os.path.join(dp, f)
            for dp, _dn, fn in os.walk(os.path.join(small_corpus, "test"))
            for f in fn if f.endswith(".wav")
        )[0]
        phn = wav[:-4] + ".phn"
        code = run_cli([
            "predict", "--model", str(trained_model), "--audio", wav, "--phn", phn,
            "--frames", "middle:5",
        ])
        assert code == EXIT_DATA


@pytest.fixture(scope="module")
def utterance(tmp_path_factory):
    """One WAV holding nine tokens of three classes and a token too short to frame."""
    rng = np.random.default_rng(30)
    labels = ["aa", "iy", "uw"] * 3
    pieces = [synth_token(rng, *SYNTH_FORMANTS[label], noise=0.5, jitter=0.1)
              for label in labels]
    base = tmp_path_factory.mktemp("utterance") / "utt"
    write_wav(str(base) + ".wav", np.concatenate(pieces + [np.zeros(100)]))
    spans = [(n * 1024, (n + 1) * 1024, label) for n, label in enumerate(labels)]
    spans.append((9 * 1024, 9 * 1024 + 100, "aa"))
    with open(str(base) + ".phn", "w") as fh:
        fh.writelines(f"{b} {e} {label}\n" for b, e, label in spans)
    return str(base) + ".wav", str(base) + ".phn", spans


def _token_lines(out):
    return [l for l in out.splitlines() if l and not l.startswith("#")]


class TestPredictUtterance:
    def test_one_batch_matches_per_token_predict(self, trained_model, utterance, capsys,
                                                 monkeypatch):
        wav, phn, spans = utterance
        calls = []
        batch = experiment.predict_ovo_batch

        def counting(model, X):
            calls.append(X.shape[0])
            return batch(model, X)

        monkeypatch.setattr(experiment, "predict_ovo_batch", counting)
        assert run_cli(["predict", "--model", str(trained_model), "--audio", wav,
                        "--phn", phn]) == EXIT_OK
        assert calls == [27]  # nine tokens of three frames; the short token is skipped
        model = load_model(trained_model)
        signal = cli.load_audio(wav)
        expected = []
        for begin, end, label in spans:
            piece = frontend.RawSignal(signal.samples[begin:end], signal.sample_rate)
            try:
                feats = frontend.extract_features(piece, frontend_for("mfcc36"))
            except TooShort:
                expected.append(f"utt {begin} {end} {label} -")
                continue
            picked = apply_scaler(model.scaler, select_frames(feats, selection_for("middle", 3)))
            pred = model.label_names[predict_phoneme(model, picked)]
            expected.append(f"utt {begin} {end} {label} {pred}")
        assert _token_lines(capsys.readouterr().out) == expected

    def test_degenerate_token_prints_dash(self, trained_model, utterance, capsys, monkeypatch):
        wav, phn, spans = utterance
        extract = experiment.extract_features_many
        seen = []

        def failing_on_third(signals, config):
            seen.append(len(signals))
            out = extract(signals, config)
            out[2] = DegenerateSpectrum("non-positive prediction-error variance")
            return out

        argv = ["predict", "--model", str(trained_model), "--audio", wav, "--phn", phn]
        assert run_cli(argv) == EXIT_OK
        normal = _token_lines(capsys.readouterr().out)
        monkeypatch.setattr(experiment, "extract_features_many", failing_on_third)
        assert run_cli(argv) == EXIT_OK
        assert seen == [len(spans)]  # one front-end call for every token
        lines = _token_lines(capsys.readouterr().out)
        begin, end, label = spans[2]
        assert lines[2] == f"utt {begin} {end} {label} -"
        assert lines[:2] + lines[3:] == normal[:2] + normal[3:]

    def test_raw_pcm_matches_wav(self, trained_model, utterance, tmp_path, capsys):
        # raw PCM has no header, so only the signal loaded with --sample-rate can be
        # read; extract_token_features must use it rather than reload the file
        wav, phn, _spans = utterance
        with wave.open(wav, "rb") as wf:
            pcm = tmp_path / "utt.pcm"
            pcm.write_bytes(wf.readframes(wf.getnframes()))
        assert run_cli(["predict", "--model", str(trained_model), "--audio", wav,
                        "--phn", phn]) == EXIT_OK
        from_wav = _token_lines(capsys.readouterr().out)
        assert run_cli(["predict", "--model", str(trained_model), "--audio", str(pcm),
                        "--phn", phn, "--sample-rate", "16000"]) == EXIT_OK
        assert _token_lines(capsys.readouterr().out) == from_wav

    def test_only_skipped_tokens(self, trained_model, utterance, tmp_path, capsys):
        wav, _phn, spans = utterance
        begin, end, label = spans[-1]  # too short for one frame
        phn = tmp_path / "utt.phn"
        phn.write_text(f"{begin} {end} {label}\n")
        assert run_cli(["predict", "--model", str(trained_model), "--audio", wav,
                        "--phn", str(phn)]) == EXIT_OK
        assert _token_lines(capsys.readouterr().out) == [f"utt {begin} {end} {label} -"]

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_model_is_a_data_error(self, trained_model, utterance, tmp_path, capsys,
                                             name):
        wav, phn, _spans = utterance
        bad = write_malformed(trained_model, tmp_path / "bad.svmodel", name)
        assert run_cli(["predict", "--model", str(bad), "--audio", wav,
                        "--phn", phn]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("data error")
        assert _token_lines(captured.out) == []


class TestEvaluate:
    def test_metrics_printed(self, trained_model, small_corpus, capsys):
        code = run_cli([
            "evaluate", "--model", str(trained_model), "--corpus", str(small_corpus),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "frame_accuracy:" in out
        assert "phoneme_accuracy:" in out

    def test_uses_model_scaler_not_train_split(self, tmp_path, capsys):
        # noisy enough that a scaler refit on one training token per class
        # would cost accuracy
        formants = {k: SYNTH_FORMANTS[k] for k in ("aa", "iy", "uw")}
        full = make_corpus(tmp_path / "full", formants=formants, tokens_per_class=24,
                           train_frac=0.75, noise=0.5, jitter=0.05, seed=3)
        cut = tmp_path / "cut"
        shutil.copytree(os.path.join(full, "test"), cut / "test")
        for label in formants:
            os.makedirs(cut / "train" / label)
            for ext in (".wav", ".phn"):
                shutil.copy(os.path.join(full, "train", label, "utt000" + ext),
                            cut / "train" / label)
        model = tmp_path / "m.svmodel"
        assert run_cli(["train", "--corpus", full, "--out", str(model),
                        "--kernel", "rbf", "--sigma", "0.5", "--C", "10"]) == EXIT_OK

        def accuracies(corpus):
            capsys.readouterr()
            assert run_cli(["evaluate", "--model", str(model),
                            "--corpus", str(corpus)]) == EXIT_OK
            return [l for l in capsys.readouterr().out.splitlines()
                    if l.startswith(("frame_accuracy:", "phoneme_accuracy:", "n_test_tokens:"))]

        assert accuracies(cut) == accuracies(full)

    def test_model_without_scaler_is_applied_unscaled(self, trained_model, small_corpus,
                                                      tmp_path, capsys):
        model = replace(load_model(trained_model), scaler=None)
        save_model(model, tmp_path / "unscaled.svmodel")
        assert "scaler none" in (tmp_path / "unscaled.svmodel").read_text().splitlines()
        capsys.readouterr()
        assert run_cli(["evaluate", "--model", str(tmp_path / "unscaled.svmodel"),
                        "--corpus", str(small_corpus)]) == EXIT_OK
        tokens = load_corpus_tokens(small_corpus, splits=("test",))
        frontend = frontend_for("mfcc36")
        kept, x, spans = select_tokens(extract_token_features(tokens, frontend),
                                       selection_for("middle", 3), frontend.dim)
        _frames, votes = vote_tokens(model, x, spans)
        labels = np.array([model.label_names.index(t.label) for t in kept])
        expected = 100.0 * np.mean(votes == labels)
        assert f"phoneme_accuracy: {expected:.2f}" in capsys.readouterr().out.splitlines()

    def test_needs_no_train_split(self, trained_model, small_corpus, tmp_path):
        shutil.copytree(os.path.join(small_corpus, "test"), tmp_path / "test")
        code = run_cli(["evaluate", "--model", str(trained_model), "--corpus", str(tmp_path)])
        assert code == EXIT_OK

    def test_test_vowel_without_a_class_exits_2(self, tmp_path, capsys):
        formants = {k: SYNTH_FORMANTS[k] for k in ("aa", "eh", "iy", "uw")}
        corpus = make_corpus(tmp_path / "corpus", formants=formants, tokens_per_class=8,
                             noise=0.1, jitter=0.05, seed=4)
        model = tmp_path / "m.svmodel"
        assert run_cli(["train", "--corpus", corpus, "--out", str(model),
                        "--phonemes", "aa iy uw"]) == EXIT_OK
        for phonemes in ([], ["--phonemes", "aa iy uw eh"]):
            capsys.readouterr()
            assert run_cli(["evaluate", "--model", str(model), "--corpus", corpus,
                            *phonemes]) == EXIT_DATA
            captured = capsys.readouterr()
            assert captured.err.startswith("data error") and "eh" in captured.err
            assert "phoneme_accuracy" not in captured.out
        assert run_cli(["evaluate", "--model", str(model), "--corpus", corpus,
                        "--phonemes", "aa iy uw"]) == EXIT_OK

    def test_config_mismatch_rejected(self, trained_model, small_corpus, capsys):
        code = run_cli(["evaluate", "--model", str(trained_model), "--corpus", str(small_corpus),
                        "--frames", "middle:5"])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert "different frontend/selection configuration" in captured.err
        assert "phoneme_accuracy" not in captured.out

    def test_config_mismatch_rejected_before_audio_is_read(self, trained_model, tmp_path,
                                                           capsys):
        code = run_cli(["evaluate", "--model", str(trained_model), "--corpus", str(tmp_path),
                        "--frames", "middle:5"])  # tmp_path has no test/ split
        assert code == EXIT_DATA
        assert "different frontend/selection configuration" in capsys.readouterr().err

    def test_only_tokens_shorter_than_a_frame_exits_2(self, trained_model, tmp_path, capsys):
        os.makedirs(tmp_path / "test" / "aa")
        write_wav(tmp_path / "test" / "aa" / "u.wav", np.zeros(400))
        (tmp_path / "test" / "aa" / "u.phn").write_text("0 100 aa\n")
        code = run_cli(["evaluate", "--model", str(trained_model), "--corpus", str(tmp_path)])
        assert code == EXIT_DATA
        assert "test set is empty" in capsys.readouterr().err


class TestNonFiniteDecisionValues:
    @pytest.fixture(scope="class")
    def overflowing_model(self, small_corpus, tmp_path_factory):
        """A polynomial model whose degree, edited from 3 to 400, overflows its kernel."""
        out = tmp_path_factory.mktemp("overflow") / "m.svmodel"
        assert run_cli(["train", "--corpus", str(small_corpus), "--out", str(out),
                        "--kernel", "polynomial", "--sigma", "2"]) == EXIT_OK
        text = out.read_text()
        assert text.count(" d=3 ") == 1
        out.write_text(text.replace(" d=3 ", " d=400 "))
        return out

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_exits_2(self, overflowing_model, small_corpus, utterance, capsys, command):
        wav, phn, _spans = utterance
        inputs = {"evaluate": ["--corpus", str(small_corpus)],
                  "predict": ["--audio", wav, "--phn", phn]}[command]
        assert run_cli([command, "--model", str(overflowing_model)] + inputs) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: non-finite decision values")
        assert _token_lines(captured.out) == []  # no accuracy and no token label


class TestExitCodes:
    @pytest.mark.parametrize("error", VowelkitError.__subclasses__(), ids=lambda e: e.__name__)
    def test_every_toolkit_error_is_a_data_error(self, tmp_path, monkeypatch, capsys, error):
        def fail(args):
            raise error("raised by the command")

        monkeypatch.setitem(cli._COMMANDS, "report", fail)
        code = run_cli(["report", "--infile", str(tmp_path / "r.json"), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert "data error: raised by the command" in capsys.readouterr().err

    def test_other_exceptions_are_internal_errors(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "report", lambda args: 1 / 0)
        code = run_cli(["report", "--infile", str(tmp_path / "r.json"), "--out", str(tmp_path)])
        assert code == cli.EXIT_INTERNAL


class TestGridAndReport:
    def test_grid_writes_reports(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "results"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[experiment]\nseed = 1\nworkers = 2\n"
            f"phonemes = aa iy uw\n"
            "[grid]\nkernels = rbf\nfeatures = mfcc36\nc = 10\nsigma = 0.5\n"
            "k = 3\nmethods = middle\n"
        )
        code = run_cli([
            "grid", "--config", str(cfg), "--corpus", str(small_corpus),
            "--out", str(out), "--save-best",
        ])
        assert code == EXIT_OK
        assert (out / "report.csv").exists()
        assert (out / "report.md").exists()
        assert (out / "report.json").exists()
        assert (out / "best.svmodel").exists()
        assert "# seed = 1" in capsys.readouterr().out

    def test_frontend_section_model_is_refused_by_evaluate_and_predict(
            self, small_corpus, utterance, tmp_path, capsys):
        # evaluate and predict build the default front end, so a saved model whose grid
        # set a [frontend] value has another fingerprint
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[experiment]\nphonemes = aa iy uw\n[frontend]\nhop = 64\n"
                       "[grid]\nkernels = rbf\nfeatures = mfcc36\nc = 10\nsigma = 0.5\n")
        out = tmp_path / "out"
        assert run_cli(["grid", "--config", str(cfg), "--corpus", str(small_corpus),
                        "--out", str(out), "--save-best"]) == EXIT_OK
        wav, phn, _spans = utterance
        for command, inputs in (("evaluate", ["--corpus", str(small_corpus)]),
                                ("predict", ["--audio", wav, "--phn", phn])):
            capsys.readouterr()
            assert run_cli([command, "--model", str(out / "best.svmodel")] + inputs) == EXIT_DATA
            captured = capsys.readouterr()
            assert "different frontend/selection configuration" in captured.err
            assert _token_lines(captured.out) == []

    def test_no_usable_tokens_exits_2(self, small_corpus, tmp_path, capsys):
        cfg = tmp_path / "eh.cfg"
        cfg.write_text("[experiment]\nphonemes = eh\n[grid]\nkernels = rbf\nfeatures = mfcc36\n"
                       "c = 10\nsigma = 0.5\nk = 3\nmethods = middle\n")
        code = run_cli(["grid", "--config", str(cfg), "--corpus", str(small_corpus),
                        "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "no usable tokens under" in capsys.readouterr().err

    def test_truncated_wav_fails_every_cell_with_exit_2(self, small_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        (corpus / "train" / "aa" / "utt000.wav").write_bytes(b"RIFF")
        out = tmp_path / "out"
        code = run_cli(["grid", "--config", _mini_cfg(tmp_path), "--corpus", str(corpus),
                        "--out", str(out)])
        assert code == EXIT_DATA
        assert "truncated or malformed WAV header" in capsys.readouterr().err
        cells = json.loads((out / "report.json").read_text())["cells"]
        assert cells and all("utt000.wav" in cell["error"] for cell in cells)

    def test_seed_flag_overrides_the_config_file(self, small_corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[experiment]\nseed = 1\nphonemes = aa iy uw\n"
                       "[grid]\nkernels = rbf\nfeatures = mfcc36\nc = 10\nsigma = 0.5\n"
                       "methods = fcm\n")
        assert run_cli(["grid", "--config", str(cfg), "--corpus", str(small_corpus),
                        "--out", str(tmp_path / "out"), "--seed", "5"]) == EXIT_OK
        assert "# seed = 5" in capsys.readouterr().out.splitlines()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seed"] == 5 and report["config"]["seed"] == 5

    def test_negative_seed_flag_is_checked_with_the_config_file(self, small_corpus, tmp_path,
                                                               capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[experiment]\nphonemes = aa iy uw\n"
                       "[grid]\nkernels = rbf\nfeatures = mfcc36\nc = 10\nsigma = 0.5\n"
                       "methods = fcm\n")
        out = tmp_path / "out"
        assert run_cli(["grid", "--config", str(cfg), "--corpus", str(small_corpus),
                        "--out", str(out), "--seed", "-1"]) == EXIT_USAGE
        assert "malformed config file" in capsys.readouterr().err
        assert not out.exists()

    def test_report_rerender(self, small_corpus, tmp_path):
        out = tmp_path / "results"
        code = run_cli([
            "grid", "--corpus", str(small_corpus), "--out", str(out),
            "--config", _mini_cfg(tmp_path),
        ])
        assert code == EXIT_OK
        rerender = tmp_path / "rerender"
        code = run_cli([
            "report", "--infile", str(out / "report.json"),
            "--out", str(rerender), "--format", "csv",
        ])
        assert code == EXIT_OK
        original = (out / "report.csv").read_text()
        again = (rerender / "report.csv").read_text()
        assert original == again

    def test_report_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli([
            "report", "--infile", str(bad), "--out", str(tmp_path), "--format", "csv",
        ])
        assert code == EXIT_DATA

    def test_report_too_deeply_nested_json(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)  # deeper than the JSON decoder recurses
        code = run_cli([
            "report", "--infile", str(deep), "--out", str(tmp_path), "--format", "csv",
        ])
        assert code == EXIT_DATA
        assert "cannot parse report" in capsys.readouterr().err

    @pytest.mark.parametrize("features, code", [("mfcc36 plp36", EXIT_OK), ("plp36", EXIT_DATA)])
    def test_too_high_lp_order_fails_only_the_plp_cells(self, small_corpus, tmp_path, capsys,
                                                         features, code):
        # 16 kHz audio has 20 critical bands, so a PLP order of 20 fails in the front end
        cfg = tmp_path / "plp.cfg"
        cfg.write_text("[experiment]\nphonemes = aa iy uw\n"
                       f"[grid]\nkernels = rbf\nfeatures = {features}\nc = 10\nsigma = 0.5\n"
                       "k = 3\nmethods = middle\n[frontend]\nlp_order = 20\n")
        out = tmp_path / "out"
        assert run_cli(["grid", "--config", str(cfg), "--corpus", str(small_corpus),
                        "--out", str(out)]) == code
        rows = parse_report_csv((out / "report.csv").read_text())
        errors = {row["feature"]: row["error"] for row in rows}
        assert errors.pop("plp36") == "autocorrelation order must be < number of bands"
        assert errors == ({"mfcc36": ""} if code == EXIT_OK else {})
        assert (out / "report.md").exists() and (out / "report.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("data error: no grid cell ran") == (code == EXIT_DATA)


@pytest.fixture(scope="module")
def grid_report(small_corpus, tmp_path_factory):
    """A one-cell grid's report.json, as a dict."""
    out = tmp_path_factory.mktemp("grid")
    assert run_cli(["grid", "--corpus", str(small_corpus), "--out", str(out),
                    "--config", _mini_cfg(out)]) == EXIT_OK
    return json.loads((out / "report.json").read_text())


def _rerender(report, tmp_path):
    """Exit codes of `vowelkit report` on report in both formats."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report))
    return [run_cli(["report", "--infile", str(path), "--out", str(tmp_path / fmt),
                     "--format", fmt]) for fmt in ("csv", "markdown")]


# JSON values of every type, nested a little; 10**400 overflows a float
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5)


class TestReportCellTypes:
    @pytest.mark.parametrize("name, value, code", [
        ("C", "x", EXIT_DATA), ("K", None, EXIT_DATA), ("kernel", 1, EXIT_DATA),
        ("phoneme_acc", "x", EXIT_DATA), ("frame_acc", True, EXIT_DATA),
        pytest.param("C", 10**400, EXIT_DATA, id="C-int too large for a float"),
        ("confusion", {}, EXIT_DATA), ("K", 3.0, EXIT_DATA),
        ("C", 10, EXIT_OK), ("confusion", None, EXIT_OK), ("error", "failed", EXIT_OK),
    ])
    def test_wrong_type_is_a_data_error(self, grid_report, tmp_path, capsys, name, value,
                                        code):
        report = json.loads(json.dumps(grid_report))
        report["cells"][0][name] = value
        assert _rerender(report, tmp_path) == [code, code]
        err = capsys.readouterr().err
        assert (f"data error: report cell field {name} has a bad" in err) == (code == EXIT_DATA)
        if code == EXIT_OK and name == "C":  # an int is read as a float
            assert (tmp_path / "csv" / "report.csv").read_text().splitlines()[1].startswith(
                "rbf,mfcc36,10.0,0.5,3,middle,")

    @FUZZ
    @given(name=st.sampled_from([f.name for f in fields(GridCell)]), value=JSON_VALUES)
    def test_fuzzed_cell_field_exits_0_or_2(self, grid_report, tmp_path, name, value):
        report = json.loads(json.dumps(grid_report))
        report["cells"][0][name] = value
        assert set(_rerender(report, tmp_path)) <= {EXIT_OK, EXIT_DATA}


def _mini_cfg(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(
        "[experiment]\nseed = 0\nworkers = 1\nphonemes = aa iy uw\n"
        "[grid]\nkernels = rbf\nfeatures = mfcc36\nc = 10\nsigma = 0.5\n"
        "k = 3\nmethods = middle\n"
    )
    return str(cfg)


def _report_without_timings(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    timing = {rows[0].index("train_s"), rows[0].index("test_s")}
    return [[v for n, v in enumerate(row) if n not in timing] for row in rows]


class TestWorkersIgnored:
    def test_same_report_with_any_worker_setting(self, small_corpus, tmp_path):
        grid = ("[grid]\nkernels = rbf polynomial\nfeatures = mfcc36\nc = 100 10\n"
                "sigma = 0.5\nk = 3\nmethods = middle\n")
        plain = tmp_path / "plain.cfg"
        plain.write_text("[experiment]\nphonemes = aa iy uw\n" + grid)
        keyed = tmp_path / "keyed.cfg"
        keyed.write_text("[experiment]\nphonemes = aa iy uw\nworkers = x\n" + grid)
        reports = []
        for cfg, workers in ((plain, "1"), (plain, "2"), (keyed, "2")):
            out = tmp_path / f"{cfg.stem}{workers}"
            code = run_cli(["grid", "--config", str(cfg), "--corpus", str(small_corpus),
                            "--out", str(out), "--workers", workers, "--save-best"])
            assert code == EXIT_OK
            reports.append((_report_without_timings(out / "report.csv"),
                            (out / "best.svmodel").read_bytes()))
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]
        assert [row[:3] for row in reports[0][0][1:]] == [
            ["polynomial", "mfcc36", "10.0"], ["polynomial", "mfcc36", "100.0"],
            ["rbf", "mfcc36", "10.0"], ["rbf", "mfcc36", "100.0"],
        ]


MALFORMED_CONFIGS = {
    "seed": b"[experiment]\nseed = abc\n",
    "c": b"[grid]\nc = ten\n",
    "non-finite c": b"[grid]\nc = 10 nan\n",
    "non-finite sigma": b"[grid]\nsigma = inf\n",
    "k": b"[grid]\nk = 1.5\n",
    "sigma": b"[grid]\nsigma = wide\n",
    "hop": b"[frontend]\nhop = x\n",
    "pre_emphasis": b"[frontend]\npre_emphasis = high\n",
    "kkt_tol": b"[svm]\nkkt_tol = small\n",
    "non-finite kkt_tol": b"[svm]\nkkt_tol = nan\n",
    "max_iter": b"[svm]\nmax_iter = 1e3\n",
    "negative max_iter": b"[svm]\nmax_iter = -5\n",
    "negative fcm seed": b"[experiment]\nseed = -1\n[grid]\nmethods = fcm\n",
    "unknown method": b"[grid]\nmethods = middle fcmx\n",
    "zero k": b"[grid]\nk = 0\n",
    "unknown feature": b"[grid]\nfeatures = mfcc99\n",
    "zero hop": b"[frontend]\nhop = 0\n",
    "empty c list": b"[grid]\nc =\n",
    "empty phonemes": b"[experiment]\nphonemes =\n",
    "frame_len not a power of two": b"[frontend]\nframe_len = 200\nhop = 100\n",
    "no section header": b"seed = 1\n",
    "duplicate section": b"[grid]\nc = 10\n[grid]\n",
    "interpolation": b"[experiment]\ncorpus_root = /data/100%\n",
    "not utf-8": b"[experiment]\nphonemes = \xe6\n",
}


class TestMalformedConfig:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_exits_with_usage_error(self, case, small_corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(MALFORMED_CONFIGS[case])
        code = run_cli(["grid", "--config", str(cfg), "--corpus", str(small_corpus),
                        "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "malformed config file" in capsys.readouterr().err

    def test_names_the_first_failed_cell(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        # in sorted order the first cell has sigma -1 and method fcmx: its kernel error wins
        cfg.write_text("[grid]\nkernels = rbf\nsigma = 0.5 -1\nmethods = middle fcmx\n")
        with pytest.raises(UsageError, match="malformed config file .*RBF sigma must be > 0"):
            cli._load_config_file(str(cfg))
        cfg.write_text("[grid]\nkernels = rbf\nsigma = 0.5\nmethods = middle fcmx\n")
        with pytest.raises(UsageError, match="malformed config file .*'fcmx'"):
            cli._load_config_file(str(cfg))

    def test_unreadable_file(self, tmp_path):
        code = run_cli(["grid", "--config", str(tmp_path / "missing.cfg"),
                        "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE

    @FUZZ
    @given(st.one_of(
        st.binary(max_size=120),
        st.lists(st.tuples(
            st.sampled_from(["experiment", "frontend", "grid", "svm", "other"]),
            st.sampled_from(["corpus_root", "phonemes", "seed", "workers", "pre_emphasis",
                             "frame_len", "hop", "num_ceps", "num_mel_filters", "lp_order",
                             "kernels", "features", "c", "sigma", "k", "methods",
                             "kkt_tol", "max_iter"]),
            st.text(max_size=12),
        ), max_size=8).map(lambda entries: "".join(
            f"[{section}]\n{key} = {value}\n" for section, key, value in entries).encode()),
    ))
    def test_fuzzed_file_raises_only_usage_or_toolkit_errors(self, tmp_path, raw):
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_bytes(raw)
        try:
            cli._load_config_file(str(cfg))
        except (UsageError, VowelkitError):
            pass


class TestBenchmarkConfig:
    def test_every_setting_builds(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark.cfg")
        config = ExperimentConfig(**dict(cli._load_config_file(path), corpus_root="corpus"))
        # the grid README describes: 3 kernels, 2 features, 4 C, 2 sigma, 3 K, 2 methods
        assert [len(v) for v in (config.kernels, config.features, config.c_values,
                                 config.sigmas, config.k_values, config.methods)] == [
            3, 2, 4, 2, 3, 2]
        for kind, sigma, c in itertools.product(config.kernels, config.sigmas, config.c_values):
            SvmParams(C=c, kernel=make_kernel(kind, sigma), kkt_tol=config.kkt_tol,
                      max_iter=config.max_iter)
        for feature in config.features:
            frontend_for(feature, config.frontend)
        for method, k in itertools.product(config.methods, config.k_values):
            selection_for(method, k, seed=config.seed)


class TestDerivedConfigReaders:
    def test_frontend_section_and_echo(self, small_corpus, tmp_path):
        frontend = FrontendConfig(pre_emphasis=0.9, frame_len=128, hop=64, num_ceps=10,
                                  num_mel_filters=24, lp_order=11)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[experiment]\nphonemes = aa iy uw\n"
            "[frontend]\npre_emphasis = 0.9\nframe_len = 128\nhop = 64\nnum_ceps = 10\n"
            "num_mel_filters = 24\nlp_order = 11\n"
            "[grid]\nkernels = rbf\nfeatures = mfcc36\nc = 10\nsigma = 0.5\n"
        )
        config = ExperimentConfig(**dict(cli._load_config_file(str(cfg)),
                                         corpus_root=small_corpus))
        assert config.frontend == frontend
        report = grid_search(config)
        assert not report.cells[0].error
        echo = report.config_echo
        assert set(echo) == {f.name for f in fields(ExperimentConfig)} - {"workers"}
        for f in fields(ExperimentConfig):
            value = getattr(config, f.name)
            if isinstance(value, tuple):
                assert echo[f.name] == list(value)
        assert echo["frontend"] == vars(frontend)
        assert json.loads(json.dumps(report.to_dict()))["config"] == echo


class TestOutsideFileErrors:
    def test_sphere_with_non_integer_field_exits_2(self, trained_model, tmp_path):
        audio = tmp_path / "u.sph"
        audio.write_bytes(b"NIST_1A\n   1024\nsample_rate -i 16000\nchannel_count -i one\n"
                          b"end_head\n".ljust(1024, b" ") + bytes(2048))
        phn = tmp_path / "u.phn"
        phn.write_text("0 1024 aa\n")
        code = run_cli(["predict", "--model", str(trained_model), "--audio", str(audio),
                        "--phn", str(phn)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("name, message", [
        ("8-bit.wav", "only 16-bit PCM"), ("junk.wav", "not a WAVE file"),
        ("truncated.wav", "truncated or malformed WAV header"),
        ("chunk-past-riff.wav", "truncated or malformed WAV header"),
        ("8-bit.sph", "only 16-bit SPHERE")])
    def test_unsupported_audio_exits_2(self, trained_model, tmp_path, capsys, name, message):
        audio = tmp_path / name
        if name == "8-bit.wav":
            with wave.open(str(audio), "wb") as wf:
                wf.setnchannels(1)
                wf.setsampwidth(1)
                wf.setframerate(16000)
                wf.writeframes(bytes(2048))
        elif name == "junk.wav":
            audio.write_bytes(b"RIFFjunk")
        elif name == "truncated.wav":
            audio.write_bytes(b"RIFF")
        elif name == "chunk-past-riff.wav":  # a 1000-byte chunk inside a 16-byte RIFF chunk
            audio.write_bytes(b"RIFF\x10\x00\x00\x00WAVEjunk\xe8\x03\x00\x00" + bytes(4))
        else:
            audio.write_bytes(sphere_bytes(np.zeros(2048)).replace(b"sample_n_bytes -i 2",
                                                                    b"sample_n_bytes -i 1"))
        phn = tmp_path / "u.phn"
        phn.write_text("0 1024 aa\n")
        assert run_cli(["predict", "--model", str(trained_model), "--audio", str(audio),
                        "--phn", str(phn)]) == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_phn_not_utf8_exits_2(self, trained_model, utterance, tmp_path):
        wav, _phn, _spans = utterance
        phn = tmp_path / "u.phn"
        phn.write_bytes(b"0 1024 aa\n1024 2048 \xe6\n")
        code = run_cli(["predict", "--model", str(trained_model), "--audio", wav,
                        "--phn", str(phn)])
        assert code == EXIT_DATA

    def test_mixed_case_phn_corpus_trains(self, small_corpus, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        for dirpath, _dirs, files in os.walk(corpus):
            for name in files:
                if name.endswith(".phn"):
                    os.rename(os.path.join(dirpath, name),
                              os.path.join(dirpath, name[:-4] + ".Phn"))
        code = run_cli(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.svmodel"),
                        "--kernel", "rbf", "--sigma", "0.5"])
        assert code == EXIT_OK
