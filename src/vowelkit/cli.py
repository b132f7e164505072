"""Command-line entry point: train, predict, evaluate, grid, report."""

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import fields

from .corpus import VOWELS, load_audio, load_corpus_tokens, load_phn
from .errors import FormatError, InvalidInput, TooShort
from .experiment import (
    FEATURE_KINDS,
    METHOD_NAMES,
    REPORT_FILES,
    ExperimentConfig,
    RunReport,
    build_dataset,
    check_fingerprint,
    config_fingerprint,
    emit_report,
    evaluate,
    extract_token_features,
    frontend_for,
    grid_search,
    plan_grid,
    select_tokens,
    selection_for,
    vote_tokens,
)
from .frontend import FrontendConfig
from .kernels import KERNEL_KINDS, gram_matrix, make_kernel, psd_check
from .multiclass import load_model, save_model, train_ovo
from .preprocessing import apply_scaler
from .svm import SvmParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_frames(spec: str):
    """"middle:3" or "fcm:5" -> (method name, K)."""
    method, _, count = spec.partition(":")
    if method not in METHOD_NAMES or not count.isdigit() or int(count) < 1:
        raise UsageError(f"bad --frames value {spec!r}; expected middle:K or fcm:K")
    return method, int(count)


def _split_list(raw, convert=str):
    return tuple(convert(v) for v in raw.replace(",", " ").split())


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _load_config_file(path, **overrides) -> dict:
    """Grid settings from an INI file; an unreadable or malformed file is a usage error.

    So is a failed plan_grid cell once the overrides are applied, found before any audio is read.
    """
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise UsageError(f"cannot read config file {path}")
        values = {**_config_values(parser), **overrides}
        cells, _groups = plan_grid(ExperimentConfig(**{"corpus_root": None, **values}))
        failed = [cell.error for cell in cells if cell.error]
        if failed:
            raise InvalidInput(failed[0])
        return values
    except (configparser.Error, ValueError, InvalidInput) as exc:  # incl. UnicodeDecodeError
        raise UsageError(f"malformed config file {path}: {exc}") from exc


# (section, key) -> ExperimentConfig field and value parser; lists split on commas and spaces
_CONFIG_KEYS = {
    ("experiment", "corpus_root"): ("corpus_root", str),
    ("experiment", "phonemes"): ("phonemes", _split_list),
    ("experiment", "seed"): ("seed", int),
    ("grid", "kernels"): ("kernels", _split_list),
    ("grid", "features"): ("features", _split_list),
    ("grid", "c"): ("c_values", lambda raw: _split_list(raw, _finite)),
    ("grid", "sigma"): ("sigmas", lambda raw: _split_list(raw, _finite)),
    ("grid", "k"): ("k_values", lambda raw: _split_list(raw, int)),
    ("grid", "methods"): ("methods", _split_list),
    ("svm", "kkt_tol"): ("kkt_tol", _finite),
    ("svm", "max_iter"): ("max_iter", int),
}


def _config_values(parser) -> dict:
    out = {name: convert(parser[section][key])
           for (section, key), (name, convert) in _CONFIG_KEYS.items()
           if parser.has_option(section, key)}
    if parser.has_section("frontend"):
        # the feature tag of each grid cell sets feature_kind and with_deltas
        fe = parser["frontend"]
        out["frontend"] = FrontendConfig(**{
            f.name: f.type(fe[f.name]) for f in fields(FrontendConfig)
            if f.name in fe and f.name not in ("feature_kind", "with_deltas")})
    return out


def _echo_config(pairs):
    print("# config")
    for key, value in pairs.items():
        print(f"# {key} = {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vowelkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--feature", default="mfcc36", choices=FEATURE_KINDS)
        p.add_argument("--frames", default="middle:3", help="middle:K or fcm:K")
        p.add_argument("--phonemes", default=None,
                       help="space/comma-separated whitelist (default: 20 vowels)")

    p = sub.add_parser("train", help="train a one-vs-one model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kernel", default="rbf", choices=list(KERNEL_KINDS))
    p.add_argument("--sigma", type=float, default=0.027)
    p.add_argument("--C", type=float, default=10.0, dest="c_value")
    p.add_argument("--psd-check", action="store_true",
                   help="report the minimum eigenvalue of the Gram matrix of all "
                        "training rows")
    add_common(p)

    p = sub.add_parser("predict", help="label phoneme tokens in one utterance")
    p.add_argument("--model", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--phn", required=True)
    p.add_argument("--sample-rate", type=int, default=None)
    add_common(p)

    p = sub.add_parser("evaluate", help="score a model on the test split")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    add_common(p)

    p = sub.add_parser("grid", help="full parameter sweep, reports to a directory")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored; the grid runs its cells in sequence")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--save-best", action="store_true")

    p = sub.add_parser("report", help="re-render a stored report")
    p.add_argument("--infile", required=True, dest="infile")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="markdown", choices=["csv", "markdown"])
    return parser


def _pipeline_pieces(args):
    frontend = frontend_for(args.feature)
    method, k = _parse_frames(args.frames)
    selection = selection_for(method, k, seed=args.seed)
    phonemes = _split_list(args.phonemes) if args.phonemes else VOWELS
    return frontend, selection, phonemes


def _cmd_train(args):
    frontend, selection, phonemes = _pipeline_pieces(args)
    tokens = load_corpus_tokens(args.corpus, whitelist=phonemes, splits=("train",))
    if not tokens:
        raise InvalidInput(f"no training tokens under {args.corpus}")
    train, _test, scaler = build_dataset(tokens, frontend, selection)
    kernel = make_kernel(args.kernel, args.sigma)
    params = SvmParams(C=args.c_value, kernel=kernel)
    model = train_ovo(train.as_labeled(), params, fingerprint=train.fingerprint, scaler=scaler)
    if args.psd_check:
        _is_psd, min_eig = psd_check(gram_matrix(kernel, train.X), tol=1e-8)
        print(f"# training Gram minimum eigenvalue: {min_eig:.6g}")
    save_model(model, args.out)
    _echo_config({"command": "train", "corpus": args.corpus, "kernel": args.kernel,
                  "sigma": args.sigma, "C": args.c_value, "feature": args.feature,
                  "frames": args.frames, "phonemes": " ".join(phonemes),
                  "seed": args.seed, "out": args.out})
    converged = len(model.binaries) - len(model.not_converged)
    print(f"trained {len(model.binaries)} binary models ({converged} converged) "
          f"on {train.n_tokens} tokens")
    return EXIT_OK


def _cmd_predict(args):
    frontend, selection, phonemes = _pipeline_pieces(args)
    model = load_model(args.model)
    check_fingerprint(model, config_fingerprint(frontend, selection, model.label_names))
    signal = load_audio(args.audio, sample_rate=args.sample_rate)
    tokens = load_phn(args.phn, whitelist=phonemes, n_samples=signal.samples.size,
                      audio_path=args.audio)
    _echo_config({"command": "predict", "model": args.model, "audio": args.audio,
                  "phn": args.phn, "feature": args.feature, "frames": args.frames,
                  "seed": args.seed})
    # one batch over every token's frames; the front end skips a token by giving None
    token_feats = extract_token_features(tokens, frontend, {args.audio: signal})
    _kept, x, spans = select_tokens(token_feats, selection, frontend.dim)
    _frame_preds, votes = vote_tokens(model, apply_scaler(model.scaler, x) if model.scaler else x,
                                      spans)
    voted = iter(votes)
    for token, feats in token_feats:
        label = "-" if feats is None else model.label_names[next(voted)]
        print(f"{token.utterance_id} {token.begin} {token.end} {token.label} {label}")
    return EXIT_OK


def _cmd_evaluate(args):
    frontend, selection, phonemes = _pipeline_pieces(args)
    model = load_model(args.model)
    tokens = load_corpus_tokens(args.corpus, whitelist=phonemes, splits=("test",))
    _train, test, _scaler = build_dataset(tokens, frontend, selection,
                                          label_names=model.label_names, scaler=model.scaler)
    metrics = evaluate(model, test)
    _echo_config({"command": "evaluate", "model": args.model, "corpus": args.corpus,
                  "feature": args.feature, "frames": args.frames, "seed": args.seed})
    print(f"frame_accuracy: {metrics['frame_accuracy']:.2f}")
    print(f"phoneme_accuracy: {metrics['phoneme_accuracy']:.2f}")
    print(f"n_test_tokens: {test.n_tokens}")
    print(f"skipped_tokens: {test.skipped}")
    return EXIT_OK


def _cmd_grid(args):
    settings = {}
    if args.corpus:
        settings["corpus_root"] = args.corpus
    if args.seed is not None:
        settings["seed"] = args.seed
    if args.config:
        settings = _load_config_file(args.config, **settings)
    if not settings.get("corpus_root"):
        raise UsageError("grid needs --corpus or a config file with corpus_root")
    config = ExperimentConfig(**settings)
    os.makedirs(args.out, exist_ok=True)
    save_best = os.path.join(args.out, "best.svmodel") if args.save_best else None
    report = grid_search(config, save_best=save_best)
    for fmt in REPORT_FILES:
        emit_report(report, fmt, args.out)
    _echo_config(report.config_echo)
    failed = [c for c in report.cells if c.error]
    print(f"{len(report.cells)} cells ({len(failed)} failed) -> {args.out}")
    if len(failed) == len(report.cells):
        raise InvalidInput(f"no grid cell ran; the first failed with: {failed[0].error}")
    return EXIT_OK


def _cmd_report(args):
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            report = RunReport.from_dict(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot parse report {args.infile}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    out_path = emit_report(report, args.format, args.out)
    print(f"re-rendered {args.infile} -> {out_path}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "grid": _cmd_grid,
    "report": _cmd_report,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, TooShort, InvalidInput, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
