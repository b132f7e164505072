"""Dataset assembly, train/evaluate, grid sweeps and report emission."""

import csv
import hashlib
import io
import itertools
import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import VOWELS, PhonemeToken, load_audio, load_corpus_tokens
from .errors import DegenerateSpectrum, InvalidInput, TooShort, VowelkitError
from .frame_select import Fcm, MiddleFrames, SelectionMethod, select_frames_many
from .frontend import FrontendConfig, RawSignal, extract_features
from .kernels import make_kernel
from .multiclass import (
    LabeledDataset,
    OvOModel,
    phoneme_vote,
    predict_ovo_batch,
    train_ovo_many,
)
from .preprocessing import ScalerParams, apply_scaler, fit_scaler
from .svm import SvmParams

FEATURE_KINDS = ("mfcc12", "mfcc36", "plp12", "plp36")
METHOD_NAMES = ("middle", "fcm")

CSV_COLUMNS = [
    "kernel", "feature", "C", "sigma", "K", "method", "frame_acc", "phoneme_acc",
    "train_s", "test_s", "n_train", "n_test", "skipped", "converged_pairs",
]


def frontend_for(feature: str, base: FrontendConfig = FrontendConfig()) -> FrontendConfig:
    """Map a feature tag like "mfcc36" onto a FrontendConfig."""
    if feature not in FEATURE_KINDS:
        raise InvalidInput(f"unknown feature kind {feature!r}; use one of {FEATURE_KINDS}")
    return replace(base, feature_kind=feature[:-2], with_deltas=feature.endswith("36"))


def selection_for(method: str, k: int, seed: int = 0) -> SelectionMethod:
    if method == "middle":
        return MiddleFrames(k)
    if method == "fcm":
        return Fcm(k, seed=seed)
    raise InvalidInput(f"unknown selection method {method!r}; use one of {METHOD_NAMES}")


def config_fingerprint(frontend: FrontendConfig, selection: SelectionMethod,
                       label_names: Sequence[str]) -> str:
    payload = repr((frontend, selection, tuple(label_names)))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class FrameDataset:
    """Selected, scaled frames with per-phoneme grouping."""

    X: np.ndarray
    frame_labels: np.ndarray
    token_spans: List[Tuple[int, int]]  # row ranges, one per kept token
    token_labels: np.ndarray
    label_names: List[str]
    skipped: int
    fingerprint: str

    @property
    def n_tokens(self) -> int:
        return len(self.token_spans)

    def as_labeled(self) -> LabeledDataset:
        return LabeledDataset(self.X, self.frame_labels, self.label_names)


def extract_token_features(tokens: Sequence[PhonemeToken], frontend: FrontendConfig,
                           signal_cache: Optional[dict] = None):
    """Per-token feature matrices (None for a too-short token or a degenerate spectrum)."""
    cache = {} if signal_cache is None else signal_cache
    out = []
    for token in tokens:
        if token.audio_path not in cache:
            cache[token.audio_path] = load_audio(token.audio_path)
        signal = cache[token.audio_path]
        if token.end > signal.samples.size:
            raise InvalidInput(
                f"{token.utterance_id}: span [{token.begin}, {token.end}) exceeds "
                f"signal of {signal.samples.size} samples"
            )
        piece = RawSignal(signal.samples[token.begin : token.end], signal.sample_rate)
        try:
            feats = extract_features(piece, frontend)
        except (TooShort, DegenerateSpectrum):
            feats = None
        out.append((token, feats))
    return out


def _assemble(token_feats, selection, label_names, split):
    in_split = [(token, feats) for token, feats in token_feats if token.split == split]
    kept = [(token, feats) for token, feats in in_split if feats is not None]
    skipped = len(in_split) - len(kept)
    rows = select_frames_many([feats for _token, feats in kept], selection)
    frame_labels, spans, token_labels = [], [], []
    index = {name: i for i, name in enumerate(label_names)}
    cursor = 0
    for (token, _feats), picked in zip(kept, rows):
        frame_labels.extend([index[token.label]] * picked.shape[0])
        spans.append((cursor, cursor + picked.shape[0]))
        cursor += picked.shape[0]
        token_labels.append(index[token.label])
    x = np.vstack(rows) if rows else np.zeros((0, 0))
    return x, np.array(frame_labels, dtype=int), spans, np.array(token_labels, dtype=int), skipped


def build_dataset(tokens: Sequence[PhonemeToken], frontend: FrontendConfig,
                  selection: SelectionMethod, label_names: Optional[Sequence[str]] = None,
                  token_feats=None, scaler: Optional[ScalerParams] = None):
    """Extract, select and scale; returns (train, test, scaler).

    A given fitted scaler is applied to both splits, which may then hold no
    training rows.  Otherwise the scaler is fit on training rows only.
    Tokens too short for a single frame are skipped and counted.
    """
    if not tokens:
        raise InvalidInput("no tokens to build a dataset from")
    if label_names is None:
        label_names = sorted({t.label for t in tokens})
    if token_feats is None:
        token_feats = extract_token_features(tokens, frontend)
    fingerprint = config_fingerprint(frontend, selection, label_names)

    parts = {}
    for split in ("train", "test"):
        parts[split] = _assemble(token_feats, selection, label_names, split)
    if scaler is None:
        x_train = parts["train"][0]
        if x_train.size == 0:
            raise InvalidInput("no usable training tokens (all missing or too short)")
        scaler = fit_scaler(x_train)

    datasets = {}
    for split in ("train", "test"):
        x, frame_labels, spans, token_labels, skipped = parts[split]
        scaled = apply_scaler(scaler, x) if x.size else x
        datasets[split] = FrameDataset(
            X=scaled, frame_labels=frame_labels, token_spans=spans,
            token_labels=token_labels, label_names=list(label_names),
            skipped=skipped, fingerprint=fingerprint,
        )
    return datasets["train"], datasets["test"], scaler


def evaluate(model: OvOModel, test: FrameDataset):
    """Frame and phoneme accuracy (percent) plus a token confusion matrix."""
    if test.n_tokens == 0:
        raise InvalidInput("test set is empty")
    if model.fingerprint and test.fingerprint and model.fingerprint != test.fingerprint:
        raise InvalidInput("model and test set were built with different configurations")
    frame_preds = predict_ovo_batch(model, test.X)
    frame_acc = 100.0 * float(np.mean(frame_preds == test.frame_labels))
    k = len(test.label_names)
    confusion = np.zeros((k, k), dtype=int)
    correct = 0
    for (start, stop), true_label in zip(test.token_spans, test.token_labels):
        pred = phoneme_vote(frame_preds[start:stop], model.k)
        confusion[true_label, pred] += 1
        correct += int(pred == true_label)
    phoneme_acc = 100.0 * correct / test.n_tokens
    return {"frame_accuracy": frame_acc, "phoneme_accuracy": phoneme_acc,
            "confusion": confusion}


# --- grid search ------------------------------------------------------------


@dataclass
class ExperimentConfig:
    corpus_root: str
    phonemes: Tuple[str, ...] = VOWELS
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    kernels: Tuple[str, ...] = ("polynomial", "rbf", "sigmoid")
    features: Tuple[str, ...] = ("mfcc36", "plp36")
    c_values: Tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0)
    sigmas: Tuple[float, ...] = (0.027, 2.0)
    k_values: Tuple[int, ...] = (3,)
    methods: Tuple[str, ...] = ("middle",)
    kkt_tol: float = 1e-3
    max_iter: int = 0
    seed: int = 0
    workers: int = 1  # accepted for compatibility; the grid runs its cells in sequence

    def __post_init__(self):
        for name in ("kernels", "features", "c_values", "sigmas", "k_values", "methods"):
            if not getattr(self, name):
                raise InvalidInput(f"grid list {name} must be non-empty")


@dataclass
class GridCell:
    kernel: str
    feature: str
    C: float
    sigma: float
    K: int
    method: str
    frame_acc: float = 0.0
    phoneme_acc: float = 0.0
    train_s: float = 0.0
    test_s: float = 0.0
    n_train: int = 0
    n_test: int = 0
    skipped: int = 0
    converged_pairs: str = "0/0"
    error: str = ""
    confusion: Optional[list] = None

    @property
    def coords(self):
        return (self.kernel, self.feature, self.C, self.sigma, self.K, self.method)


@dataclass
class RunReport:
    cells: List[GridCell]
    config_echo: dict
    seed: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config": self.config_echo,
            "cells": [vars(c).copy() for c in self.cells],
        }

    @staticmethod
    def from_dict(data: dict) -> "RunReport":
        cells = [GridCell(**c) for c in data["cells"]]
        return RunReport(cells=cells, config_echo=data["config"], seed=data["seed"])


def _evaluate_cell(cell: GridCell, model: OvOModel, train: FrameDataset, test: FrameDataset):
    t0 = time.perf_counter()
    metrics = evaluate(model, test)
    cell.test_s = time.perf_counter() - t0
    cell.frame_acc = metrics["frame_accuracy"]
    cell.phoneme_acc = metrics["phoneme_accuracy"]
    cell.confusion = metrics["confusion"].tolist()
    n_pairs = len(model.pair_index)
    cell.converged_pairs = f"{n_pairs - len(model.diagnostics['not_converged'])}/{n_pairs}"
    cell.n_train = train.n_tokens
    cell.n_test = test.n_tokens
    cell.skipped = train.skipped + test.skipped


def grid_search(config: ExperimentConfig, tokens: Optional[Sequence[PhonemeToken]] = None,
                save_best: Optional[str] = None) -> RunReport:
    """Cartesian sweep over the configured grid; one GridCell per setting.

    Features are extracted once per feature kind and reused across cells.
    The cells of one dataset (feature, K, method) are trained in one
    train_ovo_many call, and each records an equal share of its seconds as
    train_s.  A failing cell records its error and does not abort the sweep.
    """
    if tokens is None:
        tokens = load_corpus_tokens(config.corpus_root, whitelist=config.phonemes)
    if not tokens:
        raise InvalidInput(f"no usable tokens under {config.corpus_root}")
    label_names = sorted(set(config.phonemes) & {t.label for t in tokens})

    signal_cache: dict = {}
    feature_cache: Dict[str, list] = {}
    for feature in sorted(set(config.features)):
        feature_cache[feature] = extract_token_features(
            tokens, frontend_for(feature, config.frontend), signal_cache
        )
    signal_cache.clear()

    datasets = {}
    for feature, k, method in itertools.product(
        sorted(set(config.features)), sorted(set(config.k_values)), sorted(set(config.methods))
    ):
        selection = selection_for(method, k, seed=config.seed)
        datasets[(feature, k, method)] = build_dataset(
            tokens, frontend_for(feature, config.frontend), selection,
            label_names=label_names, token_feats=feature_cache[feature],
        )

    cells = sorted(
        (GridCell(kernel=kern, feature=feat, C=c, sigma=sigma, K=k, method=method)
         for kern, feat, c, sigma, k, method in itertools.product(
             config.kernels, config.features, config.c_values,
             config.sigmas, config.k_values, config.methods,
         )),
        key=lambda c: c.coords,
    )
    groups: Dict[tuple, List[Tuple[int, GridCell]]] = {}
    for n, cell in enumerate(cells):
        groups.setdefault((cell.feature, cell.K, cell.method), []).append((n, cell))
    best_model, best_rank = None, None
    for key, group in groups.items():
        train, test, scaler = datasets[key]
        ready, params_list = [], []
        for n, cell in group:
            try:
                params_list.append(SvmParams(
                    C=cell.C, kernel=make_kernel(cell.kernel, cell.sigma),
                    kkt_tol=config.kkt_tol, max_iter=config.max_iter))
            except VowelkitError as exc:
                cell.error = str(exc)
                continue
            ready.append((n, cell))
        if not ready:
            continue
        t0 = time.perf_counter()
        try:
            models = train_ovo_many(train.as_labeled(), params_list,
                                    fingerprint=train.fingerprint, scaler=scaler)
        except VowelkitError as exc:
            for _n, cell in ready:
                cell.error = str(exc)
            continue
        train_s = (time.perf_counter() - t0) / len(ready)
        for (n, cell), model in zip(ready, models):
            cell.train_s = train_s
            try:
                _evaluate_cell(cell, model, train, test)
            except VowelkitError as exc:
                cell.error = str(exc)
                continue
            # the higher score wins, and a tie goes to the first cell in sorted order
            rank = (cell.phoneme_acc, cell.frame_acc, -n)
            if best_rank is None or rank > best_rank:
                best_model, best_rank = model, rank

    echo = {
        "corpus_root": str(config.corpus_root),
        "phonemes": list(config.phonemes),
        "frontend": vars(config.frontend).copy(),
        "kernels": list(config.kernels),
        "features": list(config.features),
        "c_values": list(config.c_values),
        "sigmas": list(config.sigmas),
        "k_values": list(config.k_values),
        "methods": list(config.methods),
        "kkt_tol": config.kkt_tol,
        "max_iter": config.max_iter,
        "seed": config.seed,
    }
    report = RunReport(cells=cells, config_echo=echo, seed=config.seed)

    if save_best is not None and best_model is not None:
        from .multiclass import save_model

        save_model(best_model, save_best)
    return report


# --- report emission --------------------------------------------------------


def _csv_value(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def report_to_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS + ["error"])
    for cell in report.cells:
        row = [_csv_value(getattr(cell, col)) for col in CSV_COLUMNS]
        writer.writerow(row + [cell.error])
    return buf.getvalue()


def parse_report_csv(text: str) -> List[dict]:
    """Round-trip reader for report_to_csv output; numerics come back exact."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for record in reader:
        for col in ("C", "sigma", "frame_acc", "phoneme_acc", "train_s", "test_s"):
            record[col] = float(record[col])
        for col in ("K", "n_train", "n_test", "skipped"):
            record[col] = int(record[col])
        rows.append(record)
    return rows


def _pivot(rows, col_keys, cell_value, col_title):
    kernels = sorted({r.kernel for r in rows})
    lines = ["| kernel | " + " | ".join(col_title(c) for c in col_keys) + " |"]
    lines.append("|" + "---|" * (len(col_keys) + 1))
    for kern in kernels:
        vals = []
        for key in col_keys:
            match = [r for r in rows if r.kernel == kern and cell_value(r) == key]
            if match:
                best = max(match, key=lambda r: r.phoneme_acc)
                vals.append(f"{best.phoneme_acc:.2f}")
            else:
                vals.append("-")
        lines.append(f"| {kern} | " + " | ".join(vals) + " |")
    return "\n".join(lines)


def report_to_markdown(report: RunReport) -> str:
    ok = [c for c in report.cells if not c.error]
    parts = ["# Grid report", ""]
    parts.append(f"seed: {report.seed}")
    parts.append("")
    parts.append("## Accuracy by frame count and selection method (phoneme %)")
    parts.append("")
    km_keys = sorted({(c.K, c.method) for c in ok})
    parts.append(_pivot(ok, km_keys, lambda c: (c.K, c.method),
                        lambda key: f"K={key[0]} {key[1]}"))
    parts.append("")
    parts.append("## Accuracy by C and feature representation (phoneme %)")
    parts.append("")
    cf_keys = sorted({(c.C, c.feature) for c in ok})
    parts.append(_pivot(ok, cf_keys, lambda c: (c.C, c.feature),
                        lambda key: f"C={key[0]:g} {key[1]}"))
    parts.append("")
    failed = [c for c in report.cells if c.error]
    if failed:
        parts.append("## Failed cells")
        parts.append("")
        for c in failed:
            parts.append(f"- {c.coords}: {c.error}")
        parts.append("")
    return "\n".join(parts)


def emit_report(report: RunReport, fmt: str, path) -> None:
    if fmt == "csv":
        text = report_to_csv(report)
    elif fmt == "markdown":
        text = report_to_markdown(report)
    elif fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        raise InvalidInput(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
