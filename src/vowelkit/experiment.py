"""Dataset assembly, train/evaluate, grid sweeps and report emission."""

import csv
import hashlib
import io
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import VOWELS, PhonemeToken, load_audio, load_corpus_tokens
from .errors import FormatError, InvalidInput, VowelkitError
from .frame_select import Fcm, MiddleFrames, SelectionMethod, select_frames_many
from .frontend import FrontendConfig, RawSignal, extract_features_many
from .kernels import make_kernel
from .multiclass import (
    LabeledDataset,
    OvOModel,
    phoneme_vote,
    predict_ovo_batch,
    save_model,
    train_ovo_many,
)
from .preprocessing import ScalerParams, apply_scaler, fit_scaler
from .svm import SvmParams

FEATURE_KINDS = ("mfcc12", "mfcc36", "plp12", "plp36")
METHOD_NAMES = ("middle", "fcm")


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
class FrameDataset(LabeledDataset):
    """Selected, scaled frames, one class id per frame in labels, with per-phoneme grouping."""

    token_spans: List[Tuple[int, int]]  # row ranges, one per kept token
    token_labels: np.ndarray
    skipped: int
    fingerprint: str

    @property
    def n_tokens(self) -> int:
        return len(self.token_spans)


def extract_token_features(tokens: Sequence[PhonemeToken], frontend: FrontendConfig,
                           signal_cache: Optional[dict] = None):
    """Per-token features from one extract_features_many call, None for a token it skips.

    `vowelkit predict` passes the signal it loaded as signal_cache: raw PCM needs --sample-rate.
    """
    cache = {} if signal_cache is None else signal_cache
    pieces = []
    for token in tokens:
        if token.audio_path not in cache:
            cache[token.audio_path] = load_audio(token.audio_path)
        signal = cache[token.audio_path]
        if token.end > signal.samples.size:
            raise InvalidInput(
                f"{token.utterance_id}: span [{token.begin}, {token.end}) exceeds "
                f"signal of {signal.samples.size} samples"
            )
        pieces.append(RawSignal(signal.samples[token.begin : token.end], signal.sample_rate))
    return [(token, None if isinstance(feats, VowelkitError) else feats)
            for token, feats in zip(tokens, extract_features_many(pieces, frontend))]


def select_tokens(token_feats, selection: SelectionMethod, dim: int):
    """Tokens with features, their selected frames stacked (dim columns if none), row spans."""
    kept = [(token, feats) for token, feats in token_feats if feats is not None]
    rows = select_frames_many([feats for _token, feats in kept], selection)
    ends = np.cumsum([picked.shape[0] for picked in rows], dtype=int).tolist()
    x = np.vstack(rows) if rows else np.zeros((0, dim))
    return [token for token, _feats in kept], x, list(zip([0] + ends[:-1], ends))


def check_fingerprint(model: OvOModel, fingerprint: str) -> None:
    """A model applies only to frames built with its frontend, selection and labels."""
    if model.fingerprint and fingerprint and model.fingerprint != fingerprint:
        raise InvalidInput("model was built with a different frontend/selection configuration")


def vote_tokens(model: OvOModel, X: np.ndarray, spans):
    """Frame predictions from one predict_ovo_batch call and one phoneme_vote per span."""
    frame_preds = predict_ovo_batch(model, X)
    votes = [phoneme_vote(frame_preds[start:stop], model.k) for start, stop in spans]
    return frame_preds, np.array(votes, dtype=int)


def _assemble(token_feats, selection, label_names, split, dim, fingerprint) -> FrameDataset:
    """One split's selected frames, not yet scaled."""
    in_split = [(token, feats) for token, feats in token_feats if token.split == split]
    index = {name: i for i, name in enumerate(label_names)}
    unknown = sorted({token.label for token, _feats in in_split} - index.keys())
    if unknown:
        raise InvalidInput(f"no class for {split} label(s) {' '.join(unknown)}")
    kept, x, spans = select_tokens(in_split, selection, dim)
    token_labels = np.array([index[token.label] for token in kept], dtype=int)
    return FrameDataset(
        X=x, labels=np.repeat(token_labels, [stop - start for start, stop in spans]),
        label_names=list(label_names), token_spans=spans, token_labels=token_labels,
        skipped=len(in_split) - len(kept), fingerprint=fingerprint,
    )


def build_dataset(tokens: Sequence[PhonemeToken], frontend: FrontendConfig,
                  selection: SelectionMethod, label_names: Optional[Sequence[str]] = None,
                  token_feats=None, scaler: Optional[ScalerParams] = None):
    """Extract, select and scale; returns (train, test, scaler).

    A given fitted scaler is applied to both splits.  Otherwise a scaler is
    fit on the training rows, if there are any; with no scaler, no split is
    scaled.  Tokens too short for a single frame are skipped and counted.
    """
    if not tokens:
        raise InvalidInput("no tokens to build a dataset from")
    if label_names is None:
        label_names = sorted({t.label for t in tokens})
    if token_feats is None:
        token_feats = extract_token_features(tokens, frontend)
    fingerprint = config_fingerprint(frontend, selection, label_names)

    train, test = (_assemble(token_feats, selection, label_names, split, frontend.dim,
                             fingerprint) for split in ("train", "test"))
    if scaler is None and train.X.size:
        scaler = fit_scaler(train.X)
    for data in (train, test):
        if scaler is not None and data.X.size:
            data.X = apply_scaler(scaler, data.X)
    return train, test, scaler


def evaluate(model: OvOModel, test: FrameDataset):
    """Frame and phoneme accuracy (percent) plus a token confusion matrix."""
    if test.n_tokens == 0:
        raise InvalidInput("test set is empty")
    check_fingerprint(model, test.fingerprint)
    frame_preds, token_preds = vote_tokens(model, test.X, test.token_spans)
    frame_acc = 100.0 * float(np.mean(frame_preds == test.labels))
    k = len(test.label_names)
    confusion = np.zeros((k, k), dtype=int)
    np.add.at(confusion, (test.token_labels, token_preds), 1)
    phoneme_acc = 100.0 * int(np.sum(token_preds == test.token_labels)) / test.n_tokens
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
        for name in ("phonemes", "kernels", "features", "c_values", "sigmas", "k_values",
                     "methods"):
            if not getattr(self, name):
                raise InvalidInput(f"list {name} must be non-empty")


@dataclass
class GridCell:
    """One setting of the sweep and its results; the fields are every report's schema."""

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


CSV_COLUMNS = [f.name for f in fields(GridCell) if f.name != "confusion"]  # error comes last
_FIELD_TYPES = {f.name: f.type for f in fields(GridCell)}
# the JSON values a report may hold for each field type; a bool is never one of them
_JSON_TYPES = {str: str, int: int, float: (int, float), Optional[list]: (list, type(None))}


def _cell_from_dict(values: dict) -> GridCell:
    """A GridCell from its JSON form; a value of the wrong type is a FormatError."""
    cell = GridCell(**values)
    for name, kind in _FIELD_TYPES.items():
        value = getattr(cell, name)
        try:
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
                raise TypeError
            if kind is float:
                setattr(cell, name, float(value))  # an int too large for a float overflows
        except (TypeError, OverflowError):
            raise FormatError(f"report cell field {name} has a bad "
                              f"{type(value).__name__} value") from None
    return cell


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
        cells = [_cell_from_dict(c) for c in data["cells"]]
        return RunReport(cells=cells, config_echo=data["config"], seed=data["seed"])


def _evaluate_cell(cell: GridCell, model: OvOModel, train: FrameDataset, test: FrameDataset):
    t0 = time.perf_counter()
    metrics = evaluate(model, test)
    cell.test_s = time.perf_counter() - t0
    cell.frame_acc = metrics["frame_accuracy"]
    cell.phoneme_acc = metrics["phoneme_accuracy"]
    cell.confusion = metrics["confusion"].tolist()
    n_pairs = len(model.pair_index)
    cell.converged_pairs = f"{n_pairs - len(model.not_converged)}/{n_pairs}"
    cell.n_train = train.n_tokens
    cell.n_test = test.n_tokens
    cell.skipped = train.skipped + test.skipped


def plan_grid(config: ExperimentConfig) -> Tuple[List[GridCell], list]:
    """(cells, groups): the sweep's cells in sorted order and the groups that run them.

    Each cell's SvmParams, front end and selection are built in one try; a
    VowelkitError records its error on the cell, which then joins no group.
    A group is (frontend, selection, [(n, cell, params)]) for the cells of one
    (feature, K, method); the groups come in sorted order.
    """
    cells = sorted((GridCell(*coords) for coords in itertools.product(
        config.kernels, config.features, config.c_values,
        config.sigmas, config.k_values, config.methods,
    )), key=lambda c: c.coords)
    groups: Dict[tuple, tuple] = {}
    for n, cell in enumerate(cells):
        try:
            params = SvmParams(C=cell.C, kernel=make_kernel(cell.kernel, cell.sigma),
                               kkt_tol=config.kkt_tol, max_iter=config.max_iter)
            frontend = frontend_for(cell.feature, config.frontend)
            selection = selection_for(cell.method, cell.K, seed=config.seed)
        except VowelkitError as exc:
            cell.error = str(exc)
            continue
        key = (cell.feature, cell.K, cell.method)
        groups.setdefault(key, (frontend, selection, []))[2].append((n, cell, params))
    return cells, [groups[key] for key in sorted(groups)]


def grid_search(config: ExperimentConfig, save_best: Optional[str] = None) -> RunReport:
    """Run plan_grid's groups in order; one GridCell per setting.

    A feature's tokens are extracted once, when its first group comes up, and
    each group's dataset is built just before it is trained, so a sweep holds
    one feature's tokens and one dataset at a time.  A group's cells are
    trained in one train_ovo_many call, and each records an equal share of its
    seconds as train_s.  A VowelkitError fails, and records its error on,
    exactly the cells that share what raised it: one cell's settings or
    evaluation, one feature's tokens, or one group's dataset or training.
    """
    tokens = load_corpus_tokens(config.corpus_root, whitelist=config.phonemes)
    if not tokens:
        raise InvalidInput(f"no usable tokens under {config.corpus_root}")
    label_names = sorted(set(config.phonemes) & {t.label for t in tokens})

    cells, groups = plan_grid(config)
    best_model, best_rank = None, None
    token_frontend, token_feats = None, None  # token_feats: the features or the error raised
    for frontend, selection, group in groups:
        if frontend != token_frontend:
            token_frontend, token_feats = frontend, None
            try:
                token_feats = extract_token_features(tokens, frontend)
            except VowelkitError as exc:
                token_feats = exc
        try:
            if isinstance(token_feats, VowelkitError):
                raise token_feats
            train, test, scaler = build_dataset(tokens, frontend, selection,
                                                label_names=label_names, token_feats=token_feats)
            t0 = time.perf_counter()
            models = train_ovo_many(train, [params for _n, _c, params in group],
                                    fingerprint=train.fingerprint, scaler=scaler)
        except VowelkitError as exc:
            for _n, cell, _params in group:
                cell.error = str(exc)
            continue
        train_s = (time.perf_counter() - t0) / len(group)
        for (n, cell, _params), model in zip(group, models):
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

    echo = {name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(config).items() if name != "workers"}
    echo["corpus_root"] = str(config.corpus_root)
    report = RunReport(cells=cells, config_echo=echo, seed=config.seed)

    if save_best is not None and best_model is not None:
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
    writer.writerow(CSV_COLUMNS)
    for cell in report.cells:
        writer.writerow([_csv_value(getattr(cell, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def parse_report_csv(text: str) -> List[dict]:
    """Round-trip reader for report_to_csv output; each column comes back as its field's type."""
    return [{col: _FIELD_TYPES[col](value) for col, value in record.items()}
            for record in csv.DictReader(io.StringIO(text))]


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


# report format -> (its file name in an output directory, renderer)
REPORT_FILES = {
    "csv": ("report.csv", report_to_csv),
    "markdown": ("report.md", report_to_markdown),
    "json": ("report.json", lambda report: json.dumps(report.to_dict(), indent=2, sort_keys=True)),
}


def emit_report(report: RunReport, fmt: str, out_dir) -> str:
    """Write the report in one REPORT_FILES format into out_dir; returns the file's path."""
    name, render = REPORT_FILES[fmt]
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(report))
    return path
