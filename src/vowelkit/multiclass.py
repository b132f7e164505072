"""One-against-one multiclass SVM with majority voting and model persistence."""

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import FormatError, InvalidInput
from .kernels import KernelSpec, Linear, kernel_from_dict, kernel_to_dict
from .preprocessing import ScalerParams
from .svm import BinaryModel, BinaryProblem, SvmParams, decision_values, smo_train

MODEL_MAGIC = "vowelkit-svmodel"
MODEL_VERSION = 1


@dataclass
class LabeledDataset:
    X: np.ndarray
    labels: np.ndarray  # class ids into label_names
    label_names: List[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        k = len(self.label_names)
        if k < 2:
            raise InvalidInput("need at least two classes")
        if list(self.label_names) != sorted(set(self.label_names)):
            raise InvalidInput("label_names must be sorted and duplicate-free")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= k):
            raise InvalidInput("class ids must be in [0, k)")
        if self.X.shape[0] != self.labels.size:
            raise InvalidInput("one label per feature row required")


@dataclass
class OvOModel:
    label_names: List[str]
    pair_index: List[Tuple[int, int]]
    binaries: List[BinaryModel]
    scaler: Optional[ScalerParams] = None
    fingerprint: str = ""
    diagnostics: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.label_names)


def train_ovo(data: LabeledDataset, params: SvmParams, fingerprint: str = "",
              scaler: Optional[ScalerParams] = None) -> OvOModel:
    """Train k(k-1)/2 binary models, class i mapped to +1 and j to -1."""
    k = len(data.label_names)
    pairs = list(itertools.combinations(range(k), 2))
    binaries = []
    not_converged = []
    for i, j in pairs:
        mask = (data.labels == i) | (data.labels == j)
        if not mask.any() or np.unique(data.labels[mask]).size < 2:
            raise InvalidInput(f"classes {i} and {j} lack training samples")
        y = np.where(data.labels[mask] == i, 1.0, -1.0)
        model = smo_train(BinaryProblem(data.X[mask], y), params)
        if not model.converged:
            not_converged.append((i, j))
        binaries.append(model)
    return OvOModel(
        label_names=list(data.label_names),
        pair_index=pairs,
        binaries=binaries,
        scaler=scaler,
        fingerprint=fingerprint,
        diagnostics={"not_converged": not_converged},
    )


def _votes_and_scores(model: OvOModel, X: np.ndarray):
    """Per-row vote counts and |f|-sums per class over all pair classifiers."""
    n = X.shape[0]
    k = model.k
    votes = np.zeros((n, k), dtype=int)
    strength = np.zeros((n, k))
    for (i, j), binary in zip(model.pair_index, model.binaries):
        f = decision_values(binary, X)
        winner_i = f >= 0.0
        votes[winner_i, i] += 1
        votes[~winner_i, j] += 1
        strength[:, i] += np.abs(f)
        strength[:, j] += np.abs(f)
    return votes, strength


def predict_ovo_batch(model: OvOModel, X: np.ndarray) -> np.ndarray:
    """Majority vote; ties by largest |f|-sum, then lowest class id."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInput("X must be a matrix")
    votes, strength = _votes_and_scores(model, X)
    out = np.empty(X.shape[0], dtype=int)
    for row in range(X.shape[0]):
        v = votes[row]
        tied = np.where(v == v.max())[0]
        if tied.size == 1:
            out[row] = tied[0]
        else:
            s = strength[row, tied]
            out[row] = int(tied[np.argmax(s)])  # argmax keeps the lowest id on ties
    return out


def predict_ovo(model: OvOModel, x: np.ndarray) -> int:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidInput("x must be a vector")
    return int(predict_ovo_batch(model, x[None, :])[0])


def phoneme_vote(frame_preds: np.ndarray, k: int) -> int:
    """Majority over one token's frame predictions.

    A tie goes to whichever class won the temporally middle frame (index
    floor((n-1)/2)) if it is among the tied classes, else to the lowest id.
    """
    counts = np.bincount(frame_preds, minlength=k)
    tied = np.where(counts == counts.max())[0]
    if tied.size == 1:
        return int(tied[0])
    middle = int(frame_preds[(frame_preds.size - 1) // 2])
    return middle if middle in tied else int(tied[0])


def predict_phoneme(model: OvOModel, frames: np.ndarray) -> int:
    """Classify each frame, then take the phoneme_vote over frames."""
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise InvalidInput("frame matrix must be non-empty")
    return phoneme_vote(predict_ovo_batch(model, frames), model.k)


# --- persistence ------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _kernel_line(spec: KernelSpec) -> str:
    d = kernel_to_dict(spec)
    parts = [d.pop("kind")]
    for key in sorted(d):
        val = d[key]
        parts.append(f"{key}={int(val) if key == 'd' else _fmt(val)}")
    return " ".join(parts)


def _parse_kernel_line(line: str) -> KernelSpec:
    fields = line.split()
    if not fields:
        raise FormatError("empty kernel line")
    data = {"kind": fields[0]}
    for item in fields[1:]:
        key, _, val = item.partition("=")
        data[key] = float(val)
    return kernel_from_dict(data)


def save_model(model: OvOModel, path) -> None:
    """Versioned text format; floats carry 17 significant digits."""
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION}"]
    lines.append("labels " + " ".join(model.label_names))
    lines.append("kernel " + _kernel_line(model.binaries[0].kernel if model.binaries else Linear()))
    lines.append("fingerprint " + (model.fingerprint or "-"))
    if model.scaler is not None:
        lines.append("scaler_min " + " ".join(_fmt(v) for v in model.scaler.mins))
        lines.append("scaler_max " + " ".join(_fmt(v) for v in model.scaler.maxs))
    else:
        lines.append("scaler none")
    lines.append(f"pairs {len(model.pair_index)}")
    for (i, j), binary in zip(model.pair_index, model.binaries):
        lines.append(
            f"pair {i} {j} bias={_fmt(binary.bias)} C={_fmt(binary.C)} "
            f"converged={int(binary.converged)} nsv={binary.sv_alphas.size}"
        )
        for a, yl, vec in zip(binary.sv_alphas, binary.sv_labels, binary.support_vectors):
            lines.append(
                "sv " + _fmt(a) + " " + ("+1" if yl > 0 else "-1") + " "
                + " ".join(_fmt(v) for v in vec)
            )
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> OvOModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    it = iter(lines)

    def next_line(expect=None):
        try:
            line = next(it)
        except StopIteration:
            raise FormatError("truncated model file") from None
        if expect is not None and not line.startswith(expect + " "):
            raise FormatError(f"expected {expect!r} line, got {line!r}")
        return line

    header = next_line().split()
    if len(header) != 2 or header[0] != MODEL_MAGIC:
        raise FormatError("not a vowelkit model file")
    if int(header[1]) != MODEL_VERSION:
        raise FormatError(f"unsupported model version {header[1]}")
    label_names = next_line("labels").split()[1:]
    kernel = _parse_kernel_line(next_line("kernel").split(" ", 1)[1])
    fingerprint = next_line("fingerprint").split(" ", 1)[1]
    if fingerprint == "-":
        fingerprint = ""
    scaler_line = next_line()
    if scaler_line == "scaler none":
        scaler = None
    elif scaler_line.startswith("scaler_min "):
        mins = np.array([float(v) for v in scaler_line.split()[1:]])
        maxs = np.array([float(v) for v in next_line("scaler_max").split()[1:]])
        scaler = ScalerParams(mins, maxs)
    else:
        raise FormatError(f"expected scaler block, got {scaler_line!r}")
    try:
        n_pairs = int(next_line("pairs").split()[1])
    except ValueError as exc:
        raise FormatError("bad pair count") from exc
    pair_index = []
    binaries = []
    for _ in range(n_pairs):
        fields = next_line("pair").split()
        try:
            i, j = int(fields[1]), int(fields[2])
            attrs = dict(f.split("=", 1) for f in fields[3:])
            bias = float(attrs["bias"])
            c_val = float(attrs["C"])
            converged = bool(int(attrs["converged"]))
            nsv = int(attrs["nsv"])
        except (KeyError, ValueError, IndexError) as exc:
            raise FormatError(f"bad pair line: {fields!r}") from exc
        alphas, labels, vecs = [], [], []
        for _ in range(nsv):
            sv_fields = next_line("sv").split()
            alphas.append(float(sv_fields[1]))
            labels.append(float(sv_fields[2]))
            vecs.append([float(v) for v in sv_fields[3:]])
        pair_index.append((i, j))
        dim = len(vecs[0]) if vecs else 0
        binaries.append(
            BinaryModel(
                support_vectors=np.array(vecs, dtype=float).reshape(nsv, dim),
                sv_alphas=np.array(alphas),
                sv_labels=np.array(labels),
                bias=bias,
                kernel=kernel,
                converged=converged,
                C=c_val,
            )
        )
    if next_line() != "end":
        raise FormatError("missing end marker")
    not_converged = [p for p, b in zip(pair_index, binaries) if not b.converged]
    return OvOModel(
        label_names=label_names,
        pair_index=pair_index,
        binaries=binaries,
        scaler=scaler,
        fingerprint=fingerprint,
        diagnostics={"not_converged": not_converged},
    )
