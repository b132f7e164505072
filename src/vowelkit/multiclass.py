"""One-against-one multiclass SVM with majority voting and model persistence."""

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import FormatError, InvalidInput
from .kernels import KernelSpec, Linear, gram_matrix, kernel_from_dict, kernel_to_dict
from .preprocessing import ScalerParams
from .svm import BinaryModel, BinaryProblem, SvmParams, smo_train_many

MODEL_MAGIC = "vowelkit-svmodel"
MODEL_VERSION = 1


def _check_labels(names, error) -> None:
    names = list(names)  # as a model file's labels line holds them, split by spaces
    if len(names) < 2 or names != sorted(set(names)) or any([n] != n.split() for n in names):
        raise error("need two or more labels, sorted and distinct, without whitespace")


@dataclass
class LabeledDataset:
    X: np.ndarray
    labels: np.ndarray  # class ids into label_names
    label_names: List[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        k = len(self.label_names)
        _check_labels(self.label_names, InvalidInput)
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

    @property
    def k(self) -> int:
        return len(self.label_names)

    @property
    def not_converged(self) -> List[Tuple[int, int]]:
        """The class pairs whose solve stopped at max_iter or on a non-finite gap or bias."""
        return [p for p, b in zip(self.pair_index, self.binaries) if not b.converged]


def train_ovo(data: LabeledDataset, params: SvmParams, fingerprint: str = "",
              scaler: Optional[ScalerParams] = None) -> OvOModel:
    """Train k(k-1)/2 binary models, class i mapped to +1 and j to -1, in one smo_train_many."""
    return train_ovo_many(data, [params], fingerprint, scaler)[0]


def train_ovo_many(data: LabeledDataset, params: Sequence[SvmParams],
                   fingerprint: str = "", scaler: Optional[ScalerParams] = None) -> List[OvOModel]:
    """[train_ovo(data, q, ...) for q in params] in one smo_train_many.

    The pair problems are built once and shared by every setting, so pairs that
    differ only in C share one Gram block.
    """
    k = len(data.label_names)
    pairs = list(itertools.combinations(range(k), 2))
    counts = np.bincount(data.labels, minlength=k)
    missing = [name for name, count in zip(data.label_names, counts) if not count]
    if missing:
        raise InvalidInput(f"no training frames for class(es) {' '.join(missing)}")
    problems = []
    for i, j in pairs:
        mask = (data.labels == i) | (data.labels == j)
        y = np.where(data.labels[mask] == i, 1.0, -1.0)
        problems.append(BinaryProblem(data.X[mask], y))
    solved = smo_train_many(problems * len(params), [q for q in params for _pair in pairs])
    models = []
    for c in range(len(params)):
        binaries = solved[c * len(pairs) : (c + 1) * len(pairs)]
        models.append(OvOModel(
            label_names=list(data.label_names),
            pair_index=pairs,
            binaries=binaries,
            scaler=scaler,
            fingerprint=fingerprint,
        ))
    return models


def _support_table(model: OvOModel):
    """(kernel, U, rows): the pairs' one kernel, distinct support vectors and each pair's rows."""
    kernels = {b.kernel for b in model.binaries}
    dims = {b.support_vectors.shape[1] for b in model.binaries if len(b.support_vectors)}
    if len(kernels) > 1 or len(dims) > 1:
        raise InvalidInput("the pair classifiers differ in kernel or support-vector dimension")
    index = {}  # vec.tobytes() -> its row of U, in order of first use
    rows = [[index.setdefault(vec.tobytes(), len(index)) for vec in b.support_vectors]
            for b in model.binaries]
    U = np.frombuffer(b"".join(index), dtype=float).reshape(len(index), dims.pop() if dims else 0)
    return (kernels.pop() if kernels else Linear()), U, rows


def _votes_and_scores(model: OvOModel, X: np.ndarray):
    """Per-row vote counts and |f|-sums per class over all pair classifiers.

    All decision values come from one kernel matrix against the distinct
    support vectors U: F = K(X, U) @ coef + biases, with coef[u, pair] = alpha*y summed
    over the pair's copies of u.  A non-finite decision value is an InvalidInput.
    """
    kernel, U, rows = _support_table(model)
    if len(U) and U.shape[1] != X.shape[1]:
        raise InvalidInput("feature dimension mismatch")
    coef = np.zeros((len(U), len(rows)))
    cols = np.repeat(np.arange(len(rows)), [len(pair_rows) for pair_rows in rows])
    vals = np.concatenate([b.sv_alphas * b.sv_labels for b in model.binaries])
    np.add.at(coef, (np.fromiter(itertools.chain(*rows), int), cols), vals)
    with np.errstate(all="ignore"):
        F = (gram_matrix(kernel, X, U.reshape(len(U), X.shape[1])) @ coef
             + np.array([b.bias for b in model.binaries]))
    if not np.isfinite(F).all():
        raise InvalidInput("non-finite decision values; the model's kernel overflows")
    votes = np.zeros((X.shape[0], model.k), dtype=int)
    strength = np.zeros((X.shape[0], model.k))
    for (i, j), f in zip(model.pair_index, F.T):
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
    top = votes == votes.max(axis=1, keepdims=True)
    return np.argmax(np.where(top, strength, -np.inf), axis=1)  # first maximum: lowest id


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


def _number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"bad number {text!r} in {what}") from None
    if not math.isfinite(value):
        raise FormatError(f"non-finite number {text!r} in {what}")
    return value


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
        data[key] = _number(val, "kernel line")
    return kernel_from_dict(data)


def save_model(model: OvOModel, path) -> None:
    """Versioned text format; floats carry 17 significant digits.

    Labels, numbers or dimensions load_model would reject raise InvalidInput before any write.
    """
    _check_labels(model.label_names, InvalidInput)
    kernel, U, rows = _support_table(model)
    scaler = () if model.scaler is None else (model.scaler.mins, model.scaler.maxs)
    numbers = [U.ravel(), *scaler, [x for b in model.binaries for x in (b.bias, b.C)],
               *(b.sv_alphas for b in model.binaries)]
    if not np.isfinite(np.concatenate(numbers)).all():
        raise InvalidInput("the model holds a non-finite number; a model file cannot store it")
    if scaler and len(U) and U.shape[1] != model.scaler.dim:
        raise InvalidInput("the support vectors and the scaler differ in dimension")
    texts = [" ".join(_fmt(v) for v in u) for u in U]  # a vector shared by pairs, formatted once
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n")
        fh.write("labels " + " ".join(model.label_names) + "\n")
        fh.write("kernel " + _kernel_line(kernel) + "\n")
        fh.write("fingerprint " + (model.fingerprint or "-") + "\n")
        if model.scaler is not None:
            fh.write("scaler_min " + " ".join(_fmt(v) for v in model.scaler.mins) + "\n")
            fh.write("scaler_max " + " ".join(_fmt(v) for v in model.scaler.maxs) + "\n")
        else:
            fh.write("scaler none\n")
        fh.write(f"pairs {len(model.pair_index)}\n")
        for (i, j), binary, pair_rows in zip(model.pair_index, model.binaries, rows):
            fh.write(f"pair {i} {j} bias={_fmt(binary.bias)} C={_fmt(binary.C)} "
                     f"converged={int(binary.converged)} nsv={binary.sv_alphas.size}\n")
            for a, yl, u in zip(binary.sv_alphas, binary.sv_labels, pair_rows):
                fh.write(f"sv {_fmt(a)} {'+1' if yl > 0 else '-1'} {texts[u]}\n")
        fh.write("end\n")


def load_model(path) -> OvOModel:
    """Read a model file; any malformed or non-finite field raises FormatError."""
    with open(path, "r", encoding="utf-8") as fh:  # universal newlines: \r\n reads as \n
        return _read_model(fh)


def _read_model(lines) -> OvOModel:
    def next_line(expect=None):
        try:
            line = next(lines).rstrip("\n")
        except StopIteration:
            raise FormatError("truncated model file") from None
        except UnicodeDecodeError as exc:
            raise FormatError(f"model file is not UTF-8 text: {exc}") from None
        if expect is not None and not line.startswith(expect + " "):
            raise FormatError(f"expected {expect!r} line, got {line!r}")
        return line

    header = next_line().split()
    if len(header) != 2 or header[0] != MODEL_MAGIC:
        raise FormatError("not a vowelkit model file")
    if header[1] != str(MODEL_VERSION):
        raise FormatError(f"unsupported model version {header[1]}")
    label_names = next_line("labels").split()[1:]
    _check_labels(label_names, FormatError)
    kernel = _parse_kernel_line(next_line("kernel").split(" ", 1)[1])
    fingerprint = next_line("fingerprint").split(" ", 1)[1]
    scaler_line = next_line()
    if scaler_line == "scaler none":
        scaler = None
    elif scaler_line.startswith("scaler_min "):
        mins = [_number(v, "scaler_min") for v in scaler_line.split()[1:]]
        maxs = [_number(v, "scaler_max") for v in next_line("scaler_max").split()[1:]]
        scaler = ScalerParams(mins, maxs)
    else:
        raise FormatError(f"expected scaler block, got {scaler_line!r}")
    k = len(label_names)
    try:
        if int(next_line("pairs").split()[1]) != k * (k - 1) // 2:
            raise ValueError(f"need every class pair of {k} classes once")
    except (ValueError, IndexError) as exc:
        raise FormatError(f"bad pair count: {exc}") from exc
    dim = scaler.dim if scaler is not None else None
    vectors = {}  # vector text -> parsed vector, so a shared vector is parsed once
    pair_index = []
    binaries = []
    for pair in itertools.combinations(range(k), 2):
        fields = next_line("pair").split()
        try:
            attrs = dict(f.split("=", 1) for f in fields[3:])
            bias = _number(attrs["bias"], "pair line")
            c_val = _number(attrs["C"], "pair line")
            converged = bool(int(attrs["converged"]))
            nsv = int(attrs["nsv"])
            if (int(fields[1]), int(fields[2])) != pair or nsv < 0:  # every pair once, in order
                raise ValueError
        except (KeyError, ValueError, IndexError) as exc:
            raise FormatError(f"bad pair line: {fields!r}") from exc
        alphas, labels, vecs = [], [], []
        for _ in range(nsv):
            fields = next_line("sv").split(None, 3)  # sv, alpha, label, vector text
            if len(fields) != 4 or fields[2] not in ("+1", "-1"):
                raise FormatError(f"bad sv line: {fields[:3]!r}")
            if fields[3] not in vectors:
                vec = np.array([_number(v, "sv line") for v in fields[3].split()])
                dim = vec.size if dim is None else dim
                if vec.size != dim:
                    raise FormatError(f"support vector of dimension {vec.size}, expected {dim}")
                vectors[fields[3]] = vec
            alphas.append(_number(fields[1], "sv line"))
            labels.append(1.0 if fields[2] == "+1" else -1.0)
            vecs.append(vectors[fields[3]])
        pair_index.append(pair)
        binaries.append(BinaryModel(np.array(vecs, dtype=float).reshape(nsv, dim or 0), alphas,
                                    labels, bias, kernel, converged=converged, C=c_val))
    if next_line() != "end":
        raise FormatError("missing end marker")
    return OvOModel(label_names, pair_index, binaries, scaler,
                    "" if fingerprint == "-" else fingerprint)
