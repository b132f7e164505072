"""One-against-one multiclass SVM with majority voting and model persistence."""

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import FormatError, InvalidInput
from .kernels import KERNEL_KINDS, KernelSpec, gram_matrix
from .preprocessing import ScalerParams
from .svm import BinaryModel, BinaryProblem, SvmParams, smo_train_many

MODEL_MAGIC = "vowelkit-svmodel"
MODEL_VERSION = 1


def _check_labels(names) -> None:
    names = list(names)  # as a model file's labels line holds them, split by spaces
    if len(names) < 2 or names != sorted(set(names)) or any([n] != n.split() for n in names):
        raise InvalidInput("need two or more labels, sorted and distinct, without whitespace")


@dataclass
class LabeledDataset:
    X: np.ndarray
    labels: np.ndarray  # class ids into label_names
    label_names: List[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        k = len(self.label_names)
        _check_labels(self.label_names)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= k):
            raise InvalidInput("class ids must be in [0, k)")
        if self.X.shape[0] != self.labels.size:
            raise InvalidInput("one label per feature row required")


@dataclass(frozen=True)
class OvOModel:
    """One binary model per class pair (i, j), i < j, in pair_index order; i is the +1 class.

    The constructor makes every structural check and builds the read-only prediction table
    _support_table = (kernel, U, rows, coef, bias, cols, first): distinct support vectors U, each
    pair's rows of U, alpha*y per U row and pair, biases, each class's pairs and its +1 side.
    """

    label_names: Sequence[str]  # held as a tuple, as are the binaries
    binaries: Sequence[BinaryModel]
    scaler: Optional[ScalerParams] = None
    fingerprint: str = ""
    _support_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "label_names", tuple(self.label_names))
        object.__setattr__(self, "binaries", tuple(self.binaries))
        _check_labels(self.label_names)
        n_pairs = self.k * (self.k - 1) // 2
        if len(self.binaries) != n_pairs:
            raise InvalidInput(f"{self.k} labels need {n_pairs} pair classifiers, "
                               f"got {len(self.binaries)}")
        kernel, *other_kernels = {b.kernel for b in self.binaries}
        dims = {b.support_vectors.shape[1] for b in self.binaries if len(b.support_vectors)}
        if other_kernels or len(dims) > 1:
            raise InvalidInput("the pair classifiers differ in kernel or support-vector dimension")
        if self.scaler is not None and dims and dims != {self.scaler.dim}:
            raise InvalidInput("the support vectors and the scaler differ in dimension")
        index = {}  # vec.tobytes() -> its row of U, in order of first use
        rows = tuple(np.array([index.setdefault(vec.tobytes(), len(index))
                               for vec in b.support_vectors], dtype=int) for b in self.binaries)
        U = np.frombuffer(b"".join(index)).reshape(len(index), dims.pop() if dims else 0)
        coef = np.zeros((len(U), n_pairs))  # alpha*y summed over a pair's copies of a vector
        np.add.at(coef, (np.concatenate(rows),
                         np.repeat(np.arange(n_pairs), [len(pair_rows) for pair_rows in rows])),
                  np.concatenate([b.sv_alphas * b.sv_labels for b in self.binaries]))
        bias = np.array([b.bias for b in self.binaries])
        classes = np.arange(self.k)[:, None, None]
        cols = np.nonzero((np.array(self.pair_index) == classes).any(axis=2))[1].reshape(self.k, -1)
        first = np.arange(self.k - 1) >= classes[:, 0]  # class c is second in its first c pairs
        for array in (*rows, coef, bias, cols, first):  # U is read-only already, a view of bytes
            array.flags.writeable = False
        object.__setattr__(self, "_support_table", (kernel, U, rows, coef, bias, cols, first))

    @property
    def k(self) -> int:
        return len(self.label_names)

    @property
    def pair_index(self) -> List[Tuple[int, int]]:
        """Every class pair (i, j), i < j, once, in order."""
        return list(itertools.combinations(range(self.k), 2))

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
    n = len(pairs)
    return [OvOModel(data.label_names, solved[c * n : (c + 1) * n], scaler, fingerprint)
            for c in range(len(params))]


def _votes_and_scores(model: OvOModel, X: np.ndarray):
    """Per-row vote counts and |f|-sums per class over all pair classifiers.

    F = K(X, U) @ coef + bias from the model's table; a non-finite f is an InvalidInput.  A class
    wins where f >= 0 as a pair's first class, f < 0 as its second, and adds |f| in pair order.
    """
    kernel, U, _rows, coef, bias, cols, first = model._support_table
    with np.errstate(all="ignore"):  # gram_matrix checks the dimension
        F = gram_matrix(kernel, X, U if len(U) else U.reshape(0, X.shape[1])) @ coef + bias
    if not np.isfinite(F).all():
        raise InvalidInput("non-finite decision values; the model's kernel overflows")
    votes = ((F[:, cols] >= 0.0) == first).sum(axis=2)
    return votes, np.cumsum(np.abs(F)[:, cols], axis=2)[:, :, -1]


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
    """The kind, then key=value over the spec's fields in sorted order; int fields as integers."""
    kind = next((kind for kind, cls in KERNEL_KINDS.items() if type(spec) is cls), None)
    if kind is None:
        raise InvalidInput(f"unknown kernel spec: {spec!r}")
    parts = [kind]
    for f in sorted(fields(spec), key=lambda f: f.name):
        value = getattr(spec, f.name)
        parts.append(f"{f.name}={int(value) if f.type is int else _fmt(value)}")
    return " ".join(parts)


def _key_values(items: List[str], keys, what: str) -> dict:
    """key=value items as {key: value text}, with each of keys once and no other key."""
    texts = dict(item.partition("=")[::2] for item in items)
    if len(texts) != len(items) or texts.keys() != set(keys):
        raise FormatError(f"{what} needs each of {sorted(keys)} once, got {items!r}")
    return texts


def _parse_kernel_line(line: str) -> KernelSpec:
    """The inverse of _kernel_line: a known kind and each of its fields once, as finite numbers."""
    kind, *items = line.split() or [""]
    if kind not in KERNEL_KINDS:
        raise FormatError(f"unknown kernel kind {kind!r}")
    types = {f.name: f.type for f in fields(KERNEL_KINDS[kind])}
    args = {}
    for key, text in _key_values(items, types, f"kernel {kind}").items():
        value = _number(text, "kernel line")
        args[key] = int(value) if types[key] is int and value.is_integer() else value
    return KERNEL_KINDS[kind](**args)


def save_model(model: OvOModel, path) -> None:
    """Versioned text format; floats carry 17 significant digits.

    A kernel of no known kind or a non-finite number raises InvalidInput before any write:
    training can yield a NaN bias, and load_model would reject it.  The labels, pairs and
    dimensions were checked when the model was built.
    """
    kernel, U, rows = model._support_table[:3]
    kernel_line = _kernel_line(kernel)
    scaler = () if model.scaler is None else (model.scaler.mins, model.scaler.maxs)
    numbers = [U.ravel(), *scaler, [x for b in model.binaries for x in (b.bias, b.C)],
               *(b.sv_alphas for b in model.binaries)]
    if not np.isfinite(np.concatenate(numbers)).all():
        raise InvalidInput("the model holds a non-finite number; a model file cannot store it")
    texts = [" ".join(_fmt(v) for v in u) for u in U]  # a vector shared by pairs, formatted once
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION}\n")
        fh.write("labels " + " ".join(model.label_names) + "\n")
        fh.write("kernel " + kernel_line + "\n")
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
    """Read a model file; anything malformed, or refused by a constructor, raises FormatError."""
    with open(path, "r", encoding="utf-8") as fh:  # universal newlines: \r\n reads as \n
        try:
            return _read_model(fh)
        except InvalidInput as exc:
            raise FormatError(f"bad model file: {exc}") from exc


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
    if next_line("pairs").split()[1:] != [str(k * (k - 1) // 2)]:
        raise FormatError(f"bad pair count: need every class pair of {k} classes once")
    dim = None
    vectors = {}  # vector text -> parsed vector, so a shared vector is parsed once
    binaries = []
    for pair in itertools.combinations(range(k), 2):
        fields = next_line("pair").split()
        attrs = _key_values(fields[3:], ("bias", "C", "converged", "nsv"), "pair line")
        if (fields[1:3] != [str(i) for i in pair]  # every pair once, in order
                or attrs["converged"] not in ("0", "1") or not attrs["nsv"].isdecimal()):
            raise FormatError(f"bad pair line: {fields!r}")
        bias, c_val = (_number(attrs[key], "pair line") for key in ("bias", "C"))
        alphas, labels, vecs = [], [], []
        for _ in range(int(attrs["nsv"])):
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
        binaries.append(BinaryModel(np.array(vecs, dtype=float).reshape(len(vecs), dim or 0),
                                    alphas, labels, bias, kernel,
                                    converged=attrs["converged"] == "1", C=c_val))
    if next_line() != "end":
        raise FormatError("missing end marker")
    return OvOModel(label_names, binaries, scaler, "" if fingerprint == "-" else fingerprint)
