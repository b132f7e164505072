"""Binary soft-margin SVM trained in the dual by sequential minimal optimization.

SMO with second-order working-set selection (Fan, Chen & Lin, JMLR 2005):
a gradient vector is kept, i maximizes the KKT violation and j the second-order
gain, and one clipped two-variable update follows.  Training stops when the
violation gap m(alpha) - M(alpha) is at most kkt_tol.  Indefinite kernels
(sigmoid) replace a non-positive curvature by TAU (Chen, Fan & Lin, IEEE TNN
2006), so every step still decreases the objective.

smo_train_many solves many problems at once, as the one-vs-one pairs of a
multiclass SVM, or those pairs under every (kernel, C) of a grid (ThunderSVM;
Wen et al., JMLR 2018); smo_train is a batch of one.  Each problem has its own
SvmParams: C, kkt_tol and max_iter are per-row state.  The problems' states are
stacked as zero-padded (P, L) arrays and every step selects and updates all
active problems together (Catanzaro, Sundaram & Keutzer, ICML 2008).  The
step is _smo_loop's expressions applied to all rows, so a model is the same bit
for bit whatever batch it is solved in.  A Gram block belongs to a
(problem object, kernel) key, so problems that differ only in C share one
block.  A problem that stops leaves the stack; when one is left its state row
continues in _smo_loop, which costs less per update.  Batches count distinct
blocks: a batch's blocks hold at most FULL_GRAM_LIMIT**2 entries, the size of
the largest single Gram.  A problem with more than FULL_GRAM_LIMIT rows is a
batch of its own: it goes straight to _smo_loop on LRU-cached Gram rows.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Union

import numpy as np

from .errors import InvalidInput
from .kernels import KernelSpec, gram_matrix

FULL_GRAM_LIMIT = 4000
ROW_CACHE_SIZE = 512
TAU = 1e-12


@dataclass
class BinaryProblem:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.size:
            raise InvalidInput("X must be (l, d) with one label per row")
        if self.X.shape[0] < 2:
            raise InvalidInput("need at least two training points")
        if not np.all(np.isfinite(self.X)):
            raise InvalidInput("training points must be finite")
        pos = self.y == 1.0
        if pos.all() or not pos.any() or not np.all(pos | (self.y == -1.0)):
            raise InvalidInput("labels must contain both -1 and +1")


@dataclass
class SvmParams:
    C: float
    kernel: KernelSpec
    kkt_tol: float = 1e-3
    max_passes: int = 10  # accepted for compatibility; the solver does not read it
    max_iter: int = 0  # 0 means 100 * l, fixed at train time

    def __post_init__(self):
        if not math.isfinite(self.C) or self.C <= 0.0:
            raise InvalidInput("C must be finite and > 0")
        if not math.isfinite(self.kkt_tol) or self.kkt_tol <= 0.0:
            raise InvalidInput("kkt_tol must be finite and > 0")
        if self.max_iter < 0:
            raise InvalidInput("max_iter must be >= 0")


@dataclass(frozen=True)
class BinaryModel:
    """A solved pair; holds read-only copies of its (n, d) support vectors, alphas and labels."""

    support_vectors: np.ndarray
    sv_alphas: np.ndarray
    sv_labels: np.ndarray
    bias: float
    kernel: KernelSpec
    converged: bool = True
    n_iter: int = 0
    C: float = field(default=0.0)
    gap: float = float("nan")  # final m(alpha) - M(alpha); not stored in model files

    def __post_init__(self):
        for name in ("support_vectors", "sv_alphas", "sv_labels"):
            value = np.array(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if (self.support_vectors.ndim != 2
                or {self.sv_alphas.shape, self.sv_labels.shape} != {self.support_vectors.shape[:1]}
                or not set(self.sv_labels.tolist()) <= {-1.0, 1.0}):
            raise InvalidInput("need support vectors (n, d), each with an alpha and a +1/-1 label")


def smo_train(problem: BinaryProblem, params: SvmParams) -> BinaryModel:
    """Solve the dual until m(alpha) - M(alpha) <= params.kkt_tol; see module docstring.

    Each update moves the pair (i, j) chosen by second-order working-set
    selection.  After max_iter updates, or on a non-finite gap or bias, the model
    is flagged converged=False but remains usable; its gap tells how far from
    optimal it stopped.  A batch of one of smo_train_many.
    """
    return smo_train_many([problem], params)[0]


def _max_iter(params: SvmParams, l: int) -> int:
    return params.max_iter if params.max_iter > 0 else 100 * l


def _smo_loop(row, diag, lo, hi, kkt_tol, max_iter, w, v, n_iter):
    """Run updates from the state (w, v, n_iter) until the stopping rule holds.

    w and v are updated in place; returns (n_iter, m, M) at the stop.
    """
    while True:
        v_up = np.where(w < hi, v, -np.inf)
        i = int(v_up.argmax())
        v_low = np.where(w > lo, v, np.inf)
        m, M = v_up[i], v_low.min()
        if m - M <= kkt_tol or n_iter >= max_iter:
            return n_iter, m, M
        k_i = row(i)
        b = np.maximum(m - v_low, 0.0)  # zero outside I_low and wherever v >= m
        a = diag - 2.0 * k_i
        a += diag[i]
        a = np.where(a > 0.0, a, TAU)
        j = int((b * b / a).argmax())
        # step t along alpha_i += y_i t, alpha_j -= y_j t, that is w_i += t, w_j -= t,
        # clipped to the box
        cap_i, cap_j = hi[i] - w[i], w[j] - lo[j]
        t = min(b[j] / a[j], cap_i, cap_j)
        w[i] = hi[i] if t == cap_i else w[i] + t
        w[j] = lo[j] if t == cap_j else w[j] - t
        v -= t * (k_i - row(j))  # the gradient moves by t y (K_i - K_j), and y y = 1
        n_iter += 1


def _model(problem: BinaryProblem, params: SvmParams, w, v, n_iter, m, M) -> BinaryModel:
    C = float(params.C)
    gap = float(m - M)
    alpha = np.abs(w)
    free = (alpha > 0.0) & (alpha < C)
    bias = float(v[free].mean()) if free.any() else float(0.5 * (m + M))
    sv = alpha > 0.0
    return BinaryModel(
        support_vectors=problem.X[sv],
        sv_alphas=alpha[sv],
        sv_labels=problem.y[sv],
        bias=bias,
        kernel=params.kernel,
        converged=math.isfinite(gap) and math.isfinite(bias) and gap <= params.kkt_tol,
        n_iter=int(n_iter),
        C=C,
        gap=gap,
    )


def smo_train_many(problems: Sequence[BinaryProblem],
                   params: Union[SvmParams, Sequence[SvmParams]]) -> List[BinaryModel]:
    """Train one model per problem, every batch of them in one lock-step loop.

    params is one SvmParams for every problem or one per problem.  The same
    problem object under the same kernel has one Gram block, whatever its C.
    Taken in order of their block's first appearance, problems go into batches
    whose distinct blocks hold at most FULL_GRAM_LIMIT**2 entries; a problem
    above FULL_GRAM_LIMIT rows is a batch of its own.  See the module docstring.
    """
    if isinstance(params, SvmParams):
        params = [params] * len(problems)
    if len(params) != len(problems):
        raise InvalidInput("need one SvmParams for all problems or one per problem")
    models = [None] * len(problems)
    blocks = {}  # Gram block key -> the positions of its problems
    for n, (problem, q) in enumerate(zip(problems, params)):
        blocks.setdefault((id(problem), q.kernel), []).append(n)
    batches, alone, width, n_blocks = [[]], [], 0, 0
    for members in blocks.values():
        l = problems[members[0]].y.size
        if l > FULL_GRAM_LIMIT:
            alone += [[n] for n in members]
            continue
        width = max(width, l)
        if (n_blocks + 1) * width * width > FULL_GRAM_LIMIT**2:
            batches.append([])
            width, n_blocks = l, 0
        batches[-1] += members
        n_blocks += 1
    for batch in filter(None, batches + alone):
        solved = _lockstep([problems[n] for n in batch], [params[n] for n in batch])
        for n, model in zip(batch, solved):
            models[n] = model
    return models


def _lockstep(problems: List[BinaryProblem], params: List[SvmParams]) -> List[BinaryModel]:
    """_smo_loop's updates over the states of P >= 1 problems stacked as (P, L).

    One problem above FULL_GRAM_LIMIT rows reads LRU-cached Gram rows instead of
    a full block: same values, less memory.
    """
    sizes = [p.y.size for p in problems]
    P, L = len(problems), max(sizes)
    diag, y = np.zeros((P, L)), np.zeros((P, L))
    base = np.zeros(P, dtype=int)  # each problem's block offset in G
    G = None
    if L > FULL_GRAM_LIMIT:  # one problem, on cached rows
        X, kernel = problems[0].X, params[0].kernel
        diag[0] = [gram_matrix(kernel, X[t : t + 1])[0, 0] for t in range(L)]
        cached_row = functools.lru_cache(maxsize=ROW_CACHE_SIZE)(
            lambda i: gram_matrix(kernel, X[i : i + 1], X)[0]
        )
        y[0] = problems[0].y
    else:
        # G stacks one Gram block per (problem object, kernel) key, L rows apart; a single
        # block is G itself, not a copy in a zero-filled stack
        keys = [(id(p), q.kernel) for p, q in zip(problems, params)]
        n_blocks = len(set(keys))
        G = (np.zeros((n_blocks * L, L)) if n_blocks > 1
             else gram_matrix(params[0].kernel, problems[0].X))
        offsets = {}  # key -> its block's offset
        for r, (problem, q, key, l) in enumerate(zip(problems, params, keys, sizes)):
            if key not in offsets:
                offsets[key] = len(offsets) * L
                if n_blocks > 1:
                    G[offsets[key] : offsets[key] + l, :l] = gram_matrix(q.kernel, problem.X)
            base[r] = offsets[key]
            diag[r, :l] = np.diag(G[base[r] : base[r] + l, :l])
            y[r, :l] = problem.y
    # the state is w = y * alpha, so alpha = |w|, and w lies in [lo, hi]: [0, C] where
    # y = +1 and [-C, 0] where y = -1.  I_up is w < hi and I_low is w > lo.  A padded
    # slot has y = 0 and lo = hi = 0, which keeps it out of I_up and I_low.
    C = np.array([q.C for q in params], dtype=float)[:, None]
    lo, hi = np.where(y < 0.0, -C, 0.0), np.where(y > 0.0, C, 0.0)
    # v = -y * gradient of 0.5 a'Qa - e'a (Q = yy'K), which is y at a = 0; y is not needed again
    w, v = np.zeros((P, L)), y
    kkt_tol = np.array([q.kkt_tol for q in params])
    max_iter = np.array([_max_iter(q, l) for q, l in zip(params, sizes)])
    n_iter, budget = 0, max_iter.min()  # every active problem has made n_iter updates
    ids = np.arange(P)  # the problem in each row of the state
    rows = ids * L  # flat index of each row's slot 0 in the state
    models = [None] * P
    while ids.size > 1:
        v_up = np.where(w < hi, v, -np.inf)
        v_low = np.where(w > lo, v, np.inf)
        i = v_up.argmax(axis=1)
        fi = rows + i
        m, M = v_up.take(fi), v_low.min(axis=1)
        stop = m - M <= kkt_tol
        if n_iter >= budget:
            stop |= n_iter >= max_iter
        if stop.any():
            for r in np.flatnonzero(stop):
                p, l = ids[r], sizes[ids[r]]
                models[p] = _model(problems[p], params[p], w[r, :l], v[r, :l], n_iter, m[r], M[r])
            keep = ~stop
            w, v, lo, hi, diag, base, kkt_tol, max_iter, ids = (
                x[keep] for x in (w, v, lo, hi, diag, base, kkt_tol, max_iter, ids))
            rows, budget = rows[: ids.size], max_iter.min() if ids.size else 0
            continue
        k_i = G.take(base + i, axis=0)
        b = np.maximum(m[:, None] - v_low, 0.0)
        a = diag - 2.0 * k_i
        a += diag.take(fi)[:, None]
        a = np.where(a > 0.0, a, TAU)
        j = (b * b / a).argmax(axis=1)
        fj = rows + j
        # _smo_loop's clipped step
        hi_i, w_i, lo_j, w_j = hi.take(fi), w.take(fi), lo.take(fj), w.take(fj)
        cap_i, cap_j = hi_i - w_i, w_j - lo_j
        t = np.minimum(np.minimum(b.take(fj) / a.take(fj), cap_i), cap_j)
        w.put(fi, np.where(t == cap_i, hi_i, w_i + t))
        w.put(fj, np.where(t == cap_j, lo_j, w_j - t))
        v -= t[:, None] * (k_i - G.take(base + j, axis=0))
        n_iter += 1
    if ids.size:  # the last problem continues in _smo_loop, cheaper for one
        p, l, g = ids[0], sizes[ids[0]], base[0]
        row = cached_row if G is None else G[g : g + l, :l].__getitem__
        w, v = w[0, :l], v[0, :l]
        n, m, M = _smo_loop(row, diag[0, :l], lo[0, :l], hi[0, :l], kkt_tol[0], max_iter[0],
                            w, v, n_iter)
        models[p] = _model(problems[p], params[p], w, v, n, m, M)
    return models


def decision_values(model: BinaryModel, X: np.ndarray) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(sv_i, x) + b for each row of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidInput("X must be a matrix")
    if model.support_vectors.shape[0] == 0:
        return np.full(X.shape[0], model.bias)
    if X.shape[1] != model.support_vectors.shape[1]:
        raise InvalidInput("feature dimension mismatch")
    k = gram_matrix(model.kernel, X, model.support_vectors)
    return k @ (model.sv_alphas * model.sv_labels) + model.bias


def dual_objective(model: BinaryModel, problem: BinaryProblem) -> float:
    """sum(alpha) - 0.5 * sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)."""
    if model.sv_alphas.size == 0:
        return 0.0
    coef = model.sv_alphas * model.sv_labels
    k = gram_matrix(model.kernel, model.support_vectors)
    return float(model.sv_alphas.sum() - 0.5 * coef @ k @ coef)
