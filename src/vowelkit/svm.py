"""Binary soft-margin SVM trained in the dual by sequential minimal optimization.

SMO with second-order working-set selection (Fan, Chen & Lin, JMLR 2005):
a gradient vector is kept, i maximizes the KKT violation and j the second-order
gain, and one clipped two-variable update follows.  Training stops when the
violation gap m(alpha) - M(alpha) is at most kkt_tol.  Indefinite kernels
(sigmoid) replace a non-positive curvature by TAU (Chen, Fan & Lin, IEEE TNN
2006), so every step still decreases the objective.

smo_train_many solves many problems at once, as the one-vs-one pairs of a
multiclass SVM, or those pairs under every (kernel, C) of a grid (ThunderSVM;
Wen et al., JMLR 2018).  Each problem has its own SvmParams: C, kkt_tol and
max_iter are per-row state.  The problems' states are stacked as zero-padded
(P, L) arrays and every step selects and updates all active problems together
(Catanzaro, Sundaram & Keutzer, ICML 2008).  The elementwise arithmetic of
each problem is smo_train's, so the models are the same bit for bit.  A Gram
block belongs to a (problem object, kernel) key, so problems that differ only
in C share one block.  A problem that stops leaves the stack; when one is left
it continues in smo_train's own loop, which costs less per update.  Batches
count distinct blocks: a batch's blocks hold at most FULL_GRAM_LIMIT**2
entries, the size of the largest single Gram.  A problem with more than
FULL_GRAM_LIMIT rows is solved alone with cached Gram rows.
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


@dataclass
class BinaryModel:
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
        self.support_vectors = np.asarray(self.support_vectors, dtype=float)
        self.sv_alphas = np.asarray(self.sv_alphas, dtype=float)
        self.sv_labels = np.asarray(self.sv_labels, dtype=float)


def smo_train(problem: BinaryProblem, params: SvmParams) -> BinaryModel:
    """Solve the dual until m(alpha) - M(alpha) <= params.kkt_tol; see module docstring.

    Each update moves the pair (i, j) chosen by second-order working-set
    selection.  After max_iter updates the model is flagged converged=False
    but remains usable; its gap tells how far from optimal it stopped.
    """
    X, y = problem.X, problem.y
    l = X.shape[0]
    kernel = params.kernel
    # a full Gram matrix below FULL_GRAM_LIMIT rows, LRU-cached rows above;
    # the policy only trades memory for time, values are identical either way
    if l <= FULL_GRAM_LIMIT:
        gram = gram_matrix(kernel, X)
        diag = np.diag(gram)
        row = gram.__getitem__
    else:
        diag = np.array([gram_matrix(kernel, X[t : t + 1])[0, 0] for t in range(l)])
        row = functools.lru_cache(maxsize=ROW_CACHE_SIZE)(
            lambda i: gram_matrix(kernel, X[i : i + 1], X)[0]
        )
    alpha = np.zeros(l)
    v = y.copy()  # -y * gradient of 0.5 a'Qa - e'a with Q = yy'K; the gradient is -1 at a = 0
    n_iter, m, M = _smo_loop(row, diag, y, params, _max_iter(params, l), alpha, v, 0)
    return _model(problem, params, alpha, v, n_iter, m, M)


def _max_iter(params: SvmParams, l: int) -> int:
    return params.max_iter if params.max_iter > 0 else 100 * l


def _smo_loop(row, diag, y, params, max_iter, alpha, v, n_iter):
    """Run updates from the state (alpha, v, n_iter) until the stopping rule holds.

    alpha and v are updated in place; returns (n_iter, m, M) at the stop.
    """
    C = float(params.C)
    pos = y > 0
    above, below = alpha > 0.0, alpha < C
    up, low = np.where(pos, below, above), np.where(pos, above, below)  # I_up and I_low
    while True:
        v_up = np.where(up, v, -np.inf)
        i = int(v_up.argmax())
        v_low = np.where(low, v, np.inf)
        m, M = v_up[i], v_low.min()
        if m - M <= params.kkt_tol or n_iter >= max_iter:
            return n_iter, m, M
        k_i = row(i)
        b = np.maximum(m - v_low, 0.0)  # zero outside I_low and wherever v >= m
        a = diag - 2.0 * k_i
        a += diag[i]
        a = np.where(a > 0.0, a, TAU)
        j = int((b * b / a).argmax())
        # step t along alpha_i += y_i t, alpha_j -= y_j t, clipped to the box
        cap_i = C - alpha[i] if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(b[j] / a[j], cap_i, cap_j)
        alpha[i] = (C if pos[i] else 0.0) if t == cap_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if pos[j] else C) if t == cap_j else alpha[j] - y[j] * t
        v -= t * (k_i - row(j))  # the gradient moves by t y (K_i - K_j), and y y = 1
        for s in (i, j):
            above, below = alpha[s] > 0.0, alpha[s] < C
            up[s], low[s] = (below, above) if pos[s] else (above, below)
        n_iter += 1


def _model(problem: BinaryProblem, params: SvmParams, alpha, v, n_iter, m, M) -> BinaryModel:
    C = float(params.C)
    gap = float(m - M)
    free = (alpha > 0.0) & (alpha < C)
    bias = float(v[free].mean()) if free.any() else float(0.5 * (m + M))
    sv = alpha > 0.0
    return BinaryModel(
        support_vectors=problem.X[sv],
        sv_alphas=alpha[sv],
        sv_labels=problem.y[sv],
        bias=bias,
        kernel=params.kernel,
        converged=gap <= params.kkt_tol,
        n_iter=int(n_iter),
        C=C,
        gap=gap,
    )


def smo_train_many(problems: Sequence[BinaryProblem],
                   params: Union[SvmParams, Sequence[SvmParams]]) -> List[BinaryModel]:
    """[smo_train(p, q) for p, q in zip(problems, params)], bit for bit, solved in lock-step.

    params is one SvmParams for every problem or one per problem.  The same
    problem object under the same kernel has one Gram block, whatever its C.
    Taken in order of their block's first appearance, problems go into batches
    whose distinct blocks hold at most FULL_GRAM_LIMIT**2 entries; a problem
    above FULL_GRAM_LIMIT rows goes to smo_train alone.  See the module docstring.
    """
    if isinstance(params, SvmParams):
        params = [params] * len(problems)
    if len(params) != len(problems):
        raise InvalidInput("need one SvmParams for all problems or one per problem")
    models = [None] * len(problems)
    blocks = {}  # Gram block key -> the positions of its problems
    for n, (problem, q) in enumerate(zip(problems, params)):
        if problem.y.size > FULL_GRAM_LIMIT:
            models[n] = smo_train(problem, q)
        else:
            blocks.setdefault((id(problem), q.kernel), []).append(n)
    batches, width, n_blocks = [[]], 0, 0
    for members in blocks.values():
        l = problems[members[0]].y.size
        width = max(width, l)
        if (n_blocks + 1) * width * width > FULL_GRAM_LIMIT**2:
            batches.append([])
            width, n_blocks = l, 0
        batches[-1] += members
        n_blocks += 1
    for batch in batches:
        solved = _lockstep([problems[n] for n in batch], [params[n] for n in batch])
        for n, model in zip(batch, solved):
            models[n] = model
    return models


def _lockstep(problems: List[BinaryProblem], params: List[SvmParams]) -> List[BinaryModel]:
    """One loop of smo_train's updates over every problem's state stacked as (P, L)."""
    if len(problems) <= 1:
        return [smo_train(p, q) for p, q in zip(problems, params)]
    sizes = [p.y.size for p in problems]
    P, L = len(problems), max(sizes)
    keys = [(id(p), q.kernel) for p, q in zip(problems, params)]
    # G stacks one Gram block per key, L rows apart, and base holds each problem's
    # block offset; the state is (P, L), zero-padded
    G = np.zeros((len(set(keys)) * L, L))
    offsets = {}  # key -> its block's offset
    base = np.empty(P, dtype=int)
    diag, y = np.zeros((P, L)), np.zeros((P, L))
    for r, (problem, q, key, l) in enumerate(zip(problems, params, keys, sizes)):
        if key not in offsets:
            offsets[key] = len(offsets) * L
            G[offsets[key] : offsets[key] + l, :l] = gram_matrix(q.kernel, problem.X)
        base[r] = offsets[key]
        diag[r, :l] = np.diag(G[base[r] : base[r] + l, :l])
        y[r, :l] = problem.y
    # the state is w = y * alpha, so alpha = |w|, and w lies in [lo, hi]: [0, C] where
    # y = +1 and [-C, 0] where y = -1.  I_up is w < hi and I_low is w > lo; a padded
    # slot has y = 0 and lo = hi = 0, which keeps it out of both.
    C = np.array([q.C for q in params], dtype=float)[:, None]
    lo, hi = np.where(y < 0.0, -C, 0.0), np.where(y > 0.0, C, 0.0)
    w, v = np.zeros((P, L)), y  # v = y at alpha = 0; y itself is not needed again
    kkt_tol = np.array([q.kkt_tol for q in params])
    max_iter = np.array([_max_iter(q, l) for q, l in zip(params, sizes)])
    n_iter, budget = 0, max_iter.min()  # every active problem has made n_iter updates
    ids = np.arange(P)  # the problem in each row of the state
    rows = ids * L  # flat index of each row's slot 0 in the state
    scratch = np.empty((2, P, L))
    b, curv = scratch
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
                models[p] = _model(problems[p], params[p], np.abs(w[r, :l]), v[r, :l], n_iter,
                                   m[r], M[r])
            keep = ~stop
            w, v, lo, hi, diag, base, kkt_tol, max_iter, ids = (
                x[keep] for x in (w, v, lo, hi, diag, base, kkt_tol, max_iter, ids))
            rows, budget = rows[: ids.size], max_iter.min() if ids.size else 0
            b, curv = scratch[:, : ids.size]
            continue
        k_i = G.take(base + i, axis=0)
        np.subtract(m[:, None], v_low, out=b)
        np.maximum(b, 0.0, out=b)
        np.multiply(k_i, 2.0, out=curv)
        np.subtract(diag, curv, out=curv)
        curv += diag.take(fi)[:, None]
        a = np.where(curv > 0.0, curv, TAU)
        j = np.divide(np.multiply(b, b, out=curv), a, out=curv).argmax(axis=1)
        fj = rows + j
        # smo_train's clipped step, with alpha_i + y_i t = y_i (w_i + t) and
        # alpha_j - y_j t = y_j (w_j - t) exactly, since y = +-1
        hi_i, w_i, lo_j, w_j = hi.take(fi), w.take(fi), lo.take(fj), w.take(fj)
        cap_i, cap_j = hi_i - w_i, w_j - lo_j
        t = np.minimum(np.minimum(b.take(fj) / a.take(fj), cap_i), cap_j)
        w.put(fi, np.where(t == cap_i, hi_i, w_i + t))
        w.put(fj, np.where(t == cap_j, lo_j, w_j - t))
        k_i -= G.take(base + j, axis=0)
        k_i *= t[:, None]
        v -= k_i
        n_iter += 1
    if ids.size:  # the last problem continues in smo_train's loop, cheaper for one
        p, l, g = ids[0], sizes[ids[0]], base[0]
        alpha, v = np.abs(w[0, :l]), v[0, :l].copy()
        n, m, M = _smo_loop(G[g : g + l, :l].__getitem__, diag[0, :l], problems[p].y,
                            params[p], max_iter[0], alpha, v, n_iter)
        models[p] = _model(problems[p], params[p], alpha, v, n, m, M)
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
