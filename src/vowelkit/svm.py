"""Binary soft-margin SVM trained in the dual by sequential minimal optimization.

SMO with second-order working-set selection (Fan, Chen & Lin, JMLR 2005):
a gradient vector is kept, i maximizes the KKT violation and j the second-order
gain, and one clipped two-variable update follows.  Training stops when the
violation gap m(alpha) - M(alpha) is at most kkt_tol.  Indefinite kernels
(sigmoid) replace a non-positive curvature by TAU (Chen, Fan & Lin, IEEE TNN
2006), so every step still decreases the objective.
"""

import functools
from dataclasses import dataclass, field

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
        if set(np.unique(self.y)) != {-1.0, 1.0}:
            raise InvalidInput("labels must contain both -1 and +1")


@dataclass
class SvmParams:
    C: float
    kernel: KernelSpec
    kkt_tol: float = 1e-3
    max_passes: int = 10  # accepted for compatibility; the solver does not read it
    max_iter: int = 0  # 0 means 100 * l, fixed at train time

    def __post_init__(self):
        if self.C <= 0.0:
            raise InvalidInput("C must be > 0")
        if self.kkt_tol <= 0.0:
            raise InvalidInput("kkt_tol must be > 0")


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
    C = float(params.C)
    max_iter = params.max_iter if params.max_iter > 0 else 100 * l

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
    pos = y > 0
    up, low = pos.copy(), ~pos  # index sets I_up and I_low at alpha = 0
    n_iter = 0
    while True:
        v_up = np.where(up, v, -np.inf)
        i = int(v_up.argmax())
        v_low = np.where(low, v, np.inf)
        m, M = v_up[i], v_low.min()
        gap = float(m - M)
        if gap <= params.kkt_tol or n_iter >= max_iter:
            break
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

    free = (alpha > 0.0) & (alpha < C)
    bias = float(v[free].mean()) if free.any() else float(0.5 * (m + M))
    sv = alpha > 0.0
    return BinaryModel(
        support_vectors=X[sv],
        sv_alphas=alpha[sv],
        sv_labels=y[sv],
        bias=bias,
        kernel=kernel,
        converged=gap <= params.kkt_tol,
        n_iter=n_iter,
        C=C,
        gap=gap,
    )


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


def decision_value(model: BinaryModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidInput("x must be a vector")
    return float(decision_values(model, x[None, :])[0])


def predict_binary(model: BinaryModel, x: np.ndarray) -> int:
    """sign(f(x)) with f(x) = 0 mapped to +1."""
    return 1 if decision_value(model, x) >= 0.0 else -1


def compute_slacks(model: BinaryModel, problem: BinaryProblem) -> np.ndarray:
    """xi_i = max(0, 1 - y_i f(x_i)) over the training set."""
    f = decision_values(model, problem.X)
    return np.maximum(0.0, 1.0 - problem.y * f)


def dual_objective(model: BinaryModel, problem: BinaryProblem) -> float:
    """sum(alpha) - 0.5 * sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)."""
    if model.sv_alphas.size == 0:
        return 0.0
    coef = model.sv_alphas * model.sv_labels
    k = gram_matrix(model.kernel, model.support_vectors)
    return float(model.sv_alphas.sum() - 0.5 * coef @ k @ coef)
