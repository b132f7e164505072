"""Kernel functions, Gram-matrix assembly and a positive-semidefiniteness probe.

All three parametrized kernels share one scale parameter named sigma:
polynomial (sigma*x.y + r)^d, RBF exp(-sigma*||x-y||^2) and
sigmoid tanh(sigma*x.y + r).  Linear is the diagnostic special case x.y.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInput


def _require_finite(kind: str, **values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidInput(f"{kind} {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Polynomial:
    sigma: float = 1.0
    r: float = 0.0
    d: int = 3

    def __post_init__(self):
        _require_finite("polynomial", sigma=self.sigma, r=self.r)
        if self.sigma <= 0.0:
            raise InvalidInput("polynomial sigma must be > 0")
        if int(self.d) != self.d or self.d < 1:
            raise InvalidInput("polynomial degree must be an integer >= 1")


@dataclass(frozen=True)
class Rbf:
    sigma: float

    def __post_init__(self):
        _require_finite("RBF", sigma=self.sigma)
        if self.sigma <= 0.0:
            raise InvalidInput("RBF sigma must be > 0")


@dataclass(frozen=True)
class Sigmoid:
    sigma: float = 1.0
    r: float = 0.0

    def __post_init__(self):
        _require_finite("sigmoid", sigma=self.sigma, r=self.r)


@dataclass(frozen=True)
class Linear:
    pass


KernelSpec = Union[Polynomial, Rbf, Sigmoid, Linear]


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInput("x and y must be vectors of equal dimension")
    return float(gram_matrix(spec, x[None, :], y[None, :])[0, 0])


def gram_matrix(spec: KernelSpec, x: np.ndarray, y: np.ndarray = None) -> np.ndarray:
    """G[i, j] = K(x_i, y_j); symmetric when y is x (or omitted)."""
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise InvalidInput("X and Y must be matrices sharing the feature dimension")
    if isinstance(spec, Rbf):
        x2 = (x**2).sum(axis=1)[:, None]
        y2 = (y**2).sum(axis=1)[None, :]
        d2 = np.maximum(x2 + y2 - 2.0 * (x @ y.T), 0.0)
        return np.exp(-spec.sigma * d2)
    dots = x @ y.T
    if isinstance(spec, Polynomial):
        return (spec.sigma * dots + spec.r) ** spec.d
    if isinstance(spec, Sigmoid):
        return np.tanh(spec.sigma * dots + spec.r)
    if isinstance(spec, Linear):
        return dots
    raise InvalidInput(f"unknown kernel spec: {spec!r}")


def psd_check(gram: np.ndarray, tol: float = 1e-8):
    """Probe a symmetric Gram matrix; returns (is_psd, min_eigenvalue).

    is_psd holds when min eigenvalue >= -tol * max(1, trace).
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise InvalidInput("Gram matrix must be square")
    if np.abs(gram - gram.T).max() > 1e-9:
        raise InvalidInput("Gram matrix is not symmetric")
    min_eig = float(np.linalg.eigvalsh(gram).min())
    return min_eig >= -tol * max(1.0, float(np.trace(gram))), min_eig


KERNEL_KINDS = {"polynomial": Polynomial, "rbf": Rbf, "sigmoid": Sigmoid, "linear": Linear}


def make_kernel(kind: str, sigma: float) -> KernelSpec:
    """Grid-search constructor: one sigma knob, finite for every kind, defaults for the rest."""
    if kind not in KERNEL_KINDS:
        raise InvalidInput(f"unknown kernel kind: {kind!r}")
    _require_finite(kind, sigma=sigma)
    cls = KERNEL_KINDS[kind]
    return cls() if cls is Linear else cls(sigma=sigma)
