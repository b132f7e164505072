"""Reduce a phoneme's frames to K representatives: middle window or FCM."""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class MiddleFrames:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInput("K must be >= 1")


@dataclass(frozen=True)
class Fcm:
    k: int
    m: float = 2.0
    tol: float = 1e-5
    max_iter: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise InvalidInput("K must be >= 1")
        if self.m <= 1.0:
            raise InvalidInput("fuzzifier m must be > 1")
        if self.tol <= 0.0:
            raise InvalidInput("tol must be > 0")


SelectionMethod = Union[MiddleFrames, Fcm]


@dataclass
class FcmState:
    centers: np.ndarray  # (c, D)
    membership: np.ndarray  # (N, c), rows sum to 1
    objective: float
    n_iter: int


def select_middle(features: np.ndarray, k: int) -> np.ndarray:
    """Centered window of min(k, N) rows, original order preserved."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise InvalidInput("feature matrix must be non-empty")
    n = features.shape[0]
    if n <= k:
        return features.copy()
    start = (n - k) // 2
    return features[start : start + k].copy()


def _memberships(features, centers, m):
    # squared distances; exponent 1/(m-1) on squared distance equals
    # 2/(m-1) on the Euclidean distance
    d2 = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    zero_rows = np.where(d2.min(axis=1) == 0.0)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = d2 ** (-1.0 / (m - 1.0))
        u = inv / inv.sum(axis=1, keepdims=True)
    for i in zero_rows:
        u[i] = 0.0
        u[i, int(np.argmin(d2[i]))] = 1.0
    return u, d2


def fcm_cluster(
    features: np.ndarray,
    c: int,
    m: float = 2.0,
    tol: float = 1e-5,
    max_iter: int = 300,
    seed: int = 0,
) -> FcmState:
    """Bezdek fuzzy c-means; deterministic for a given seed.

    Alternates membership and center updates until the largest center
    displacement drops below tol; the objective is non-increasing.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise InvalidInput("feature matrix must be non-empty")
    n = features.shape[0]
    if not 1 <= c <= n:
        raise InvalidInput(f"need 1 <= c <= N, got c={c}, N={n}")
    if m <= 1.0:
        raise InvalidInput("fuzzifier m must be > 1")

    rng = np.random.default_rng(seed)
    centers = features[rng.choice(n, size=c, replace=False)].copy()
    u = None
    u_next, _ = _memberships(features, centers, m)
    objective = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        u = u_next  # the memberships of the current centers, computed once
        um = u**m
        new_centers = (um.T @ features) / um.sum(axis=0)[:, None]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        u_next, d2 = _memberships(features, centers, m)
        objective = float((um * d2).sum())
        if shift < tol:
            break
    return FcmState(centers=centers, membership=u, objective=objective, n_iter=it)


def fcm_select(
    features: np.ndarray,
    k: int,
    m: float = 2.0,
    tol: float = 1e-5,
    max_iter: int = 300,
    seed: int = 0,
) -> np.ndarray:
    """Pick one maximal-membership frame per cluster; rows in original order."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise InvalidInput("feature matrix must be non-empty")
    c = min(k, features.shape[0])
    state = fcm_cluster(features, c, m=m, tol=tol, max_iter=max_iter, seed=seed)
    picks = sorted({int(np.argmax(state.membership[:, j])) for j in range(c)})
    return features[picks].copy()


def select_frames(features: np.ndarray, method: SelectionMethod) -> np.ndarray:
    if isinstance(method, MiddleFrames):
        return select_middle(features, method.k)
    return fcm_select(
        features, method.k, m=method.m, tol=method.tol, max_iter=method.max_iter, seed=method.seed
    )
