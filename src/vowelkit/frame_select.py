"""Reduce a phoneme's frames to K representatives: middle window or FCM.

select_frames_many runs fuzzy c-means for every token of a call together:
tokens of the same shape are stacked and iterated in one lock-step loop, and
a token that converges or reaches max_iter leaves the stack with its state.
Each token's arithmetic is the one-token loop's, so the picks, centers and
memberships are the same bit for bit; fcm_cluster is a batch of one.  All
tokens of one frame count form one stack.  Distances go through one reused
buffer, one center at a time unless the stack is small, so memory grows with
the input.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .errors import InvalidInput

# a stack whose center differences fit in this many entries (512 KB) takes all centers at
# once and makes no per-center numpy calls; a larger one takes one center at a time
ALL_CENTERS_ENTRIES = 1 << 16


def _check_fcm(m, tol, max_iter, seed):
    if not math.isfinite(m) or m <= 1.0:
        raise InvalidInput("fuzzifier m must be finite and > 1")
    if not math.isfinite(tol) or tol <= 0.0:
        raise InvalidInput("tol must be finite and > 0")
    if max_iter < 1:
        raise InvalidInput("max_iter must be >= 1")
    if seed < 0:
        raise InvalidInput(f"fcm seed must be >= 0, got {seed}")


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
        _check_fcm(self.m, self.tol, self.max_iter, self.seed)


SelectionMethod = Union[MiddleFrames, Fcm]


@dataclass
class FcmState:
    centers: np.ndarray  # (c, D)
    membership: np.ndarray  # (N, c), rows sum to 1
    objective: float
    n_iter: int


def _feature_matrix(features) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] == 0:
        raise InvalidInput("feature matrix must be non-empty")
    return features


def select_middle(features: np.ndarray, k: int) -> np.ndarray:
    """Centered window of min(k, N) rows, original order preserved."""
    features = _feature_matrix(features)
    n = features.shape[0]
    if n <= k:
        return features.copy()
    start = (n - k) // 2
    return features[start : start + k].copy()


def _memberships(features, centers, m):
    """Memberships and squared distances of (..., N, D) points to (..., c, D) centers.

    A point that sits on a center belongs to it alone.
    """
    # squared distances through one reused buffer (see ALL_CENTERS_ENTRIES); exponent
    # 1/(m-1) on squared distance equals 2/(m-1) on the Euclidean distance
    one = np.broadcast(features, centers[..., :1, :])  # one center's (..., N, D)
    c = centers.shape[-2]
    step = c if one.size * c <= ALL_CENTERS_ENTRIES else 1
    diff = np.empty(one.shape[:-1] + (step, one.shape[-1]))
    d2 = np.empty(one.shape[:-1] + (c,))
    for k in range(0, c, step):
        np.subtract(features[..., :, None, :], centers[..., None, k : k + step, :], out=diff)
        np.add.reduce(np.square(diff, out=diff), axis=-1, out=d2[..., k : k + step])
    zero = d2.min(axis=-1) == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = d2 ** (-1.0 / (m - 1.0))
        u = inv / inv.sum(axis=-1, keepdims=True)
    if zero.any():
        u[zero] = 0.0
        u[np.nonzero(zero) + (d2[zero].argmin(axis=-1),)] = 1.0
    return u, d2


def _fcm_lockstep(x: np.ndarray, c: int, m: float, tol: float, max_iter: int,
                  seed: int) -> List[FcmState]:
    """Bezdek fuzzy c-means of every (N, D) token of x (B, N, D), in one loop.

    Every token starts from the same seeded choice of c frames, as a
    one-token call with that seed would.  A token leaves the stack once its
    largest center displacement drops below tol, or after max_iter
    iterations; its state is the memberships before and the centers after
    its last update.  A cluster that no frame belongs to keeps its center,
    which happens when c == N and two frames are equal.
    """
    B, n, _ = x.shape
    centers = x[:, np.random.default_rng(seed).choice(n, size=c, replace=False)]
    u_next, _ = _memberships(x, centers, m)
    states = [None] * B
    ids = np.arange(B)  # the token in each row of the stack
    it = 0
    while ids.size:
        it += 1
        u = u_next  # the memberships of the current centers, computed once
        um = u**m
        new_centers = np.matmul(um.transpose(0, 2, 1), x)
        weight = um.sum(axis=1)
        empty = weight == 0.0  # a cluster that no frame belongs to keeps its center
        if empty.any():
            new_centers[empty], weight[empty] = centers[empty], 1.0
        new_centers /= weight[:, :, None]
        shift = np.abs(new_centers - centers).max(axis=(1, 2))
        centers = new_centers
        u_next, d2 = _memberships(x, centers, m)
        stop = (shift < tol) | (it >= max_iter)
        if stop.any():
            for r in np.flatnonzero(stop):
                # copies, so that a finished token holds no view of the stack
                states[ids[r]] = FcmState(centers=centers[r].copy(), membership=u[r].copy(),
                                          objective=float((um[r] * d2[r]).sum()), n_iter=it)
            keep = ~stop
            x, centers, u_next, ids = x[keep], centers[keep], u_next[keep], ids[keep]
    return states


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
    displacement drops below tol; the objective is non-increasing.  A batch
    of one of the loop select_frames_many runs.
    """
    features = _feature_matrix(features)
    n = features.shape[0]
    if not 1 <= c <= n:
        raise InvalidInput(f"need 1 <= c <= N, got c={c}, N={n}")
    _check_fcm(m, tol, max_iter, seed)
    return _fcm_lockstep(features[None], c, m, tol, max_iter, seed)[0]


def select_frames(features: np.ndarray, method: SelectionMethod) -> np.ndarray:
    return select_frames_many([features], method)[0]


def select_frames_many(feature_list: Sequence[np.ndarray],
                       method: SelectionMethod) -> List[np.ndarray]:
    """[select_frames(f, method) for f in feature_list], with FCM run in lock-step.

    Tokens are grouped by shape, so no padding is needed, and each group is
    clustered as one stack.
    """
    feature_list = [_feature_matrix(f) for f in feature_list]
    if isinstance(method, MiddleFrames):
        return [select_middle(f, method.k) for f in feature_list]
    groups = {}
    for t, features in enumerate(feature_list):
        groups.setdefault(features.shape, []).append(t)
    out = [None] * len(feature_list)
    for (n, _d), members in groups.items():
        x = np.stack([feature_list[t] for t in members])
        states = _fcm_lockstep(x, min(method.k, n), method.m, method.tol, method.max_iter,
                               method.seed)
        for t, state in zip(members, states):
            picks = np.unique(state.membership.argmax(axis=0))  # sorted, one per cluster
            out[t] = feature_list[t][picks]
    return out
