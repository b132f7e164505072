"""Per-attribute min-max scaling to [0, 1], fit on training data only."""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class ScalerParams:
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", np.asarray(self.mins, dtype=float))
        object.__setattr__(self, "maxs", np.asarray(self.maxs, dtype=float))
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise InvalidInput("mins/maxs must be 1-D vectors of equal length")
        if np.any(self.mins > self.maxs):
            raise InvalidInput("mins must not exceed maxs")

    @property
    def dim(self) -> int:
        return self.mins.size


def fit_scaler(train: np.ndarray) -> ScalerParams:
    train = np.asarray(train, dtype=float)
    if train.ndim != 2 or train.size == 0:
        raise InvalidInput("training matrix must be non-empty")
    return ScalerParams(train.min(axis=0), train.max(axis=0))


def apply_scaler(params: ScalerParams, x: np.ndarray) -> np.ndarray:
    """(x - min)/(max - min) per column, clamped to [0, 1].

    Constant columns (max == min) map to 0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise InvalidInput(f"expected a matrix of {params.dim} columns, got shape {x.shape}")
    span = params.maxs - params.mins
    safe = np.where(span > 0.0, span, 1.0)
    y = np.clip((x - params.mins) / safe, 0.0, 1.0)
    y[:, span == 0.0] = 0.0
    return y
