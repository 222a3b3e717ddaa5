"""Feature/target standardisation used by the GP and neural-network models.

The paper normalises GP targets "by removing the mean and scaling to
unit-variance for better regression performance" (Sec. 7.3); the same scaler
is reused for neural-network inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StandardScaler"]


class StandardScaler:
    """Removes the mean and scales to unit variance, column by column.

    Columns with zero variance are left unscaled (their scale is set to 1)
    so constant features do not produce NaNs.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.mean_ is not None

    def fit(self, values) -> "StandardScaler":
        """Learn per-column mean and standard deviation from ``values``."""
        arr = np.atleast_2d(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise ValueError("cannot fit a scaler on an empty array")
        self.mean_ = arr.mean(axis=0)
        scale = arr.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self.scale_ = scale
        return self

    def transform(self, values) -> np.ndarray:
        """Standardise ``values`` with the fitted statistics."""
        self._require_fitted()
        arr = np.atleast_2d(np.asarray(values, dtype=float))
        return (arr - self.mean_) / self.scale_

    def inverse_transform(self, values) -> np.ndarray:
        """Map standardised values back to the original units."""
        self._require_fitted()
        arr = np.atleast_2d(np.asarray(values, dtype=float))
        return arr * self.scale_ + self.mean_

    def inverse_transform_std(self, std_values) -> np.ndarray:
        """Map standard deviations back to the original units (no mean shift)."""
        self._require_fitted()
        arr = np.atleast_2d(np.asarray(std_values, dtype=float))
        return arr * self.scale_

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("StandardScaler used before fit()")
