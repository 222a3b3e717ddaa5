"""Covariance kernels for Gaussian-process regression.

The paper's online GP uses the Matérn kernel with ``nu = 2.5`` (a
generalisation of the RBF kernel) from scikit-learn, scaled by a constant
signal variance: ``ConstantKernel() * Matern52Kernel()``, the default of
:class:`~repro.models.gp.GaussianProcessRegressor`.  The kernels are
implemented here with log-parameterised hyper-parameters so they can be
optimised by maximising the marginal likelihood.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Kernel",
    "Matern52Kernel",
    "ConstantKernel",
    "ProductKernel",
]


def _pairwise_sq_dists(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every pair of rows of ``x1`` and ``x2``."""
    sq1 = np.sum(x1**2, axis=1)[:, None]
    sq2 = np.sum(x2**2, axis=1)[None, :]
    sq = sq1 + sq2 - 2.0 * (x1 @ x2.T)
    return np.maximum(sq, 0.0)


class Kernel:
    """Base class: kernels expose their log hyper-parameters as a flat vector."""

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Evaluate the kernel matrix between two point sets."""
        raise NotImplementedError

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Diagonal of ``self(x, x)`` without building the full matrix."""
        return np.diag(self(x, x))

    def get_log_params(self) -> np.ndarray:
        """The kernel's tunable log-parameters as a flat vector."""
        raise NotImplementedError

    def set_log_params(self, log_params: np.ndarray) -> None:
        """Set the kernel's log-parameters from a flat vector."""
        raise NotImplementedError

    @property
    def n_params(self) -> int:
        """Number of tunable log hyper-parameters."""
        return len(self.get_log_params())

    def bounds(self) -> list[tuple[float, float]]:
        """Log-space bounds for each hyper-parameter."""
        return [(-6.0, 6.0)] * self.n_params

    def __mul__(self, other: "Kernel") -> "ProductKernel":
        """The product kernel of ``self`` and ``other``."""
        return ProductKernel(self, other)


class Matern52Kernel(Kernel):
    """Matérn kernel with smoothness ``nu = 2.5`` (the paper's choice)."""

    def __init__(self, length_scale: float = 1.0) -> None:
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        self.length_scale = float(length_scale)

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Evaluate the kernel matrix between two point sets."""
        sq = _pairwise_sq_dists(np.atleast_2d(x1), np.atleast_2d(x2))
        dist = np.sqrt(sq)
        scaled = np.sqrt(5.0) * dist / self.length_scale
        return (1.0 + scaled + scaled**2 / 3.0) * np.exp(-scaled)

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Diagonal of the kernel matrix of ``points``."""
        return np.ones(len(np.atleast_2d(x)))

    def get_log_params(self) -> np.ndarray:
        """The kernel's tunable log-parameters as a flat vector."""
        return np.array([np.log(self.length_scale)])

    def set_log_params(self, log_params: np.ndarray) -> None:
        """Set the kernel's log-parameters from a flat vector."""
        self.length_scale = float(np.exp(log_params[0]))


class ConstantKernel(Kernel):
    """Constant (signal-variance) kernel, multiplied with the Matérn kernel."""

    def __init__(self, constant: float = 1.0) -> None:
        if constant <= 0:
            raise ValueError("constant must be positive")
        self.constant = float(constant)

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Evaluate the kernel matrix between two point sets."""
        return np.full((len(np.atleast_2d(x1)), len(np.atleast_2d(x2))), self.constant)

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Diagonal of the kernel matrix of ``points``."""
        return np.full(len(np.atleast_2d(x)), self.constant)

    def get_log_params(self) -> np.ndarray:
        """The kernel's tunable log-parameters as a flat vector."""
        return np.array([np.log(self.constant)])

    def set_log_params(self, log_params: np.ndarray) -> None:
        """Set the kernel's log-parameters from a flat vector."""
        self.constant = float(np.exp(log_params[0]))


class ProductKernel(Kernel):
    """Element-wise product of two kernels."""

    def __init__(self, left: Kernel, right: Kernel) -> None:
        self.left = left
        self.right = right

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Evaluate the kernel matrix between two point sets."""
        return self.left(x1, x2) * self.right(x1, x2)

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Diagonal of the kernel matrix of ``points``."""
        return self.left.diag(x) * self.right.diag(x)

    def get_log_params(self) -> np.ndarray:
        """The kernel's tunable log-parameters as a flat vector."""
        return np.concatenate([self.left.get_log_params(), self.right.get_log_params()])

    def set_log_params(self, log_params: np.ndarray) -> None:
        """Set the kernel's log-parameters from a flat vector."""
        split = self.left.n_params
        self.left.set_log_params(np.asarray(log_params)[:split])
        self.right.set_log_params(np.asarray(log_params)[split:])

    def bounds(self) -> list[tuple[float, float]]:
        """Optimisation bounds of the log-parameters."""
        return self.left.bounds() + self.right.bounds()
