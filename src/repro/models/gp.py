"""Exact Gaussian-process regression.

Mirrors the sklearn ``GaussianProcessRegressor`` configuration the paper
uses for the online learning stage (Sec. 7.3): Matérn kernel with
``nu = 2.5``, target normalisation, and marginal-likelihood hyper-parameter
fitting.  The model stays small (hundreds of online transitions at most),
so the O(n^3) Cholesky factorisation is not a concern.

A fit evaluates the log marginal likelihood about a hundred times, so the
training points' squared distances are computed once per fit, and the
factorisation and solves call LAPACK's ``dpotrf``, ``dpotrs`` and ``dtrtrs``
directly: the routines ``scipy.linalg.cholesky``, ``cho_solve`` and
``solve_triangular`` call, without their per-call argument checks.  A fit
checks its data for finiteness once, and ``predict`` checks the
cross-covariances it solves for, so non-finite data raise ``ValueError``
where the SciPy wrappers raised it.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, optimize
from scipy.linalg import lapack

from repro.models.kernels import ConstantKernel, Kernel, Matern52Kernel, ProductKernel, _pairwise_sq_dists
from repro.models.scaler import StandardScaler

__all__ = ["GaussianProcessRegressor"]


class GaussianProcessRegressor:
    """Gaussian-process regression with marginal-likelihood hyper-parameter fitting.

    Parameters
    ----------
    kernel:
        Covariance kernel; defaults to ``ConstantKernel() * Matern52Kernel()``
        as in the paper.
    noise:
        Observation-noise variance added to the kernel diagonal (jitter plus
        measurement noise).
    normalize_y:
        Standardise targets before fitting (the paper's setting).
    optimize_hyperparameters:
        Maximise the log marginal likelihood over the kernel's log
        hyper-parameters with L-BFGS-B restarts.
    n_restarts:
        Number of random restarts for the hyper-parameter optimisation.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise: float = 1e-4,
        normalize_y: bool = True,
        optimize_hyperparameters: bool = True,
        n_restarts: int = 2,
        seed: int | None = None,
    ) -> None:
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.kernel = kernel if kernel is not None else ProductKernel(ConstantKernel(1.0), Matern52Kernel(1.0))
        self.noise = float(noise)
        self.normalize_y = normalize_y
        self.optimize_hyperparameters = optimize_hyperparameters
        self.n_restarts = max(0, int(n_restarts))
        self._rng = np.random.default_rng(seed)
        self._x_train: np.ndarray | None = None
        self._sq_dists: np.ndarray | None = None
        self._y_train: np.ndarray | None = None
        self._y_scaler = StandardScaler()
        self._cholesky: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self.log_marginal_likelihood_: float | None = None

    # --------------------------------------------------------------- internals
    def _gram_cholesky(self) -> tuple[np.ndarray, int]:
        """Lower Cholesky factor of the training Gram matrix plus noise, and LAPACK's ``info``."""
        gram = self.kernel.of_sq_dists(self._sq_dists)
        gram.flat[:: len(gram) + 1] += self.noise  # the diagonal
        return lapack.dpotrf(gram, lower=True)

    def _neg_log_marginal_likelihood(self, log_params: np.ndarray) -> float:
        self.kernel.set_log_params(log_params)
        chol, info = self._gram_cholesky()
        if info > 0:  # not positive definite
            return 1e25
        alpha, _ = lapack.dpotrs(chol, self._y_train, lower=True)
        n = len(self._y_train)
        lml = (
            -0.5 * float(self._y_train @ alpha)
            - float(np.log(chol.diagonal()).sum())
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        return -lml

    def _fit_hyperparameters(self) -> None:
        bounds = self.kernel.bounds()
        best_params = self.kernel.get_log_params()
        best_value = self._neg_log_marginal_likelihood(best_params)
        starts = [best_params]
        for _ in range(self.n_restarts):
            starts.append(
                np.array([self._rng.uniform(lo, hi) for lo, hi in bounds])
            )
        for start in starts:
            result = optimize.minimize(
                self._neg_log_marginal_likelihood,
                start,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 60},
            )
            if result.fun < best_value:
                best_value = result.fun
                best_params = result.x
        self.kernel.set_log_params(best_params)
        self.log_marginal_likelihood_ = -float(best_value)

    def _factorize(self) -> None:
        chol, info = self._gram_cholesky()
        if info > 0:
            raise linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
        self._cholesky = chol
        self._alpha, _ = lapack.dpotrs(chol, self._y_train, lower=True)

    # -------------------------------------------------------------------- API
    def fit(self, inputs, targets) -> "GaussianProcessRegressor":
        """Fit the GP to ``(inputs, targets)``."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if len(x) != len(y):
            raise ValueError("inputs and targets have mismatched lengths")
        if len(x) == 0:
            raise ValueError("cannot fit a GP on an empty dataset")
        self._x_train = x
        self._sq_dists = _pairwise_sq_dists(x, x)
        if self.normalize_y:
            self._y_scaler.fit(y.reshape(-1, 1))
            self._y_train = self._y_scaler.transform(y.reshape(-1, 1)).ravel()
        else:
            self._y_train = y
        if not (np.isfinite(self._sq_dists).all() and np.isfinite(self._y_train).all()):
            raise ValueError("inputs and targets must be finite")
        if self.optimize_hyperparameters and len(x) >= 3:
            self._fit_hyperparameters()
        self._factorize()
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._alpha is not None

    def predict(self, inputs, return_std: bool = False):
        """Posterior predictive mean (and optionally standard deviation)."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        if not self.is_fitted:
            # An unfitted GP is the prior: zero mean, unit variance.
            mean = np.zeros(len(x))
            if return_std:
                return mean, np.ones(len(x))
            return mean
        cross = self.kernel(x, self._x_train)
        mean_std_units = cross @ self._alpha
        if self.normalize_y:
            mean = self._y_scaler.inverse_transform(mean_std_units.reshape(-1, 1)).ravel()
        else:
            mean = mean_std_units
        if not return_std:
            return mean
        if not np.isfinite(cross).all():
            raise ValueError("inputs must be finite")
        solved, _ = lapack.dtrtrs(self._cholesky, cross.T, lower=True)
        variance = self.kernel.diag(x) + self.noise - np.sum(solved**2, axis=0)
        variance = np.maximum(variance, 1e-12)
        std = np.sqrt(variance)
        if self.normalize_y:
            std = self._y_scaler.inverse_transform_std(std.reshape(-1, 1)).ravel()
        return mean, std
