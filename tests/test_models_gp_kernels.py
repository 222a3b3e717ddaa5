"""Tests for the GP kernels and the Gaussian-process regressor."""

import numpy as np
import pytest
from scipy import linalg, optimize

from repro.models.gp import GaussianProcessRegressor
from repro.models.kernels import ConstantKernel, Matern52Kernel, ProductKernel
from repro.models.scaler import StandardScaler


class TestKernels:
    @pytest.mark.parametrize("kernel", [Matern52Kernel(0.7), Matern52Kernel(1.3)])
    def test_gram_matrix_is_symmetric_psd_with_unit_diagonal(self, kernel):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(25, 3))
        gram = kernel(x, x)
        assert np.allclose(gram, gram.T, atol=1e-12)
        assert np.allclose(np.diag(gram), 1.0)
        eigenvalues = np.linalg.eigvalsh(gram + 1e-10 * np.eye(len(x)))
        assert np.all(eigenvalues > -1e-8)

    @pytest.mark.parametrize("kernel", [Matern52Kernel(0.5), Matern52Kernel(1.0)])
    def test_kernel_decays_with_distance(self, kernel):
        origin = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[3.0, 0.0]])
        assert kernel(origin, near)[0, 0] > kernel(origin, far)[0, 0]

    def test_constant_kernel_value(self):
        kernel = ConstantKernel(2.5)
        assert np.allclose(kernel(np.zeros((2, 1)), np.zeros((3, 1))), 2.5)

    def test_composite_kernels_combine_values_and_params(self):
        left, right = ConstantKernel(2.0), Matern52Kernel(1.0)
        product = ProductKernel(left, right)
        x = np.array([[0.0], [1.0]])
        assert np.allclose(product(x, x), 2.0 * right(x, x))
        assert product.n_params == 2
        params = product.get_log_params()
        product.set_log_params(params + np.log(2.0))
        assert product.left.constant == pytest.approx(4.0)

    def test_operator_overloads(self):
        combined = ConstantKernel(1.0) * Matern52Kernel(1.0)
        assert isinstance(combined, ProductKernel)
        assert combined.n_params == 2

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ValueError):
            Matern52Kernel(-1.0)
        with pytest.raises(ValueError):
            ConstantKernel(0.0)


class TestGaussianProcessRegressor:
    def test_interpolates_training_points(self):
        x = np.linspace(0, 1, 12).reshape(-1, 1)
        y = np.sin(4 * x[:, 0])
        gp = GaussianProcessRegressor(noise=1e-6, seed=0).fit(x, y)
        prediction = gp.predict(x)
        assert np.max(np.abs(prediction - y)) < 0.05

    def test_predictive_std_smaller_at_training_points(self):
        x = np.linspace(0, 1, 10).reshape(-1, 1)
        y = np.cos(3 * x[:, 0])
        gp = GaussianProcessRegressor(seed=1).fit(x, y)
        _, std_train = gp.predict(x, return_std=True)
        _, std_far = gp.predict(np.array([[5.0]]), return_std=True)
        assert std_far[0] > std_train.mean()

    def test_unfitted_gp_returns_prior(self):
        gp = GaussianProcessRegressor(seed=2)
        mean, std = gp.predict(np.zeros((3, 2)), return_std=True)
        assert np.allclose(mean, 0.0)
        assert np.allclose(std, 1.0)

    def test_fit_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(np.zeros((3, 1)), np.zeros(2))

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(np.zeros((0, 1)), np.zeros(0))

    def test_invalid_noise_raises(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(noise=0.0)

    def test_hyperparameter_optimisation_improves_likelihood(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 5, size=(40, 1))
        y = np.sin(x[:, 0]) + 0.05 * rng.standard_normal(40)
        fixed = GaussianProcessRegressor(optimize_hyperparameters=False, seed=3).fit(x, y)
        fitted = GaussianProcessRegressor(optimize_hyperparameters=True, seed=3).fit(x, y)
        fixed_error = np.mean((fixed.predict(x) - y) ** 2)
        fitted_error = np.mean((fitted.predict(x) - y) ** 2)
        assert fitted_error <= fixed_error * 1.5
        assert fitted.log_marginal_likelihood_ is not None

    def test_normalised_targets_recover_offset(self):
        x = np.linspace(0, 1, 15).reshape(-1, 1)
        y = 100.0 + np.sin(3 * x[:, 0])
        gp = GaussianProcessRegressor(seed=6).fit(x, y)
        prediction = gp.predict(np.array([[0.5]]))
        assert 99.0 < prediction[0] < 101.5

    def test_noisy_data_does_not_crash_and_stays_calibrated(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(60, 2))
        y = x[:, 0] + 0.2 * rng.standard_normal(60)
        gp = GaussianProcessRegressor(noise=1e-2, seed=8).fit(x, y)
        mean, std = gp.predict(x, return_std=True)
        assert np.all(np.isfinite(mean)) and np.all(std > 0)


# --------------------------------------------------------------------------
# Oracle: the GP as it was before fits reused one distance matrix and called
# LAPACK directly.  It builds the Gram matrix from the points at every
# evaluation, with the kernels' own expressions, and goes through
# scipy.linalg's checked wrappers; the regressor must match it bit for bit.
def _reference_kernel(kernel, x1, x2):
    sq = np.sum(x1**2, axis=1)[:, None] + np.sum(x2**2, axis=1)[None, :] - 2.0 * (x1 @ x2.T)
    scaled = np.sqrt(5.0) * np.sqrt(np.maximum(sq, 0.0)) / kernel.right.length_scale
    matern = (1.0 + scaled + scaled**2 / 3.0) * np.exp(-scaled)
    return np.full((len(x1), len(x2)), kernel.left.constant) * matern


def _reference_fit_predict(x, y, probe, normalize_y, seed):
    kernel, noise, rng = ConstantKernel(1.0) * Matern52Kernel(1.0), 1e-4, np.random.default_rng(seed)
    scaler = StandardScaler()
    y_train = scaler.fit(y.reshape(-1, 1)).transform(y.reshape(-1, 1)).ravel() if normalize_y else y

    def neg_log_marginal_likelihood(log_params):
        kernel.set_log_params(log_params)
        gram = _reference_kernel(kernel, x, x)
        gram[np.diag_indices_from(gram)] += noise
        try:
            chol = linalg.cholesky(gram, lower=True)
        except linalg.LinAlgError:
            return 1e25
        alpha = linalg.cho_solve((chol, True), y_train)
        lml = (
            -0.5 * float(y_train @ alpha)
            - float(np.sum(np.log(np.diag(chol))))
            - 0.5 * len(y_train) * np.log(2.0 * np.pi)
        )
        return -lml

    lml = None
    if len(x) >= 3:
        bounds = kernel.bounds()
        best_params = kernel.get_log_params()
        best_value = neg_log_marginal_likelihood(best_params)
        starts = [best_params] + [np.array([rng.uniform(lo, hi) for lo, hi in bounds]) for _ in range(2)]
        for start in starts:
            result = optimize.minimize(
                neg_log_marginal_likelihood, start, method="L-BFGS-B", bounds=bounds, options={"maxiter": 60}
            )
            if result.fun < best_value:
                best_value, best_params = result.fun, result.x
        kernel.set_log_params(best_params)
        lml = -float(best_value)
    gram = _reference_kernel(kernel, x, x)
    gram[np.diag_indices_from(gram)] += noise
    chol = linalg.cholesky(gram, lower=True)
    alpha = linalg.cho_solve((chol, True), y_train)

    cross = _reference_kernel(kernel, probe, x)
    mean = cross @ alpha
    solved = linalg.solve_triangular(chol, cross.T, lower=True)
    std = np.sqrt(np.maximum(kernel.diag(probe) + noise - np.sum(solved**2, axis=0), 1e-12))
    if normalize_y:
        mean = scaler.inverse_transform(mean.reshape(-1, 1)).ravel()
        std = scaler.inverse_transform_std(std.reshape(-1, 1)).ravel()
    return kernel.get_log_params(), lml, mean, std


class TestGaussianProcessMatchesReference:
    # Fits on fewer than three points skip the hyper-parameter search.
    @pytest.mark.parametrize("n_points", [1, 2, 3, 8, 25])
    @pytest.mark.parametrize("normalize_y", [True, False], ids=["normalized", "raw"])
    def test_fit_and_predict_are_bitwise_equal(self, n_points, normalize_y):
        rng = np.random.default_rng(n_points)
        x = rng.uniform(0, 1, size=(n_points, 3))
        y = np.sin(3.0 * x[:, 0]) + x[:, 1] - 0.4 + 0.05 * rng.standard_normal(n_points)
        probe = rng.uniform(-0.5, 1.5, size=(30, 3))
        gp = GaussianProcessRegressor(normalize_y=normalize_y, seed=7).fit(x, y)
        log_params, lml, mean, std = _reference_fit_predict(x, y, probe, normalize_y, seed=7)

        assert gp.kernel.get_log_params().tobytes() == log_params.tobytes()
        assert gp.log_marginal_likelihood_ == lml
        got_mean, got_std = gp.predict(probe, return_std=True)
        assert got_mean.tobytes() == mean.tobytes()
        assert got_std.tobytes() == std.tobytes()
        assert gp.predict(probe).tobytes() == mean.tobytes()

    def test_a_gram_matrix_that_is_not_positive_definite_scores_1e25(self):
        x = np.array([[0.1, 0.2], [0.1, 0.2], [0.7, 0.5]])  # a duplicated row
        gp = GaussianProcessRegressor(seed=0).fit(x, [0.3, 0.3, -0.2])
        gp.noise = 0.0
        assert gp._neg_log_marginal_likelihood(np.zeros(2)) == 1e25
        with pytest.raises(linalg.LinAlgError):
            gp._factorize()

    @pytest.mark.parametrize("n_points", [2, 5])
    @pytest.mark.parametrize("where", ["inputs", "targets"])
    def test_non_finite_data_raises(self, n_points, where):
        rng = np.random.default_rng(0)
        x, y = rng.uniform(0, 1, size=(n_points, 2)), rng.normal(size=n_points)
        if where == "inputs":
            x[1, 0] = np.nan
        else:
            y[1] = np.nan
        with pytest.raises(ValueError):
            GaussianProcessRegressor(seed=0).fit(x, y)

    def test_predicting_std_at_a_non_finite_input_raises(self):
        gp = GaussianProcessRegressor(seed=0).fit(np.array([[0.0], [0.5], [1.0]]), [0.1, 0.4, 0.2])
        with pytest.raises(ValueError):
            gp.predict(np.array([[np.nan]]), return_std=True)
