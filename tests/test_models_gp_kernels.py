"""Tests for the GP kernels and the Gaussian-process regressor."""

import numpy as np
import pytest

from repro.models.gp import GaussianProcessRegressor
from repro.models.kernels import ConstantKernel, Matern52Kernel, ProductKernel


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

    def test_sample_y_shape_and_consistency_with_posterior(self):
        x = np.linspace(0, 1, 8).reshape(-1, 1)
        y = x[:, 0] ** 2
        gp = GaussianProcessRegressor(seed=4).fit(x, y)
        draws = gp.sample_y(x, n_samples=20, seed=7)
        assert draws.shape == (20, 8)
        mean = gp.predict(x)
        assert np.mean(np.abs(draws.mean(axis=0) - mean)) < 0.3

    def test_sample_y_from_prior(self):
        gp = GaussianProcessRegressor(seed=5)
        draws = gp.sample_y(np.zeros((4, 2)), n_samples=3, seed=1)
        assert draws.shape == (3, 4)

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
