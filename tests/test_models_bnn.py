"""Tests for the Bayesian neural network (Bayes-by-Backprop) surrogate."""

import ast
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.models.bnn import BayesianNeuralNetwork, softplus, softplus_grad
from repro.models.optimizers import AdadeltaOptimizer, AdamOptimizer


class TestSoftplus:
    def test_softplus_is_positive_and_monotone(self):
        values = np.array([-10.0, -1.0, 0.0, 1.0, 10.0])
        result = softplus(values)
        assert np.all(result > 0)
        assert np.all(np.diff(result) > 0)

    def test_softplus_grad_is_sigmoid(self):
        assert softplus_grad(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_softplus_large_input_is_stable(self):
        assert np.isfinite(softplus(np.array([500.0]))[0])


@pytest.fixture(scope="module")
def trained_bnn():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(250, 2))
    y = np.sin(2.0 * x[:, 0]) + 0.5 * x[:, 1]
    model = BayesianNeuralNetwork(input_dim=2, hidden_layers=(32, 32), seed=0)
    model.fit(x, y, epochs=250)
    return model, x, y


class TestBayesianNeuralNetwork:
    def test_fit_and_predict_accuracy(self, trained_bnn):
        model, x, y = trained_bnn
        mean, _ = model.predict(x, n_samples=25)
        assert np.corrcoef(mean, y)[0, 1] > 0.9

    def test_predict_returns_positive_std(self, trained_bnn):
        model, x, _ = trained_bnn
        _, std = model.predict(x[:20], n_samples=25)
        assert std.shape == (20,)
        assert np.all(std >= 0)

    def test_uncertainty_larger_away_from_data(self, trained_bnn):
        model, x, _ = trained_bnn
        _, std_in = model.predict(x[:50], n_samples=30)
        far = np.full((50, 2), 5.0)
        _, std_out = model.predict(far, n_samples=30)
        assert std_out.mean() > std_in.mean()

    def test_sample_function_is_deterministic_once_drawn(self, trained_bnn):
        model, x, _ = trained_bnn
        draw = model.sample_function()
        assert np.allclose(draw(x[:10]), draw(x[:10]))

    def test_different_samples_differ(self, trained_bnn):
        model, x, _ = trained_bnn
        first = model.sample_predict(x[:30])
        second = model.sample_predict(x[:30])
        assert not np.allclose(first, second)

    def test_mean_predict_close_to_mc_mean(self, trained_bnn):
        model, x, _ = trained_bnn
        mc_mean, _ = model.predict(x[:40], n_samples=60)
        point_mean = model.mean_predict(x[:40])
        assert np.mean(np.abs(mc_mean - point_mean)) < 0.25

    def test_use_before_fit_raises(self):
        model = BayesianNeuralNetwork(input_dim=2)
        with pytest.raises(RuntimeError):
            model.predict([[0.0, 0.0]])
        with pytest.raises(RuntimeError):
            model.sample_function()

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            BayesianNeuralNetwork(input_dim=0)
        with pytest.raises(ValueError):
            BayesianNeuralNetwork(input_dim=2, prior_sigma=0.0)
        with pytest.raises(ValueError):
            BayesianNeuralNetwork(input_dim=2, noise_sigma=-1.0)

    def test_input_dimension_mismatch_raises(self):
        model = BayesianNeuralNetwork(input_dim=3)
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 2)), np.zeros(5))

    def test_loss_history_decreases(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(150, 1))
        y = 2.0 * x[:, 0]
        model = BayesianNeuralNetwork(input_dim=1, hidden_layers=(16,), seed=1)
        model.fit(x, y, epochs=120)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_continual_fit_refines_predictions(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(120, 1))
        y = x[:, 0] ** 2
        model = BayesianNeuralNetwork(input_dim=1, hidden_layers=(24,), seed=2)
        model.fit(x, y, epochs=60)
        first_error = np.mean((model.mean_predict(x) - y) ** 2)
        model.fit(x, y, epochs=200)
        second_error = np.mean((model.mean_predict(x) - y) ** 2)
        assert second_error <= first_error * 1.5

    def test_is_fitted_flag(self):
        model = BayesianNeuralNetwork(input_dim=1, hidden_layers=(8,), seed=3)
        assert not model.is_fitted
        model.fit(np.zeros((4, 1)), np.zeros(4), epochs=2)
        assert model.is_fitted


# --------------------------------------------------------------------------
# Oracle: the per-draw training loop the stacked implementation replaced.
# It draws, runs and differentiates one Monte-Carlo weight set at a time; the
# stacked fit must reproduce it bit for bit.
def _reference_sample(model):
    weights, biases, weight_eps, bias_eps = [], [], [], []
    for w_mu, w_rho, b_mu, b_rho in zip(
        model.weight_mu, model.weight_rho, model.bias_mu, model.bias_rho
    ):
        eps_w = model._rng.standard_normal(w_mu.shape)
        eps_b = model._rng.standard_normal(b_mu.shape)
        weights.append(w_mu + softplus(w_rho) * eps_w)
        biases.append(b_mu + softplus(b_rho) * eps_b)
        weight_eps.append(eps_w)
        bias_eps.append(eps_b)
    return weights, biases, weight_eps, bias_eps


def _reference_forward(inputs, weights, biases):
    activations, pre_activations, hidden = [inputs], [], inputs
    for index, (weight, bias) in enumerate(zip(weights, biases)):
        pre = hidden @ weight + bias
        pre_activations.append(pre)
        hidden = pre if index == len(weights) - 1 else np.maximum(pre, 0.0)
        activations.append(hidden)
    return hidden, activations, pre_activations


def _reference_backward(output_grad, weights, activations, pre_activations):
    weight_grads = [None] * len(weights)
    bias_grads = [None] * len(weights)
    grad = output_grad
    for index in range(len(weights) - 1, -1, -1):
        weight_grads[index] = activations[index].T @ grad
        bias_grads[index] = grad.sum(axis=0)
        if index > 0:
            grad = (grad @ weights[index].T) * (pre_activations[index - 1] > 0.0).astype(float)
    return weight_grads, bias_grads


def _reference_kl(model):
    kl_total, grads = 0.0, ([], [], [], [])
    prior_var = model.prior_sigma**2
    for w_mu, w_rho, b_mu, b_rho in zip(
        model.weight_mu, model.weight_rho, model.bias_mu, model.bias_rho
    ):
        for mu, rho, mu_grads, rho_grads in (
            (w_mu, w_rho, grads[0], grads[1]),
            (b_mu, b_rho, grads[2], grads[3]),
        ):
            sigma = softplus(rho)
            kl_total += float(
                np.sum(
                    np.log(model.prior_sigma / sigma)
                    + (sigma**2 + mu**2) / (2.0 * prior_var)
                    - 0.5
                )
            )
            mu_grads.append(mu / prior_var)
            rho_grads.append((sigma / prior_var - 1.0 / sigma) * softplus_grad(rho))
    return (kl_total, *grads)


class _ReferenceAdam:
    """Adam as the textbook writes it, one temporary array per expression."""

    def __init__(self, parameters, learning_rate):
        self.parameters, self.learning_rate = parameters, learning_rate
        self.m = [np.zeros_like(p) for p in parameters]
        self.v = [np.zeros_like(p) for p in parameters]
        self.t = 0

    def step(self, gradients):
        self.t += 1
        bias1, bias2 = 1.0 - 0.9**self.t, 1.0 - 0.999**self.t
        for param, grad, m, v in zip(self.parameters, gradients, self.m, self.v):
            m *= 0.9
            m += (1.0 - 0.9) * grad
            v *= 0.999
            v += (1.0 - 0.999) * grad * grad
            param -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + 1e-8)


class _ReferenceAdadelta:
    """Adadelta as the textbook writes it, one temporary array per expression."""

    def __init__(self, parameters, learning_rate):
        self.parameters, self.learning_rate = parameters, learning_rate
        self.sq_grad = [np.zeros_like(p) for p in parameters]
        self.sq_delta = [np.zeros_like(p) for p in parameters]

    def step(self, gradients):
        for param, grad, sq_grad, sq_delta in zip(
            self.parameters, gradients, self.sq_grad, self.sq_delta
        ):
            sq_grad *= 0.9
            sq_grad += (1.0 - 0.9) * grad * grad
            delta = grad * np.sqrt(sq_delta + 1e-6) / np.sqrt(sq_grad + 1e-6)
            sq_delta *= 0.9
            sq_delta += (1.0 - 0.9) * delta * delta
            param -= self.learning_rate * delta


_REFERENCE_OPTIMIZERS = {AdamOptimizer: _ReferenceAdam, AdadeltaOptimizer: _ReferenceAdadelta}


def _reference_fit(model, inputs, targets, epochs, batch_size):
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).reshape(len(x), -1)
    model._x_scaler.fit(x)
    model._y_scaler.fit(y)
    x_std, y_std = model._x_scaler.transform(x), model._y_scaler.transform(y)
    n_samples = len(x_std)
    batch_size = max(1, min(batch_size, n_samples))
    n_batches = int(np.ceil(n_samples / batch_size))
    kl_weight = 1.0 / n_samples
    noise_var = model.noise_sigma**2
    # The optimiser the model names, over one array per layer and kind, as the
    # model used to hold them; the views write through to its parameters.
    optimizer = _REFERENCE_OPTIMIZERS[type(model._optimizer)](
        model.weight_mu + model.bias_mu + model.weight_rho + model.bias_rho,
        model._optimizer.learning_rate,
    )
    for _ in range(epochs):
        order = model._rng.permutation(n_samples)
        epoch_loss = 0.0
        for start in range(0, n_samples, batch_size):
            batch_x = x_std[order[start : start + batch_size]]
            batch_y = y_std[order[start : start + batch_size]]
            mu_w = [np.zeros_like(w) for w in model.weight_mu]
            rho_w = [np.zeros_like(w) for w in model.weight_rho]
            mu_b = [np.zeros_like(b) for b in model.bias_mu]
            rho_b = [np.zeros_like(b) for b in model.bias_rho]
            batch_loss = 0.0
            for _ in range(model.n_mc_samples):
                weights, biases, weight_eps, bias_eps = _reference_sample(model)
                prediction, activations, pre_activations = _reference_forward(
                    batch_x, weights, biases
                )
                error = prediction - batch_y
                batch_loss += float(np.sum(error**2) / (2.0 * noise_var))
                output_grad = error / noise_var / len(batch_x) * n_samples / n_batches
                weight_grads, bias_grads = _reference_backward(
                    output_grad, weights, activations, pre_activations
                )
                for layer in range(len(weights)):
                    mu_w[layer] += weight_grads[layer]
                    rho_w[layer] += (
                        weight_grads[layer]
                        * weight_eps[layer]
                        * softplus_grad(model.weight_rho[layer])
                    )
                    mu_b[layer] += bias_grads[layer]
                    rho_b[layer] += (
                        bias_grads[layer] * bias_eps[layer] * softplus_grad(model.bias_rho[layer])
                    )
            scale = 1.0 / model.n_mc_samples
            kl, kl_mu_w, kl_rho_w, kl_mu_b, kl_rho_b = _reference_kl(model)
            optimizer.step(
                [scale * g + kl_weight * k for g, k in zip(mu_w, kl_mu_w)]
                + [scale * g + kl_weight * k for g, k in zip(mu_b, kl_mu_b)]
                + [scale * g + kl_weight * k for g, k in zip(rho_w, kl_rho_w)]
                + [scale * g + kl_weight * k for g, k in zip(rho_b, kl_rho_b)]
            )
            epoch_loss += batch_loss * scale + kl_weight * kl
        model.loss_history.append(epoch_loss / n_samples)
    model._fitted = True


def _reference_predict(model, inputs, n_samples):
    x_std = model._x_scaler.transform(np.atleast_2d(np.asarray(inputs, dtype=float)))
    draws = np.zeros((n_samples, len(x_std), model.output_dim))
    for index in range(n_samples):
        weights, biases, _, _ = _reference_sample(model)
        draws[index] = _reference_forward(x_std, weights, biases)[0]
    mean = model._y_scaler.inverse_transform(draws.mean(axis=0))
    std = model._y_scaler.inverse_transform_std(draws.std(axis=0))
    return (mean[:, 0], std[:, 0]) if model.output_dim == 1 else (mean, std)


def _assert_bitwise_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestStackedDrawsMatchPerDrawLoop:
    # Eight draws is where np.sum would turn pairwise on a one-output bias.
    @pytest.mark.parametrize("n_mc_samples", [1, 2, 3, 8])
    @pytest.mark.parametrize("output_dim", [1, 2])
    @pytest.mark.parametrize("optimizer", ["adam", "adadelta"])
    def test_fit_and_predict_are_bitwise_equal(self, n_mc_samples, output_dim, optimizer):
        rng = np.random.default_rng(10 * n_mc_samples + output_dim)
        x = rng.uniform(-1, 1, size=(45, 3))
        y = np.column_stack([np.sin(2.0 * x[:, 0]) + x[:, 1], x[:, 2] ** 2])[:, :output_dim]

        def build():
            return BayesianNeuralNetwork(
                input_dim=3,
                hidden_layers=(12, 7),
                output_dim=output_dim,
                n_mc_samples=n_mc_samples,
                optimizer=optimizer,
                seed=4,
            )

        stacked, oracle = build(), build()
        # 45 rows in batches of 16: two full minibatches and a ragged one.
        stacked.fit(x, y, epochs=6, batch_size=16)
        _reference_fit(oracle, x, y, epochs=6, batch_size=16)

        _assert_bitwise_equal(stacked.weight_mu, oracle.weight_mu)
        _assert_bitwise_equal(stacked.weight_rho, oracle.weight_rho)
        _assert_bitwise_equal(stacked.bias_mu, oracle.bias_mu)
        _assert_bitwise_equal(stacked.bias_rho, oracle.bias_rho)
        assert stacked.loss_history == oracle.loss_history

        probe = rng.uniform(-1.5, 1.5, size=(20, 3))
        _assert_bitwise_equal(
            stacked.predict(probe, n_samples=5), _reference_predict(oracle, probe, 5)
        )
        draw = stacked.sample_predict(probe)
        weights, biases, _, _ = _reference_sample(oracle)
        expected = oracle._y_scaler.inverse_transform(
            _reference_forward(oracle._x_scaler.transform(probe), weights, biases)[0]
        )
        _assert_bitwise_equal([draw], [expected[:, 0] if output_dim == 1 else expected])


@pytest.mark.parametrize("optimizer", ["adam", "adadelta"])
def test_pickled_and_copied_models_keep_learning(optimizer):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(60, 4))
    model = BayesianNeuralNetwork(input_dim=4, hidden_layers=(16,), optimizer=optimizer, seed=5)
    model.fit(x, x[:, 0] - x[:, 1] ** 2, epochs=20)
    copies = [pickle.loads(pickle.dumps(model)), copy.deepcopy(model)]
    new_targets = np.sin(3.0 * x[:, 2]) + x[:, 3]
    for twin in [model, *copies]:
        twin.fit(x, new_targets, epochs=15)
    probe = rng.uniform(-1, 1, size=(25, 4))

    def state(twin):
        return [
            twin._params.tobytes(),
            twin.mean_predict(probe).tobytes(),
            twin.sample_predict(probe).tobytes(),
        ]

    expected = state(model)
    for twin in copies:
        assert state(twin) == expected


def test_draws_use_the_posterior_std_of_the_latest_fit():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, size=(40, 3))
    probe = rng.uniform(-1.5, 1.5, size=(10, 3))
    model = BayesianNeuralNetwork(input_dim=3, hidden_layers=(12,), seed=6)
    model.fit(x, x[:, 0] * x[:, 1], epochs=10)
    for _ in range(2):
        state = model._rng.bit_generator.state
        draw = model.sample_predict(probe)
        mean, std = model.predict(probe, n_samples=4)
        # The reference draws from the same generator state and takes
        # softplus(rho) on the spot.
        model._rng.bit_generator.state = state
        weights, biases, _, _ = _reference_sample(model)
        expected = model._y_scaler.inverse_transform(
            _reference_forward(model._x_scaler.transform(probe), weights, biases)[0]
        )
        _assert_bitwise_equal([draw], [expected[:, 0]])
        _assert_bitwise_equal([mean, std], _reference_predict(model, probe, 4))
        # A continued fit on new targets, as the bnn_contd residual model does.
        model.fit(x, np.cos(2.0 * x[:, 2]), epochs=10, reset_scalers=False)


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_environment_after(child_env: dict, script: str, **environment: str) -> dict:
    report = f"import os; print({{v: os.environ.get(v) for v in {_BLAS_VARIABLES!r}}})"
    proc = subprocess.run(
        [sys.executable, "-c", f"{script}; {report}"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={**child_env, **environment},
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


class TestBlasThreadDefault:
    def test_import_defaults_every_variable_to_one_thread(self, child_env):
        seen = _blas_environment_after(child_env, "import repro")
        assert seen == dict.fromkeys(_BLAS_VARIABLES, "1")

    def test_a_value_the_user_set_wins(self, child_env):
        seen = _blas_environment_after(child_env, "import repro", OPENBLAS_NUM_THREADS="2")
        assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def test_nothing_changes_once_numpy_is_loaded(self, child_env):
        # NumPy's BLAS has read the variables by then, so setting them would
        # change only child processes, not the one that asked.
        seen = _blas_environment_after(child_env, "import numpy, repro")
        assert seen == dict.fromkeys(_BLAS_VARIABLES)
