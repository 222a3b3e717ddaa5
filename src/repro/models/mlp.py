"""Deterministic multi-layer perceptron with manual backpropagation.

This is the deterministic counterpart of the Bayesian neural network used by
Atlas.  It backs the DLDA baseline (teacher/student DNNs of [Shi et al.,
NSDI'21]).  Inputs and targets are standardised internally so callers can
pass raw network configurations and latencies/QoEs.
"""

from __future__ import annotations

import numpy as np

from repro.models.optimizers import make_optimizer
from repro.models.scaler import StandardScaler

__all__ = ["MLPRegressor", "relu", "relu_grad"]


def relu(values: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(values, 0.0)


def relu_grad(pre_activation: np.ndarray) -> np.ndarray:
    """Derivative of ReLU evaluated at the pre-activation values."""
    return (pre_activation > 0.0).astype(float)


class MLPRegressor:
    """Fully connected regression network trained with mini-batch gradient descent.

    Parameters
    ----------
    input_dim:
        Number of input features.
    hidden_layers:
        Sizes of the hidden layers; the paper uses ``(128, 256, 256, 128)``,
        the default here is smaller for speed and can be overridden.
    output_dim:
        Number of regression outputs (1 for QoE / latency surrogates).
    learning_rate, optimizer:
        Optimiser configuration (``"adam"`` by default, ``"adadelta"``
        matches the paper's setup).
    l2:
        Weight-decay coefficient.
    seed:
        Seed for weight initialisation and mini-batch shuffling.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_layers: tuple[int, ...] = (64, 64),
        output_dim: int = 1,
        learning_rate: float = 1e-2,
        optimizer: str = "adam",
        l2: float = 1e-5,
        seed: int | None = None,
    ) -> None:
        if input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if output_dim < 1:
            raise ValueError("output_dim must be >= 1")
        self.input_dim = input_dim
        self.hidden_layers = tuple(int(h) for h in hidden_layers)
        self.output_dim = output_dim
        self.l2 = l2
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._x_scaler = StandardScaler()
        self._y_scaler = StandardScaler()
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        self._init_parameters()
        self._optimizer = make_optimizer(optimizer, self.weights + self.biases, learning_rate)
        self.loss_history: list[float] = []

    # ------------------------------------------------------------------ setup
    def _layer_sizes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_layers, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))

    def _init_parameters(self) -> None:
        self.weights = []
        self.biases = []
        for fan_in, fan_out in self._layer_sizes():
            limit = np.sqrt(2.0 / fan_in)
            self.weights.append(self._rng.normal(0.0, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # --------------------------------------------------------------- internals
    def _forward(self, inputs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Forward pass returning output, per-layer activations and pre-activations."""
        activations = [inputs]
        pre_activations = []
        hidden = inputs
        last = len(self.weights) - 1
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            pre = hidden @ weight + bias
            pre_activations.append(pre)
            hidden = pre if index == last else relu(pre)
            activations.append(hidden)
        return hidden, activations, pre_activations

    def _backward(
        self,
        output_grad: np.ndarray,
        activations: list[np.ndarray],
        pre_activations: list[np.ndarray],
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Backpropagate ``output_grad`` and return weight/bias gradients."""
        weight_grads = [np.zeros_like(w) for w in self.weights]
        bias_grads = [np.zeros_like(b) for b in self.biases]
        grad = output_grad
        for index in range(len(self.weights) - 1, -1, -1):
            weight_grads[index] = activations[index].T @ grad + self.l2 * self.weights[index]
            bias_grads[index] = grad.sum(axis=0)
            if index > 0:
                grad = (grad @ self.weights[index].T) * relu_grad(pre_activations[index - 1])
        return weight_grads, bias_grads

    # -------------------------------------------------------------------- API
    def fit(
        self,
        inputs,
        targets,
        epochs: int = 200,
        batch_size: int = 32,
        reset_scalers: bool = True,
    ) -> "MLPRegressor":
        """Train on ``(inputs, targets)`` with mini-batch gradient descent."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(targets, dtype=float).reshape(len(x), -1)
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input features, got {x.shape[1]}")
        if y.shape[1] != self.output_dim:
            raise ValueError(f"expected {self.output_dim} targets, got {y.shape[1]}")
        if reset_scalers or not self._x_scaler.is_fitted:
            self._x_scaler.fit(x)
            self._y_scaler.fit(y)
        x_std = self._x_scaler.transform(x)
        y_std = self._y_scaler.transform(y)
        n_samples = len(x_std)
        batch_size = max(1, min(batch_size, n_samples))
        for _ in range(epochs):
            order = self._rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, batch_size):
                batch_idx = order[start : start + batch_size]
                batch_x = x_std[batch_idx]
                batch_y = y_std[batch_idx]
                prediction, activations, pre_activations = self._forward(batch_x)
                error = prediction - batch_y
                epoch_loss += float(np.sum(error**2))
                output_grad = 2.0 * error / len(batch_x)
                weight_grads, bias_grads = self._backward(output_grad, activations, pre_activations)
                self._optimizer.step(weight_grads + bias_grads)
            self.loss_history.append(epoch_loss / n_samples)
        return self

    def predict(self, inputs) -> np.ndarray:
        """Predict targets in the original (unstandardised) units."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        if not self._x_scaler.is_fitted:
            raise RuntimeError("MLPRegressor used before fit()")
        x_std = self._x_scaler.transform(x)
        prediction, _, _ = self._forward(x_std)
        result = self._y_scaler.inverse_transform(prediction)
        return result[:, 0] if self.output_dim == 1 else result

    def clone(self) -> "MLPRegressor":
        """Return a deep copy with the same weights (used for teacher→student transfer)."""
        twin = MLPRegressor(
            input_dim=self.input_dim,
            hidden_layers=self.hidden_layers,
            output_dim=self.output_dim,
            l2=self.l2,
            seed=self.seed,
        )
        twin.weights = [w.copy() for w in self.weights]
        twin.biases = [b.copy() for b in self.biases]
        twin._optimizer = make_optimizer("adam", twin.weights + twin.biases, 1e-2)
        if self._x_scaler.is_fitted:
            twin._x_scaler.mean_ = self._x_scaler.mean_.copy()
            twin._x_scaler.scale_ = self._x_scaler.scale_.copy()
            twin._y_scaler.mean_ = self._y_scaler.mean_.copy()
            twin._y_scaler.scale_ = self._y_scaler.scale_.copy()
        return twin
