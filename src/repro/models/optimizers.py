"""Gradient-descent optimisers shared by the MLP and BNN implementations.

The paper uses Adadelta with a StepLR schedule; both Adam and Adadelta are
provided here and either can be selected when constructing a model.  The
optimisers operate on flat lists of numpy parameter arrays, which is how the
manual-backprop models store their weights.  A step updates each array in
place with the same floating-point operations, in the same order, as the
textbook update in its comment, writing intermediate values into scratch
arrays that persist between steps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AdamOptimizer", "AdadeltaOptimizer", "make_optimizer"]


class AdamOptimizer:
    """Adam optimiser over a list of numpy parameter arrays."""

    def __init__(
        self,
        parameters: list[np.ndarray],
        learning_rate: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m = [np.zeros_like(p) for p in parameters]
        self._v = [np.zeros_like(p) for p in parameters]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in parameters]
        self._step = 0

    def step(self, gradients: list[np.ndarray]) -> None:
        """Apply one in-place update from ``gradients`` (same order as parameters)."""
        if len(gradients) != len(self.parameters):
            raise ValueError("gradient list length does not match parameter list length")
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for param, grad, m, v, (update, denom) in zip(
            self.parameters, gradients, self._m, self._v, self._scratch
        ):
            # m = beta1 * m + (1 - beta1) * grad
            # v = beta2 * v + (1 - beta2) * grad * grad
            # param -= learning_rate * (m / bias1) / (sqrt(v / bias2) + epsilon)
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=update)
            m += update
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=denom)
            denom *= grad
            v += denom
            np.divide(m, bias1, out=update)
            update *= self.learning_rate
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            update /= denom
            param -= update


class AdadeltaOptimizer:
    """Adadelta optimiser (the optimiser used in the paper's implementation)."""

    def __init__(
        self,
        parameters: list[np.ndarray],
        learning_rate: float = 1.0,
        rho: float = 0.9,
        epsilon: float = 1e-6,
    ) -> None:
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.rho = rho
        self.epsilon = epsilon
        self._avg_sq_grad = [np.zeros_like(p) for p in parameters]
        self._avg_sq_delta = [np.zeros_like(p) for p in parameters]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in parameters]

    def step(self, gradients: list[np.ndarray]) -> None:
        """Apply one in-place update from ``gradients`` (same order as parameters)."""
        if len(gradients) != len(self.parameters):
            raise ValueError("gradient list length does not match parameter list length")
        for param, grad, sq_grad, sq_delta, (delta, temp) in zip(
            self.parameters, gradients, self._avg_sq_grad, self._avg_sq_delta, self._scratch
        ):
            # sq_grad = rho * sq_grad + (1 - rho) * grad * grad
            # delta = grad * sqrt(sq_delta + epsilon) / sqrt(sq_grad + epsilon)
            # sq_delta = rho * sq_delta + (1 - rho) * delta * delta
            # param -= learning_rate * delta
            sq_grad *= self.rho
            np.multiply(grad, 1.0 - self.rho, out=temp)
            temp *= grad
            sq_grad += temp
            np.add(sq_delta, self.epsilon, out=delta)
            np.sqrt(delta, out=delta)
            delta *= grad
            np.add(sq_grad, self.epsilon, out=temp)
            np.sqrt(temp, out=temp)
            delta /= temp
            sq_delta *= self.rho
            np.multiply(delta, 1.0 - self.rho, out=temp)
            temp *= delta
            sq_delta += temp
            np.multiply(delta, self.learning_rate, out=temp)
            param -= temp


def make_optimizer(name: str, parameters: list[np.ndarray], learning_rate: float):
    """Construct an optimiser by name (``"adam"`` or ``"adadelta"``)."""
    lowered = name.lower()
    if lowered == "adam":
        return AdamOptimizer(parameters, learning_rate=learning_rate)
    if lowered == "adadelta":
        return AdadeltaOptimizer(parameters, learning_rate=learning_rate)
    raise ValueError(f"unknown optimizer {name!r}; expected 'adam' or 'adadelta'")
