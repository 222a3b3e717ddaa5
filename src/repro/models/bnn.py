"""Bayesian neural network trained with Bayes-by-Backprop.

Atlas uses a BNN as the scalable surrogate of two black-box functions: the
sim-to-real discrepancy ``KL[D_r || D_s(x)]`` in stage 1 and the slice QoE
``Q_s(phi)`` in stage 2 (Secs. 4.2 and 5.2).  Every weight carries a Gaussian
variational posterior ``N(mu, softplus(rho)^2)`` optimised against the
evidence lower bound of Eq. 4 with the reparameterisation trick of
Bayes-by-Backprop [Blundell et al., ICML'15].

Thompson sampling (Sec. 4.2, "Parallel Thompson Sampling") requires drawing
*one* function realisation from the posterior and evaluating it on tens of
thousands of candidate points with a single forward pass — this is provided
by :meth:`BayesianNeuralNetwork.sample_function`.

Every per-parameter quantity is a flat vector laid out layer by layer,
weight before bias.  The variational means ``mu`` and the ``rho`` are the
two rows of one ``(2, n_params)`` block, which the optimiser updates in one
pass; the per-layer ``weight_mu``, ``bias_rho``, ... are views of it.  A fit
allocates the vectors of a gradient step once and fills them in place at
every step, with the same floating-point operations, in the same order, as
the textbook expressions in the comments.
"""

from __future__ import annotations

import numpy as np

from repro.models.optimizers import make_optimizer
from repro.models.scaler import StandardScaler

__all__ = ["BayesianNeuralNetwork", "softplus", "softplus_grad"]


def softplus(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable ``log(1 + exp(x))``, into ``out`` if given."""
    return np.logaddexp(0.0, values, out=out)


def softplus_grad(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Derivative of softplus, i.e. the logistic sigmoid, into ``out`` if given."""
    # 1 / (1 + exp(-x))
    out = np.negative(values, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _sum_draws(stack: np.ndarray, out: np.ndarray) -> None:
    """Sum a per-draw stack over its leading axis into ``out``, as a running total from zero.

    ``np.sum(stack, axis=0)`` switches to pairwise summation for some shapes
    (e.g. eight or more draws of a one-output bias), which changes the last
    bits; adding the draws one after another in draw order never does.
    """
    out[...] = 0.0
    for draw in stack:
        out += draw


def _forward(
    inputs: np.ndarray, weights: list[np.ndarray], biases: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass for a weight stack ``(S, fan_in, fan_out)`` or one weight set.

    ``inputs`` is ``(n, input_dim)``; with stacked weights every activation,
    and the output, gains a leading draw axis ``S``.  Returns the output and
    each layer's input, ``inputs`` first.  Each layer adds its bias and
    applies the ReLU in place, so a hidden activation is positive exactly
    where its pre-activation was.
    """
    activations = [inputs]
    hidden = inputs
    last = len(weights) - 1
    for index, (weight, bias) in enumerate(zip(weights, biases)):
        hidden = hidden @ weight
        hidden += bias[..., None, :]
        if index < last:
            np.maximum(hidden, 0.0, out=hidden)  # ReLU
            activations.append(hidden)
    return hidden, activations


class _SampledNetwork:
    """A single weight draw from the posterior, usable as a deterministic function.

    Instances are returned by :meth:`BayesianNeuralNetwork.sample_function`
    and hold references to the scalers of the parent model, so predictions
    are in the original target units.
    """

    def __init__(
        self,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        x_scaler: StandardScaler,
        y_scaler: StandardScaler,
    ) -> None:
        self._weights = weights
        self._biases = biases
        self._x_scaler = x_scaler
        self._y_scaler = y_scaler

    def __call__(self, inputs) -> np.ndarray:
        """Evaluate the sampled network on a batch of features."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        output, _ = _forward(self._x_scaler.transform(x), self._weights, self._biases)
        result = self._y_scaler.inverse_transform(output)
        return result[:, 0] if result.shape[1] == 1 else result


class BayesianNeuralNetwork:
    """Variational-Gaussian BNN regression model.

    Parameters
    ----------
    input_dim:
        Number of input features.
    hidden_layers:
        Hidden layer widths.  The paper uses ``(128, 256, 256, 128)``; the
        default is smaller so the reproduction's end-to-end experiments run
        in minutes rather than hours.
    prior_sigma:
        Standard deviation of the zero-mean Gaussian weight prior.
    noise_sigma:
        Observation-noise standard deviation of the Gaussian likelihood
        (in standardised target units).
    n_mc_samples:
        Monte-Carlo weight draws per gradient step.
    kl_weight:
        Scale of the complexity (KL) term; defaults to ``1 / n_samples`` as
        in Bayes-by-Backprop with a single batch per epoch.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_layers: tuple[int, ...] = (48, 48),
        output_dim: int = 1,
        prior_sigma: float = 1.0,
        noise_sigma: float = 0.15,
        learning_rate: float = 1e-2,
        optimizer: str = "adam",
        n_mc_samples: int = 2,
        kl_weight: float | None = None,
        seed: int | None = None,
    ) -> None:
        if input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if output_dim < 1:
            raise ValueError("output_dim must be >= 1")
        if prior_sigma <= 0 or noise_sigma <= 0:
            raise ValueError("prior_sigma and noise_sigma must be positive")
        self.input_dim = input_dim
        self.hidden_layers = tuple(int(h) for h in hidden_layers)
        self.output_dim = output_dim
        self.prior_sigma = prior_sigma
        self.noise_sigma = noise_sigma
        self.n_mc_samples = max(1, int(n_mc_samples))
        self.kl_weight = kl_weight
        self._rng = np.random.default_rng(seed)
        self._x_scaler = StandardScaler()
        self._y_scaler = StandardScaler()
        self._init_parameters()
        self._optimizer = make_optimizer(optimizer, [self._params], learning_rate)
        self.loss_history: list[float] = []
        self._fitted = False

    # ------------------------------------------------------------------ setup
    def _layer_sizes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_layers, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))

    def _init_parameters(self) -> None:
        # Every per-parameter quantity (mu, rho, sigma, one draw's noise, one
        # draw's gradient) is a flat vector laid out layer by layer, weight
        # before bias, so the elementwise work of a step is a handful of
        # whole-vector operations; _layers() gives the per-layer views.
        self._segments: list[tuple[slice, tuple[int, int], slice]] = []
        offset = 0
        for fan_in, fan_out in self._layer_sizes():
            weight_end = offset + fan_in * fan_out
            self._segments.append(
                (slice(offset, weight_end), (fan_in, fan_out), slice(weight_end, weight_end + fan_out))
            )
            offset = weight_end + fan_out
        self._n_params = offset
        self._params = np.zeros((2, offset))
        self._mu, self._rho = self._params  # row views of the optimiser's one parameter
        self._rho[...] = -4.0  # softplus(-4) ~ 0.018: small initial posterior std
        for weight_mu in self.weight_mu:
            limit = np.sqrt(2.0 / weight_mu.shape[0])
            weight_mu[...] = self._rng.normal(0.0, limit, size=weight_mu.shape)

    def __setstate__(self, state: dict) -> None:
        """Restore a pickled or copied model, with ``_mu`` and ``_rho`` viewing ``_params`` again."""
        self.__dict__.update(state)
        self._mu, self._rho = self._params

    def _layers(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer views of a flat ``(..., n_params)`` array.

        Weights come back as ``(..., fan_in, fan_out)`` and biases as
        ``(..., fan_out)``; writing to a view writes to ``flat``.
        """
        lead = flat.shape[:-1]
        weights = [flat[..., weight].reshape(*lead, *shape) for weight, shape, _ in self._segments]
        biases = [flat[..., bias] for _, _, bias in self._segments]
        return weights, biases

    @property
    def weight_mu(self) -> list[np.ndarray]:
        """Posterior means of the weights, one ``(fan_in, fan_out)`` view per layer."""
        return self._layers(self._mu)[0]

    @property
    def bias_mu(self) -> list[np.ndarray]:
        """Posterior means of the biases, one ``(fan_out,)`` view per layer."""
        return self._layers(self._mu)[1]

    @property
    def weight_rho(self) -> list[np.ndarray]:
        """Weight ``rho`` (posterior std ``softplus(rho)``), one view per layer."""
        return self._layers(self._rho)[0]

    @property
    def bias_rho(self) -> list[np.ndarray]:
        """Bias ``rho`` (posterior std ``softplus(rho)``), one view per layer."""
        return self._layers(self._rho)[1]

    # --------------------------------------------------------------- internals
    def _draw(self, sigma: np.ndarray, noise: np.ndarray, drawn: np.ndarray) -> None:
        """Fill ``noise`` with standard normals and ``drawn`` with ``mu + sigma * noise``.

        Both are ``(S, n_params)``: ``S`` weight draws by the
        reparameterisation trick.  The noise comes from one
        ``standard_normal`` call laid out draw-major, then layer by layer,
        weight before bias: the order a loop over draws and layers would
        consume the generator in.
        """
        self._rng.standard_normal(out=noise)
        np.multiply(sigma, noise, out=drawn)
        drawn += self._mu

    def _sample_layer_weights(self, n_draws: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Draw ``n_draws`` weight sets: per-layer stacks ``(S, fan_in, fan_out)`` and ``(S, fan_out)``."""
        noise, drawn = np.empty((2, n_draws, self._n_params))
        self._draw(self._sigma, noise, drawn)
        return self._layers(drawn)

    def _backward(
        self,
        output_grad: np.ndarray,
        weights: list[np.ndarray],
        activations: list[np.ndarray],
        weight_grads: list[np.ndarray],
        bias_grads: list[np.ndarray],
    ) -> None:
        """Per-draw data-term gradients w.r.t. the drawn weights.

        Writes them into ``weight_grads`` and ``bias_grads``, the per-layer
        views of one ``(S, n_params)`` array.
        """
        grad = output_grad
        for index in range(len(weights) - 1, -1, -1):
            weight_grads[index][...] = np.swapaxes(activations[index], -1, -2) @ grad
            bias_grads[index][...] = grad.sum(axis=-2)
            if index > 0:
                grad = grad @ np.swapaxes(weights[index], -1, -2)
                grad *= activations[index] > 0.0  # the ReLU's derivative

    def _kl_term_and_grads(
        self, sigma: np.ndarray, sigma_grad: np.ndarray, terms: np.ndarray, grads: np.ndarray
    ) -> float:
        """Closed-form KL(q || prior); fills ``grads`` with its gradients.

        Row 0 of the ``(2, n_params)`` ``grads`` receives the gradient
        w.r.t. mu and row 1 the one w.r.t. rho.  Takes ``softplus(rho)`` and
        its derivative as computed for the step, so neither is evaluated
        twice, and uses ``terms`` as scratch space.  The KL is summed per
        layer's weights, then biases, in layer order.
        """
        prior_var = self.prior_sigma**2
        mu_grad, rho_grad = grads
        # terms = log(prior_sigma / sigma) + (sigma**2 + mu**2) / (2 prior_var) - 0.5
        np.divide(self.prior_sigma, sigma, out=terms)
        np.log(terms, out=terms)
        np.square(sigma, out=mu_grad)
        np.square(self._mu, out=rho_grad)
        mu_grad += rho_grad
        mu_grad /= 2.0 * prior_var
        terms += mu_grad
        terms -= 0.5
        kl_total = 0.0
        for weight, _, bias in self._segments:
            kl_total += float(terms[weight].sum())
            kl_total += float(terms[bias].sum())
        np.divide(self._mu, prior_var, out=mu_grad)
        # rho_grad = (sigma / prior_var - 1 / sigma) * sigma_grad
        np.divide(sigma, prior_var, out=rho_grad)
        np.divide(1.0, sigma, out=terms)
        rho_grad -= terms
        rho_grad *= sigma_grad
        return kl_total

    # -------------------------------------------------------------------- API
    def fit(
        self,
        inputs,
        targets,
        epochs: int = 150,
        batch_size: int = 64,
        reset_scalers: bool = True,
    ) -> "BayesianNeuralNetwork":
        """Train the variational posterior on ``(inputs, targets)``."""
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(targets, dtype=float).reshape(len(x), -1)
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input features, got {x.shape[1]}")
        if reset_scalers or not self._x_scaler.is_fitted:
            self._x_scaler.fit(x)
            self._y_scaler.fit(y)
        x_std = self._x_scaler.transform(x)
        y_std = self._y_scaler.transform(y)
        n_samples = len(x_std)
        batch_size = max(1, min(batch_size, n_samples))
        n_batches = int(np.ceil(n_samples / batch_size))
        kl_weight = self.kl_weight if self.kl_weight is not None else 1.0 / max(n_samples, 1)
        noise_var = self.noise_sigma**2

        scale = 1.0 / self.n_mc_samples
        # The step's per-parameter vectors, allocated once and filled in place
        # at every step.
        sigma, sigma_grad, kl_terms = np.empty((3, self._n_params))
        noise, drawn, draw_grads = np.empty((3, self.n_mc_samples, self._n_params))
        kl_grad, step_grad = np.empty((2, 2, self._n_params))
        weights, biases = self._layers(drawn)
        weight_grads, bias_grads = self._layers(draw_grads)
        for _ in range(epochs):
            order = self._rng.permutation(n_samples)
            epoch_loss = 0.0
            for start in range(0, n_samples, batch_size):
                batch_idx = order[start : start + batch_size]
                batch_x = x_std[batch_idx]
                batch_y = y_std[batch_idx]

                # One step: all n_mc_samples draws go through the network as
                # one stack, then their gradients are summed over the draw axis.
                softplus(self._rho, out=sigma)
                softplus_grad(self._rho, out=sigma_grad)
                self._draw(sigma, noise, drawn)
                prediction, activations = _forward(batch_x, weights, biases)
                error = prediction - batch_y
                nll = np.sum(error**2, axis=(1, 2)) / (2.0 * noise_var)
                output_grad = error / noise_var / len(batch_x) * n_samples / n_batches
                self._backward(output_grad, weights, activations, weight_grads, bias_grads)
                kl = self._kl_term_and_grads(sigma, sigma_grad, kl_terms, kl_grad)
                # step_grad = scale * [sum of draw_grads, sum of draw_grads * noise * sigma_grad]
                #             + kl_weight * kl_grad, rows w.r.t. mu and rho.
                _sum_draws(draw_grads, out=step_grad[0])
                draw_grads *= noise
                draw_grads *= sigma_grad
                _sum_draws(draw_grads, out=step_grad[1])
                step_grad *= scale
                kl_grad *= kl_weight
                step_grad += kl_grad
                self._optimizer.step([step_grad])
                # Python's sum adds the draws' losses left to right from zero.
                epoch_loss += sum(nll.tolist()) * scale + kl_weight * kl
            self.loss_history.append(epoch_loss / n_samples)
        self._sigma = softplus(self._rho)  # only a fit changes rho, so inference draws with this
        self._fitted = True
        return self

    def predict(self, inputs, n_samples: int = 30) -> tuple[np.ndarray, np.ndarray]:
        """Monte-Carlo posterior predictive mean and standard deviation."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        x_std = self._x_scaler.transform(x)
        weights, biases = self._sample_layer_weights(n_samples)
        draws, _ = _forward(x_std, weights, biases)
        mean_std_units = draws.mean(axis=0)
        std_std_units = draws.std(axis=0)
        mean = self._y_scaler.inverse_transform(mean_std_units)
        std = self._y_scaler.inverse_transform_std(std_std_units)
        if self.output_dim == 1:
            return mean[:, 0], std[:, 0]
        return mean, std

    def sample_function(self) -> _SampledNetwork:
        """Draw one deterministic function from the posterior (Thompson sampling)."""
        self._require_fitted()
        weights, biases = self._sample_layer_weights(1)
        return _SampledNetwork(
            [weight[0] for weight in weights],
            [bias[0] for bias in biases],
            self._x_scaler,
            self._y_scaler,
        )

    def sample_predict(self, inputs) -> np.ndarray:
        """Evaluate a single posterior function draw on ``inputs``."""
        return self.sample_function()(inputs)

    def mean_predict(self, inputs) -> np.ndarray:
        """Posterior-mean prediction (weights fixed to their variational means)."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        x_std = self._x_scaler.transform(x)
        prediction, _ = _forward(x_std, self.weight_mu, self.bias_mu)
        result = self._y_scaler.inverse_transform(prediction)
        return result[:, 0] if self.output_dim == 1 else result

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed at least once."""
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("BayesianNeuralNetwork used before fit()")
