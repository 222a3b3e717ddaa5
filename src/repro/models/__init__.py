"""Machine-learning substrates used by the Atlas stages.

The paper builds its surrogates on PyTorch (Bayesian neural network trained
with Bayes-by-Backprop) and scikit-learn (Gaussian process with a Matérn-2.5
kernel).  Neither library is available in this offline environment, so the
same models are implemented here on top of numpy/scipy:

* :class:`~repro.models.mlp.MLPRegressor` — deterministic multi-layer
  perceptron with manual backpropagation and an Adam optimiser (used by the
  DLDA baseline and as the deterministic core of the BNN).
* :class:`~repro.models.bnn.BayesianNeuralNetwork` — variational Gaussian
  weight posterior trained with Bayes-by-Backprop; supports single-draw
  function sampling for Thompson sampling and Monte-Carlo mean/std
  prediction.
* :class:`~repro.models.gp.GaussianProcessRegressor` — exact GP regression
  with a constant × Matérn-2.5 kernel, target normalisation and marginal-likelihood
  hyper-parameter fitting.
"""

from repro.models.bnn import BayesianNeuralNetwork
from repro.models.gp import GaussianProcessRegressor
from repro.models.kernels import ConstantKernel, Matern52Kernel
from repro.models.mlp import MLPRegressor
from repro.models.scaler import StandardScaler

__all__ = [
    "BayesianNeuralNetwork",
    "GaussianProcessRegressor",
    "MLPRegressor",
    "StandardScaler",
    "Matern52Kernel",
    "ConstantKernel",
]
