"""Search spaces for the Bayesian-optimisation stages.

Two boxes are searched by Atlas:

* the 6-dimensional *configuration space* of Table 2 (stage 2 and stage 3),
  whose actions are :class:`~repro.sim.config.SliceConfig` instances, and
* the 7-dimensional *simulation-parameter space* of Table 3 (stage 1), which
  additionally carries the parameter-distance constraint ``|x - x_hat|_2 <= H``
  of Eq. 2 so the augmented simulator stays explainable.

All surrogate models operate on the normalised ``[0, 1]`` representation of
these boxes, which keeps length scales comparable across dimensions.
"""

from __future__ import annotations

import numpy as np

from repro.sim.config import CONFIG_NAMES, SliceConfig
from repro.sim.parameters import PARAMETER_NAMES, SimulationParameters

__all__ = ["BoxSpace", "ConfigurationSpace", "SimulationParameterSpace"]


class BoxSpace:
    """Axis-aligned box with uniform sampling and normalisation helpers."""

    def __init__(self, lows, highs, names: tuple[str, ...] | None = None) -> None:
        self.lows = np.asarray(lows, dtype=float).ravel()
        self.highs = np.asarray(highs, dtype=float).ravel()
        if self.lows.shape != self.highs.shape:
            raise ValueError("lows and highs must have the same shape")
        if np.any(self.highs <= self.lows):
            raise ValueError("every upper bound must exceed its lower bound")
        self.names = names if names is not None else tuple(f"x{i}" for i in range(len(self.lows)))

    @property
    def dim(self) -> int:
        """Dimensionality of the box."""
        return len(self.lows)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` uniform points, shape ``(count, dim)``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return rng.uniform(self.lows, self.highs, size=(count, self.dim))

    def clip(self, points) -> np.ndarray:
        """Clip points to the box."""
        return np.clip(np.atleast_2d(np.asarray(points, dtype=float)), self.lows, self.highs)

    def normalize(self, points) -> np.ndarray:
        """Map points to the unit cube."""
        arr = np.atleast_2d(np.asarray(points, dtype=float))
        return (arr - self.lows) / (self.highs - self.lows)

    def denormalize(self, unit_points) -> np.ndarray:
        """Map unit-cube points back to the box."""
        arr = np.atleast_2d(np.asarray(unit_points, dtype=float))
        return self.lows + np.clip(arr, 0.0, 1.0) * (self.highs - self.lows)

    def contains(self, point, tolerance: float = 1e-9) -> bool:
        """Whether ``point`` lies inside the box (within a tolerance)."""
        arr = np.asarray(point, dtype=float).ravel()
        return bool(np.all(arr >= self.lows - tolerance) and np.all(arr <= self.highs + tolerance))


class ConfigurationSpace(BoxSpace):
    """The 6-dimensional slice configuration space of Table 2."""

    def __init__(self) -> None:
        lows, highs = SliceConfig.bounds_arrays()
        super().__init__(lows, highs, names=CONFIG_NAMES)

    def sample_configs(self, count: int, rng: np.random.Generator) -> list[SliceConfig]:
        """Draw ``count`` random configuration actions."""
        return [SliceConfig.from_array(row) for row in self.sample(count, rng)]

    def to_config(self, point) -> SliceConfig:
        """Convert a raw vector to a :class:`SliceConfig` (clipped to range)."""
        return SliceConfig.from_array(np.asarray(point, dtype=float))

    def to_configs(self, points) -> list[SliceConfig]:
        """Convert a batch of raw vectors to configurations."""
        return [self.to_config(row) for row in np.atleast_2d(points)]

    def resource_usage(self, points) -> np.ndarray:
        """Vectorised resource usage ``F = |a / A|_1 / dim`` of raw configuration vectors."""
        arr = np.atleast_2d(np.asarray(points, dtype=float))
        fractions = (arr - self.lows) / (self.highs - self.lows)
        return np.clip(fractions, 0.0, 1.0).mean(axis=1)

    def grid(self, points_per_dim: int) -> np.ndarray:
        """Full factorial grid used by the DLDA offline dataset (Sec. 8.2)."""
        if points_per_dim < 2:
            raise ValueError("points_per_dim must be >= 2")
        axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in zip(self.lows, self.highs)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


class SimulationParameterSpace(BoxSpace):
    """The 7-dimensional simulation-parameter space of Table 3 with Eq. 2's constraint.

    Parameters
    ----------
    original:
        The original simulation parameters ``x_hat`` (zero parameter distance).
    distance_threshold:
        The threshold ``H`` on the *normalised* l2 parameter distance; points
        farther than this from the original parameters are infeasible.
    """

    def __init__(
        self,
        original: SimulationParameters | None = None,
        distance_threshold: float = 0.3,
    ) -> None:
        lows, highs = SimulationParameters.bounds_arrays()
        super().__init__(lows, highs, names=PARAMETER_NAMES)
        if distance_threshold <= 0:
            raise ValueError("distance_threshold must be positive")
        self.original = original if original is not None else SimulationParameters.defaults()
        self.distance_threshold = float(distance_threshold)

    #: Scale divisor applied to the normalised l2 norm so that "explainable"
    #: parameter adjustments measure roughly 0.1 (the magnitude Table 4 of the
    #: paper reports when weighted with ``alpha = 7``).
    DISTANCE_SCALE = 10.0

    def parameter_distance(self, points) -> np.ndarray:
        """Parameter distance ``|x - x_hat|_2`` of raw parameter vectors to ``x_hat``.

        Each dimension is normalised by its feasible range (so dB, ms and
        Mbps contribute comparably) and the l2 norm is divided by
        :attr:`DISTANCE_SCALE`.
        """
        arr = np.atleast_2d(np.asarray(points, dtype=float))
        original_unit = self.normalize(self.original.to_array())[0]
        return np.linalg.norm(self.normalize(arr) - original_unit, axis=1) / self.DISTANCE_SCALE

    def is_feasible(self, point) -> bool:
        """Whether ``point`` satisfies both the box and the distance constraint."""
        return self.contains(point) and float(self.parameter_distance(point)[0]) <= self.distance_threshold

    def sample_feasible(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` points satisfying the distance constraint of Eq. 2.

        Sampling is done around the original parameters with decreasing radius
        rejection, which is both fast and biased toward explainable parameters
        — mirroring the paper's preference for small parameter distances.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        original_unit = self.normalize(self.original.to_array())[0]
        blocks: list[np.ndarray] = []
        accepted = 0
        # Uniform box proposals first, then shrink toward the original point if
        # the acceptance rate of the constraint is low.
        attempts = 0
        scale = 1.0
        while accepted < count:
            proposals_unit = rng.uniform(0.0, 1.0, size=(count * 2, self.dim))
            proposals_unit = original_unit + (proposals_unit - original_unit) * scale
            distances = np.linalg.norm(proposals_unit - original_unit, axis=1) / self.DISTANCE_SCALE
            # The first feasible rows of the block, in proposal order.
            rows = proposals_unit[distances <= self.distance_threshold][: count - accepted]
            blocks.append(np.clip(rows, 0.0, 1.0))
            accepted += len(rows)
            attempts += 1
            if attempts % 3 == 0:
                scale *= 0.8
        return self.denormalize(np.concatenate(blocks))

    def to_parameters(self, point) -> SimulationParameters:
        """Convert a raw vector to :class:`SimulationParameters` (clipped to range)."""
        return SimulationParameters.from_array(np.asarray(point, dtype=float))
