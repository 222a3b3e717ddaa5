"""Tests for the search spaces, acquisition functions and adaptive penalisation."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.acquisition import (
    crgp_ucb_beta,
    crgp_ucb_kappa,
    expected_improvement,
    gp_ucb_beta,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.core.penalty import AdaptiveMultiplier
from repro.core.spaces import BoxSpace, ConfigurationSpace, SimulationParameterSpace
from repro.sim.config import SliceConfig
from repro.sim.parameters import SimulationParameters


class TestBoxSpace:
    def test_sampling_stays_inside_bounds(self):
        space = BoxSpace([0.0, -1.0], [2.0, 1.0])
        samples = space.sample(200, np.random.default_rng(0))
        assert samples.shape == (200, 2)
        assert np.all(samples >= space.lows) and np.all(samples <= space.highs)

    def test_normalize_denormalize_round_trip(self):
        space = BoxSpace([10.0, 0.0], [20.0, 5.0])
        points = np.array([[12.0, 1.0], [20.0, 0.0]])
        assert np.allclose(space.denormalize(space.normalize(points)), points)

    def test_clip_and_contains(self):
        space = BoxSpace([0.0], [1.0])
        assert space.clip([[2.0]])[0, 0] == 1.0
        assert space.contains([0.5])
        assert not space.contains([1.5])

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            BoxSpace([0.0], [0.0])
        with pytest.raises(ValueError):
            BoxSpace([0.0, 1.0], [1.0])

    def test_invalid_sample_count_raises(self):
        with pytest.raises(ValueError):
            BoxSpace([0.0], [1.0]).sample(0, np.random.default_rng(0))


class TestConfigurationSpace:
    def test_dimension_and_names_match_table2(self):
        space = ConfigurationSpace()
        assert space.dim == 6
        assert space.names[0] == "bandwidth_ul"

    def test_sample_configs_are_valid(self):
        space = ConfigurationSpace()
        configs = space.sample_configs(20, np.random.default_rng(1))
        assert len(configs) == 20
        assert all(isinstance(c, SliceConfig) for c in configs)

    def test_resource_usage_matches_slice_config(self):
        space = ConfigurationSpace()
        config = SliceConfig(bandwidth_ul=9, bandwidth_dl=3, backhaul_bw=6.2, cpu_ratio=0.8)
        vectorised = space.resource_usage(config.to_array())[0]
        assert vectorised == pytest.approx(config.resource_usage())

    def test_grid_has_expected_size(self):
        space = ConfigurationSpace()
        grid = space.grid(2)
        assert grid.shape == (2**6, 6)
        with pytest.raises(ValueError):
            space.grid(1)

    def test_to_configs_batch(self):
        space = ConfigurationSpace()
        points = space.sample(5, np.random.default_rng(2))
        configs = space.to_configs(points)
        assert len(configs) == 5


class TestSimulationParameterSpace:
    def test_original_has_zero_distance(self):
        space = SimulationParameterSpace()
        assert space.parameter_distance(space.original.to_array())[0] == pytest.approx(0.0)

    def test_distance_grows_with_deviation(self):
        space = SimulationParameterSpace()
        near = space.original.replace(compute_time=5.0)
        far = space.original.replace(compute_time=30.0, loading_time=30.0, backhaul_delay=20.0)
        assert space.parameter_distance(far.to_array())[0] > space.parameter_distance(near.to_array())[0]

    def test_ground_truth_like_shift_has_explainable_distance(self):
        """Adjustments of the Table 4 magnitude should measure ~0.1."""
        space = SimulationParameterSpace()
        shifted = SimulationParameters(38.9, 2.0, 9.2, 4.0, 8.0, 10.0, 14.0)
        distance = space.parameter_distance(shifted.to_array())[0]
        assert 0.03 < distance < 0.2

    def test_feasible_samples_respect_distance_threshold(self):
        space = SimulationParameterSpace(distance_threshold=0.05)
        samples = space.sample_feasible(50, np.random.default_rng(3))
        distances = space.parameter_distance(samples)
        assert np.all(distances <= 0.05 + 1e-9)

    @staticmethod
    def _sample_feasible_row_by_row(space, count, rng):
        """The per-row rejection loop ``sample_feasible`` replaced, kept as its oracle."""
        original_unit = space.normalize(space.original.to_array())[0]
        accepted = []
        attempts, scale = 0, 1.0
        while len(accepted) < count:
            proposals = rng.uniform(0.0, 1.0, size=(count * 2, space.dim))
            proposals = original_unit + (proposals - original_unit) * scale
            distances = np.linalg.norm(proposals - original_unit, axis=1) / space.DISTANCE_SCALE
            for row, distance in zip(proposals, distances):
                if distance <= space.distance_threshold and len(accepted) < count:
                    accepted.append(np.clip(row, 0.0, 1.0))
            attempts += 1
            if attempts % 3 == 0:
                scale *= 0.8
        return space.denormalize(np.array(accepted))

    @pytest.mark.parametrize("threshold", [0.05, 0.3, 0.5])
    @pytest.mark.parametrize("count", [1, 7, 800])
    def test_feasible_samples_match_the_row_loop_bit_for_bit(self, count, threshold):
        space = SimulationParameterSpace(distance_threshold=threshold)
        for seed in range(3):
            block_rng, row_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            samples = space.sample_feasible(count, block_rng)
            expected = self._sample_feasible_row_by_row(space, count, row_rng)
            assert samples.shape == expected.shape == (count, space.dim)
            assert samples.tobytes() == expected.tobytes()
            # The generator is left where the row loop leaves it.
            assert block_rng.bit_generator.state == row_rng.bit_generator.state

    def test_is_feasible(self):
        space = SimulationParameterSpace(distance_threshold=0.05)
        assert space.is_feasible(space.original.to_array())
        far = space.original.replace(compute_time=30.0, loading_time=30.0, backhaul_delay=20.0)
        assert not space.is_feasible(far.to_array())

    def test_invalid_threshold_raises(self):
        with pytest.raises(ValueError):
            SimulationParameterSpace(distance_threshold=0.0)

    def test_to_parameters_clips(self):
        space = SimulationParameterSpace()
        params = space.to_parameters([100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0])
        assert isinstance(params, SimulationParameters)


class TestAcquisitionFunctions:
    def test_expected_improvement_prefers_better_mean(self):
        scores = expected_improvement([0.5, 1.5], [0.1, 0.1], best=1.0)
        assert scores[1] > scores[0]

    def test_expected_improvement_values_uncertainty(self):
        scores = expected_improvement([1.0, 1.0], [0.01, 0.5], best=1.0)
        assert scores[1] > scores[0]

    def test_probability_of_improvement_is_a_probability(self):
        scores = probability_of_improvement([0.0, 2.0], [1.0, 1.0], best=1.0)
        assert np.all((scores >= 0) & (scores <= 1))
        assert scores[1] > scores[0]

    def test_ei_and_pi_are_bitwise_equal_to_scipy_stats(self):
        from scipy import stats

        rng = np.random.default_rng(0)
        mean = rng.normal(0.0, 5.0, size=2000)
        std = np.abs(rng.normal(0.0, 2.0, size=2000))
        std[:10] = 0.0
        z = (mean - 0.3 - 0.01) / np.maximum(std, 1e-12)
        expected_ei = (mean - 0.3 - 0.01) * stats.norm.cdf(z) + np.maximum(
            std, 1e-12
        ) * stats.norm.pdf(z)
        assert expected_improvement(mean, std, best=0.3).tobytes() == expected_ei.tobytes()
        assert (
            probability_of_improvement(mean, std, best=0.3).tobytes()
            == stats.norm.cdf(z).tobytes()
        )

    def test_cli_import_does_not_load_scipy_stats(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, repro.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_ucb_adds_scaled_uncertainty(self):
        scores = upper_confidence_bound([1.0], [0.5], beta=4.0)
        assert scores[0] == pytest.approx(2.0)
        with pytest.raises(ValueError):
            upper_confidence_bound([1.0], [0.5], beta=-1.0)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            expected_improvement([1.0, 2.0], [0.1], best=0.0)
        with pytest.raises(ValueError):
            upper_confidence_bound([1.0], [-0.1], beta=1.0)

    def test_gp_ucb_beta_grows_with_iterations(self):
        assert gp_ucb_beta(100, 6) > gp_ucb_beta(2, 6) > 0
        with pytest.raises(ValueError):
            gp_ucb_beta(0, 6)
        with pytest.raises(ValueError):
            gp_ucb_beta(1, 6, delta=1.5)

    def test_crgp_ucb_kappa_grows_with_iterations(self):
        assert crgp_ucb_kappa(50, 0.1) > crgp_ucb_kappa(2, 0.1) > 0
        with pytest.raises(ValueError):
            crgp_ucb_kappa(1, 0.0)

    def test_crgp_ucb_beta_is_clipped_and_conservative(self):
        rng = np.random.default_rng(0)
        betas = [crgp_ucb_beta(50, rho=0.1, clip_upper=10.0, rng=rng) for _ in range(200)]
        assert max(betas) <= 10.0
        assert min(betas) >= 0.0
        # cRGP-UCB should be (much) smaller than the GP-UCB coefficient.
        assert np.mean(betas) < gp_ucb_beta(50, 6)

    def test_crgp_ucb_beta_invalid_clip_raises(self):
        with pytest.raises(ValueError):
            crgp_ucb_beta(5, clip_upper=0.0)


class TestAdaptiveMultiplier:
    def test_multiplier_increases_on_violation(self):
        multiplier = AdaptiveMultiplier(step_size=0.1, initial=0.5)
        multiplier.update(qoe_estimate=0.7, requirement=0.9)
        assert multiplier.value == pytest.approx(0.52)

    def test_multiplier_decreases_when_requirement_met(self):
        multiplier = AdaptiveMultiplier(step_size=0.1, initial=0.5)
        multiplier.update(qoe_estimate=1.0, requirement=0.9)
        assert multiplier.value == pytest.approx(0.49)

    def test_multiplier_never_goes_negative(self):
        multiplier = AdaptiveMultiplier(step_size=1.0, initial=0.0)
        multiplier.update(qoe_estimate=1.0, requirement=0.5)
        assert multiplier.value == 0.0

    def test_lagrangian_matches_equation8(self):
        multiplier = AdaptiveMultiplier(initial=2.0)
        value = multiplier.lagrangian(usage=0.3, qoe=0.8, requirement=0.9)
        assert value == pytest.approx(0.3 - 2.0 * (0.8 - 0.9))

    def test_lagrangian_is_vectorised(self):
        multiplier = AdaptiveMultiplier(initial=1.0)
        values = multiplier.lagrangian([0.1, 0.2], [0.95, 0.5], 0.9)
        assert values.shape == (2,)
        assert values[1] > values[0]

    def test_history_and_reset(self):
        multiplier = AdaptiveMultiplier(initial=0.3)
        multiplier.update(0.5, 0.9)
        assert len(multiplier.history) == 2
        multiplier.reset(0.0)
        assert multiplier.value == 0.0
        assert multiplier.history == [0.0]

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            AdaptiveMultiplier(step_size=0.0)
        with pytest.raises(ValueError):
            AdaptiveMultiplier(initial=-1.0)
        with pytest.raises(ValueError):
            AdaptiveMultiplier().update(0.5, 1.5)
        with pytest.raises(ValueError):
            AdaptiveMultiplier().reset(-1.0)

    def test_repeated_violations_drive_multiplier_up(self):
        multiplier = AdaptiveMultiplier(step_size=0.1)
        for _ in range(50):
            multiplier.update(0.5, 0.9)
        assert multiplier.value == pytest.approx(50 * 0.1 * 0.4)
