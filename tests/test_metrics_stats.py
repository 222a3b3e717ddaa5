"""Tests for the latency summary statistics and empirical CDF helpers."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.metrics.stats import empirical_cdf, summarize_latencies


class TestEmpiricalCdf:
    def test_cdf_is_sorted_and_reaches_one(self):
        values, probabilities = empirical_cdf([30.0, 10.0, 20.0])
        assert list(values) == [10.0, 20.0, 30.0]
        assert probabilities[-1] == pytest.approx(1.0)

    def test_cdf_is_monotone(self):
        rng = np.random.default_rng(0)
        values, probabilities = empirical_cdf(rng.normal(100, 20, size=500))
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(probabilities) > 0)

    def test_non_finite_samples_are_excluded(self):
        values, probabilities = empirical_cdf([10.0, np.nan, np.inf, 20.0])
        assert len(values) == 2

    def test_empty_input_gives_empty_curve(self):
        values, probabilities = empirical_cdf([])
        assert values.size == 0 and probabilities.size == 0


class TestSummarizeLatencies:
    def test_basic_statistics(self):
        summary = summarize_latencies([100.0, 200.0, 300.0])
        assert summary.count == 3
        assert summary.mean == pytest.approx(200.0)
        assert summary.median == pytest.approx(200.0)
        assert summary.minimum == 100.0
        assert summary.maximum == 300.0
        assert summary.drop_rate == 0.0

    def test_percentiles_are_ordered(self):
        rng = np.random.default_rng(1)
        summary = summarize_latencies(rng.exponential(100.0, size=1000))
        assert summary.median <= summary.p90 <= summary.p95 <= summary.p99 <= summary.maximum

    def test_drop_rate_counts_non_finite(self):
        summary = summarize_latencies([100.0, np.nan, np.inf, 200.0])
        assert summary.count == 2
        assert summary.drop_rate == pytest.approx(0.5)

    def test_all_dropped_collection(self):
        summary = summarize_latencies([np.nan, np.inf])
        assert summary.count == 0
        assert summary.drop_rate == 1.0
        assert np.isnan(summary.mean)

    def test_empty_collection(self):
        summary = summarize_latencies([])
        assert summary.count == 0
        assert summary.drop_rate == 0.0

    def test_as_dict_round_trip(self):
        summary = summarize_latencies([50.0, 150.0])
        payload = summary.as_dict()
        assert payload["count"] == 2
        assert payload["mean"] == pytest.approx(100.0)
        assert set(payload) >= {"mean", "std", "median", "p90", "p95", "p99", "min", "max"}


class TestDegenerateCollections:
    """Empty / all-dropped collections return defined values, never warnings."""

    def test_empty_collection_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = summarize_latencies([])
        assert summary.count == 0
        for name in ("mean", "std", "median", "p90", "p95", "p99", "min", "max"):
            assert np.isnan(summary.as_dict()[name])

    def test_all_nan_collection_emits_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = summarize_latencies([np.nan, np.nan, np.nan])
        assert summary.count == 0
        assert summary.drop_rate == 1.0
        assert np.isnan(summary.p95)

    def test_empirical_cdf_of_empty_collection_is_empty(self):
        values, probabilities = empirical_cdf([])
        assert values.size == 0 and probabilities.size == 0

    def test_empirical_cdf_drops_non_finite(self):
        values, probabilities = empirical_cdf([np.nan, 10.0, np.inf])
        assert values.tolist() == [10.0]
        assert probabilities.tolist() == [1.0]


#: Latency collections with ties, duplicates and dropped (non-finite) frames.
#: Every element is drawn on its own (no fill value), so arrays are varied.
collections = hnp.arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=120),
    elements=st.one_of(
        st.sampled_from([0.0, 1.0, 1.0, 2.5, 100.0, np.inf, -np.inf, np.nan]),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    ),
    fill=st.nothing(),
)


@given(collections)
# An even count whose middle pair averages to other bits than linear
# interpolation gives: the median must stay the mean of the two.
@example(np.array([27.392337464290858, np.nan, -46.04265724722594]))
@settings(max_examples=100, deadline=None)
def test_every_field_equals_the_four_quantile_formula_bit_for_bit(samples):
    """One sorted copy serves the median and percentiles with the bits of four calls."""
    delivered = samples[np.isfinite(samples)]
    summary = summarize_latencies(samples)
    if delivered.size == 0:
        assert summary.count == 0 and np.isnan(summary.median)
        return
    expected = {
        "count": delivered.size,
        "mean": float(delivered.mean()),
        "std": float(delivered.std()),
        "median": float(np.median(delivered)),
        "p90": float(np.percentile(delivered, 90)),
        "p95": float(np.percentile(delivered, 95)),
        "p99": float(np.percentile(delivered, 99)),
        "min": float(delivered.min()),
        "max": float(delivered.max()),
        "drop_rate": (samples.size - delivered.size) / samples.size,
    }
    actual = summary.as_dict()
    for name, value in expected.items():
        assert np.float64(actual[name]).tobytes() == np.float64(value).tobytes(), name
