"""Summary statistics and empirical CDF helpers for latency collections."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["empirical_cdf", "summarize_latencies", "LatencySummary"]


def empirical_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(values, probabilities)`` of the empirical CDF of ``samples``.

    Non-finite samples (dropped frames) are excluded from the curve; the
    probabilities therefore describe the distribution of delivered frames, as
    the paper's CDF figures do.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return np.zeros(0), np.zeros(0)
    values = np.sort(arr)
    probabilities = np.arange(1, values.size + 1, dtype=float) / values.size
    return values, probabilities


@dataclass(frozen=True)
class LatencySummary:
    """Descriptive statistics of one latency collection (milliseconds)."""

    count: int
    mean: float
    std: float
    median: float
    p90: float
    p95: float
    p99: float
    minimum: float
    maximum: float
    drop_rate: float

    def as_dict(self) -> dict[str, float]:
        """Return the summary as a plain dictionary (useful for reporting)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "median": self.median,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
            "drop_rate": self.drop_rate,
        }


def summarize_latencies(samples) -> LatencySummary:
    """Summarise a latency collection, tracking dropped frames separately.

    Degenerate collections return defined values without numpy warnings: an
    empty or all-non-finite collection (nothing delivered) yields
    ``count=0`` with every statistic ``nan`` — the truthful "no data"
    summary, which downstream envelopes treat as a failure because no
    finite bound contains NaN — and ``drop_rate`` is ``1.0`` when frames
    were generated but none delivered, ``0.0`` when nothing was generated
    at all.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    total = arr.size
    delivered = arr[np.isfinite(arr)]
    if delivered.size == 0:
        return LatencySummary(
            count=0,
            mean=float("nan"),
            std=float("nan"),
            median=float("nan"),
            p90=float("nan"),
            p95=float("nan"),
            p99=float("nan"),
            minimum=float("nan"),
            maximum=float("nan"),
            drop_rate=1.0 if total else 0.0,
        )
    # The quantiles depend only on the order statistics, so one sorted copy
    # serves all four with the bits of four separate calls on ``delivered``.
    ordered = np.sort(delivered)
    p90, p95, p99 = np.percentile(ordered, (90, 95, 99))
    return LatencySummary(
        count=int(delivered.size),
        mean=float(delivered.mean()),
        std=float(delivered.std()),
        median=float(np.median(ordered)),
        p90=float(p90),
        p95=float(p95),
        p99=float(p99),
        minimum=float(delivered.min()),
        maximum=float(delivered.max()),
        drop_rate=float((total - delivered.size) / total) if total else 0.0,
    )
