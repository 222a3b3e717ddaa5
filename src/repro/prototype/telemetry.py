"""Telemetry: the online collection ``D_r``.

Stage 1 needs a collection of slice performance samples measured on the real
network under the currently deployed configuration (``D_r`` in Eq. 1); the
paper stresses that this should impose minimal collection effort, e.g. by
logging what the deployed method already achieves.  The collection can be
saved to and loaded from JSON (the artifact uses pickle; JSON keeps the files
readable).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["OnlineCollection"]


class OnlineCollection:
    """Accumulates latency samples measured on the real network (``D_r``)."""

    def __init__(self, samples=None) -> None:
        self._samples: list[float] = []
        if samples is not None:
            self.extend(samples)

    def extend(self, latencies) -> None:
        """Add a batch of latency samples (non-finite values are dropped)."""
        arr = np.asarray(latencies, dtype=float).ravel()
        self._samples.extend(float(v) for v in arr[np.isfinite(arr)])

    def samples(self) -> np.ndarray:
        """All collected samples as an array."""
        return np.asarray(self._samples, dtype=float)

    def __len__(self) -> int:
        """Number of latency samples collected."""
        return len(self._samples)

    def __bool__(self) -> bool:
        """Whether any samples have been collected."""
        return bool(self._samples)

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Write the collection to a JSON file."""
        Path(path).write_text(json.dumps({"latencies_ms": self._samples}))

    @classmethod
    def load(cls, path) -> "OnlineCollection":
        """Read a collection previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        return cls(payload["latencies_ms"])
