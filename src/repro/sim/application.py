"""End-to-end frame-offloading application.

One frame's life cycle mirrors the prototype's Android application
(Sec. 7.1): the UE captures and encodes a frame (*loading*), transmits it on
the slice's uplink PRBs, the frame crosses the metered backhaul and the
slice's SPGW-U, is processed by the edge server (ORB feature extraction) and
the result travels back through the core, backhaul and downlink to the UE.
The application keeps at most ``scenario.traffic`` frames in flight, which is
how the paper emulates 1–4 users.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.core_network import CoreNetwork
from repro.sim.edge import EdgeServer
from repro.sim.events import EventScheduler
from repro.sim.imperfections import Imperfections
from repro.sim.parameters import SimulationParameters
from repro.sim.ran import RadioAccessNetwork
from repro.sim.scenario import Scenario
from repro.sim.traffic import FrameSizeModel
from repro.sim.transport import BackhaulLink

__all__ = ["FrameRecord", "OffloadingApplication"]


@dataclass
class FrameRecord:
    """Per-frame trace: sizes, per-stage timestamps and radio details."""

    frame_id: int
    created_at: float
    size_bytes: float
    result_size_bytes: float
    loading_done_at: float = float("nan")
    uplink_done_at: float = float("nan")
    backhaul_ul_done_at: float = float("nan")
    core_ul_done_at: float = float("nan")
    compute_done_at: float = float("nan")
    backhaul_dl_done_at: float = float("nan")
    completed_at: float = float("nan")
    uplink_mcs: int = -1
    downlink_mcs: int = -1
    uplink_sinr_db: float = float("nan")
    compute_time_ms: float = float("nan")
    extra_delay_ms: float = 0.0
    stage_durations: dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        """Whether the result made it back to the UE within the run."""
        return np.isfinite(self.completed_at)

    @property
    def latency_ms(self) -> float:
        """End-to-end latency in milliseconds (``nan`` if never completed)."""
        if not self.completed:
            return float("nan")
        return (self.completed_at - self.created_at) * 1e3


class OffloadingApplication:
    """Drives frames through the full slice path on the event scheduler."""

    def __init__(
        self,
        scheduler: EventScheduler,
        scenario: Scenario,
        params: SimulationParameters,
        ran: RadioAccessNetwork,
        backhaul: BackhaulLink,
        core: CoreNetwork,
        edge: EdgeServer,
        imperfections: Imperfections | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.scenario = scenario
        self.params = params
        self.ran = ran
        self.backhaul = backhaul
        self.core = core
        self.edge = edge
        self.imperfections = imperfections if imperfections is not None else Imperfections.none()
        self._rng = rng if rng is not None else np.random.default_rng()
        self._frame_model = FrameSizeModel(scenario, self._rng)
        self.records: list[FrameRecord] = []
        self._next_frame_id = 0
        self._in_flight = 0
        self._stopped = False

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Launch the initial window of frames (staggered by the loading time)."""
        for slot in range(self.scenario.traffic):
            self.scheduler.schedule(slot * 0.005, self._generate_frame)

    def stop(self) -> None:
        """Stop generating new frames (in-flight frames still complete)."""
        self._stopped = True

    # ----------------------------------------------------------------- stages
    def _loading_time_s(self) -> float:
        overhead = (
            self.imperfections.per_frame_overhead_ms
            + self.imperfections.per_traffic_overhead_ms * max(self.scenario.traffic - 1, 0)
        )
        loading_ms = self.scenario.base_loading_time_ms + self.params.loading_time + overhead
        jitter_ms = abs(self._rng.normal(0.0, 0.1 * self.scenario.base_loading_time_ms))
        return (loading_ms + jitter_ms) / 1e3

    def _generate_frame(self) -> None:
        if self._stopped:
            return
        frame = FrameRecord(
            frame_id=self._next_frame_id,
            created_at=self.scheduler.now,
            size_bytes=self._frame_model.sample_frame_bytes(),
            result_size_bytes=self._frame_model.sample_result_bytes(),
        )
        self._next_frame_id += 1
        self._in_flight += 1
        self.records.append(frame)
        self.scheduler.schedule(self._loading_time_s(), lambda: self._on_loaded(frame))

    def _on_loaded(self, frame: FrameRecord) -> None:
        frame.loading_done_at = self.scheduler.now
        frame.stage_durations["loading"] = (frame.loading_done_at - frame.created_at) * 1e3
        self.ran.uplink_server.submit(frame, self._on_uplink_done)

    def _on_uplink_done(self, frame: FrameRecord) -> None:
        frame.uplink_done_at = self.scheduler.now
        frame.stage_durations["uplink"] = (frame.uplink_done_at - frame.loading_done_at) * 1e3
        self.backhaul.uplink_server.submit(frame, self._on_backhaul_ul_done)

    def _on_backhaul_ul_done(self, frame: FrameRecord) -> None:
        frame.backhaul_ul_done_at = self.scheduler.now
        frame.stage_durations["backhaul_ul"] = (
            frame.backhaul_ul_done_at - frame.uplink_done_at
        ) * 1e3
        self.core.uplink_server.submit(frame, self._on_core_ul_done)

    def _on_core_ul_done(self, frame: FrameRecord) -> None:
        frame.core_ul_done_at = self.scheduler.now
        frame.stage_durations["core_ul"] = (frame.core_ul_done_at - frame.backhaul_ul_done_at) * 1e3
        self.edge.server.submit(frame, self._on_compute_done)

    def _on_compute_done(self, frame: FrameRecord) -> None:
        frame.compute_done_at = self.scheduler.now
        frame.stage_durations["compute"] = (frame.compute_done_at - frame.core_ul_done_at) * 1e3
        self.core.downlink_server.submit(frame, self._on_core_dl_done)

    def _on_core_dl_done(self, frame: FrameRecord) -> None:
        self.backhaul.downlink_server.submit(frame, self._on_backhaul_dl_done)

    def _on_backhaul_dl_done(self, frame: FrameRecord) -> None:
        frame.backhaul_dl_done_at = self.scheduler.now
        frame.stage_durations["backhaul_dl"] = (
            frame.backhaul_dl_done_at - frame.compute_done_at
        ) * 1e3
        self.ran.downlink_server.submit(frame, self._on_downlink_done)

    def _on_downlink_done(self, frame: FrameRecord) -> None:
        extra_delay_s = 0.0
        if (
            self.imperfections.spike_probability > 0
            and self._rng.random() < self.imperfections.spike_probability
        ):
            lo, hi = self.imperfections.spike_ms_range
            extra_delay_s = self._rng.uniform(lo, hi) / 1e3
            frame.extra_delay_ms = extra_delay_s * 1e3
        self.scheduler.schedule(extra_delay_s, lambda: self._complete_frame(frame))

    def _complete_frame(self, frame: FrameRecord) -> None:
        frame.completed_at = self.scheduler.now
        frame.stage_durations["downlink"] = (
            frame.completed_at - frame.backhaul_dl_done_at
        ) * 1e3
        self._in_flight -= 1
        # Keep the congestion window full: a completed frame frees one slot.
        self._generate_frame()

    # ---------------------------------------------------------------- results
    def completed_latencies_ms(self) -> np.ndarray:
        """Latencies (ms) of all frames that completed during the run."""
        return np.array([r.latency_ms for r in self.records if r.completed], dtype=float)

    def stage_breakdown_ms(self) -> dict[str, float]:
        """Mean duration (ms) of every pipeline stage over completed frames."""
        breakdown: dict[str, list[float]] = {}
        for record in self.records:
            if not record.completed:
                continue
            for stage, duration in record.stage_durations.items():
                breakdown.setdefault(stage, []).append(duration)
        return {stage: float(np.mean(values)) for stage, values in breakdown.items()}
