"""Vectorized batch evaluation of the network simulator.

The scalar path (:meth:`repro.sim.network.NetworkSimulator.run`) walks every
frame through a discrete-event calendar — flexible, but each of the N
configurations a stage evaluates per iteration pays the full Python event
loop.  This module evaluates all N lanes of a batch in one NumPy pass:

* every per-frame quantity (frame sizes, link adaptation, HARQ/ARQ
  penalties, compute times, jitters) is precomputed as an ``(N, B)`` array
  for a block of ``B`` frame indices at a time, and
* the closed-loop pipeline itself — UE loading, radio uplink, backhaul,
  core, edge compute, core/backhaul/radio downlink, with ``traffic`` frames
  kept in flight — collapses to the Lindley recurrence of a tandem of FIFO
  servers, evaluated frame-by-frame with ``(N,)``-wide vector operations.

Numerical contract
    The vectorized path samples the *same distributions* as the scalar
    discrete-event path and applies the same queueing discipline, but it
    consumes its per-lane random stream in a different (fixed, batched)
    order.  Results for one request are therefore statistically equivalent
    to — not byte-identical with — the scalar path; the equivalence gate in
    ``tests/test_sim_batch.py`` pins the agreement on every catalog
    scenario.  The only behavioural approximation is frame re-ordering:
    the scalar path spawns a new frame on every *completion event*, while
    the vectorized recurrence assumes frame ``j`` is spawned by the
    completion of frame ``j - traffic``.  The two differ only when latency
    spikes reorder completions, which perturbs per-frame pairings but not
    the latency distribution.

Determinism and partition invariance
    Each lane draws from its own generator, seeded exactly like the scalar
    path (``SeedSequence([base_seed, request_seed])``), on a fixed schedule:
    the post-run draws (ping, saturation throughput) first, then one
    ``(_VARS, _BLOCK_FRAMES)`` block of normals/uniforms per block of frame
    indices.  A lane's draws depend only on its own request, never on which
    other requests share the batch, so ``run_batch`` results are
    reproducible per request under any batch composition.

    This per-lane seed-stream slicing is a load-bearing contract: it means
    any *partition* of a batch evaluates byte-identically to the whole
    batch.  Two rules make it hold.  A lane stops at its first frame that
    is not generated within its run and stays stopped, even if a later
    completion (spikes make completions non-monotone) would trigger a frame
    in time again — so a lane ends where it would end alone, however long
    its batch-mates run.  And the extra blocks a longer-lived composition
    draws are never consumed by a stopped lane's result.  The engine relies
    on exactly this twice over.  Its cache serves part of a batch and runs
    only the misses, so the results it mixes must equal one whole-batch
    pass; and a caller may submit one batch as several engine batches and
    still get the bytes of the whole.
    ``tests/test_engine_split_batches.py`` gates split batches through the
    engine on every catalog scenario, and ``tests/test_sim_batch.py``
    checks every lane of generated mixed batches against its one-lane
    batch.

Narrow and wide batches
    The recurrence has two implementations with the same arithmetic.  Wide
    batches step all lanes at once, one ``(N,)``-wide NumPy operation per
    server per frame (:class:`_ArrayLoop`).  Batches of at most
    :data:`_NARROW_LANES` lanes step one lane at a time on Python floats
    (:class:`_LaneLoop`): at N=1 a NumPy call costs more than the
    arithmetic it performs.  Both perform the same IEEE additions and
    maxima of finite or ``+inf`` values (never NaN, so ``a if a > b else
    b`` equals ``np.maximum``), so the two paths agree bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.sim import ran as _ran
from repro.sim.channel import PRB_BANDWIDTH_HZ
from repro.sim.config import SliceConfig
from repro.sim.core_network import BASE_FORWARDING_DELAY_MS
from repro.sim.edge import MINIMUM_CPU_RATIO
from repro.sim.imperfections import Imperfections
from repro.sim.lte import (
    block_error_rate_array,
    expected_transmissions_array,
    select_mcs_array,
    spectral_efficiency_array,
)
from repro.sim.transport import BASE_PROPAGATION_DELAY_MS, MINIMUM_BACKHAUL_MBPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import SimulationResult
    from repro.sim.parameters import SimulationParameters
    from repro.sim.scenario import Scenario

__all__ = ["simulate_batch"]

#: Frame indices evaluated per precomputation block.  Part of the per-lane
#: random-draw schedule: changing it re-shuffles the vectorized streams
#: (like changing a seed derivation would), so treat it as a constant.
_BLOCK_FRAMES = 256

#: Batches of at most this many lanes step the recurrence lane by lane on
#: Python floats (:class:`_LaneLoop`); wider ones keep the array loop
#: (:class:`_ArrayLoop`).  Set from the measured crossover on a 2-core x86
#: host (see ``docs/performance.md``); either side produces the same bits.
_NARROW_LANES = 8

#: Hard cap on frame indices per batch — a runaway guard, far above any
#: realistic closed-loop run (the paper's 60 s runs complete ~10^3 frames).
_MAX_FRAMES = 2_000_000

#: Thermal noise density (dBm/Hz), mirroring :mod:`repro.sim.channel`.
_THERMAL_NOISE_DBM_PER_HZ = -174.0

#: Core-network defaults mirrored from :class:`repro.sim.core_network.CoreNetwork`
#: (the simulator facade always builds it with default arguments).
_CORE_SERVICE_S = 0.1 / 1e3
_CORE_JITTER_MS = 0.2
#: Backhaul propagation jitter mirrored from :class:`repro.sim.transport.BackhaulLink`.
_BACKHAUL_JITTER_MS = 0.3

# Normal-draw rows of one precomputation block (fixed schedule, see module
# docstring).
_N_FRAME, _N_RESULT, _N_LOADING, _N_UL_FADE, _N_BH_UL, _N_CORE_UL, _N_COMPUTE, \
    _N_CORE_DL, _N_BH_DL, _N_DL_FADE = range(10)
# Uniform-draw rows.
_U_UL_DIST, _U_UL_DEEP, _U_UL_ERR, _U_UL_ARQ, _U_DL_DIST, _U_DL_DEEP, _U_DL_ERR, \
    _U_DL_ARQ, _U_SPIKE, _U_SPIKE_MAG = range(10)


def _per_lane(values, dtype=float) -> np.ndarray:
    return np.asarray(list(values), dtype=dtype)


def _available_prbs(configured: np.ndarray, isolation: bool, extra_users: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`RadioAccessNetwork._available_prbs`."""
    if isolation:
        return configured
    stolen = np.minimum(configured * 0.2 * extra_users, configured * 0.8)
    return np.where(extra_users > 0, configured - stolen, configured)


def _adaptation(
    *,
    prbs: np.ndarray,
    tx_power_dbm: np.ndarray,
    noise_figure_db: np.ndarray,
    baseline_loss: np.ndarray,
    distance: np.ndarray,
    fading_db: np.ndarray,
    mcs_offset: np.ndarray,
    efficiency_factor: float,
    rate_derate: float,
    bler_floor: float,
):
    """Vectorized link adaptation: SINR -> MCS -> rate/BLER for one direction.

    All lane-shaped inputs broadcast against the frame axis, so the same
    routine serves the per-frame ``(N, B)`` arrays of the main loop and the
    per-lane ``(N,)`` post-run draws (ping, saturation throughput).
    """
    pathloss = baseline_loss + 30.0 * np.log10(np.maximum(distance, 1.0))
    bandwidth_hz = np.maximum(prbs, 1.0) * PRB_BANDWIDTH_HZ
    noise_dbm = _THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    sinr = tx_power_dbm - pathloss - fading_db - noise_dbm
    mcs = select_mcs_array(sinr, mcs_offset)
    rate = np.where(
        prbs > 0,
        prbs * PRB_BANDWIDTH_HZ * spectral_efficiency_array(mcs) * efficiency_factor,
        0.0,
    ) * rate_derate
    bler = block_error_rate_array(sinr, mcs, bler_floor)
    return sinr, rate, bler


def _transmission_time_s(
    size_bytes: np.ndarray,
    rate_bps: np.ndarray,
    bler: np.ndarray,
    arq_uniform: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`RadioAccessNetwork._transmission_time_s`."""
    retx = expected_transmissions_array(bler)
    safe_rate = np.where(rate_bps > 0, rate_bps, 1.0)
    airtime = size_bytes * 8.0 / safe_rate
    harq_penalty = (retx - 1.0) * _ran._HARQ_RTT_MS / 1e3
    arq_penalty = np.where(arq_uniform < bler**4, _ran._ARQ_RECOVERY_MS / 1e3, 0.0)
    return np.where(rate_bps > 0, airtime * retx + harq_penalty + arq_penalty, 2.0)


def _sample_distance(
    uniform: np.ndarray, distance_m: np.ndarray, random_walk: np.ndarray
) -> np.ndarray:
    """Vectorized :meth:`RadioAccessNetwork._current_distance`."""
    spread = np.maximum(1.0, distance_m)
    walked = 0.5 + uniform * (distance_m + spread - 0.5)
    return np.where(random_walk, walked, distance_m)


#: Per-frame timestamps the recurrence records, in the row order of a
#: block's ``(len(_TIMELINE), N, _BLOCK_FRAMES)`` timeline array.
_TIMELINE = (
    "created", "arr_ul", "start_ul", "fin_ul", "arr_core", "arr_edge",
    "fin_edge", "arr_ran_dl", "start_dl", "completed",
)


class _ArrayLoop:
    """The closed-loop recurrence over all lanes at once, ``(N,)`` vectors per frame.

    ``step`` consumes one block of per-frame service times (``rows``, each
    ``(N, _BLOCK_FRAMES)``), writes the block's timestamps into
    ``timeline`` and returns how many frame indices the block produced:
    ``_BLOCK_FRAMES`` while some lane is still running, fewer once every
    lane has stopped.
    """

    def __init__(self, traffic: np.ndarray, duration: np.ndarray) -> None:
        n = duration.size
        self.traffic = traffic
        self.duration = duration
        self.lanes = np.arange(n)
        # Per-server "previous service finished at" state of the Lindley
        # recurrence, in pipeline order (UE uplink ... UE downlink).
        self.fin = [np.zeros(n) for _ in range(7)]
        self.completed = np.full((n, _BLOCK_FRAMES), np.inf)
        self.alive = np.ones(n, dtype=bool)

    def step(self, start: int, rows: tuple, timeline: np.ndarray) -> int:
        (loading_s, ul_service, bh_ul_service, bh_ul_post, core_ul_post, compute_s,
         core_dl_post, bh_dl_service, bh_dl_post, dl_service, spike_s) = rows
        fin_ul, fin_bh_ul, fin_core_ul, fin_edge, fin_core_dl, fin_bh_dl, fin_dl = self.fin
        (out_created, out_arr_ul, out_start_ul, out_fin_ul, out_arr_core, out_arr_edge,
         out_fin_edge, out_arr_ran_dl, out_start_dl, out_completed) = timeline
        if start + _BLOCK_FRAMES > self.completed.shape[1]:
            self.completed = np.concatenate(
                [self.completed, np.full_like(self.completed, np.inf)], axis=1
            )
        completed_mat, alive, lanes = self.completed, self.alive, self.lanes
        traffic, duration = self.traffic, self.duration
        produced = _BLOCK_FRAMES

        for j in range(_BLOCK_FRAMES):
            g = start + j
            window = g - traffic
            recycled = completed_mat[lanes, np.maximum(window, 0)]
            created = np.where(window < 0, g * 0.005, recycled)
            # A frame is generated only if its triggering event fires within
            # the run.  A lane stops at its first frame that is not, and inf
            # marks its frames from there on: it poisons every downstream
            # timestamp of the lane.
            alive &= created <= duration
            if not alive.any():
                produced = j
                break
            created = np.where(alive, created, np.inf)

            arr_ul = created + loading_s[:, j]
            start_ul = np.maximum(arr_ul, fin_ul)
            fin_ul = start_ul + ul_service[:, j]
            fin_bh_ul = np.maximum(fin_ul, fin_bh_ul) + bh_ul_service[:, j]
            arr_core = fin_bh_ul + bh_ul_post[:, j]
            fin_core_ul = np.maximum(arr_core, fin_core_ul) + _CORE_SERVICE_S
            arr_edge = fin_core_ul + core_ul_post[:, j]
            start_edge = np.maximum(arr_edge, fin_edge)
            fin_edge = start_edge + compute_s[:, j]
            fin_core_dl = np.maximum(fin_edge, fin_core_dl) + _CORE_SERVICE_S
            arr_bh_dl = fin_core_dl + core_dl_post[:, j]
            fin_bh_dl = np.maximum(arr_bh_dl, fin_bh_dl) + bh_dl_service[:, j]
            arr_ran_dl = fin_bh_dl + bh_dl_post[:, j]
            start_dl = np.maximum(arr_ran_dl, fin_dl)
            fin_dl = start_dl + dl_service[:, j]
            completed = fin_dl + spike_s[:, j]

            completed_mat[:, g] = completed
            out_created[:, j] = created
            out_arr_ul[:, j] = arr_ul
            out_start_ul[:, j] = start_ul
            out_fin_ul[:, j] = fin_ul
            out_arr_core[:, j] = arr_core
            out_arr_edge[:, j] = arr_edge
            out_fin_edge[:, j] = fin_edge
            out_arr_ran_dl[:, j] = arr_ran_dl
            out_start_dl[:, j] = start_dl
            out_completed[:, j] = completed

        self.fin = [fin_ul, fin_bh_ul, fin_core_ul, fin_edge, fin_core_dl, fin_bh_dl, fin_dl]
        return produced


class _LaneLoop:
    """The same recurrence one lane at a time on Python floats (narrow batches).

    Each lane carries its seven server states and its completion history as
    Python floats across blocks and ``break``s at its first frame not
    generated within its run; its timeline rows from there on are ``inf``,
    exactly what the array loop records for a stopped lane.  Same ``step``
    contract as :class:`_ArrayLoop`.
    """

    def __init__(self, traffic: np.ndarray, duration: np.ndarray) -> None:
        self.traffic = traffic.tolist()
        self.duration = duration.tolist()
        # (completion history, server states) per lane; None once stopped.
        self.lanes: list[tuple[list[float], tuple] | None] = [
            ([], (0.0,) * 7) for _ in self.duration
        ]

    def step(self, start: int, rows: tuple, timeline: np.ndarray) -> int:
        rows_as_lists = [row.tolist() for row in rows]
        produced = 0
        for lane, state in enumerate(self.lanes):
            frames = []
            if state is not None:
                history, (f_ul, f_bh_ul, f_core_ul, f_edge, f_core_dl, f_bh_dl, f_dl) = state
                (loading, ul_service, bh_ul_service, bh_ul_post, core_ul_post, compute,
                 core_dl_post, bh_dl_service, bh_dl_post, dl_service, spike) = [
                    row[lane] for row in rows_as_lists
                ]
                traffic, duration = self.traffic[lane], self.duration[lane]
                for j in range(_BLOCK_FRAMES):
                    g = start + j
                    created = history[g - traffic] if g >= traffic else g * 0.005
                    if not created <= duration:
                        state = None
                        break
                    arr_ul = created + loading[j]
                    start_ul = arr_ul if arr_ul > f_ul else f_ul
                    f_ul = start_ul + ul_service[j]
                    f_bh_ul = (f_ul if f_ul > f_bh_ul else f_bh_ul) + bh_ul_service[j]
                    arr_core = f_bh_ul + bh_ul_post[j]
                    f_core_ul = (arr_core if arr_core > f_core_ul else f_core_ul) + _CORE_SERVICE_S
                    arr_edge = f_core_ul + core_ul_post[j]
                    f_edge = (arr_edge if arr_edge > f_edge else f_edge) + compute[j]
                    f_core_dl = (f_edge if f_edge > f_core_dl else f_core_dl) + _CORE_SERVICE_S
                    arr_bh_dl = f_core_dl + core_dl_post[j]
                    f_bh_dl = (arr_bh_dl if arr_bh_dl > f_bh_dl else f_bh_dl) + bh_dl_service[j]
                    arr_ran_dl = f_bh_dl + bh_dl_post[j]
                    start_dl = arr_ran_dl if arr_ran_dl > f_dl else f_dl
                    f_dl = start_dl + dl_service[j]
                    completed = f_dl + spike[j]
                    history.append(completed)
                    frames.append((
                        created, arr_ul, start_ul, f_ul, arr_core, arr_edge, f_edge,
                        arr_ran_dl, start_dl, completed,
                    ))
                else:
                    state = (history, (f_ul, f_bh_ul, f_core_ul, f_edge, f_core_dl, f_bh_dl, f_dl))
                self.lanes[lane] = state
            count = len(frames)
            if count:
                timeline[:, lane, :count] = np.array(frames).T
            timeline[:, lane, count:] = np.inf
            produced = max(produced, count)
        return produced


def simulate_batch(
    configs: Sequence[SliceConfig],
    scenarios: Sequence["Scenario"],
    params: Sequence["SimulationParameters"],
    imperfections: Imperfections,
    durations: Sequence[float],
    rngs: Sequence[np.random.Generator],
    isolation: bool = True,
) -> list["SimulationResult"]:
    """Evaluate N ``(config, scenario, params, duration, rng)`` lanes in one pass.

    The entry point the simulator facade (and through it the engine's
    executor) uses; all sequences must have equal length N.  Returns
    one :class:`~repro.sim.network.SimulationResult` per lane, in order.
    """
    from repro.sim.network import SimulationResult

    n = len(configs)
    if not (len(scenarios) == len(params) == len(durations) == len(rngs) == n):
        raise ValueError("all per-lane sequences must have the same length")
    if n == 0:
        return []
    imp = imperfections

    # ------------------------------------------------- per-lane constants (N,)
    traffic = _per_lane((s.traffic for s in scenarios), dtype=np.int64)
    duration = _per_lane(durations)
    distance_m = _per_lane(s.distance_m for s in scenarios)
    random_walk = np.array([s.mobility == "random_walk" for s in scenarios])
    extra_users = _per_lane(s.extra_users for s in scenarios)
    ue_tx = _per_lane(s.ue_tx_power_dbm for s in scenarios)
    enb_tx = _per_lane(s.enb_tx_power_dbm for s in scenarios)
    frame_mean = _per_lane(s.frame_size_mean_bytes for s in scenarios)
    frame_std = _per_lane(s.frame_size_std_bytes for s in scenarios)
    result_mean = _per_lane(s.result_size_bytes for s in scenarios)
    base_loading = _per_lane(s.base_loading_time_ms for s in scenarios)

    baseline_loss = _per_lane(p.baseline_loss for p in params)
    enb_nf = _per_lane(p.enb_noise_figure for p in params)
    ue_nf = _per_lane(p.ue_noise_figure for p in params)
    p_backhaul_delay = _per_lane(p.backhaul_delay for p in params)
    p_compute = _per_lane(p.compute_time for p in params)

    ul_prbs = _available_prbs(
        _per_lane(c.effective_uplink_prbs() for c in configs), isolation, extra_users
    )
    dl_prbs = _available_prbs(
        _per_lane(c.effective_downlink_prbs() for c in configs), isolation, extra_users
    )
    mcs_off_ul = _per_lane(c.mcs_offset_ul for c in configs)
    mcs_off_dl = _per_lane(c.mcs_offset_dl for c in configs)
    capacity_mbps = np.maximum(
        _per_lane(c.backhaul_bw for c in configs) + _per_lane(p.backhaul_bw for p in params),
        MINIMUM_BACKHAUL_MBPS,
    )
    cpu_ratio = np.maximum(_per_lane(c.cpu_ratio for c in configs), MINIMUM_CPU_RATIO)

    compute_mean = _per_lane(s.compute_time_mean_ms for s in scenarios) * imp.compute_slowdown
    compute_std = _per_lane(s.compute_time_std_ms for s in scenarios) * imp.compute_jitter_scale
    loading_extra_ms = (
        _per_lane(p.loading_time for p in params)
        + imp.per_frame_overhead_ms
        + imp.per_traffic_overhead_ms * np.maximum(traffic - 1, 0)
    )
    ul_floor = 4e-3 * max(imp.error_floor_scale, 1e-6)
    dl_floor = 2e-3 * max(imp.error_floor_scale, 1e-6)
    spike_lo, spike_hi = imp.spike_ms_range
    serialization_denominator = capacity_mbps[:, None] * 1e6

    # Post-run draws come first on each lane's schedule so their position —
    # and therefore the ping/saturation metrics — cannot depend on how many
    # frame blocks the longest-lived lane of the batch consumes.
    post_normals = np.stack([rng.standard_normal(5) for rng in rngs])  # (N, 5)
    post_uniforms = np.stack([rng.random(8) for rng in rngs])  # (N, 8)

    # ----------------------------------------------------- closed-loop rollout
    recurrence = (_LaneLoop if n <= _NARROW_LANES else _ArrayLoop)(traffic, duration)
    blocks: list[dict[str, np.ndarray]] = []
    total_frames = 0

    while True:
        normals = np.stack([rng.standard_normal((10, _BLOCK_FRAMES)) for rng in rngs])
        uniforms = np.stack([rng.random((10, _BLOCK_FRAMES)) for rng in rngs])

        frame_bytes = np.maximum(
            frame_mean[:, None] + frame_std[:, None] * normals[:, _N_FRAME],
            0.2 * frame_mean[:, None],
        )
        result_bytes = np.maximum(
            result_mean[:, None] * (1.0 + 0.1 * normals[:, _N_RESULT]),
            0.2 * result_mean[:, None],
        )
        loading_s = (
            base_loading[:, None]
            + loading_extra_ms[:, None]
            + np.abs(normals[:, _N_LOADING]) * 0.1 * base_loading[:, None]
        ) / 1e3

        ul_fading = imp.fading_std_db * normals[:, _N_UL_FADE] + np.where(
            uniforms[:, _U_UL_DEEP] < imp.deep_fade_probability, imp.deep_fade_db, 0.0
        )
        _, ul_rate, ul_bler = _adaptation(
            prbs=ul_prbs[:, None],
            tx_power_dbm=ue_tx[:, None],
            noise_figure_db=enb_nf[:, None],
            baseline_loss=baseline_loss[:, None],
            distance=_sample_distance(
                uniforms[:, _U_UL_DIST], distance_m[:, None], random_walk[:, None]
            ),
            fading_db=ul_fading,
            mcs_offset=mcs_off_ul[:, None],
            efficiency_factor=_ran.UL_EFFICIENCY_FACTOR,
            rate_derate=imp.ul_rate_derate,
            bler_floor=ul_floor,
        )
        ul_service = _transmission_time_s(frame_bytes, ul_rate, ul_bler, uniforms[:, _U_UL_ARQ])
        ul_error = uniforms[:, _U_UL_ERR] < ul_bler

        dl_fading = imp.fading_std_db * normals[:, _N_DL_FADE] + np.where(
            uniforms[:, _U_DL_DEEP] < imp.deep_fade_probability, imp.deep_fade_db, 0.0
        )
        _, dl_rate, dl_bler = _adaptation(
            prbs=dl_prbs[:, None],
            tx_power_dbm=enb_tx[:, None],
            noise_figure_db=ue_nf[:, None],
            baseline_loss=baseline_loss[:, None],
            distance=_sample_distance(
                uniforms[:, _U_DL_DIST], distance_m[:, None], random_walk[:, None]
            ),
            fading_db=dl_fading,
            mcs_offset=mcs_off_dl[:, None],
            efficiency_factor=_ran.DL_EFFICIENCY_FACTOR,
            rate_derate=imp.dl_rate_derate,
            bler_floor=dl_floor,
        )
        dl_service = _transmission_time_s(result_bytes, dl_rate, dl_bler, uniforms[:, _U_DL_ARQ])
        dl_error = uniforms[:, _U_DL_ERR] < dl_bler

        bh_ul_service = frame_bytes * 8.0 / serialization_denominator
        bh_dl_service = result_bytes * 8.0 / serialization_denominator
        bh_ul_post = (
            BASE_PROPAGATION_DELAY_MS
            + p_backhaul_delay[:, None]
            + np.abs(normals[:, _N_BH_UL]) * _BACKHAUL_JITTER_MS
        ) / 1e3
        bh_dl_post = (
            BASE_PROPAGATION_DELAY_MS
            + p_backhaul_delay[:, None]
            + np.abs(normals[:, _N_BH_DL]) * _BACKHAUL_JITTER_MS
        ) / 1e3
        core_ul_post = (
            BASE_FORWARDING_DELAY_MS + np.abs(normals[:, _N_CORE_UL]) * _CORE_JITTER_MS
        ) / 1e3
        core_dl_post = (
            BASE_FORWARDING_DELAY_MS + np.abs(normals[:, _N_CORE_DL]) * _CORE_JITTER_MS
        ) / 1e3
        compute_s = (
            np.maximum(
                compute_mean[:, None] + compute_std[:, None] * normals[:, _N_COMPUTE],
                0.2 * compute_mean[:, None],
            )
            / cpu_ratio[:, None]
            + p_compute[:, None]
        ) / 1e3
        spike_s = np.where(
            uniforms[:, _U_SPIKE] < imp.spike_probability,
            (spike_lo + uniforms[:, _U_SPIKE_MAG] * (spike_hi - spike_lo)) / 1e3,
            0.0,
        )

        timeline_block = np.empty((len(_TIMELINE), n, _BLOCK_FRAMES))
        produced = recurrence.step(
            total_frames,
            (loading_s, ul_service, bh_ul_service, bh_ul_post, core_ul_post, compute_s,
             core_dl_post, bh_dl_service, bh_dl_post, dl_service, spike_s),
            timeline_block,
        )
        block = {name: values[:, :produced] for name, values in zip(_TIMELINE, timeline_block)}
        block["ul_error"] = ul_error[:, :produced]
        block["dl_error"] = dl_error[:, :produced]
        blocks.append(block)
        total_frames += produced
        if produced < _BLOCK_FRAMES:
            break
        if total_frames >= _MAX_FRAMES:  # pragma: no cover - runaway guard
            raise RuntimeError(
                f"vectorized batch exceeded {_MAX_FRAMES} frame indices; "
                "check the duration/traffic inputs"
            )

    timeline = {
        name: np.concatenate([block[name] for block in blocks], axis=1) for name in blocks[0]
    }

    # ------------------------------------------------------- post-run metrics
    full_prbs = _available_prbs(
        np.full(n, float(SliceConfig.maximum().bandwidth_ul)), isolation, extra_users
    )
    sat_metrics = []
    for uplink in (True, False):
        offset = 0 if uplink else 1
        fading = imp.fading_std_db * post_normals[:, offset] + np.where(
            post_uniforms[:, offset] < imp.deep_fade_probability, imp.deep_fade_db, 0.0
        )
        _, rate, bler = _adaptation(
            prbs=full_prbs,
            tx_power_dbm=ue_tx if uplink else enb_tx,
            noise_figure_db=enb_nf if uplink else ue_nf,
            baseline_loss=baseline_loss,
            distance=_sample_distance(post_uniforms[:, 4 + offset], distance_m, random_walk),
            fading_db=fading,
            mcs_offset=np.zeros(n),
            efficiency_factor=_ran.UL_EFFICIENCY_FACTOR if uplink else _ran.DL_EFFICIENCY_FACTOR,
            rate_derate=imp.ul_rate_derate if uplink else imp.dl_rate_derate,
            bler_floor=ul_floor if uplink else dl_floor,
        )
        sat_metrics.append(rate * (1.0 - bler) / 1e6)
    ul_throughput, dl_throughput = sat_metrics

    ping_rates = []
    for uplink in (True, False):
        offset = 2 if uplink else 3
        fading = imp.fading_std_db * post_normals[:, offset] + np.where(
            post_uniforms[:, offset] < imp.deep_fade_probability, imp.deep_fade_db, 0.0
        )
        _, rate, _ = _adaptation(
            prbs=ul_prbs if uplink else dl_prbs,
            tx_power_dbm=ue_tx if uplink else enb_tx,
            noise_figure_db=enb_nf if uplink else ue_nf,
            baseline_loss=baseline_loss,
            distance=_sample_distance(post_uniforms[:, 4 + offset], distance_m, random_walk),
            fading_db=fading,
            mcs_offset=mcs_off_ul if uplink else mcs_off_dl,
            efficiency_factor=_ran.UL_EFFICIENCY_FACTOR if uplink else _ran.DL_EFFICIENCY_FACTOR,
            rate_derate=imp.ul_rate_derate if uplink else imp.dl_rate_derate,
            bler_floor=ul_floor if uplink else dl_floor,
        )
        ping_rates.append(rate)
    ping_bytes = 64.0
    with np.errstate(divide="ignore"):
        air_ms = (ping_bytes * 8.0 / ping_rates[0] + ping_bytes * 8.0 / ping_rates[1]) * 1e3
    transport_ms = 2.0 * (
        ping_bytes * 8.0 / (capacity_mbps * 1e6) * 1e3
        + BASE_PROPAGATION_DELAY_MS
        + p_backhaul_delay
    )
    ping_ms = np.where(
        (ping_rates[0] > 0) & (ping_rates[1] > 0),
        24.0
        + air_ms
        + transport_ms
        + 2.0 * BASE_FORWARDING_DELAY_MS
        + imp.per_frame_overhead_ms * 0.25
        + np.abs(post_normals[:, 4]),
        np.inf,
    )

    # --------------------------------------------------------------- results
    created = timeline["created"]
    completed = timeline["completed"]
    generated = np.isfinite(created)
    completed_ok = generated & (completed <= duration[:, None])
    started_ul = generated & (timeline["start_ul"] <= duration[:, None])
    started_dl = generated & (timeline["start_dl"] <= duration[:, None])

    stage_bounds = (
        ("loading", "created", "arr_ul"),
        ("uplink", "arr_ul", "fin_ul"),
        ("backhaul_ul", "fin_ul", "arr_core"),
        ("core_ul", "arr_core", "arr_edge"),
        ("compute", "arr_edge", "fin_edge"),
        ("backhaul_dl", "fin_edge", "arr_ran_dl"),
        ("downlink", "arr_ran_dl", "completed"),
    )

    results: list[SimulationResult] = []
    for i in range(n):
        ok = completed_ok[i]
        latencies = (completed[i, ok] - created[i, ok]) * 1e3
        breakdown: dict[str, float] = {}
        if ok.any():
            for stage, begin, end in stage_bounds:
                breakdown[stage] = float(
                    np.mean((timeline[end][i, ok] - timeline[begin][i, ok]) * 1e3)
                )
        ul_blocks = int(np.sum(started_ul[i]))
        dl_blocks = int(np.sum(started_dl[i]))
        results.append(
            SimulationResult(
                latencies_ms=latencies,
                frames_generated=int(np.sum(generated[i])),
                frames_completed=int(latencies.size),
                duration_s=float(duration[i]),
                config=configs[i],
                traffic=int(traffic[i]),
                ul_throughput_mbps=float(ul_throughput[i]),
                dl_throughput_mbps=float(dl_throughput[i]),
                ul_packet_error_rate=(
                    float(np.sum(timeline["ul_error"][i] & started_ul[i]) / ul_blocks)
                    if ul_blocks
                    else 0.0
                ),
                dl_packet_error_rate=(
                    float(np.sum(timeline["dl_error"][i] & started_dl[i]) / dl_blocks)
                    if dl_blocks
                    else 0.0
                ),
                ping_delay_ms=float(ping_ms[i]),
                stage_breakdown_ms=breakdown,
            )
        )
    return results
