"""Real-network prototype substitute and slice-management plane.

The paper's evaluation runs on an OpenAirInterface/USRP LTE testbed with an
OpenDayLight transport switch, OpenAir-CN core and Docker edge servers.  That
hardware is not available here, so :class:`~repro.prototype.testbed.RealNetwork`
plays its role: the same discrete-event engine as the offline simulator, but
driven by *hidden* ground-truth parameters and un-modelled effects that create
a genuine sim-to-real discrepancy for Atlas to reduce (stage 1) and learn
online (stage 3).

The package also provides the management plane of the prototype: per-domain
managers that validate and apply the cross-domain configuration
(:mod:`~repro.prototype.domain_managers`), the slice/SLA bookkeeping
(:mod:`~repro.prototype.slice_manager`) and the telemetry used to build the
online collection ``D_r`` (:mod:`~repro.prototype.telemetry`).
"""

from repro.prototype.domain_managers import (
    CoreDomainManager,
    EdgeDomainManager,
    EndToEndOrchestrator,
    RadioDomainManager,
    TransportDomainManager,
)
from repro.prototype.slice_manager import SLA, NetworkSlice, SliceManager
from repro.prototype.telemetry import OnlineCollection
from repro.prototype.testbed import RealNetwork, default_ground_truth, default_imperfections

__all__ = [
    "RealNetwork",
    "default_ground_truth",
    "default_imperfections",
    "RadioDomainManager",
    "TransportDomainManager",
    "CoreDomainManager",
    "EdgeDomainManager",
    "EndToEndOrchestrator",
    "SLA",
    "NetworkSlice",
    "SliceManager",
    "OnlineCollection",
]
