"""Multi-replica, tensor-parallel cluster serving simulator.

The paper argues KV-cache compression at the *kernel* level; this
subpackage measures what it buys at the *fleet* level, where the ROADMAP's
"millions of users" traffic actually lands.  Smaller KV footprints raise
the admission capacity of every replica, which changes how a router
should spread load, how many replicas a workload needs, and how much
goodput an SLO-bound deployment extracts from the same GPUs.

* :mod:`repro.cluster.replica` — one engine (optionally tensor-parallel
  via :mod:`repro.perf.tp`) plus the load signals routers read.
* :mod:`repro.cluster.router` — round-robin, least-outstanding-tokens,
  least-KV-pressure, and session-affinity dispatch policies.
* :mod:`repro.cluster.autoscaler` — reactive queue-depth scale-up/-down
  (and replacement of crashed capacity below the fleet floor).
* :mod:`repro.cluster.faults` — seeded crash/stall/timeout injection with
  retry-with-backoff recovery and graceful degradation.
* :mod:`repro.cluster.simulator` — the discrete-event fleet loop, one for
  every layout: a fleet is a list of pools (router + autoscaler each),
  driven by a handler table over the shared :mod:`repro.sim` kernel
  (with per-event trace output).  Cluster-level admission control
  and per-replica circuit breakers come from :mod:`repro.overload` when
  configured.
* :mod:`repro.cluster.metrics` — SLOs, goodput, tail attainment, and
  availability/degradation accounting under faults and overload
  (rejected/shed/brownout-token counters).

The simulator also runs a **disaggregated** mode
(:class:`repro.cluster.simulator.DisaggConfig`): replicas split into a
prefill pool and a decode pool, and finished prompts migrate their
quantized KV over the interconnect through :mod:`repro.migrate` —
checksummed, fault-injected, salvage-recovered handoffs scheduled as
first-class kernel events.  Later scaling work (heterogeneous replicas,
multi-tenant fairness) plugs into the same seam: a new
router/replica/autoscaler variant behind the same simulator.
"""

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.faults import (
    FaultConfig,
    FaultEvent,
    FaultInjector,
    downtime_within,
)
from repro.cluster.metrics import (
    SLO,
    ClusterMetrics,
    FaultCounters,
    ReplicaStats,
    ScaleEvent,
    summarize_cluster,
)
from repro.cluster.replica import Replica
from repro.cluster.router import (
    ROUTER_POLICIES,
    LeastKVPressureRouter,
    LeastOutstandingTokensRouter,
    RoundRobinRouter,
    Router,
    SessionAffinityRouter,
    make_router,
)
from repro.cluster.simulator import ClusterConfig, ClusterSimulator, DisaggConfig

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultCounters",
    "SLO",
    "ClusterMetrics",
    "ReplicaStats",
    "ScaleEvent",
    "summarize_cluster",
    "Replica",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingTokensRouter",
    "LeastKVPressureRouter",
    "SessionAffinityRouter",
    "ROUTER_POLICIES",
    "make_router",
    "ClusterConfig",
    "DisaggConfig",
    "ClusterSimulator",
    "downtime_within",
]
