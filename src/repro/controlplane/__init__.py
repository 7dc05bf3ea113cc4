"""LIFL's control plane (§5).

Pure-logic implementations of the orchestration algorithms — the exact code
under test in Fig. 8 and the §6.1 overhead measurements:

* :mod:`repro.controlplane.placement` — locality-aware placement as
  bin-packing over residual service capacity (§5.1): BestFit (LIFL),
  FirstFit, WorstFit (≈ Knative "least connection", the SL-H baseline),
  LPT (least-assigned node first);
* :mod:`repro.controlplane.hierarchy` — two-level k-ary hierarchy plans per
  node (§5.2);
* :mod:`repro.controlplane.autoscaler` — the EWMA queue-estimate smoother
  behind hierarchy-aware autoscaling (§5.2);
* :mod:`repro.controlplane.tag` — the Topology Abstraction Graph used for
  fine-grained control (Appendix D);
* :mod:`repro.controlplane.metrics` — the metrics server fed by the
  eBPF-sidecar metrics maps;
* :mod:`repro.controlplane.agent` — the per-node agent that drives the
  real runtime of :mod:`repro.runtime` (see
  ``examples/shared_memory_runtime.py``);
* :mod:`repro.controlplane.reactive` — the closed-loop reactive controller
  the trace replay runs in virtual time: warm-pool scaling, per-tenant
  admission limits, chaos-aware placement, and graceful shedding.
"""

from repro.controlplane.autoscaler import EwmaEstimator
from repro.controlplane.hierarchy import (
    AggregatorSpec,
    HierarchyPlan,
    NodeHierarchy,
    Role,
    plan_hierarchy,
    plan_node_hierarchy,
)
from repro.controlplane.metrics import MetricsServer, NodeMetrics
from repro.controlplane.reactive import (
    ACTION_KINDS,
    ControlAction,
    Controller,
    ControllerConfig,
    ControllerReport,
    DeadlineExceeded,
    pool_floor_for,
)
from repro.controlplane.placement import (
    BestFitPlacer,
    FirstFitPlacer,
    LptPlacer,
    NodeCapacity,
    Placer,
    PlacementPlan,
    WorstFitPlacer,
    make_placer,
)
from repro.controlplane.tag import Channel, TagGraph, TagNode

__all__ = [
    "ACTION_KINDS",
    "AggregatorSpec",
    "BestFitPlacer",
    "Channel",
    "ControlAction",
    "Controller",
    "ControllerConfig",
    "ControllerReport",
    "DeadlineExceeded",
    "EwmaEstimator",
    "FirstFitPlacer",
    "HierarchyPlan",
    "LptPlacer",
    "MetricsServer",
    "NodeCapacity",
    "NodeHierarchy",
    "NodeMetrics",
    "Placer",
    "PlacementPlan",
    "Role",
    "TagGraph",
    "TagNode",
    "WorstFitPlacer",
    "make_placer",
    "plan_hierarchy",
    "plan_node_hierarchy",
    "pool_floor_for",
]
