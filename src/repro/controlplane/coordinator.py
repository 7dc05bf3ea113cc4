"""The LIFL coordinator: one orchestration cycle end to end (Fig. 6).

Per planning cycle the coordinator:

1. pulls per-node load (arrival rate, execution time) from the metrics
   server,
2. runs locality-aware placement for the updates expected this cycle (§5.1),
3. re-plans each node's two-level hierarchy from the smoothed queue
   estimates (§5.2),
4. maps planned aggregators onto runtimes through the warm pool, reusing
   opportunistically (§5.3),
5. derives the TAG and the route updates the agents must apply (App. A/D).

The output is an :class:`OrchestrationDecision`, a pure data object.  This
module is a standalone model of the paper's orchestration cycle, exported
from :mod:`repro.controlplane` and exercised by its own tests; no experiment
and no simulation platform runs it.  :class:`~repro.core.platform.AggregationPlatform`
(and through it every figure, including Fig. 8's ablation toggles) does its
own placement, hierarchy planning and reuse, sharing only the building
blocks in :mod:`repro.controlplane.placement` and
:mod:`repro.controlplane.hierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.controlplane.autoscaler import HierarchyAwareAutoscaler
from repro.controlplane.hierarchy import AggregatorSpec, HierarchyPlan
from repro.controlplane.metrics import MetricsServer
from repro.controlplane.placement import Placer, PlacementPlan, make_placer
from repro.controlplane.reuse import RuntimeHandle, WarmPool
from repro.controlplane.tag import TagGraph


@dataclass(frozen=True)
class OrchestrationConfig:
    """The ablation switches of Fig. 8 (① ② ③ ④) plus policy knobs."""

    placement_policy: str = "bestfit"  # ① locality-aware placement
    hierarchy_planning: bool = True  # ② hierarchy-aware scaling
    reuse_runtimes: bool = True  # ③ opportunistic reuse
    eager_aggregation: bool = True  # ④ eager aggregation
    updates_per_leaf: int = 2  # the paper's I
    ewma_alpha: float = 0.7
    replan_period: float = 120.0
    #: fallback fan-out when hierarchy planning is disabled: one flat level
    #: of aggregators each taking this many updates (threshold-autoscaler
    #: style, §2.3)
    flat_fan_in: int = 2

    def __post_init__(self) -> None:
        if self.flat_fan_in < 1:
            raise ConfigError("flat_fan_in must be >= 1")


@dataclass
class AggregatorAssignment:
    """A planned aggregator bound to a concrete runtime."""

    spec: AggregatorSpec
    runtime: RuntimeHandle
    cold_start: bool


@dataclass
class OrchestrationDecision:
    """Everything one cycle decided."""

    placement: PlacementPlan
    hierarchy: HierarchyPlan
    assignments: list[AggregatorAssignment] = field(default_factory=list)
    tag: TagGraph | None = None

    @property
    def cold_starts(self) -> int:
        return sum(1 for a in self.assignments if a.cold_start)

    @property
    def reused(self) -> int:
        return sum(1 for a in self.assignments if not a.cold_start)

    @property
    def aggregators_created(self) -> int:
        """Fig. 8(c)'s metric: new instances this cycle (reuse excluded)."""
        return self.cold_starts

    @property
    def nodes_used(self) -> int:
        return self.placement.node_count


class Coordinator:
    """Cluster-wide orchestrator combining all §5 policies."""

    def __init__(self, metrics: MetricsServer, config: OrchestrationConfig | None = None) -> None:
        self.metrics = metrics
        self.config = config or OrchestrationConfig()
        self.placer: Placer = make_placer(self.config.placement_policy)
        self.autoscaler = HierarchyAwareAutoscaler(
            alpha=self.config.ewma_alpha,
            updates_per_leaf=self.config.updates_per_leaf,
            replan_period=self.config.replan_period,
        )
        self.warm_pool = WarmPool(keep_warm=self.config.reuse_runtimes)
        self.cycles = 0

    def orchestrate(self, incoming_updates: int, top_node: str | None = None) -> OrchestrationDecision:
        """Run one full cycle for ``incoming_updates`` expected updates."""
        capacities = self.metrics.capacities()
        if not capacities:
            raise ConfigError("no nodes registered with the metrics server")
        placement = self.placer.place(incoming_updates, capacities)

        for node, count in placement.per_node.items():
            self.autoscaler.observe_queue(node, count)

        if self.config.hierarchy_planning:
            hierarchy = self.autoscaler.replan(top_node=top_node)
        else:
            hierarchy = self._flat_plan(placement, top_node)

        assignments = self._assign_runtimes(hierarchy)
        tag = TagGraph.from_plan(hierarchy) if hierarchy.aggregators else None
        self.cycles += 1
        return OrchestrationDecision(
            placement=placement, hierarchy=hierarchy, assignments=assignments, tag=tag
        )

    def release_round(self, decision: OrchestrationDecision) -> None:
        """Round finished: return runtimes to the warm pool (or terminate
        them when reuse is disabled)."""
        for a in decision.assignments:
            self.warm_pool.release(a.runtime)

    # -- internals -------------------------------------------------------------
    def _assign_runtimes(self, hierarchy: HierarchyPlan) -> list[AggregatorAssignment]:
        out: list[AggregatorAssignment] = []
        # Leaves first: they start working first, and under reuse the warm
        # pool may promote them to middle/top later in the round.
        ordered = sorted(hierarchy.aggregators.values(), key=lambda a: a.role.value, reverse=True)
        for spec in ordered:
            runtime, cold = self.warm_pool.acquire(spec.node, spec.role)
            out.append(AggregatorAssignment(spec=spec, runtime=runtime, cold_start=cold))
        return out

    def _flat_plan(self, placement: PlacementPlan, top_node: str | None) -> HierarchyPlan:
        """No hierarchy planning (②️ off): a flat level of fan-in
        ``flat_fan_in`` aggregators per node plus a top, mirroring what a
        threshold autoscaler would spawn for the same concurrency."""
        from repro.controlplane.hierarchy import plan_hierarchy

        pending = {n: c for n, c in placement.per_node.items() if c > 0}
        return plan_hierarchy(
            pending,
            updates_per_leaf=self.config.flat_fan_in,
            top_node=top_node,
            round_id=self.cycles,
        )
    # NOTE: the flat plan still needs a root to terminate aggregation; the
    # distinguishing cost of ② off is that leaf sizing ignores Q_i,t's EWMA
    # smoothing and the per-node middle consolidation is arbitrary.
