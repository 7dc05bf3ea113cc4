"""Locality-aware placement and load balancing (§5.1).

The load-balancing task maps incoming model updates (equivalently, the
clients producing them) onto worker nodes with two criteria:

1. minimize inter-node communication / maximize shared-memory use, and
2. never exceed a node's **residual service capacity**
   ``RC_i,t = MC_i − k_i,t × E_i,t``.

LIFL treats this as bin-packing and uses **BestFit** — concentrate load onto
the fewest nodes.  **WorstFit** spreads load (the Knative "least connection"
behaviour of the SL-H baseline in Fig. 8), **FirstFit** minimizes search
cost without locality awareness, and **LPT** balances per-node load
(least-assigned node first).  All of them are implemented below behind one
interface and one registry (:data:`PLACERS`, selected by
``PlatformConfig.placement_policy``) so the Fig. 8 ablation, the policy
tournament and the §6.1 overhead benchmark (< 17 ms for 10K clients) run
the same code paths.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.common.errors import CapacityExceededError, ConfigError
from repro.common.registry import Registry


@dataclass
class NodeCapacity:
    """Placement-relevant state of one worker node at decision time.

    ``max_capacity`` is MC_i (max updates aggregated simultaneously,
    Appendix E); ``arrival_rate`` is k_i,t (updates/s currently directed at
    the node) and ``exec_time`` is E_i,t (average seconds to aggregate one
    update), so ``in_flight = k*E`` is the current queue estimate Q_i,t and
    ``residual = MC − k*E`` is RC_i,t.
    """

    name: str
    max_capacity: float
    arrival_rate: float = 0.0
    exec_time: float = 0.0

    def __post_init__(self) -> None:
        if self.max_capacity <= 0:
            raise ConfigError(f"node {self.name}: max_capacity must be positive")
        if self.arrival_rate < 0 or self.exec_time < 0:
            raise ConfigError(f"node {self.name}: negative rate or exec time")

    @property
    def in_flight(self) -> float:
        """Coarse queue-length estimate Q_i,t = k_i,t × E_i,t."""
        return self.arrival_rate * self.exec_time

    @property
    def residual(self) -> float:
        """Residual service capacity RC_i,t."""
        return self.max_capacity - self.in_flight


@dataclass
class PlacementPlan:
    """Result of one placement round."""

    #: update index → node name, parallel to the input demand sequence
    assignments: list[str]
    #: node name → number of updates it received in this round
    per_node: dict[str, int] = field(default_factory=dict)

    @property
    def nodes_used(self) -> list[str]:
        return [n for n, c in self.per_node.items() if c > 0]

    @property
    def node_count(self) -> int:
        return len(self.nodes_used)

    def cross_node_transfers(self) -> int:
        """Intermediate-update transfers this plan implies: every active
        node except the one hosting the top aggregator ships exactly one
        intermediate update (§5.2 "the communication between a particular
        pair of worker nodes only happens once")."""
        return max(0, self.node_count - 1)


class Placer:
    """Common bin-packing harness; subclasses implement the batch fill.

    Updates are unit-demand, which lets every policy run as a batch fill
    (O(n log n + items)) instead of a per-item argmin scan — this is what
    keeps 10K-client placement under the paper's 17 ms budget (§6.1).
    The batch fills are exactly equivalent to the per-item greedy rules.
    """

    name = "abstract"

    def place(self, n_updates: int, nodes: Sequence[NodeCapacity]) -> PlacementPlan:
        """Assign ``n_updates`` unit-demand model updates to ``nodes``.

        Each update consumes one unit of residual capacity.  When every
        node is saturated, remaining updates overflow round-robin onto all
        nodes (they will queue) — the paper's Fig. 8 "100 updates" case
        where "the service capacity of all five nodes would be maxed out".
        """
        if n_updates < 0:
            raise ConfigError(f"n_updates must be non-negative, got {n_updates}")
        if not nodes:
            raise CapacityExceededError("no nodes available for placement")
        order = [n.name for n in nodes]
        slots = {n.name: int(max(0.0, n.residual)) for n in nodes}
        assignments = self._fill(order, slots, n_updates)
        # All bins full: queue the remainder on nodes round-robin.
        for i in range(n_updates - len(assignments)):
            assignments.append(order[i % len(order)])
        per_node: dict[str, int] = {name: 0 for name in order}
        for name in assignments:
            per_node[name] += 1
        return PlacementPlan(assignments=assignments, per_node=per_node)

    def _fill(self, order: Sequence[str], slots: dict[str, int], n: int) -> list[str]:
        """Assign up to ``n`` updates into free ``slots``; return choices."""
        raise NotImplementedError


#: placer classes by policy name
PLACERS: Registry[type[Placer]] = Registry("placer")


@PLACERS.register("bestfit")
class BestFitPlacer(Placer):
    """LIFL's policy: the fullest node that still fits (fewest nodes used).

    With unit demands, greedy best-fit fills the least-residual node to
    exhaustion before touching the next, so a sorted fill is equivalent.
    """

    name = "bestfit"

    def _fill(self, order: Sequence[str], slots: dict[str, int], n: int) -> list[str]:
        assignments: list[str] = []
        for name in sorted(order, key=lambda m: slots[m]):  # stable: ties by order
            if n <= len(assignments):
                break
            take = min(slots[name], n - len(assignments))
            assignments.extend([name] * take)
        return assignments


@PLACERS.register("firstfit")
class FirstFitPlacer(Placer):
    """First node (in fixed order) that fits — cheap, locality-blind."""

    name = "firstfit"

    def _fill(self, order: Sequence[str], slots: dict[str, int], n: int) -> list[str]:
        assignments: list[str] = []
        for name in order:
            if n <= len(assignments):
                break
            take = min(slots[name], n - len(assignments))
            assignments.extend([name] * take)
        return assignments


@PLACERS.register("worstfit")
class WorstFitPlacer(Placer):
    """Most-residual-capacity node first — spreads load like Knative's
    "least connection" policy (the SL-H baseline's behaviour in Fig. 8)."""

    name = "worstfit"

    def _fill(self, order: Sequence[str], slots: dict[str, int], n: int) -> list[str]:
        index = {name: i for i, name in enumerate(order)}
        heap = [(-s, index[name], name) for name, s in slots.items() if s >= 1]
        heapq.heapify(heap)
        assignments: list[str] = []
        while heap and len(assignments) < n:
            neg_s, idx, name = heapq.heappop(heap)
            assignments.append(name)
            if neg_s + 1 < 0:
                heapq.heappush(heap, (neg_s + 1, idx, name))
        return assignments


PLACERS.add("least-connection", WorstFitPlacer)  # Knative alias


@PLACERS.register("lpt")
class LptPlacer(Placer):
    """Longest-processing-time spread: each update lands on the node with
    the fewest updates so far (ties in fleet order) while it has a free
    slot, balancing per-node load at the cost of locality — more leaves,
    more cross-node intermediate transfers."""

    name = "lpt"

    def _fill(self, order: Sequence[str], slots: dict[str, int], n: int) -> list[str]:
        heap = [(0, i, name) for i, name in enumerate(order) if slots[name] >= 1]
        assignments: list[str] = []
        while heap and len(assignments) < n:
            load, idx, name = heapq.heappop(heap)
            assignments.append(name)
            if load + 1 < slots[name]:
                heapq.heappush(heap, (load + 1, idx, name))
        return assignments


def make_placer(policy: str) -> Placer:
    """Placer factory by policy name (any :data:`PLACERS` key)."""
    return PLACERS.get(policy.lower())()


def group_clients_by_node(
    client_ids: Iterable[str], plan: PlacementPlan
) -> dict[str, list[str]]:
    """Client → node grouping implied by a placement plan (the clients-to-
    worker-node mapping that drives in-place message queuing, §5.1)."""
    groups: dict[str, list[str]] = {}
    for cid, node in zip(client_ids, plan.assignments, strict=True):
        groups.setdefault(node, []).append(cid)
    return groups
