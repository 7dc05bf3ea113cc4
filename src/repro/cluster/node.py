"""Worker node model: static node description and per-component CPU accounting.

The paper's evaluation reports cumulative CPU time per system (Figs. 8(b),
9(b)/(d), 10(c)/(f)).  Reproducing those requires an explicit account of
*which component* burned CPU: aggregation compute, kernel network
processing, sidecar mediation, broker hops, gateway payload processing,
cold-start initialization.  A :class:`CpuAccount` per node tallies each
bucket; :class:`NodeSpec` holds what placement and the fabric read — the
NIC capacity and the maximum service capacity MC_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Static description of one worker node.

    Defaults follow the paper's CloudLab testbed (§6): a 10 Gb NIC
    (1.25e9 bytes/s) and MC_i = 20.
    """

    name: str
    nic_bps: float = 1.25e9
    #: Maximum service capacity MC_i — max model updates aggregated
    #: simultaneously (§5.1; measured offline per Appendix E; 20 on testbed).
    max_service_capacity: int = 20

    def __post_init__(self) -> None:
        if self.nic_bps <= 0:
            raise SimulationError("NIC capacity must be positive")
        if self.max_service_capacity < 1:
            raise SimulationError("max_service_capacity must be >= 1")


@dataclass
class CpuAccount:
    """CPU-seconds burned on this node, bucketed by component."""

    buckets: dict[str, float] = field(default_factory=dict)

    def charge(self, component: str, cpu_seconds: float) -> None:
        if cpu_seconds < 0:
            raise SimulationError(f"negative CPU charge: {cpu_seconds}")
        try:
            self.buckets[component] += cpu_seconds
        except KeyError:
            self.buckets[component] = cpu_seconds

    def total(self) -> float:
        return sum(self.buckets.values())

    def get(self, component: str) -> float:
        return self.buckets.get(component, 0.0)
