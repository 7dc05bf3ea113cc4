"""Cluster hardware model: worker nodes, NICs, and the network fabric.

Matches the paper's testbed abstraction (§6): homogeneous worker nodes with
a 10 Gb NIC, connected through a non-blocking switch.  Each node carries a
static :class:`NodeSpec` (NIC capacity, maximum service capacity MC_i) and,
per round, a :class:`CpuAccount` that tallies CPU-seconds per component so
that the evaluation's "cumulative CPU time" figures can be reproduced.
"""

from repro.cluster.network import Fabric, Flow, ProcessorSharingLink
from repro.cluster.node import CpuAccount, NodeSpec

__all__ = [
    "CpuAccount",
    "Fabric",
    "Flow",
    "NodeSpec",
    "ProcessorSharingLink",
]
