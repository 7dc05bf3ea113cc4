"""Placement: bin-packing policies, residual capacity, overhead budget."""

from __future__ import annotations

import time

import pytest

from repro.common.errors import CapacityExceededError, ConfigError
from repro.controlplane.placement import (
    BestFitPlacer,
    FirstFitPlacer,
    LptPlacer,
    NodeCapacity,
    WorstFitPlacer,
    group_clients_by_node,
    make_placer,
)


def five_nodes(mc=20):
    return [NodeCapacity(f"node{i}", mc) for i in range(5)]


def test_residual_capacity_formula():
    n = NodeCapacity("n", max_capacity=20, arrival_rate=4.0, exec_time=2.0)
    assert n.in_flight == pytest.approx(8.0)
    assert n.residual == pytest.approx(12.0)


def test_node_capacity_validation():
    with pytest.raises(ConfigError):
        NodeCapacity("n", max_capacity=0)
    with pytest.raises(ConfigError):
        NodeCapacity("n", max_capacity=5, arrival_rate=-1.0)


def test_bestfit_packs_fig8d_shape():
    """The Fig. 8(d) result: 20/60/100 updates -> 1/3/5 nodes."""
    for n_updates, expected_nodes in [(20, 1), (60, 3), (100, 5)]:
        plan = BestFitPlacer().place(n_updates, five_nodes())
        assert plan.node_count == expected_nodes


def test_worstfit_spreads_like_least_connection():
    for n_updates in (20, 60, 100):
        plan = WorstFitPlacer().place(n_updates, five_nodes())
        assert plan.node_count == 5
        counts = list(plan.per_node.values())
        assert max(counts) - min(counts) <= 1  # even spread


def test_firstfit_fills_in_order():
    plan = FirstFitPlacer().place(30, five_nodes())
    assert plan.per_node["node0"] == 20
    assert plan.per_node["node1"] == 10
    assert plan.node_count == 2


def test_bestfit_prefers_fuller_node():
    nodes = [
        NodeCapacity("busy", 20, arrival_rate=15.0, exec_time=1.0),  # residual 5
        NodeCapacity("idle", 20),  # residual 20
    ]
    plan = BestFitPlacer().place(5, nodes)
    assert plan.per_node == {"busy": 5, "idle": 0}


def test_worstfit_prefers_emptier_node():
    nodes = [
        NodeCapacity("busy", 20, arrival_rate=15.0, exec_time=1.0),
        NodeCapacity("idle", 20),
    ]
    plan = WorstFitPlacer().place(5, nodes)
    assert plan.per_node == {"busy": 0, "idle": 5}


def test_overflow_round_robins_when_saturated():
    plan = BestFitPlacer().place(110, five_nodes())
    # 100 fit; 10 overflow spread round-robin.
    assert sum(plan.per_node.values()) == 110
    assert plan.node_count == 5


def test_cross_node_transfers_metric():
    plan = BestFitPlacer().place(60, five_nodes())
    assert plan.cross_node_transfers() == plan.node_count - 1


def test_assignments_align_with_input_order():
    plan = BestFitPlacer().place(3, five_nodes())
    assert len(plan.assignments) == 3
    groups = group_clients_by_node(["c1", "c2", "c3"], plan)
    assert sum(len(v) for v in groups.values()) == 3


def test_make_placer_factory():
    assert isinstance(make_placer("bestfit"), BestFitPlacer)
    assert isinstance(make_placer("least-connection"), WorstFitPlacer)
    assert isinstance(make_placer("lpt"), LptPlacer)
    with pytest.raises(ConfigError, match="unknown placer 'nope'") as err:
        make_placer("nope")
    for name in ("bestfit", "firstfit", "least-connection", "lpt", "worstfit"):
        assert name in str(err.value)


def test_lpt_spreads_least_assigned_first_then_overflows_round_robin():
    """5 nodes of capacity 2, 13 updates: the first 10 fill every slot
    least-assigned node first (ties in fleet order); the last 3 overflow
    round-robin from the first node."""
    nodes = [NodeCapacity(f"node{i}", 2) for i in range(5)]
    plan = LptPlacer().place(13, nodes)
    assert plan.assignments == [
        "node0", "node1", "node2", "node3", "node4",
        "node0", "node1", "node2", "node3", "node4",
        "node0", "node1", "node2",
    ]
    assert plan.per_node == {"node0": 3, "node1": 3, "node2": 3, "node3": 2, "node4": 2}


def test_no_nodes_raises():
    with pytest.raises(CapacityExceededError):
        BestFitPlacer().place(1, [])


def test_negative_updates_rejected():
    with pytest.raises(ConfigError):
        BestFitPlacer().place(-1, five_nodes())


def test_zero_updates_is_empty_plan():
    plan = BestFitPlacer().place(0, five_nodes())
    assert plan.assignments == []
    assert plan.node_count == 0


def test_placement_overhead_within_paper_budget():
    """§6.1: locality-aware placement < 17 ms at 10K clients."""
    nodes = [NodeCapacity(f"node{i}", 120) for i in range(100)]
    placer = BestFitPlacer()
    placer.place(10_000, nodes)  # warm up
    t0 = time.perf_counter()
    placer.place(10_000, nodes)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    assert elapsed_ms < 17.0


def test_policies_agree_on_totals():
    for policy in ("bestfit", "firstfit", "worstfit"):
        plan = make_placer(policy).place(60, five_nodes())
        assert sum(plan.per_node.values()) == 60
        assert all(v >= 0 for v in plan.per_node.values())
