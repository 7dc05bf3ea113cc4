"""Conformance properties every registered policy must satisfy.

The suite introspects the live registries (``POLICIES[family].names()``
and ``PLACERS.names()``), so any policy registered anywhere — the
built-ins, and the runnable ``examples/custom_policy.py`` policy which is
imported below — is held to the same contract:

* **selection** returns a duplicate-free subset of the clients eligible
  at the round's arrival instant, with matching weights, and is a pure
  function of its injected RNG;
* **placement** (every placer) covers every arrival exactly once, the
  plan's leaves partition the placed updates per node, and a ``nodes=``
  restriction is honoured;
* **admission** never grows a queue past its bound and never starves a
  tenant while the queue has room;
* **recovery** never leaves a round hung — below quorum it must abort,
  and every end-to-end chaos replay drives each round to a terminal
  outcome (complete, shrink to completion, or typed abort).
"""

from __future__ import annotations

import importlib.util
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.controlplane.placement import PLACERS
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.core.policies import (
    ADMISSION_DECISIONS,
    POLICIES,
    AdmissionContext,
    RecoveryContext,
    SelectionContext,
)
from repro.fl.population import ClientPopulation
from repro.fl.selector import Selector, SelectorConfig
from repro.traces.models import AvailabilityTrace, availability_trace, poisson_trace
from repro.traces.replay import ChaosCorrelation, ReplayConfig, TraceReplayEngine
from repro.workloads.fedscale import MOBILE_PROFILE, make_population

# Pull in the docs example so its custom policy faces the same bar as the
# built-ins (guarded: pytest may import this module more than once, and
# the registry refuses duplicates).
_EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "examples" / "custom_policy.py"
if "freshest-first" not in POLICIES["selection"].names():
    _spec = importlib.util.spec_from_file_location("custom_policy_example", _EXAMPLE)
    _mod = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_mod)

HORIZON = 120.0
N_CLIENTS = 32
NODES = [f"node{i}" for i in range(4)]

_AVAIL = availability_trace(
    N_CLIENTS, HORIZON, seed=5, mean_session=60.0, mean_gap=40.0,
    prefix=MOBILE_PROFILE.name,
)
_FEDSCALE = make_population(N_CLIENTS, profile=MOBILE_PROFILE, seed=5)
_POPULATION = ClientPopulation.generate(
    N_CLIENTS, seed=5, horizon=HORIZON, mean_session=60.0, mean_gap=40.0
)
_SELECTOR = Selector(SelectorConfig(aggregation_goal=6, over_provision=1.25))


def _ctx(at: float) -> SelectionContext:
    """A context rich enough for every selection policy: trace-backed
    clients for the id-returning ones, a SoA population for the
    index-returning one."""
    return SelectionContext(
        at=at,
        tenant=0,
        round_id=0,
        round_updates=6,
        availability=_AVAIL,
        weights=_FEDSCALE.weights(),
        selector=_SELECTOR,
        clients=_FEDSCALE.clients,
        population=_POPULATION,
    )


# ================================================================= selection
@pytest.mark.parametrize("name", POLICIES["selection"].names())
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20), at=st.floats(0.0, HORIZON - 1e-6))
def test_selection_returns_valid_unique_subset(name: str, seed: int, at: float):
    pol = POLICIES["selection"].get(name)()
    ctx = _ctx(at)
    picked = pol.select(ctx, make_rng(seed, "conformance"))
    picked_list = [int(p) for p in picked] if isinstance(picked, np.ndarray) else list(picked)
    assert len(set(picked_list)) == len(picked_list), "duplicate participants"
    if isinstance(picked, np.ndarray):
        # Index-returning (population-backed) policy: every index must be
        # in range and available at the arrival instant.
        mask = _POPULATION.available_mask(at)
        assert all(0 <= i < _POPULATION.size for i in picked_list)
        assert all(mask[i] for i in picked_list), "picked an offline client"
    else:
        eligible = set(_AVAIL.available(at)) | {
            f"synth-{i}" for i in range(ctx.round_updates)
        }
        assert set(picked_list) <= eligible, "picked an ineligible client"
    weights = pol.participant_weights(ctx, picked)
    assert len(weights) == len(picked_list)
    assert all(float(w) > 0 for w in weights)


@pytest.mark.parametrize("name", POLICIES["selection"].names())
def test_selection_is_a_pure_function_of_its_rng(name: str):
    pol = POLICIES["selection"].get(name)()
    for at in (3.0, 47.0, 101.0):
        first = pol.select(_ctx(at), make_rng(99, "conformance"))
        second = pol.select(_ctx(at), make_rng(99, "conformance"))
        assert list(np.asarray(first)) == list(np.asarray(second)), (
            f"{name} is not deterministic under a fixed RNG stream"
        )


# Random sorted window dicts on an integer grid, so ``at`` values can land
# exactly on window starts and ends; overlapping and zero-length spans
# included.
_SPANS = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 6)), max_size=4
).map(lambda raw: tuple((float(a), float(a + d)) for a, d in sorted(raw)))


@st.composite
def _selection_case(draw):
    windows = draw(st.dictionaries(st.sampled_from([f"c{i:02d}" for i in range(12)]), _SPANS))
    known = draw(st.lists(st.sampled_from(sorted(windows)), unique=True)) if windows else []
    ghosts = draw(
        st.lists(
            st.sampled_from(["ghost-a", "ghost-b", "ghost-c"]),
            unique=True,
            min_size=0 if known else 1,
        )
    )
    ids = draw(st.permutations(known + ghosts))
    clients = [
        SimpleNamespace(client_id=cid, num_samples=draw(st.integers(1, 50))) for cid in ids
    ]
    ats = draw(st.lists(st.integers(-1, 27).map(float), min_size=1, max_size=4))
    return AvailabilityTrace(horizon=30.0, windows=windows), clients, ats


@settings(max_examples=60, deadline=None)
@given(
    case=_selection_case(),
    goal=st.integers(1, 8),
    diversity=st.sampled_from(["uniform", "diverse"]),
    seed=st.integers(0, 2**20),
)
def test_availability_aware_selection_matches_scalar_oracle(case, goal, diversity, seed):
    """The vectorized policy picks what the per-client ``is_available``
    filter + ``Selector.select`` picks, in the same order, leaving the
    RNG in the same state; an all-down round picks nobody."""
    trace, clients, ats = case
    selector = Selector(SelectorConfig(aggregation_goal=goal, diversity=diversity))
    pol = POLICIES["selection"].get("availability-aware")()
    for at in [*ats, 1e9]:  # 1e9: after every window, so all down
        ctx = SelectionContext(
            at=at, tenant=0, round_id=0, round_updates=goal,
            availability=trace, selector=selector, clients=clients,
        )
        r1, r2 = make_rng(seed, "oracle"), make_rng(seed, "oracle")
        got = pol.select(ctx, r1)
        pool = [c for c in clients if trace.is_available(c.client_id, at)]
        expect = [c.client_id for c in selector.select(pool, r2)] if pool else []
        assert got == expect
        assert r1.bit_generator.state == r2.bit_generator.state
    assert got == []


# ================================================================= placement
_ARRIVALS = st.lists(
    st.tuples(st.floats(0.0, 10.0), st.floats(0.5, 5.0)),
    min_size=1,
    max_size=16,
)


def _prepare(name: str, node_names: list, arrivals: list, nodes: list):
    """Place and plan one round through the platform with placer ``name``."""
    platform = AggregationPlatform(
        PlatformConfig.lifl(placement_policy=name), node_names=node_names
    )
    return platform.prepare_round(arrivals, nbytes=1e6, nodes=nodes)


@pytest.mark.parametrize("name", PLACERS.names())
@settings(max_examples=20, deadline=None)
@given(arrivals=_ARRIVALS, restrict=st.integers(1, len(NODES)))
def test_placement_covers_arrivals_and_respects_nodes(
    name: str, arrivals: list, restrict: int
):
    allowed = NODES[:restrict]
    updates, plan = _prepare(name, NODES, arrivals, allowed)
    # Exactly-once coverage, in deterministic arrival order.
    assert len(updates) == len(arrivals)
    assert sorted(u.uid for u in updates) == list(range(len(arrivals)))
    assert [u.arrival_time for u in updates] == sorted(t for t, _ in arrivals)
    # Node restriction honoured.
    assert {u.node for u in updates} <= set(allowed)
    # The plan's leaves partition the placed updates node by node.
    plan.validate()
    from repro.controlplane.hierarchy import Role

    leaf_fan_in: dict[str, int] = {}
    for leaf in plan.by_role(Role.LEAF):
        leaf_fan_in[leaf.node] = leaf_fan_in.get(leaf.node, 0) + leaf.fan_in
    placed: dict[str, int] = {}
    for u in updates:
        placed[u.node] = placed.get(u.node, 0) + 1
    assert leaf_fan_in == placed, "plan leaves do not partition the updates"


# ------------------------------------------------- region-restricted placement
_REGION_NODES = {
    "us": ("us-n0", "us-n1", "us-n2"),
    "eu": ("eu-n0", "eu-n1"),
    "ap": ("ap-n0", "ap-n1"),
}
_ALL_REGION_NODES = [n for nodes in _REGION_NODES.values() for n in nodes]


@pytest.mark.parametrize("name", PLACERS.names())
@settings(max_examples=20, deadline=None)
@given(
    arrivals=_ARRIVALS,
    home=st.sampled_from(sorted(_REGION_NODES)),
    partitioned_home=st.booleans(),
)
def test_placement_respects_region_restricted_node_sets(
    name: str, arrivals: list, home: str, partitioned_home: bool
):
    """Every registered placer against the node sets the geo
    federation hands it: the home region's nodes, or — while the home is
    partitioned — the fallback's.  A policy must never place an update
    in a partitioned region even though the platform knows every node."""
    from repro.geo import placement_nodes

    fallback = {"us": "eu", "eu": "ap", "ap": "us"}[home]
    partitioned = {home} if partitioned_home else set()
    allowed = placement_nodes(_REGION_NODES, home, fallback, partitioned)
    assert set(allowed) == set(
        _REGION_NODES[fallback if partitioned_home else home]
    )
    updates, plan = _prepare(name, _ALL_REGION_NODES, arrivals, list(allowed))
    assert len(updates) == len(arrivals)
    used = {u.node for u in updates}
    assert used <= set(allowed), f"{name} escaped the region restriction"
    for region, nodes in _REGION_NODES.items():
        if region in partitioned:
            assert not used & set(nodes), f"{name} placed in a partitioned region"
    plan.validate()


def test_placement_nodes_refuses_dead_ends():
    """The federation's restriction helper fails loudly rather than
    handing a policy an empty or unsafe node set."""
    from repro.common.errors import ConfigError
    from repro.geo import placement_nodes

    with pytest.raises(ConfigError, match="no fallback"):
        placement_nodes(_REGION_NODES, "eu", "", {"eu"})
    with pytest.raises(ConfigError, match="partitioned too"):
        placement_nodes(_REGION_NODES, "eu", "ap", {"eu", "ap"})


# ================================================================= admission
@pytest.mark.parametrize("name", POLICIES["admission"].names())
@settings(max_examples=30, deadline=None)
@given(
    queue_limit=st.integers(0, 6),
    fill=st.floats(0.0, 1.0),
    deadline=st.sampled_from([0.0, 8.0]),
    now=st.floats(0.0, 500.0),
)
def test_admission_respects_bounds_and_never_starves(
    name: str, queue_limit: int, fill: float, deadline: float, now: float
):
    queue_len = min(queue_limit, int(fill * (queue_limit + 1)))
    pol = POLICIES["admission"].get(name)()
    decision = pol.decide(
        AdmissionContext(
            tenant=0,
            queue_len=queue_len,
            queue_limit=queue_limit,
            now=now,
            defer_deadline_s=deadline,
        )
    )
    assert decision in ADMISSION_DECISIONS
    if queue_len >= queue_limit:
        assert decision != "enqueue", "would grow the queue past its bound"
    else:
        assert decision == "enqueue", (
            "starved the tenant: room in the queue but the arrival was "
            f"{decision}ed"
        )


@pytest.mark.parametrize("name", POLICIES["admission"].names())
def test_admission_end_to_end_conserves_every_arrival(name: str):
    """Under heavy overload every arrival still reaches exactly one
    terminal outcome — the serving loop enforces the queue bound (it
    raises if a policy enqueues past it) and nothing is lost or counted
    twice."""
    replay = TraceReplayEngine(
        AggregationPlatform(PlatformConfig.lifl(), node_names=NODES),
        poisson_trace(40.0, 90.0, seed=2),
        ReplayConfig(
            round_updates=4,
            max_inflight=1,
            queue_limit=2,
            slo_target_s=10.0,
            admission_policy=name,
            defer_deadline_s=5.0,
        ),
        seed=2,
    )
    row = replay.run().row()
    terminal = (
        row["completed"] + row["rejected"] + row["aborted"] + row.get("shed", 0)
    )
    assert terminal == row["rounds"] > 0


# ================================================================== recovery
@pytest.mark.parametrize("name", POLICIES["recovery"].names())
@settings(max_examples=30, deadline=None)
@given(total=st.integers(1, 64), data=st.data())
def test_recovery_always_terminates_below_quorum(name: str, total: int, data):
    quorum = data.draw(st.integers(1, total))
    survivors = data.draw(st.integers(0, total))
    pol = POLICIES["recovery"].get(name)()
    verdict = pol.on_client_failed(
        RecoveryContext(
            client_id="c0", survivors=survivors, quorum=quorum, total=total
        )
    )
    assert verdict in ("shrink", "abort"), f"unknown recovery verdict {verdict!r}"
    if survivors < quorum:
        # A round that can no longer cover its quorum must abort — a
        # policy that keeps shrinking forever would hang the round.
        assert pol.should_abort(survivors, quorum, total), (
            "below-quorum round left hanging"
        )


@pytest.mark.parametrize("name", POLICIES["recovery"].names())
def test_recovery_end_to_end_never_hangs_a_round(name: str):
    """Serve through aggressive correlated dropout waves: every round
    must end — completed (possibly goal-shrunk) or typed abort."""
    avail = availability_trace(
        24, 120.0, seed=7, mean_session=50.0, mean_gap=60.0,
        day_night_amplitude=0.8, period=60.0,
    )
    replay = TraceReplayEngine(
        AggregationPlatform(PlatformConfig.lifl(), node_names=NODES),
        poisson_trace(15.0, 120.0, seed=7),
        ReplayConfig(
            round_updates=6, max_inflight=2, queue_limit=4, slo_target_s=15.0
        ),
        availability=avail,
        chaos=ChaosCorrelation(
            dip_threshold=0.9,
            max_fraction=1.0,
            wave_delay_s=0.25,
            quorum_fraction=0.6,
            recovery_policy=name,
        ),
        seed=7,
    )
    row = replay.run().row()
    assert row["chaos_waves"] > 0, "chaos never engaged — test is vacuous"
    assert row["completed"] + row["rejected"] + row["aborted"] == row["rounds"] > 0
    if name == "abort-fast":
        assert row["aborted"] > 0
