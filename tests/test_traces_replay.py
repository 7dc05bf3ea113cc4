"""The arrival-driven serving loop: admission, overlap, SLO accounting,
chaos correlation, and byte-determinism."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.common.units import RESNET18_BYTES
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.traces.models import (
    AvailabilityTrace,
    Trace,
    TraceEvent,
    availability_trace,
    poisson_trace,
)
from repro.traces.replay import ChaosCorrelation, ReplayConfig, TraceReplayEngine

NODES = [f"node{i}" for i in range(6)]


def _platform(**overrides) -> AggregationPlatform:
    return AggregationPlatform(PlatformConfig.lifl(**overrides), node_names=NODES)


def _trace(rate: float = 20, horizon: float = 240.0, seed: int = 3) -> Trace:
    return poisson_trace(rate, horizon, seed=seed)


def _replay(trace=None, config=None, seed: int = 5, **kwargs) -> TraceReplayEngine:
    return TraceReplayEngine(
        _platform(),
        trace if trace is not None else _trace(),
        config or ReplayConfig(round_updates=6, nbytes=RESNET18_BYTES, slo_target_s=15.0),
        seed=seed,
        **kwargs,
    )


# ----------------------------------------------------------------- basics
def test_replay_serves_every_offered_round():
    trace = _trace()
    result = _replay(trace).run()
    row = result.row()
    assert row["rounds"] == len(trace)
    assert row["completed"] + row["rejected"] + row["aborted"] == len(trace)
    assert row["latency_p50_s"] > 0
    for rec in result.records:
        if not rec.rejected:
            assert rec.complete_at >= rec.admit_at >= rec.arrival_at
            assert rec.latency == pytest.approx(rec.queue_wait + rec.service)


def test_replay_is_byte_deterministic_in_its_seed():
    def fingerprint():
        result = _replay().run()
        return (
            result.row(),
            [
                (r.tenant, r.round_id, r.arrival_at, r.admit_at, r.complete_at,
                 r.rejected, r.aborted, tuple(r.participants))
                for r in result.records
            ],
        )

    assert fingerprint() == fingerprint()


def test_replay_keeps_no_per_round_rng_streams():
    # Each round's participant stream is read once; memoizing it would
    # grow the registry by one generator per trace event.
    engine = _replay()
    result = engine.run()
    assert len(result.records) == len(engine.trace)
    assert engine._rngs._streams
    assert all(name.startswith("policy:") for name in engine._rngs._streams)


def test_rounds_overlap_under_load():
    result = _replay().run()
    assert result.peak_inflight > 1
    assert result.rounds_overlapped


def test_mid_replay_rounds_measure_their_own_duration():
    """A round admitted at t=100 must report the same service time as the
    identical round admitted at t=0 — ACT is install-relative."""
    trace = Trace(
        events=[TraceEvent(at=0.0), TraceEvent(at=100.0, round_id=1)], horizon=200.0
    )
    # reuse off so the second round cannot run faster via the warm pool
    platform = AggregationPlatform(
        PlatformConfig.lifl(reuse=False, warm_idle_reserved_cores=0.0),
        node_names=NODES,
    )
    cfg = ReplayConfig(round_updates=6, arrival_spread_s=0.0, slo_target_s=30.0)
    result = TraceReplayEngine(platform, trace, cfg, seed=1).run()
    first, second = result.records
    assert second.admit_at == pytest.approx(100.0)
    assert second.service == pytest.approx(first.service)


def test_finish_round_normalizes_instance_stats_to_install_time():
    """A round installed at t=50 must settle with *identical* accounting
    (instance lifecycles, reserved CPU) to the same round run standalone
    at t=0 — stats are shifted onto the round's own clock."""
    from repro.sim.engine import Environment

    arrivals = [(0.4 * i, 1.0) for i in range(6)]
    ref = _platform().run_round(
        arrivals, RESNET18_BYTES, include_eval=False, record_timeline=False
    )

    platform = _platform()
    engine = platform.engine
    env = Environment()
    fabric = engine.build_fabric(env)
    env.run(until=50.0)
    updates, plan = platform.prepare_round(arrivals, RESNET18_BYTES)
    tenant = engine.install_round(env, fabric, updates, plan)
    env.run(until=tenant.top_done)
    shifted = engine.finish_round(tenant, start_time=50.0)

    assert shifted.act == pytest.approx(ref.act)
    assert shifted.cpu_reserved == pytest.approx(ref.cpu_reserved)
    assert len(shifted.instances) == len(ref.instances)
    for got, want in zip(shifted.instances, ref.instances):
        assert (got.agg_id, got.node, got.role) == (want.agg_id, want.node, want.role)
        assert got.created_at == pytest.approx(want.created_at)
        assert got.ready_at == pytest.approx(want.ready_at)
        assert got.finished_at == pytest.approx(want.finished_at)
        assert (got.cold_start, got.reused) == (want.cold_start, want.reused)
    for stats in shifted.instances:
        assert 0.0 <= stats.created_at <= stats.finished_at <= shifted.act + 1e-9


def test_replay_round_matches_standalone_round():
    """One admitted round is the same simulation as run_round on the same
    arrivals — the serving loop adds no hidden cost."""
    trace = Trace(events=[TraceEvent(at=0.0)], horizon=10.0)
    result = _replay(trace).run()
    rec = result.records[0]
    standalone = _platform().run_round(
        rec.participants, RESNET18_BYTES, include_eval=False, record_timeline=False
    )
    assert rec.service == pytest.approx(standalone.act)


def test_warm_pool_turns_over_across_served_rounds():
    platform = _platform()
    TraceReplayEngine(platform, _trace(), ReplayConfig(round_updates=6), seed=2).run()
    assert platform.engine.lifecycle.warm.total() > 0


# -------------------------------------------------------------- admission
def test_bounded_queue_rejects_overflow():
    cfg = ReplayConfig(round_updates=6, max_inflight=1, queue_limit=0, slo_target_s=15.0)
    row = _replay(config=cfg).run().row()
    assert row["rejected"] > 0
    assert row["completed"] + row["rejected"] == row["rounds"]


def test_queue_wait_is_measured_when_rounds_queue():
    cfg = ReplayConfig(round_updates=6, max_inflight=1, queue_limit=8, slo_target_s=15.0)
    row = _replay(config=cfg).run().row()
    assert row["queue_wait_p95_s"] > 0
    assert row["latency_p95_s"] > row["service_p95_s"]


def test_admission_and_queueing_hurt_attainment_monotonically():
    tight = _replay(config=ReplayConfig(round_updates=6, max_inflight=1, queue_limit=8, slo_target_s=10.0)).run().row()
    loose = _replay(config=ReplayConfig(round_updates=6, max_inflight=8, queue_limit=8, slo_target_s=10.0)).run().row()
    assert loose["slo_attainment"] >= tight["slo_attainment"]


# ----------------------------------------------------------- availability
def test_unformable_rounds_are_rejected_not_crashed():
    # nobody is ever available -> every round is unformable
    avail = AvailabilityTrace(horizon=240.0, windows={"c-0": ()})
    row = _replay(availability=avail).run().row()
    assert row["rejected"] == row["rounds"]
    assert row["completed"] == 0


def test_availability_thins_rounds():
    avail = availability_trace(
        4, 240.0, seed=9, mean_session=30.0, mean_gap=90.0
    )  # tiny churny population: rounds rarely fill to 6
    result = _replay(availability=avail).run()
    formed = [r for r in result.records if not r.rejected]
    assert formed, "some rounds should still form"
    assert all(r.updates <= 4 for r in formed)
    assert any(r.updates < 6 for r in formed)


def test_selector_routes_participation_through_over_provisioning():
    from repro.fl.model import model_spec
    from repro.fl.selector import Selector, SelectorConfig
    from repro.workloads.fedscale import MOBILE_PROFILE, make_population

    population = make_population(30, spec=model_spec("resnet18"), profile=MOBILE_PROFILE, seed=4)
    avail = availability_trace(
        30, 240.0, seed=4, mean_session=200.0, mean_gap=40.0, prefix=MOBILE_PROFILE.name
    )
    selector = Selector(SelectorConfig(aggregation_goal=5, over_provision=1.2))
    result = _replay(
        availability=avail,
        weights=population.weights(),
        selector=selector,
        clients=population.clients,
    ).run()
    formed = [r for r in result.records if not r.rejected]
    assert formed
    assert all(r.updates <= 6 for r in formed)  # ceil(5 * 1.2)
    # FedAvg weights flow from the population, not the uniform default
    assert any(w != 1.0 for r in formed for _, w in r.participants)


def test_availability_aware_replay_maps_clients_to_trace_rows_once(monkeypatch):
    from repro.fl.model import model_spec
    from repro.fl.selector import Selector, SelectorConfig
    from repro.workloads.fedscale import MOBILE_PROFILE, make_population

    calls = []
    row_index = AvailabilityTrace.row_index

    def counting(self, client_ids):
        calls.append(self)
        return row_index(self, client_ids)

    monkeypatch.setattr(AvailabilityTrace, "row_index", counting)
    population = make_population(30, spec=model_spec("resnet18"), profile=MOBILE_PROFILE, seed=4)
    avail = availability_trace(
        30, 240.0, seed=4, mean_session=200.0, mean_gap=40.0, prefix=MOBILE_PROFILE.name
    )
    trace = Trace(
        events=[TraceEvent(at=10.0 * k, tenant=0, round_id=k) for k in range(20)],
        horizon=240.0,
    )
    result = _replay(
        trace=trace,
        availability=avail,
        selector=Selector(SelectorConfig(aggregation_goal=5)),
        clients=population.clients,
    ).run()
    assert len(result.records) == 20
    assert calls == [avail]


# ------------------------------------------------------------------ chaos
def test_chaos_waves_fire_only_in_availability_dips():
    avail = availability_trace(
        40, 240.0, seed=6, mean_session=60.0, mean_gap=60.0,
        day_night_amplitude=0.9, period=120.0,
    )
    chaos = ChaosCorrelation(dip_threshold=0.5, max_fraction=0.6)
    result = _replay(availability=avail, chaos=chaos).run()
    assert result.chaos_waves > 0
    assert result.clients_dropped > 0
    waved = [r for r in result.records if r.chaos_fraction > 0]
    for rec in waved:
        assert avail.availability_fraction(rec.arrival_at) < 0.5


def test_deep_dips_can_abort_rounds_without_crashing_the_replay():
    # 6 always-on clients in a 100-client population: fraction 0.06, so
    # every round gets a near-max dropout wave and quorum 0.6 is brittle.
    windows = {f"c-{i:03d}": ((0.0, 240.0),) if i < 6 else () for i in range(100)}
    avail = AvailabilityTrace(horizon=240.0, windows=windows)
    chaos = ChaosCorrelation(
        dip_threshold=0.9, max_fraction=0.95, wave_delay_s=0.0,
        quorum_fraction=0.6, heartbeat_timeout=1.0, sweep_interval=0.5,
    )
    cfg = ReplayConfig(round_updates=6, arrival_spread_s=20.0, slo_target_s=15.0)
    result = _replay(
        trace=_trace(rate=6, horizon=120.0), config=cfg,
        availability=avail, chaos=chaos, seed=11,
    ).run()
    row = result.row()
    assert row["aborted"] > 0, "deep waves should breach the quorum"
    assert row["aborted"] + row["completed"] + row["rejected"] == row["rounds"]
    assert row["slo_attainment"] < 1.0


def test_chaos_requires_availability():
    with pytest.raises(ConfigError):
        TraceReplayEngine(
            _platform(), _trace(), ReplayConfig(), chaos=ChaosCorrelation(), seed=1
        )


# ------------------------------------------------------------- validation
def test_replay_config_validation():
    for bad in (
        dict(round_updates=0),
        dict(max_inflight=0),
        dict(queue_limit=-1),
        dict(slo_target_s=0.0),
        dict(arrival_spread_s=-1.0),
        dict(nbytes=0.0),
    ):
        with pytest.raises(ConfigError):
            TraceReplayEngine(_platform(), _trace(), ReplayConfig(**bad))


def test_selector_needs_clients_and_availability():
    from repro.fl.selector import Selector, SelectorConfig

    selector = Selector(SelectorConfig(aggregation_goal=4))
    with pytest.raises(ConfigError):
        TraceReplayEngine(_platform(), _trace(), ReplayConfig(), selector=selector)
    with pytest.raises(ConfigError):
        TraceReplayEngine(
            _platform(), _trace(), ReplayConfig(), selector=selector, clients=[]
        )


def test_empty_trace_yields_empty_result():
    result = TraceReplayEngine(
        _platform(), Trace(events=[], horizon=10.0), ReplayConfig()
    ).run()
    assert result.records == []
    assert result.row()["rounds"] == 0


# ---------------------------------------------------- SoA population path
def _population(n=400, seed=5, horizon=300.0):
    from repro.fl.population import ClientPopulation

    return ClientPopulation.generate(n, seed=seed, horizon=horizon)


def _as_trace(pop) -> AvailabilityTrace:
    """The population's CSR windows as a per-id ``AvailabilityTrace``."""
    off = pop.win_offsets
    return AvailabilityTrace(
        horizon=pop.horizon,
        windows={
            pop.client_id(i): tuple(
                zip(
                    pop.win_start[off[i] : off[i + 1]].tolist(),
                    pop.win_end[off[i] : off[i + 1]].tolist(),
                )
            )
            for i in range(pop.size)
        },
    )


def test_population_replay_matches_client_list_replay():
    """The struct-of-arrays path draws the same participants, weights,
    offsets — hence the same rows — as the FLClient + AvailabilityTrace
    path over the equivalent population."""
    from repro.fl.selector import Selector, SelectorConfig
    from repro.workloads.fedscale import make_population

    pop = _population()
    ref = make_population(400, seed=5)
    sel = Selector(SelectorConfig(aggregation_goal=12, over_provision=1.0))
    trace = _trace(horizon=120.0)
    cfg = ReplayConfig(round_updates=12, nbytes=RESNET18_BYTES, slo_target_s=15.0)
    a = TraceReplayEngine(
        _platform(), trace, cfg, selector=sel, population=pop, seed=5
    ).run()
    b = TraceReplayEngine(
        _platform(),
        trace,
        cfg,
        availability=_as_trace(pop),
        weights={pop.client_id(i): float(pop.num_samples[i]) for i in range(pop.size)},
        selector=sel,
        clients=ref.clients,
        seed=5,
    ).run()
    assert a.row() == b.row()
    for ra, rb in zip(a.records, b.records):
        assert ra.participants == rb.participants


def test_population_replay_shards_like_any_other():
    from functools import partial

    from repro.fl.selector import Selector, SelectorConfig

    pop = _population()
    sel = Selector(SelectorConfig(aggregation_goal=10, over_provision=1.0))
    trace = _trace(horizon=100.0)
    cfg = ReplayConfig(round_updates=10, nbytes=RESNET18_BYTES, slo_target_s=15.0)
    make = partial(
        TraceReplayEngine,
        None,
        trace,
        cfg,
        selector=sel,
        population=pop,
        seed=7,
        platform_factory=_platform,
    )
    assert make().run(shards=2, inline=True).row() == make().run().row()


def test_population_validation_rules():
    from repro.fl.selector import Selector, SelectorConfig

    pop = _population()
    sel = Selector(SelectorConfig(aggregation_goal=8))
    # population needs a selector
    with pytest.raises(ConfigError, match="selector"):
        TraceReplayEngine(_platform(), _trace(), population=pop)
    # mutually exclusive with a clients list
    with pytest.raises(ConfigError, match="mutually exclusive"):
        TraceReplayEngine(
            _platform(), _trace(), selector=sel, population=pop, clients=[]
        )
    # carries its own windows: no separate availability trace
    with pytest.raises(ConfigError, match="availability"):
        TraceReplayEngine(
            _platform(),
            _trace(),
            selector=sel,
            population=pop,
            availability=AvailabilityTrace(horizon=1.0),
        )
    # chaos correlation stays on the AvailabilityTrace path
    with pytest.raises(ConfigError, match="chaos"):
        TraceReplayEngine(
            _platform(), _trace(), selector=sel, population=pop,
            chaos=ChaosCorrelation(),
        )
    # windowless populations cannot drive availability-aware rounds
    with pytest.raises(ConfigError, match="windows"):
        TraceReplayEngine(
            _platform(), _trace(), selector=sel, population=_population(horizon=0.0)
        )
