"""Seeded workload generators and builders.

Every input a workload feeds the simulator — round-arrival traces,
availability windows, client populations, per-round participants — is
generated here from the benchmark's ``--seed`` with the benchmark's own
numpy streams; the simulator receives only the generated objects, through
its public API (``TraceReplayEngine``, ``PartitionedRoundEngine``,
``GeoReplayEngine``, ``AggregationPlatform``, ``ClientPopulation``).

Each workload splits into three steps, which the harness times apart:

* ``generate(seed, size)`` — draw the inputs (part of set-up);
* ``build(inputs)`` — construct platforms and engines (part of set-up);
* ``run(job, inline)`` — the one synchronous call a repetition measures,
  returning an :class:`Outcome`.

``size`` is ``"full"`` for the benchmark and ``"tiny"`` for the tests.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.chaos.plan import FaultPlan, PartitionWindow
from repro.common.units import RESNET18_BYTES
from repro.controlplane.reactive import ControllerConfig
from repro.core.partition import PartitionedRoundEngine
from repro.core.platform import AggregationPlatform, PlatformConfig
from repro.fl.client import ClientConfig, FLClient
from repro.fl.model import model_spec
from repro.fl.population import ClientPopulation
from repro.fl.selector import Selector, SelectorConfig
from repro.geo import GeoReplayEngine, RegionTopology, WanLink
from repro.telemetry.bus import RecordingSubscriber, TelemetryBus
from repro.traces.models import AvailabilityTrace, Trace, TraceEvent
from repro.traces.replay import ReplayConfig, TraceReplayEngine

#: mobile-client behaviour shared by every generated population
HIBERNATE_MAX_S = 60.0
SPEED_SIGMA = 0.35
SAMPLES_MEAN = 140.0
SAMPLES_EXPONENT = 1.6


# ------------------------------------------------------------------ outputs
@dataclass(frozen=True)
class RoundRow:
    """One offered round's simulated outcome, in a canonical form."""

    key: str
    #: ``completed``, ``aborted``, ``rejected`` or ``shed``
    status: str
    deferred: bool
    updates: int
    #: summed FedAvg weight of the round's participants (input side)
    weight: float
    #: admission to completion (the round's ACT); 0 unless completed
    service: float
    #: arrival to completion; 0 unless completed
    latency: float
    #: False for warm-up rounds that the ``sim_*`` metrics leave out
    measured: bool = True


@dataclass
class Outcome:
    """What one repetition produced: the rows the ``sim_*`` metrics and
    the output checks read, plus workload-level layer values."""

    rows: list[RoundRow]
    #: rounds the workload offered (trace events or submitted rounds)
    offered: int
    slo_target_s: float
    #: simulated aggregation CPU-seconds of the measured rounds
    cpu_core_s: float
    #: the engine's own outcome tally (completed/aborted/rejected/shed)
    engine_tally: dict[str, int]
    #: cohort rounds: key -> FedAvg weight the top aggregator emitted
    emitted_weight: dict[str, float] = field(default_factory=dict)
    #: geo: weight shipped over the WAN, and the completed weight of the
    #: rounds served outside the root region
    wan_weight: float | None = None
    nonroot_weight: float | None = None
    #: per-layer values known from the result objects alone
    layer: dict[str, float] = field(default_factory=dict)
    #: the raw engine result (fan-out accounting reads it)
    raw: object = None

    def tally(self) -> dict[str, int]:
        out = {"completed": 0, "aborted": 0, "rejected": 0, "shed": 0}
        for row in self.rows:
            out[row.status] += 1
        return out

    def digest(self) -> str:
        """Hash of every simulated output; identical for one seed."""
        h = hashlib.sha256()
        for row in self.rows:
            h.update(repr(row).encode())
        tail = (
            self.offered,
            self.cpu_core_s,
            sorted(self.engine_tally.items()),
            sorted(self.emitted_weight.items()),
            self.wan_weight,
            self.nonroot_weight,
            sorted((k, v) for k, v in self.layer.items()),
        )
        h.update(repr(tail).encode())
        return h.hexdigest()


def _replay_rows(records) -> list[RoundRow]:
    rows = []
    for rec in records:
        if rec.rejected:
            status = "rejected"
        elif rec.shed:
            status = "shed"
        elif rec.aborted:
            status = "aborted"
        else:
            status = "completed"
        done = status == "completed"
        rows.append(
            RoundRow(
                key=f"t{rec.tenant}r{rec.round_id}",
                status=status,
                deferred=rec.deferred,
                updates=rec.updates,
                weight=math.fsum(w for _, w in rec.participants),
                service=rec.service if done else 0.0,
                latency=rec.latency if done else 0.0,
            )
        )
    return rows


def _slo_tally(tracker) -> dict[str, int]:
    rep = tracker.report()
    return {
        "completed": rep["completed"],
        "aborted": rep["aborted"],
        "rejected": rep["rejected"],
        "shed": rep.get("shed", 0),
    }


# ---------------------------------------------------------------- generators
def stream(seed: int, name: str) -> np.random.Generator:
    """The benchmark's own named stream for ``(seed, name)``."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def diurnal_arrivals(
    rng: np.random.Generator,
    n: int,
    horizon: float,
    period: float,
    amplitude: float,
    phase: float = 0.0,
) -> np.ndarray:
    """``n`` sorted arrival instants with density proportional to
    ``1 + amplitude * sin(2 pi t / period + phase)`` on ``[0, horizon)``.

    A fixed count (an inhomogeneous Poisson process conditioned on its
    count) keeps the offered load equal across seeds, so seeds vary the
    timing but not the amount of work.
    """
    got = np.empty(0)
    while got.size < n:
        cand = rng.uniform(0.0, horizon, size=2 * n)
        rate = 1.0 + amplitude * np.sin(2.0 * math.pi * cand / period + phase)
        keep = rng.uniform(0.0, 1.0 + amplitude, size=2 * n) < rate
        got = np.concatenate([got, cand[keep]])
    return np.sort(got[:n])


def make_trace(per_tenant: list[np.ndarray], horizon: float, source: str) -> Trace:
    events = [
        TraceEvent(at=float(at), tenant=tenant, round_id=rid)
        for tenant, times in enumerate(per_tenant)
        for rid, at in enumerate(times)
    ]
    events.sort(key=lambda e: (e.at, e.tenant, e.round_id))
    trace = Trace(events=events, horizon=horizon, source=source)
    trace.validate()
    return trace


def session_windows(
    rng: np.random.Generator,
    n: int,
    horizon: float,
    mean_session: float,
    mean_gap: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-client alternating online sessions and offline gaps as CSR
    arrays ``(starts, ends, offsets)``: client ``i`` owns the sorted
    windows ``offsets[i]:offsets[i+1]``."""
    m = int(horizon / (mean_session + mean_gap) * 3.0) + 8
    online0 = rng.uniform(size=n) < mean_session / (mean_session + mean_gap)
    while True:
        sessions = rng.exponential(mean_session, size=(n, m))
        gaps = rng.exponential(mean_gap, size=(n, m))
        dur = np.empty((n, 2 * m))
        dur[:, 0::2] = np.where(online0[:, None], sessions, gaps)
        dur[:, 1::2] = np.where(online0[:, None], gaps, sessions)
        b = np.concatenate([np.zeros((n, 1)), np.cumsum(dur, axis=1)], axis=1)
        if (b[:, -1] >= horizon).all():
            break
        m *= 2
    starts = np.where(online0[:, None], b[:, 0 : 2 * m : 2], b[:, 1 : 2 * m : 2])
    ends = np.where(online0[:, None], b[:, 1 : 2 * m + 1 : 2], b[:, 2 : 2 * m + 2 : 2])
    valid = starts < horizon
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(valid.sum(axis=1), out=offsets[1:])
    return starts[valid], np.minimum(ends, horizon)[valid], offsets


def client_traits(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """FedScale-style speed factors (lognormal) and sample counts
    (Pareto, the FedAvg weights)."""
    speeds = rng.lognormal(0.0, SPEED_SIGMA, size=n)
    raw = rng.pareto(SAMPLES_EXPONENT, size=n) + 1.0
    counts = np.maximum(10, raw / raw.mean() * SAMPLES_MEAN).astype(np.int64)
    return speeds, counts


def make_population(
    seed: int, n: int, horizon: float, mean_session: float, mean_gap: float
) -> ClientPopulation:
    speeds, counts = client_traits(stream(seed, "population:traits"), n)
    starts, ends, offsets = session_windows(
        stream(seed, "population:windows"), n, horizon, mean_session, mean_gap
    )
    return ClientPopulation(
        spec=model_spec("resnet18"),
        prefix="mobile",
        speed_factors=speeds,
        num_samples=counts,
        hibernate_max=HIBERNATE_MAX_S,
        win_start=starts,
        win_end=ends,
        win_offsets=offsets,
        horizon=horizon,
    )


# ------------------------------------------------------------ serve-diurnal
@dataclass
class ServeInputs:
    trace: Trace
    availability: AvailabilityTrace
    clients: list[FLClient]
    weights: dict[str, float]
    nodes: int
    seed: int


class ServeDiurnal:
    """LIFL on one 8-node fleet serving four tenants' diurnal round
    arrivals, availability-aware selection over client objects."""

    name = "serve-diurnal"
    why = (
        "many small rounds: per-round control, selection and availability "
        "lookups dominate; kernel and fabric work is a small share"
    )
    SIZES = {
        "full": dict(tenants=4, rounds=236, horizon=3600.0, clients=2000, nodes=8),
        "tiny": dict(tenants=2, rounds=8, horizon=300.0, clients=60, nodes=4),
    }
    ROUND_UPDATES = 8
    SLO_S = 6.0

    def generate(self, seed: int, size: str = "full") -> ServeInputs:
        p = self.SIZES[size]
        horizon = p["horizon"]
        rng = stream(seed, "serve:arrivals")
        arrivals = [
            diurnal_arrivals(rng, p["rounds"], horizon, period=horizon / 2, amplitude=0.9)
            for _ in range(p["tenants"])
        ]
        trace = make_trace(arrivals, horizon, "serve-diurnal")
        n = p["clients"]
        speeds, counts = client_traits(stream(seed, "serve:traits"), n)
        starts, ends, offsets = session_windows(
            stream(seed, "serve:windows"), n, horizon, 150.0, 70.0
        )
        spec = model_spec("resnet18")
        ids = [f"mobile-{i:04d}" for i in range(n)]
        clients = [
            FLClient(
                ClientConfig(
                    client_id=cid,
                    speed_factor=float(speeds[i]),
                    hibernate_max=HIBERNATE_MAX_S,
                ),
                spec,
            )
            for i, cid in enumerate(ids)
        ]
        ws, we = starts.tolist(), ends.tolist()
        windows = {
            cid: tuple(zip(ws[offsets[i] : offsets[i + 1]], we[offsets[i] : offsets[i + 1]]))
            for i, cid in enumerate(ids)
        }
        return ServeInputs(
            trace=trace,
            availability=AvailabilityTrace(horizon=horizon, windows=windows),
            clients=clients,
            weights={cid: float(counts[i]) for i, cid in enumerate(ids)},
            nodes=p["nodes"],
            seed=seed,
        )

    def build(self, inputs: ServeInputs) -> TraceReplayEngine:
        platform = AggregationPlatform(
            PlatformConfig.lifl(),
            node_names=[f"node{i}" for i in range(inputs.nodes)],
        )
        return TraceReplayEngine(
            platform,
            inputs.trace,
            ReplayConfig(
                round_updates=self.ROUND_UPDATES,
                nbytes=RESNET18_BYTES,
                max_inflight=1,
                queue_limit=4,
                slo_target_s=self.SLO_S,
                track_cost=True,
            ),
            availability=inputs.availability,
            weights=inputs.weights,
            selector=Selector(
                SelectorConfig(aggregation_goal=self.ROUND_UPDATES, over_provision=1.0)
            ),
            clients=inputs.clients,
            seed=inputs.seed,
        )

    def run(self, job: TraceReplayEngine, inline: bool = False) -> Outcome:
        result = job.run()
        return Outcome(
            rows=_replay_rows(result.records),
            offered=len(job.trace.events),
            slo_target_s=self.SLO_S,
            cpu_core_s=result.cost_cpu_s,
            engine_tally=_slo_tally(result.slo),
            raw=result,
        )


# --------------------------------------------------------------- cohort-100k
@dataclass
class CohortInputs:
    population: ClientPopulation
    rounds: list[list[tuple[float, float]]]
    nodes: int


def _cohort_platform(nodes: tuple[str, ...]) -> AggregationPlatform:
    cfg = PlatformConfig.lifl(ingress_stage="gateway-coalesced")
    return AggregationPlatform(cfg, node_names=list(nodes))


class Cohort100k:
    """LIFL with coalesced gateway ingress on 500 nodes: a 100k-client
    population supplies 10k participants to each of one warm and three
    measured rounds, run back to back in one process."""

    name = "cohort-100k"
    why = (
        "a few huge rounds: event kernel, aggregators and fabric dominate; "
        "selection and per-round overhead barely register"
    )
    SIZES = {
        "full": dict(clients=100_000, participants=10_000, nodes=500, rounds=4),
        "tiny": dict(clients=2_000, participants=200, nodes=10, rounds=2),
    }
    #: the first round stocks the warm pool and is not measured
    WARM_ROUNDS = 1
    ROUND_GAP_S = 60.0
    SLO_S = 300.0

    def generate(self, seed: int, size: str = "full") -> CohortInputs:
        p = self.SIZES[size]
        horizon = p["rounds"] * self.ROUND_GAP_S
        population = make_population(seed, p["clients"], horizon, 240.0, 120.0)
        selector = Selector(
            SelectorConfig(aggregation_goal=p["participants"], over_provision=1.0)
        )
        rounds = []
        for r in range(p["rounds"]):
            rng = stream(seed, f"cohort:round{r}")
            mask = population.available_mask(r * self.ROUND_GAP_S)
            picked = selector.select_population(population, rng, mask)
            offsets = population.hibernations(rng, picked) + population.training_durations(
                rng, picked
            )
            weights = population.weights(picked)
            rounds.append([(float(o), float(w)) for o, w in zip(offsets, weights)])
        return CohortInputs(population=population, rounds=rounds, nodes=p["nodes"])

    def build(self, inputs: CohortInputs):
        nodes = tuple(f"node{i:03d}" for i in range(inputs.nodes))
        return PartitionedRoundEngine(partial(_cohort_platform, nodes), shards=1), inputs.rounds

    def run(self, job, inline: bool = False) -> Outcome:
        engine, rounds = job
        result = engine.run(rounds, RESNET18_BYTES, inline=inline)
        rows = []
        emitted = {}
        cpu = 0.0
        for r, (res, arrivals) in enumerate(zip(result.results, rounds)):
            measured = r >= self.WARM_ROUNDS
            key = f"c{r}"
            emitted[key] = res.total_weight
            if measured:
                cpu += res.cpu_total
            rows.append(
                RoundRow(
                    key=key,
                    status="aborted" if res.aborted else "completed",
                    deferred=False,
                    updates=res.updates_aggregated,
                    weight=math.fsum(w for _, w in arrivals),
                    service=res.act,
                    # back-to-back rounds queue for nothing: latency = ACT
                    latency=res.act,
                    measured=measured,
                )
            )
        return Outcome(
            rows=rows,
            offered=len(rounds),
            slo_target_s=self.SLO_S,
            cpu_core_s=cpu,
            engine_tally={
                "completed": sum(1 for r in result.results if not r.aborted),
                "aborted": sum(1 for r in result.results if r.aborted),
                "rejected": 0,
                "shed": 0,
            },
            emitted_weight=emitted,
            raw=result,
        )


# ------------------------------------------------------------- geo-composed
REGIONS = ("us", "eu", "ap")
#: asymmetric WAN: the two directions of a pair differ in latency and
#: capacity (bytes/s)
WAN_LINKS = (
    WanLink("eu", "us", latency_s=0.045, capacity_bps=1.0e8),
    WanLink("us", "eu", latency_s=0.040, capacity_bps=1.25e8),
    WanLink("ap", "us", latency_s=0.090, capacity_bps=6.0e7),
    WanLink("us", "ap", latency_s=0.085, capacity_bps=8.0e7),
    WanLink("ap", "eu", latency_s=0.120, capacity_bps=5.0e7),
    WanLink("eu", "ap", latency_s=0.110, capacity_bps=5.0e7),
)
PARTITIONED_REGION = "eu"


@dataclass
class GeoInputs:
    trace: Trace
    population: ClientPopulation
    nodes: int
    seed: int


def _geo_platform(nodes: int, region: str) -> AggregationPlatform:
    return AggregationPlatform(
        PlatformConfig.sl_h(),
        node_names=[f"{region}-node{i}" for i in range(nodes)],
    )


@dataclass
class GeoJob:
    engine: GeoReplayEngine
    recorder: RecordingSubscriber


class GeoComposed:
    """A three-region follow-the-sun federation on the SL-H stack:
    population selection, the reactive controller with deferral, a
    partition that severs one region for the middle third, telemetry
    subscribed in memory, regions forked over two workers."""

    name = "geo-composed"
    why = (
        "every layer at once: fan-out and merge, WAN, controller, chaos "
        "failover and telemetry, with admission on its deferral path"
    )
    SIZES = {
        "full": dict(tenants=6, rounds=156, horizon=1800.0, clients=20_000, nodes=6),
        "tiny": dict(tenants=3, rounds=6, horizon=240.0, clients=500, nodes=3),
    }
    ROUND_UPDATES = 16
    SLO_S = 30.0
    WORKERS = 2

    def generate(self, seed: int, size: str = "full") -> GeoInputs:
        p = self.SIZES[size]
        horizon = p["horizon"]
        rng = stream(seed, "geo:arrivals")
        # follow the sun: a tenant's peak is shifted by its home region
        arrivals = [
            diurnal_arrivals(
                rng,
                p["rounds"],
                horizon,
                period=horizon,
                amplitude=0.7,
                phase=-2.0 * math.pi * (t % len(REGIONS)) / len(REGIONS),
            )
            for t in range(p["tenants"])
        ]
        return GeoInputs(
            trace=make_trace(arrivals, horizon, "geo-composed"),
            population=make_population(seed, p["clients"], horizon, 240.0, 120.0),
            nodes=p["nodes"],
            seed=seed,
        )

    def build(self, inputs: GeoInputs) -> GeoJob:
        horizon = inputs.trace.horizon
        topology = RegionTopology(
            REGIONS,
            links=WAN_LINKS,
            fallbacks={r: REGIONS[(i + 1) % len(REGIONS)] for i, r in enumerate(REGIONS)},
            root=REGIONS[0],
        )
        bus = TelemetryBus()
        recorder = RecordingSubscriber(bus)
        engine = GeoReplayEngine(
            topology,
            partial(_geo_platform, inputs.nodes),
            inputs.trace,
            ReplayConfig(
                round_updates=self.ROUND_UPDATES,
                nbytes=RESNET18_BYTES,
                max_inflight=1,
                queue_limit=2,
                slo_target_s=self.SLO_S,
                arrival_spread_s=4.0,
                track_cost=True,
            ),
            selector=Selector(
                SelectorConfig(aggregation_goal=self.ROUND_UPDATES, over_provision=1.0)
            ),
            seed=inputs.seed,
            population=inputs.population,
            controller=ControllerConfig(limit_max=2, defer_deadline_s=8.0),
            fault_plan=FaultPlan(
                partitions=(
                    PartitionWindow(
                        nodes=(PARTITIONED_REGION,), start=horizon / 3, end=2 * horizon / 3
                    ),
                )
            ),
            workers=self.WORKERS,
            telemetry=bus,
        )
        return GeoJob(engine=engine, recorder=recorder)

    def run(self, job: GeoJob, inline: bool = False) -> Outcome:
        result = job.engine.run(inline=inline)
        merged = result.merged
        root = job.engine.topology.root
        nonroot = math.fsum(
            w
            for rep in result.regions
            if rep.region != root
            for rec in rep.result.records
            if not (rec.aborted or rec.rejected or rec.shed)
            for _, w in rec.participants
        )
        ctl = merged.controller
        layer = {
            "controlplane.ticks": ctl.ticks if ctl else 0,
            "controlplane.actions": sum(ctl.counts.values()) if ctl else 0,
            "chaos.partition_windows": len(result.route.episodes),
            "geo.wan_flows": len(result.shipments),
            "geo.wan_bytes": math.fsum(s.nbytes for s in result.shipments),
            "geo.wan_weight": math.fsum(s.weight for s in result.shipments),
            "geo.failover_rounds": result.route.failover_rounds,
            "telemetry.records": len(job.recorder.records),
        }
        return Outcome(
            rows=_replay_rows(merged.records),
            offered=len(job.engine.trace.events),
            slo_target_s=self.SLO_S,
            cpu_core_s=merged.cost_cpu_s,
            engine_tally=_slo_tally(merged.slo),
            wan_weight=layer["geo.wan_weight"],
            nonroot_weight=nonroot,
            layer=layer,
            raw=result,
        )


WORKLOADS = {w.name: w for w in (ServeDiurnal(), Cohort100k(), GeoComposed())}
