"""Stages of the round engine.

The round engine composes its behaviour from three stage kinds, mirroring
how :mod:`repro.dataplane.pipelines` composes hop sequences:

* :class:`IngressStage` — how client updates enter a node: the
  serialization costs of the ingress and consumer-side paths, the admission
  resources (per-node gateways vs a shared broker), and the reserved-CPU
  tax of the stateful ingress components.  Ingress is the one pluggable
  stage: :data:`INGRESS_STAGES` holds the variants, and
  ``PlatformConfig.ingress_stage`` selects one by name (empty derives it
  from the pipeline) without touching :mod:`repro.core.roundsim`;
* :func:`transfer_costs` — how intermediate updates move between
  aggregators: intra-node and inter-node (tx/rx split) latency and CPU,
  from the calibrated pipelines of the config's data plane;
* :class:`InstanceLifecycle` — when aggregator instances come into
  existence and come back: cold starts, reactive-scaling ramp admission,
  warm reuse, in-round role conversion and stateless restart after a
  crash (owns the cross-round warm pool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.registry import Registry
from repro.core.platform import PlatformConfig
from repro.core.updates import SimUpdate
from repro.dataplane.calibration import DataplaneCalibration
from repro.dataplane.gateway import VerticalScaler
from repro.dataplane.pipelines import (
    PipelineKind,
    inter_node_pipeline,
    intra_node_pipeline,
)
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource

# --------------------------------------------------------------------- ingress
@dataclass(frozen=True)
class IngressCosts:
    """Serialization costs of one update entering via this ingress."""

    ingress_latency: float
    ingress_cpu: float
    #: consumer-side cost of the aggregator pulling the update in
    recv_latency: float
    recv_cpu: float


class IngressStage:
    """How client updates enter a node (Fig. 5's ingress designs)."""

    name = "base"

    def costs(
        self, cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
    ) -> IngressCosts:
        raise NotImplementedError

    def build_resources(
        self,
        env: Environment,
        cfg: PlatformConfig,
        cal: DataplaneCalibration,
        node_names: list[str],
        updates: list[SimUpdate],
        nbytes: float,
        arrival_span: float | None = None,
    ) -> dict[str, Resource]:
        """Admission resources, keyed by node (entries may be shared).

        ``arrival_span`` overrides the load-window the stage would compute
        from ``updates`` — a partitioned round hands each cohort the *full*
        round's span so per-shard scaling matches the unpartitioned model.
        """
        raise NotImplementedError

    def install_arrivals(
        self,
        env: Environment,
        updates: list[SimUpdate],
        spawn: Callable[[SimUpdate, float], object],
    ) -> dict[int, object]:
        """Start the per-update ingress work; returns uid → process.

        ``spawn(update, delay)`` starts one update's ingress process after
        ``delay`` seconds and returns it.  The default is one scheduler
        entry per update — exactly the engine's historical behaviour.
        Stages may coalesce instead (see :class:`CoalescedGatewayIngress`);
        a coalescing stage fills the returned dict lazily, as arrivals
        actually fire.
        """
        procs: dict[int, object] = {}
        for update in updates:
            procs[update.uid] = spawn(update, update.arrival_time)
        return procs

    def reserved_cpu(
        self, cfg: PlatformConfig, duration: float, nodes_used: int
    ) -> float:
        """Reserved-but-idle allocation of the stage's stateful components."""
        return 0.0


INGRESS_STAGES: Registry[Callable[[], IngressStage]] = Registry("ingress stage")


@INGRESS_STAGES.register("gateway")
class GatewayIngress(IngressStage):
    """LIFL: per-node gateway writing into shared memory, vertically scaled
    to the node's offered load (§4.2)."""

    name = "gateway"

    def costs(
        self, cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
    ) -> IngressCosts:
        return IngressCosts(
            ingress_latency=(cal.gateway_rx_lat_per_byte + cal.shm_write_lat_per_byte)
            * nbytes,
            ingress_cpu=(cal.gateway_rx_cpu_per_byte + cal.shm_write_cpu_per_byte)
            * nbytes,
            recv_latency=cal.shm_read_lat_per_byte * nbytes + cal.skmsg_fixed_lat,
            recv_cpu=cal.shm_read_cpu_per_byte * nbytes + cal.skmsg_fixed_cpu,
        )

    def build_resources(
        self,
        env: Environment,
        cfg: PlatformConfig,
        cal: DataplaneCalibration,
        node_names: list[str],
        updates: list[SimUpdate],
        nbytes: float,
        arrival_span: float | None = None,
    ) -> dict[str, Resource]:
        span = (
            arrival_span
            if arrival_span is not None
            else max(u.arrival_time for u in updates) - min(u.arrival_time for u in updates)
        )
        scaler = VerticalScaler(cal, max_cores=cfg.gateway_max_cores)
        per_node_updates: dict[str, int] = {}
        for u in updates:
            per_node_updates[u.node] = per_node_updates.get(u.node, 0) + 1
        out: dict[str, Resource] = {}
        for name in node_names:
            n_up = per_node_updates.get(name, 0)
            rate_bps = n_up * nbytes / max(span, 1.0)
            out[name] = Resource(env, capacity=scaler.cores_for_load(rate_bps))
        return out

    def reserved_cpu(
        self, cfg: PlatformConfig, duration: float, nodes_used: int
    ) -> float:
        return cfg.gateway_reserved_cores * duration * nodes_used


@INGRESS_STAGES.register("gateway-coalesced")
class CoalescedGatewayIngress(GatewayIngress):
    """Gateway ingress with batched arrival coalescing (stress scale).

    Identical physics to :class:`GatewayIngress`, but instead of one
    pending scheduler entry per update arrival, a single walker process
    sweeps the arrivals in time order and spawns each update's ingress
    work as its arrival instant is reached — the event heap holds one
    arrival timer at a time instead of one per not-yet-arrived update, and
    a batch of same-instant arrivals is woken by one heap entry.  The cost
    is tie-break order among *exactly simultaneous* events, so the stage
    is opt-in (``ingress_stage="gateway-coalesced"``) rather than the
    gateway default; the million-client scenarios select it.
    """

    name = "gateway-coalesced"

    def install_arrivals(
        self,
        env: Environment,
        updates: list[SimUpdate],
        spawn: Callable[[SimUpdate, float], object],
    ) -> dict[int, object]:
        procs: dict[int, object] = {}
        ordered = sorted(updates, key=lambda u: (u.arrival_time, u.uid))
        start = env.now

        def walker():
            for update in ordered:
                wait = start + update.arrival_time - env.now
                if wait > 0:
                    yield env.timeout(wait)
                procs[update.uid] = spawn(update, 0.0)

        env.process(walker(), name="ingress:coalesce")
        return procs


class _BrokerIngress(IngressStage):
    """Shared stateful broker in front of every node (SF/SL)."""

    def build_resources(
        self,
        env: Environment,
        cfg: PlatformConfig,
        cal: DataplaneCalibration,
        node_names: list[str],
        updates: list[SimUpdate],
        nbytes: float,
        arrival_span: float | None = None,
    ) -> dict[str, Resource]:
        shared = Resource(env, capacity=cfg.broker_cores)
        return {name: shared for name in node_names}


@INGRESS_STAGES.register("broker-sf")
class ServerfulBrokerIngress(_BrokerIngress):
    """SF: broker queue + gRPC/deserialize consumer path (Fig. 5
    "Microservice")."""

    name = "broker-sf"

    def costs(
        self, cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
    ) -> IngressCosts:
        return IngressCosts(
            ingress_latency=cal.queuing_sf_broker_lat_per_byte * nbytes
            + cal.broker_fixed_lat,
            ingress_cpu=cal.queuing_sf_broker_cpu_per_byte * nbytes
            + cal.broker_fixed_cpu,
            recv_latency=(
                cal.kernel_wire_side_lat_per_byte
                + cal.deserialize_lat_per_byte
                + cal.grpc_lat_per_byte
            )
            * nbytes
            + cal.kernel_fixed_lat,
            recv_cpu=(
                cal.kernel_wire_side_cpu_per_byte
                + cal.deserialize_cpu_per_byte
                + cal.grpc_cpu_per_byte
            )
            * nbytes
            + cal.kernel_fixed_cpu,
        )


@INGRESS_STAGES.register("broker-sl")
class ServerlessBrokerIngress(_BrokerIngress):
    """SL: broker queue + container-sidecar consumer path (Fig. 5 "Basic
    serverless")."""

    name = "broker-sl"

    def costs(
        self, cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
    ) -> IngressCosts:
        return IngressCosts(
            ingress_latency=cal.queuing_broker_lat_per_byte * nbytes
            + cal.broker_fixed_lat,
            ingress_cpu=cal.queuing_broker_cpu_per_byte * nbytes
            + cal.broker_fixed_cpu,
            recv_latency=(
                cal.kernel_wire_side_lat_per_byte
                + cal.sidecar_lat_per_byte
                + cal.deserialize_lat_per_byte
            )
            * nbytes
            + cal.sidecar_fixed_lat,
            recv_cpu=(
                cal.kernel_wire_side_cpu_per_byte
                + cal.sidecar_cpu_per_byte
                + cal.deserialize_cpu_per_byte
            )
            * nbytes
            + cal.sidecar_fixed_cpu,
        )


#: the paper's ingress per data plane: LIFL's per-node gateways, the
#: shared broker in front of SF's gRPC and SL's sidecar consumers
_PIPELINE_INGRESS = {
    PipelineKind.LIFL: "gateway",
    PipelineKind.SERVERFUL: "broker-sf",
    PipelineKind.SERVERLESS: "broker-sl",
}


def resolve_ingress(cfg: PlatformConfig) -> IngressStage:
    """Pick the ingress stage for a config: an explicit ``ingress_stage``
    key wins; otherwise the paper's ingress for ``cfg.pipeline``."""
    return INGRESS_STAGES.get(cfg.ingress_stage or _PIPELINE_INGRESS[cfg.pipeline])()


# -------------------------------------------------------------------- transfer
@dataclass(frozen=True)
class TransferCosts:
    """Aggregator→aggregator hop costs for one update size."""

    intra_latency: float
    intra_cpu: float
    inter_tx_latency: float
    inter_tx_cpu: float
    inter_rx_latency: float
    inter_rx_cpu: float


def transfer_costs(
    cfg: PlatformConfig, cal: DataplaneCalibration, nbytes: float
) -> TransferCosts:
    """Hop costs from the calibrated dataplane pipelines of ``cfg.pipeline``."""
    intra = intra_node_pipeline(cfg.pipeline, cal).cost(nbytes)
    inter = inter_node_pipeline(cfg.pipeline, cal, include_wire=False).cost(nbytes)
    # Split the inter-node pipeline at the wire: hops before it are
    # tx-side, after it rx-side.  The split is symmetric enough that
    # halving the latency/cpu by group keeps totals exact.
    inter_tx_lat = inter.latency / 2
    inter_tx_cpu = inter.cpu_seconds / 2
    return TransferCosts(
        intra_latency=intra.latency,
        intra_cpu=intra.cpu_seconds,
        inter_tx_latency=inter_tx_lat,
        inter_tx_cpu=inter_tx_cpu,
        inter_rx_latency=inter.latency - inter_tx_lat,
        inter_rx_cpu=inter.cpu_seconds - inter_tx_cpu,
    )


# ------------------------------------------------------------------- lifecycle
@dataclass
class WarmState:
    """Cross-round warm-runtime pool: node → idle warm instance count."""

    idle: dict[str, int] = field(default_factory=dict)

    def take(self, node: str) -> bool:
        n = self.idle.get(node, 0)
        if n > 0:
            self.idle[node] = n - 1
            return True
        return False

    def put(self, node: str, count: int = 1) -> None:
        self.idle[node] = self.idle.get(node, 0) + count

    def total(self) -> int:
        return sum(self.idle.values())


@dataclass
class RoundAdmission:
    """Per-round ramp-admission context.

    ``begin_round`` hands one of these to the installing round; every
    ``ensure_created`` call of that round carries it back.  Keeping the
    ramp counters *per round* (rather than on the engine-lifetime stage)
    makes reactive admission correct for rounds admitted mid-replay: the
    k-th instance on a node is admitted ``k`` ramp periods after *this
    round's* start, and overlapping installed rounds no longer share (and
    clobber) one global counter set.
    """

    round_start: float = 0.0
    created_per_node: dict[str, int] = field(default_factory=dict)


class InstanceLifecycle:
    """When aggregator instances come into existence, and come back.

    The paper's instance-creation policy: warm-pool reuse and in-round
    role conversion (§5.3) plus the reactive autoscaler's stepwise ramp
    admission (§2.3) for configs with ``ramp_delay > 0``, and the §3
    failure recovery — stateless aggregators restart without state
    synchronization.

    The lifecycle is engine-lifetime: it keeps cross-round state (the warm
    pool).  The engine calls :meth:`begin_round` before creating instances
    (receiving a per-round :class:`RoundAdmission` context),
    :meth:`ensure_created` whenever an instance must exist (prewarm or
    first delivery), and :meth:`end_round` after the round settles; the
    fault injector calls :meth:`restart_instance` for each crash.  The
    per-round restart counters record how recovery was funded.
    """

    def __init__(self) -> None:
        self.warm = WarmState()
        self.restarts = 0
        self.warm_restarts = 0
        self.cold_restarts = 0

    def begin_round(self, round_start: float = 0.0) -> RoundAdmission:
        self.restarts = 0
        self.warm_restarts = 0
        self.cold_restarts = 0
        return RoundAdmission(round_start=round_start)

    def ensure_created(
        self,
        inst,  # AggregatorInstance; untyped to keep the stage import-light
        env: Environment,
        cfg: PlatformConfig,
        finished_on_node: dict[str, int],
        admission: RoundAdmission | None = None,
    ) -> None:
        if inst._created:  # noqa: SLF001 - engine owns the instance
            return
        reused = cfg.reuse and self.warm.take(inst.node)
        if not reused and cfg.reuse:
            # In-round role conversion (§5.3): a finished local
            # aggregator converts to this higher role with no restart.
            if finished_on_node.get(inst.node, 0) > 0:
                finished_on_node[inst.node] -= 1
                reused = True
        if not reused and cfg.ramp_delay > 0:
            # Reactive autoscaler ramp: the k-th instance on a node is
            # only admitted k ramp periods after *round* start (§2.3's
            # reactive scaling; models Knative's stepwise scale-up).  The
            # round start lives in the admission context, so rounds
            # admitted mid-replay ramp from their own install instant.
            ctx = admission if admission is not None else RoundAdmission()
            k = ctx.created_per_node.get(inst.node, 0)
            ctx.created_per_node[inst.node] = k + 1
            delay = max(0.0, ctx.round_start + k * cfg.ramp_delay - env.now)
            if delay > 0:

                def later(_: Event, inst=inst, reused=reused) -> None:
                    inst.ensure_created(reused=reused)

                env.timeout(delay).callbacks.append(later)
                return
        inst.ensure_created(reused=reused)

    def end_round(self, cfg: PlatformConfig, instances_per_node: dict[str, int]) -> None:
        if cfg.reuse:
            for node, count in instances_per_node.items():
                self.warm.put(node, count)

    def restart_instance(self, inst, env: Environment, cfg: PlatformConfig) -> None:
        """Bring a crashed instance back.  A restart prefers the warm pool
        (an idle warm runtime takes over the crashed instance's mailbox
        instantly); otherwise the replacement pays a cold start."""
        self.restarts += 1
        reused = cfg.reuse and self.warm.take(inst.node)
        if reused:
            self.warm_restarts += 1
            inst.restart(0.0, reused=True)
        else:
            self.cold_restarts += 1
            inst.restart(
                cfg.cold_start_latency, reused=False, startup_cpu=cfg.cold_start_cpu
            )
