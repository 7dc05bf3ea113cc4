"""The traced run: a deterministic profiler plus span wrappers.

:class:`Tracer` installs ``cProfile`` and wraps the simulator's public
layer entry points at class level, recording one span (name, start, end,
parent) per call in flat in-memory arrays.  ``uninstall`` restores the
originals; ``write`` saves the spans when the benchmark ends.

Self time comes from the profiler and is attributed to ``repro.<module>``
by source path.  Time in code outside ``repro`` (builtins, numpy, the
standard library) goes to the module that called it, split by the
caller's share of that function's self time; the span wrappers' own cost
is reported as ``bench``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pickle
import pstats
import time
from array import array
from pathlib import Path

import numpy as np

import repro
from repro.cluster.network import Fabric, ProcessorSharingLink
from repro.common.rng import make_rng
from repro.core.platform import AggregationPlatform
from repro.core.policies import SelectionPolicy
from repro.core.roundsim import RoundEngine
from repro.perf.counters import EngineCounters
from repro.telemetry.bus import TelemetryBus
from repro.traces.models import AvailabilityTrace
from repro.traces.slo import SloTracker

#: self-time labels: every ``repro`` subpackage, the benchmark's own
#: wrappers, and anything no ``repro`` frame called
MODULES = (
    "sim",
    "cluster",
    "core",
    "dataplane",
    "controlplane",
    "fl",
    "traces",
    "geo",
    "chaos",
    "telemetry",
    "common",
    "perf",
    "workloads",
    "runtime",
    "scenarios",
    "experiments",
    "bench",
    "other",
)

#: per-layer metrics in report order: (name, unit, better)
PER_LAYER: list[tuple[str, str, str]] = [
    ("sim.events", "count", "lower"),
    ("sim.heap_pushes", "count", "lower"),
    ("sim.heap_pops", "count", "lower"),
    ("sim.dead_timer_skips", "count", "lower"),
    ("sim.timers_cancelled", "count", "lower"),
    ("sim.immediate_reuses", "count", "higher"),
    ("sim.peak_queue_depth", "count", "lower"),
    ("sim.dead_skip_ratio", "ratio", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("cluster.transfers", "count", "lower"),
    ("cluster.ps_transfers", "count", "lower"),
    ("cluster.bytes", "B", "lower"),
    ("cluster.rate_changes", "count", "lower"),
    ("core.prepare_round.calls", "count", "lower"),
    ("core.prepare_round.s", "s", "lower"),
    ("core.install_round.calls", "count", "lower"),
    ("core.install_round.s", "s", "lower"),
    ("core.finish_round.calls", "count", "lower"),
    ("core.aggregators_created", "count", "lower"),
    ("core.aggregators_reused", "count", "higher"),
    ("core.reuse_ratio", "ratio", "higher"),
    ("core.cross_node_transfers", "count", "lower"),
    ("fl.select.calls", "count", "lower"),
    ("fl.select.s", "s", "lower"),
    ("traces.is_available.calls", "count", "lower"),
    ("rng.make_rng.calls", "count", "lower"),
    ("traces.slo.observe.calls", "count", "higher"),
    ("traces.deferred", "count", "lower"),
    ("traces.shed", "count", "lower"),
    ("traces.gen_s", "s", "lower"),
    ("controlplane.ticks", "count", "lower"),
    ("controlplane.actions", "count", "lower"),
    ("chaos.partition_windows", "count", "lower"),
    ("geo.wan_flows", "count", "lower"),
    ("geo.wan_bytes", "B", "lower"),
    ("geo.wan_weight", "weight", "higher"),
    ("geo.failover_rounds", "count", "lower"),
    ("fanout.workers", "count", "lower"),
    ("fanout.critical_path_s", "s", "lower"),
    ("fanout.worker_cpu_s", "s", "lower"),
    ("fanout.imbalance", "ratio", "lower"),
    ("fanout.overhead_s", "s", "lower"),
    ("fanout.payload_bytes", "B", "lower"),
    ("telemetry.records", "count", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
] + [
    (f"{module}.{kind}", unit, "lower")
    for module in MODULES
    for kind, unit in (("self_s", "s"), ("self_share", "ratio"))
]

_SIM_FIELDS = {
    "sim.events": "events_processed",
    "sim.heap_pushes": "heap_pushes",
    "sim.heap_pops": "heap_pops",
    "sim.dead_timer_skips": "dead_timer_skips",
    "sim.timers_cancelled": "timers_cancelled",
    "sim.immediate_reuses": "immediate_reuses",
    "sim.peak_queue_depth": "peak_queue_depth",
}

#: functions counted by the profiler instead of a wrapper: ``make_rng`` is
#: imported by name into its callers, and the link methods are too hot to
#: wrap without distorting the split
_PROFILED_CALLS = {
    "rng.make_rng.calls": make_rng.__code__,
    "cluster.ps_transfers": ProcessorSharingLink.transfer.__code__,
    "cluster.rate_changes": ProcessorSharingLink.set_rate_factor.__code__,
}

_BENCH_DIR = str(Path(__file__).resolve().parent) + os.sep
_REPRO_DIR = str(Path(repro.__file__).resolve().parent) + os.sep


def _selection_classes() -> list[type]:
    out, todo = [], [SelectionPolicy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "select" in cls.__dict__ and cls is not SelectionPolicy:
            out.append(cls)
    return sorted(out, key=lambda c: c.__qualname__)


class Tracer:
    """Spans at the layer entry points plus a deterministic profile."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.code = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.fabric_bytes = 0.0
        self.created = 0
        self.reused = 0
        self.cross_node = 0
        self._stack = [-1]
        self._restore: list[tuple[type, str, object]] = []
        self.profile = cProfile.Profile()

    # ----------------------------------------------------------- wrappers
    def _wrap(self, owner: type, attr: str, name: str, on_call=None, on_result=None) -> None:
        orig = owner.__dict__[attr]
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        code_a, parent_a, start_a, end_a = self.code, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start_a)
            code_a.append(code)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(idx)
            if on_call is not None:
                on_call(args, kwargs)
            start_a.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def _on_transfer(self, args, kwargs) -> None:
        src, dst = args[1], args[2]
        nbytes = args[3] if len(args) > 3 else kwargs["nbytes"]
        if src != dst:
            self.fabric_bytes += nbytes

    def _on_finish(self, result) -> None:
        self.created += result.aggregators_created
        self.reused += result.aggregators_reused
        self.cross_node += result.cross_node_transfers

    def install(self) -> None:
        self._wrap(AggregationPlatform, "prepare_round", "prepare_round")
        self._wrap(RoundEngine, "install_round", "install_round")
        self._wrap(RoundEngine, "finish_round", "finish_round", on_result=self._on_finish)
        for cls in _selection_classes():
            self._wrap(cls, "select", "select")
        self._wrap(AvailabilityTrace, "is_available", "is_available")
        self._wrap(Fabric, "transfer", "transfer", on_call=self._on_transfer)
        self._wrap(SloTracker, "observe", "slo.observe")
        self._wrap(TelemetryBus, "emit", "telemetry.emit")
        self.profile.enable()

    def uninstall(self) -> None:
        self.profile.disable()
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ------------------------------------------------------------- results
    def span_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed inclusive seconds)."""
        codes = np.frombuffer(self.code, dtype=np.uint16) if len(self.code) else np.empty(0, int)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start) if len(self.end) else np.empty(0)
        out = {}
        for i, name in enumerate(self.names):
            hit = codes == i
            out[name] = (int(hit.sum()), float(dur[hit].sum()))
        return out

    def write(self, path: Path) -> None:
        """Save the spans: parallel arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                names=np.array(json.dumps(self.names)),
                code=np.frombuffer(self.code, dtype=np.uint16),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                start=np.frombuffer(self.start),
                end=np.frombuffer(self.end),
            )

    def self_time(self) -> dict[str, float]:
        """Profiler self seconds per label in :data:`MODULES`."""
        stats = pstats.Stats(self.profile).stats
        memo: dict[tuple, dict[str, float]] = {}

        def direct(key) -> str | None:
            filename = key[0]
            if filename.startswith(_BENCH_DIR):
                return "bench"
            if not filename.startswith(_REPRO_DIR):
                return None
            module = filename[len(_REPRO_DIR) :].split(os.sep)[0]
            return module if module in MODULES else "other"

        def labels(key, seen: frozenset) -> dict[str, float]:
            own = direct(key)
            if own is not None:
                return {own: 1.0}
            if key in memo:
                return memo[key]
            callers = stats[key][4] if key in stats else {}
            callers = {ck: v for ck, v in callers.items() if ck not in seen}
            if not callers:
                return {"other": 1.0}
            weights = {ck: v[2] for ck, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {ck: v[1] for ck, v in callers.items()}
                total = sum(weights.values()) or 1.0
            dist: dict[str, float] = {}
            for ck, w in weights.items():
                for label, frac in labels(ck, seen | {key}).items():
                    dist[label] = dist.get(label, 0.0) + frac * w / total
            memo[key] = dist
            return dist

        out = dict.fromkeys(MODULES, 0.0)
        for key, (_, _, tt, _, _) in stats.items():
            for label, frac in labels(key, frozenset()).items():
                out[label] += tt * frac
        return out

    def profiled_calls(self) -> dict[str, int]:
        stats = pstats.Stats(self.profile).stats
        out = {}
        for metric, code in _PROFILED_CALLS.items():
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            out[metric] = stats[key][1] if key in stats else 0
        return out


def fanout_metrics(raw, wall_s: float) -> dict[str, float]:
    """Fan-out accounting of a geo result that ran on forked workers:
    workers deal regions round-robin, so worker ``w`` ran regions
    ``w, w + n, ...``; zeros when nothing forked."""
    out = dict.fromkeys(
        (
            "fanout.workers",
            "fanout.critical_path_s",
            "fanout.worker_cpu_s",
            "fanout.imbalance",
            "fanout.overhead_s",
            "fanout.payload_bytes",
        ),
        0.0,
    )
    if not getattr(raw, "forked", False):
        return out
    n = raw.workers
    groups = [raw.regions[w::n] for w in range(n)]
    cpu = [sum(rep.cpu_seconds for rep in group) for group in groups]
    critical = max(cpu)
    out.update(
        {
            "fanout.workers": n,
            "fanout.critical_path_s": critical,
            "fanout.worker_cpu_s": sum(cpu),
            "fanout.imbalance": critical / (sum(cpu) / n) if sum(cpu) > 0 else 0.0,
            "fanout.overhead_s": wall_s - critical,
            "fanout.payload_bytes": sum(
                len(pickle.dumps(("ok", group), protocol=pickle.HIGHEST_PROTOCOL))
                for group in groups
            ),
        }
    )
    return out


def layer_metrics(
    counters: EngineCounters,
    untraced_wall_s: float,
    traced_wall_s: float,
    gen_s: float,
    outcome_layer: dict[str, float],
    outcome_rows,
    fanout: dict[str, float],
    tracer: Tracer,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced invocation."""
    m: dict[str, float] = {name: getattr(counters, f) for name, f in _SIM_FIELDS.items()}
    m["sim.dead_skip_ratio"] = (
        counters.dead_timer_skips / counters.heap_pops if counters.heap_pops else 0.0
    )
    m["sim.host_us_per_event"] = (
        untraced_wall_s * 1e6 / counters.events_processed if counters.events_processed else 0.0
    )
    spans = tracer.span_totals()
    calls = tracer.profiled_calls()
    m["cluster.transfers"] = spans["transfer"][0]
    m["cluster.ps_transfers"] = calls["cluster.ps_transfers"]
    m["cluster.bytes"] = tracer.fabric_bytes
    m["cluster.rate_changes"] = calls["cluster.rate_changes"]
    m["core.prepare_round.calls"], m["core.prepare_round.s"] = spans["prepare_round"]
    m["core.install_round.calls"], m["core.install_round.s"] = spans["install_round"]
    m["core.finish_round.calls"] = spans["finish_round"][0]
    m["core.aggregators_created"] = tracer.created
    m["core.aggregators_reused"] = tracer.reused
    total = tracer.created + tracer.reused
    m["core.reuse_ratio"] = tracer.reused / total if total else 0.0
    m["core.cross_node_transfers"] = tracer.cross_node
    m["fl.select.calls"], m["fl.select.s"] = spans["select"]
    m["traces.is_available.calls"] = spans["is_available"][0]
    m["rng.make_rng.calls"] = calls["rng.make_rng.calls"]
    m["traces.slo.observe.calls"] = spans["slo.observe"][0]
    m["traces.deferred"] = sum(1 for r in outcome_rows if r.deferred)
    m["traces.shed"] = sum(1 for r in outcome_rows if r.status == "shed")
    m["traces.gen_s"] = gen_s
    for name in (
        "controlplane.ticks",
        "controlplane.actions",
        "chaos.partition_windows",
        "geo.wan_flows",
        "geo.wan_bytes",
        "geo.wan_weight",
        "geo.failover_rounds",
        "telemetry.records",
    ):
        m[name] = outcome_layer.get(name, 0)
    m.update(fanout)
    m["bench.trace_overhead_s"] = traced_wall_s - untraced_wall_s
    self_s = tracer.self_time()
    # shares of the simulator's own time leave the span wrappers out;
    # bench.self_share is the wrappers' share of all profiled time
    total = sum(self_s.values())
    simulator = total - self_s["bench"]
    for module in MODULES:
        m[f"{module}.self_s"] = self_s[module]
        base = total if module == "bench" else simulator
        m[f"{module}.self_share"] = self_s[module] / base if base > 0 else 0.0
    return m
