"""Engine benchmarks: micro (kernel primitives) and macro (scenario cells).

The micro-benchmarks time the discrete-event kernel's primitives in
isolation — timer churn, process spawn/finish, processor-sharing link
state changes — in events (or flows) per second.  The macro-benchmarks
are registry scenario cells, wall-clock each, with the engine counters
attached: the ``stress50`` 900-update round, the ``stress500`` 4-tenant
shared-fabric round, the ``trace-diurnal-multitenant`` arrival-driven
serving cell (~209 overlapping rounds from a diurnal trace), and that
same cell sharded across 4 forked workers
(``macro_trace_diurnal_sharded``: measured wall-clock plus the per-shard
CPU critical path — the multi-core floor).

``python -m repro.perf.bench --out BENCH_engine.json --label <label>``
appends one labelled entry to the JSON trajectory so successive PRs can be
compared (see ``benchmarks/README.md``).  The pytest-benchmark suite in
``benchmarks/test_bench_engine.py`` exercises the same functions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

from repro.perf.counters import EngineCounters, collect
from repro.sim.engine import Environment

# --------------------------------------------------------------- micro


def timer_churn(n_timers: int = 20_000) -> Environment:
    """Schedule and drain ``n_timers`` staggered timeouts."""
    env = Environment()
    for i in range(n_timers):
        env.timeout(float(i % 97) * 1e-3)
    env.run()
    return env


def process_churn(n_processes: int = 5_000) -> Environment:
    """Spawn short-lived processes that wait once and finish."""
    env = Environment()

    def worker(delay: float):
        yield env.timeout(delay)

    for i in range(n_processes):
        env.process(worker(float(i % 13) * 1e-3))
    env.run()
    return env


def ps_link_churn(n_flows: int = 2_000) -> Environment:
    """Drive one processor-sharing link through staggered flow arrivals
    (every arrival/completion is a rate change)."""
    from repro.cluster.network import ProcessorSharingLink

    env = Environment()
    link = ProcessorSharingLink(env, capacity_bps=1e6)

    def feeder():
        for i in range(n_flows):
            link.transfer(1000.0 + (i % 29) * 37.0)
            yield env.timeout(0.4e-3)

    env.process(feeder())
    env.run()
    return env


def fabric_churn(n_transfers: int = 1_000, n_nodes: int = 8) -> Environment:
    """Concurrent fabric transfers contending on TX/RX NICs."""
    from repro.cluster.network import Fabric

    env = Environment()
    fabric = Fabric(env, nic_bps=1e6)
    names = [f"n{i}" for i in range(n_nodes)]
    for name in names:
        fabric.register_node(name)

    def sender(i: int):
        src = names[i % n_nodes]
        dst = names[(i * 7 + 1) % n_nodes]
        if src == dst:
            dst = names[(i * 7 + 2) % n_nodes]
        yield env.timeout((i % 11) * 1e-3)
        yield fabric.transfer(src, dst, 5000.0)

    for i in range(n_transfers):
        env.process(sender(i))
    env.run()
    return env


MICRO_BENCHES = {
    "timer_churn": timer_churn,
    "process_churn": process_churn,
    "ps_link_churn": ps_link_churn,
    "fabric_churn": fabric_churn,
}


def run_micro(repeat: int = 3) -> dict:
    """Best-of-``repeat`` events/second for each micro-benchmark."""
    out: dict[str, dict] = {}
    for name, fn in MICRO_BENCHES.items():
        best = None
        events = 0
        for _ in range(repeat):
            t0 = time.perf_counter()
            env = fn()
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
                events = env.events_processed
        out[name] = {
            "seconds": best,
            "events_processed": events,
            "events_per_second": events / best if best else 0.0,
        }
    return out


# --------------------------------------------------------------- macro


def run_macro_stress50(repeat: int = 3, batch: int = 900) -> dict:
    """Wall-clock of one warm+measured stress50 cell per system, plus the
    engine counters of the best run."""
    from repro.experiments.stress50 import run_cell

    out: dict[str, dict] = {}
    for system in ("LIFL", "SL-H"):
        best = None
        counters = EngineCounters()
        for _ in range(repeat):
            with collect() as perf:
                t0 = time.perf_counter()
                run_cell(system, batch)
                dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
                counters = perf.counters()
        out[system] = {
            "seconds": best,
            "batch": batch,
            "counters": counters.as_dict(),
        }
    return out


def run_macro_stress500(repeat: int = 3, tenants: int = 4) -> dict:
    """Wall-clock of one warm+measured ``stress500-multitenant`` cell per
    system (``tenants`` concurrent 300-update rounds on 500 shared-fabric
    nodes), plus the engine counters of the best run."""
    from repro.experiments.stress500 import run_cell

    out: dict[str, dict] = {}
    for system in ("LIFL", "SL-H"):
        best = None
        counters = EngineCounters()
        for _ in range(repeat):
            with collect() as perf:
                t0 = time.perf_counter()
                run_cell(system, tenants)
                dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
                counters = perf.counters()
        out[system] = {
            "seconds": best,
            "tenants": tenants,
            "counters": counters.as_dict(),
        }
    return out


def run_macro_trace_diurnal(repeat: int = 3) -> dict:
    """Wall-clock of one ``trace-diurnal-multitenant`` cell per system —
    the arrival-driven serving loop's trajectory: ~225 overlapping rounds
    across 4 tenants admitted from a diurnal trace with availability-aware
    sampling — plus the engine counters and SLO shape of the best run."""
    from repro.experiments.trace_scenarios import run_diurnal_cell

    out: dict[str, dict] = {}
    for system in ("LIFL", "SL-H"):
        best = None
        counters = EngineCounters()
        row: dict = {}
        for _ in range(repeat):
            with collect() as perf:
                t0 = time.perf_counter()
                cell = run_diurnal_cell(system, seed=1)
                dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
                counters = perf.counters()
                row = cell
        out[system] = {
            "seconds": best,
            "rounds": row.get("rounds", 0),
            "peak_inflight": row.get("peak_inflight", 0),
            "latency_p95_s": row.get("latency_p95_s", 0.0),
            "slo_attainment": row.get("slo_attainment", 0.0),
            "counters": counters.as_dict(),
        }
    return out


def run_macro_trace_diurnal_sharded(repeat: int = 3, shards: int = 4) -> dict:
    """Wall-clock of the ``trace-diurnal-multitenant`` cell unsharded vs
    sharded across ``shards`` forked workers (tenant-affine partition,
    merged SLO digests).

    Reports the honest numbers for *this* host: ``sharded_seconds`` /
    ``measured_speedup`` time ``run(shards=N)`` under the engine's
    default worker policy (min(shards, CPUs) — a single-CPU host degrades
    to inline shards, so this hovers near 1× there and tracks the fork
    fan-out on multi-core hosts), ``forked_seconds`` times the forced
    full fan-out, and ``critical_path_seconds`` — the slowest shard's CPU
    time, measured inside the worker and immune to timeslicing — is the
    wall-clock floor a host with ``shards`` free cores reaches;
    ``critical_path_speedup`` is the sequential wall over that floor.
    ``host_cpus`` records which regime the measurement ran in.
    """
    from repro.common.fanout import available_cpus
    from repro.experiments.trace_scenarios import _diurnal_replay

    out: dict[str, dict] = {"host_cpus": available_cpus(), "shards": shards}
    for system in ("LIFL", "SL-H"):
        best_seq = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            _diurnal_replay(system, seed=1).run()
            dt = time.perf_counter() - t0
            if best_seq is None or dt < best_seq:
                best_seq = dt
        best_sharded = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            _diurnal_replay(system, seed=1).run(shards=shards)
            dt = time.perf_counter() - t0
            if best_sharded is None or dt < best_sharded:
                best_sharded = dt
        best_forked = None
        critical = 0.0
        per_shard: list[dict] = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            # workers=shards forces the forked path even on small hosts,
            # so per-shard CPU self-timing is always populated.
            result = _diurnal_replay(system, seed=1).run(shards=shards, workers=shards)
            dt = time.perf_counter() - t0
            if best_forked is None or dt < best_forked:
                best_forked = dt
                critical = result.critical_path_seconds
                per_shard = [
                    {
                        "shard": rep.shard,
                        "tenants": list(rep.tenants),
                        "rounds": len(rep.result.records),
                        "cpu_seconds": rep.cpu_seconds,
                        "events_processed": rep.counters["events_processed"],
                    }
                    for rep in result.shards
                ]
        out[system] = {
            "sequential_seconds": best_seq,
            "sharded_seconds": best_sharded,
            "forked_seconds": best_forked,
            "critical_path_seconds": critical,
            "measured_speedup": best_seq / best_sharded if best_sharded else 0.0,
            "critical_path_speedup": best_seq / critical if critical else 0.0,
            "per_shard": per_shard,
        }
    return out


def run_macro_stress100k(repeat: int = 3, shards: int = 4) -> dict:
    """Wall-clock of the ``stress100k`` 100k-client/10k-participant LIFL
    round pair, sequential vs cohort-partitioned across ``shards`` forked
    workers (:mod:`repro.core.partition`).

    Mirrors ``run_macro_trace_diurnal_sharded``'s honesty rules:
    ``partitioned_seconds``/``measured_speedup`` time the forced fork
    fan-out on *this* host, ``critical_path_seconds`` is the slowest
    cohort's in-worker CPU time plus the serial root phase (the wall-clock
    floor a host with ``shards`` free cores reaches), and ``host_cpus``
    records which regime the measurement ran in.
    """
    from repro.common.fanout import available_cpus
    from repro.common.units import RESNET18_BYTES
    from repro.core.partition import PartitionedRoundEngine
    from repro.core.platform import AggregationPlatform, PlatformConfig
    from repro.experiments.stress100k import SCALES, build_population, round_arrivals

    scale = "100k"
    _, participants, n_nodes = SCALES[scale]
    nodes = [f"node{i:03d}" for i in range(n_nodes)]

    def factory() -> AggregationPlatform:
        cfg = PlatformConfig.lifl(ingress_stage="gateway-coalesced")
        return AggregationPlatform(cfg, node_names=list(nodes))

    population = build_population(scale)
    rounds = [round_arrivals(population, scale, r) for r in range(2)]
    out: dict = {
        "host_cpus": available_cpus(),
        "shards": shards,
        "clients": population.size,
        "participants": participants,
        "nodes": n_nodes,
    }
    best_seq = None
    act = 0.0
    for _ in range(repeat):
        t0 = time.perf_counter()
        run = PartitionedRoundEngine(factory, shards=1).run(rounds, RESNET18_BYTES)
        dt = time.perf_counter() - t0
        if best_seq is None or dt < best_seq:
            best_seq = dt
            act = run.results[1].act
    best_part = None
    critical = 0.0
    per_shard: list[dict] = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        # workers=shards forces the forked path even on small hosts, so
        # per-cohort CPU self-timing is always populated.
        run = PartitionedRoundEngine(factory, shards=shards, workers=shards).run(
            rounds, RESNET18_BYTES
        )
        dt = time.perf_counter() - t0
        if run.results[1].act != act:
            raise RuntimeError(
                f"partitioned ACT {run.results[1].act} != sequential {act}"
            )
        if best_part is None or dt < best_part:
            best_part = dt
            critical = run.critical_path_seconds
            per_shard = [
                {
                    "shard": rep.shard,
                    "nodes": len(rep.nodes),
                    "emissions": rep.emissions,
                    "cpu_seconds": rep.cpu_seconds,
                    "events_processed": rep.counters["events_processed"],
                }
                for rep in run.cohorts
            ]
    out["act_s"] = act
    out["sequential_seconds"] = best_seq
    out["partitioned_seconds"] = best_part
    out["critical_path_seconds"] = critical
    out["measured_speedup"] = best_seq / best_part if best_part else 0.0
    out["critical_path_speedup"] = best_seq / critical if critical else 0.0
    out["per_shard"] = per_shard
    return out


def run_macro_geo_followsun(repeat: int = 3) -> dict:
    """Wall-clock of the ``geo-follow-the-sun`` 3-region LIFL cell: three
    full serving cells, phase-shifted diurnal load, WAN root reduction,
    and the exact merge.  ``wan_flows``/``wan_weight`` pin that the WAN
    stage really ran; ``host_cpus`` records whether the regions forked or
    degraded to inline (single-CPU hosts).
    """
    from repro.common.fanout import available_cpus
    from repro.experiments.geo_scenarios import run_followsun_cell

    out: dict = {"host_cpus": available_cpus(), "regions": 3}
    for system in ("LIFL",):
        best = None
        counters = EngineCounters()
        row: dict = {}
        for _ in range(repeat):
            with collect() as perf:
                t0 = time.perf_counter()
                cell = run_followsun_cell(system, 3, seed=1)
                dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
                counters = perf.counters()
                row = cell
        out[system] = {
            "seconds": best,
            "rounds": row.get("rounds", 0),
            "wan_flows": row.get("wan_flows", 0),
            "wan_weight": row.get("wan_weight", 0.0),
            "failover_rounds": row.get("failover_rounds", 0),
            "latency_p95_s": row.get("latency_p95_s", 0.0),
            "slo_attainment": row.get("slo_attainment", 0.0),
            "counters": counters.as_dict(),
        }
    return out


#: macro selector names for ``--only`` -> (metrics key, runner)
MACRO_BENCHES = {
    "stress50": ("macro_stress50", run_macro_stress50),
    "stress500": ("macro_stress500", run_macro_stress500),
    "trace_diurnal": ("macro_trace_diurnal", run_macro_trace_diurnal),
    "trace_diurnal_sharded": ("macro_trace_diurnal_sharded", run_macro_trace_diurnal_sharded),
    "stress100k": ("macro_stress100k", run_macro_stress100k),
    "geo_followsun": ("macro_geo_followsun", run_macro_geo_followsun),
}


def run_suite(repeat: int = 3) -> dict:
    out: dict = {"micro": run_micro(repeat=repeat)}
    for key, fn in MACRO_BENCHES.values():
        out[key] = fn(repeat=repeat)
    return out


# ---------------------------------------------------------------- trend

#: the headline metrics ``--trend`` (and the HTML report's sparklines)
#: follow across a trajectory file's labelled runs:
#: (metric name, unit, scale applied to the stored value, path into
#: one run's ``metrics`` document)
TREND_METRICS: tuple[tuple[str, str, float, tuple[str, ...]], ...] = (
    ("micro/timer_churn", "ev/s", 1.0, ("micro", "timer_churn", "events_per_second")),
    ("micro/process_churn", "ev/s", 1.0, ("micro", "process_churn", "events_per_second")),
    ("micro/ps_link_churn", "ev/s", 1.0, ("micro", "ps_link_churn", "events_per_second")),
    ("micro/fabric_churn", "ev/s", 1.0, ("micro", "fabric_churn", "events_per_second")),
    ("stress50/LIFL", "ms", 1e3, ("macro_stress50", "LIFL", "seconds")),
    ("stress50/SL-H", "ms", 1e3, ("macro_stress50", "SL-H", "seconds")),
    ("stress500/LIFL", "ms", 1e3, ("macro_stress500", "LIFL", "seconds")),
    ("stress500/SL-H", "ms", 1e3, ("macro_stress500", "SL-H", "seconds")),
    ("trace-diurnal/LIFL", "ms", 1e3, ("macro_trace_diurnal", "LIFL", "seconds")),
    ("trace-diurnal/SL-H", "ms", 1e3, ("macro_trace_diurnal", "SL-H", "seconds")),
    (
        "trace-sharded/LIFL speedup",
        "x",
        1.0,
        ("macro_trace_diurnal_sharded", "LIFL", "critical_path_speedup"),
    ),
    (
        "trace-sharded/SL-H speedup",
        "x",
        1.0,
        ("macro_trace_diurnal_sharded", "SL-H", "critical_path_speedup"),
    ),
    ("stress100k seq", "ms", 1e3, ("macro_stress100k", "sequential_seconds")),
    ("stress100k speedup", "x", 1.0, ("macro_stress100k", "critical_path_speedup")),
    ("geo-followsun/LIFL", "ms", 1e3, ("macro_geo_followsun", "LIFL", "seconds")),
)


def _lookup(metrics: dict, path: tuple[str, ...]) -> float | None:
    node: object = metrics
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def trend_series(doc: dict) -> list[dict]:
    """Per-metric trajectories across a trajectory file's labelled runs.

    Returns one ``{"metric", "unit", "points"}`` entry per headline metric
    that appears in at least one run; ``points`` pairs every run label
    with the metric's value there (None where that run never measured
    it — e.g. everything before the benchmark existed).  The ``--trend``
    table and the HTML report's sparklines both read this.
    """
    runs = doc.get("runs", [])
    labels = [run.get("label", f"run{i}") for i, run in enumerate(runs)]
    series: list[dict] = []
    for name, unit, scale, path in TREND_METRICS:
        points: list[tuple[str, float | None]] = []
        for label, run in zip(labels, runs):
            value = _lookup(run.get("metrics", {}), path)
            points.append((label, value * scale if value is not None else None))
        if any(v is not None for _, v in points):
            series.append({"metric": name, "unit": unit, "points": points})
    return series


def _fmt_trend(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 10_000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def render_trend(doc: dict) -> str:
    """The ``--trend`` table: one row per headline metric, its values in
    run order, and how the last measurement moved against the previous
    one."""
    series = trend_series(doc)
    if not series:
        return "no labelled runs in trajectory"
    labels = [label for label, _ in series[0]["points"]]
    lines = [f"trajectory across {len(labels)} labelled runs:"]
    lines.extend(f"  [{i}] {label}" for i, label in enumerate(labels))
    lines.append("")
    width = max(len(s["metric"]) for s in series)
    for s in series:
        values = [v for _, v in s["points"]]
        cells = " -> ".join(_fmt_trend(v) for v in values)
        measured = [v for v in values if v is not None]
        if len(measured) >= 2 and measured[-2]:
            delta = (measured[-1] - measured[-2]) / measured[-2] * 100.0
            note = f"  (last vs prev: {delta:+.1f}%)"
        else:
            note = ""
        lines.append(f"  {s['metric']:<{width}} {s['unit']:<5} {cells}{note}")
    return "\n".join(lines)


# --------------------------------------------------------------- record


def host_fingerprint() -> dict:
    """The host a run was measured on: CPU model, usable CPUs, Python and
    numpy versions.  Timings from different hosts do not compare."""
    import platform

    import numpy

    from repro.common.fanout import available_cpus

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def record_run(path: str, label: str, metrics: dict) -> dict:
    """Record one labelled entry in the trajectory file at ``path``,
    stamped with the :func:`host_fingerprint` of the recording host.

    An entry with the same label is *merged*: metric sections present in
    the new run replace their namesakes, sections it did not run (e.g.
    everything a ``--only`` run skipped) are preserved, and the timestamp
    and host refresh.  A new label appends, preserving the trajectory of
    earlier PRs."""
    doc: dict = {"benchmark": "engine", "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    entry = {
        "label": label,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": host_fingerprint(),
        "metrics": metrics,
    }
    runs = doc.setdefault("runs", [])
    for i, existing in enumerate(runs):
        if existing.get("label") == label:
            kept = dict(existing.get("metrics", {}))
            kept.update(metrics)
            entry["metrics"] = kept
            runs[i] = entry
            break
    else:
        runs.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="Run engine micro/macro benchmarks; optionally record the trajectory.",
    )
    parser.add_argument("--out", default=None, metavar="PATH", help="append to a BENCH_*.json trajectory")
    parser.add_argument("--label", default="dev", help="label for the recorded entry")
    parser.add_argument(
        "--trend",
        action="store_true",
        help="print the per-label metric trajectory from an existing "
        "BENCH_*.json (default BENCH_engine.json; no benchmarks run)",
    )
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N repetitions (default 3)")
    parser.add_argument("--skip-macro", action="store_true", help="micro-benchmarks only")
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="MACRO",
        help="run only the named benchmark(s); repeatable — one of "
        f"{', '.join(['micro', *MACRO_BENCHES])} (recorded entries merge by label)",
    )
    args = parser.parse_args(argv[1:])

    if args.trend:
        path = args.out or "BENCH_engine.json"
        if not os.path.exists(path):
            parser.error(f"no trajectory file at {path}")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        print(render_trend(doc))
        return 0

    if args.only:
        unknown = [n for n in args.only if n != "micro" and n not in MACRO_BENCHES]
        if unknown:
            parser.error(
                f"unknown --only name(s) {', '.join(unknown)}; "
                f"choose from micro, {', '.join(MACRO_BENCHES)}"
            )
        metrics: dict = {}
        for name in args.only:
            if name == "micro":
                metrics["micro"] = run_micro(repeat=args.repeat)
            else:
                key, fn = MACRO_BENCHES[name]
                metrics[key] = fn(repeat=args.repeat)
    elif args.skip_macro:
        metrics = {"micro": run_micro(repeat=args.repeat)}
    else:
        metrics = run_suite(repeat=args.repeat)

    for name, row in metrics.get("micro", {}).items():
        print(f"  {name:<16} {row['events_per_second']:>12.0f} events/s  ({row['seconds']*1e3:.1f} ms)")
    for system, row in metrics.get("macro_stress50", {}).items():
        c = row["counters"]
        print(
            f"  stress50/{system:<6} {row['seconds']*1e3:>8.1f} ms/cell  "
            f"({c['events_processed']} events, peak queue {c['peak_queue_depth']})"
        )
    for system, row in metrics.get("macro_stress500", {}).items():
        c = row["counters"]
        print(
            f"  stress500/{system:<5} {row['seconds']*1e3:>8.1f} ms/cell  "
            f"({row['tenants']} tenants, {c['events_processed']} events, "
            f"peak queue {c['peak_queue_depth']})"
        )
    for system, row in metrics.get("macro_trace_diurnal", {}).items():
        c = row["counters"]
        print(
            f"  trace-diurnal/{system:<5} {row['seconds']*1e3:>6.1f} ms/cell  "
            f"({row['rounds']} rounds, peak {row['peak_inflight']} in flight, "
            f"p95 {row['latency_p95_s']:.2f}s, attained {row['slo_attainment']:.1%}, "
            f"{c['events_processed']} events)"
        )
    sharded = metrics.get("macro_trace_diurnal_sharded", {})
    for system in ("LIFL", "SL-H"):
        row = sharded.get(system)
        if not row:
            continue
        print(
            f"  trace-sharded/{system:<5} seq {row['sequential_seconds']*1e3:>6.1f} ms "
            f"-> {sharded['shards']} shards {row['sharded_seconds']*1e3:>6.1f} ms "
            f"(measured {row['measured_speedup']:.2f}x, critical path "
            f"{row['critical_path_seconds']*1e3:.1f} ms = {row['critical_path_speedup']:.2f}x, "
            f"{sharded['host_cpus']} host cpu(s))"
        )
    geo = metrics.get("macro_geo_followsun", {})
    for system in ("LIFL",):
        row = geo.get(system)
        if not row:
            continue
        c = row["counters"]
        print(
            f"  geo-followsun/{system:<5} {row['seconds']*1e3:>6.1f} ms/cell  "
            f"({geo['regions']} regions, {row['rounds']} rounds, "
            f"{row['wan_flows']} wan flows, p95 {row['latency_p95_s']:.2f}s, "
            f"attained {row['slo_attainment']:.1%}, {c['events_processed']} events, "
            f"{geo['host_cpus']} host cpu(s))"
        )
    big = metrics.get("macro_stress100k")
    if big:
        print(
            f"  stress100k/LIFL   seq {big['sequential_seconds']*1e3:>7.1f} ms "
            f"-> {big['shards']} cohorts {big['partitioned_seconds']*1e3:>7.1f} ms "
            f"(measured {big['measured_speedup']:.2f}x, critical path "
            f"{big['critical_path_seconds']*1e3:.1f} ms = {big['critical_path_speedup']:.2f}x, "
            f"{big['clients']} clients, {big['participants']} participants, "
            f"{big['host_cpus']} host cpu(s))"
        )
    if args.out:
        record_run(args.out, args.label, metrics)
        print(f"recorded '{args.label}' in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
