"""Benchmark entry point.

    python3 perfbench/run.py --workload serve-diurnal --seed 1 --seconds 30 --trace 0

Run from the repository root (the simulator's source is ``src/``).  With
``--trace 0`` the workload repeats for ``--seconds`` (at least
``MIN_REPS`` times), each repetition generating its inputs from the seed,
building fresh engines and making one timed call; the end-to-end metrics
are medians over the repetitions.  With ``--trace 1`` the workload runs
once untraced and once under the profiler and span wrappers of
:mod:`perfbench.layers`, and the per-layer metrics are reported; the spans
are written to ``.perfbench/``.

Every repetition's outputs are checked (see :mod:`perfbench.checks`).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it stamp the
host and list the metrics for a reader.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPS = 3
#: fresh interpreters timing the import; set-up reports their median
IMPORT_SAMPLES = 5

#: end-to-end metrics in report order: (name, unit, better)
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("updates_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_act_p50_s", "s", "lower"),
    ("sim_latency_p95_s", "s", "lower"),
    ("slo_attainment", "ratio", "higher"),
    ("sim_cpu_core_s", "s", "lower"),
    ("rounds_completed_frac", "ratio", "higher"),
]

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import perfbench.workloads\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Rep:
    """One timed repetition."""

    setup_s: float
    wall_s: float
    cpu_s: float
    outcome: object
    #: client updates the timed call aggregated
    updates: int = 0


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def host_fingerprint() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def import_seconds() -> float:
    """Median import time of the benchmark's simulator modules, each
    sample in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def one_rep(workload, seed: int, inline: bool = False) -> Rep:
    gc.collect()
    t0 = time.perf_counter()
    job = workload.build(workload.generate(seed))
    t1 = time.perf_counter()
    cpu0 = _cpu_s()
    outcome = workload.run(job, inline=inline)
    t2 = time.perf_counter()
    cpu1 = _cpu_s()
    return Rep(setup_s=t1 - t0, wall_s=t2 - t1, cpu_s=cpu1 - cpu0, outcome=outcome)


def updates_aggregated(outcome) -> int:
    return sum(r.updates for r in outcome.rows if r.status == "completed")


def sim_metrics(outcome) -> dict[str, float]:
    """The modelled system's own results (measured rounds only)."""
    rows = [r for r in outcome.rows if r.measured]
    done = [r for r in rows if r.status == "completed"]
    latency = sorted(r.latency for r in done)
    return {
        "sim_act_p50_s": statistics.median(r.service for r in done),
        # nearest rank: the smallest latency at or above 95% of rounds
        "sim_latency_p95_s": latency[math.ceil(0.95 * len(latency)) - 1],
        "slo_attainment": sum(1 for r in done if r.latency <= outcome.slo_target_s)
        / len(rows),
        "sim_cpu_core_s": outcome.cpu_core_s,
        "rounds_completed_frac": len(done) / len(rows),
    }


def measured(workload, seed: int, seconds: float, import_s: float) -> tuple[dict, dict]:
    """Repeat the workload for ``seconds``; medians of the host metrics."""
    from perfbench.checks import check_digests, check_outcome

    reps: list[Rep] = []
    attempted = failed = 0
    digests: list[str] = []
    first = None
    start = time.perf_counter()
    while attempted < MIN_REPS or time.perf_counter() - start < seconds:
        attempted += 1
        try:
            rep = one_rep(workload, seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        digests.append(rep.outcome.digest())
        problems = check_outcome(rep.outcome) + check_digests(digests)
        if problems:
            failed += 1
            for msg in problems:
                print(f"check failed: {msg}", file=sys.stderr)
            continue
        rep.updates = updates_aggregated(rep.outcome)
        if first is None:
            first = rep.outcome
            first.raw = None
        rep.outcome = None
        reps.append(rep)
    info = {"reps": len(reps)}
    if not reps:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, info
    wall = [r.wall_s for r in reps]
    metrics = {
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "updates_per_s": statistics.median(r.updates / r.wall_s for r in reps),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": import_s + statistics.median(r.setup_s for r in reps),
    }
    metrics.update(sim_metrics(first))
    done = [r for r in first.rows if r.measured and r.status == "completed"]
    info.update(
        import_s=import_s,
        wall_s_range=(min(wall), max(wall)),
        measured_rounds=sum(1 for r in first.rows if r.measured),
        latency_samples=len(done),
        digest=digests[0][:16],
    )
    units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k, _, _ in END_TO_END},
    }
    return result, info


def traced(workload, seed: int) -> tuple[dict, dict]:
    """One untraced and one traced run; the per-layer metrics."""
    from perfbench.checks import check_digests, check_outcome
    from perfbench.layers import PER_LAYER, Tracer, fanout_metrics, layer_metrics
    from repro.perf.counters import collect

    t0 = time.perf_counter()
    inputs = workload.generate(seed)
    gen_s = time.perf_counter() - t0
    job = workload.build(inputs)
    with collect() as perf:
        t0 = time.perf_counter()
        plain = workload.run(job)
        plain_wall = time.perf_counter() - t0
    counters = perf.counters()
    fanout = fanout_metrics(plain.raw, plain_wall)

    job = workload.build(workload.generate(seed))
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        # inline: forked workers' time would escape the profiler; the
        # engines guarantee inline and forked runs are byte-identical
        traced_out = workload.run(job, inline=True)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    spans = ROOT / ".perfbench" / f"spans-{workload.name}-seed{seed}.npz"
    tracer.write(spans)

    plain_problems = check_outcome(plain)
    traced_problems = check_outcome(traced_out) + check_digests(
        [plain.digest(), traced_out.digest()]
    )
    for msg in plain_problems + traced_problems:
        print(f"check failed: {msg}", file=sys.stderr)
    failed = bool(plain_problems) + bool(traced_problems)
    metrics = layer_metrics(
        counters,
        plain_wall,
        traced_wall,
        gen_s,
        plain.layer,
        plain.rows,
        fanout,
        tracer,
    )
    result = {
        "correct": failed == 0,
        "attempted": 2,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit, _ in PER_LAYER
        },
    }
    info = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.start),
        "spans_file": str(spans.relative_to(ROOT)),
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import_s = import_seconds() if not args.trace else 0.0
    import repro
    from perfbench.workloads import WORKLOADS

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        result, info = traced(workload, args.seed)
    else:
        result, info = measured(workload, args.seed, args.seconds, import_s)
    mode = "traced" if args.trace else "measured"
    print(f"perfbench {workload.name} seed={args.seed} {mode}: {workload.why}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"  {name:<28} {entry['value']:>18.6f} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
