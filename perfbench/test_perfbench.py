"""Tests of the benchmark itself: every workload builds and passes its
checks at a tiny size, tampered outputs trip the checks, one seed
generates identical inputs, the traced run restores what it wrapped, and
the metric lists agree with ``BENCHMARK.json``.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.checks import check_digests, check_outcome
from perfbench.layers import PER_LAYER, Tracer, layer_metrics
from perfbench.workloads import WORKLOADS
from repro.fl.client import FLClient
from repro.fl.population import ClientPopulation
from repro.perf.counters import EngineCounters
from repro.traces.models import AvailabilityTrace, Trace

ROOT = Path(__file__).resolve().parent.parent


def fingerprint(obj) -> str:
    """Stable hash of generated inputs (traces, windows, arrays,
    populations), for the determinism test."""
    h = hashlib.sha256()

    def feed(x) -> None:
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(f"seq{len(x)}".encode())
            for item in x:
                feed(item)
        elif isinstance(x, Trace):
            feed([(e.at, e.tenant, e.round_id) for e in x.events])
            feed(x.horizon)
        elif isinstance(x, AvailabilityTrace):
            feed(x.windows)
        elif isinstance(x, ClientPopulation):
            feed([x.speed_factors, x.num_samples, x.win_start, x.win_end, x.win_offsets])
        elif isinstance(x, FLClient):
            feed((x.client_id, x.config.speed_factor, x.config.hibernate_max))
        elif hasattr(x, "__dict__"):
            feed(vars(x))
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


@pytest.fixture(scope="module")
def tiny():
    return {
        name: w.run(w.build(w.generate(3, "tiny"))) for name, w in sorted(WORKLOADS.items())
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_and_passes_checks(tiny, name):
    out = tiny[name]
    assert check_outcome(out) == []
    metrics = run.sim_metrics(out)
    assert set(metrics) == {n for n, _, _ in run.END_TO_END if n.startswith(("sim_", "slo_", "rounds_"))}
    assert all(value > 0 for value in metrics.values()), metrics
    assert run.updates_aggregated(out) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_generates_identical_inputs(name):
    w = WORKLOADS[name]
    assert fingerprint(w.generate(5, "tiny")) == fingerprint(w.generate(5, "tiny"))
    assert fingerprint(w.generate(5, "tiny")) != fingerprint(w.generate(6, "tiny"))


def test_same_seed_repeats_the_simulated_outputs(tiny):
    w = WORKLOADS["serve-diurnal"]
    again = w.run(w.build(w.generate(3, "tiny")))
    assert again.digest() == tiny["serve-diurnal"].digest()


def _tampered_row(out, **change):
    rows = list(out.rows)
    rows[-1] = dataclasses.replace(rows[-1], **change)
    return dataclasses.replace(out, rows=rows)


def test_tampered_tally_trips_the_check(tiny):
    out = tiny["serve-diurnal"]
    assert check_outcome(dataclasses.replace(out, rows=out.rows[:-1]))
    assert check_outcome(_tampered_row(out, status="shed"))
    tally = dict(out.engine_tally, completed=out.engine_tally["completed"] - 1)
    assert check_outcome(dataclasses.replace(out, engine_tally=tally))
    assert check_outcome(dataclasses.replace(out, offered=out.offered + 1))


def test_tampered_weights_trip_the_check(tiny):
    geo = tiny["geo-composed"]
    assert geo.wan_weight > 0
    assert check_outcome(dataclasses.replace(geo, wan_weight=geo.wan_weight + 1.0))
    cohort = tiny["cohort-100k"]
    emitted = dict(cohort.emitted_weight)
    emitted["c1"] += 1.0
    assert check_outcome(dataclasses.replace(cohort, emitted_weight=emitted))


def test_tampered_output_changes_the_digest(tiny):
    out = tiny["cohort-100k"]
    row = out.rows[-1]
    bumped = _tampered_row(out, service=row.service + abs(row.service) * 1e-15 + 1e-300)
    assert check_digests([out.digest(), out.digest()]) == []
    assert check_digests([out.digest(), bumped.digest()])
    bumped_cpu = dataclasses.replace(out, cpu_core_s=out.cpu_core_s * (1 + 1e-15))
    assert check_digests([out.digest(), bumped_cpu.digest()])


def test_traced_run_matches_untraced_and_restores_wrappers(tiny):
    w = WORKLOADS["geo-composed"]
    original = AvailabilityTrace.__dict__["is_available"]
    tracer = Tracer()
    tracer.install()
    try:
        out = w.run(w.build(w.generate(3, "tiny")), inline=True)
    finally:
        tracer.uninstall()
    assert AvailabilityTrace.__dict__["is_available"] is original
    assert out.digest() == tiny["geo-composed"].digest()
    metrics = layer_metrics(EngineCounters(), 1.0, 2.0, 0.1, out.layer, out.rows, {}, tracer)
    assert set(metrics) >= {name for name, _, _ in PER_LAYER} - {
        name for name, _, _ in PER_LAYER if name.startswith("fanout.")
    }
    assert metrics["telemetry.records"] > 0
    assert metrics["core.prepare_round.calls"] == metrics["core.finish_round.calls"] > 0
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_share") and k != "bench.self_share")
    assert shares == pytest.approx(1.0)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-diurnal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
