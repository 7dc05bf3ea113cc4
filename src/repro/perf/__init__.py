"""Engine telemetry and benchmarks.

* :mod:`repro.perf.counters` — the engine's self-accounting (events
  processed, heap pushes/pops, dead-timer skips, peak queue depth) and the
  :func:`collect` context manager that aggregates it across environments.
  The campaign runner's ``--profile`` flag is built on this.
* :mod:`repro.perf.bench` — engine micro-benchmarks plus six macro cells
  (``stress50``, ``stress500``, ``trace_diurnal``,
  ``trace_diurnal_sharded``, ``stress100k``, ``geo_followsun``);
  ``python -m repro.perf.bench --out BENCH_engine.json --label <label>``
  appends one entry to the append-only perf trajectory, and ``--trend``
  prints it with deltas only between same-host entries.
"""

from repro.perf.counters import EngineCounters, PerfCollector, collect

__all__ = ["EngineCounters", "PerfCollector", "collect"]
