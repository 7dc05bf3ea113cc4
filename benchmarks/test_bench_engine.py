"""Engine micro-benchmarks and the stress50 macro-benchmark.

The micro-benchmarks time the kernel primitives (timer churn, process
spawn/finish, processor-sharing state changes, fabric contention); the
macro-benchmark runs the registry's ``stress50`` 900-update cells and
records wall-clock plus engine counters through ``bench.record_run``
into a throwaway trajectory file, so a test run never rewrites the
committed ``BENCH_engine.json`` (record a labelled row there with
``python -m repro.perf.bench --out BENCH_engine.json --label <label>``).

Run with::

    PYTHONPATH=src pytest benchmarks/test_bench_engine.py --benchmark-only -s
"""

from __future__ import annotations

from repro.perf import bench
from repro.perf.counters import collect
from repro.sim.engine import Environment


def test_bench_engine_timer_churn(benchmark):
    env = benchmark(bench.timer_churn)
    assert env.events_processed == 20_000
    assert len(env._queue) == 0


def test_bench_engine_process_churn(benchmark):
    env = benchmark(bench.process_churn)
    # One Initialize + one timeout per process; synchronous completion
    # schedules no terminal event.
    assert env.heap_pushes == 2 * 5_000


def test_bench_engine_ps_link_churn(benchmark):
    env = benchmark(bench.ps_link_churn)
    assert env.events_processed > 0
    # Dead timers are popped lazily, never processed.
    assert env.events_processed == env.heap_pops - env.dead_timer_skips


def test_bench_engine_fabric_churn(benchmark):
    env = benchmark(bench.fabric_churn)
    assert env.events_processed > 0


def test_bench_stress50_macro(benchmark, tmp_path):
    """The acceptance macro-benchmark: one warm+measured 900-update cell
    per system, recorded into a throwaway trajectory file."""
    from repro.experiments.stress50 import run_cell

    def both_systems():
        with collect() as perf:
            lifl = run_cell("LIFL", 900)
            slh = run_cell("SL-H", 900)
        return lifl, slh, perf.counters()

    lifl, slh, counters = benchmark.pedantic(both_systems, rounds=3, iterations=1)
    assert lifl["act_s"] < slh["act_s"]  # LIFL stays ahead at scale
    assert counters.events_processed > 0

    metrics = bench.run_macro_stress50(repeat=1)
    trajectory = str(tmp_path / "BENCH_engine.json")
    bench.record_run(trajectory, "macro-bench", {"macro_stress50": metrics})
    print(f"\nstress50 macro: LIFL {metrics['LIFL']['seconds']*1e3:.1f} ms, "
          f"SL-H {metrics['SL-H']['seconds']*1e3:.1f} ms")


def test_engine_counters_conserve_heap_traffic():
    """Not a timing benchmark: structural check that pushes == pops at
    quiescence and processed+dead == pops, on a mixed workload."""
    env = Environment()

    def worker(i):
        yield env.timeout(i * 0.1)

    for i in range(100):
        env.process(worker(i))
    env.run()
    assert env.heap_pushes == env.heap_pops
    assert env.events_processed + env.dead_timer_skips == env.heap_pops
