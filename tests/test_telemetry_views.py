"""The stream's consumer layers: watch view, HTML report, bench trend,
scenario tags, and the atomic ``--profile`` blocks."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ConfigError
from repro.perf.bench import render_trend, trend_series
from repro.telemetry.html import build_report, split_runs
from repro.telemetry.watch import WatchState, render_frame, sparkline

HEADER = {"v": 1, "kind": "stream-header", "schema_version": 1, "campaign_seed": 3}


def _stream() -> list[dict]:
    return [
        HEADER,
        {"kind": "run-start", "scenario": "trace-x", "index": 0,
         "params": {"system": "LIFL"}, "seed": 9},
        {"at": 0.0, "kind": "replay-start", "tenants": 2, "horizon": 100.0,
         "slo_target_s": 8.0, "events": 4, "controller": True},
        {"at": 1.0, "kind": "queue-sample", "tenant": 0, "depth": 2,
         "deferred": 0, "inflight": 1, "limit": 4},
        {"at": 5.0, "kind": "round-settled", "tenant": 0, "round": 0,
         "queue_wait": 0.0, "service": 5.0, "latency": 5.0, "attained": True,
         "deferred": False},
        {"at": 9.0, "kind": "round-settled", "tenant": 1, "round": 0,
         "queue_wait": 2.0, "service": 8.0, "latency": 10.0, "attained": False,
         "deferred": False},
        {"at": 10.0, "kind": "round-aborted", "tenant": 1, "round": 1,
         "queue_wait": 1.0},
        {"at": 11.0, "kind": "round-shed", "tenant": 0, "round": 2,
         "reason": "deadline"},
        {"at": 12.0, "kind": "controller-tick", "burn": 0.5, "pool": 6,
         "spinning": 2, "limits": [4, 4]},
        {"at": 12.5, "kind": "control-action", "action": "scale-up",
         "target": "pool", "delta": 2.0, "reason": "burn-high"},
        {"at": 13.0, "kind": "chaos-fault", "fault": "partition",
         "target": "n1,n2", "value": 2.0},
        {"at": 14.0, "kind": "chaos-fault", "fault": "slow-node",
         "target": "n3", "value": 3.0},
        {"at": 15.0, "kind": "chaos-fault", "fault": "heal",
         "target": "n1,n2", "value": 2.0},
        {"at": 16.0, "kind": "perf-snapshot", "events_processed": 100,
         "heap_pushes": 100, "heap_pops": 100, "dead_timer_skips": 0,
         "timers_cancelled": 0, "immediate_reuses": 0, "peak_queue_depth": 7},
    ]


# ------------------------------------------------------------------ watch
def test_watch_state_accumulates_the_stream():
    state = WatchState()
    for obj in _stream():
        state.feed(obj)
    assert state.schema_version == 1
    assert state.header == {"campaign_seed": 3}
    assert state.run_label == "trace-x[0] system=LIFL"
    assert state.settled == 2 and state.attained == 1
    assert state.aborted == 1 and state.shed == 1
    assert state.tenants[0].depth == 2 and state.tenants[0].limit == 4
    assert state.tenants[1].settled == 1 and state.tenants[1].attained == 0
    # burn counts settled misses and aborts inside the window
    assert state.burn == 2 / 3
    assert state.last_tick["pool"] == 6
    assert [a["action"] for a in state.actions] == ["scale-up"]
    # the heal closed the partition window; the slow node stays degraded
    assert state.open_partitions == {}
    assert state.degraded == {"n3": 3.0}
    assert state.perf["peak_queue_depth"] == 7
    assert state.now == 16.0


def test_watch_burn_window_slides():
    state = WatchState(burn_window_s=10.0)
    state.feed({"at": 0.0, "kind": "round-settled", "tenant": 0,
                "queue_wait": 0.0, "service": 1.0, "latency": 1.0,
                "attained": False, "deferred": False})
    state.feed({"at": 100.0, "kind": "round-settled", "tenant": 0,
                "queue_wait": 0.0, "service": 1.0, "latency": 1.0,
                "attained": True, "deferred": False})
    assert state.burn == 0.0  # the miss at t=0 fell out of the window


def test_render_frame_mentions_everything_it_should():
    state = WatchState()
    for obj in _stream():
        state.feed(obj)
    frame = render_frame(state)
    for needle in (
        "schema v1", "campaign seed 3", "trace-x[0]", "2 settled", "1 aborted",
        "1 shed", "50.0% attained", "t0", "t1", "pool 6", "scale-up",
        "burn-high", "slow-node", "n3×3", "100 events", "peak queue 7",
    ):
        assert needle in frame, f"{needle!r} missing from frame"
    assert "partition" in frame  # recent fault list still shows it


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([0.0, 0.0]) == "▁▁"
    line = sparkline([1.0, 2.0, 4.0])
    assert len(line) == 3 and line[-1] == "█"
    assert len(sparkline(list(range(100)), width=24)) == 24


def test_watch_frame_is_truncation_consistent():
    """A frame rendered mid-stream equals the frame of the truncated
    stream — the property that makes --follow honest."""
    objs = _stream()
    rolling = WatchState()
    for obj in objs[:8]:
        rolling.feed(obj)
    fresh = WatchState()
    for obj in objs[:8]:
        fresh.feed(obj)
    assert render_frame(rolling) == render_frame(fresh)


# ------------------------------------------------------------------- html
def _campaign_doc() -> dict:
    return {
        "scenario": "trace-x",
        "title": "a trace campaign",
        "runs": [
            {
                "index": 0,
                "params": {"system": "LIFL"},
                "rows": [{
                    "rounds": 10, "latency_p50_s": 2.0, "latency_p95_s": 4.0,
                    "latency_p99_s": 5.0, "queue_wait_p95_s": 0.5,
                    "slo_attainment": 0.9, "slo_target_s": 8.0,
                    "shed": 1, "deferred": 2, "aborted": 1, "rejected": 0,
                }],
            }
        ],
    }


_HOST = {"cpu": "Test CPU", "nproc": 2, "python": "3.11.7", "numpy": "2.0.0"}


def _bench_doc() -> dict:
    return {
        "benchmark": "engine",
        "runs": [
            {
                "label": "pr1",
                "host": dict(_HOST),
                "metrics": {"macro_stress50": {"LIFL": {"seconds": 0.10}}},
            },
            {
                "label": "pr2",
                "host": dict(_HOST),
                "metrics": {"macro_stress50": {"LIFL": {"seconds": 0.08}}},
            },
        ],
    }


def test_split_runs_brackets_records():
    header, runs = split_runs(_stream())
    assert header["campaign_seed"] == 3
    assert len(runs) == 1
    assert runs[0]["label"] == "trace-x[0] system=LIFL"
    assert len(runs[0]["records"]) == len(_stream()) - 2  # header + run-start


def test_build_report_all_sections():
    page = build_report([_campaign_doc()], telemetry=_stream(), bench=_bench_doc())
    for needle in (
        "<!DOCTYPE html>", "trace-x", "round outcomes", "telemetry streams",
        "tenant 0", "tenant 1", "chaos: partition", "action: scale-up",
        "engine benchmark trajectory", "stress50/LIFL",
        "prefers-color-scheme: dark", "var(--s1)", 'stroke-width="2"',
    ):
        assert needle in page, f"{needle!r} missing from report"
    # escaping: no raw angle brackets from data paths
    assert "<script" not in page


def test_build_report_escapes_labels():
    doc = _campaign_doc()
    doc["title"] = "<script>alert(1)</script>"
    page = build_report([doc])
    assert "<script>alert(1)" not in page
    assert "&lt;script&gt;" in page


def test_build_report_empty_inputs():
    page = build_report([])
    assert "nothing to report" in page


# ------------------------------------------------------------------ trend
def test_trend_series_tracks_labels_and_gaps():
    series = trend_series(_bench_doc())
    assert len(series) == 1
    entry = series[0]
    assert entry["metric"] == "stress50/LIFL" and entry["unit"] == "ms"
    assert entry["points"] == [("pr1", 100.0), ("pr2", 80.0)]


def test_render_trend_reports_delta():
    text = render_trend(_bench_doc())
    assert "[0] pr1" in text and "[1] pr2" in text
    assert "100 -> 80" in text
    assert "(last vs prev: -20.0%)" in text


@pytest.mark.parametrize(
    "hosts",
    [(None, None), (None, _HOST), (_HOST, {**_HOST, "cpu": "Other CPU"})],
    ids=["host-less", "host-less-prev", "cross-host"],
)
def test_render_trend_compares_only_same_host_rows(hosts):
    doc = _bench_doc()
    for run, host in zip(doc["runs"], hosts):
        run.pop("host")
        if host is not None:
            run["host"] = host
    text = render_trend(doc)
    assert "100 -> 80" in text  # every row is still listed
    assert "last vs prev" not in text


def test_render_trend_skips_other_hosts_to_the_same_host_prev():
    doc = _bench_doc()
    doc["runs"].insert(
        1,
        {
            "label": "elsewhere",
            "host": {**_HOST, "nproc": 64},
            "metrics": {"macro_stress50": {"LIFL": {"seconds": 0.01}}},
        },
    )
    text = render_trend(doc)
    assert "100 -> 10 -> 80" in text
    assert "(last vs prev: -20.0%)" in text


def test_render_trend_empty_doc():
    assert render_trend({"runs": []}) == "no labelled runs in trajectory"


def test_trend_cli_reads_committed_trajectory(capsys):
    from repro.perf.bench import main

    assert main(["bench", "--trend", "--out", "BENCH_engine.json"]) == 0
    out = capsys.readouterr().out
    assert "trajectory across" in out
    assert "stress50/LIFL" in out


def test_record_run_stamps_host(tmp_path):
    from repro.perf.bench import record_run

    path = str(tmp_path / "BENCH_engine.json")
    record_run(path, "dev", {"micro": {}})
    with open(path, encoding="utf-8") as fh:
        host = json.load(fh)["runs"][-1]["host"]
    assert set(host) == {"cpu", "nproc", "python", "numpy"}
    assert host["cpu"] and host["nproc"] >= 1


def test_record_run_is_append_only(tmp_path):
    from repro.perf.bench import main, record_run

    path = str(tmp_path / "BENCH_engine.json")
    record_run(path, "a", {"micro": {"x": 1}})
    record_run(path, "b", {"micro": {"x": 2}})
    with open(path, "rb") as fh:
        before = fh.read()
    with pytest.raises(ConfigError, match="already has a run labelled 'a'"):
        record_run(path, "a", {"macro_stress50": {}})
    # the CLI refuses the taken label before running any benchmark
    with pytest.raises(SystemExit):
        main(["bench", "--skip-macro", "--out", path, "--label", "b"])
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert [run["label"] for run in json.loads(before)["runs"]] == ["a", "b"]


# ------------------------------------------------------------------- tags
def test_every_scenario_carries_tags():
    from repro.scenarios.registry import all_scenarios

    specs = all_scenarios()
    assert specs
    for spec in specs:
        assert spec.tags, f"{spec.name} has no subsystem tags"
    by_tag = {t for s in specs for t in s.tags}
    assert {"paper", "traces", "chaos", "perf", "controlplane"} <= by_tag
    paper = [s.name for s in specs if "paper" in s.tags]
    assert {"fig04", "fig08", "capacity", "overhead"} <= set(paper)


def test_cli_list_groups_by_tag(capsys):
    from repro.experiments.__main__ import main

    assert main(["experiments", "--list"]) == 0
    out = capsys.readouterr().out
    assert "[paper]" in out and "[chaos]" in out and "[traces]" in out
    assert "tags: traces,slo,chaos" in out  # trace-burst-chaos row


def test_cli_tag_filter_selects_and_reports_unknown(capsys):
    from repro.experiments.__main__ import main

    # unknown tag: error, list the available ones
    assert main(["experiments", "--filter", "tag=nope"]) == 2
    out = capsys.readouterr().out
    assert "tag='nope'" in out and "'chaos'" in out


def test_cli_tag_filter_runs_the_tagged_scenario(capsys, tmp_path):
    from repro.experiments.__main__ import main

    code = main([
        "experiments", "trace-poisson", "--filter", "tag=traces",
        "--filter", "system=LIFL", "--filter", "rate_per_min=12", "--filter", "shards=1",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace-poisson-slo" in out


# ---------------------------------------------------------------- profile
def test_profile_block_is_one_atomic_string():
    from repro.experiments.__main__ import _profile_block
    from repro.scenarios.runner import RunRecord

    rec = RunRecord(
        scenario="s", index=0, params={"k": 1}, seed=7,
        rows=[{"slo_attainment": 0.95, "rounds": 20, "latency_p50_s": 1.0,
               "latency_p95_s": 2.0, "latency_p99_s": 3.0,
               "queue_wait_p95_s": 0.1}],
        perf={"events_processed": 10, "heap_pushes": 10, "dead_timer_skips": 0,
              "peak_queue_depth": 3,
              "per_shard": {"shard0": {"events_processed": 5, "peak_queue_depth": 2},
                            "shard10": {"events_processed": 5, "peak_queue_depth": 1}}},
    )
    block = _profile_block("s", rec)
    lines = block.splitlines()
    assert block.endswith("\n") and len(lines) == 4
    assert "s[0] k=1: 10 events" in lines[0]
    # natural shard order inside the block
    assert "shard0:" in lines[1] and "shard10:" in lines[2]
    assert "attained=95.0%" in lines[3]


def test_campaign_telemetry_jsonl_end_to_end(tmp_path, capsys):
    """The CLI satellite loop: record with --telemetry, validate, render
    HTML headless — the same steps the CI smoke runs."""
    from repro.experiments.__main__ import main as experiments_main
    from repro.telemetry.sink import validate_stream
    from repro.traces.report import main as report_main

    stream = tmp_path / "t.jsonl"
    out_dir = tmp_path / "rows"
    code = experiments_main([
        "experiments", "trace-poisson", "--filter", "system=LIFL",
        "--filter", "rate_per_min=12", "--filter", "shards=1",
        "--telemetry", str(stream),
        "--out", str(out_dir),
    ])
    assert code == 0
    counts = validate_stream(str(stream))
    assert counts["round-settled"] > 0 and counts["run-start"] >= 1

    html_path = tmp_path / "report.html"
    code = report_main([
        "report", str(out_dir), "--html", str(html_path),
        "--telemetry", str(stream), "--bench", "BENCH_engine.json",
    ])
    assert code == 0
    page = html_path.read_text()
    assert "telemetry streams" in page and "engine benchmark trajectory" in page
    capsys.readouterr()


def test_report_html_handles_multi_run_fold(tmp_path):
    """More runs than MAX_RUNS: the report notes the fold instead of
    silently truncating."""
    from repro.telemetry.html import MAX_RUNS

    objs = [HEADER]
    for i in range(MAX_RUNS + 3):
        objs.append({"kind": "run-start", "scenario": "s", "index": i, "params": {}})
        objs.append({"at": 1.0, "kind": "round-settled", "tenant": 0,
                     "queue_wait": 0.0, "service": 1.0, "latency": 1.0,
                     "attained": True, "deferred": False})
    page = build_report([], telemetry=objs)
    assert "3 further run(s) recorded" in page


def test_report_json_is_valid_against_stream(tmp_path):
    """Telemetry JSONL written by the campaign parses line by line."""
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import CampaignRunner

    path = tmp_path / "t.jsonl"
    runner = CampaignRunner(
        seed=2, filters={"system": "LIFL", "rate_per_min": "12", "shards": "1"},
        telemetry_path=str(path),
    )
    runner.run([get_scenario("trace-poisson-slo")])
    for line in path.read_text().splitlines():
        json.loads(line)
