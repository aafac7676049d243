"""Tests of the benchmark itself: each workload run small, traced and not,
and corrupted outputs that its checks must catch.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from compassmodel import cli, engine, topology  # noqa: E402
from compassmodel.difference import DifferenceTracker  # noqa: E402
from compassmodel.opinion_space import ModelParams  # noqa: E402
from compassmodel.topology import build_path  # noqa: E402
from perfbench import checks, hostclock, run, spans, waste  # noqa: E402
from perfbench.workloads import GeneralMix, ring_consensus, torus_probes  # noqa: E402

TINY = {
    "ring50-consensus": lambda: ring_consensus(3, replicates=3, n=8),
    "torus-probes": lambda: torus_probes(3, dims=(10, 10), replicates=2, events=2_000),
    "general-mix": lambda: GeneralMix(3, interval_replicates=2, path_n=8, tracked_runs=2,
                                      ring_n=8, tracked_events=600),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_benchmark_json():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])
    assert list(TINY) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_and_reports_every_metric(name, trace, tmp_path):
    workload = TINY[name]()

    def bindings():
        return (engine.run, cli.run, engine.update_pair_compass, cli.run_batch,
                vars(topology.Graph)["adjacent_edge_pairs"],
                vars(DifferenceTracker)["apply_event"])

    originals = bindings()
    result = run.measure(workload, seconds=0, trace=trace, out=tmp_path, setup_runs=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workload.ops * (2 if trace else 1)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert bindings() == originals
    assert [p.name for p in tmp_path.iterdir()] == (
        [f"trace-{name}-seed3.json"] if trace else [])


def test_traced_counts_follow_the_workload(tmp_path):
    result = run.measure(TINY["torus-probes"](), seconds=0, trace=True, out=tmp_path,
                         setup_runs=1)
    got = {k: v["value"] for k, v in result["metrics"].items()}
    # run_batch builds the graph once to validate it and once per replicate
    assert got["topology.build.calls"] == 3
    assert got["engine.run.calls"] == 2 and got["engine.budget_stops"] == 2
    assert got["engine.events"] == 4_000
    # one W test per 100 events on each of 200 edges
    assert got["engine.w_check_edge_visits"] == 2 * 20 * 200
    # four probes and the terminal state per replicate
    assert got["analysis.compute_metrics.calls"] == 10
    assert got["opinion_space.update.calls"] == 0


@pytest.mark.parametrize("max_events,interval,w_below", [
    (1_000, 100, 1e-300), (1_050, 100, 1e-300), (0, 100, 1e-300), (5_000, 7, 1e-3)])
def test_computed_w_checks_match_the_engine(max_events, interval, w_below, monkeypatch):
    calls = []
    total_w = engine._total_w
    monkeypatch.setattr(engine, "_total_w", lambda s: calls.append(1) or total_w(s))
    state = engine.new_simulation(build_path(6), engine.IidUniform(1), ModelParams(),
                                  space="interval", stream=engine.PoissonStream(2))
    stop = engine.StopRule(max_events=max_events, w_below=w_below, w_check_interval=interval)
    record = engine.run(state, stop=stop)
    assert spans.w_checks(stop, record.events_applied, record.events_applied) == len(calls)


def test_host_clock_samples_the_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    start = hostclock.perf_counter()
    with hostclock.HostClock() as clock:
        while hostclock.perf_counter() - start < 3.5 * hostclock.PERIOD:
            pass
    # the ticks and the closing sample; their own time is not counted
    assert clock.samples >= 4
    assert 0.0 < clock.raw < hostclock.perf_counter() - start
    assert clock.scaled > 0.0
    assert signal.getsignal(signal.SIGALRM) is before


def ring_round(tmp_path):
    workload = TINY["ring50-consensus"]()
    outputs = workload.run_round(tmp_path)[1]
    assert workload.check_round(outputs).failed == []
    return workload, outputs


def test_waste_replay_takes_the_batchs_runs(tmp_path):
    workload, _ = ring_round(tmp_path)
    events = workload.run_round(tmp_path / "again")[0]
    wound, total, after_floor = waste.replay(workload.raw)
    assert total == events
    assert 0 <= wound <= workload.ops and 0 <= after_floor <= total


def rewrite_final_row(csv_path: Path, **values):
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    row = dict(zip(checks.COLUMNS, lines[-1].split(",")))
    row.update({k: repr(v) for k, v in values.items()})
    lines[-1] = ",".join(row[c] for c in checks.COLUMNS)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_one_changed_csv_value_fails(tmp_path):
    workload, outputs = ring_round(tmp_path)
    rewrite_final_row(tmp_path / "batch" / "replicate_0001.csv", sign_flip_fraction=0.5)
    failed = workload.check_round(outputs).failed
    assert len(failed) == 1 and failed[0].startswith("1: final row sign_flip_fraction")


def test_a_failed_check_makes_the_run_incorrect(tmp_path):
    workload = TINY["ring50-consensus"]()
    run_round = workload.run_round

    def corrupted(out):
        events, outputs = run_round(out)
        rewrite_final_row(out / "batch" / "replicate_0002.csv", sign_flip_fraction=0.5)
        return events, outputs

    workload.run_round = corrupted
    result = run.measure(workload, seconds=0, trace=False, out=tmp_path, setup_runs=1)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (workload.ops, 1)



def test_w_moved_off_its_floor_fails(tmp_path):
    workload, outputs = ring_round(tmp_path)
    batch = tmp_path / "batch"
    agg = json.loads((batch / "aggregate.json").read_text(encoding="utf-8"))
    terminal = agg["replicates"][2]["terminal"]
    m = workload.raw["graph"]["n"]
    terminal["W"] += 1e-3
    terminal["mean_abs_delta"] = terminal["W"] / m
    (batch / "aggregate.json").write_text(json.dumps(agg), encoding="utf-8")
    rewrite_final_row(batch / "replicate_0002.csv", W=terminal["W"],
                      mean_abs_delta=terminal["mean_abs_delta"])
    failed = workload.check_round(outputs).failed
    assert len(failed) == 1 and "is not within 1e-6 of an even integer" in failed[0]


def test_moved_probe_time_fails(tmp_path):
    workload = TINY["torus-probes"]()
    outputs = workload.run_round(tmp_path)[1]
    assert workload.check_round(outputs).failed == []
    path = tmp_path / "batch" / "replicate_0000.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    cells[0] = repr(float(cells[0]) + 1e-9)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failed = workload.check_round(outputs).failed
    assert len(failed) == 1 and "config asks" in failed[0]


def test_drifted_tracker_and_wrong_butterfly_fail(tmp_path):
    workload = TINY["general-mix"]()
    out, tracked, butterfly = workload.run_round(tmp_path)[1]
    assert workload.check_round((out, tracked, butterfly)).failed == []
    tracked[1].delta[3] += 1e-6
    butterfly.deffuant_shift += 1e-6
    failed = workload.check_round((out, tracked, butterfly)).failed
    assert [line.split(":")[0] for line in failed] == ["butterfly", "tracked 1"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "general-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
