"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ring50-consensus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The run first times set-up in fresh interpreters, then repeats the
workload's fixed work in rounds for --seconds, checking each round's output
outside the timed region, then checks determinism once. Set-up and rounds
are timed on perfbench.hostclock, which scales wall time to a reference
host speed. The exit code is 1 when an operation or a check failed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced rounds, reports the per-layer metrics and the tracing overhead,
and writes the spans to perfbench/out/. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# the names of workloads.WORKLOADS, needed before the package can be imported
WORKLOAD_NAMES = ("ring50-consensus", "torus-probes", "general-mix")
SETUP_RUNS = 5

# Runs in a fresh interpreter: what every `compassmodel` invocation pays
# before its first simulation, the package import plus config parsing,
# timed on the host-speed clock.
SETUP_PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from perfbench.hostclock import HostClock
with HostClock() as imported:
    import compassmodel
with HostClock() as parsed:
    from compassmodel import cli
    cli.parse_config(json.loads(sys.argv[3]))
print(json.dumps({"import_s": imported.scaled, "setup_s": imported.scaled + parsed.scaled,
                  "raw_s": imported.raw + parsed.raw, "file": compassmodel.__file__}))
"""


def time_setup(raw: dict, runs: int) -> list[dict]:
    samples = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(ROOT), json.dumps(raw)],
            capture_output=True, text=True, timeout=120, check=True)
        sample = json.loads(done.stdout.splitlines()[-1])
        if Path(sample["file"]).resolve().parent != SRC / "compassmodel":
            raise RuntimeError(f"set-up imported {sample['file']}, not the checkout's package")
        samples.append(sample)
    return samples


def measure(workload, seconds: float, trace: bool, out: Path,
            setup_runs: int = SETUP_RUNS) -> dict:
    """Set-up, timed rounds, checks; the result object the benchmark prints.

    Round outputs go to a scratch directory under `out`, removed at the
    end; a traced run leaves its spans in `out`.
    """
    work = out / f"work-{workload.name}-{os.getpid()}"
    try:
        return _measure(workload, seconds, trace, out, work, setup_runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload, seconds, trace, out, work, setup_runs) -> dict:
    from perfbench.hostclock import HostClock
    from perfbench.spans import COMPUTED, LAYER_METRICS, Tracer

    setup = time_setup(workload.raw, setup_runs)
    print(f"set-up: {statistics.median(s['setup_s'] for s in setup):.4f} s at reference "
          f"speed, {statistics.median(s['raw_s'] for s in setup):.4f} s wall (medians)")
    attempted = failed = 0
    problems: list[str] = []
    plain: list[HostClock] = []
    traced: list[float] = []
    tracers = []
    events = None
    longest = 0.0
    deadline = perf_counter() + seconds
    k = 0
    while True:
        # a traced round is timed on plain wall time: the clock's samples
        # would land inside the spans
        tracer = Tracer() if trace and k % 2 == 1 else None
        attempted += workload.ops
        gc.collect()  # every round starts from the same heap
        started = perf_counter()
        clock = None if tracer else HostClock()
        try:
            with tracer.installed() if tracer else clock:
                applied, outputs = workload.run_round(work / "round")
        except Exception:
            traceback.print_exc()
            failed += workload.ops
        else:
            wall = perf_counter() - started
            checked = workload.check_round(outputs)
            if events is None:
                events = applied
            elif applied != events:
                checked.problems.append(f"{applied} events, the first round {events}")
            failed += len(checked.failed)
            for line in checked.failed + checked.problems:
                print(f"check failed, round {k}: {line}", file=sys.stderr)
            problems += checked.problems
            if tracer:
                traced.append(wall)
                tracers.append(tracer)
                print(f"round {k} (traced): {wall:.4f} s, {applied} events")
            else:
                plain.append(clock)
                print(f"round {k}: {clock.scaled:.4f} s at reference speed, "
                      f"{clock.raw:.4f} s wall, {applied} events")
        k += 1
        # stop before a round that would run past the deadline
        longest = max(longest, perf_counter() - started)
        if perf_counter() + longest > deadline and (not trace or k >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replay = workload.determinism(work / "determinism")
    for line in replay:
        print(f"check failed: {line}", file=sys.stderr)
    problems += replay
    if not plain or (trace and not traced):
        raise RuntimeError("no round of the workload completed")

    wall_s = statistics.median(c.scaled for c in plain)
    if not trace:
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
            "wall_s": (wall_s, "s"),
            "events_per_s": (events / wall_s, "events/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layers = [t.layer_metrics() for t in tracers]
        units = dict(LAYER_METRICS)
        metrics = {name: (statistics.median(x[name] for x in layers), units[name])
                   for name, _ in LAYER_METRICS}
        metrics["package.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
        # both on plain wall time
        plain_s = statistics.median(c.raw for c in plain)
        traced_s = statistics.median(traced)
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
        out.mkdir(parents=True, exist_ok=True)
        trace_file = out / f"trace-{workload.name}-seed{workload.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload.name,
            "computed_not_timed": list(COMPUTED),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "rounds": [t.dump() for t in tracers],
        }) + "\n", encoding="utf-8")
        print(f"spans written to {trace_file}")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "compassmodel" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import compassmodel
    if Path(compassmodel.__file__).resolve().parent != SRC / "compassmodel":
        print(f"perfbench: imported {compassmodel.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    result = measure(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace), OUT)
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed; "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
