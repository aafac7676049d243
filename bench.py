"""The event loop's speed, and a replicate's set-up, per layer, in thread time.

    python3 bench.py --label L

writes BENCH_L.json in the current directory. Each event row is one shape
of run: circle runs on a ring and interval runs on a path, at n = 50, 1e3
and 1e5 vertices, mu = 1/2, from a uniform start, each without a W test and
with one every 100 events (w_below = 1e-300, so no run stops on it). A
measurement is the thread time of one `run` call of EVENTS events, its
set-up and terminal probe included, over the events it applied: ns per
event. Each set-up row times one call, in ms: `build_torus` at 160² and
1000², `build_ring` at 1e5, and a uniform start (`initial_opinions` of
`IidUniform`) at n = 50, 25,600 and 1e6; a call of about a millisecond or
less after one untimed call. The rows take turns, REPEATS
rounds of them, and each row reports the median and quartiles of its
rounds. The file also records the CPU, nproc, Python, numpy, gcc and the
commit.

It uses the package's public API only, importing it from the `src/` next
to this file, and takes about 2 minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "src"))

import numpy as np  # noqa: E402

import compassmodel as cm  # noqa: E402

EVENTS = 500_000
REPEATS = 251
SIZES = (50, 1_000, 100_000)
W_INTERVAL = 100


def rows():
    """(name, graph, space, w test) for every row, graphs built once."""
    out = []
    for space, build in (("circle", cm.build_ring), ("interval", cm.build_path)):
        for n in SIZES:
            g = build(n)
            for w_test in (False, True):
                name = f"{space} {g.kind} n={n}" + (f" W/{W_INTERVAL}" if w_test else "")
                out.append((name, g, space, w_test))
    return out


def setup_rows():
    """(name, call, warm) for every set-up row: each call builds or draws
    once, and a warm one is called once untimed before it is timed."""
    out = [(f"build_torus {k}x{k}", lambda k=k: cm.build_torus([k, k]), k == 160)
           for k in (160, 1_000)]
    out.append(("build_ring n=100000", lambda: cm.build_ring(100_000), False))
    out += [(f"uniform start n={n}", lambda n=n: cm.initial_opinions(cm.IidUniform(1), n),
             n < 1e6) for n in (50, 25_600, 1_000_000)]
    return out


def time_call(call, warm: bool) -> float:
    """Thread seconds of one call. A call of a millisecond or less lands on
    memory the row before freed, and its first touch costs several times
    the call (170 µs against 27 µs for the 50-vertex start): a warm row's
    timed call follows an untimed one."""
    if warm:
        call()
    t0 = time.thread_time()
    call()
    return time.thread_time() - t0


def measure(g, space: str, w_test: bool, seed: int) -> tuple[float, int]:
    """Thread seconds of one run of EVENTS events, and the events applied."""
    state = cm.new_simulation(g, cm.IidUniform(seed), cm.ModelParams(mu=0.5), space=space,
                              stream=seed)
    stop = (cm.StopRule(max_events=EVENTS, w_below=1e-300, w_check_interval=W_INTERVAL)
            if w_test else cm.StopRule(max_events=EVENTS))
    t0 = time.thread_time()
    cm.run(state, stop=stop)
    return time.thread_time() - t0, state.events_applied


def command(*args: str) -> str | None:
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=30, cwd=HERE)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host() -> dict:
    cpu, flags = platform.processor() or platform.machine(), []
    try:
        info = Path("/proc/cpuinfo").read_text()
    except OSError:
        info = ""
    for line in info.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            cpu = value.strip()
        elif key.strip() == "flags":
            flags = [f for f in ("sse2", "avx2", "avx512f") if f in value.split()]
            break
    return {
        "cpu": cpu,
        "vector_flags": flags,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": command("gcc", "-dumpfullversion"),
        "commit": command("git", "describe", "--always", "--dirty", "--abbrev=40"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    label = parser.parse_args().label
    table, setups = rows(), setup_rows()
    times = {name: [] for name, *_ in table + setups}
    started = time.perf_counter()
    for r in range(REPEATS):
        for name, g, space, w_test in table:
            seconds, events = measure(g, space, w_test, seed=1)
            times[name].append(1e9 * seconds / events)
        for name, call, warm in setups:
            times[name].append(1e3 * time_call(call, warm))
        if (r + 1) % 50 == 0:
            print(f"round {r + 1}/{REPEATS}, {time.perf_counter() - started:.0f} s",
                  file=sys.stderr)
    results = []
    for name, g, space, w_test in table:
        q1, median, q3 = statistics.quantiles(times[name], n=4, method="inclusive")
        results.append({"name": name, "space": space, "graph": g.kind, "n": g.vertex_count,
                        "w_check_interval": W_INTERVAL if w_test else None,
                        "ns_per_event": {"median": median, "q1": q1, "q3": q3},
                        "runs": times[name]})
    setup_results = []
    for name, *_ in setups:
        q1, median, q3 = statistics.quantiles(times[name], n=4, method="inclusive")
        setup_results.append({"name": name, "ms_per_call": {"median": median, "q1": q1, "q3": q3},
                              "runs": times[name]})
    out = {"label": label, "host": host(), "events_per_run": EVENTS, "repeats": REPEATS,
           "clock": "thread time", "rows": results, "setup_rows": setup_results,
           "elapsed_s": round(time.perf_counter() - started, 1)}
    path = Path(f"BENCH_{label}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    for row in results:
        ns = row["ns_per_event"]
        print(f"{row['name']:28s} {ns['median']:7.2f} ns/event [{ns['q1']:.2f}, {ns['q3']:.2f}]")
    for row in setup_results:
        ms = row["ms_per_call"]
        print(f"{row['name']:28s} {ms['median']:7.3f} ms/call [{ms['q1']:.3f}, {ms['q3']:.3f}]")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
