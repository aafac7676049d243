"""Correctness checks on what a benchmark round wrote.

Every check compares the program's output with a value this module works
out on its own (seeds from hashlib, initial opinions from random, graph
edges, gap sums) or with a property the method must have (the winding
floor, the conserved mean, the Poisson clock). Nothing here calls the
package, so a fault in the package cannot hide itself from its own check.

Each function returns a list of problems, empty when everything holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

SCHEMA_LINE = "# compassmodel-metrics-v1"
COLUMNS = ("time", "W", "max_neighbor_dist", "mean_abs_delta",
           "opinion_range", "sign_flip_fraction")


def derive(master: int, *parts) -> int:
    """The replicate seed split the README documents: sha256 of "<seed>:<label>:<i>"."""
    text = ":".join([str(int(master))] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")


def initial_profile(seed: int, space: str, n: int) -> list[float]:
    rng = random.Random(seed)
    if space == "circle":
        return [1.0 - 2.0 * rng.random() for _ in range(n)]
    return [rng.random() for _ in range(n)]


def circle_gap(x: float, y: float) -> float:
    """Shorter-arc distance between two points of the circle R/2Z."""
    d = abs(x - y) % 2.0
    return min(d, 2.0 - d)


def graph_edges(graph: dict) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and oriented edges of a config's path, ring or 2-D torus."""
    kind = graph["kind"]
    if kind == "path":
        n = graph["n"]
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "ring":
        n = graph["n"]
        return n, [(i, (i + 1) % n) for i in range(n)]
    if kind == "torus" and len(graph["dims"]) == 2:
        rows, cols = graph["dims"]
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                edges.append((v, ((r + 1) % rows) * cols + c))
                edges.append((v, r * cols + (c + 1) % cols))
        return rows * cols, edges
    raise ValueError(f"no independent edge list for graph {graph!r}")


def read_rows(path: Path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[:2] != [SCHEMA_LINE, ",".join(COLUMNS)]:
        raise ValueError(f"{path.name}: bad schema or header line")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(f"{path.name}: row {line!r} has {len(cells)} cells")
        rows.append(dict(zip(COLUMNS, map(float, cells))))
    return rows


def _row_problems(rows: list[dict], m: int) -> list[str]:
    bad = []
    for k, row in enumerate(rows):
        limits = {"time": math.inf, "W": float(m), "max_neighbor_dist": 1.0,
                  "mean_abs_delta": 1.0, "opinion_range": 2.0,
                  "sign_flip_fraction": 1.0}
        for col, top in limits.items():
            if not 0.0 <= row[col] <= top:
                bad.append(f"row {k}: {col}={row[col]!r} outside [0, {top}]")
        if abs(row["mean_abs_delta"] * m - row["W"]) > 1e-12 * row["W"]:
            bad.append(f"row {k}: mean_abs_delta*m={row['mean_abs_delta'] * m!r} "
                       f"is not W={row['W']!r}")
    for k in range(1, len(rows)):
        if rows[k]["W"] > rows[k - 1]["W"]:
            bad.append(f"W rose from {rows[k - 1]['W']!r} to {rows[k]['W']!r} at row {k}")
    return bad


def check_batch(batch_dir: Path, raw: dict, extra) -> tuple[dict, list[str]]:
    """Check a `run_batch` output directory against its raw config.

    `extra(rep, rows, x0, n, edges)` adds the workload's own per-replicate
    checks. Returns the problems of each failed replicate, keyed by index,
    and the problems of the batch as a whole.
    """
    replicates = raw["replicates"]
    try:
        agg = json.loads((batch_dir / "aggregate.json").read_text(encoding="utf-8"))
        reps = agg["replicates"]
        indices = [rep["replicate"] for rep in reps]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {i: [f"no aggregate: {exc}"] for i in range(replicates)}, []
    if indices != list(range(replicates)):
        return ({i: ["replicate missing from aggregate.json"] for i in range(replicates)},
                [f"aggregate lists replicates {indices}"])

    space = "circle" if raw["model"] == "compass" else "interval"
    n, edges = graph_edges(raw["graph"])
    m = len(edges)
    probes = [float(p) for p in raw["probes"]]
    width = max(4, len(str(replicates - 1)))
    failures = {}
    total_time = 0.0
    total_events = 0
    for rep in reps:
        i = rep["replicate"]
        bad = []
        if rep["stream_seed"] != derive(raw["seed"], "stream", i):
            bad.append(f"stream seed {rep['stream_seed']} is not the documented split")
        try:
            rows = read_rows(batch_dir / f"replicate_{i:0{width}d}.csv")
        except (OSError, ValueError) as exc:
            failures[i] = bad + [f"unreadable CSV: {exc}"]
            continue
        if len(rows) != len(probes) + 1:
            bad.append(f"{len(rows)} CSV rows for {len(probes)} probes plus the final state")
        else:
            for p, row in zip(probes, rows):
                if row["time"] != p:
                    bad.append(f"probe row at time {row['time']!r}, config asks {p!r}")
            if rows[-1]["time"] != rep["final_time"]:
                bad.append(f"final row time {rows[-1]['time']!r} is not the final "
                           f"clock {rep['final_time']!r}")
            for col in COLUMNS[1:]:
                if rows[-1][col] != rep["terminal"][col]:
                    bad.append(f"final row {col}={rows[-1][col]!r} disagrees with the "
                               f"aggregate's {rep['terminal'][col]!r}")
        bad += _row_problems(rows, m)
        x0 = initial_profile(derive(raw["seed"], "init", i), space, n)
        bad += extra(rep, rows, x0, n, edges)
        if bad:
            failures[i] = bad
        total_time += rep["final_time"]
        total_events += rep["events_applied"]

    problems = []
    if total_events:
        # the clock after E events of m unit-rate clocks is Gamma(E, m):
        # t*m/E has mean 1 and standard deviation 1/sqrt(E)
        z = (total_time * m / total_events - 1.0) * math.sqrt(total_events)
        if abs(z) > 5.0:
            problems.append(f"sum(final_time)*m/sum(events) is {z:.1f} standard "
                            "deviations from 1")
    return failures, problems


def ring_floor(rep, rows, x0, n, edges) -> list[str]:
    """A ring run ends at its winding floor; an unwound one reaches consensus."""
    bad = []
    w = rows[-1]["W"]
    floor = 2.0 * round(w / 2.0)
    if abs(w - floor) > 1e-6:
        bad.append(f"W={w!r} is not within 1e-6 of an even integer")
    if floor == 0.0:
        if rep["stop_reason"] != "w_below":
            bad.append(f"unwound run stopped on {rep['stop_reason']}, not w_below")
        if not rows[-1]["opinion_range"] < 1e-5:
            bad.append(f"unwound run has opinion range {rows[-1]['opinion_range']!r}")
        if rep["terminal"]["L"] is None:
            bad.append("unwound run reports no limit")
    limit = rep["terminal"]["L"]
    if limit is not None:
        k = (n * limit - math.fsum(x0)) / 2.0
        if abs(k - round(k)) > 1e-6:
            bad.append(f"(n*L - sum x0)/2 = {k!r} is not within 1e-6 of an integer")
    return bad


def full_budget(max_events: int):
    """A run whose W stop cannot trip spends its whole event budget."""

    def check(rep, rows, x0, n, edges) -> list[str]:
        bad = []
        if rep["events_applied"] != max_events or rep["stop_reason"] != "max_events":
            bad.append(f"stopped on {rep['stop_reason']} after {rep['events_applied']} "
                       f"of {max_events} events")
        if rows and rows[0]["time"] == 0.0:
            w0 = math.fsum(circle_gap(x0[a], x0[b]) for a, b in edges)
            if abs(rows[0]["W"] - w0) > 1e-9 * w0:
                bad.append(f"W at time 0 is {rows[0]['W']!r}, the initial profile "
                           f"gives {w0!r}")
        return bad

    return check


def interval_mean(rep, rows, x0, n, edges) -> list[str]:
    """An interval run converges to its conserved initial mean."""
    if rep["stop_reason"] != "w_below" or rep["terminal"]["L"] is None:
        return [f"interval run stopped on {rep['stop_reason']} without a limit"]
    gap = abs(rep["terminal"]["L"] - math.fsum(x0) / n)
    if gap > 1e-9:
        return [f"limit is {gap:.3g} from the initial mean"]
    return []


def tracked_gaps(edges, opinions, delta, xi) -> list[str]:
    """Tracked gaps equal the opinions' own gaps mod 2 and are dominated by xi."""
    bad = []
    if len(delta) != len(edges) or len(xi) != len(edges):
        return [f"{len(delta)} gaps and {len(xi)} bounds for {len(edges)} edges"]
    for i, (a, b) in enumerate(edges):
        err = circle_gap(delta[i], opinions[b] - opinions[a])
        if err > 1e-9:
            bad.append(f"edge {i}: tracked gap {delta[i]!r} is {err:.3g} from the opinions")
        if xi[i] < abs(delta[i]):
            bad.append(f"edge {i}: bound {xi[i]!r} below |gap| {abs(delta[i])!r}")
    return bad


def butterfly(result, n: int) -> list[str]:
    bad = []
    if not result.distance >= 0.8:
        bad.append(f"circle distance {result.distance!r} is below 0.8")
    x_n = n / (2 * n)
    exact = (1.0 - x_n) / (2 * n - 1)
    if abs(result.deffuant_shift - exact) > 1e-9:
        bad.append(f"interval shift {result.deffuant_shift!r} is not (1 - x_n)/(2n - 1) "
                   f"= {exact!r}")
    return bad


def same_batch(a: Path, b: Path) -> list[str]:
    """Two batch directories hold the same bytes, apart from aggregate metadata."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"file lists differ: {names_a} vs {names_b}"]
    bad = []
    for name in names_a:
        if name == "aggregate.json":
            agg_a, agg_b = (json.loads((d / name).read_text(encoding="utf-8"))
                            for d in (a, b))
            agg_a.pop("metadata", None)
            agg_b.pop("metadata", None)
            if agg_a != agg_b:
                bad.append("aggregate.json differs outside metadata")
        elif (a / name).read_bytes() != (b / name).read_bytes():
            bad.append(f"{name} differs")
    return bad
