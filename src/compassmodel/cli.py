"""Command line front end: batch runs, canned scenarios, parameter sweeps.

Configs are JSON. Validation is strict and total: unknown keys are errors
and every problem in a config is reported in one pass, not just the first.
Exit codes: 0 on success, 1 when a scenario's contract fails or the scenario
cannot run, 2 on config or IO problems, a bad scenario override or a bad
COMPASSMODEL_WORKERS value.

Batch outputs land in the chosen directory: one replicate_NNNN.csv per
replicate (the probe rows plus a final-state row) and one aggregate.json.
Everything in those files is a pure function of the config and master seed
except the aggregate's "metadata" key, which holds the timestamp and wall
times; byte-compare the rest freely. Replicates can run in parallel
(COMPASSMODEL_WORKERS processes); results are keyed by replicate index, so
parallel and serial output are identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from . import analysis, scenarios
from .engine import (Constant, Explicit, IidUniform, PoissonStream, StopRule,
                     derive_seed, initial_opinions, new_simulation, run)
from .opinion_space import ModelParams, _is_num, validate_params
from .topology import _counted as _int, build_path, build_ring, build_torus, load_edge_list

__all__ = ["ConfigError", "parse_config", "load_config", "run_batch", "main"]

WORKERS_ENV = "COMPASSMODEL_WORKERS"
_SPACES = {"compass": "circle", "deffuant": "interval"}


class ConfigError(ValueError):
    """One or more problems with a config; .problems lists them all."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _is_finite(x) -> bool:
    # JSON has no NaN or Infinity, though Python's json reads them
    return _is_num(x) and math.isfinite(x)


def parse_config(raw: dict) -> dict:
    """Validate a raw config mapping, reporting every problem at once.

    Returns the normalized config, which aggregate.json echoes as it is: the
    keys model, graph, mu, theta, init, seed, replicates, stop, probes and
    tol in that order, with defaults filled in. theta is None for no
    confidence bound, graph and init keep only the keys of their kind, stop
    always carries w_check_interval, and mu, theta, tol, the probes and
    explicit init values are floats. NaN and Infinity are refused wherever
    a number goes, except that an infinite theta means no bound. Counts
    (graph.n and dims, seed, replicates, max_events, w_check_interval) take
    a whole float such as 1e6 as its int, as the library does.
    """
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError([f"config must be a JSON object, got {type(raw).__name__}"])

    known = {"model", "graph", "mu", "theta", "init", "seed", "replicates",
             "stop", "probes", "tol"}
    for key in raw:
        if key not in known:
            problems.append(f"unknown key {key!r}")

    model = raw.get("model", "compass")
    if model not in _SPACES:
        problems.append(f"model must be 'compass' or 'deffuant', got {model!r}")

    graph = raw.get("graph")
    vertices = None  # known for a valid path, ring or torus
    if not isinstance(graph, dict):
        problems.append("graph must be an object like {'kind': 'path', 'n': 50}")
    else:
        for key in graph:
            if key not in ("kind", "n", "dims", "path"):
                problems.append(f"unknown graph key {key!r}")
        kind = graph.get("kind")
        if kind not in ("path", "ring", "torus", "file"):
            problems.append(f"graph kind must be path, ring, torus, or file, got {kind!r}")
        elif kind in ("path", "ring"):
            n = graph.get("n")
            if _int(n) is None:
                problems.append(f"graph.n must be an integer, got {n!r}")
            elif n < (2 if kind == "path" else 3):
                problems.append(f"graph.n={n} is too small for a {kind}")
            else:
                vertices = _int(n)
            graph = {"kind": kind, "n": _int(n)}
        elif kind == "torus":
            dims = graph.get("dims")
            sides = [_int(d) for d in dims] if isinstance(dims, list) else []
            if not sides or None in sides:
                problems.append(f"graph.dims must be a list of integers, got {dims!r}")
            elif any(d < 3 for d in sides):
                problems.append(f"every torus side must be at least 3, got {sides}")
            else:
                graph = {"kind": kind, "dims": sides}
                vertices = math.prod(sides)
        else:
            path = graph.get("path")
            if not isinstance(path, str) or not path:
                problems.append(f"graph.path must be a file name, got {path!r}")
            graph = {"kind": kind, "path": path}

    mu = raw.get("mu", 0.5)
    theta = raw.get("theta")
    problems.extend(validate_params(mu, math.inf if theta is None else theta))

    init = raw.get("init", {"kind": "uniform"})
    if not isinstance(init, dict):
        problems.append("init must be an object like {'kind': 'uniform'}")
    else:
        for key in init:
            if key not in ("kind", "value", "values"):
                problems.append(f"unknown init key {key!r}")
        kind, value, values = init.get("kind", "uniform"), init.get("value"), init.get("values")
        init = {"kind": kind}
        if kind not in ("uniform", "constant", "explicit"):
            problems.append(f"init kind must be uniform, constant, or explicit, got {kind!r}")
        elif kind == "constant":
            if not _is_num(value):
                problems.append(f"init.value must be a number, got {value!r}")
            else:
                problems.extend(_chart_problems(Constant(value), 1, model))
            init["value"] = value
        elif kind == "explicit":
            if not isinstance(values, list) or not all(_is_num(v) for v in values):
                problems.append("init.values must be a list of numbers")
            else:
                init["values"] = [float(v) for v in values]
                problems.extend(_chart_problems(Explicit(values), len(values), model))
                if vertices is not None:
                    problems.extend(_count_problems(init, vertices))

    seed = raw.get("seed", 0)
    if _int(seed) is None:
        problems.append(f"seed must be an integer, got {seed!r}")

    replicates = raw.get("replicates", 1)
    if _int(replicates) is None or replicates < 1:
        problems.append(f"replicates must be a positive integer, got {replicates!r}")

    stop, known = raw.get("stop"), len(problems)
    if not isinstance(stop, dict):
        problems.append("stop must be an object with max_events, max_time, or w_below")
    else:
        for key in stop:
            if key not in ("max_events", "max_time", "w_below", "w_check_interval"):
                problems.append(f"unknown stop key {key!r}")
        stop_me = stop.get("max_events")
        if stop_me is not None and (_int(stop_me) is None or stop_me < 0):
            problems.append(f"stop.max_events must be a nonnegative integer, got {stop_me!r}")
        stop_mt = stop.get("max_time")
        if stop_mt is not None and (not _is_finite(stop_mt) or stop_mt < 0):
            problems.append(f"stop.max_time must be a nonnegative number, got {stop_mt!r}")
        stop_wb = stop.get("w_below")
        if stop_wb is not None and (not _is_finite(stop_wb) or stop_wb <= 0):
            problems.append(f"stop.w_below must be a positive number, got {stop_wb!r}")
        stop_iv = stop.get("w_check_interval", 100)
        if _int(stop_iv) is None or stop_iv < 1:
            problems.append(f"stop.w_check_interval must be a positive integer, got {stop_iv!r}")
        if stop_me is None and stop_mt is None and stop_wb is None:
            problems.append("stop needs at least one of max_events, max_time, w_below")
        stop = {key: v for key, v in (("max_events", _int(stop_me)), ("max_time", stop_mt),
                                      ("w_below", stop_wb)) if v is not None}
        stop["w_check_interval"] = _int(stop_iv)
        if len(problems) == known:
            try:
                StopRule(**stop)  # the library's own limits, such as a count past int64
            except ValueError as exc:
                problems.append(f"stop: {exc}")

    probes = raw.get("probes", [])
    if not isinstance(probes, list) or not all(_is_finite(p) for p in probes):
        problems.append("probes must be a list of numbers")
    elif any(probes[i] >= probes[i + 1] for i in range(len(probes) - 1)):
        problems.append("probes must be strictly increasing")

    tol = raw.get("tol", 1e-6)
    if not _is_finite(tol) or tol <= 0:
        problems.append(f"tol must be a positive number, got {tol!r}")

    if problems:
        raise ConfigError(problems)
    return {"model": model, "graph": graph, "mu": float(mu),
            "theta": None if theta is None or math.isinf(theta) else float(theta),
            "init": init, "seed": _int(seed), "replicates": _int(replicates), "stop": stop,
            "probes": [float(p) for p in probes], "tol": float(tol)}


def _chart_problems(spec, n: int, model) -> list[str]:
    """Init values outside the model's chart, as initial_opinions finds them."""
    if model not in _SPACES:
        return []
    try:
        initial_opinions(spec, n, _SPACES[model])
    except ValueError as exc:
        return [f"init: {exc}"]
    return []


def _count_problems(init: dict, vertices: int) -> list[str]:
    if init["kind"] == "explicit" and len(init["values"]) != vertices:
        return [f"init.values has {len(init['values'])} values for {vertices} vertices"]
    return []


def _read_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer of more than 4300 digits
        raise ConfigError([f"config {path} is not valid JSON: {exc}"]) from exc


def load_config(path) -> dict:
    return parse_config(_read_json(path))


def _build_graph(graph: dict):
    if graph["kind"] == "path":
        return build_path(graph["n"])
    if graph["kind"] == "ring":
        return build_ring(graph["n"])
    if graph["kind"] == "torus":
        return build_torus(graph["dims"])
    return load_edge_list(graph["path"])


def _one_replicate(args):
    cfg, i = args
    g = _build_graph(cfg["graph"])
    init = cfg["init"]
    if init["kind"] == "uniform":
        spec = IidUniform(derive_seed(cfg["seed"], "init", i))
    elif init["kind"] == "constant":
        spec = Constant(init["value"])
    else:
        spec = Explicit(init["values"])
    params = ModelParams(mu=cfg["mu"], theta=math.inf if cfg["theta"] is None else cfg["theta"])
    stream_seed = derive_seed(cfg["seed"], "stream", i)
    state = new_simulation(g, spec, params,
                           space=_SPACES[cfg["model"]],
                           stream=PoissonStream(stream_seed))
    record = run(state, stop=StopRule(**cfg["stop"]), probes=cfg["probes"], tol=cfg["tol"])
    rows = list(record.samples)
    if not rows or rows[-1].time != record.final_time:
        t = record.terminal
        rows.append(analysis.MetricSample(
            time=record.final_time, W=t["W"],
            max_neighbor_dist=t["max_neighbor_dist"],
            mean_abs_delta=t["mean_abs_delta"],
            opinion_range=t["opinion_range"],
            sign_flip_fraction=t["sign_flip_fraction"]))
    summary = {
        "replicate": i,
        "stream_seed": stream_seed,
        "stop_reason": record.stop_reason,
        "events_applied": record.events_applied,
        "final_time": record.final_time,
        "terminal": record.terminal,
        "wall_seconds": record.wall_seconds,
    }
    return i, summary, rows


def _write_atomic(dest: Path, write) -> None:
    """Call write(path) on a temporary name beside dest, then move the file
    into place, so dest is never left half written."""
    tmp = dest.with_name(f".{dest.name}.tmp")
    try:
        write(tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, dest)


def run_batch(cfg: dict, output_dir) -> dict:
    """Run every replicate of a parse_config result, then write the aggregate.

    Each replicate's CSV is written as it finishes. Raises ConfigError on an
    unwritable output directory, an unbuildable graph, an explicit start
    whose length is not the graph's vertex count or a bad
    COMPASSMODEL_WORKERS value, before any replicate runs. An exception in a
    replicate propagates: the CSVs of the replicates before it stay, and no
    aggregate.json is written. Every file is written under a temporary name
    and then renamed, so none is ever left partly written.
    """
    value = os.environ.get(WORKERS_ENV, "1") or "1"
    try:
        workers = int(value)
    except ValueError:
        raise ConfigError([f"{WORKERS_ENV} must be an integer, got {value!r}"]) from None
    if workers < 1:
        raise ConfigError([f"{WORKERS_ENV} must be at least 1, got {value!r}"])

    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_test"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError([f"cannot write to {out}: {exc}"]) from exc

    try:
        vertices = _build_graph(cfg["graph"]).vertex_count
    except (ValueError, OSError) as exc:
        raise ConfigError([f"cannot build graph: {exc}"]) from exc
    problems = _count_problems(cfg["init"], vertices)
    if problems:
        raise ConfigError(problems)

    replicates = cfg["replicates"]
    width = max(4, len(str(replicates - 1)))
    t0 = perf_counter()
    summaries = {}
    walls = {}

    def flush(i, summary, rows):
        _write_atomic(out / f"replicate_{i:0{width}d}.csv",
                      lambda path: analysis.write_samples_csv(rows, path))
        walls[i] = summary.pop("wall_seconds")
        summaries[i] = summary

    jobs = [(cfg, i) for i in range(replicates)]
    if workers > 1 and replicates > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, summary, rows in pool.map(_one_replicate, jobs):
                flush(i, summary, rows)
    else:
        for job in jobs:
            flush(*_one_replicate(job))

    ordered = [summaries[i] for i in sorted(summaries)]
    aggregate = {
        "schema": "compassmodel-aggregate-v1",
        "config": cfg,
        "replicates": ordered,
        "summary": _summarize(cfg, ordered),
        "metadata": {
            "created_at": datetime.now(timezone.utc).isoformat(),
            "wall_seconds": perf_counter() - t0,
            "replicate_wall_seconds": [walls[i] for i in sorted(walls)],
            "workers": workers,
        },
    }
    text = json.dumps(aggregate, indent=2) + "\n"
    _write_atomic(out / "aggregate.json", lambda path: path.write_text(text, encoding="utf-8"))
    return aggregate


def _summarize(cfg: dict, reps: list[dict]) -> dict:
    import statistics

    counts: dict[str, int] = {}
    for r in reps:
        c = r["terminal"]["consensus"]
        counts[c] = counts.get(c, 0) + 1
    ws = [r["terminal"]["W"] for r in reps]
    events = [r["events_applied"] for r in reps]
    limits = [r["terminal"]["L"] for r in reps if r["terminal"]["L"] is not None]
    n = len(reps)
    out = {
        "replicates": n,
        "consensus_counts": counts,
        "mean_terminal_W": statistics.fmean(ws) if ws else None,
        "se_terminal_W": (statistics.stdev(ws) / math.sqrt(n)) if n >= 2 else None,
        "mean_events_applied": statistics.fmean(events) if events else None,
        "limits": {
            "count": len(limits),
            "mean": statistics.fmean(limits) if limits else None,
            "sd": statistics.stdev(limits) if len(limits) >= 2 else None,
        },
        "limit_uniformity_pvalue": None,
    }
    if cfg["model"] == "compass" and len(limits) >= 500 and max(limits) > min(limits):
        out["limit_uniformity_pvalue"] = analysis.marginal_uniformity_test(limits).pvalue
    return out


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError([f"override {text!r} is not of the form key=value"])
    key, _, value = text.partition("=")
    try:
        return key.strip(), json.loads(value)
    except json.JSONDecodeError:
        return key.strip(), value


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    aggregate = run_batch(cfg, args.output)
    s = aggregate["summary"]
    print(f"{cfg['replicates']} replicate(s) -> {args.output}")
    print(f"consensus counts: {s['consensus_counts']}")
    print(f"mean terminal W: {s['mean_terminal_W']:.6g}")
    return 0


# scenario name -> (runner in scenarios, default arguments, one-line report)
_SCENARIOS = {
    "butterfly": ("run_butterfly", {"n": 10}, lambda r: (
        f"butterfly n={r.n}: terminal distance {r.distance:.6f} "
        f"(threshold {r.min_distance}), interval twin shift gap {r.deffuant_gap:.3e}")),
    "signflip": ("run_signflip", {"c": 0.5}, lambda r: (
        f"signflip c={r.c}: {r.vertex_count} vertices, "
        f"flip at event {r.first_flip_event} of {r.events_total}, "
        f"control flipped: {r.control_flipped}")),
    "deffuant_vs_compass": ("run_comparison", {"n": 20, "seed": 0}, lambda r: (
        f"deffuant_vs_compass n={r.n}, {r.replicates} replicates: interval limit sd "
        f"{'n/a' if r.deffuant_sd is None else format(r.deffuant_sd, '.5f')}, "
        f"circle limit uniformity p {r.compass_ks.pvalue:.4f}, "
        f"unconverged {r.compass_unconverged}")),
}


def _cmd_scenario(args) -> int:
    name = args.name
    runner, defaults, report = _SCENARIOS[name]
    overrides = dict(_parse_override(t) for t in args.set or [])
    try:
        # looked up per call, so a patched runner is the one that runs
        result = getattr(scenarios, runner)(**{**defaults, **overrides})
        line, passed = report(result), result.passed
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"bad scenario override: {exc}"]) from exc
    except RuntimeError as exc:
        print(f"error: scenario {name} could not run: {exc}", file=sys.stderr)
        return 1
    print(line)
    if args.output:
        out = Path(args.output)
        try:
            out.mkdir(parents=True, exist_ok=True)
            payload = {k: v for k, v in vars(result).items()
                       if isinstance(v, (int, float, str, bool, type(None)))}
            payload["scenario"] = name
            payload["passed"] = passed
            (out / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n",
                                              encoding="utf-8")
        except OSError as exc:
            raise ConfigError([f"cannot write to {out}: {exc}"]) from exc
    if not passed:
        print(f"scenario {name} FAILED its contract", file=sys.stderr)
        return 1
    print(f"scenario {name} passed")
    return 0


def _set_dotted(raw: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = raw
    for k in keys[:-1]:
        if not isinstance(node.get(k), dict):
            node[k] = {}
        node = node[k]
    node[keys[-1]] = value


def _point_dir(param: str, value) -> str:
    """A sweep point's directory, param=value as one path component: '%'
    and the separators written %25 and %2F (or %5C), one name a value."""
    name = f"{param}={value}"
    for sep in filter(None, ("%", os.sep, os.altsep)):
        name = name.replace(sep, f"%{ord(sep):02X}")
    return name


def _cmd_sweep(args) -> int:
    base = _read_json(args.config)
    values = []
    for chunk in args.values.split(","):
        chunk = chunk.strip()
        try:
            values.append(json.loads(chunk))
        except json.JSONDecodeError:
            values.append(chunk)
    index = []
    for value in values:
        raw = json.loads(json.dumps(base))
        _set_dotted(raw, args.param, value)
        sub = Path(args.output) / _point_dir(args.param, value)
        run_batch(parse_config(raw), sub)
        index.append({"value": value, "dir": sub.name})
        print(f"swept {args.param}={value} -> {sub}")
    out = Path(args.output)
    (out / "sweep.json").write_text(
        json.dumps({"param": args.param, "points": index}, indent=2) + "\n",
        encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="compassmodel",
        description="Event-driven opinion dynamics on the circle and the interval.")
    sub = parser.add_subparsers(dest="cmd")

    p_run = sub.add_parser("run", help="run a batch from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", default="out")

    p_sc = sub.add_parser("scenario", help="run a canned scenario")
    p_sc.add_argument("name", choices=_SCENARIOS)
    p_sc.add_argument("--set", action="append", metavar="KEY=VALUE",
                      help="override a scenario argument")
    p_sc.add_argument("-o", "--output", default=None)

    p_sw = sub.add_parser("sweep", help="run a batch per value of one parameter")
    p_sw.add_argument("config")
    p_sw.add_argument("--param", required=True, help="dotted config key, e.g. mu")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument("-o", "--output", default="sweep")

    args = parser.parse_args(argv)
    try:
        if args.cmd == "run":
            return _cmd_run(args)
        if args.cmd == "scenario":
            return _cmd_scenario(args)
        if args.cmd == "sweep":
            return _cmd_sweep(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
