"""The benchmark's workloads: their inputs, one timed round, its checks.

A workload is built from the benchmark seed alone. `run_round` does the
workload's fixed work once, as the timed region, and returns the events
it applied and what the checks need; `check_round` checks that output
apart from the timed work; `determinism` runs the seed-independent replay
checks once per benchmark run. Sizes are arguments so the tests can run
each workload small.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from compassmodel import cli, engine, scenarios, topology
from compassmodel.difference import DifferenceTracker
from compassmodel.opinion_space import ModelParams

from perfbench import checks


def consensus_budget(kind: str, n: int, mu: float, target: float = 1e-6) -> int:
    """ceil(2N), N = m ln(m/target)/(mu λ2): the events the slowest mode needs."""
    m = n if kind == "ring" else n - 1
    lam2 = 2.0 * (1.0 - math.cos((2.0 if kind == "ring" else 1.0) * math.pi / n))
    return math.ceil(2.0 * m * math.log(m / target) / (mu * lam2))


def batch_config(model: str, graph: dict, seed: int, replicates: int, stop: dict,
                 probes=(), mu: float = 0.5) -> dict:
    return {"model": model, "graph": graph, "mu": mu, "theta": None,
            "init": {"kind": "uniform"}, "seed": seed, "replicates": replicates,
            "stop": stop, "probes": list(probes), "tol": 1e-6}


def batch_events(aggregate: dict) -> int:
    return sum(rep["events_applied"] for rep in aggregate["replicates"])


def workers_agree(raw: dict, out: Path) -> list[str]:
    """A batch run with two worker processes writes the serial run's bytes."""
    saved = os.environ.get(cli.WORKERS_ENV)
    try:
        for workers in ("1", "2"):
            os.environ[cli.WORKERS_ENV] = workers
            cli.run_batch(cli.parse_config(raw), out / f"workers{workers}")
    finally:
        if saved is None:
            os.environ.pop(cli.WORKERS_ENV, None)
        else:
            os.environ[cli.WORKERS_ENV] = saved
    return [f"workers=2 vs serial: {p}"
            for p in checks.same_batch(out / "workers1", out / "workers2")]


def ops_failed(failures: dict) -> list[str]:
    return [f"{op}: {'; '.join(problems)}" for op, problems in sorted(failures.items())]


@dataclass
class Checked:
    """Problems of the operations that failed, and of the round as a whole."""

    failed: list[str]
    problems: list[str]


class BatchWorkload:
    """One serial `cli.run_batch`, checked replicate by replicate.

    `extra` is the workload's own per-replicate check (see
    `checks.check_batch`); `small` is the batch of the determinism check.
    """

    def __init__(self, name: str, seed: int, raw: dict, small: dict, extra):
        self.name = name
        self.seed = seed
        self.raw = raw
        self.small = small
        self.extra = extra
        self.ops = raw["replicates"]

    def run_round(self, out: Path):
        aggregate = cli.run_batch(cli.parse_config(self.raw), out / "batch")
        return batch_events(aggregate), out

    def check_round(self, out: Path) -> Checked:
        failures, problems = checks.check_batch(out / "batch", self.raw, self.extra)
        return Checked(ops_failed(failures), problems)

    def determinism(self, out: Path) -> list[str]:
        return workers_agree(self.small, out)


def ring_consensus(seed: int, replicates: int = 96, n: int = 50) -> BatchWorkload:
    """The paper's experiment: a batch of uniform starts on a ring, mu = 1/2."""
    raw = batch_config("compass", {"kind": "ring", "n": n}, seed, replicates,
                       {"max_events": consensus_budget("ring", n, 0.5), "w_below": 1e-6})
    small = batch_config("compass", {"kind": "ring", "n": n}, seed, 3,
                         {"max_events": 20_000, "w_below": 1e-6})
    return BatchWorkload("ring50-consensus", seed, raw, small, checks.ring_floor)


def torus_probes(seed: int, dims=(160, 160), replicates: int = 2,
                 events: int = 20_000) -> BatchWorkload:
    """A large torus with probes: the W stop test, probe metrics and graph builds."""
    m = 2 * dims[0] * dims[1]
    # probes spread over the expected run length events/m; the last one
    # sits 0.16 of it, 0.16*sqrt(events) standard deviations of the
    # final clock (22 at 20,000 events), before the run's mean end
    end = events / m
    probes = [0.0] + [round(k * 0.28 * end, 12) for k in (1, 2, 3)]
    raw = batch_config("compass", {"kind": "torus", "dims": list(dims)}, seed, replicates,
                       {"max_events": events, "w_below": 1e-6}, probes)
    small = batch_config("compass", {"kind": "torus", "dims": [12, 12]}, seed, 3,
                         {"max_events": 3_000, "w_below": 1e-6}, [0.0, 2.0, 4.0])
    return BatchWorkload("torus-probes", seed, raw, small, checks.full_budget(events))


@dataclass
class TrackedRun:
    opinions: list[float]
    delta: list[float]
    xi: list[float]
    events: int
    clock: float


class GeneralMix:
    """Runs off the inlined circle loop: interval batch, tracked runs, butterfly."""

    name = "general-mix"

    def __init__(self, seed: int, interval_replicates: int = 12, path_n: int = 50,
                 tracked_runs: int = 3, ring_n: int = 50, tracked_events: int = 100_000,
                 butterfly_n: int = 10):
        self.seed = seed
        self.raw = batch_config(
            "deffuant", {"kind": "path", "n": path_n}, seed, interval_replicates,
            {"max_events": consensus_budget("path", path_n, 0.5), "w_below": 1e-6})
        self.small = batch_config("deffuant", {"kind": "path", "n": path_n}, seed, 3,
                                  {"max_events": 50_000, "w_below": 1e-6})
        self.tracked_runs = tracked_runs
        self.ring_n = ring_n
        self.tracked_events = tracked_events
        self.butterfly_n = butterfly_n
        self.ops = interval_replicates + tracked_runs + 1

    def tracked_run(self, k: int, split: bool = True) -> TrackedRun:
        """A library run with a DifferenceTracker, resumed from a snapshot halfway."""
        initial = checks.initial_profile(checks.derive(self.seed, "tracked-init", k),
                                         "circle", self.ring_n)
        state = engine.new_simulation(
            topology.build_ring(self.ring_n), engine.Explicit(initial),
            ModelParams(mu=0.25),
            stream=engine.PoissonStream(checks.derive(self.seed, "tracked-stream", k)))
        tracker = DifferenceTracker(state, with_xi=True)
        if split:
            engine.run(state, stop=engine.StopRule(max_events=self.tracked_events // 2),
                       observers=[tracker])
            state = engine.restore(engine.snapshot(state))
            tracker.state = state
        engine.run(state, stop=engine.StopRule(max_events=self.tracked_events),
                   observers=[tracker], initial_opinions_for_limits=initial)
        return TrackedRun(list(state.opinions), list(tracker.delta.values),
                          list(tracker.xi.values), state.events_applied, state.clock)

    def run_round(self, out: Path):
        aggregate = cli.run_batch(cli.parse_config(self.raw), out / "batch")
        tracked = [self.tracked_run(k) for k in range(self.tracked_runs)]
        butterfly = scenarios.run_butterfly(self.butterfly_n, deffuant_seed=self.seed)
        # the butterfly's interval twin does not report its event count, so
        # only the two scripted runs count here
        events = (batch_events(aggregate) + sum(t.events for t in tracked)
                  + 2 * butterfly.schedule_events)
        return events, (out, tracked, butterfly)

    def check_round(self, outputs) -> Checked:
        out, tracked, butterfly = outputs
        failures, problems = checks.check_batch(out / "batch", self.raw,
                                                checks.interval_mean)
        _, edges = checks.graph_edges({"kind": "ring", "n": self.ring_n})
        for k, run in enumerate(tracked):
            bad = checks.tracked_gaps(edges, run.opinions, run.delta, run.xi)
            if run.events != self.tracked_events:
                bad.append(f"{run.events} events, asked for {self.tracked_events}")
            if bad:
                failures[f"tracked {k}"] = bad
        bad = checks.butterfly(butterfly, self.butterfly_n)
        if bad:
            failures["butterfly"] = bad
        return Checked(ops_failed({str(k): v for k, v in failures.items()}), problems)

    def determinism(self, out: Path) -> list[str]:
        problems = workers_agree(self.small, out)
        if self.tracked_run(0, split=True) != self.tracked_run(0, split=False):
            problems.append("a run resumed from a snapshot differs from the "
                            "uninterrupted run")
        return problems


WORKLOADS = {"ring50-consensus": ring_consensus, "torus-probes": torus_probes,
             "general-mix": GeneralMix}
