"""Spans around the package's public functions, kept in memory.

A Tracer replaces the package's functions with timing wrappers for the
length of a `with tracer.installed():` block and puts the originals back
afterwards. Names bound by `from ... import` are replaced in every module
that looks them up (`cli.run`, `engine.build_ring`, ...).

Each span records its name, start, end, parent span and run id; spans
opened while another is open share its run id. Calls made once per event
(the update rule, the difference tracker) would cost a span each, so they
are only tallied, as running (calls, seconds) totals; each span records
how far the totals moved while it was open. A span's self time is its
duration minus its child spans and the tallied calls made directly in it.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from functools import cached_property
from time import perf_counter

from compassmodel import analysis, cli, engine, scenarios, topology
from compassmodel.difference import DifferenceTracker

# (name, unit) of every metric layer_metrics() returns, in report order
LAYER_METRICS = (
    ("topology.build.calls", "count"),
    ("topology.build.s", "s"),
    ("topology.edge_pairs.s", "s"),
    ("engine.run.calls", "count"),
    ("engine.run.s", "s"),
    ("engine.run.self_s", "s"),
    ("engine.events", "count"),
    ("engine.budget_stops", "count"),
    ("engine.w_check_edge_visits", "count"),
    ("engine.snapshot.s", "s"),
    ("engine.restore.s", "s"),
    ("opinion_space.update.calls", "count"),
    ("opinion_space.update.s", "s"),
    ("difference.tracker.calls", "count"),
    ("difference.tracker.s", "s"),
    ("analysis.compute_metrics.calls", "count"),
    ("analysis.compute_metrics.s", "s"),
    ("analysis.extract_limits.calls", "count"),
    ("analysis.extract_limits.s", "s"),
    ("analysis.write_samples_csv.s", "s"),
    ("cli.parse_config.s", "s"),
    ("cli.run_batch.s", "s"),
    ("cli.run_batch.self_s", "s"),
    ("scenarios.run_butterfly.s", "s"),
)

# metrics the benchmark works out from span attributes instead of timing
COMPUTED = ("engine.w_check_edge_visits",)

# layers called once per event, tallied instead of spanned
TALLIED = ("opinion_space.update", "difference.tracker")


def w_checks(stop, events: int, events_total: int) -> int:
    """W stop tests one `run()` call made, from the engine's countdown rule.

    The test runs after every `w_check_interval` events and once more when
    the event budget is reached.
    """
    if stop is None or stop.w_below is None:
        return 0
    interval = stop.w_check_interval
    checks = events // interval
    at_budget = stop.max_events is not None and events_total >= stop.max_events
    if at_budget and (events % interval or events == 0):
        checks += 1
    return checks


def _describe_run(args, kwargs):
    state = args[0] if args else kwargs["state"]
    stop = kwargs.get("stop", args[2] if len(args) > 2 else None)
    start = state.events_applied

    def finish(record) -> dict:
        events = record.events_applied - start
        return {"events": events, "stop_reason": record.stop_reason,
                "edges": record.edge_count,
                "w_checks": w_checks(stop, events, record.events_applied)}

    return finish


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}
        self._stack: list[dict] = []
        self._runs = 0

    def _moved(self, since: dict) -> dict:
        return {name: (n - since.get(name, (0, 0.0))[0], sec - since.get(name, (0, 0.0))[1])
                for name, (n, sec) in self.totals.items()}

    def span(self, name: str, fn, describe=None):
        """Wrap fn so each call records a span; describe adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                run_id = self._runs
                self._runs += 1
            else:
                run_id = parent["run"]
            finish = describe(args, kwargs) if describe else None
            span = {"name": name, "id": len(self.spans),
                    "parent": None if parent is None else parent["id"],
                    "run": run_id, "start": 0.0, "end": 0.0, "tallies": {}}
            self.spans.append(span)
            self._stack.append(span)
            before = {k: tuple(v) for k, v in self.totals.items()}
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                span["tallies"] = self._moved(before)
                self._stack.pop()
            if finish:
                span["attrs"] = finish(result)
            return result

        return wrapper

    def tally(self, name: str, fn):
        """Wrap fn so each call adds (1, seconds) to the totals of name."""
        entry = self.totals.setdefault(name, [0, 0.0])
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            entry[1] += clock() - t0
            entry[0] += 1
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

        for name in ("build_path", "build_ring", "build_torus"):
            wrapped = self.span(f"topology.{name}", getattr(topology, name))
            for module in (topology, cli, engine, scenarios):
                if name in vars(module):
                    patch(module, name, wrapped)
        pairs = cached_property(self.span("topology.edge_pairs",
                                          vars(topology.Graph)["adjacent_edge_pairs"].func))
        pairs.__set_name__(topology.Graph, "adjacent_edge_pairs")
        patch(topology.Graph, "adjacent_edge_pairs", pairs)

        run = self.span("engine.run", engine.run, _describe_run)
        for module in (engine, cli, scenarios):
            patch(module, "run", run)
        for name in ("snapshot", "restore"):
            patch(engine, name, self.span(f"engine.{name}", getattr(engine, name)))
        for name in ("update_pair_compass", "update_pair_deffuant"):
            patch(engine, name, self.tally("opinion_space.update", getattr(engine, name)))
        patch(DifferenceTracker, "apply_event",
              self.tally("difference.tracker", DifferenceTracker.apply_event))

        for name in ("compute_metrics", "extract_limits", "write_samples_csv"):
            patch(analysis, name, self.span(f"analysis.{name}", getattr(analysis, name)))
        for name in ("parse_config", "run_batch"):
            patch(cli, name, self.span(f"cli.{name}", getattr(cli, name)))
        patch(scenarios, "run_butterfly",
              self.span("scenarios.run_butterfly", scenarios.run_butterfly))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def self_times(self) -> list[float]:
        def tallied(span):
            return sum(sec for _, sec in span["tallies"].values())

        own = [s["end"] - s["start"] - tallied(s) for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"] - tallied(s)
        return own

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for s, mine in zip(self.spans, own):
            key = "topology.build" if s["name"].startswith("topology.build_") else s["name"]
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + s["end"] - s["start"]
            self_s[key] = self_s.get(key, 0.0) + mine
        runs = [s["attrs"] for s in self.spans if s["name"] == "engine.run"]

        out = {}
        for name, _unit in LAYER_METRICS:
            layer, _, what = name.rpartition(".")
            if name == "engine.events":
                out[name] = sum(r["events"] for r in runs)
            elif name == "engine.budget_stops":
                out[name] = sum(r["stop_reason"] == "max_events" for r in runs)
            elif name == "engine.w_check_edge_visits":
                out[name] = sum(r["w_checks"] * r["edges"] for r in runs)
            elif layer in TALLIED:
                n, sec = self.totals.get(layer, (0, 0.0))
                out[name] = n if what == "calls" else sec
            elif what == "calls":
                out[name] = calls.get(layer, 0)
            elif what == "self_s":
                out[name] = self_s.get(layer, 0.0)
            else:
                out[name] = total.get(layer, 0.0)
        return out

    def dump(self) -> dict:
        """Spans with times relative to the first span, for the trace file."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [{**s, "start": s["start"] - t0, "end": s["end"] - t0}
                 for s in self.spans]
        return {"spans": spans, "tally_totals": self.totals}
