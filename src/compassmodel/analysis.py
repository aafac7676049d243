"""Metrics, convergence classification, limit extraction, and statistics.

This module never runs dynamics. It consumes opinion profiles and run
records, and produces numbers: per-probe metric rows of the opinions' gaps,
consensus classes, limit values with their conserved-quantity checks, and
the statistical tests used by the calibration suite.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

from .opinion_space import mod_s
from .topology import Graph

__all__ = [
    "MetricSample",
    "RunRecord",
    "LimitReport",
    "MonotoneReport",
    "UniformityReport",
    "compute_metrics",
    "circle_opinion_range",
    "consensus_classify",
    "extract_limits",
    "monotone_mean_delta_check",
    "marginal_uniformity_test",
    "ks_uniform_pvalue",
    "write_samples_csv",
    "read_samples_csv",
    "CSV_SCHEMA",
    "CSV_COLUMNS",
]

CSV_SCHEMA = "compassmodel-metrics-v1"
CSV_COLUMNS = ("time", "W", "max_neighbor_dist", "mean_abs_delta",
               "opinion_range", "sign_flip_fraction")


@dataclass(frozen=True)
class MetricSample:
    """One probe row: the state of a run at a single time."""

    time: float
    W: float
    max_neighbor_dist: float
    mean_abs_delta: float
    opinion_range: float
    sign_flip_fraction: float


@dataclass
class RunRecord:
    """Everything a finished run reports.

    The samples list holds one MetricSample per probe time, in order, and
    terminal holds the classification of the final state plus limit values
    when the run actually converged. wall_seconds is the only
    non-reproducible field and is serialized under a separate metadata key
    so byte comparisons of the deterministic payload stay meaningful.
    """

    space: str
    graph_kind: str
    vertex_count: int
    edge_count: int
    mu: float
    theta: float
    seed: int | None
    stop_reason: str
    events_applied: int
    final_time: float
    samples: list[MetricSample]
    terminal: dict
    wall_seconds: float
    final_opinions: list[float] | None = field(default=None, repr=False)

    def to_json(self, include_opinions: bool = False, indent=None) -> str:
        payload = {
            "schema": "compassmodel-run-v1",
            "space": self.space,
            "graph": {"kind": self.graph_kind,
                      "vertex_count": self.vertex_count,
                      "edge_count": self.edge_count},
            "params": {"mu": self.mu,
                       "theta": None if math.isinf(self.theta) else self.theta},
            "seed": self.seed,
            "stop_reason": self.stop_reason,
            "events_applied": self.events_applied,
            "final_time": self.final_time,
            "samples": [vars(s).copy() for s in self.samples],
            "terminal": self.terminal,
            "metadata": {"wall_seconds": self.wall_seconds},
        }
        if include_opinions:
            payload["final_opinions"] = self.final_opinions
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        raw = json.loads(text)
        if raw.get("schema") != "compassmodel-run-v1":
            raise ValueError(f"unrecognized record schema {raw.get('schema')!r}")
        theta = raw["params"]["theta"]
        return cls(
            space=raw["space"],
            graph_kind=raw["graph"]["kind"],
            vertex_count=raw["graph"]["vertex_count"],
            edge_count=raw["graph"]["edge_count"],
            mu=raw["params"]["mu"],
            theta=math.inf if theta is None else theta,
            seed=raw["seed"],
            stop_reason=raw["stop_reason"],
            events_applied=raw["events_applied"],
            final_time=raw["final_time"],
            samples=[MetricSample(**s) for s in raw["samples"]],
            terminal=raw["terminal"],
            wall_seconds=raw["metadata"]["wall_seconds"],
            final_opinions=raw.get("final_opinions"),
        )


def _chart(x: np.ndarray) -> np.ndarray:
    """mod_s on an array: the same exact fmod and +-2 fold, the same error.
    An array already in the chart (-1, 1], which both leave as it is (-0.0
    too), comes back unchanged; NaN is never in it."""
    if not x.size or x.min() > -1.0 and x.max() <= 1.0:
        return x
    bad = ~np.isfinite(x)
    if bad.any():
        raise ValueError(f"opinion values must be finite, got {float(x[bad][0])!r}")
    y = np.fmod(x, 2.0)
    return np.where(y > 1.0, y - 2.0, np.where(y <= -1.0, y + 2.0, y))


def _gaps(g: Graph, x: np.ndarray, circle: bool) -> np.ndarray:
    """The signed gap of each edge, x[head] - x[tail], in `_chart` on the
    circle: what a probe measures, and `difference.delta_from_config`'s gaps."""
    delta = x[g.edge_array[:, 1]] - x[g.edge_array[:, 0]]
    return _chart(delta) if circle else delta


def circle_opinion_range(opinions) -> float:
    """Length of the smallest closed arc containing all the opinions.

    Two minus the largest gap between circularly consecutive values; zero
    for a single opinion or a fully concentrated profile.
    """
    vals = np.sort(_chart(np.asarray(opinions, dtype=float)))
    if vals.size <= 1:
        return 0.0
    # grouping the subtraction first keeps a fully concentrated profile at
    # exactly zero range (0.3 + 2.0 already rounds)
    largest = max(float(vals[0] - vals[-1]) + 2.0, float(np.diff(vals).max()))
    return 2.0 - largest


def compute_metrics(g: Graph, opinions, space: str = "circle",
                    at_time: float = 0.0) -> MetricSample:
    """Evaluate all per-probe metrics for one opinion profile.

    Every metric measures the opinions, whose gaps `_gaps` gives. W is an
    exactly rounded sum, `math.fsum` bit for bit, so it does not depend on
    edge order. The sign-flip fraction counts the pairs of edges at one
    vertex whose gaps multiply to below zero. When the compiled kernel
    loads, the gaps, W, the largest gap and the flips come from one
    streaming pass over the edges in C (`_kernel.metrics`), which sums W
    exactly in fixed point and rounds it once, in time that does not grow
    with the spread of the gaps, and counts each gap's sign at both of its
    ends; without it, and when a gap is not finite or W rounds past the
    largest double, numpy passes and `math.fsum` give the same bits, or the
    same error.
    """
    if space not in ("circle", "interval"):
        raise ValueError(f"unknown space {space!r}")
    if len(opinions) != g.vertex_count:
        raise ValueError(f"expected {g.vertex_count} opinions, got {len(opinions)}")
    x = np.ascontiguousarray(opinions, dtype=float)
    w, max_nd, flips, pairs = _gap_pass(g, x, space == "circle")
    mean_ad = w / g.edge_count if g.edge_count else 0.0
    if space == "circle":
        rng = circle_opinion_range(x)
    else:
        rng = max(opinions) - min(opinions) if len(opinions) else 0.0
    return MetricSample(time=at_time, W=w, max_neighbor_dist=max_nd,
                        mean_abs_delta=mean_ad, opinion_range=rng,
                        sign_flip_fraction=flips / pairs if pairs else 0.0)


def _gap_pass(g: Graph, x: np.ndarray, circle: bool):
    """compute_metrics' pass over the edges: (W, the largest |gap|, the sign
    flips, the adjacent edge pairs) of the gaps of the opinions `x`, a
    contiguous float64 array of one entry per vertex. A W stop in the engine
    decides on this W, so a run stops on the W its record reports."""
    # imported here, so the kernel's build stays out of the package import
    from . import _kernel
    found = _kernel.metrics(g, x, circle)
    if found:
        return found
    delta = _gaps(g, x, circle)
    absd = np.abs(delta)
    # as the builtin max over the list: a leading NaN wins, later ones are skipped
    max_nd = float(max(absd[0], np.fmax.reduce(absd))) if absd.size else 0.0
    return (math.fsum(memoryview(absd)), max_nd, *_sign_flips(g, delta))


def consensus_classify(record_or_sample, tol: float = 1e-6) -> str:
    """Classify a final state: 'strong-like', 'weak-only-like', or 'none'.

    Strong means globally concentrated (opinion range under tol). Weak-only
    means every edge is locally tight but the profile stays spread out, the
    signature of a wound state on a ring. Anything else is 'none'.

    A ring of n vertices wound k != 0 times keeps W >= 2|k|, so some edge
    keeps a distance of at least 2|k|/n: such a ring is 'weak-only-like'
    only when n > 2/tol (over two million vertices at tol = 1e-6). Smaller
    wound rings are 'none'.
    """
    x = record_or_sample
    if isinstance(x, RunRecord):
        rng = x.terminal["opinion_range"]
        max_nd = x.terminal["max_neighbor_dist"]
    else:
        rng = x.opinion_range
        max_nd = x.max_neighbor_dist
    if rng < tol:
        return "strong-like"
    if max_nd < tol:
        return "weak-only-like"
    return "none"


@dataclass(frozen=True)
class LimitReport:
    """The consensus value and its conserved-quantity diagnostics.

    On the interval, conservation_gap is the distance between the limit and
    the initial mean (zero up to rounding; the mean is conserved). On the
    circle the limit satisfies n * L = sum of initial opinions + 2K for an
    integer K, so K_gap, the distance from the inferred K to the nearest
    integer, measures how well the run honored the conservation law. K is
    reported for one particular lift of L; shifting the lift by 2 shifts K
    by the vertex count.
    """

    L: float
    conservation_gap: float | None = None
    K: int | None = None
    K_gap: float | None = None


def extract_limits(record: RunRecord, initial_opinions,
                   tol: float = 1e-6) -> LimitReport:
    """Read off the consensus value of a converged run.

    Raises if the record did not reach a strong-like state or carries no
    final opinions.
    """
    if record.final_opinions is None:
        raise ValueError("record carries no final opinions")
    if consensus_classify(record, tol) != "strong-like":
        raise ValueError(
            "limits are defined only for strong-like runs, terminal range "
            f"was {record.terminal['opinion_range']:.3g}")
    if len(initial_opinions) != record.vertex_count:
        raise ValueError(f"expected {record.vertex_count} initial opinions")
    if record.space == "interval":
        lim = fmean(record.final_opinions)
        return LimitReport(L=lim, conservation_gap=abs(lim - fmean(initial_opinions)))
    return _circle_limits(record.final_opinions, initial_opinions)


def _circle_lift(opinions) -> float:
    """Mean of a concentrated circle profile, unwrapped around its first value.

    Meaningful when the profile fits inside an open half circle; once a run
    is that concentrated no further event can cross the cut, so mod_s of
    this value is frozen and equals the eventual consensus limit.
    """
    ref = mod_s(opinions[0])
    return ref + fmean([mod_s(v - ref) for v in opinions])


def _circle_limits(final_opinions, initial_opinions) -> LimitReport:
    lift = _circle_lift(final_opinions)
    n = len(final_opinions)
    k_real = (n * lift - math.fsum(initial_opinions)) / 2.0
    k = round(k_real)
    return LimitReport(L=mod_s(lift), K=k, K_gap=abs(k_real - k))


@dataclass(frozen=True)
class MonotoneReport:
    times: tuple[float, ...]
    means: tuple[float, ...]
    standard_errors: tuple[float, ...]
    violations: tuple[int, ...]
    passed: bool


def monotone_mean_delta_check(times, estimates) -> MonotoneReport:
    """Check that a mean-gap curve never increases beyond noise.

    estimates is a replicates-by-times array of per-run values. Index i is
    flagged when the mean at times[i+1] exceeds the mean at times[i] by more
    than twice the standard error of their difference.
    """
    arr = np.asarray(estimates, dtype=float)
    times = tuple(float(t) for t in times)
    if len(times) < 2:
        raise ValueError("need at least 2 probe times")
    if arr.ndim != 2 or arr.shape[1] != len(times):
        raise ValueError(f"estimates must be replicates x {len(times)} times")
    if arr.shape[0] < 50:
        raise ValueError(f"need at least 50 replicates, got {arr.shape[0]}")
    means = arr.mean(axis=0)
    ses = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
    bad = []
    for i in range(len(times) - 1):
        allowance = 2.0 * math.hypot(ses[i], ses[i + 1])
        if means[i + 1] > means[i] + allowance:
            bad.append(i)
    return MonotoneReport(times=times, means=tuple(means.tolist()),
                          standard_errors=tuple(ses.tolist()),
                          violations=tuple(bad), passed=not bad)


@dataclass(frozen=True)
class UniformityReport:
    statistic: float
    pvalue: float
    n_samples: int
    method: str


def ks_uniform_pvalue(samples, low: float = -1.0, high: float = 1.0) -> UniformityReport:
    """Kolmogorov-Smirnov test against Uniform(low, high).

    Uses the exact null distribution up to 100 samples and the asymptotic
    form beyond that.
    """
    from scipy import stats  # about a second to import, so only when needed

    arr = np.asarray(list(samples), dtype=float)
    method = "exact" if arr.size <= 100 else "asymp"
    res = stats.kstest(arr, "uniform", args=(low, high - low), method=method)
    return UniformityReport(statistic=float(res.statistic), pvalue=float(res.pvalue),
                            n_samples=int(arr.size), method=method)


def marginal_uniformity_test(samples) -> UniformityReport:
    """Test a batch of circle opinions against the uniform marginal.

    Needs at least 500 samples to have any power worth reporting, and
    refuses degenerate (constant) batches, where the verdict is trivially
    a rejection and almost surely a caller bug.
    """
    vals = list(samples)
    if len(vals) < 500:
        raise ValueError(f"need at least 500 samples, got {len(vals)}")
    if max(vals) == min(vals):
        raise ValueError("samples are constant; uniformity test is meaningless")
    return ks_uniform_pvalue(vals, -1.0, 1.0)


def _sign_flips(g: Graph, delta: np.ndarray) -> tuple[int, int]:
    """The pairs of edges at one vertex whose gaps multiply to below zero,
    and all such pairs: `_kernel.metrics`' counts in numpy."""
    starts, ids = g.incidence
    degree = np.diff(starts)
    pairs = int(degree @ (degree - 1)) // 2
    if not pairs:
        return 0, 0
    gaps = delta[ids]
    # the positive and the negative gaps at each vertex in one pass, packed
    # as pos + neg * 2**32 (a vertex has fewer than 2**32 edges)
    signs = np.add.reduceat((gaps < 0.0).astype(np.int64) << 32 | (gaps > 0.0), starts[:-1])
    pos, neg = signs & 0xFFFFFFFF, signs >> 32
    flips = int(pos @ neg)
    # a product with a gap under 2**-537 may underflow to -0.0 and not count:
    # at the ends of such an edge, take back each tiny gap's products of the
    # other sign that do, a pair of two tiny gaps once
    tiny = np.flatnonzero((delta != 0.0) & (np.abs(delta) < 2.0 ** -537))
    for v in np.unique(g.edge_array[tiny]):
        row = gaps[starts[v]:starts[v + 1]]
        small = (row != 0.0) & (np.abs(row) < 2.0 ** -537)
        for i in np.flatnonzero(small):
            lost = ((row > 0.0) if row[i] < 0.0 else (row < 0.0)) & ~(row[i] * row < 0.0)
            lost[i + 1:] &= ~small[i + 1:]
            flips -= int(np.count_nonzero(lost))
    return flips, pairs


def write_samples_csv(samples, dest) -> None:
    """Write probe rows as CSV with a schema comment line on top.

    Floats are written with repr, the shortest round-tripping form, so a
    byte comparison of two files is a float-exact comparison of the runs.
    """
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "w", newline="", encoding="utf-8") if own else dest
    try:
        fh.write(f"# {CSV_SCHEMA}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for s in samples:
            row = (s.time, s.W, s.max_neighbor_dist, s.mean_abs_delta,
                   s.opinion_range, s.sign_flip_fraction)
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    finally:
        if own:
            fh.close()


def read_samples_csv(src) -> list[MetricSample]:
    own = isinstance(src, (str, bytes)) or hasattr(src, "__fspath__")
    fh = open(src, "r", newline="", encoding="utf-8") if own else src
    try:
        first = fh.readline().strip()
        if first != f"# {CSV_SCHEMA}":
            raise ValueError(f"unrecognized CSV schema line {first!r}")
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns {reader.fieldnames!r}")
        return [MetricSample(**{k: float(v) for k, v in row.items()}) for row in reader]
    finally:
        if own:
            fh.close()
