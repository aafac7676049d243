"""Build, load and drive the compiled chunk kernel, `_kernel.c`.

The kernel is compiled on the first Poisson run that can use it, not at
import, with the system gcc into $XDG_CACHE_HOME/compassmodel (default
~/.cache/compassmodel), under a name that hashes the source and the flags,
and loaded with ctypes. Without gcc, or when reading the source, the build
or the load fails (with a RuntimeWarning), `load()` returns None and the
engine keeps to its Python loop.

For the length of a kernel run, the state's opinions are the kernel's own
buffer (`Opinions`), which the kernel updates in place and `engine._total_w`
sums in C; the run hands them back in the caller's list when it ends.

`metrics` is a probe of `analysis.compute_metrics` in one call into C: the
gaps, W (`math.fsum` bit for bit), the largest gap and the sign flips over
`Graph.incidence`. It returns None without the kernel, and when a gap or W
is not finite; `compute_metrics` then takes its numpy path, whose W is
`fsum`: `math.fsum` of a float64 buffer, summed in C when the kernel loads.
"""

from __future__ import annotations

import array
import ctypes
import math
import os
import shutil
import subprocess
import tempfile
import warnings
from hashlib import sha256
from pathlib import Path

import numpy as np

__all__: list[str] = []  # private to the engine and analysis

# -ffp-contract=off: no fused multiply-add, which would round differently
# from the scalar rules; no -ffast-math or -march for the same reason.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_SOURCE = Path(__file__).with_name("_kernel.c")
# the non-static functions of _kernel.c, name -> restype; each takes the
# context pointer. Calling one without its restype reads its result as int.
ENTRY_POINTS = {"cm_run": ctypes.c_int64, "cm_total_w": ctypes.c_double,
                "cm_fsum": ctypes.c_double, "cm_metrics": ctypes.c_double}

# The loaded library, False once building or loading failed, None until the
# first load(). Tests set it to False to run the Python loop instead.
_lib = None


class _Context(ctypes.Structure):
    # field for field `struct cm_ctx` in _kernel.c
    _fields_ = [
        ("mt", ctypes.c_void_p),
        ("tw", ctypes.c_void_p),
        ("tempered", ctypes.c_int64),
        ("edges", ctypes.c_void_p),
        ("op", ctypes.c_void_p),
        ("inc_start", ctypes.c_void_p),
        ("inc_ids", ctypes.c_void_p),
        ("d", ctypes.c_void_p),
        ("delta", ctypes.c_void_p),
        ("xi", ctypes.c_void_p),
        ("m", ctypes.c_int64),
        ("mu", ctypes.c_double),
        ("theta", ctypes.c_double),
        ("circle", ctypes.c_int64),
        ("clock", ctypes.c_double),
        ("next_probe", ctypes.c_double),
        ("max_time", ctypes.c_double),
        ("limit", ctypes.c_int64),
        ("drawn", ctypes.c_int64),
        ("t", ctypes.c_double),
        ("e", ctypes.c_int64),
        ("k", ctypes.c_int64),
        ("sum_w", ctypes.c_int64),
        ("w", ctypes.c_double),
        ("n", ctypes.c_int64),
        ("top", ctypes.c_double),
        ("flips", ctypes.c_int64),
        ("pairs", ctypes.c_int64),
    ]


def _build():
    gcc = shutil.which("gcc")
    if gcc is None:
        return False
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    try:
        tag = sha256(_SOURCE.read_bytes() + "\0".join(FLAGS).encode()).hexdigest()[:16]
        target = Path(cache) / "compassmodel" / f"_kernel-{tag}.so"
        if not target.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
            # a private name, then an atomic rename: batch workers may compile at once
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
            os.close(fd)
            try:
                subprocess.run([gcc, *FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                               check=True, capture_output=True, text=True, timeout=120)
                os.replace(tmp, target)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return _open(target)
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        warnings.warn(f"compiled event kernel unavailable, using the Python loop: {detail}",
                      RuntimeWarning, stacklevel=3)
        return False


def _open(path):
    """Load a build of `_kernel.c` and declare its entry points."""
    lib = ctypes.CDLL(str(path))
    for name, restype in ENTRY_POINTS.items():
        getattr(lib, name).argtypes = [ctypes.c_void_p]
        getattr(lib, name).restype = restype
    return lib


def load():
    """The kernel library, compiled and loaded on the first call; None if unavailable."""
    global _lib
    if _lib is None:
        _lib = _build()
    return _lib or None


def fsum(values) -> float:
    """`math.fsum(values)`, bit for bit, for float64 values in a buffer (an
    ndarray or an `array('d')`), which the kernel reads in place. Without the
    kernel, and when the C sum is not finite (a NaN or an infinity among the
    values, or overflow), `math.fsum` gives the value or raises."""
    lib = load()
    if lib:
        a = np.ascontiguousarray(values, dtype=np.float64)
        ctx = _Context(d=a.ctypes.data, m=a.size)  # both held through the call
        total = lib.cm_fsum(ctypes.addressof(ctx))
        if math.isfinite(total):
            return total
    return math.fsum(memoryview(values))


def metrics(g, opinions: np.ndarray, circle: bool, gaps: np.ndarray | None):
    """`analysis.compute_metrics`' W, largest |gap|, sign flips and adjacent
    edge pairs, as (W, largest, flips, pairs), from one call into the kernel.
    The gaps are worked out from the opinions unless given; both are
    contiguous float64 arrays, one entry per vertex and per edge. None
    without the kernel, and when a gap or W is not finite: the numpy path
    then gives the value or raises."""
    lib = load()
    if not lib:
        return None
    starts, ids = g.incidence
    if gaps is None:
        gaps, op = np.empty(g.edge_count), opinions.ctypes.data
    else:
        op = None
    # gaps and opinions are held through the call, the graph's tables by g
    ctx = _Context(edges=g.edge_array.ctypes.data, op=op, inc_start=starts.ctypes.data,
                   inc_ids=ids.ctypes.data, d=gaps.ctypes.data, m=g.edge_count,
                   n=g.vertex_count, circle=circle)
    w = lib.cm_metrics(ctypes.addressof(ctx))
    if not math.isfinite(w):
        return None
    return w, ctx.top, ctx.flips, ctx.pairs


class Opinions(array.array):
    """A kernel run's opinions: the kernel's own double buffer, which is
    `state.opinions` for the length of the run. While it is, `total_w()` is
    `engine._total_w` in C (`Chunks.total_w`)."""


class Chunks:
    """One run's kernel context: the opinions' buffer and the generator.

    For the length of the run, `state.opinions` is the kernel's buffer
    (`buf`, an `Opinions`), which `advance` updates in place: probes and
    `_total_w` read it without a copy. `close` copies it back into the
    caller's list and puts that same list back on the state; the engine
    calls `close` also when the run raises. It hands the generator back too.
    The next `advance` first applies, and counts, the event given to `hold`;
    if none does, `close` hands it back.

    The kernel reads the graph's int64 `edge_array` and `incidence` in
    place. Given `sum_w` (the run has a W test), a chunk that completes its
    limit also leaves T, the W sum of the opinions it ends with, for the
    test due there (`total_w`).

    The generator's state words live in `mt` for the length of the run; the
    kernel keeps their index in a local through each chunk and writes it
    back at the chunk's end. `tw` holds the tempered words of the state's
    current block: the first chunk tempers the block the state comes with,
    and the kernel tempers each block it makes, once, so events read their
    words from `tw` across chunks. `close` hands back `mt` alone, which is
    all of `getstate()`.

    Given a DifferenceTracker of the state, whose gaps (and bounds, if any)
    `run` has checked to hold one entry per edge, the kernel updates copies
    of them after every event, as the tracker's `apply_event` would;
    `close` writes them back into the tracker's lists in place.
    """

    def __init__(self, lib, state, rng, max_time: float, tracker=None, sum_w: bool = False):
        g = state.graph
        self._run = lib.cm_run
        self._total_w = lib.cm_total_w
        self.state = state
        self.caller_opinions = state.opinions
        self.rng = rng
        # kept referenced: the kernel holds pointers into these buffers (the
        # graph, which the run holds, keeps its own tables)
        self.buf = Opinions("d", state.opinions)
        self.version, words, self.gauss = rng.getstate()
        self.mt = array.array("I", words)
        self.tw = array.array("I", bytes(4 * (len(words) - 1)))
        ctx = self.ctx = _Context()
        ctx.mt = self.mt.buffer_info()[0]
        ctx.tw = self.tw.buffer_info()[0]
        ctx.edges = g.edge_array.ctypes.data
        ctx.op = self.buf.buffer_info()[0]
        ctx.inc_start, ctx.inc_ids = (a.ctypes.data for a in g.incidence)
        self.tracker = tracker
        if tracker is not None:
            self.delta = array.array("d", tracker.delta.values)
            ctx.delta = self.delta.buffer_info()[0]
            if tracker.xi is not None:
                self.xi = array.array("d", tracker.xi.values)
                ctx.xi = self.xi.buffer_info()[0]
        ctx.m = g.edge_count
        ctx.mu, ctx.theta = state.params.mu, state.params.theta
        ctx.circle = state.space == "circle"
        ctx.clock = state.clock
        ctx.max_time = max_time
        # advance writes limit and next_probe only when they change
        self.limit, self.next_probe = 0, math.inf
        ctx.limit, ctx.next_probe = self.limit, self.next_probe
        ctx.sum_w = sum_w
        ctx.w = math.nan  # no T before the first chunk
        # a pointer object, which ctypes passes faster than an int
        self.address = ctypes.c_void_p(ctypes.addressof(ctx))
        self.buf.total_w = self.total_w
        state.opinions = self.buf

    def advance(self, limit: int, next_probe: float):
        """Apply up to limit events, the held one first; return how many, and
        the event drawn past next_probe or max_time, unapplied, as (t, e, k)
        or None. A chunk that applies all limit events draws none past them,
        and costs the one call into the kernel: `limit` and `next_probe` are
        written to the context only when they change, and the clock stays
        there until `close`."""
        ctx = self.ctx
        if limit != self.limit:
            ctx.limit = self.limit = limit
        if next_probe != self.next_probe:
            ctx.next_probe = self.next_probe = next_probe
        done = self._run(self.address)
        if done == limit:
            return done, None
        ctx.drawn = 0  # the engine's from here: it holds the event again, or parks it
        return done, (ctx.t, ctx.e, ctx.k)

    def hold(self, t: float, e: int, k: int) -> None:
        """Hold one event for the next `advance` to apply first."""
        ctx = self.ctx
        ctx.t, ctx.e, ctx.k, ctx.drawn = t, e, k, 1

    def total_w(self) -> float:
        """`engine._total_w` of the kernel's opinions: T, when the chunk that
        just ended left it (see `sum_w`), else the sum in C."""
        t = self.ctx.w
        return t if t == t else self._total_w(self.address)

    def close(self) -> tuple[float, tuple[float, int, int] | None]:
        """Put the caller's list back on the state, holding the kernel's
        opinions; hand the generator's state back, and write the tracker's
        gaps and bounds back into its lists. Return the time of the last
        applied event, and the held event, which no `advance` applied, as
        (t, e, k) or None."""
        del self.buf.total_w  # a plain array from here on
        self.state.opinions = self.caller_opinions
        self.caller_opinions[:] = self.buf.tolist()
        self.rng.setstate((self.version, tuple(self.mt), self.gauss))
        if self.tracker is not None:
            self.tracker.delta.values[:] = self.delta.tolist()
            if self.tracker.xi is not None:
                self.tracker.xi.values[:] = self.xi.tolist()
        ctx = self.ctx
        return ctx.clock, (ctx.t, ctx.e, ctx.k) if ctx.drawn else None
