"""Build, load and drive the compiled chunk kernel, `_kernel.c`.

The kernel is a CPython extension module, compiled on first use (the
first graph it checks, or the first Poisson or scripted run or probe that
can use it), not at import, with the system gcc and the interpreter's
headers into $XDG_CACHE_HOME/compassmodel (default ~/.cache/compassmodel),
under a name that hashes the source, the flags and the interpreter (its
extension suffix and include directories), and loaded with importlib. Its
`run` and `total_w` each take the address of a `_Context`, the ctypes
description of `struct cm_ctx`; ctypes only lays out the context, and no
call goes through it. Without gcc or without Python.h, or when
reading the source, the build or the load fails (with a RuntimeWarning),
`load()` returns None: the engine keeps to its Python loop, `Graph` to its
numpy checks.

For the length of a kernel run, the state's opinions are the kernel's own
buffer (`Opinions`), which the kernel updates in place and `engine._total_w`
sums in C; the run hands them back in the caller's list when it ends.

`metrics` is a probe of `analysis.compute_metrics` in one call into C: the
gaps, W (summed exactly in fixed point and rounded once: `math.fsum` bit for
bit), the largest gap and the sign flips over `Graph.incidence`. It returns
None without the kernel, and when a gap or W is not finite;
`compute_metrics` then takes its numpy path, which gives the same bits or
raises.

`graph` is `Graph`'s checks in one O(n + m) call into C, which also builds
the graph's CSR `incidence`. It and `metrics` take the arrays themselves,
through the buffer protocol, not a context.
"""

from __future__ import annotations

import array
import ctypes
import importlib.util
import math
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from hashlib import sha256
from pathlib import Path

import numpy as np

from .engine import Event, ScriptedStream

__all__: list[str] = []  # private to the engine and analysis

# -ffp-contract=off: no fused multiply-add, which would round differently
# from the scalar rules; no -ffast-math or -march for the same reason.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_SOURCE = Path(__file__).with_name("_kernel.c")

# The loaded module, False once building or loading failed, None until the
# first load(). Tests set it to False to run the Python loop instead.
_lib = None


class _Context(ctypes.Structure):
    # field for field `struct cm_ctx` in _kernel.c
    _fields_ = [
        ("mt", ctypes.c_void_p),
        ("tw", ctypes.c_void_p),
        ("tempered", ctypes.c_int64),
        ("sched_t", ctypes.c_void_p),
        ("sched_e", ctypes.c_void_p),
        ("sched_k", ctypes.c_void_p),
        ("sched_end", ctypes.c_int64),
        ("sched_next", ctypes.c_int64),
        ("edges", ctypes.c_void_p),
        ("op", ctypes.c_void_p),
        ("inc_start", ctypes.c_void_p),
        ("inc_ids", ctypes.c_void_p),
        ("delta", ctypes.c_void_p),
        ("xi", ctypes.c_void_p),
        ("m", ctypes.c_int64),
        ("mu", ctypes.c_double),
        ("theta", ctypes.c_double),
        ("circle", ctypes.c_int64),
        ("clock", ctypes.c_double),
        ("count", ctypes.c_int64),
        ("next_probe", ctypes.c_double),
        ("max_time", ctypes.c_double),
        ("limit", ctypes.c_int64),
        ("drawn", ctypes.c_int64),
        ("t", ctypes.c_double),
        ("e", ctypes.c_int64),
        ("k", ctypes.c_int64),
        ("sum_w", ctypes.c_int64),
        ("w", ctypes.c_double),
    ]


def _includes() -> list[str]:
    """-I flags for this interpreter's C headers, Python.h among them."""
    paths = sysconfig.get_paths()
    return [f"-I{d}" for d in dict.fromkeys((paths["include"], paths["platinclude"]))]


def _target(cache: str) -> Path:
    """The build of this source with these flags for this interpreter: the
    name hashes all three, so no interpreter loads another's build."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = "\0".join([*FLAGS, *_includes(), suffix]).encode()
    tag = sha256(_SOURCE.read_bytes() + key).hexdigest()[:16]
    return Path(cache) / "compassmodel" / f"_kernel-{tag}{suffix}"


def _build():
    gcc = shutil.which("gcc")
    if gcc is None:
        return False
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    try:
        target = _target(cache)
        if not target.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
            # a private name, then an atomic rename: batch workers may compile at once
            fd, tmp = tempfile.mkstemp(suffix=target.suffix, dir=target.parent)
            os.close(fd)
            try:
                subprocess.run([gcc, *FLAGS, *_includes(), "-o", tmp, str(_SOURCE), "-lm"],
                               check=True, capture_output=True, text=True, timeout=120)
                os.replace(tmp, target)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return _open(target)
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        warnings.warn(f"compiled event kernel unavailable, using the Python loop: {detail}",
                      RuntimeWarning, stacklevel=3)
        return False


def _open(path):
    """Load a build of `_kernel.c`: the extension module whose `run` and
    `total_w` take a `_Context`'s address."""
    # the name's last part names PyInit__kernel_c; the .so suffix picks the loader
    spec = importlib.util.spec_from_file_location("compassmodel._kernel_c", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load():
    """The kernel module, compiled and loaded on the first call; None if unavailable."""
    global _lib
    if _lib is None:
        _lib = _build()
    return _lib or None


def metrics(g, opinions, circle: bool, gaps):
    """`analysis.compute_metrics`' W, largest |gap|, sign flips and adjacent
    edge pairs, as (W, largest, flips, pairs), from one call into the kernel.
    The gaps are worked out from the opinions unless given; either is a
    contiguous float64 buffer, one entry per vertex or per edge. None
    without the kernel, and when a gap or W is not finite: the numpy path
    then gives the value or raises."""
    lib = load()
    if not lib:
        return None
    starts, ids = g.incidence
    given = gaps is not None
    found = lib.metrics(g.edge_array, starts, ids, gaps if given else opinions, circle,
                        not given)
    return found if math.isfinite(found[0]) else None


def graph(edges: np.ndarray, n: int):
    """`Graph`'s checks of the int64 (m, 2) array `edges` on n vertices, in
    one C pass: the id of the first offending edge (an endpoint out of
    range, a self-loop or a repeated pair), or -1 when the graph is not
    connected, or its CSR `incidence` (starts, ids), read-only. None
    without the kernel."""
    lib = load()
    if not lib:
        return None
    starts, ids = np.empty(n + 1, dtype=np.int64), np.empty(2 * len(edges), dtype=np.int64)
    found = lib.graph(edges, n, starts, ids)
    if found is not None:
        return found
    starts.setflags(write=False)
    ids.setflags(write=False)
    return starts, ids


class Opinions(array.array):
    """A kernel run's opinions: the kernel's own double buffer, which is
    `state.opinions` for the length of the run. While it is, `total_w()` is
    `engine._total_w` in C (`Chunks.total_w`)."""


class Chunks:
    """One run's kernel context, the one record of the run while it lasts:
    the opinions' buffer, the generator or the schedule, the clock, the
    event count and the held event, which is the state's parked one
    (checked by `run`) or one a chunk drew or replayed past `next_probe` or
    `max_time`. The next `advance` applies and counts it first, unless it
    is still past either; `close` hands back the event that no `advance`
    applied.

    Building it changes nothing on the state. The kernel's buffer (`buf`, an
    `Opinions`) is a copy of `values`, the double array of the state's
    opinions that `run` has checked; the engine puts it on the state as
    `state.opinions`, which `advance` updates in place: probes and
    `_total_w` read it without a copy. `close` copies it back into the
    caller's list and puts that same list back on the state, and the buffer
    keeps the same doubles for the run's terminal probe; the engine calls
    `close` also when the run raises. It hands the generator back too, or
    the stream's cursor.

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

    A ScriptedStream is replayed from its own arrays, read in place from
    its cursor. The replay ends just before the first event the Python loop
    refuses: an edge id out of range, or a first time before the clock or
    the held event (`run` has checked the cursor). A chunk that reaches the
    end stops short holding no event (`ctx.drawn` is 0), and the engine then
    takes the refused event, if any, and refuses it. `close` writes the
    cursor back; a held event counts as taken, as `next_event` takes it.

    Given a DifferenceTracker of the state, whose gaps (and bounds, if any)
    `run` has checked to hold one entry per edge, the kernel updates copies
    of them after every event, as the tracker's `apply_event` would;
    `close` writes them back into the tracker's lists in place.
    """

    def __init__(self, lib, state, stream, max_time: float, values: array.array, tracker=None,
                 sum_w: bool = False):
        g = state.graph
        self._run = lib.run
        self._total_w = lib.total_w
        self.state = state
        self.caller_opinions = state.opinions
        self.stream = stream
        # kept referenced: the kernel holds pointers into these buffers (the
        # graph, which the run holds, keeps its own tables, and the stream
        # its schedule)
        self.buf = Opinions("d", values)  # one copy of the bytes
        ctx = self.ctx = _Context()
        pending = state.pending
        if isinstance(stream, ScriptedStream):
            ctx.sched_t, ctx.sched_e, ctx.sched_k = (
                a.ctypes.data for a in (stream.times, stream.edge_ids, stream.ties))
            ctx.sched_next = ctx.sched_end = start = stream.cursor
            ids = stream.edge_ids[start:]
            out = (ids < 0) | (ids >= g.edge_count)
            floor = state.clock if pending is None else pending.time
            if start < stream.times.size and stream.times[start] >= floor:
                ctx.sched_end = start + int(out.argmax()) if out.any() else stream.times.size
        else:
            self.version, words, self.gauss = stream.rng.getstate()
            self.mt = array.array("I", words)
            self.tw = array.array("I", bytes(4 * (len(words) - 1)))
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
        ctx.clock, ctx.count = state.clock, state.events_applied
        ctx.max_time = max_time
        # advance writes limit and next_probe only when they change
        self.limit, self.next_probe = 0, math.inf
        ctx.limit, ctx.next_probe = self.limit, self.next_probe
        ctx.sum_w = sum_w
        ctx.w = math.nan  # no T before the first chunk
        self.address = ctypes.addressof(ctx)
        self.buf.total_w = self.total_w
        if pending is not None:
            ctx.t, ctx.e, ctx.k, ctx.drawn = pending.time, pending.edge_id, pending.tie, 1

    def advance(self, limit: int, next_probe: float) -> int:
        """Apply up to limit events, the held one first; return how many. A
        chunk that applies fewer holds an event past next_probe or
        max_time, whose time is `ctx.t`. A chunk that applies all limit
        events holds none, and costs the one call into the kernel: `limit`
        and `next_probe` are written to the context only when they change,
        and the clock and the count stay there until `close`."""
        if limit != self.limit:
            self.ctx.limit = self.limit = limit
        if next_probe != self.next_probe:
            self.ctx.next_probe = self.next_probe = next_probe
        return self._run(self.address)

    def total_w(self) -> float:
        """`engine._total_w` of the kernel's opinions: T, when the chunk that
        just ended left it (see `sum_w`), else the sum in C."""
        t = self.ctx.w
        return t if t == t else self._total_w(self.address)

    def close(self) -> tuple[float, int, Event | None]:
        """Put the caller's list back on the state, holding the kernel's
        opinions; hand the generator's state back, and write the tracker's
        gaps and bounds back into its lists. Return the time of the last
        applied event, the count of events applied, and the held event,
        which no `advance` applied, or None."""
        del self.buf.total_w  # a plain array from here on
        self.state.opinions = self.caller_opinions
        self.caller_opinions[:] = self.buf.tolist()
        ctx = self.ctx
        if ctx.mt:
            self.stream.rng.setstate((self.version, tuple(self.mt), self.gauss))
        else:
            # the held event counts as taken, as next_event takes it
            self.stream.cursor = ctx.sched_next
        if self.tracker is not None:
            self.tracker.delta.values[:] = self.delta.tolist()
            if self.tracker.xi is not None:
                self.tracker.xi.values[:] = self.xi.tolist()
        return ctx.clock, ctx.count, Event(ctx.t, ctx.e, ctx.k) if ctx.drawn else None
