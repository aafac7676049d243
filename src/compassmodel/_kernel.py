"""Build, load and drive the compiled chunk kernel, `_kernel.c`.

The kernel is a CPython extension module, compiled on first use (the
first graph it checks, or the first Poisson or scripted run or probe that
can use it), not at import, with the system gcc and the interpreter's
headers into $XDG_CACHE_HOME/compassmodel (default ~/.cache/compassmodel),
under a name that hashes the source, the flags and the interpreter (its
extension suffix and include directories), and loaded with importlib. Its
type `Context` is a kernel run's context: built from the run's arrays
through the buffer protocol, it holds them until it is freed, and its
`run` and `total_w` call into C on it. Without gcc or without Python.h, or
when reading the source, the build or the load fails (with a
RuntimeWarning), `load()` returns None: the engine keeps to its Python
loop, `Graph` to its numpy checks.

For the length of a kernel run, the state's opinions are the kernel's own
buffer (`Opinions`), which the kernel updates in place and `engine._total_w`
sums in C (`Context.total_w`); the run hands them back in the caller's list
when it ends.

`metrics` (a probe) and `graph` (`Graph`'s checks) are one call into C
each, on the arrays themselves, taken as `Context` takes them.
"""

from __future__ import annotations

import array
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
    """Load a build of `_kernel.c`: the extension module of `Context`,
    `metrics` and `graph`."""
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
    `state.opinions` for the length of the run, with the context's `total_w`."""


class Chunks:
    """One kernel run's set-up and close; `ctx` is the run's `Context`.

    Building it changes nothing on the state. The kernel's buffer (`buf`, an
    `Opinions` whose `total_w` is the context's) is a copy of `values`, the
    state's opinions as doubles, checked by `run`, and the parked event, if
    any, is the context's held event. The kernel reads the graph's int64
    `edge_array` and `incidence` and a ScriptedStream's arrays in place, the
    replay up to just before the first event the Python loop refuses (an
    edge id out of range, or a first time before the clock or the held
    event). The generator's words and a DifferenceTracker's gaps and bounds
    are copies the kernel updates.
    """

    def __init__(self, lib, state, stream, max_time: float, values: array.array, tracker=None,
                 sum_w: bool = False):
        g = state.graph
        self.state = state
        self.caller_opinions = state.opinions
        self.stream = stream
        self.tracker = tracker
        self.buf = Opinions("d", values)  # one copy of the bytes
        pending = state.pending
        if isinstance(stream, ScriptedStream):
            end = start = stream.cursor
            ids = stream.edge_ids[start:]
            out = (ids < 0) | (ids >= g.edge_count)
            floor = state.clock if pending is None else pending.time
            if start < stream.times.size and stream.times[start] >= floor:
                end = start + int(out.argmax()) if out.any() else stream.times.size
            given = dict(times=stream.times, edge_ids=stream.edge_ids, ties=stream.ties,
                         cursor=start, end=end)
        else:
            self.version, words, self.gauss = stream.rng.getstate()
            self.mt = array.array("I", words)
            given = dict(mt=self.mt, tw=array.array("I", bytes(4 * (len(words) - 1))))
        if tracker is not None:
            self.delta = given["delta"] = array.array("d", tracker.delta.values)
            if tracker.xi is not None:
                self.xi = given["xi"] = array.array("d", tracker.xi.values)
        if pending is not None:
            given.update(drawn=True, t=pending.time, e=pending.edge_id, k=pending.tie)
        # the context holds every buffer it reads or writes until it is freed
        self.ctx = lib.Context(
            g.edge_array, *g.incidence, self.buf, state.params.mu, state.params.theta,
            state.space == "circle", state.clock, state.events_applied, max_time, sum_w, **given)
        self.buf.total_w = self.ctx.total_w

    def close(self) -> tuple[float, int, Event | None]:
        """Copy the buffer back into the caller's list and put that list back
        on the state (the buffer keeps the same doubles, for the terminal
        probe); hand back the generator's state (`mt` alone is all of
        `getstate()`) or the cursor, and the tracker's copies. The engine
        calls it also when the run raises. Return the time of the last
        applied event, the count of events applied, and the held event,
        which no chunk applied, or None."""
        del self.buf.total_w  # a plain array from here on
        self.state.opinions = self.caller_opinions
        self.caller_opinions[:] = self.buf.tolist()
        ctx = self.ctx
        if isinstance(self.stream, ScriptedStream):
            # the held event counts as taken, as next_event takes it
            self.stream.cursor = ctx.sched_next
        else:
            self.stream.rng.setstate((self.version, tuple(self.mt), self.gauss))
        if self.tracker is not None:
            self.tracker.delta.values[:] = self.delta.tolist()
            if self.tracker.xi is not None:
                self.tracker.xi.values[:] = self.xi.tolist()
        return ctx.clock, ctx.count, Event(ctx.t, ctx.e, ctx.k) if ctx.drawn else None
