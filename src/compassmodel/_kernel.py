"""Build, load and drive the compiled chunk kernel, `_kernel.c`.

The kernel is a CPython extension module, compiled with the system gcc and
the interpreter's headers on first use (not at import) into
$XDG_CACHE_HOME/compassmodel (default ~/.cache/compassmodel), under a name
that hashes the source, the flags and the interpreter, and loaded with
importlib. Without gcc or Python.h, or when reading the source, the build
or the load fails (with a RuntimeWarning), `load()` returns None: the
engine keeps to its Python loop and its numpy start, `Graph` to its numpy
checks. The module's entries:
- `Context`, one kernel run (below);
- `metrics`, a probe's W, largest gap, flips and pairs;
- `graph`, `Graph`'s checks, with connectivity by union-find, and its CSR
  incidence;
- `uniform`, a uniform start's draws from the generator's state words.
The last three are one call into C each. Every entry takes its arrays
through the buffer protocol and refuses, with TypeError, one whose entries
are not of the kind it reads: int64 tables, float64 values, uint32 words.

The life of a kernel run. `engine._run_loop` hands a Poisson or scripted
run, without observers or with one DifferenceTracker of the run's own
state, to a `Chunks`. Its `ctx`, an object of the kernel's `Context` type,
is the one record of the run until it closes: the opinions (`buf`, whose
W probes and the stop decision read in place, and from which
`Context.total_w` takes a lower bound on W in C, which only rules a stop
out; `state.opinions` stays the caller's list), the clock,
the count, the generator's words or the schedule's cursor, the tracker's
gaps and bounds, and the held event. The context holds the buffer of every
array it reads or writes, so none can be resized under it.
- `ctx.run(limit, next_probe)` is one chunk: it applies up to `limit`
  events, each as stepping `engine.apply_event` and the tracker's
  `apply_event` would, bit for bit, and returns the count.
- An event drawn or replayed past `next_probe` or `max_time`, or parked in
  `state.pending` before the run, is held, not applied. A later chunk
  applies it first once it is no longer past them; the loop reads only its
  time (`ctx.t`), after a chunk that stops short.
- A replay reads the ScriptedStream's arrays in place, up to just before
  the first event the Python loop refuses (an edge id out of range, or a
  first time before the clock or the held event). A replay that stops short
  holding nothing has run out there; the loop then takes that event off the
  stream and refuses it, with the Python loop's count, clock and cursor.
- `Chunks.close`, also when the run raises, writes it all back: the
  opinions into the caller's list, the generator's state or the cursor (a
  held replayed event counts as taken, as `next_event` takes it), the
  tracker's lists, and the clock, count and held event for the state.
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
# from the scalar rules; no -ffast-math or -march for the same reason. The
# generator's block work picks its vector width at load time instead, from
# clones in the source that hold integer work only (see _kernel.c).
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


def metrics(g, opinions, circle: bool):
    """`analysis.compute_metrics`' W, largest |gap|, sign flips and adjacent
    edge pairs, as (W, largest, flips, pairs), of the gaps of `opinions`, a
    contiguous float64 buffer of one entry per vertex, from one call into
    the kernel. None without the kernel, and when a gap or W is not finite:
    the numpy path then gives the value or raises."""
    lib = load()
    if not lib:
        return None
    found = lib.metrics(g.edge_array, *g.incidence, opinions, circle)
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


def uniform(rng, n: int, circle: bool):
    """`engine._uniform`'s n draws, as a list, in one pass of the kernel
    from `rng`'s getstate() words, which it then sets as n draws one by one
    leave them. None without the kernel."""
    lib = load()
    if not lib:
        return None
    version, words, gauss = rng.getstate()
    mt, out = array.array("I", words), np.empty(n)
    lib.uniform(mt, out, circle)
    rng.setstate((version, tuple(mt), gauss))
    return out.tolist()


class Chunks:
    """One kernel run's set-up and close (see the module docstring); `ctx`
    is the run's `Context`. Building it changes nothing on the state: `buf`
    is `values`, `run`'s checked copy of the state's opinions as doubles,
    and the generator's words and the tracker's lists are copies too.
    """

    def __init__(self, lib, state, stream, max_time: float, values: array.array, tracker=None):
        g = state.graph
        self.state = state
        self.stream = stream
        self.tracker = tracker
        self.buf = values
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
            given = dict(mt=self.mt)
        if tracker is not None:
            self.delta = given["delta"] = array.array("d", tracker.delta.values)
            if tracker.xi is not None:
                self.xi = given["xi"] = array.array("d", tracker.xi.values)
        if pending is not None:
            given.update(drawn=True, t=pending.time, e=pending.edge_id, k=pending.tie)
        self.ctx = lib.Context(
            g.edge_array, *g.incidence, self.buf, state.params.mu, state.params.theta,
            state.space == "circle", state.clock, state.events_applied, max_time, **given)

    def close(self) -> tuple[float, int, Event | None]:
        """Write the run back (see the module docstring); `buf` keeps the
        same doubles, for the terminal probe. Return the clock, the count
        and the held event, or None."""
        self.state.opinions[:] = self.buf.tolist()
        ctx = self.ctx
        if isinstance(self.stream, ScriptedStream):
            self.stream.cursor = ctx.sched_next
        else:
            # `mt` alone is all of getstate()
            self.stream.rng.setstate((self.version, tuple(self.mt), self.gauss))
        if self.tracker is not None:
            self.tracker.delta.values[:] = self.delta.tolist()
            if self.tracker.xi is not None:
                self.tracker.xi.values[:] = self.xi.tolist()
        return ctx.clock, ctx.count, Event(ctx.t, ctx.e, ctx.k) if ctx.drawn else None
