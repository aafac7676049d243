"""Finite interaction graphs with oriented edges.

Vertices are 0-based internally. Human-facing labels (file formats, log
lines, the conventional names for path and ring vertices) are 1-based, so
external label = internal id + 1. Edges are ordered (tail, head) pairs and
keep a stable 0-based id equal to their row of `Graph.edge_array`; builders
orient edges from lower label to higher, with the ring's closing edge
running from the last vertex back to the first.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

__all__ = [
    "Graph",
    "build_path",
    "build_ring",
    "build_torus",
    "graph_from_edges",
    "load_edge_list",
]


def _whole(v) -> int | None:
    """v as an int when it is a whole number (3, 3.0, np.int64(3)), else None."""
    if type(v) is int:
        return v
    if isinstance(v, numbers.Integral) or isinstance(v, numbers.Real) and float(v).is_integer():
        return int(v)
    return None


def _counted(v) -> int | None:
    """v as an int by the count rule: a whole number, not a bool; else None."""
    return None if isinstance(v, bool) else _whole(v)


def _count(v, what: str) -> int:
    """v as an int by the count rule (`_counted`); anything else raises ValueError."""
    k = _counted(v)
    if k is None:
        raise ValueError(f"{what} must be a whole number, got {v!r}")
    return k


def _vertex_count(v) -> int:
    """v as a vertex count: a whole number from 1 to 2**32, else ValueError."""
    n = _count(v, "the vertex count")
    if not 1 <= n <= 1 << 32:
        # beyond 2**32 no edge table that fits in memory connects the graph
        raise ValueError(f"need 1 to 2**32 vertices, got {n}")
    return n


def _endpoints(arr: np.ndarray, n: int) -> np.ndarray:
    """arr as a new C-ordered int64 array, the layout the kernel reads: each
    whole number as itself, or clipped to -1 or n when outside the n
    vertices; anything else -1, outside too."""
    if arr.dtype.kind in "biu":
        # uint64 past int64 wraps to a negative, outside either way
        return arr.astype(np.int64, order="C")
    if arr.dtype.kind == "f":
        whole = np.isfinite(arr) & (arr == np.floor(arr))
        return np.where(whole, np.clip(arr, -1, n), -1).astype(np.int64, order="C")
    ends = [_whole(v) for v in arr.ravel().tolist()]
    return np.array([-1 if e is None else min(max(e, -1), n) for e in ends],
                    dtype=np.int64).reshape(arr.shape)


@dataclass(frozen=True)
class _Built:
    """A builder's own edge table, a fresh C-ordered int64 (m, 2) array that
    no caller holds: Graph keeps it as it is, without a second copy."""

    array: np.ndarray


def _fault(edges, arr: np.ndarray, i: int, n: int) -> ValueError:
    """The error for edge i, the first offending one, as an edge-by-edge
    scan words it, with the endpoints as given."""
    x, y = edges[i]
    a, b = arr[i].tolist()
    if _whole(x) is None or _whole(y) is None:
        return ValueError(f"edge {i} endpoints ({x}, {y}) must be whole numbers")
    if not (0 <= a < n and 0 <= b < n):
        return ValueError(f"edge {i} endpoints ({x}, {y}) out of range for {n} vertices")
    if a == b:
        return ValueError(f"edge {i} is a self-loop at vertex {x}")
    return ValueError(f"duplicate edge between vertices {x} and {y}")


@dataclass(frozen=True, eq=False)
class Graph:
    """A connected graph whose one given edge table is `edge_array`, a
    read-only int64 (m, 2) array of (tail, head) rows; the constructor also
    takes a sequence of pairs. An array the caller passes is copied, so it
    stays the caller's; the builders hand over a table of their own, which
    is kept as it is. The vertex count and the endpoints are whole numbers:
    4.0 is taken as 4, and 4.5 is refused with ValueError.

    The checks (endpoints in range, no self-loops, no repeated pair, a
    connected graph) name the first offending edge, as an edge-by-edge scan
    would. When the compiled kernel loads they run in one C call
    (`_kernel.graph`): a scan of the edges, a counting sort that builds the
    CSR `incidence`, which the graph then keeps, a repeat scan over it, and
    union-find over the edges for connectivity, in about O(n + m). Without
    it, and for fewer than n - 1 edges (refused before any array with an
    entry per vertex exists), numpy passes check them.

    Every other table is built from `edge_array` on first use: `incidence`
    when no kernel built it, and the tuple views the Python paths index
    (`edges`, `incident_edges`, `edge_neighbors`, `adjacent_edge_pairs`).
    Graphs are equal when their kind, vertex count and edge array are, and
    are not hashable.
    """

    kind: str
    vertex_count: int
    edge_array: np.ndarray

    def __post_init__(self):
        n = _vertex_count(self.vertex_count)
        object.__setattr__(self, "vertex_count", n)
        edges = arr = self.edge_array
        if isinstance(edges, _Built):
            edges = arr = edges.array
        else:
            if not isinstance(edges, np.ndarray) and not set(map(len, edges)) - {2}:
                # a sequence of pairs; numbers among other objects are not made strings
                arr = np.array(edges) if len(edges) else np.empty((0, 2), dtype=np.int64)
                if arr.dtype.kind not in "biuf":
                    arr = np.array(edges, dtype=object)
            if not isinstance(arr, np.ndarray) or arr.shape[1:] != (2,):
                raise ValueError("every edge must be a (tail, head) pair")
            # a copy, so the caller's array stays writable and cannot change the graph
            arr = _endpoints(arr, n)
        arr.setflags(write=False)
        object.__setattr__(self, "edge_array", arr)
        # fewer than n - 1 edges connect no graph: the numpy checks refuse
        # them before any n-entry array exists
        if len(arr) >= n - 1:
            # imported here, so the kernel's build stays out of the package import
            from . import _kernel
            found = _kernel.graph(arr, n)
            if isinstance(found, tuple):
                object.__setattr__(self, "incidence", found)
                return
            if found is not None:
                raise _fault(edges, arr, found, n) if found >= 0 else \
                    ValueError("graph is not connected")
        a, b = arr[:, 0], arr[:, 1]
        outside = (a < 0) | (a >= n) | (b < 0) | (b >= n)
        # an edge whose unordered pair an earlier edge already has (the sort
        # is stable, so that edge sorts first). The key lo * n + hi is one per
        # pair in range, as n <= 2**32; an endpoint out of range wraps, and a
        # tie it makes marks an edge after it, not the first offender.
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo.astype(np.uint64) * np.uint64(n) + hi.astype(np.uint64)
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeat = np.zeros(len(order), dtype=bool)
        repeat[order[1:]] = key[1:] == key[:-1]
        bad = np.flatnonzero(outside | (a == b) | repeat)
        if bad.size:
            raise _fault(edges, arr, int(bad[0]), n)
        if n > 1 and (len(arr) < n - 1 or not self._connected()):
            raise ValueError("graph is not connected")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.kind == other.kind and self.vertex_count == other.vertex_count
                and np.array_equal(self.edge_array, other.edge_array))

    def _connected(self) -> bool:
        # hook each edge's larger root under the smaller, then jump pointers
        # until every vertex points at its root; repeat until no edge joins
        # two roots. Then the graph is connected iff every root is vertex 0.
        a, b = self.edge_array.T
        parent = np.arange(self.vertex_count)
        while True:
            ra, rb = parent[a], parent[b]
            if np.array_equal(ra, rb):
                return not parent.any()
            np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            while True:
                up = parent[parent]
                if np.array_equal(up, parent):
                    break
                parent = up

    @cached_property
    def edge_count(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """edge_array as a tuple of (tail, head) tuples, by id."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """incidence as a tuple of edge id tuples, one per vertex."""
        starts, ids = (a.tolist() for a in self.incidence)
        return tuple(tuple(ids[s:e]) for s, e in zip(starts, starts[1:]))

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int64 CSR arrays (starts, ids): the ids of the edges at
        vertex v are ids[starts[v]:starts[v + 1]], in id order. The kernel's
        check builds them with the graph; without it, this does on first use."""
        # tail 0, head 0, tail 1, ...: a stable sort keeps each vertex's ids
        # ascending, since no edge meets one vertex twice
        ids = np.argsort(self.edge_array.ravel(), kind="stable").astype(np.int64, copy=False) // 2
        starts = np.zeros(self.vertex_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_array.ravel(), minlength=self.vertex_count),
                  out=starts[1:])
        ids.setflags(write=False)
        starts.setflags(write=False)
        return starts, ids

    @cached_property
    def max_degree(self) -> int:
        return int(np.diff(self.incidence[0]).max())

    @cached_property
    def edge_neighbors(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each edge, the (neighbor edge id, coupling sign) pairs.

        Two edges couple through their shared vertex s. The sign is +1 when
        exactly one of the two edges points into s (s is its head), -1 when
        both point in or both point out. Consistently oriented paths and
        rings therefore get all +1.
        """
        out = []
        for i, (a, b) in enumerate(self.edges):
            pairs = []
            for s, into_i in ((a, False), (b, True)):
                for j in self.incident_edges[s]:
                    if j == i:
                        continue
                    into_j = self.edges[j][1] == s
                    pairs.append((j, 1 if into_j != into_i else -1))
            out.append(tuple(pairs))
        return tuple(out)

    @cached_property
    def adjacent_edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs of distinct edges sharing a vertex, each once, as a sorted
        tuple of (lower id, higher id) pairs."""
        starts, ids = (a.tolist() for a in self.incidence)
        # each vertex's ids ascend, and two edges share at most one vertex
        return tuple(sorted(pair for s, e in zip(starts, starts[1:])
                            for pair in combinations(ids[s:e], 2)))

    @cached_property
    def is_oriented_cycle(self) -> bool:
        """True when every vertex has exactly one out-edge and one in-edge."""
        n = self.vertex_count
        return all((np.bincount(ends, minlength=n) == 1).all() for ends in self.edge_array.T)


def build_path(n: int) -> Graph:
    """Path on n >= 2 vertices; edge i joins vertices i and i+1."""
    n = _count(n, "a path's vertex count")
    if n < 2:
        raise ValueError(f"a path needs at least 2 vertices, got {n}")
    tails = np.arange(_vertex_count(n) - 1, dtype=np.int64)  # refused past 2**32 first
    return Graph("path", n, _Built(np.stack((tails, tails + 1), axis=1)))


def build_ring(n: int) -> Graph:
    """Ring on n >= 3 vertices; the last edge closes back to vertex 0."""
    n = _count(n, "a ring's vertex count")
    if n < 3:
        raise ValueError(f"a ring needs at least 3 vertices, got {n}")
    tails = np.arange(_vertex_count(n), dtype=np.int64)  # refused past 2**32 first
    return Graph("ring", n, _Built(np.stack((tails, (tails + 1) % n), axis=1)))


def build_torus(dims: list[int] | tuple[int, ...]) -> Graph:
    """Periodic grid with the given side lengths, each at least 3.

    Vertices are mixed-radix tuples flattened row-major; each vertex gets
    one outgoing edge per axis, toward the +1 neighbor on that axis. A
    single dimension [k] gives the same edge set as build_ring(k). The
    (n, axes, 2) table is written in place: the tails from one arange, and
    each axis's heads the tails plus its stride, less d times it on the rows
    whose coordinate is the last, d - 1.
    """
    dims = tuple(_count(d, "a torus side") for d in dims)
    if not dims:
        raise ValueError("need at least one dimension")
    if any(d < 3 for d in dims):
        raise ValueError(f"every side must be at least 3, got {list(dims)}")
    # the exact count, refused past 2**32 before any array exists
    n = _vertex_count(math.prod(dims))
    k = len(dims)
    edges = np.empty((n, k, 2), dtype=np.int64)
    tails = np.arange(n, dtype=np.int64)
    edges[:, :, 0] = tails[:, None]
    stride = n
    for axis, d in enumerate(dims):
        stride //= d
        np.add(tails, stride, out=edges[:, axis, 1])
        # a view whose axis 1 is this axis's coordinate
        edges.reshape(-1, d, stride, k, 2)[:, d - 1, :, axis, 1] -= d * stride
    return Graph("torus", n, _Built(edges.reshape(-1, 2)))


def graph_from_edges(vertex_count: int, pairs, kind: str = "custom",
                     one_based: bool = False) -> Graph:
    """A Graph of the (tail, head) pairs, labelled from 1 when one_based;
    the labels are whole numbers, as Graph takes them."""
    if not one_based:
        return Graph(kind, vertex_count, list(pairs))
    return Graph(kind, vertex_count, [(a - 1, b - 1) for a, b in pairs])


def load_edge_list(path) -> Graph:
    """Read a graph from a text file, one edge per line as '<u> <v>', 1-based.

    Blank lines and lines starting with '#' are skipped. The vertex count is
    the largest label mentioned.
    """
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<u> <v>', got {line!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: labels must be integers, got {line!r}") from None
            if a < 1 or b < 1:
                raise ValueError(f"{path}:{lineno}: labels are 1-based, got {a} {b}")
            pairs.append((a, b))
    if not pairs:
        raise ValueError(f"{path}: no edges found")
    n = max(max(a, b) for a, b in pairs)
    return graph_from_edges(n, pairs, kind="custom", one_based=True)

