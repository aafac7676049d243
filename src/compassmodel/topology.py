"""Finite interaction graphs with oriented edges.

Vertices are 0-based internally. Human-facing labels (file formats, log
lines, the conventional names for path and ring vertices) are 1-based, so
external label = internal id + 1. Edges are ordered (tail, head) pairs and
keep a stable 0-based id equal to their row of `Graph.edge_array`; builders
orient edges from lower label to higher, with the ring's closing edge
running from the last vertex back to the first.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Graph:
    """A connected graph whose one stored edge table is `edge_array`, a
    read-only int64 (m, 2) array of (tail, head) rows; the constructor also
    takes a sequence of pairs. Every other table is built from it on first
    use: the CSR `incidence` that the kernel and the metrics read, and the
    tuple views the Python paths index (`edges`, `incident_edges`,
    `edge_neighbors`, `adjacent_edge_pairs`). Graphs are equal when their kind,
    vertex count and edge array are, and are not hashable.
    """

    kind: str
    vertex_count: int
    edge_array: np.ndarray

    def __post_init__(self):
        n = self.vertex_count
        if not 1 <= n <= 1 << 32:
            # beyond 2**32 no edge table that fits in memory connects the graph
            raise ValueError(f"need 1 to 2**32 vertices, got {n}")
        edges = arr = self.edge_array
        if not isinstance(edges, np.ndarray) and not set(map(len, edges)) - {2}:
            # a sequence of pairs; endpoints beyond int64 are out of range anyway
            try:
                arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
            except OverflowError:
                arr = np.clip(np.array(edges, dtype=object), -1, n).astype(np.int64).reshape(-1, 2)
        if not isinstance(arr, np.ndarray) or arr.shape[1:] != (2,):
            raise ValueError("every edge must be a (tail, head) pair")
        # a copy, so the caller's array stays writable and cannot change the graph
        arr = arr.astype(np.int64, casting="same_kind")
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
            # the first offending edge, with the message an edge-by-edge scan gives
            i = int(bad[0])
            x, y = edges[i]
            if outside[i]:
                raise ValueError(f"edge {i} endpoints ({x}, {y}) out of range for {n} vertices")
            if x == y:
                raise ValueError(f"edge {i} is a self-loop at vertex {x}")
            raise ValueError(f"duplicate edge between vertices {x} and {y}")
        arr.setflags(write=False)
        object.__setattr__(self, "edge_array", arr)
        # fewer than n - 1 edges connect no graph: refused before _connected
        # allocates its n-entry arrays
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
        vertex v are ids[starts[v]:starts[v + 1]], in id order."""
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
    if n < 2:
        raise ValueError(f"a path needs at least 2 vertices, got {n}")
    tails = np.arange(n - 1)
    return Graph("path", n, np.stack((tails, tails + 1), axis=1))


def build_ring(n: int) -> Graph:
    """Ring on n >= 3 vertices; the last edge closes back to vertex 0."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 vertices, got {n}")
    tails = np.arange(n)
    return Graph("ring", n, np.stack((tails, (tails + 1) % n), axis=1))


def build_torus(dims: list[int] | tuple[int, ...]) -> Graph:
    """Periodic grid with the given side lengths, each at least 3.

    Vertices are mixed-radix tuples flattened row-major; each vertex gets
    one outgoing edge per axis, toward the +1 neighbor on that axis. A
    single dimension [k] gives the same edge set as build_ring(k).
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("need at least one dimension")
    if any(d < 3 for d in dims):
        raise ValueError(f"every side must be at least 3, got {list(dims)}")
    n = int(np.prod(dims))
    idx = np.arange(n, dtype=np.intp)
    heads = np.empty((n, len(dims)), dtype=np.intp)
    stride = n
    for axis, d in enumerate(dims):
        stride //= d
        # +1 along the axis, or back to 0 from the last coordinate
        last = idx // stride % d == d - 1
        heads[:, axis] = idx + np.where(last, (1 - d) * stride, stride)
    return Graph("torus", n, np.stack((np.repeat(idx, len(dims)), heads.ravel()), axis=1))


def graph_from_edges(vertex_count: int, pairs, kind: str = "custom",
                     one_based: bool = False) -> Graph:
    off = 1 if one_based else 0
    return Graph(kind, vertex_count, [(int(a) - off, int(b) - off) for a, b in pairs])


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

