"""Finite interaction graphs with oriented edges.

Vertices are 0-based internally. Human-facing labels (file formats, log
lines, the conventional names for path and ring vertices) are 1-based, so
external label = internal id + 1. Edges are ordered (tail, head) pairs and
keep a stable 0-based id equal to their position in Graph.edges; builders
orient edges from lower label to higher, with the ring's closing edge
running from the last vertex back to the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "build_path",
    "build_ring",
    "build_torus",
    "graph_from_edges",
    "load_edge_list",
]


@dataclass(frozen=True)
class Graph:
    kind: str
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise ValueError(f"need at least one vertex, got {n}")
        seen = set()
        for i, (a, b) in enumerate(self.edges):
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge {i} endpoints ({a}, {b}) out of range for {n} vertices")
            if a == b:
                raise ValueError(f"edge {i} is a self-loop at vertex {a}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise ValueError(f"duplicate edge between vertices {a} and {b}")
            seen.add(key)
        if n > 1 and not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        reach = {0}
        frontier = [0]
        neighbors = [[] for _ in range(self.vertex_count)]
        for a, b in self.edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        while frontier:
            v = frontier.pop()
            for w in neighbors[v]:
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        return len(reach) == self.vertex_count

    @cached_property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the ids of the edges touching it, in id order."""
        inc = [[] for _ in range(self.vertex_count)]
        for i, (a, b) in enumerate(self.edges):
            inc[a].append(i)
            inc[b].append(i)
        return tuple(tuple(x) for x in inc)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.incident_edges)

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees)

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
        """edge_pair_array as a sorted tuple of (lower id, higher id) pairs."""
        return tuple(sorted(map(tuple, self.edge_pair_array.tolist())))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (m, 2) array of (tail, head) rows, by id."""
        arr = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        arr.setflags(write=False)
        return arr

    @cached_property
    def edge_pair_array(self) -> np.ndarray:
        """Pairs of distinct edges sharing a vertex, each once, as read-only
        (lower id, higher id) rows grouped by the shared vertex."""
        ends = self.edge_array.T.ravel()  # every tail, then every head
        ids = np.tile(np.arange(self.edge_count, dtype=np.intp), 2)
        order = np.lexsort((ids, ends))
        ids = ids[order]  # grouped by vertex, ascending id within a group
        sizes = np.bincount(ends, minlength=self.vertex_count)
        pos = np.arange(ids.size)
        later = np.repeat(np.cumsum(sizes), sizes) - pos - 1  # same-vertex entries after pos
        first = np.repeat(pos, later)
        second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
        arr = np.stack((ids[first], ids[second]), axis=1)
        arr.setflags(write=False)
        return arr

    @cached_property
    def is_oriented_cycle(self) -> bool:
        """True when every vertex has exactly one out-edge and one in-edge."""
        outs = [0] * self.vertex_count
        ins = [0] * self.vertex_count
        for a, b in self.edges:
            outs[a] += 1
            ins[b] += 1
        return all(o == 1 for o in outs) and all(i == 1 for i in ins)


def build_path(n: int) -> Graph:
    """Path on n >= 2 vertices; edge i joins vertices i and i+1."""
    if n < 2:
        raise ValueError(f"a path needs at least 2 vertices, got {n}")
    return Graph("path", n, tuple((i, i + 1) for i in range(n - 1)))


def build_ring(n: int) -> Graph:
    """Ring on n >= 3 vertices; the last edge closes back to vertex 0."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 vertices, got {n}")
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)
    return Graph("ring", n, edges)


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
    n = 1
    for d in dims:
        n *= d
    strides = [0] * len(dims)
    acc = 1
    for a in range(len(dims) - 1, -1, -1):
        strides[a] = acc
        acc *= dims[a]
    edges = []
    for idx in range(n):
        rem = idx
        coords = []
        for a in range(len(dims)):
            coords.append(rem // strides[a])
            rem %= strides[a]
        for a in range(len(dims)):
            nxt = idx + ((coords[a] + 1) % dims[a] - coords[a]) * strides[a]
            edges.append((idx, nxt))
    return Graph("torus", n, tuple(edges))


def graph_from_edges(vertex_count: int, pairs, kind: str = "custom",
                     one_based: bool = False) -> Graph:
    off = 1 if one_based else 0
    edges = tuple((int(a) - off, int(b) - off) for a, b in pairs)
    return Graph(kind, vertex_count, edges)


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

