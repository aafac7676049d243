import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compassmodel import (Graph, build_path, build_ring, build_torus,
                          graph_from_edges, load_edge_list)


def degrees(g):
    return np.diff(g.incidence[0]).tolist()


class TestBuildPath:
    def test_examples(self):
        assert build_path(2).edge_count == 1
        g = build_path(5)
        assert g.edge_count == 4
        assert degrees(g) == [1, 2, 2, 2, 1]
        assert build_path(50).edge_count == 49

    def test_orientation_low_to_high(self):
        g = build_path(6)
        assert g.edges == tuple((i, i + 1) for i in range(5))
        assert g.kind == "path"

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_path(1)

    @given(st.integers(min_value=2, max_value=80))
    def test_shape(self, n):
        g = build_path(n)
        assert g.vertex_count == n
        assert g.edge_count == n - 1
        assert g.max_degree == (1 if n == 2 else 2)
        assert not g.is_oriented_cycle


class TestBuildRing:
    def test_examples(self):
        assert build_ring(3).edge_count == 3
        assert build_ring(20).edge_count == 20
        assert build_ring(1000).edge_count == 1000

    def test_closing_edge(self):
        g = build_ring(5)
        assert g.edges[-1] == (4, 0)
        assert g.kind == "ring"

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            build_ring(2)

    @given(st.integers(min_value=3, max_value=80))
    def test_shape(self, n):
        g = build_ring(n)
        assert g.vertex_count == n
        assert g.edge_count == n
        assert degrees(g) == [2] * n
        assert g.is_oriented_cycle


class TestBuildTorus:
    def test_two_dim_count(self):
        g = build_torus([3, 3])
        assert g.vertex_count == 9
        assert g.edge_count == 18
        assert degrees(g) == [4] * 9

    def test_three_dim_count(self):
        g = build_torus([3, 3, 3])
        assert g.vertex_count == 27
        assert g.edge_count == 81
        assert degrees(g) == [6] * 27

    def test_one_dim_is_a_ring(self):
        assert build_torus([4]).edges == build_ring(4).edges

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            build_torus([3, 2])
        with pytest.raises(ValueError, match="at least one"):
            build_torus([])

    @pytest.mark.parametrize("dims", [(3,), (3, 4), (4, 3, 5), (160, 160)])
    def test_edges_match_the_mixed_radix_loop(self, dims):
        assert build_torus(dims).edges == torus_edges_by_loop(dims)


def torus_edges_by_loop(dims):
    """The torus edges as a loop over vertices: row-major mixed-radix
    coordinates, one edge per axis toward the +1 neighbor."""
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
    return tuple(edges)


def first_fault(n, edges):
    """An edge-by-edge scan: the message for the first offending edge, then
    for a disconnected graph, or None for a valid graph."""
    seen = set()
    for i, (a, b) in enumerate(edges):
        if not (0 <= a < n and 0 <= b < n):
            return f"edge {i} endpoints ({a}, {b}) out of range for {n} vertices"
        if a == b:
            return f"edge {i} is a self-loop at vertex {a}"
        key = (a, b) if a < b else (b, a)
        if key in seen:
            return f"duplicate edge between vertices {a} and {b}"
        seen.add(key)
    neighbors = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    reach, frontier = {0}, [0]
    while frontier:
        for w in neighbors[frontier.pop()]:
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    return None if len(reach) == n else "graph is not connected"


@st.composite
def edge_lists(draw, faults=True):
    """A random spanning tree in random orientation and order, plus extra
    edges; with faults, also out-of-range endpoints, self-loops, duplicates
    and dropped edges, anywhere in the list."""
    n = draw(st.integers(1, 9))
    perm = draw(st.permutations(range(n)))
    edges = []
    for k in range(1, n):
        a, b = perm[draw(st.integers(0, k - 1))], perm[k]
        edges.append((a, b) if draw(st.booleans()) else (b, a))
    vertex = st.integers(0, n - 1)
    kinds = ["extra", "range", "loop", "duplicate", "drop"] if faults else ["extra"]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "drop":
            if edges:
                del edges[draw(st.integers(0, len(edges) - 1))]
            continue
        if kind == "extra":
            edge = draw(st.tuples(vertex, vertex))
            if first_fault(n, edges + [edge]) not in (None, "graph is not connected"):
                continue
        elif kind == "range":
            outside = st.sampled_from([-1, n, n + 1, -2**70, 2**63, 2**70])
            edge = draw(st.tuples(outside, vertex | outside))
            edge = edge if draw(st.booleans()) else edge[::-1]
        elif kind == "loop":
            v = draw(vertex | st.sampled_from([-1, n]))
            edge = (v, v)
        else:
            if not edges:
                continue
            a, b = draw(st.sampled_from(edges))
            edge = (a, b) if draw(st.booleans()) else (b, a)
        edges.insert(draw(st.integers(0, len(edges))), edge)
    return n, tuple(edges)


class TestGraphValidation:
    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph("custom", 3, ((0, 3),))

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph("custom", 3, ((1, 1),))

    def test_duplicate_either_order(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph("custom", 3, ((0, 1), (1, 0), (1, 2)))

    def test_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            Graph("custom", 4, ((0, 1), (2, 3)))

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**40])
    def test_vertex_counts_outside_1_to_2_32_refused(self, n):
        # beyond 2**32 the duplicate scan's key lo * n + hi would wrap
        with pytest.raises(ValueError, match=r"need 1 to 2\*\*32 vertices"):
            Graph("custom", n, ((0, 1),))

    @pytest.mark.parametrize("edges", [((0, 1), (-1, 5), (1, 2), (2, 3)),
                                       ((-1, 5), (0, 1), (1, 2), (2, 3))])
    def test_a_wrapped_key_tie_names_the_first_offender(self, edges):
        # (-1, 5) on 4 vertices wraps to the key of (0, 1): the tie marks
        # the later edge, and the first offender stays the out-of-range edge
        with pytest.raises(ValueError) as got:
            Graph("custom", 4, edges)
        assert str(got.value) == first_fault(4, edges)
        assert "(-1, 5) out of range" in str(got.value)

    def test_single_vertex_ok(self):
        g = Graph("custom", 1, ())
        assert g.edge_count == 0

    @given(edge_lists())
    @settings(max_examples=400)
    def test_faults_name_the_first_offending_edge(self, case):
        n, edges = case
        want = first_fault(n, edges)
        if want is None:
            assert Graph("custom", n, edges).edges == edges
        else:
            with pytest.raises(ValueError) as got:
                Graph("custom", n, edges)
            assert str(got.value) == want

    def test_non_pairs_rejected(self):
        for edges in (((0, 1, 2),), ((0,),), ((0, 1), (1,))):
            with pytest.raises(ValueError, match="pair"):
                Graph("custom", 3, edges)
        for shape in ((3,), (1, 3), (2, 2, 2)):
            with pytest.raises(ValueError, match="pair"):
                Graph("custom", 3, np.zeros(shape, dtype=np.int64))

    @given(edge_lists())
    @settings(max_examples=200)
    def test_an_array_validates_as_its_pairs(self, case):
        n, edges = case
        if any(not -2**63 <= v < 2**63 for e in edges for v in e):
            return
        for dtype in (np.int64, np.int32, np.uint32):
            if not all(np.can_cast(np.min_scalar_type(v), dtype) for e in edges for v in e):
                continue
            arr = np.array(edges, dtype=dtype).reshape(-1, 2)
            want = first_fault(n, edges)
            if want is None:
                assert Graph("custom", n, arr) == Graph("custom", n, edges)
            else:
                with pytest.raises(ValueError) as got:
                    Graph("custom", n, arr)
                assert str(got.value) == want

    def test_float_arrays_refused(self):
        with pytest.raises(TypeError):
            Graph("custom", 2, np.array([[0.0, 1.0]]))


class TestOneEdgeTable:
    def test_the_array_is_the_stored_table(self):
        g = build_torus([3, 4])
        assert list(vars(g)) == ["kind", "vertex_count", "edge_array"]
        assert g.edges == tuple(map(tuple, g.edge_array.tolist()))
        assert "edges" in vars(g)

    def test_the_caller_array_is_copied_and_left_writable(self):
        arr = np.array([[0, 1], [1, 2]])
        g = Graph("custom", 3, arr)
        arr[0, 0] = 2
        assert arr.flags.writeable and not g.edge_array.flags.writeable
        assert g.edges == ((0, 1), (1, 2))

    def test_equality_compares_kind_count_and_edges(self):
        ring = build_ring(5)
        assert ring == Graph("ring", 5, ring.edges)
        assert ring != Graph("custom", 5, ring.edge_array)
        assert build_path(4) != graph_from_edges(4, [(0, 1), (1, 2), (3, 2)], kind="path")
        assert build_torus([3]) != build_torus([3, 3])
        assert ring != ring.edges

    def test_graphs_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(build_ring(3))


def incidence_walk(g):
    """edge_neighbors as the compiled kernel's `track` reads it from the
    incidence: the other edges at each edge's tail, then at its head, with
    sign +1 when exactly one of the two edges has the shared vertex as its
    head."""
    starts, ids = g.incidence
    edges = g.edge_array.tolist()
    return [tuple((f, 1 if (edges[f][1] == s) != j else -1)
                  for j, s in enumerate(edges[e])
                  for f in ids[starts[s]:starts[s + 1]].tolist() if f != e)
            for e in range(g.edge_count)]


def incidence_by_loop(g):
    """For each vertex, the ids of the edges touching it, from a loop over
    the edges in id order."""
    inc = [[] for _ in range(g.vertex_count)]
    for i, (a, b) in enumerate(g.edges):
        inc[a].append(i)
        inc[b].append(i)
    return [tuple(x) for x in inc]


class TestAdjacencyIndex:
    def test_incident_edges_agree_with_edge_list(self):
        for g in (build_path(7), build_ring(6), build_torus([3, 3])):
            for v, inc in enumerate(g.incident_edges):
                for e in inc:
                    assert v in g.edges[e]
            # every edge shows up at exactly its two endpoints
            counts = [0] * g.edge_count
            for inc in g.incident_edges:
                for e in inc:
                    counts[e] += 1
            assert counts == [2] * g.edge_count

    @given(edge_lists(faults=False))
    def test_csr_incidence_matches_incident_edges(self, case):
        g = Graph("custom", *case)
        starts, ids = g.incidence
        assert [tuple(ids[starts[v]:starts[v + 1]].tolist())
                for v in range(g.vertex_count)] == incidence_by_loop(g)
        assert g.incident_edges == tuple(incidence_by_loop(g))
        assert degrees(g) == list(map(len, incidence_by_loop(g)))
        assert not starts.flags.writeable and not ids.flags.writeable
        assert incidence_walk(g) == list(g.edge_neighbors)
        assert starts.dtype == ids.dtype == g.edge_array.dtype == np.int64

    @pytest.mark.parametrize("g", [build_path(5), build_ring(7), build_torus([3, 4]),
                                   build_torus([4, 3, 5])], ids=lambda g: g.kind)
    def test_csr_incidence_of_the_builders(self, g):
        starts, ids = g.incidence
        assert [tuple(ids[starts[v]:starts[v + 1]].tolist())
                for v in range(g.vertex_count)] == incidence_by_loop(g)
        assert g.incident_edges == tuple(incidence_by_loop(g))
        assert incidence_walk(g) == list(g.edge_neighbors)
        assert starts.dtype == ids.dtype == g.edge_array.dtype == np.int64

    def test_adjacent_edge_pairs_path(self):
        g = build_path(4)
        assert g.adjacent_edge_pairs == ((0, 1), (1, 2))

    def test_adjacent_edge_pairs_ring(self):
        g = build_ring(4)
        assert g.adjacent_edge_pairs == ((0, 1), (0, 3), (1, 2), (2, 3))

    @pytest.mark.parametrize("g", [
        build_path(2), build_path(9), build_ring(3), build_ring(10),
        build_torus([3, 5]), build_torus([4, 4]), build_torus([3, 4, 3]),
        graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (2, 3), (4, 0), (3, 4)]),
        Graph("custom", 1, ()),
    ], ids=lambda g: f"{g.kind}-{g.vertex_count}")
    def test_pair_arrays_list_each_adjacent_pair_once(self, g):
        assert g.edge_array.tolist() == [list(e) for e in g.edges]
        m = g.edge_count
        expected = [(i, j) for i in range(m) for j in range(i + 1, m)
                    if set(g.edges[i]) & set(g.edges[j])]
        assert g.adjacent_edge_pairs == tuple(expected)
        assert not g.edge_array.flags.writeable


class TestEdgeNeighborSigns:
    def test_consistent_chain_all_plus(self):
        g = build_path(5)
        for pairs in g.edge_neighbors:
            for _, sgn in pairs:
                assert sgn == 1

    def test_consistent_ring_all_plus(self):
        g = build_ring(7)
        for pairs in g.edge_neighbors:
            for _, sgn in pairs:
                assert sgn == 1

    def test_flipped_edge_couples_negatively(self):
        # 0 -> 1 <- 2: both edges point into the shared vertex
        g = graph_from_edges(3, [(0, 1), (2, 1)])
        assert g.edge_neighbors[0] == ((1, -1),)
        assert g.edge_neighbors[1] == ((0, -1),)

    def test_head_to_tail_couples_positively(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert g.edge_neighbors[0] == ((1, 1),)
        assert g.edge_neighbors[1] == ((0, 1),)

    def test_shared_tail_couples_negatively(self):
        # 1 <- 0 -> 2: both edges point out of the shared vertex
        g = graph_from_edges(3, [(0, 1), (0, 2)])
        assert g.edge_neighbors[0] == ((1, -1),)
        assert g.edge_neighbors[1] == ((0, -1),)


class TestOrientedCycle:
    def test_ring_is(self):
        assert build_ring(9).is_oriented_cycle

    def test_path_is_not(self):
        assert not build_path(9).is_oriented_cycle

    def test_flipped_ring_edge_is_not(self):
        edges = list(build_ring(5).edges)
        a, b = edges[2]
        edges[2] = (b, a)
        g = graph_from_edges(5, edges)
        assert not g.is_oriented_cycle


class TestGraphFromEdges:
    def test_one_based_offset(self):
        g = graph_from_edges(3, [(1, 2), (2, 3)], one_based=True)
        assert g.edges == ((0, 1), (1, 2))

    def test_kind_label(self):
        g = graph_from_edges(2, [(0, 1)], kind="custom")
        assert g.kind == "custom"


class TestLoadEdgeList:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a comment\n1 2\n\n2 3\n3 1\n")
        g = load_edge_list(p)
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2), (2, 0))
        assert g.kind == "custom"

    def test_malformed_line_carries_location(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n1 2 3\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2"):
            load_edge_list(p)

    def test_non_integer_label(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 x\n")
        with pytest.raises(ValueError, match="integers"):
            load_edge_list(p)

    def test_zero_label_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n")
        with pytest.raises(ValueError, match="1-based"):
            load_edge_list(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no edges"):
            load_edge_list(p)

    @pytest.mark.parametrize("label", [10_000_000, 2**32])
    def test_too_few_edges_refused_without_vertex_arrays(self, tmp_path, label):
        # one edge cannot connect `label` vertices; the refusal allocates no
        # array with an entry per vertex (80 MB at 1e7, 32 GiB at 2**32)
        p = tmp_path / "sparse.txt"
        p.write_text(f"1 {label}\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="graph is not connected"):
                load_edge_list(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
