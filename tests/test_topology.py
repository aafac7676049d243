import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compassmodel import (Graph, build_path, build_ring, build_torus,
                          edge_boundary, graph_from_edges, load_edge_list)


class TestBuildPath:
    def test_examples(self):
        assert build_path(2).edge_count == 1
        g = build_path(5)
        assert g.edge_count == 4
        assert g.degrees == (1, 2, 2, 2, 1)
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
        assert g.degrees == (2,) * n
        assert g.is_oriented_cycle


class TestBuildTorus:
    def test_two_dim_count(self):
        g = build_torus([3, 3])
        assert g.vertex_count == 9
        assert g.edge_count == 18
        assert g.degrees == (4,) * 9

    def test_three_dim_count(self):
        g = build_torus([3, 3, 3])
        assert g.vertex_count == 27
        assert g.edge_count == 81
        assert g.degrees == (6,) * 27

    def test_one_dim_is_a_ring(self):
        assert build_torus([4]).edges == build_ring(4).edges

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            build_torus([3, 2])
        with pytest.raises(ValueError, match="at least one"):
            build_torus([])


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

    def test_single_vertex_ok(self):
        g = Graph("custom", 1, ())
        assert g.edge_count == 0


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
        assert sorted(map(tuple, g.edge_pair_array.tolist())) == expected
        assert g.adjacent_edge_pairs == tuple(expected)
        assert not g.edge_array.flags.writeable and not g.edge_pair_array.flags.writeable


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


class TestEdgeBoundary:
    def test_ring_segment(self):
        g = build_ring(5)
        assert edge_boundary(g, {0, 1, 2, 3}) == (4,)

    def test_whole_path_has_empty_boundary(self):
        g = build_path(5)
        assert edge_boundary(g, set(range(g.edge_count))) == ()

    def test_interior_path_segment(self):
        g = build_path(6)
        assert edge_boundary(g, {1, 2}) == (0, 3)

    def test_bad_edge_id(self):
        with pytest.raises(ValueError, match="out of range"):
            edge_boundary(build_path(4), {7})

    @given(st.integers(min_value=4, max_value=40), st.data())
    @settings(max_examples=100)
    def test_boundary_edges_touch_the_segment(self, n, data):
        g = build_ring(n)
        lo = data.draw(st.integers(min_value=0, max_value=n - 2))
        hi = data.draw(st.integers(min_value=lo, max_value=n - 2))
        seg = set(range(lo, hi + 1))
        out = edge_boundary(g, seg)
        seg_vertices = {v for e in seg for v in g.edges[e]}
        for e in out:
            assert e not in seg
            assert set(g.edges[e]) & seg_vertices


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
