import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specalign.graph import (
    Graph,
    ParseError,
    Permutation,
    apply_permutation,
    load_edge_list,
    pad_to,
    write_edge_list,
)


class TestLoadEdgeList:
    def test_basic_undirected(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3
        assert not g.directed
        assert g.adjacency[0, 1] == g.adjacency[1, 0] == 1
        assert g.adjacency[1, 2] == g.adjacency[2, 1] == 1
        assert g.adjacency[0, 2] == 0

    def test_directed_directive(self):
        g = load_edge_list("directed\n0 1")
        assert g.directed
        assert g.adjacency[0, 1] == 1
        assert g.adjacency[1, 0] == 0

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# a comment\n\n0 1\n")
        assert g.n == 2

    def test_empty_input_is_an_error(self):
        with pytest.raises(ParseError, match="cannot infer node count"):
            load_edge_list("undirected\n")

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list("0 1\n0 0")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list("0 1 2")
        with pytest.raises(ParseError):
            load_edge_list("a b")
        with pytest.raises(ParseError):
            load_edge_list("-1 0")

    def test_directive_after_edges_rejected(self):
        with pytest.raises(ParseError):
            load_edge_list("0 1\ndirected")

    def test_declared_node_count_header(self):
        g = load_edge_list("# n=5 undirected\n0 1")
        assert g.n == 5


class TestRoundTrip:
    def test_round_trip_with_isolated_nodes(self):
        g = pad_to(load_edge_list("0 1\n1 2"), 6)
        assert load_edge_list(write_edge_list(g)) == g

    def test_round_trip_directed(self):
        g = load_edge_list("directed\n0 2\n2 1")
        assert load_edge_list(write_edge_list(g)) == g

    def test_round_trip_edgeless(self):
        g = Graph.empty(4)
        assert load_edge_list(write_edge_list(g)) == g


class TestGraphValidation:
    def test_rejects_asymmetric_undirected(self):
        adj = np.zeros((2, 2), dtype=np.int8)
        adj[0, 1] = 1
        with pytest.raises(ValueError, match="symmetric"):
            Graph(adj, directed=False)

    def test_rejects_diagonal(self):
        adj = np.eye(2, dtype=np.int8)
        with pytest.raises(ValueError, match="self-loops"):
            Graph(adj)

    @pytest.mark.parametrize("value", [0.5, 2, -1, np.nan])
    def test_rejects_entries_other_than_0_and_1(self, value):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = value
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            Graph(adj)

    def test_accepts_bool_adjacency(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        g = Graph(adj)
        assert g.adjacency.dtype == np.int8
        assert g.edge_count == 1

    @pytest.mark.parametrize("edge", [(0, -1), (0, 3), (-3, 1)])
    def test_from_edges_rejects_out_of_range_ids(self, edge):
        # numpy would wrap a negative id onto the last node
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            Graph.from_edges(3, [edge])

    def test_adjacency_is_frozen(self):
        g = Graph.empty(2)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 1


class TestPermutation:
    def test_identity_application(self):
        g = load_edge_list("0 1\n1 2")
        assert apply_permutation(g, Permutation.identity(3)) == g

    def test_two_swap_relabels(self):
        g = Graph.from_edges(3, [(0, 1)])
        p = Permutation(np.array([2, 1, 0]))
        hatg = apply_permutation(g, p)
        assert hatg == Graph.from_edges(3, [(2, 1)])

    def test_inverse_round_trip(self):
        g = load_edge_list("0 1\n1 3\n2 3")
        p = Permutation(np.array([1, 3, 0, 2]))
        assert apply_permutation(apply_permutation(g, p), p.inverse()) == g

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            apply_permutation(Graph.empty(3), Permutation.identity(2))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation(np.array([0, 0, 1]))

    @pytest.mark.parametrize("mapping", [np.array([0.0, 1.0, 2.0]), np.array([0.5, 1, 2]), np.array([False, True])])
    def test_refuses_non_integer_mapping(self, mapping):
        # a cast would truncate 0.5 to 0 and read the booleans as 0 and 1
        with pytest.raises(ValueError, match="integer array"):
            Permutation(mapping)

    def test_stores_int64(self):
        p = Permutation(np.array([1, 0], dtype=np.int32))
        assert p.mapping.dtype == np.int64 and p.mapping.tolist() == [1, 0]

    @given(st.permutations(list(range(6))), st.integers(0, 2**31 - 1))
    def test_preserves_edge_count_and_degrees(self, perm, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu((rng.random((6, 6)) < 0.5).astype(np.int8), 1)
        g = Graph(upper + upper.T)
        hatg = apply_permutation(g, Permutation(np.array(perm)))
        assert hatg.edge_count == g.edge_count
        assert sorted(hatg.degrees()) == sorted(g.degrees())


class TestPad:
    def test_noop(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert pad_to(g, 2) == g

    def test_pad_edgeless(self):
        assert pad_to(Graph.empty(1), 3) == Graph.empty(3)

    def test_pad_keeps_edges_isolates_new_nodes(self):
        g = pad_to(Graph.from_edges(2, [(0, 1)]), 3)
        assert g.n == 3
        assert g.adjacency[0, 1] == 1
        assert g.degrees()[2] == 0

    def test_shrink_rejected(self):
        with pytest.raises(ValueError, match="pad"):
            pad_to(Graph.empty(3), 2)
