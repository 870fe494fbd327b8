"""Tests for graph serialization."""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    complete_ary_tree,
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
    preferential_attachment,
    random_forest,
    random_gnm,
    random_tree,
    star_graph,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.graphs.io import (
    graph_from_json,
    graph_to_json,
    read_edge_list,
    write_edge_list,
)

GENERATOR_CORPUS = [
    lambda: path_graph(17),
    lambda: cycle_graph(9),
    lambda: star_graph(12),
    lambda: grid_2d(4, 5),
    lambda: hypercube(4),
    lambda: complete_ary_tree(3, 3),
    lambda: random_tree(40, seed=11),
    lambda: random_forest(40, 25, seed=12),
    lambda: union_of_random_forests(50, 3, seed=13),
    lambda: random_gnm(40, 90, seed=14),
    lambda: preferential_attachment(60, 2, seed=15),
    lambda: Graph.from_edges(5, []),  # edgeless
    lambda: Graph.from_edges(0, []),  # empty
]


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = union_of_random_forests(40, 2, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded == g

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n1 2  # inline comment\n")
        g = read_edge_list(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, num_vertices=5)
        assert g.num_vertices == 5

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 2\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    @pytest.mark.parametrize("bad", ["1 x", "1.5 2", "0x1 2"])
    def test_non_integer_token_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
            read_edge_list(path)


class TestStrictMode:
    def test_self_loop_strict_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n2 2\n")
        with pytest.raises(ValueError, match=r"g\.txt:2: self-loop at vertex 2"):
            read_edge_list(path)

    def test_duplicate_strict_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n1 0\n")
        with pytest.raises(ValueError, match=r"g\.txt:3: duplicate edge \(1, 0\)"):
            read_edge_list(path)

    def test_lenient_skips_and_counts(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n2 2\n1 0\n1 2\n2 1\n3 3\n")
        stats: dict = {}
        with pytest.warns(UserWarning, match="dropped 2 self-loop"):
            g = read_edge_list(path, strict=False, stats=stats)
        assert g.num_edges == 2
        assert stats == {
            "self_loops_dropped": 2,
            "duplicates_dropped": 2,
            "edges_kept": 2,
        }

    def test_lenient_clean_file_no_warning(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        stats: dict = {}
        g = read_edge_list(path, strict=False, stats=stats)
        assert g.num_edges == 2
        assert stats["self_loops_dropped"] == 0
        assert stats["duplicates_dropped"] == 0

    def test_id_out_of_range_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 7\n")
        with pytest.raises(
            ValueError, match=r"g\.txt:2: vertex id 7 out of range for num_vertices=5"
        ):
            read_edge_list(path, num_vertices=5)

    def test_id_out_of_range_checked_in_lenient_mode_too(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("9 0\n")
        with pytest.raises(ValueError, match=r"g\.txt:1: vertex id 9"):
            read_edge_list(path, num_vertices=3, strict=False)


class TestRoundTripCorpus:
    @pytest.mark.parametrize("make", GENERATOR_CORPUS)
    def test_edge_list_round_trip(self, make, tmp_path):
        g = make()
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path, num_vertices=g.num_vertices) == g

    @pytest.mark.parametrize("make", GENERATOR_CORPUS)
    def test_json_round_trip(self, make):
        g = make()
        assert graph_from_json(graph_to_json(g)) == g

    @given(
        st.integers(min_value=1, max_value=25).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                        lambda e: e[0] != e[1]
                    ),
                    max_size=50,
                ),
            )
        )
    )
    @settings(max_examples=40)
    def test_random_graph_round_trips_both_formats(self, data):
        n, edges = data
        g = Graph.from_edges(n, edges)
        assert graph_from_json(graph_to_json(g)) == g
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            write_edge_list(g, path)
            assert read_edge_list(path, num_vertices=n) == g


class TestJson:
    def test_roundtrip(self):
        g = union_of_random_forests(30, 3, seed=2)
        assert graph_from_json(graph_to_json(g)) == g

    def test_empty_graph(self):
        g = Graph.from_edges(4, [])
        assert graph_from_json(graph_to_json(g)) == g

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            graph_from_json('{"format": "other"}')

    @pytest.mark.parametrize("edges", [
        [[0, 1, 2], [0, 2, 1]],  # rows of three ids
        [0, 1, 1, 2],  # a flat list of ids
        [[0]],
        [[0, 1.5]],
        [[0, True]],
        "0 1",
    ])
    def test_edges_must_be_integer_pairs(self, edges):
        doc = json.dumps(
            {"format": "repro-graph", "num_vertices": 3, "edges": edges}
        )
        with pytest.raises(ValueError, match="pairs"):
            graph_from_json(doc)

    @pytest.mark.parametrize("extra", [{}, {"num_vertices": "3"}])
    def test_num_vertices_required(self, extra):
        doc = json.dumps(
            {"format": "repro-graph", "edges": [[0, 1]], **extra}
        )
        with pytest.raises(ValueError, match="num_vertices"):
            graph_from_json(doc)
