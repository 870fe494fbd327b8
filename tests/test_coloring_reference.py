"""Differential tests: array Linial / Kuhn-Wattenhofer vs the per-vertex oracles.

``repro.coloring.reference`` keeps the seed per-vertex loops.  Every case
here runs both on one input and requires byte-identical results (colors
as Python ints, palette, round count and the Linial schedule) or the same
exception type.  The ``slow`` case covers the benchmark's layer shape.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import arb_linial, reference
from repro.coloring.arb_linial import arb_linial_coloring, linial_undirected_coloring
from repro.coloring.cover_free import CoverFreeFamily
from repro.coloring.greedy import greedy_coloring
from repro.coloring.kuhn_wattenhofer import kw_color_reduction
from repro.coloring.reference import (
    reference_arb_linial_coloring,
    reference_kw_color_reduction,
    reference_linial_undirected_coloring,
)
from repro.core.orientation import orient_by_partition
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    preferential_attachment,
    random_gnm,
    star_graph,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.partition.induced import natural_beta_partition


def _assert_identical(fast, oracle) -> None:
    assert fast == oracle
    assert all(type(c) is int for c in fast.colors)


def _linial_pair(graph, bound, **kwargs):
    fast = linial_undirected_coloring(graph, bound, **kwargs)
    _assert_identical(fast, reference_linial_undirected_coloring(graph, bound, **kwargs))
    return fast


def _kw_pair(graph, colors, bound, palette=None):
    fast = kw_color_reduction(graph, colors, bound, palette=palette)
    _assert_identical(
        fast, reference_kw_color_reduction(graph, colors, bound, palette=palette)
    )
    return fast


def _pipeline_pair(graph, bound) -> None:
    """The per-layer call sequence of Theorem 1.3(3): Linial, then KW."""
    lin = _linial_pair(graph, bound)
    _kw_pair(graph, lin.colors, bound, palette=lin.num_colors)
    _kw_pair(graph, list(range(graph.num_vertices)), bound)


def _with_isolated(graph: Graph, extra: int) -> Graph:
    return Graph.from_arrays(graph.num_vertices + extra, graph.edge_array())


graphs = st.builds(
    lambda kind, n, seed: {
        "gnm": lambda: random_gnm(n, 2 * n, seed=seed),
        "forests": lambda: union_of_random_forests(n, 3, seed=seed),
        "hubs": lambda: preferential_attachment(n, 2, seed=seed),
    }[kind](),
    st.sampled_from(["gnm", "forests", "hubs"]),
    st.integers(min_value=5, max_value=120),
    st.integers(min_value=0, max_value=2**31),
)


class TestLinialAndKWDifferential:
    @given(graphs)
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, graph):
        _pipeline_pair(graph, graph.max_degree())

    @pytest.mark.parametrize(
        "graph",
        [
            path_graph(30),
            star_graph(25),
            cycle_graph(17),
            complete_graph(9),
            _with_isolated(cycle_graph(10), 5),
            Graph.from_edges(7, [(2, 5)]),  # max_degree 1, mostly isolated
            Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),  # perfect matching
        ],
        ids=["path", "star", "cycle", "complete", "isolated", "one-edge", "matching"],
    )
    def test_fixed_shapes(self, graph):
        _pipeline_pair(graph, graph.max_degree())

    def test_loose_degree_bound(self):
        # The bound only has to upper-bound the degree, as β does per layer.
        g = union_of_random_forests(90, 2, seed=11)
        _pipeline_pair(g, g.max_degree() + 3)

    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_edgeless(self, bound):
        g = Graph.from_edges(9, [])
        _linial_pair(g, bound)
        _kw_pair(g, list(range(9)), bound)

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        _linial_pair(g, 2)
        _kw_pair(g, [], 2)

    def test_explicit_initial_colors(self):
        g = random_gnm(80, 160, seed=5)
        delta = g.max_degree()
        greedy = greedy_coloring(g)
        spread = [7 * c + 3 for c in greedy]  # proper, gappy, palette >> used
        _linial_pair(g, delta, initial_colors=spread, initial_palette=1000)
        _linial_pair(g, delta, initial_colors=spread)
        _kw_pair(g, spread, delta, palette=1000)
        _kw_pair(g, spread, delta)

    @given(graphs, st.integers(min_value=0, max_value=2**31), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_random_initial_colorings(self, graph, seed, spread):
        # A proper coloring scattered over a palette of `spread` x n colors:
        # many vertices share digits, so points beyond a = 0 get exercised.
        greedy = greedy_coloring(graph)
        palette = max(spread * graph.num_vertices, max(greedy) + 1)
        relabel = np.random.default_rng(seed).permutation(palette)
        colors = [int(relabel[c]) for c in greedy]
        delta = graph.max_degree()
        _linial_pair(graph, delta, initial_colors=colors, initial_palette=palette)
        _kw_pair(graph, colors, delta, palette=palette)
        ori = orient_by_partition(graph, natural_beta_partition(graph, delta))
        _assert_identical(
            arb_linial_coloring(ori, delta, initial_colors=colors, initial_palette=palette),
            reference_arb_linial_coloring(
                ori, delta, initial_colors=colors, initial_palette=palette
            ),
        )

    def test_max_rounds_cap(self):
        g = path_graph(3000)
        assert _linial_pair(g, 2).local_rounds > 1
        assert _linial_pair(g, 2, max_rounds=1).local_rounds == 1

    def test_kw_palette_wider_than_64(self):
        # Δ+1 > 64: no bitmask word can hold one block's lower half.
        g = preferential_attachment(1500, 3, seed=2)
        delta = g.max_degree()
        assert delta + 1 > 64
        res = _kw_pair(g, list(range(g.num_vertices)), delta)
        assert res.local_rounds >= delta + 1
        lin = _linial_pair(g, delta)
        _kw_pair(g, lin.colors, delta, palette=lin.num_colors)


class TestArbLinialDifferential:
    @given(graphs, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_orient_by_partition(self, graph, alpha):
        beta = 3 * alpha
        partition = natural_beta_partition(graph, beta)
        while partition.is_partial(graph.vertices()):  # β under the arboricity
            beta += 1
            partition = natural_beta_partition(graph, beta)
        ori = orient_by_partition(graph, partition)
        bound = max(ori.max_out_degree(), 1)
        _assert_identical(
            arb_linial_coloring(ori, bound), reference_arb_linial_coloring(ori, bound)
        )

    def test_initial_colors_and_palette(self):
        g = union_of_random_forests(100, 2, seed=4)
        beta = 6
        ori = orient_by_partition(g, natural_beta_partition(g, beta))
        start = arb_linial_coloring(ori, beta)
        for kwargs in (
            {"initial_colors": start.colors, "initial_palette": start.num_colors},
            {"initial_colors": [c + 5 for c in start.colors]},
        ):
            _assert_identical(
                arb_linial_coloring(ori, beta, **kwargs),
                reference_arb_linial_coloring(ori, beta, **kwargs),
            )


class TestErrorParity:
    def test_undirected_degree_above_bound(self):
        g = star_graph(60)
        for fn in (linial_undirected_coloring, reference_linial_undirected_coloring):
            with pytest.raises(ValueError):
                fn(g, 2)

    def test_family_too_small(self, monkeypatch):
        # choose_family always returns q > d·β; force a family that does not.
        def undersized(m, beta, max_degree=64):
            return CoverFreeFamily(q=5, d=3, source_colors=m)

        monkeypatch.setattr(arb_linial, "choose_family", undersized)
        monkeypatch.setattr(reference, "choose_family", undersized)
        g = path_graph(100)
        ori = orient_by_partition(g, natural_beta_partition(g, 2))
        calls = (
            lambda: linial_undirected_coloring(g, 2),
            lambda: reference_linial_undirected_coloring(g, 2),
            lambda: arb_linial_coloring(ori, 2),
            lambda: reference_arb_linial_coloring(ori, 2),
        )
        for call in calls:
            with pytest.raises(ValueError, match="family too small"):
                call()

    def test_linial_no_point_on_improper_input(self):
        g = path_graph(100)
        improper = [0] + list(range(99))  # edge (0, 1) is monochromatic
        for fn in (linial_undirected_coloring, reference_linial_undirected_coloring):
            with pytest.raises(AssertionError):
                fn(g, 2, initial_colors=improper, initial_palette=100)

    def test_arb_no_point_on_improper_input(self):
        g = path_graph(100)
        ori = orient_by_partition(g, natural_beta_partition(g, 2))
        improper = [0] + list(range(99))
        for fn in (arb_linial_coloring, reference_arb_linial_coloring):
            with pytest.raises(AssertionError):
                fn(ori, 2, initial_colors=improper, initial_palette=100)

    def test_kw_no_free_color(self):
        # Hub at upper offset 0 of block 0 while its leaves hold the whole
        # lower half {0, 1}: the degree bound 1 is a lie.
        g = star_graph(4)
        for fn in (kw_color_reduction, reference_kw_color_reduction):
            with pytest.raises(AssertionError):
                fn(g, [2, 0, 1, 1], 1, palette=4)


@pytest.mark.slow
def test_benchmark_layer_shape():
    """Every layer of G(n=100k, m=200k) at β=9, the gnm-kw benchmark input.

    At this shape the natural β-partition's layers equal the AMPC
    partition's, so no partition engine is needed.
    """
    g = random_gnm(100_000, 200_000, seed=1)
    beta = 9
    layer_vec = natural_beta_partition(g, beta).layer_array(g.num_vertices)
    for layer in np.unique(layer_vec):
        sub = g.induced_subgraph(np.flatnonzero(layer_vec == layer))
        if sub.num_edges:
            _pipeline_pair(sub, min(sub.max_degree(), beta))
