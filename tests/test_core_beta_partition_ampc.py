"""Tests for Theorem 1.2: β-partitioning in simulated AMPC."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.beta_partition_ampc import (
    beta_partition_ampc,
    default_game_budget,
)
from repro.core.orientation import orient_by_partition
from repro.graphs.generators import (
    complete_ary_tree,
    complete_graph,
    grid_2d,
    path_graph,
    preferential_attachment,
    random_gnm,
    union_of_random_forests,
)
from repro.graphs.graph import Graph


class TestBasics:
    def test_empty_graph(self):
        out = beta_partition_ampc(Graph.from_edges(0, []), 3)
        assert out.rounds == 0
        assert out.num_layers == 0

    def test_path(self):
        g = path_graph(10)
        out = beta_partition_ampc(g, 2)
        assert not out.partition.is_partial(g.vertices())
        assert out.partition.is_valid(g, 2)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            beta_partition_ampc(path_graph(3), 0)

    def test_default_budget(self):
        assert default_game_budget(3) == 16


class TestCompletenessAndValidity:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_forest_unions(self, seed, alpha):
        g = union_of_random_forests(80, alpha, seed=seed)
        beta = math.ceil(3 * alpha)
        out = beta_partition_ampc(g, beta)
        assert not out.partition.is_partial(g.vertices())
        assert out.partition.is_valid(g, beta)
        ori = orient_by_partition(g, out.partition)
        assert ori.max_out_degree() <= beta
        assert ori.is_acyclic()

    def test_grid(self):
        g = grid_2d(8, 8)
        out = beta_partition_ampc(g, 5)
        assert out.partition.is_valid(g, 5)

    def test_preferential_attachment_multi_round(self):
        g = preferential_attachment(300, 2, seed=4)
        out = beta_partition_ampc(g, 6)
        assert not out.partition.is_partial(g.vertices())
        assert out.partition.is_valid(g, 6)

    def test_deep_tree_needs_multiple_rounds(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 4)  # 5 natural layers
        out = beta_partition_ampc(g, beta, x=beta + 1)  # certifies 1 layer
        assert out.rounds >= 2
        assert out.partition.is_valid(g, beta)

    def test_layers_appended_monotonically(self):
        # Later-round vertices must sit strictly above earlier ones; with
        # x = beta+1 on a deep tree, round 2 layers exceed round 1 layers.
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        out = beta_partition_ampc(g, beta, x=beta + 1)
        assert out.partition.max_layer() >= 2


class TestFailureModes:
    def test_beta_too_small_for_clique_raises(self):
        g = complete_graph(8)
        with pytest.raises(RuntimeError):
            beta_partition_ampc(g, 2, max_rounds=5)

    def test_round_cap_respected(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        with pytest.raises(RuntimeError):
            beta_partition_ampc(g, beta, x=beta + 1, max_rounds=1)


class TestPeelMode:
    def test_peel_mode_completes(self):
        g = union_of_random_forests(100, 2, seed=5)
        out = beta_partition_ampc(g, 6, mode="peel")
        assert out.mode == "peel"
        assert not out.partition.is_partial(g.vertices())
        assert out.partition.is_valid(g, 6)

    def test_peel_matches_natural_layer_count(self):
        from repro.partition.induced import natural_beta_partition

        g = union_of_random_forests(100, 2, seed=6)
        out = beta_partition_ampc(g, 6, mode="peel")
        natural = natural_beta_partition(g, 6)
        assert out.num_layers == natural.size()
        assert out.rounds == natural.size()

    def test_peel_on_clique_at_threshold(self):
        g = complete_graph(6)
        out = beta_partition_ampc(g, 5, mode="peel")
        assert out.num_layers == 1


class TestResourceAccounting:
    def test_simulator_stats_present(self):
        g = union_of_random_forests(60, 2, seed=7)
        out = beta_partition_ampc(g, 6)
        assert out.simulator is not None
        stats = out.simulator.stats
        assert stats.num_rounds == out.rounds
        assert stats.max_machine_communication > 0
        # At toy scale constants dominate n^delta, so delta' can exceed 1;
        # it just has to be a sane positive number.
        assert stats.effective_delta() > 0

    def test_unlayered_history_decreases(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        out = beta_partition_ampc(g, beta, x=beta + 1)
        hist = out.unlayered_per_round
        assert hist[0] == g.num_vertices
        assert all(a > b for a, b in zip(hist, hist[1:]))


def _assert_outcomes_equivalent(a, b):
    """Dict-backed oracle vs columnar path: observationally identical."""
    assert a.partition.layers == b.partition.layers
    assert a.rounds == b.rounds
    assert a.mode == b.mode
    assert a.x == b.x
    assert a.unlayered_per_round == b.unlayered_per_round
    sa, sb = a.simulator.stats, b.simulator.stats
    assert sa.space_per_machine == sb.space_per_machine
    assert len(sa.rounds) == len(sb.rounds)
    for ra, rb in zip(sa.rounds, sb.rounds):
        for field in (
            "round_index",
            "machines_active",
            "max_reads",
            "max_writes",
            "total_reads",
            "total_writes",
            "store_words",
        ):
            assert getattr(ra, field) == getattr(rb, field), field
    # Space accounting all the way down: every D_i holds the same words.
    for store_a, store_b in zip(a.simulator.stores, b.simulator.stores):
        assert store_a.total_words() == store_b.total_words()


class TestColumnarEquivalence:
    """The columnar fabric must reproduce the dict-backed oracle exactly."""

    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_lca_mode_randomized(self, seed, alpha):
        g = union_of_random_forests(70, alpha, seed=seed)
        beta = 3 * alpha
        a = beta_partition_ampc(g, beta, store="dict")
        b = beta_partition_ampc(g, beta, store="columnar")
        _assert_outcomes_equivalent(a, b)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_peel_mode_randomized(self, seed):
        g = union_of_random_forests(80, 2, seed=seed)
        a = beta_partition_ampc(g, 6, mode="peel", store="dict")
        b = beta_partition_ampc(g, 6, mode="peel", store="columnar")
        _assert_outcomes_equivalent(a, b)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=6, deadline=None)
    def test_gnm_randomized(self, seed):
        g = random_gnm(120, 260, seed=seed)
        a = beta_partition_ampc(g, 9, store="dict")
        b = beta_partition_ampc(g, 9, store="columnar")
        _assert_outcomes_equivalent(a, b)

    def test_multi_round_deep_tree(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        a = beta_partition_ampc(g, beta, x=beta + 1, store="dict")
        b = beta_partition_ampc(g, beta, x=beta + 1, store="columnar")
        assert a.rounds >= 2  # the equivalence spans multiple residuals
        _assert_outcomes_equivalent(a, b)

    def test_preferential_attachment(self):
        g = preferential_attachment(300, 2, seed=4)
        a = beta_partition_ampc(g, 6, store="dict")
        b = beta_partition_ampc(g, 6, store="columnar")
        _assert_outcomes_equivalent(a, b)

    def test_fraction_coin_fallback_parity(self):
        # x = 2^15 at β = 1 pushes the forwarding horizon past the
        # scaled-integer cap, so both fabrics run Fraction coins.
        g = path_graph(10)
        a = beta_partition_ampc(g, 1, x=2**15, store="dict")
        b = beta_partition_ampc(g, 1, x=2**15, store="columnar")
        _assert_outcomes_equivalent(a, b)

    def test_failure_parity_beta_too_small(self):
        g = complete_graph(8)
        for store in ("dict", "columnar"):
            with pytest.raises(RuntimeError):
                beta_partition_ampc(g, 2, max_rounds=5, store=store)

    def test_invalid_store_rejected(self):
        with pytest.raises(ValueError):
            beta_partition_ampc(path_graph(3), 2, store="sqlite")

    def test_strict_space_parity_on_peel(self):
        g = union_of_random_forests(150, 2, seed=9)
        a = beta_partition_ampc(g, 6, mode="peel", strict_space=True, store="dict")
        b = beta_partition_ampc(
            g, 6, mode="peel", strict_space=True, store="columnar"
        )
        _assert_outcomes_equivalent(a, b)
        assert b.simulator.stats.within_budget


class TestStrictSpace:
    def test_peel_mode_fits_strict_budgets(self):
        """Each peel-mode machine does 1 read + <=1 write, so even the
        tiny bench-scale n^delta budgets hold strictly."""
        g = union_of_random_forests(150, 2, seed=9)
        out = beta_partition_ampc(g, 6, mode="peel", strict_space=True)
        assert not out.partition.is_partial(g.vertices())
        assert out.simulator.stats.within_budget

    def test_lca_mode_reports_budget_status(self):
        # At toy scale the game's constant factors exceed n^delta; the
        # simulator must *report* that honestly rather than hide it.
        g = union_of_random_forests(150, 2, seed=9)
        out = beta_partition_ampc(g, 6, mode="lca")
        stats = out.simulator.stats
        assert stats.max_machine_communication > 0
        assert isinstance(stats.within_budget, bool)


class TestPhases:
    @pytest.mark.parametrize("engine,keys", [
        ("batched", {"explore", "forward", "fold"}),
        ("compiled", {"native", "fold"}),
    ])
    def test_phase_keys_per_engine(self, engine, keys):
        if engine == "compiled" and not native.available():
            pytest.skip("compiled kernel unavailable")
        phases: dict = {}
        g = random_gnm(200, 400, seed=3)
        out = beta_partition_ampc(g, 9, engine=engine, phases=phases)
        assert out.engine == engine
        assert set(phases) == keys
        assert all(t >= 0.0 for t in phases.values())
