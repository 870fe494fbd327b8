"""The seed (pre-vectorization) Linial and Kuhn-Wattenhofer loops, kept as oracles.

`repro.coloring.arb_linial` and `repro.coloring.kuhn_wattenhofer` replaced
these per-vertex loops with whole-graph numpy kernels over a directed
"must-differ" edge array.  The differential tests
(``tests/test_coloring_reference.py``) run both on the same inputs and
require byte-identical ``colors``, ``num_colors``, ``local_rounds`` and
(for Linial) ``schedule``.  The bodies below are the seed implementations
verbatim; ``CoverFreeFamily.reduce_color`` stays as the per-vertex step
the Linial oracles call.
"""

from __future__ import annotations

from repro.coloring.arb_linial import ArbLinialResult
from repro.coloring.cover_free import CoverFreeFamily, choose_family
from repro.coloring.kuhn_wattenhofer import KWResult
from repro.core.orientation import Orientation
from repro.graphs.graph import Graph

__all__ = [
    "reference_arb_linial_coloring",
    "reference_kw_color_reduction",
    "reference_linial_undirected_coloring",
]


def reference_arb_linial_coloring(
    orientation: Orientation,
    beta: int,
    initial_colors: list[int] | None = None,
    initial_palette: int | None = None,
    max_rounds: int = 64,
) -> ArbLinialResult:
    """The seed per-vertex ``arb_linial_coloring``."""
    if orientation.max_out_degree() > beta:
        raise ValueError(
            f"orientation out-degree {orientation.max_out_degree()} exceeds β={beta}"
        )
    n = orientation.graph.num_vertices
    if initial_colors is None:
        colors = list(range(n))
        palette = max(n, 2)
    else:
        colors = list(initial_colors)
        palette = initial_palette if initial_palette is not None else max(colors) + 1
        if any(not 0 <= c < palette for c in colors):
            raise ValueError("initial colors outside declared palette")
    schedule: list[CoverFreeFamily] = []
    rounds = 0
    while rounds < max_rounds:
        if palette <= 2:
            break
        family = choose_family(palette, beta)
        if family.target_colors >= palette:
            break  # fixed point: O(β²) reached
        old = colors
        colors = [
            family.reduce_color(old[v], [old[w] for w in orientation.out_neighbors[v]], beta)
            for v in range(n)
        ]
        palette = family.target_colors
        schedule.append(family)
        rounds += 1
    return ArbLinialResult(
        colors=colors, num_colors=palette, local_rounds=rounds, schedule=schedule
    )


def reference_linial_undirected_coloring(
    graph,
    max_degree: int,
    initial_colors: list[int] | None = None,
    initial_palette: int | None = None,
    max_rounds: int = 64,
) -> ArbLinialResult:
    """The seed per-vertex ``linial_undirected_coloring``.

    Verbatim, so it still lacks the initial-palette check the production
    function applies; compare the two on valid inputs only.
    """
    n = graph.num_vertices
    if max_degree < 1:
        return ArbLinialResult(colors=[0] * n, num_colors=min(n, 1), local_rounds=0)
    if initial_colors is None:
        colors = list(range(n))
        palette = max(n, 2)
    else:
        colors = list(initial_colors)
        palette = initial_palette if initial_palette is not None else max(colors) + 1
    schedule: list[CoverFreeFamily] = []
    rounds = 0
    while rounds < max_rounds and palette > 2:
        family = choose_family(palette, max_degree)
        if family.target_colors >= palette:
            break
        old = colors
        colors = [
            family.reduce_color(
                old[v], [old[int(w)] for w in graph.neighbors(v)], max_degree
            )
            for v in range(n)
        ]
        palette = family.target_colors
        schedule.append(family)
        rounds += 1
    return ArbLinialResult(
        colors=colors, num_colors=palette, local_rounds=rounds, schedule=schedule
    )


def reference_kw_color_reduction(
    graph: Graph,
    colors: list[int],
    max_degree: int,
    palette: int | None = None,
) -> KWResult:
    """The seed per-vertex ``kw_color_reduction``."""
    delta_plus_1 = max_degree + 1
    colors = list(colors)
    m = palette if palette is not None else (max(colors, default=0) + 1)
    if any(not 0 <= c < m for c in colors):
        raise ValueError("colors outside declared palette")
    rounds = 0
    while m > delta_plus_1:
        block = 2 * delta_plus_1
        # Phase: for upper-half offset j, all vertices whose color sits at
        # upper position j of its block recolor into the block's lower half.
        for j in range(delta_plus_1):
            new_colors = list(colors)
            for v in graph.vertices():
                c = colors[v]
                base = (c // block) * block
                if c - base == delta_plus_1 + j:
                    taken = {
                        colors[int(w)]
                        for w in graph.neighbors(v)
                        if base <= colors[int(w)] < base + delta_plus_1
                    }
                    for candidate in range(base, base + delta_plus_1):
                        if candidate not in taken:
                            new_colors[v] = candidate
                            break
                    else:  # pragma: no cover - impossible by pigeonhole
                        raise AssertionError("no free color in lower half")
            colors = new_colors
            rounds += 1
        # Renumber: block b's lower half [b*block, b*block + Δ+1) maps to
        # [b*(Δ+1), (b+1)*(Δ+1)).  Free (local arithmetic, no round).
        colors = [
            (c // block) * delta_plus_1 + (c % block) for c in colors
        ]
        num_blocks = -(-m // block)
        m = num_blocks * delta_plus_1
        if num_blocks == 1:
            m = min(m, delta_plus_1)
    return KWResult(colors=colors, num_colors=m, local_rounds=rounds)
