"""Kuhn-Wattenhofer iterative color reduction (used in Section 6.3).

Reduces an m-coloring to a (Δ+1)-coloring in O(Δ · log(m / Δ)) LOCAL
rounds: partition the palette into blocks of 2(Δ+1) colors; inside each
block, spend Δ+1 rounds moving the upper-half color classes down into the
lower half (a vertex has <= Δ neighbors, the lower half has Δ+1 colors, so
a free one always exists); then renumber the surviving lower halves
consecutively, halving the palette.  Blocks act in parallel because their
color ranges are disjoint.

Each phase is one array step over the whole graph: gather the CSR rows of
the vertices at the phase's upper offset, mark the lower-half colors
their neighbors hold in a ``(k, Δ+1)`` boolean matrix, and take each
row's first free column with ``argmin``.  Renumbering is array
arithmetic.  The seed per-vertex loop is kept in
:mod:`repro.coloring.reference` as the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["KWResult", "kw_color_reduction"]


@dataclass
class KWResult:
    """Coloring plus round accounting."""

    colors: list[int]
    num_colors: int
    local_rounds: int


def kw_color_reduction(
    graph: Graph,
    colors: list[int],
    max_degree: int,
    palette: int | None = None,
) -> KWResult:
    """Reduce ``colors`` (proper on ``graph``) to max_degree + 1 colors.

    ``max_degree`` must upper-bound every vertex degree in ``graph``.
    """
    delta_plus_1 = max_degree + 1
    colors = np.array(colors, dtype=np.int64)
    if palette is not None:
        m = palette
    else:
        m = int(colors.max()) + 1 if colors.size else 1
    if ((colors < 0) | (colors >= m)).any():
        raise ValueError("colors outside declared palette")
    rounds = 0
    while m > delta_plus_1:
        block = 2 * delta_plus_1
        # Phase j: every vertex whose color sits at upper position j of its
        # block recolors into the block's lower half.  A vertex only moves
        # once per pass, so the phases' vertex sets are fixed up front.
        offset = colors % block
        upper = np.flatnonzero(offset >= delta_plus_1)
        by_phase = upper[np.argsort(offset[upper], kind="stable")]
        sizes = np.bincount(offset[upper] - delta_plus_1, minlength=delta_plus_1)
        ends = np.cumsum(sizes)
        for j in range(delta_plus_1):
            movers = by_phase[ends[j] - sizes[j]: ends[j]]
            if movers.size:
                colors[movers] = _first_free(
                    graph, colors, movers, colors[movers] - (delta_plus_1 + j),
                    delta_plus_1,
                )
        rounds += delta_plus_1
        # Renumber: block b's lower half [b*block, b*block + Δ+1) maps to
        # [b*(Δ+1), (b+1)*(Δ+1)).  Free (local arithmetic, no round).
        colors = (colors // block) * delta_plus_1 + colors % block
        m = -(-m // block) * delta_plus_1
    return KWResult(colors=colors.tolist(), num_colors=m, local_rounds=rounds)


def _first_free(
    graph: Graph,
    colors: np.ndarray,
    movers: np.ndarray,
    bases: np.ndarray,
    width: int,
) -> np.ndarray:
    """Smallest color in ``[base, base + width)`` no neighbor holds, per mover.

    Gathers the movers' CSR rows, marks the lower-half colors their
    neighbors use in a ``(k, width)`` boolean matrix and takes the first
    free column of each row.
    """
    neighbors, boundaries = graph.neighbors_of(movers)
    row = np.repeat(np.arange(movers.size), np.diff(boundaries))
    rel = colors[neighbors] - bases[row]
    hit = (rel >= 0) & (rel < width)
    taken = np.zeros((movers.size, width), dtype=bool)
    taken[row[hit], rel[hit]] = True
    free = taken.argmin(axis=1)
    if taken[np.arange(movers.size), free].any():
        raise AssertionError("no free color in lower half")
    return bases + free
