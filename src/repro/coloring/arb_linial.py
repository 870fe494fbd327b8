"""Arb-Linial: O(β²)-coloring from a β-out-degree orientation (§6.1-6.2).

Iterates the cover-free reduction: ids (an n-coloring) → O(β² log n) →
O(β² log β) → ... → O(β²), converging in O(log* n) one-sided LOCAL rounds.
The observation of [BE10b] that Linial's algorithm only needs *out*-degree
bounds (not maximum degree) is what makes it work on arboricity-sparse
graphs with huge Δ.

Both colorings run each round as one whole-graph array kernel over a
directed "must-differ" edge array ``src -> tgt``: the orientation's
out-edges for Arb-Linial, the CSR in both directions for the undirected
variant.  Colors become a ``(d+1, n)`` matrix of base-q digits; for
a = 0, 1, ... one Horner pass evaluates every undecided vertex's
polynomial, ``val[src] == val[tgt]`` flags the clashing edges, and each
clash-free vertex takes ``a*q + p(a)`` and leaves the round.  This picks
the same point as :meth:`CoverFreeFamily.reduce_color` per vertex; the
seed per-vertex loops live on in :mod:`repro.coloring.reference` as the
differential oracle.

The AMPC cost of simulating r one-sided rounds is governed by the out-ball
size β^r (Section 6.1's case analysis); :func:`ampc_rounds_for_simulation`
encodes that conversion and is reused by all pipelines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.coloring.cover_free import CoverFreeFamily, choose_family
from repro.core.orientation import Orientation

__all__ = [
    "ArbLinialResult",
    "arb_linial_coloring",
    "linial_undirected_coloring",
    "ampc_rounds_for_simulation",
]

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class ArbLinialResult:
    """Coloring plus the reduction schedule that produced it."""

    colors: list[int]
    num_colors: int  # final palette size q²
    local_rounds: int
    schedule: list[CoverFreeFamily] = field(default_factory=list)


def arb_linial_coloring(
    orientation: Orientation,
    beta: int,
    initial_colors: list[int] | None = None,
    initial_palette: int | None = None,
    max_rounds: int = 64,
) -> ArbLinialResult:
    """Run Arb-Linial to its fixed point.

    ``beta`` must upper-bound the orientation's out-degree.  The default
    initial coloring is vertex ids (palette n).  Stops when another round
    would not shrink the palette.
    """
    out = orientation.out_neighbors
    n = orientation.graph.num_vertices
    counts = np.fromiter(map(len, out), dtype=np.int64, count=len(out))
    out_degree = int(counts.max(initial=0))
    if out_degree > beta:
        raise ValueError(f"orientation out-degree {out_degree} exceeds β={beta}")
    colors, palette = _initial_coloring(n, initial_colors, initial_palette)
    src = np.repeat(np.arange(len(out), dtype=np.int64), counts)
    tgt = np.fromiter(
        itertools.chain.from_iterable(out), dtype=np.int64, count=int(counts.sum())
    )
    return _linial_to_fixed_point(colors, palette, src, tgt, beta, out_degree, max_rounds)


def linial_undirected_coloring(
    graph,
    max_degree: int,
    initial_colors: list[int] | None = None,
    initial_palette: int | None = None,
    max_rounds: int = 64,
) -> ArbLinialResult:
    """Classic (undirected) Linial reduction to O(Δ²) colors.

    Used for the per-layer initial colorings of Section 6.3, where the
    within-layer degree is at most β.  Identical machinery to
    :func:`arb_linial_coloring` but each vertex avoids *all* neighbors:
    the must-differ edges are the CSR in both directions.
    """
    n = graph.num_vertices
    colors, palette = _initial_coloring(n, initial_colors, initial_palette)
    if max_degree < 1:
        return ArbLinialResult(colors=[0] * n, num_colors=min(n, 1), local_rounds=0)
    offsets, targets = graph.csr()
    degrees = np.diff(offsets)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    return _linial_to_fixed_point(
        colors, palette, src, targets, max_degree, int(degrees.max(initial=0)),
        max_rounds,
    )


def _initial_coloring(
    n: int, initial_colors: list[int] | None, initial_palette: int | None
) -> tuple[np.ndarray, int]:
    """The starting colors as int64 plus their palette (ids when omitted)."""
    if initial_colors is None:
        return np.arange(n, dtype=np.int64), max(n, 2)
    colors = np.array(initial_colors, dtype=np.int64)
    if initial_palette is not None:
        palette = initial_palette
    else:
        palette = int(colors.max()) + 1
    if ((colors < 0) | (colors >= palette)).any():
        raise ValueError("initial colors outside declared palette")
    return colors, palette


def _linial_to_fixed_point(
    colors: np.ndarray,
    palette: int,
    src: np.ndarray,
    tgt: np.ndarray,
    bound: int,
    out_degree: int,
    max_rounds: int,
) -> ArbLinialResult:
    """Cover-free rounds on the must-differ edges ``src -> tgt`` until the
    palette stops shrinking; ``bound`` is the out-degree the family assumes."""
    schedule: list[CoverFreeFamily] = []
    rounds = 0
    while rounds < max_rounds and palette > 2:
        family = choose_family(palette, bound)
        if family.target_colors >= palette:
            break  # fixed point: O(β²) reached
        q, d = family.q, family.d
        if out_degree > bound:
            raise ValueError("more out-neighbors than β")
        if d * bound >= q:
            raise ValueError("family too small: need q > d·β")
        if q * q - 1 > _INT64_MAX:
            raise ValueError(f"field size q={q} overflows int64 arithmetic")
        digits = np.empty((d + 1, colors.size), dtype=np.int64)
        for i in range(d + 1):
            digits[i] = colors % q
            colors = colors // q
        if colors.any():
            raise AssertionError("q^(d+1) >= m violated; family misconstructed")
        colors = _linial_round(digits, src, tgt, q)
        palette = family.target_colors
        schedule.append(family)
        rounds += 1
    return ArbLinialResult(
        colors=colors.tolist(), num_colors=palette, local_rounds=rounds,
        schedule=schedule,
    )


def _linial_round(
    digits: np.ndarray, src: np.ndarray, tgt: np.ndarray, q: int
) -> np.ndarray:
    """One cover-free reduction round over every vertex at once.

    ``digits`` is the ``(d+1, n)`` matrix of base-q color digits (the
    polynomials' coefficients, low order first).  For a = 0, 1, ... one
    Horner pass evaluates the polynomials of the still-undecided vertices
    and of their out-neighbors; an edge clashes when both endpoints agree
    at a.  A vertex with no clashing out-edge takes color ``a*q + p(a)``
    and is dropped, with its edges, before the next point.  Identical to
    calling :meth:`CoverFreeFamily.reduce_color` per vertex.
    """
    n = digits.shape[1]
    new = np.empty(n, dtype=np.int64)
    nodes = np.arange(n, dtype=np.int64)  # vertices whose value is needed
    undecided = np.ones(n, dtype=bool)  # per node
    for a in range(q):
        val = _horner(digits, a, q)
        clash = np.zeros(nodes.size, dtype=bool)
        clash[src[val[src] == val[tgt]]] = True
        done = undecided & ~clash
        new[nodes[done]] = a * q + val[done]
        if not clash.any():
            return new
        # Keep the clashing vertices, their out-edges and those edges'
        # targets; renumber the edges into the compacted node set.
        keep = clash[src]
        src, tgt = src[keep], tgt[keep]
        need = clash.copy()
        need[tgt] = True
        local = np.cumsum(need) - 1
        src, tgt = local[src], local[tgt]
        nodes, digits, undecided = nodes[need], digits[:, need], clash[need]
    raise AssertionError(
        "no distinguishing point found; inputs were not a proper coloring"
    )


def _horner(digits: np.ndarray, a: int, q: int) -> np.ndarray:
    """Column-wise p(a) over F_q for low-order-first coefficient rows."""
    result = digits[-1].copy()
    for coef in digits[-2::-1]:
        result *= a
        result += coef
        result %= q
    return result


def ampc_rounds_for_simulation(local_rounds: int, fanout: int, space: int) -> int:
    """AMPC rounds to simulate ``local_rounds`` one-sided LOCAL rounds.

    One AMPC round gathers an out-ball of radius t, size ~ fanout^t, into a
    machine with ``space`` words, so t = floor(log_fanout(space)) LOCAL
    rounds per AMPC round (at least 1: gathering direct out-neighbors needs
    fanout <= space, which the paper guarantees via α <= n^{δ/(1+ε)}).
    """
    if local_rounds <= 0:
        return 0
    if fanout <= 1:
        return 1
    per_round = max(1, int(math.floor(math.log(max(space, 2)) / math.log(fanout))))
    return max(1, math.ceil(local_rounds / per_round))
