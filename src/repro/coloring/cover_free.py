"""Polynomial cover-free families for Linial-style color reduction.

One Arb-Linial round maps an m-coloring to a q²-coloring, where q is a
prime with q > d·β and q^{d+1} >= m: encode each color as a distinct
polynomial of degree <= d over F_q (base-q digits as coefficients); a
vertex v with out-degree <= β finds an evaluation point a where its
polynomial differs from all out-neighbors' polynomials (it agrees with
each on <= d points, and d·β < q points cannot cover F_q); the new color
is the pair (a, p_v(a)).

This file provides the parameter selection (minimizing the new palette
q² over the degree d) and the per-vertex reduction step.  Correctness is
*one-sided*: a vertex only needs its out-neighbors' colors, which is what
lets the AMPC wrapper simulate many rounds in one ball collection.

Production rounds do not call :meth:`CoverFreeFamily.reduce_color`:
:mod:`repro.coloring.arb_linial` evaluates every vertex's polynomial at
once as an array Horner pass over the must-differ edges.  The per-vertex
step stays as the building block of the oracles in
:mod:`repro.coloring.reference`, which must pick the same point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.primes import next_prime

__all__ = ["CoverFreeFamily", "choose_family"]


@dataclass(frozen=True)
class CoverFreeFamily:
    """Parameters of one reduction round: F_q polynomials of degree <= d."""

    q: int  # prime field size
    d: int  # polynomial degree
    source_colors: int  # m: colors the encoding must distinguish

    @property
    def target_colors(self) -> int:
        """Size of the new palette, q²."""
        return self.q * self.q

    def coefficients(self, color: int) -> list[int]:
        """Base-q digits of ``color``: the polynomial's d+1 coefficients."""
        if not 0 <= color < self.source_colors:
            raise ValueError(f"color {color} outside palette [0, {self.source_colors})")
        digits = []
        value = color
        for _ in range(self.d + 1):
            digits.append(value % self.q)
            value //= self.q
        if value:
            raise AssertionError("q^(d+1) >= m violated; family misconstructed")
        return digits

    def evaluate(self, color: int, a: int) -> int:
        """p_color(a) over F_q (Horner)."""
        result = 0
        for coef in reversed(self.coefficients(color)):
            result = (result * a + coef) % self.q
        return result

    def reduce_color(self, color: int, out_neighbor_colors: list[int], beta: int) -> int:
        """New color of a vertex given its out-neighbors' current colors.

        Requires len(out_neighbor_colors) <= β and all distinct from
        ``color`` (a proper coloring on the oriented edges).  Returns
        ``a * q + p(a)`` for the smallest valid evaluation point a.
        """
        if len(out_neighbor_colors) > beta:
            raise ValueError("more out-neighbors than β")
        if self.d * beta >= self.q:
            raise ValueError("family too small: need q > d·β")
        own = self.coefficients(color)
        others = [self.coefficients(c) for c in out_neighbor_colors]
        for a in range(self.q):
            mine = 0
            for coef in reversed(own):
                mine = (mine * a + coef) % self.q
            clashes = False
            for coefs in others:
                val = 0
                for coef in reversed(coefs):
                    val = (val * a + coef) % self.q
                if val == mine:
                    clashes = True
                    break
            if not clashes:
                return a * self.q + mine
        raise AssertionError(
            "no distinguishing point found; inputs were not a proper coloring"
        )


def choose_family(m: int, beta: int, max_degree: int = 64) -> CoverFreeFamily:
    """Smallest-q family able to reduce an m-coloring at out-degree β.

    Scans degrees d = 1.. and keeps the d minimizing q (hence the new
    palette q²), subject to q > d·β and q^{d+1} >= m.
    """
    if m < 2:
        raise ValueError("nothing to reduce with fewer than 2 colors")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    best: CoverFreeFamily | None = None
    for d in range(1, max_degree + 1):
        # Smallest q compatible with both constraints at this degree.
        root = int(round(m ** (1.0 / (d + 1))))
        while root**(d + 1) < m:
            root += 1
        q = next_prime(max(d * beta + 1, root, 2))
        if best is None or q < best.q:
            best = CoverFreeFamily(q=q, d=d, source_colors=m)
        if root <= d * beta + 1:
            break  # larger d can only raise the d·β constraint
    assert best is not None
    return best
