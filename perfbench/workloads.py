"""The four benchmark workloads: inputs, the pipeline call, its traced
recomposition, and the correctness gate.

Every workload pins engine, workers and transport through function
arguments.  ``run`` is the untraced call whose wall time the benchmark
reports; ``traced`` rebuilds the same result from the layers' public
functions, one span per call, so the per-layer split can be read off.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.coloring.arb_linial import (
    ampc_rounds_for_simulation,
    linial_undirected_coloring,
)
from repro.coloring.derandomized_mpc import deterministic_mpc_coloring
from repro.coloring.kuhn_wattenhofer import kw_color_reduction
from repro.coloring.pipeline import coloring_two_plus_eps
from repro.coloring.recolor import greedy_recolor_by_layers, recoloring_ampc_rounds
from repro.core.batched_games import replay_cone_fraction
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.generators import (
    preferential_attachment,
    random_gnm,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.graphs.validation import is_proper_coloring

DELTA = 0.5  # the pipelines' default local-space exponent
EPS = 1.0  # Theorem 1.3(3)'s ε: β = ceil((2+ε)α)
GRAPHS = 3  # distinct-seed graphs a run makes at set-up

REPLAY_KEYS = (
    "replayed_waves", "fresh_waves", "replayed_entries", "fresh_entries",
    "redo_games",
)
FABRIC_COUNT_KEYS = (
    "messages", "words", "subrounds", "row_requests", "rows_served",
    "ejected_games", "ghost_cache_hits", "ghost_cache_evicted",
)
FABRIC_TIME_KEYS = ("serve", "install", "compact", "play")
PHASE_KEYS = ("native", "explore", "forward", "fold", "cache")
RECOVERY_KEYS = (
    "retries", "respawns", "deadline_kills", "checksum_rejects",
    "degraded_shards", "recovery_wall_s",
)

# Every per-layer metric of the traced run, with its unit.
PER_LAYER_UNITS = {
    "graphs.from_arrays_s": "s",
    "graphs.induced_subgraph_s": "s",
    "graphs.validate_s": "s",
    "core.partition_s": "s",
    "core.partition_rounds": "count",
    "core.games": "count",
    "core.game_cache_hits": "count",
    **{f"core.phase.{k}_s": "s" for k in PHASE_KEYS},
    **{f"replay.{k}": "count" for k in REPLAY_KEYS},
    "replay.cone_fraction": "ratio",
    "pool.partition_serial_s": "s",
    "pool.speedup": "x",
    "pool.driver_cpu_s": "s",
    **{f"pool.{k}": "s" if k.endswith("_s") else "count" for k in RECOVERY_KEYS},
    **{f"fabric.{k}": "words" if "words" in k else "count" for k in FABRIC_COUNT_KEYS},
    "fabric.max_held_words": "words",
    **{f"fabric.{k}_s": "s" for k in FABRIC_TIME_KEYS},
    "coloring.linial_s": "s",
    "coloring.kw_s": "s",
    "coloring.linial_rounds": "count",
    "coloring.kw_rounds": "count",
    "coloring.mpc_s": "s",
    "coloring.mpc_phases": "count",
    "coloring.mpc_max_message_words": "words",
    "coloring.recolor_s": "s",
    "host.probe_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "gnm", "pa" or "forests"
    n: int
    size_arg: int  # m for gnm, links for pa, k for forests
    # coloring_two_plus_eps(alpha, EPS, initial_method, ...) when method
    # is set; otherwise beta_partition_ampc(beta, ...) alone.
    method: str | None
    alpha: int = 0
    beta: int = 0
    engine: str = "compiled"
    workers: int = 1
    transport: str = "shm"
    shards: int | None = None

    @property
    def pipeline_beta(self) -> int:
        if self.method is None:
            return self.beta
        return max(math.ceil((2 + EPS) * self.alpha), 2)

    @property
    def uses_pool(self) -> bool:
        return self.workers > 1

    def scaled(self, scale: float) -> "Workload":
        """The same workload on inputs shrunk by ``scale`` (smoke runs)."""
        if scale == 1.0:
            return self
        n = max(60, int(self.n * scale))
        size_arg = max(n, int(self.size_arg * scale)) if self.generator == "gnm" else self.size_arg
        return replace(self, n=n, size_arg=size_arg)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gnm-kw", "gnm", 100_000, 200_000, method="kw", alpha=3),
        Workload("powerlaw-pool", "pa", 20_000, 4, method="kw", alpha=4, workers=2),
        # α=4 bounds the arboricity (≤ 3) of a 3-forest union loosely, for β=12.
        Workload("forests-mpc", "forests", 4_000, 3, method="mpc", alpha=4),
        Workload(
            "fabric-batched", "pa", 5_000, 4, method=None, beta=12,
            engine="batched", transport="message", shards=4,
        ),
    )
}


def generate(w: Workload, seed: int) -> np.ndarray:
    """The ``(m, 2)`` edge array of one input graph (set-up, untimed)."""
    if w.generator == "gnm":
        graph = random_gnm(w.n, w.size_arg, seed)
    elif w.generator == "pa":
        graph = preferential_attachment(w.n, w.size_arg, seed)
    else:
        graph = union_of_random_forests(w.n, w.size_arg, seed)
    return np.array(graph.edge_array(), dtype=np.int64)


# -- the untraced call ------------------------------------------------------


@dataclass
class Outcome:
    """What one coloring or partition returned, reduced to what is checked."""

    graph: Graph
    colors: np.ndarray | None  # None for the partition-only workload
    palette_bound: int
    engine: str
    layers: int
    ampc_rounds: int
    partition: object = None  # PartialBetaPartition when the call exposes it
    counts: dict | None = None  # core/fabric/replay counts when exposed


def partition_counts(outcome) -> dict:
    """Exact counts of a BetaPartitionOutcome (the determinism check)."""
    counts = {
        "core.games": sum(outcome.unlayered_per_round),
        "core.game_cache_hits": outcome.game_cache_hits,
        "core.partition_rounds": outcome.rounds,
    }
    for key in REPLAY_KEYS:
        counts[f"replay.{key}"] = sum(r.get(key, 0) for r in outcome.round_reuse)
    for key in FABRIC_COUNT_KEYS:
        counts[f"fabric.{key}"] = sum(c.get(key, 0) for c in outcome.round_comm)
    counts["fabric.max_held_words"] = outcome.max_held_words
    return counts


def run(w: Workload, n: int, edges: np.ndarray) -> Outcome:
    """The timed interval: edge array -> validated result."""
    graph = Graph.from_arrays(n, edges)
    if w.method is None:
        out = beta_partition_ampc(
            graph, w.beta, engine=w.engine, workers=w.workers,
            transport=w.transport, shards=w.shards,
        )
        return Outcome(
            graph, None, 0, out.engine, out.num_layers, out.rounds,
            partition=out.partition, counts=partition_counts(out),
        )
    res = coloring_two_plus_eps(
        graph, w.alpha, EPS, initial_method=w.method, engine=w.engine,
        workers=w.workers,
    )
    return Outcome(
        graph, np.asarray(res.colors, dtype=np.int64), res.palette_bound,
        res.details["partition_engine"], res.num_layers, res.total_rounds,
    )


# -- the traced recomposition -----------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent span and graph id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, graph_id: int):
        record = {
            "id": len(self.spans), "name": name, "graph": graph_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str, graph_id: int) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["graph"] == graph_id
        )


def traced(w: Workload, n: int, edges: np.ndarray, tr: Tracer, gid: int):
    """Rebuild the workload's result from public calls, one span per call.

    Mirrors ``coloring_two_plus_eps`` (β, per-layer Linial+KW or
    Theorem 1.5, the ``pick`` rule and the round formulas) so its colors
    must be byte-identical to the pipeline's.  Returns the Outcome and a
    dict of per-layer counts and times that are not spans.
    """
    extra: dict = {}
    phases: dict = {}
    beta = w.pipeline_beta
    with tr.span("pipeline", gid):
        with tr.span("graphs.from_arrays", gid):
            graph = Graph.from_arrays(n, edges)
        cpu0 = time.process_time()
        with tr.span("core.partition", gid):
            out = beta_partition_ampc(
                graph, beta, delta=DELTA, engine=w.engine, workers=w.workers,
                transport=w.transport, shards=w.shards, phases=phases,
            )
        cpu_s = time.process_time() - cpu0
        counts = partition_counts(out)
        extra.update(counts)
        for key in PHASE_KEYS:
            extra[f"core.phase.{key}_s"] = phases.get(key, 0.0)
        replay_total = {k: counts[f"replay.{k}"] for k in REPLAY_KEYS}
        extra["replay.cone_fraction"] = replay_cone_fraction(replay_total) or 0.0
        for key in FABRIC_TIME_KEYS:
            extra[f"fabric.{key}_s"] = sum(
                c.get(f"{key}_s", 0.0) for c in out.round_comm
            )
        if w.uses_pool:
            extra["pool.driver_cpu_s"] = cpu_s
            for key in RECOVERY_KEYS:
                extra[f"pool.{key}"] = out.round_recovery.get(key, 0)
        if w.method is None:
            return Outcome(
                graph, None, 0, out.engine, out.num_layers, out.rounds,
                partition=out.partition, counts=counts,
            ), extra

        partition = out.partition
        with tr.span("core.layer_array", gid):
            layer_vec = partition.layer_array(n)
        order = np.argsort(layer_vec, kind="stable")
        boundaries = np.flatnonzero(np.diff(layer_vec[order])) + 1
        initial = np.zeros(n, dtype=np.int64)
        rounds = {"linial": 0, "kw": 0, "mpc": 0}
        extra["coloring.mpc_phases"] = 0
        extra["coloring.mpc_max_message_words"] = 0
        groups = np.split(order, boundaries)
        for vertices in groups:
            with tr.span("graphs.induced_subgraph", gid):
                sub = graph.induced_subgraph(vertices)
            if sub.num_edges == 0:
                continue
            if w.method == "kw":
                sub_degree = min(sub.max_degree(), beta)
                with tr.span("coloring.linial", gid):
                    lin = linial_undirected_coloring(sub, sub_degree)
                with tr.span("coloring.kw", gid):
                    kw = kw_color_reduction(
                        sub, lin.colors, sub_degree, palette=lin.num_colors
                    )
                initial[vertices] = kw.colors
                rounds["linial"] = max(rounds["linial"], lin.local_rounds)
                rounds["kw"] = max(rounds["kw"], kw.local_rounds)
            else:
                with tr.span("coloring.mpc", gid):
                    res = deterministic_mpc_coloring(sub, x=2, delta=DELTA)
                initial[vertices] = res.colors
                rounds["mpc"] = max(rounds["mpc"], res.mpc_rounds)
                extra["coloring.mpc_phases"] = max(
                    extra["coloring.mpc_phases"], res.phases
                )
                extra["coloring.mpc_max_message_words"] = max(
                    extra["coloring.mpc_max_message_words"], res.max_message_words
                )
        pick = "highest" if w.method == "kw" else "lowest"
        with tr.span("coloring.recolor", gid):
            recolored = greedy_recolor_by_layers(
                graph, partition, initial, beta, pick=pick
            )
        with tr.span("graphs.validate", gid):
            proper = is_proper_coloring(graph, recolored.colors)
    if not proper:
        raise AssertionError("traced recomposition produced an improper coloring")
    extra["coloring.linial_rounds"] = rounds["linial"]
    extra["coloring.kw_rounds"] = rounds["kw"]
    space = max(2, math.ceil((n + graph.num_edges) ** DELTA))
    if w.method == "kw":
        init_rounds = ampc_rounds_for_simulation(
            max(rounds["linial"], 1), max(beta, 2), space
        ) + ampc_rounds_for_simulation(rounds["kw"], max(beta, 2), space)
    else:
        init_rounds = rounds["mpc"]
    recolor_rounds = recoloring_ampc_rounds(len(groups), beta, DELTA, n)
    return Outcome(
        graph, np.asarray(recolored.colors, dtype=np.int64), beta + 1,
        out.engine, out.num_layers, out.rounds + init_rounds + recolor_rounds,
        partition=partition, counts=counts,
    ), extra


# -- the correctness gate ---------------------------------------------------


def certify(w: Workload, n: int, edges: np.ndarray, out: Outcome) -> tuple[np.ndarray, list[str]]:
    """Check one result independently of the code that produced it.

    Returns the coloring that was checked and the list of failed checks
    (empty when the result is correct).  The partition-only workload is
    colored here, outside the timed interval, by the greedy top-down
    (β+1)-coloring its partition certifies, with vertex ids as the
    within-layer order.
    """
    problems = []
    if out.engine != w.engine:
        problems.append(f"engine {out.engine!r} ran, {w.engine!r} was pinned")
    colors, bound = out.colors, out.palette_bound
    if out.partition is not None and not out.partition.is_valid(out.graph, w.pipeline_beta):
        problems.append(f"invalid {w.pipeline_beta}-partition")
    if colors is None:
        colors = np.asarray(
            greedy_recolor_by_layers(
                out.graph, out.partition, list(range(n)), w.beta, pick="lowest"
            ).colors,
            dtype=np.int64,
        )
        bound = w.beta + 1
    if colors.shape != (n,):
        problems.append(f"{colors.shape} colors for {n} vertices")
    elif edges.size and (colors[edges[:, 0]] == colors[edges[:, 1]]).any():
        problems.append("improper coloring")
    elif colors.min() < 0 or colors.max() >= bound:
        problems.append(f"colors outside palette_bound {bound}")
    return colors, problems
