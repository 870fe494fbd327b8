"""End-to-end coloring benchmark: edge list -> validated coloring.

    python3 perfbench/run.py --workload gnm-kw --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each workload is one closed-loop client
coloring the run's distinct-seed graphs back to back (round-robin) for
``--seconds`` seconds.  Every timed interval is bracketed by a host
reference probe, so ``wall_ref`` divides out host-speed drift.  Every
result passes an independent correctness gate outside the timed
interval.  ``--trace 1`` runs the traced recomposition instead and
prints the per-layer split.  ``--workload all`` runs every workload,
one process each.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when any check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
NATIVE_CACHE = BUILD / "native"
IMPORT_SAMPLES = 2  # fresh-process import samples, plus the in-process one
POOL_WARMUPS = 3  # pool spawn-and-warm cycles; the last pool stays open
# Spelled out here because workloads.py imports the program, which can only
# happen after src/ is on the path.
WORKLOAD_NAMES = ("gnm-kw", "powerlaw-pool", "forests-mpc", "fabric-batched")

END_TO_END_UNITS = {
    "wall_ref": "probe", "setup_s": "s", "peak_rss_mb": "MB",
    "colors_used": "count", "layers": "count", "ampc_rounds": "count",
}

# The import a run pays before it can color: the benchmark's workload
# module (which imports every layer it calls) and the native kernel load.
IMPORT_CODE = (
    "import sys, time, json\n"
    "t0 = time.perf_counter()\n"
    "import workloads\n"
    "from repro.core import native\n"
    "ok = native.available()\n"
    "print(json.dumps({'s': time.perf_counter() - t0, 'ok': ok, "
    "'error': repr(native.load_error())}))\n"
)


def probe() -> float:
    """Host reference: a fixed pure-Python plus numpy loop (~0.1-0.2 s).

    Runs after a full collection with the collector paused, so garbage
    the program left behind is not billed to the probe.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(90_000):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + i
            acc ^= key
        items = [(v, k) for k, v in table.items()]
        items.sort()
        state = np.arange(150_000, dtype=np.int64)
        for _ in range(4):
            state = (state * 6364136223846793005 + 1442695040888963407) >> 7
            order = np.argsort(state & 0xFFFFF, kind="stable")
            state = state[order] ^ acc
        return time.perf_counter() - t0
    finally:
        gc.enable()


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "numpy": np.__version__,
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def timed_import_in_child() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            "benchmark prepare step failed: cannot import the program from "
            f"{SRC}\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare() -> list[float]:
    """Build the native kernel into the benchmark's cache, then time the
    import + kernel load in fresh processes (warm cache, no compile)."""
    NATIVE_CACHE.mkdir(parents=True, exist_ok=True)
    first = timed_import_in_child()  # may compile; never timed
    if not first["ok"]:
        print(f"native kernel unavailable: {first['error']}", file=sys.stderr)
    return [timed_import_in_child()["s"] for _ in range(IMPORT_SAMPLES)]


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker process the pool started,
    so the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Bench:
    """One workload's run: set-up, the measured loop and its report."""

    def __init__(self, w, seed: int, seconds: float) -> None:
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.graphs: list = []  # edge arrays, one per distinct graph
        self.probes: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.info: dict = {"workload": w.name, "seed": seed, "host": host_info()}

    # -- set-up ------------------------------------------------------------

    def setup(self, import_samples: list[float]) -> float:
        """Spawn and warm the pool, make the run's graphs; return setup_s.

        setup_s = median import+kernel-load sample + graphs x median
        per-graph generation + median pool spawn-and-warm cycle.
        """
        import workloads

        warm = []
        if self.w.uses_pool:
            # Fork the workers before the graphs exist, so they do not
            # inherit the main process's input heap.
            from repro.ampc.pool import close_shared_pools
            from repro.core.beta_partition_ampc import beta_partition_ampc
            from repro.graphs.generators import preferential_attachment

            small = preferential_attachment(300, 4, 0)
            for cycle in range(POOL_WARMUPS):
                if cycle:
                    close_shared_pools()
                t0 = time.perf_counter()
                beta_partition_ampc(
                    small, self.w.pipeline_beta, engine=self.w.engine,
                    workers=self.w.workers, min_pool_games=1,
                )
                warm.append(time.perf_counter() - t0)
        gen = []
        for k in range(workloads.GRAPHS):
            t0 = time.perf_counter()
            edges = workloads.generate(self.w, self.seed * 64 + k)
            gen.append(time.perf_counter() - t0)
            self.graphs.append(edges)
        self.info["setup"] = {
            "import_s": import_samples, "generate_s": gen, "pool_warm_s": warm,
        }
        return (
            median_of(import_samples)
            + len(gen) * median_of(gen)
            + median_of(warm)
        )

    def rounds(self, at_least: int = 1):
        """Graph indices of the closed loop: at least ``at_least`` graphs,
        then more until ``seconds`` have elapsed."""
        start = time.perf_counter()
        i = 0
        while i < at_least or time.perf_counter() - start < self.seconds:
            yield i
            i += 1

    def fail(self, i: int, what: str) -> None:
        self.failures.append(f"graph {i}: {what}")

    # -- timed run ---------------------------------------------------------

    def timed(self) -> dict:
        import workloads

        walls, refs, engines = [], [], []
        counts: dict[int, tuple] = {}  # per distinct graph, first pass
        self.probes.append(probe())
        for i in self.rounds(at_least=len(self.graphs)):
            n, edges = self.w.n, self.graphs[i % len(self.graphs)]
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                out = workloads.run(self.w, n, edges)
                wall = time.perf_counter() - t0
            except Exception as exc:  # a raising call is a failed graph
                self.fail(i, f"raised {exc!r}")
                self.probes.append(probe())
                continue
            self.probes.append(probe())
            walls.append(wall)
            refs.append(wall / ((self.probes[-2] + self.probes[-1]) / 2))
            engines.append(out.engine)
            try:
                colors, problems = workloads.certify(self.w, n, edges, out)
            except Exception as exc:
                colors, problems = None, [f"certificate raised {exc!r}"]
            for p in problems:
                self.fail(i, p)
            if colors is not None:
                counts.setdefault(
                    i % len(self.graphs),
                    (len(set(colors.tolist())), out.layers, out.ampc_rounds),
                )
        self.info.update(
            wall_s_median=median_of(walls), wall_s=walls, wall_ref=refs,
            probe_s=self.probes, engines=engines, counts=list(counts.values()),
        )
        # Quality counts are the median over the distinct graphs: one graph
        # needing one more Theorem 1.5 phase must not flip the run's value.
        colors_used, layers, rounds = zip(*counts.values()) if counts else ((), (), ())
        return {
            "wall_ref": median_of(refs),
            "colors_used": median_of(list(colors_used)),
            "layers": median_of(list(layers)),
            "ampc_rounds": median_of(list(rounds)),
        }

    # -- traced run --------------------------------------------------------

    def traced(self) -> dict:
        import workloads

        tr = workloads.Tracer()
        per_graph: list[dict] = []
        split = []
        for i in self.rounds():
            n, edges = self.w.n, self.graphs[i % len(self.graphs)]
            self.attempted += 1
            self.probes.append(probe())
            try:
                t0 = time.perf_counter()
                plain = workloads.run(self.w, n, edges)
                wall = time.perf_counter() - t0
                out, row = workloads.traced(self.w, n, edges, tr, i)
                colors, problems = workloads.certify(self.w, n, edges, out)
            except Exception as exc:
                self.fail(i, f"raised {exc!r}")
                continue
            for p in problems:
                self.fail(i, p)
            for p in self.cross_check(plain, out):
                self.fail(i, p)
            total = tr.total("pipeline", i)
            for name in (
                "graphs.from_arrays", "graphs.induced_subgraph",
                "graphs.validate", "core.partition", "coloring.linial",
                "coloring.kw", "coloring.mpc", "coloring.recolor",
            ):
                row[f"{name}_s"] = tr.total(name, i)
            row["trace.untraced_wall_s"] = wall
            row["trace.overhead_s"] = total - wall
            if self.w.uses_pool and i == 0:
                row.update(self.pool_comparison(out, row["core.partition_s"]))
            per_graph.append(row)
            parts = {
                "partition": row["core.partition_s"],
                "linial+kw": row["coloring.linial_s"] + row["coloring.kw_s"],
                "mpc": row["coloring.mpc_s"],
            }
            split.append({k: v / total for k, v in parts.items()})
            if out.colors is not None:
                self.info.setdefault("colors_sha256", []).append(
                    hashlib.sha256(np.ascontiguousarray(out.colors).tobytes()).hexdigest()
                )
        self.info["traced_share_of_wall"] = split
        self.info["spans"] = len(tr.spans)
        self.write_spans(tr)
        keys = sorted({k for row in per_graph for k in row})
        merged = {k: median_of([row[k] for row in per_graph if k in row]) for k in keys}
        merged["host.probe_s"] = median_of(self.probes)
        return merged

    def cross_check(self, plain, traced) -> list[str]:
        """Timed call vs traced recomposition: identical colors (hence
        colors_used) and counts."""
        problems = []
        if plain.colors is not None and (
            plain.colors.tobytes() != np.ascontiguousarray(traced.colors).tobytes()
        ):
            problems.append("traced colors differ from the pipeline's")
        for field in ("layers", "ampc_rounds", "engine"):
            a, b = getattr(plain, field), getattr(traced, field)
            if a != b:
                problems.append(f"{field}: timed {a} vs traced {b}")
        if plain.counts is not None and plain.counts != traced.counts:
            diff = {
                k: (plain.counts[k], traced.counts.get(k))
                for k in plain.counts if plain.counts[k] != traced.counts.get(k)
            }
            problems.append(f"counts differ between timed and traced: {diff}")
        return problems

    def pool_comparison(self, pooled, pooled_s: float) -> dict:
        """The same partition at workers=1, for pool.speedup."""
        from repro.core.beta_partition_ampc import beta_partition_ampc

        t0 = time.perf_counter()
        serial = beta_partition_ampc(
            pooled.graph, self.w.pipeline_beta, engine=self.w.engine, workers=1
        )
        serial_s = time.perf_counter() - t0
        n = pooled.graph.num_vertices
        if not np.array_equal(
            serial.partition.layer_array(n), pooled.partition.layer_array(n)
        ):
            self.fail(0, "workers=1 and workers=2 partitions differ")
        return {"pool.partition_serial_s": serial_s, "pool.speedup": serial_s / pooled_s}

    def write_spans(self, tr) -> None:
        BUILD.mkdir(parents=True, exist_ok=True)
        path = BUILD / f"spans-{self.w.name}-seed{self.seed}.json"
        path.write_text(json.dumps(tr.spans))
        self.info["spans_file"] = str(path.relative_to(ROOT))

    def peak_rss_mb(self) -> float:
        """Main-process VmHWM plus every pool worker's, read while they live."""
        import multiprocessing

        total = vm_hwm_mb()
        for child in multiprocessing.active_children():
            try:
                total += vm_hwm_mb(child.pid)
            except OSError:
                pass
        return total


def run_one(args) -> int:
    if not SRC.is_dir():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    import_samples = prepare()
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    from repro.ampc.pool import close_shared_pools
    from repro.core import native

    native.available()
    import_samples.append(time.perf_counter() - t0)

    w = workloads.WORKLOADS[args.workload].scaled(args.scale)
    bench = Bench(w, args.seed, args.seconds)
    try:
        setup_s = bench.setup(import_samples)
        if args.trace:
            values = bench.traced()
            metrics = {
                k: metric(values.get(k, 0), unit)
                for k, unit in workloads.PER_LAYER_UNITS.items()
            }
        else:
            values = bench.timed()
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = bench.peak_rss_mb()
            metrics = {
                k: metric(values[k], u) for k, u in END_TO_END_UNITS.items()
            }
    finally:
        close_shared_pools()
        stop_resource_tracker()
    bench.info["failures"] = bench.failures
    print(json.dumps(bench.info))
    failed = len({f.split(":")[0] for f in bench.failures})
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not bench.failures else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = code or proc.returncode or 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every input graph by this factor (smoke runs)",
    )
    args = parser.parse_args(argv)
    # Engine, workers and transport are pinned by each workload's call
    # arguments; no REPRO_* knob of the caller's shell may leak in.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
