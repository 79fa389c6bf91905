"""irsalloc benchmark: one workload per process, one op in flight at a time.

    python3 bench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Run from the repository root; the library is imported from `src/` of the
same tree. Inputs come from `--seed`; every op's outputs are checked, and an
op that raises or fails a check counts as failed.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the workload untraced for half the time and traced for the other half, and
reports per-layer metrics from the traced half plus the tracing overhead as
the gap in ops/s between the halves. Human-readable lines go first; the last
line of stdout is one JSON object. Run metadata, the metrics and (traced)
the raw spans are also written under bench/out/.

Held-out seed: 271828 is not used while tuning the benchmark or a change;
keep it for confirming a gain claim.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
HELD_OUT_SEED = 271828
SETUP_STARTS = 5
MIN_TAIL_BEYOND = 10
TAIL_CAP_PCT = 99.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Spans recorded at the benchmark's call sites, <module>.<function>[.<variant>].
SPANS = (
    "scenario.build_topology",
    "allocation.solve_integer.optimal",
    "allocation.solve_integer.closed-form",
    "allocation.solve_integer.exhaustive",
    "benchmarks.run_benchmark.single-pirs",
    "benchmarks.run_benchmark.single-airs",
    "benchmarks.run_benchmark.hybrid-irs",
    "benchmarks.run_benchmark.double-pirs",
    "snr.compare_schemes",
    "snr.check_lemma1",
    "snr.snr_exact_matrix",
    "snr.simulate_empirical_snr",
    "channel.build_channels",
    "reflection.configure",
    "placement.alternating_optimize",
)


def _import_library():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import irsalloc
    if Path(irsalloc.__file__).resolve().parent != SRC / "irsalloc":
        raise ImportError(f"irsalloc imported from {irsalloc.__file__}, not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one op in flight; no queue or wait time "
                "exists in any layer because everything runs on one thread",
    }


def measure_setup(config_path: Path) -> list[float]:
    """Wall times of fresh interpreters that import irsalloc (and its CLI) and
    load the workload's config; the first start fills the bytecode cache and
    is not counted. The child reads the system-wide monotonic clock when it
    is done, because waiting on it with a timeout polls at 50 ms steps."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import irsalloc, irsalloc.cli; "
            "irsalloc.load_scenario(sys.argv[2]); print(time.monotonic())")
    cmd = [sys.executable, "-c", code, str(SRC), str(config_path)]
    times = []
    for _ in range(SETUP_STARTS + 1):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=60, capture_output=True,
                              text=True)
        times.append(float(done.stdout) - t0)
    return times[1:]


class Phase:
    """Results of running one workload for a fixed time."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.counts: dict[str, float] = {}   # summed over ops that passed

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_phase(workload, seed: int, seconds: float, tracer) -> Phase:
    phase = Phase()
    deadline = time.perf_counter() + seconds
    for i, inp in enumerate(workload.inputs(seed)):
        if i >= workload.min_ops and time.perf_counter() >= deadline:
            break
        tracer.op = i
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                out = workload.op(inp, tracer)
        except Exception as exc:  # a failed op is counted, and the run goes on
            phase.latencies.append(time.perf_counter() - t0)
            phase.failed += 1
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        phase.latencies.append(time.perf_counter() - t0)
        bad = workload.check(inp, out)
        if bad:
            phase.failed += 1
            print(f"op {i} failed checks: {'; '.join(bad)}", file=sys.stderr)
            continue
        for key, value in workload.counts(i, inp, out).items():
            phase.counts[key] = phase.counts.get(key, 0) + value
    return phase


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    MIN_TAIL_BEYOND samples above it, capped at TAIL_CAP_PCT: on a shared
    host the few slowest ops of a 20k-op run are scheduling stalls rather
    than work of the program, and they swing by half from run to run."""
    xs = sorted(latencies)
    k = min(len(xs) - MIN_TAIL_BEYOND, math.ceil(TAIL_CAP_PCT / 100.0 * len(xs))) - 1
    if k < 0:
        raise ValueError(f"{len(xs)} ops are too few for a tail latency")
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(phase: Phase, setup_times: list[float]) -> tuple[dict, dict]:
    tail_s, tail_pct = tail(phase.latencies)
    metrics = {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(phase.latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    extra = {
        "ops": len(phase.latencies),
        "tail_percentile": tail_pct,
        "error_rate": phase.failed / len(phase.latencies),
        "setup_times_s": setup_times,
    }
    return metrics, extra


def per_layer(traced: Phase, untraced: Phase, spans) -> tuple[dict, dict]:
    from tracing import layer_totals

    totals = layer_totals(spans)
    metrics = {}
    for name in SPANS:
        t = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (t["calls"], "count")
        metrics[f"{name}.busy_s"] = (t["busy_s"], "s")
        metrics[f"{name}.self_s"] = (t["self_s"], "s")

    def busy(name):
        return totals.get(name, {"busy_s": 0.0})["busy_s"]

    def per_s(count, name):
        return count / busy(name) if busy(name) > 0 else 0.0

    c = traced.counts.get
    solves = c("solves", 0)
    metrics.update({
        "placement.candidates": (c("candidates", 0), "count"),
        "placement.ao_iterations": (c("ao_iterations", 0), "count"),
        "placement.candidates_per_s": (
            per_s(c("candidates", 0), "placement.alternating_optimize"), "1/s"),
        "allocation.exhaustive.pairs": (c("pairs", 0), "count"),
        "allocation.exhaustive.pairs_per_s": (
            per_s(c("pairs", 0), "allocation.solve_integer.exhaustive"), "1/s"),
        "allocation.optimal_hit_ratio": (c("hits", 0) / solves if solves else 0.0, "ratio"),
        "allocation.optimality_gap_bps_hz": (c("gap", 0.0) / solves if solves else 0.0,
                                             "bps/Hz"),
        "snr.mc.samples_per_s": (per_s(c("samples", 0), "snr.simulate_empirical_snr"), "1/s"),
        "snr.mc.bytes_computed": (c("mc_bytes", 0), "B"),
        "trace.untraced_ops_per_s": (untraced.ops_per_s, "1/s"),
        "trace.traced_ops_per_s": (traced.ops_per_s, "1/s"),
        "trace.overhead_share": (1.0 - traced.ops_per_s / untraced.ops_per_s, "share"),
    })
    extra = {"ops_untraced": len(untraced.latencies), "ops_traced": len(traced.latencies),
             "spans": len(spans), "oracle_quality_solves": solves}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        _import_library()
    except ImportError as exc:
        print(f"cannot import irsalloc from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads as W
    from tracing import Tracer

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    meta = metadata(args)

    # warm-up: one op fills lazy imports and allocator pools; not measured
    try:
        workload.op(next(workload.inputs(args.seed)), Tracer(False))
    except Exception:  # the timed loop runs the same input again and counts it
        pass

    if args.trace == 0:
        config_path = OUT_DIR / f"{args.workload}.yaml"
        config_path.write_text(W.scenario_of(next(workload.inputs(args.seed))).config_text())
        setup_times = measure_setup(config_path)
        phase = run_phase(workload, args.seed, args.seconds, Tracer(False))
        metrics, extra = end_to_end(phase, setup_times)
        attempted, failed = len(phase.latencies), phase.failed
    else:
        untraced = run_phase(workload, args.seed, args.seconds / 2, Tracer(False))
        tracer = Tracer(True)
        traced = run_phase(workload, args.seed, args.seconds / 2, tracer)
        metrics, extra = per_layer(traced, untraced, tracer.spans)
        tracer.write(OUT_DIR / f"{args.workload}.spans.jsonl")
        attempted = len(untraced.latencies) + len(traced.latencies)
        failed = untraced.failed + traced.failed
    meta.update(extra)

    for key, value in meta.items():
        print(f"meta {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
