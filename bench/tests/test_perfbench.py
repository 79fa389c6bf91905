"""Tests of the benchmark itself: seeded inputs and the output checks.

Run from the repository root: python3 -m pytest bench/tests -q

Each check is shown to trip by monkeypatching the library function as the
benchmark sees it, so that it returns a deliberately wrong result; the
library itself is never modified.
"""

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as W  # noqa: E402
from irsalloc import AOTrace, build_topology  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402

NO_TRACE = Tracer(False)


def first(workload, seed=3):
    return next(W.WORKLOADS[workload].inputs(seed))


def failures(workload, inp):
    w = W.WORKLOADS[workload]
    return w.check(inp, w.op(inp, NO_TRACE))


def tripped(bad, text):
    return any(text in b for b in bad)


@pytest.fixture
def small(monkeypatch):
    """Coarser grid and fewer MC samples, so one op takes well under a second."""
    monkeypatch.setattr(W, "GRID_STEP_M", 2.5)
    monkeypatch.setattr(W, "MC_SAMPLES", 20_000)


def patch_result(monkeypatch, name, edit):
    original = getattr(W, name)
    monkeypatch.setattr(W, name, lambda *a, **k: edit(original(*a, **k), *a, **k))


def with_snr(budget, snr):
    return dataclasses.replace(budget, snr=snr, rate=math.log2(1.0 + snr))


# ------------------------------------------------------------------- inputs

@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_same_seed_same_inputs(workload):
    def take(seed):
        return list(itertools.islice(W.WORKLOADS[workload].inputs(seed), 25))

    assert take(7) == take(7)
    assert take(7) != take(8)


def test_inputs_cover_the_stated_ranges():
    sweep = [s for s in itertools.islice(W.sweep_inputs(0), 200)]
    assert min(s.total_budget for s in sweep) < 100 and max(s.total_budget for s in sweep) > 2900
    assert min(s.w_act for s in sweep) < 2.2 and max(s.w_act for s in sweep) > 9.8
    verify = list(itertools.islice(W.verify_inputs(0), 20))
    assert {v.scheme for v in verify} == set(W.SCHEMES)
    n_act = [v.scenario.total_budget / (3 * v.scenario.w_act) for v in verify]
    assert n_act[0] == pytest.approx(150, abs=0.2) and min(n_act) < 40
    assert all(29.8 <= n <= 150.2 for n in n_act)


def test_config_text_loads_to_the_same_objects(tmp_path):
    from irsalloc import load_scenario

    s = first("sweep")
    path = tmp_path / "scenario.yaml"
    path.write_text(s.config_text())
    params, topo = load_scenario(path)
    assert params == s.params()
    assert topo == W._topology(s)


def test_exhaustive_pairs_matches_enumeration():
    s = dataclasses.replace(first("exact-oracle"), total_budget=37.0, w_act=3.5)
    brute = sum(1 for na in range(1, 40) for npas in range(1, 40)
                if na * s.w_act + npas * s.w_pas <= s.total_budget)
    assert W.exhaustive_pairs(s) == brute


def test_placement_candidates_at_the_benchmark_step():
    assert W.placement_candidates(W.placement_grid(first("placement").scenario)) == 61 * 21 * 61 * 21


# ------------------------------------------------------- checks pass as is

@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_unpatched_op_passes_every_check(workload, small):
    assert failures(workload, first(workload)) == []


# --------------------------------------------------- each check trips

def test_rate_check_trips_on_wrong_rate(monkeypatch):
    patch_result(monkeypatch, "solve_integer",
                 lambda sol, *a, **k: dataclasses.replace(sol, rate=sol.rate + 1e-6))
    assert tripped(failures("sweep", first("sweep")), "rate != log2(1+snr)")


def test_rate_check_trips_on_nonfinite_rate(monkeypatch):
    patch_result(monkeypatch, "run_benchmark",
                 lambda res, *a, **k: dataclasses.replace(res, rate=math.nan))
    assert tripped(failures("sweep", first("sweep")), "hybrid-irs: rate != log2(1+snr)")


def test_amplitude_check_trips(monkeypatch):
    patch_result(monkeypatch, "solve_integer",
                 lambda sol, *a, **k: dataclasses.replace(sol, amplitude=0.5))
    assert tripped(failures("sweep", first("sweep")), "amplitude < 1")


def test_cost_check_trips(monkeypatch):
    def over_budget(sol, params, *a, **k):
        alloc = dataclasses.replace(sol.allocation,
                                    n_pas=int(params.total_budget) + sol.allocation.n_pas)
        return dataclasses.replace(sol, allocation=alloc)

    patch_result(monkeypatch, "solve_integer", over_budget)
    assert tripped(failures("sweep", first("sweep")), "cost > budget")


def test_benchmark_cost_check_trips(monkeypatch):
    patch_result(monkeypatch, "run_benchmark",
                 lambda res, system, params, *a, **k: dataclasses.replace(
                     res, n_pas=res.n_pas + int(params.total_budget)))
    assert tripped(failures("sweep", first("sweep")), "double-pirs: cost > budget")


def test_comparator_check_trips(monkeypatch):
    patch_result(monkeypatch, "compare_schemes",
                 lambda cmp, *a, **k: dataclasses.replace(
                     cmp, tapr_at_least_tpar=not cmp.tapr_at_least_tpar))
    assert tripped(failures("sweep", first("sweep")), "compare_schemes")


def test_regime_check_trips(monkeypatch):
    patch_result(monkeypatch, "check_lemma1",
                 lambda reg, *a, **k: dataclasses.replace(reg, satisfied=not reg.satisfied))
    assert tripped(failures("sweep", first("sweep")), "check_lemma1")


def test_exhaustive_dominance_check_trips(monkeypatch):
    original = W.solve_integer

    def weak_exhaustive(params, topo, scheme, method="optimal", budget=None):
        if method == "exhaustive":
            # a consistent but suboptimal answer: the optimum of half the budget
            return original(params, topo, scheme, method, budget=params.total_budget / 2)
        return original(params, topo, scheme, method, budget)

    monkeypatch.setattr(W, "solve_integer", weak_exhaustive)
    bad = failures("exact-oracle", first("exact-oracle"))
    assert tripped(bad, "exhaustive rate < optimal rate")
    assert tripped(bad, "exhaustive rate < closed-form rate")
    assert not tripped(bad, "matrix snr")


def test_matrix_check_trips(monkeypatch):
    patch_result(monkeypatch, "snr_exact_matrix",
                 lambda lb, *a, **k: with_snr(lb, lb.snr * (1 + 1e-7)))
    bad = failures("exact-oracle", first("exact-oracle"))
    assert bad and all("matrix snr != closed-form snr" in b for b in bad)


def test_ao_monotone_check_trips(monkeypatch, small):
    def worse_last(trace, *a, **k):
        first_it = trace.iterations[0]
        worse = dataclasses.replace(first_it, rate=first_it.rate - 1.0)
        return AOTrace(iterations=trace.iterations + [worse], converged=trace.converged)

    patch_result(monkeypatch, "alternating_optimize", worse_last)
    assert tripped(failures("placement", first("placement")), "AO rate trace decreases")


def test_ao_d_min_check_trips(monkeypatch, small):
    def too_close(trace, params, grid, scheme, pos_tx, pos_rx, **k):
        last = trace.final
        a = last.topology.pos_irs_a
        near = build_topology(pos_tx, (pos_tx[0] + 0.5, pos_tx[1], pos_tx[2]),
                              last.topology.pos_irs_b, pos_rx, d_min=0.1)
        assert a != near.pos_irs_a
        moved = dataclasses.replace(last, topology=near)
        return AOTrace(iterations=trace.iterations[:-1] + [moved], converged=trace.converged)

    patch_result(monkeypatch, "alternating_optimize", too_close)
    assert tripped(failures("placement", first("placement")), "final placement violates d_min")


def test_monte_carlo_check_trips(monkeypatch, small):
    patch_result(monkeypatch, "simulate_empirical_snr",
                 lambda lb, *a, **k: with_snr(lb, lb.snr * 1.1))
    bad = failures("verify", first("verify"))
    assert bad == ["monte-carlo: estimate off the closed form by more than 2%"]


def test_verify_runs_the_sweep_and_oracle_checks(monkeypatch, small):
    patch_result(monkeypatch, "run_benchmark",
                 lambda res, *a, **k: dataclasses.replace(res, rate=math.nan))
    patch_result(monkeypatch, "snr_exact_matrix",
                 lambda lb, *a, **k: with_snr(lb, lb.snr * (1 + 1e-7)))
    bad = failures("verify", first("verify"))
    assert tripped(bad, "hybrid-irs: rate != log2(1+snr)")
    assert tripped(bad, "matrix snr != closed-form snr")


def test_raising_op_counts_as_failed(monkeypatch):
    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(W, "compare_schemes", boom)
    phase = run.run_phase(W.WORKLOADS["sweep"], 1, 0.0, NO_TRACE)
    assert phase.failed == len(phase.latencies) == W.WORKLOADS["sweep"].min_ops


# ------------------------------------------------------ metrics, tracing

def test_tail_keeps_ten_samples_beyond():
    lat = [float(x) for x in range(1, 41)]
    value, pct = run.tail(lat)
    assert value == 30.0 and sum(x > value for x in lat) == 10 and pct == 75.0
    with pytest.raises(ValueError):
        run.tail(lat[:10])


def test_self_time_excludes_children():
    spans = [("op", 0.0, 10.0, None, 0), ("a", 1.0, 4.0, 0, 0),
             ("b", 5.0, 6.0, 0, 0), ("a", 11.0, 12.0, None, 1)]
    totals = layer_totals(spans)
    assert totals["op"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert totals["a"] == {"calls": 2, "busy_s": 4.0, "self_s": 4.0}


def test_tracer_records_parent_and_op():
    tr = Tracer(True)
    tr.op = 4
    with tr.span("op"):
        with tr.span("inner"):
            pass
    (_, o_start, o_end, o_parent, o_op), (_, i_start, i_end, i_parent, i_op) = tr.spans
    assert i_parent == 0 and o_parent is None and i_op == o_op == 4
    assert o_start <= i_start <= i_end <= o_end


def test_traced_run_reports_every_layer_metric(small):
    w = W.WORKLOADS["exact-oracle"]
    tr = Tracer(True)
    traced = run.run_phase(w, 2, 0.0, tr)
    untraced = run.run_phase(w, 2, 0.0, NO_TRACE)
    metrics, _ = run.per_layer(traced, untraced, tr.spans)
    for name in run.SPANS:
        assert {f"{name}.calls", f"{name}.busy_s", f"{name}.self_s"} <= metrics.keys()
    assert metrics["allocation.solve_integer.exhaustive.calls"][0] == 2 * w.min_ops
    assert metrics["placement.alternating_optimize.calls"][0] == 0
    assert metrics["allocation.exhaustive.pairs"][0] > 0
    assert 0.0 <= metrics["allocation.optimal_hit_ratio"][0] <= 1.0
    assert metrics["allocation.optimality_gap_bps_hz"][0] >= 0.0


def test_fails_without_the_library(tmp_path):
    """In a tree that holds only the benchmark, the run exits non-zero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_metric_names_match_benchmark_json(small):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = W.WORKLOADS["verify"]
    tr = Tracer(True)
    traced = run.run_phase(w, 2, 0.0, tr)
    layer, _ = run.per_layer(traced, traced, tr.spans)
    assert all(layer[f"{name}.calls"][0] > 0 for name in run.SPANS
               if name != "placement.alternating_optimize")
    e2e, _ = run.end_to_end(traced, [0.1, 0.2])
    for emitted, declared in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {name: unit for name, (_, unit) in emitted.items()} == \
            {m["name"]: m["unit"] for m in declared}
    assert {w["name"] for w in spec["workloads"]} <= W.WORKLOADS.keys()
