"""Acceptance gate: end-to-end numerical criteria with pinned tolerances.

Each test prints one PASS/FAIL line. Two sub-criteria are known to fail and
are kept as honest red tests: 8b (TPAR at or above the single active surface
for every M in [300, 3000]) and 8c (a TAPR-over-hybrid crossover in
[400, 1200]). Both encode Figure 3(a) readings whose setup the repository
does not hold; their comments state the measured causes.

The full-closed-form cubic slope (4b) is measured on a geometry whose
Lemma-1 regime check (`check_lemma1`) the test itself asserts, because the
paper claims the cubic law only for a large AIRS-PIRS distance; the 83 m
baseline fails that check at every tested budget.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from irsalloc import (
    Allocation, ConditionUndefined, PlacementGrid, alternating_optimize,
    build_channels, build_topology, check_lemma1, closed_form_split,
    compare_schemes, dbm_to_watts, exhaustive_search, simulate_empirical_snr,
    snr_approx, snr_closed_form, snr_exact_matrix, solve_continuous,
    solve_integer,
)
from irsalloc.benchmarks import (
    DOUBLE_PIRS, SINGLE_AIRS, SINGLE_PIRS, rate_hybrid_irs, run_benchmark,
)
from irsalloc.reflection import configure
from conftest import baseline_params, baseline_topology, random_scenario

SCHEMES = ("TAPR", "TPAR")


def emit(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_oracle_equality():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        params, topo = random_scenario(rng)
        for scheme in SCHEMES:
            alloc = Allocation(int(rng.integers(1, 65)), int(rng.integers(1, 65)),
                               scheme)
            ch = build_channels(params, topo, alloc)
            refl = configure(params, topo, alloc, ch)
            exact = snr_exact_matrix(params, topo, alloc, ch, refl).snr
            closed = snr_closed_form(params, topo, alloc).snr
            worst = max(worst, abs(exact - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    assert emit("1 oracle-equality", ok,
                f"worst rel diff {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_monte_carlo():
    start = time.perf_counter()
    params, topo = baseline_params(), baseline_topology()
    worst = 0.0
    for scheme in SCHEMES:
        alloc = Allocation(100, 1000, scheme)
        refl = configure(params, topo, alloc)
        analytic = snr_closed_form(params, topo, alloc).snr
        est = simulate_empirical_snr(params, topo, alloc, refl,
                                     num_samples=1_000_000, seed=0).snr
        worst = max(worst, abs(est - analytic) / analytic)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 30.0
    assert emit("2 monte-carlo", ok, f"worst rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_3_split_reproduction():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        params, topo = random_scenario(rng)
        m = float(rng.uniform(50.0, 5000.0))
        scheme = SCHEMES[int(rng.integers(0, 2))]
        sol = solve_continuous(params, topo, scheme, approx=True, budget=m)
        split = closed_form_split(m, params.cost_active, params.cost_passive,
                                  scheme)
        worst = max(worst,
                    abs(sol.allocation.n_act - split.n_act) / split.n_act,
                    abs(sol.allocation.n_pas - split.n_pas) / split.n_pas)
    params, topo = baseline_params(), baseline_topology()
    split = closed_form_split(1500.0, 5.0, 1.0, "TAPR")
    baseline_ok = (split.n_act, split.n_pas) == (100.0, 1000.0)

    # the <5% full-vs-split claim is conditional on the regime check, which
    # needs a longer inter-surface hop than the baseline 83 m
    far = build_topology((0, 0, 0), (15, 5, 10), (980, 5, 10), (1000, 0, 0))
    report = check_lemma1(params, far, x_pas=1000.0, epsilon=0.1)
    dev = 0.0
    for scheme in SCHEMES:
        sol = solve_continuous(params, far, scheme)
        dev = max(dev, abs(sol.allocation.n_act - 100.0) / 100.0,
                  abs(sol.allocation.n_pas - 1000.0) / 1000.0)
    ok = worst <= 1e-6 and baseline_ok and report.satisfied and dev < 0.05
    assert emit("3 closed-form-split", ok,
                f"worst split dev {worst:.2e}, regime ratio {report.ratio:.3f}, "
                f"full-vs-split dev {dev:.3f}")


def _slope(budgets, snrs):
    return float(np.polyfit(np.log(budgets), np.log(snrs), 1)[0])


BUDGETS = np.array([500.0, 1000.0, 2000.0, 4000.0])


def test_criterion_4a_cubic_scaling_approx():
    start = time.perf_counter()
    params, topo = baseline_params(), baseline_topology()
    slopes = {s: _slope(BUDGETS, [snr_approx(params, topo, closed_form_split(
        m, params.cost_active, params.cost_passive, s)).snr for m in BUDGETS])
        for s in SCHEMES}
    elapsed = time.perf_counter() - start
    ok = all(abs(v - 3.0) <= 1e-9 for v in slopes.values()) and elapsed < 5.0
    assert emit("4a cubic-scaling-approx", ok,
                f"slopes {slopes['TAPR']:.12f}/{slopes['TPAR']:.12f}")


# Rx 20 m beyond the PIRS; d2 = 1985 m
LEMMA1_TOPOLOGY = build_topology((0, 0, 0), (15, 5, 10), (2000, 5, 10),
                                 (2020, 0, 0))


def test_criterion_4b_cubic_scaling_full_closed_form():
    # with zeta = A/x_act + B/(x_act*x_pas^2) the envelope theorem gives
    # d ln SNR*/d ln M = 3 - 2f, f = (A/x_act)/zeta being the share the
    # dominant-term approximation drops, so the full closed form is cubic
    # only as d2 -> inf. At the 83 m baseline the regime ratio is
    # 0.148..1.185 over BUDGETS and the slopes are 2.6566/2.7715; criterion
    # 3's d2 = 965 m still gives 0.151 at M = 4000. The ratio grows linearly
    # in x_pas, so passing at the largest budget certifies all of them.
    params, base = baseline_params(), baseline_topology()
    x_pas = 2.0 * BUDGETS / (3.0 * params.cost_passive)
    baseline = [check_lemma1(params, base, x_pas=x) for x in x_pas]
    report = check_lemma1(params, LEMMA1_TOPOLOGY, x_pas=x_pas.max())
    slopes = {s: _slope(BUDGETS, [
        solve_continuous(params, LEMMA1_TOPOLOGY, s, budget=m).snr
        for m in BUDGETS]) for s in SCHEMES}
    ok = (not any(r.satisfied for r in baseline) and report.satisfied
          and all(abs(v - 3.0) <= 0.02 for v in slopes.values()))
    assert emit("4b cubic-scaling-full", ok,
                f"slopes {slopes['TAPR']:.4f}/{slopes['TPAR']:.4f} at d2 "
                f"{report.d2:.0f} m, regime ratio {report.ratio:.4f}; baseline "
                f"ratios {', '.join(f'{r.ratio:.3f}' for r in baseline)}")


def test_criterion_4c_benchmark_growth_orders():
    start = time.perf_counter()
    params, topo = baseline_params(), baseline_topology()
    targets = {SINGLE_PIRS: 2.0, SINGLE_AIRS: 1.0, DOUBLE_PIRS: 4.0}
    slopes = {}
    for system, target in targets.items():
        slopes[system] = _slope(BUDGETS, [
            run_benchmark(system, replace(params, total_budget=m), topo).snr
            for m in BUDGETS])
    elapsed = time.perf_counter() - start
    ok = (all(abs(slopes[s] - t) <= 0.05 for s, t in targets.items())
          and elapsed < 5.0)
    assert emit("4c benchmark-growth-orders", ok,
                " ".join(f"{s}={v:.3f}" for s, v in slopes.items()))


def test_criterion_5_scheme_comparator():
    start = time.perf_counter()
    params, topo = baseline_params(), baseline_topology()
    baseline_order = compare_schemes(params, topo).tapr_at_least_tpar

    p500 = replace(params, total_budget=500.0)
    crossover = None
    prev_sign = None
    for pv_dbm in np.arange(12.0, 18.01, 0.25):
        p = replace(p500, amp_power_budget=dbm_to_watts(float(pv_dbm)))
        diff = (solve_integer(p, topo, "TAPR").rate
                - solve_integer(p, topo, "TPAR").rate)
        sign = diff >= 0
        if prev_sign is not None and sign != prev_sign:
            crossover = float(pv_dbm)
        prev_sign = sign

    rng = np.random.default_rng(105)
    agree = True
    checked = 0
    while checked < 100:
        p, t = random_scenario(rng, far_apart=True)
        split = closed_form_split(p.total_budget, p.cost_active, p.cost_passive,
                                  "TAPR")
        try:
            if not check_lemma1(p, t, split.n_pas).satisfied:
                continue
        except ConditionUndefined:
            continue
        g_ap = snr_approx(p, t, split).snr
        g_pa = snr_approx(p, t, closed_form_split(p.total_budget, p.cost_active,
                                                  p.cost_passive, "TPAR")).snr
        agree &= compare_schemes(p, t).tapr_at_least_tpar == (g_ap >= g_pa)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = (baseline_order and crossover is not None and agree and elapsed < 10.0)
    assert emit("5 scheme-comparator", ok,
                f"baseline TAPR>=TPAR {baseline_order}, crossover "
                f"{crossover} dBm, 100-scenario sign agreement {agree}, "
                f"{elapsed:.1f}s")


def test_criterion_6_integer_optimality_gap():
    start = time.perf_counter()
    params, topo = baseline_params(), baseline_topology()
    worst = 0.0
    for scheme in SCHEMES:
        for m in (20.0, 50.0, 100.0, 200.0, 500.0):
            rounded = solve_integer(params, topo, scheme, method="optimal",
                                    budget=m)
            exact = exhaustive_search(params, topo, scheme, budget=m)
            worst = max(worst, exact.rate - rounded.rate)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2 and elapsed < 60.0
    assert emit("6 integer-gap", ok, f"worst gap {worst:.3e} bps/Hz, {elapsed:.1f}s")


def test_criterion_7_alternating_optimization():
    start = time.perf_counter()
    params, topo = baseline_params(), baseline_topology()
    grid = PlacementGrid(xa_bounds=(5.0, 35.0), ya_bounds=(0.0, 10.0),
                         xb_bounds=(75.0, 105.0), yb_bounds=(0.0, 10.0),
                         step=1.0, height=10.0, d_min=1.0)
    trace = alternating_optimize(params, grid, "TAPR", topo.pos_tx, topo.pos_rx)
    rates = [it.rate for it in trace.iterations]
    fixed = solve_integer(params, topo, "TAPR", method="optimal").rate
    elapsed = time.perf_counter() - start
    monotone = all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    ok = (monotone and len(rates) <= 20 and rates[-1] >= fixed
          and elapsed < 120.0)
    assert emit("7 alternating-optimization", ok,
                f"{len(rates)} iterations, final {rates[-1]:.3f} vs fixed "
                f"{fixed:.3f} bps/Hz, {elapsed:.1f}s")


def _figure3a_rates():
    params = baseline_params(amp_power_budget=dbm_to_watts(10.0))
    topo = baseline_topology()
    out = {}
    for m in range(300, 3001, 100):
        p = replace(params, total_budget=float(m))
        out[m] = {
            "tapr": solve_integer(p, topo, "TAPR").rate,
            "tpar": solve_integer(p, topo, "TPAR").rate,
            SINGLE_PIRS: run_benchmark(SINGLE_PIRS, p, topo).rate,
            SINGLE_AIRS: run_benchmark(SINGLE_AIRS, p, topo).rate,
            DOUBLE_PIRS: run_benchmark(DOUBLE_PIRS, p, topo).rate,
            "hybrid": rate_hybrid_irs(p, topo).rate,
        }
    return out


@pytest.fixture(scope="module")
def figure3a():
    return _figure3a_rates()


def test_criterion_8a_tpar_vs_passive_benchmarks(figure3a):
    ok = all(row["tpar"] >= row[SINGLE_PIRS] and row["tpar"] >= row[DOUBLE_PIRS]
             for row in figure3a.values())
    assert emit("8a tpar-vs-passive-benchmarks", ok,
                "TPAR >= single/double passive over M in [300, 3000]")


def test_criterion_8b_tpar_vs_single_airs(figure3a):
    # known red: single-AIRS picks site B, 11.4 m from Rx, and outrates TPAR
    # for M = 300..1400; TPAR leads from M = 1500 on. The paper's abstract
    # claims superiority over the benchmarks, not at every budget nor at
    # this geometry, and its Figure 3(a) setup is not in the repository
    violations = [m for m, row in figure3a.items()
                  if row["tpar"] < row[SINGLE_AIRS]]
    ok = not violations
    assert emit("8b tpar-vs-single-airs", ok,
                f"{len(violations)} violations, first M={violations[0]}, last "
                f"M={violations[-1]}" if violations else "none")


def test_criterion_8c_tapr_hybrid_crossover(figure3a):
    # known red: rate_hybrid_irs equals rate_single_airs at every M here; it
    # picks all-active (n_pas = 0, alpha 127 at M = 300 down to 40 at
    # M = 3000), so this measures TAPR against an all-active surface and the
    # crossing sits at M = 2500, outside the [400, 1200] band. Mending waits
    # for the paper's Figure 3(a) setup (node coordinates, Pv, element costs)
    crossings = [m for m, prev in zip(list(figure3a)[1:], list(figure3a)[:-1])
                 if figure3a[prev]["tapr"] < figure3a[prev]["hybrid"]
                 and figure3a[m]["tapr"] >= figure3a[m]["hybrid"]]
    ok = bool(crossings) and 400 <= crossings[0] <= 1200
    assert emit("8c tapr-hybrid-crossover", ok,
                f"crossings at M={crossings}" if crossings else "no crossover")


def test_criterion_9_cost_ratio_convergence():
    params, topo = baseline_params(), baseline_topology()
    single = run_benchmark(SINGLE_PIRS, params, topo).rate
    series = {"tapr": [], "tpar": [], "hybrid": []}
    for ratio in range(1, 21):
        p = replace(params, cost_active=float(ratio))
        series["tapr"].append(solve_continuous(p, topo, "TAPR").rate)
        series["tpar"].append(solve_continuous(p, topo, "TPAR").rate)
        series["hybrid"].append(rate_hybrid_irs(p, topo).rate)
    monotone = all(
        all(b <= a + 1e-9 for a, b in zip(s, s[1:])) for s in series.values())
    gaps = {k: (s[0] - single, s[-1] - single) for k, s in series.items()}
    converging = all(first > last > 0.0 for first, last in gaps.values())
    ok = monotone and converging
    assert emit("9 cost-ratio-convergence", ok,
                f"monotone {monotone}, gaps to single-PIRS shrink "
                + " ".join(f"{k}:{a:.2f}->{b:.2f}" for k, (a, b) in gaps.items()))
