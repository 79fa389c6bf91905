"""Allocation solvers: continuous optimum, closed-form split and its literal
rounding, the exact integer scan against a brute-force oracle, and the
corner walk against the scan."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irsalloc import (
    Allocation, ConfigError, InfeasibleBudget, SearchSpaceTooLarge, SystemParams,
    build_topology, closed_form_split, dbm_to_watts, exhaustive_search,
    solve_continuous, solve_integer,
)
import irsalloc.allocation as allocation
from irsalloc.allocation import MAX_SCAN_ROWS, _best_row, _corner, _largest_feasible_pas, \
    _row_pas, _walk_bound, affordable
from irsalloc.cli import _outcome
from irsalloc.reflection import beta_star
from irsalloc.snr import objective_constants, rate_from_snr, snr_from_zeta, zeta_of, zeta_value
from conftest import baseline_params, brute_force_allocation, random_scenario, traced_peak


def test_closed_form_split_pins():
    a = closed_form_split(1500.0, 5.0, 1.0, "TAPR")
    assert (a.n_act, a.n_pas) == (100.0, 1000.0)
    b = closed_form_split(3.0, 1.0, 1.0, "TPAR")
    assert (b.n_act, b.n_pas) == (1.0, 2.0)


def test_closed_form_split_budget_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.uniform(10.0, 1e4)
        wa = rng.uniform(1.0, 10.0)
        wp = rng.uniform(0.5, wa)
        a = closed_form_split(m, wa, wp, "TAPR")
        assert wa * a.n_act + wp * a.n_pas == pytest.approx(m, rel=1e-12, abs=0.0)
        # the passive surface receives exactly twice the active budget share
        assert wp * a.n_pas == pytest.approx(2.0 * wa * a.n_act, rel=1e-12, abs=0.0)
        if wp <= wa:
            assert a.n_pas > a.n_act


def test_allocation_validation(params):
    with pytest.raises(ConfigError):
        Allocation(0, 10, "TAPR")
    with pytest.raises(ConfigError):
        Allocation(2.5, 10, "TAPR")
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            Allocation(bad, 10, "TAPR")
        with pytest.raises(ConfigError):
            Allocation(3, bad, "TPAR")
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            Allocation(bad, 10.0, "TAPR", continuous=True)
        with pytest.raises(ConfigError):
            Allocation(2.5, bad, "TPAR", continuous=True)
    cont = Allocation(2.5, 10.0, "TAPR", continuous=True)
    assert cont.cost(params) == pytest.approx(2.5 * 5.0 + 10.0, rel=1e-6, abs=0.0)
    # element costs follow the SystemParams rule: positive finite reals
    for bad in (0.0, -1.0, math.nan, math.inf, True):
        with pytest.raises(ConfigError):
            closed_form_split(100.0, bad, 1.0, "TAPR")
        with pytest.raises(ConfigError):
            closed_form_split(100.0, 5.0, bad, "TAPR")


def test_solve_continuous_approx_objective_recovers_split(params, topo):
    for scheme in ("TAPR", "TPAR"):
        sol = solve_continuous(params, topo, scheme, approx=True)
        split = closed_form_split(1500.0, 5.0, 1.0, scheme)
        assert sol.allocation.n_act == pytest.approx(split.n_act, rel=1e-6, abs=0.0)
        assert sol.allocation.n_pas == pytest.approx(split.n_pas, rel=1e-6, abs=0.0)


def test_solve_continuous_budget_active(params, topo):
    for scheme in ("TAPR", "TPAR"):
        sol = solve_continuous(params, topo, scheme)
        assert sol.allocation.cost(params) == pytest.approx(1500.0, rel=1e-9, abs=0.0)


def test_solve_continuous_vs_dense_grid():
    # far_apart reaches the small-A/B end of the closed-form root, approx
    # its A = 0 branch
    for far_apart in (False, True):
        rng = np.random.default_rng(13)
        for _ in range(10):
            params, topo = random_scenario(rng, far_apart=far_apart)
            for scheme, approx in itertools.product(("TAPR", "TPAR"), (False, True)):
                sol = solve_continuous(params, topo, scheme, approx=approx)
                a_const, b_const = objective_constants(params, scheme, topo.d1,
                                                       topo.d2, topo.d3, approx)
                m, wa, wp = (params.total_budget, params.cost_active,
                             params.cost_passive)
                xp = np.linspace(m / wp * 1e-6, m / wp * (1 - 1e-6), 100_000)
                xa = (m - wp * xp) / wa
                grid_best = np.min(a_const / xa + b_const / (xa * xp ** 2))
                zeta = zeta_value(params, scheme, sol.allocation.n_act,
                                  sol.allocation.n_pas, topo.d1, topo.d2, topo.d3, approx)
                gap = (zeta - grid_best) / grid_best
                assert gap <= 1e-8


def test_solve_continuous_root_below_split_far_apart(params):
    # at d2 ~ 1e6 m, A/B is so small that the root lies under 5e-10 relative
    # below u0 = 2M/(3*W_pas); the computed root must stay below u0. The nodes
    # sit about x = -5e5 and 5e5, inside the domain's +/-1e6 m coordinates
    topo = build_topology((-5e5, 0.0, 0.0), (-5e5 + 15.0, 5.0, 10.0),
                          (5e5, 5.0, 10.0), (5e5 + 2.0, 0.0, 0.0))
    u0 = 2.0 * params.total_budget / (3.0 * params.cost_passive)
    for scheme in ("TAPR", "TPAR"):
        n_pas = solve_continuous(params, topo, scheme).allocation.n_pas
        assert n_pas < u0
        assert n_pas == pytest.approx(u0, rel=1e-8, abs=0.0)


def test_objective_midpoint_convexity(params, topo):
    # convexity in the log variables (x_act, x_pas) -> (exp(u), exp(v))
    rng = np.random.default_rng(19)
    for scheme in ("TAPR", "TPAR"):
        a_const, b_const = objective_constants(params, scheme, topo.d1, topo.d2,
                                               topo.d3)

        def f(u, v):
            return a_const * math.exp(-u) + b_const * math.exp(-u - 2.0 * v)

        for _ in range(200):
            u1, v1, u2, v2 = rng.uniform(0.0, 8.0, size=4)
            mid = f((u1 + u2) / 2.0, (v1 + v2) / 2.0)
            assert mid <= (f(u1, v1) + f(u2, v2)) / 2.0 + 1e-12


def test_baseline_continuous_optimum_near_split(params, topo):
    sol = solve_continuous(params, topo, "TAPR")
    # at the short 83 m separation the receiver-noise term shifts the
    # optimum a little toward more active elements
    assert sol.allocation.n_act == pytest.approx(111.09, rel=1e-3, abs=0.0)
    assert sol.allocation.n_pas == pytest.approx(944.55, rel=1e-3, abs=0.0)


def test_closed_form_row_matches_brute_force(params, topo):
    # the literal rounding keeps n_act = round(M/(3*W_act)) and takes that
    # row's best feasible n_pas; an integral split comes back unchanged
    for scheme in ("TAPR", "TPAR"):
        for m in (1500.0, 60.0, 37.0):
            row = max(1, round(m / (3.0 * params.cost_active)))
            sol = solve_integer(params, topo, scheme, method="closed-form", budget=m)
            assert (sol.allocation.n_act, sol.allocation.n_pas) == \
                brute_force_allocation(params, topo, scheme, m, n_act_rows={row})


def test_optimal_matches_brute_force_baseline(params, topo):
    for scheme in ("TAPR", "TPAR"):
        for m in (30.0, 60.0, 100.0):
            for method in ("optimal", "exhaustive"):
                sol = solve_integer(params, topo, scheme, method=method, budget=m)
                assert sol.method == method
                assert (sol.allocation.n_act, sol.allocation.n_pas) == \
                    brute_force_allocation(params, topo, scheme, m)
                assert sol.allocation.cost(params) <= m


def test_minimal_budget_unique_point(params, topo):
    assert brute_force_allocation(params, topo, "TAPR", 6.0) == (1, 1)
    for method in ("optimal", "closed-form", "exhaustive"):
        sol = solve_integer(params, topo, "TAPR", method=method, budget=6.0)
        assert (sol.allocation.n_act, sol.allocation.n_pas) == (1, 1)


def test_optimal_matches_brute_force_when_tpar_cap_binds():
    # a strong, close transmitter drives the active-second amplitude to 1
    # long before the budget runs out
    params = SystemParams(transmit_power=1.0, amp_power_budget=1e-6,
                          rx_noise_power=1e-11, amp_noise_power=1e-11,
                          ref_gain=0.1, wavelength=0.1, cost_active=2.0,
                          cost_passive=1.0, total_budget=60.0)
    topo = build_topology((0, 0, 0), (3, 0, 4), (43, 0, 4), (50, 0, 0))
    expected = brute_force_allocation(params, topo, "TPAR", 60.0)
    n_act, n_pas = expected
    assert 2.0 * n_act + (n_pas + 1) <= 60.0  # the budget would allow more
    for method in ("optimal", "exhaustive"):
        sol = solve_integer(params, topo, "TPAR", method=method)
        assert (sol.allocation.n_act, sol.allocation.n_pas) == expected
        assert sol.amplitude >= 1.0


def test_tpar_cap_at_extreme_amplifier_power(params, topo):
    # 3000 dBm is outside the domain; at its top, 90 dBm, the cap binds
    # nowhere and warns of nothing (pytest turns warnings into errors)
    with pytest.raises(ConfigError, match="domain"):
        replace(params, amp_power_budget=dbm_to_watts(3000.0))
    p = replace(params, amp_power_budget=dbm_to_watts(90.0))
    n_act = np.arange(1.0, 300.0)
    hi = affordable(p.total_budget, p.cost_active * n_act, p.cost_passive)
    assert np.array_equal(_largest_feasible_pas(p, topo, "TPAR", n_act, p.total_budget), hi)
    sol = solve_integer(p, topo, "TPAR")
    assert (sol.allocation.n_act, sol.allocation.n_pas) == (100, 1000)
    assert 1.0 <= sol.amplitude < math.inf


@pytest.mark.parametrize("k, pv, off", [(35, 0.00030625001000000006, 1),
                                        (55, 0.0007562500100000002, -1)])
def test_tpar_cap_where_q_is_one_ulp_from_a_square(k, pv, off):
    # with d1 = 5, d2 = 40, Pt = 1, rho = 0.1 and one active element, Pv and
    # its two neighbouring floats put q at k^2 and one ulp either side. One
    # ulp below, the floored root is off by off from the largest n_pas with
    # beta* >= 1: above it for k = 35, below it for k = 55, so each of the
    # cap's two corrections is needed once
    topo = build_topology((0, 0, 0), (3, 0, 4), (43, 0, 4), (50, 0, 0))
    n_act = np.array([1.0])
    squares, offsets = [], []
    for v in (math.nextafter(pv, -math.inf), pv, math.nextafter(pv, math.inf)):
        p = SystemParams(transmit_power=1.0, amp_power_budget=v, rx_noise_power=1e-11,
                         amp_noise_power=1e-11, ref_gain=0.1, wavelength=0.1,
                         cost_active=2.0, cost_passive=1.0, total_budget=1e4)
        q = topo.d1 ** 2 * topo.d2 ** 2 * (v - p.amp_noise_power) / (
            p.transmit_power * p.ref_gain ** 2)
        x = np.arange(1.0, 2.0 * k)
        feasible = x[beta_star(p, topo.d1, topo.d2, 1.0, x) >= 1.0].max()
        squares.append(q)
        offsets.append(math.floor(math.sqrt(q)) - feasible)
        assert _largest_feasible_pas(p, topo, "TPAR", n_act, p.total_budget)[0] == feasible
        # the corner walk's scalar row rule takes the same two steps
        assert _row_pas(p, "TPAR", topo.d1, topo.d2, 1.0, p.total_budget) == feasible
    assert squares == [math.nextafter(k * k, -math.inf), k * k, math.nextafter(k * k, math.inf)]
    assert offsets == [off, 0, 0]


def test_exact_tie_goes_to_larger_n_pas():
    # A is negligible against B here, so the rows (1, 6) and (4, 3) both have
    # n_act*n_pas^2 = 36 and tie in zeta bit for bit
    params = SystemParams(transmit_power=0.1, amp_power_budget=0.1, rx_noise_power=1e-11,
                          amp_noise_power=1e-11, ref_gain=1e-3, wavelength=0.1,
                          cost_active=1.0, cost_passive=1.0, total_budget=7.0)
    topo = build_topology((0, 0, 0), (1, 0, 0), (1e5, 0, 0), (1e5, 1e5, 0))
    rows = np.array([1.0, 4.0])
    n_pas = _largest_feasible_pas(params, topo, "TAPR", rows, 7.0)
    assert list(n_pas) == [6.0, 3.0]
    zeta = zeta_value(params, "TAPR", rows, n_pas, topo.d1, topo.d2, topo.d3)
    assert zeta[0] == zeta[1]
    sol = _best_row(params, topo, "TAPR", rows, 7.0, method="optimal")
    assert (sol.allocation.n_act, sol.allocation.n_pas) == (1, 6)
    # over every row: with Pv = Pt = rho = 1, sigma_v^2 = 1e-4 and d1^2*d2^2
    # = 40, the TPAR cap allows n_pas 6, 4, 3, 3 at n_act 1..4, so the rows
    # (1, 6) and (4, 3) tie at the optimum, again with A negligible
    params = SystemParams(transmit_power=1.0, amp_power_budget=1.0, rx_noise_power=1e-21,
                          amp_noise_power=1e-4, ref_gain=1.0, wavelength=0.1,
                          cost_active=1.0, cost_passive=1.0, total_budget=7.0)
    topo = build_topology((0, 0, 0), (2, 0, 0), (3, 3, 0), (3, 3, 1))
    rows = np.arange(1.0, 7.0)
    n_pas = _largest_feasible_pas(params, topo, "TPAR", rows, 7.0)
    assert list(n_pas) == [6.0, 4.0, 3.0, 3.0, 2.0, 1.0]
    snr = snr_from_zeta(params, zeta_value(params, "TPAR", rows, n_pas,
                                           topo.d1, topo.d2, topo.d3))
    assert list(np.flatnonzero(snr == snr.max())) == [0, 3]
    for method in ("optimal", "exhaustive"):
        sol = solve_integer(params, topo, "TPAR", method=method)
        assert (sol.allocation.n_act, sol.allocation.n_pas) == (1, 6)


@st.composite
def small_scenarios(draw):
    """Budgets up to 60 units; the ranges reach scenarios where the TAPR
    amplitude rules out whole n_act rows and where the TPAR amplitude caps
    n_pas below the budget."""
    wp = draw(st.floats(0.5, 2.0))
    wa = draw(st.floats(wp, 8.0))
    params = SystemParams(
        transmit_power=dbm_to_watts(draw(st.floats(10.0, 30.0))),
        amp_power_budget=dbm_to_watts(draw(st.floats(-40.0, 10.0))),
        rx_noise_power=dbm_to_watts(draw(st.floats(-90.0, -70.0))),
        amp_noise_power=dbm_to_watts(draw(st.floats(-90.0, -70.0))),
        ref_gain=10.0 ** draw(st.floats(-3.0, -1.0)),
        wavelength=0.1, cost_active=wa, cost_passive=wp,
        total_budget=draw(st.floats(wa + wp, 60.0)))
    xa, za = draw(st.floats(0.0, 20.0)), draw(st.floats(1.0, 10.0))
    xb = xa + draw(st.floats(2.0, 40.0))
    topo = build_topology((0.0, 0.0, 0.0), (xa, 0.0, za), (xb, 0.0, za),
                          (xb + draw(st.floats(1.0, 30.0)), 0.0, 0.0))
    return params, topo


@settings(max_examples=80, deadline=None)
@given(small_scenarios(), st.sampled_from(("TAPR", "TPAR")))
def test_optimal_matches_brute_force_property(scenario, scheme):
    params, topo = scenario
    expected = brute_force_allocation(params, topo, scheme, params.total_budget)
    if expected is None:
        with pytest.raises(InfeasibleBudget):
            solve_integer(params, topo, scheme, method="optimal")
        return
    sol = solve_integer(params, topo, scheme, method="optimal")
    assert (sol.allocation.n_act, sol.allocation.n_pas) == expected


def test_exhaustive_oracle_and_rounding_gap(params, topo):
    for scheme in ("TAPR", "TPAR"):
        for m in (30.0, 100.0, 500.0):
            ex = exhaustive_search(params, topo, scheme, budget=m)
            ro = solve_integer(params, topo, scheme, method="closed-form", budget=m)
            assert ex.rate >= ro.rate
            assert ex.rate - ro.rate <= 1e-2


def test_solutions_report_the_snr_they_ranked():
    # every solution's SNR is zeta's at its allocation, bit for bit, so the
    # exact scan never reports less than the rounding, with no tolerance
    rng = np.random.default_rng(1801)
    for _ in range(40):
        params, topo = random_scenario(rng)
        d = (topo.d1, topo.d2, topo.d3)
        for scheme in ("TAPR", "TPAR"):
            sols = {}
            for method in ("exhaustive", "optimal", "closed-form"):
                try:
                    sols[method] = sol = solve_integer(params, topo, scheme, method=method)
                except InfeasibleBudget:
                    continue
                a = sol.allocation
                assert sol.snr == snr_from_zeta(params, zeta_value(
                    params, scheme, a.n_act, a.n_pas, *d))
                assert sol.rate == rate_from_snr(sol.snr)
            if "closed-form" in sols:
                assert sols["exhaustive"].rate >= sols["closed-form"].rate
            for approx in (False, True):
                sol = solve_continuous(params, topo, scheme, approx=approx)
                a = sol.allocation
                assert sol.snr == snr_from_zeta(params, zeta_value(
                    params, scheme, a.n_act, a.n_pas, *d, approx))


def test_exhaustive_guard(params, topo):
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_search(params, topo, "TAPR", budget=1e8)
    # 2e5 rows are within the bound
    assert solve_integer(params, topo, "TAPR", budget=1e6).allocation.n_act >= 1


@pytest.mark.parametrize("scheme, peak_mib", [("TAPR", 31.5), ("TPAR", 53.5)])
def test_exhaustive_guard_edge(params, topo, scheme, peak_mib):
    # with w_act 5 and w_pas 1, budgets 5,000,001 to 5,000,005 afford exactly
    # MAX_SCAN_ROWS active counts with one passive element each, and so answer;
    # at 5,000,005 the budget alone, without the passive element, affords one
    # count more. Each solve at the bound holds its rows within the given peak.
    # The guard is the scan's: the corner walk holds only the rows it visits,
    # and answers past it.
    for budget in (5_000_001.0, 5_000_005.0):
        sols = []
        for method in ("exhaustive", "optimal"):
            peak = traced_peak(lambda: sols.append(solve_integer(
                params, topo, scheme, method=method, budget=budget)))
            assert peak < peak_mib * 2 ** 20
        a = sols[0].allocation
        assert a.n_act <= MAX_SCAN_ROWS and a.cost(params) <= budget
        assert sols[1].allocation == a
    with pytest.raises(SearchSpaceTooLarge, match="^1000001 n_act rows exceed"):
        solve_integer(params, topo, scheme, method="exhaustive", budget=5_000_006.0)
    a = solve_integer(params, topo, scheme, method="optimal", budget=5_000_006.0).allocation
    assert a.cost(params) <= 5_000_006.0


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, True])
def test_budget_override_must_be_finite_real(params, topo, budget):
    with pytest.raises(ConfigError):
        closed_form_split(budget, 5.0, 1.0, "TAPR")
    with pytest.raises(ConfigError):
        solve_continuous(params, topo, "TAPR", budget=budget)
    for method in ("optimal", "closed-form"):
        with pytest.raises(ConfigError):
            solve_integer(params, topo, "TPAR", method=method, budget=budget)


def test_budget_override_within_domain(params, topo):
    # a budget that affords more than the domain's 1e9 elements of its
    # cheaper kind is refused as a total budget is
    with pytest.raises(ConfigError, match="domain"):
        closed_form_split(2e9, 5.0, 1.0, "TAPR")
    with pytest.raises(ConfigError, match="domain"):
        closed_form_split(2e9, 1.0, 5.0, "TAPR")
    with pytest.raises(ConfigError, match="domain"):
        solve_continuous(params, topo, "TAPR", budget=2e9)
    for method in ("optimal", "closed-form", "exhaustive"):
        with pytest.raises(ConfigError, match="domain"):
            solve_integer(params, topo, "TPAR", method=method, budget=2e9)
    assert closed_form_split(1e9, 5.0, 1.0, "TAPR").n_pas == pytest.approx(2e9 / 3.0,
                                                                           rel=1e-15, abs=0.0)


def test_allocation_counts_within_domain():
    assert Allocation(1e9, 1e9, "TAPR").n_act == 1e9
    for bad in (1e9 + 1.0, 1e300):
        with pytest.raises(ConfigError, match="1e\\+09"):
            Allocation(bad, 1, "TAPR")
        with pytest.raises(ConfigError, match="1e\\+09"):
            Allocation(1.0, bad, "TPAR", continuous=True)


def test_infeasible_budget(params, topo):
    for budget in (0.0, -1.0):
        with pytest.raises(InfeasibleBudget):
            closed_form_split(budget, 5.0, 1.0, "TAPR")
    with pytest.raises(InfeasibleBudget):
        solve_continuous(params, topo, "TAPR", budget=4.0)
    with pytest.raises(InfeasibleBudget):
        exhaustive_search(params, topo, "TAPR", budget=4.0)
    # below w_act + w_pas = 6, refused for the budget, not the amplitude
    for method in ("optimal", "exhaustive", "closed-form"):
        for budget in (4.0, 5.5):
            with pytest.raises(InfeasibleBudget, match="cannot afford one element of each kind"):
                solve_integer(params, topo, "TAPR", method=method, budget=budget)


def test_solve_integer_closed_form_baseline(params, topo):
    for scheme in ("TAPR", "TPAR"):
        sol = solve_integer(params, topo, scheme, method="closed-form")
        assert (sol.allocation.n_act, sol.allocation.n_pas) == (100, 1000)
        assert sol.method == "closed-form"


def test_solution_rate_matches_closed_form(params, topo):
    from irsalloc import snr_closed_form
    sol = solve_integer(params, topo, "TAPR", method="optimal")
    lb = snr_closed_form(params, topo, sol.allocation)
    assert (sol.snr, sol.rate) == (lb.snr, lb.rate)


def test_rounding_never_infeasible_random():
    rng = np.random.default_rng(31)
    for _ in range(30):
        params, topo = random_scenario(rng)
        for scheme in ("TAPR", "TPAR"):
            try:
                sol = solve_integer(params, topo, scheme, method="optimal")
            except InfeasibleBudget:
                continue
            a = sol.allocation
            assert a.n_act >= 1 and a.n_pas >= 1
            assert a.cost(params) <= params.total_budget + 1e-9
            assert sol.amplitude >= 1.0


@settings(max_examples=300, deadline=None)
@given(budget=st.floats(1.0, 1e6), spent=st.floats(0.0, 1e6), cost=st.floats(0.01, 100.0))
# the floored quotient is one too many (330*0.01 > 3.3) and one too few
# (0.7/0.1 floors to 6)
@example(budget=3.3, spent=0.0, cost=0.01)
@example(budget=1.0, spent=0.3, cost=0.1)
def test_affordable_is_largest_count_within_budget(budget, spent, cost):
    k = affordable(budget, spent, cost)
    assert k == math.floor(k) >= 0.0
    if k > 0.0:
        assert spent + cost * k <= budget
    assert spent + cost * (k + 1.0) > budget


@st.composite
def walk_scenarios(draw):
    """Near and far geometries; Pv from -40 to 40 dBm, so that either
    amplitude cap binds or none does; cost ratios up to 20 and up to about
    20,000 n_act rows."""
    wp = draw(st.floats(0.5, 2.0))
    wa = wp * draw(st.floats(1.0, 20.0))
    params = SystemParams(
        transmit_power=dbm_to_watts(draw(st.floats(10.0, 30.0))),
        amp_power_budget=dbm_to_watts(draw(st.floats(-40.0, 40.0))),
        rx_noise_power=dbm_to_watts(draw(st.floats(-90.0, -70.0))),
        amp_noise_power=dbm_to_watts(draw(st.floats(-90.0, -70.0))),
        ref_gain=10.0 ** draw(st.floats(-4.0, -1.0)),
        wavelength=0.1, cost_active=wa, cost_passive=wp,
        total_budget=(wa + wp) * 10.0 ** draw(st.floats(0.0, 4.0)))
    xb = draw(st.floats(2000.0, 6000.0) if draw(st.booleans()) else st.floats(40.0, 130.0))
    topo = build_topology(
        (0.0, 0.0, 0.0),
        (draw(st.floats(5.0, 30.0)), draw(st.floats(0.0, 10.0)), draw(st.floats(5.0, 15.0))),
        (xb, draw(st.floats(0.0, 10.0)), draw(st.floats(5.0, 15.0))),
        (xb + draw(st.floats(5.0, 40.0)), draw(st.floats(0.0, 10.0)), 0.0))
    return params, topo


@settings(max_examples=200, deadline=None)
@given(walk_scenarios(), st.sampled_from(("TAPR", "TPAR")))
def test_optimal_equals_exhaustive_bit_for_bit_property(scenario, scheme):
    params, topo = scenario
    assert _outcome(params, topo, scheme, "optimal") == _outcome(params, topo, scheme,
                                                                 "exhaustive")
    # the closed-form row through the scalar row rule, against the scan of
    # that one row
    m = params.total_budget
    row = np.array([max(1, round(m / (3.0 * params.cost_active)))], dtype=float)
    try:
        scan = _best_row(params, topo, scheme, row, m, method="closed-form")
    except InfeasibleBudget as exc:
        with pytest.raises(InfeasibleBudget, match=f"^{re.escape(str(exc))}$"):
            solve_integer(params, topo, scheme, method="closed-form")
        return
    assert solve_integer(params, topo, scheme, method="closed-form") == scan


def _count_ranked_rows(monkeypatch):
    """A list whose last entry counts the rows the walk ranks (one SNR from
    zeta each) from the time a 0 is appended to it."""
    visits = []
    snr_of = allocation.snr_from_zeta

    def counting_snr_from_zeta(*args):
        visits[-1] += 1
        return snr_of(*args)

    monkeypatch.setattr(allocation, "snr_from_zeta", counting_snr_from_zeta)
    return visits


def test_optimal_visits_few_corners_on_baseline_pv_sweep(params, topo, monkeypatch):
    # the walk evaluates zeta only at corners of the staircase, within the
    # bound's interval around the relaxed optimum; on this sweep it needs
    # at most about 100, where a row-by-row walk would need up to 16,000
    visits = _count_ranked_rows(monkeypatch)
    for pv_dbm in range(-40, 60):
        p = replace(params, amp_power_budget=dbm_to_watts(float(pv_dbm)))
        for budget in (1e4, 1e5, 1e6, 5e6):
            for scheme in ("TAPR", "TPAR"):
                visits.append(0)
                try:
                    solve_integer(p, topo, scheme, budget=budget)
                except InfeasibleBudget:
                    pass
                assert visits[-1] <= 200, (pv_dbm, budget, scheme)
    assert max(visits) > 50  # the sweep reaches long walks


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_optimal_answers_at_the_domain_budget(params, topo, scheme):
    # 1e9 affords 199,999,999 n_act rows, far past the scan's guard
    sol = solve_integer(params, topo, scheme, budget=1e9)
    assert sol.allocation.cost(params) <= 1e9
    assert sol.amplitude >= 1.0
    assert sol.rate <= solve_continuous(params, topo, scheme, budget=1e9).rate


def test_optimal_visits_few_corners_past_the_scan_guard(params, topo, monkeypatch):
    # Pv from -40 to 59 dBm at budgets of 1e7 to 1e9 elements' cost, each
    # solve checked as at the domain budget; the longest walk measured
    # ranks 1,475 rows (TAPR, 48 dBm, 1e9)
    visits = _count_ranked_rows(monkeypatch)
    solved = 0
    for pv_dbm in range(-40, 60):
        p = replace(params, amp_power_budget=dbm_to_watts(float(pv_dbm)))
        for budget in (1e7, 1e8, 1e9):
            for scheme in ("TAPR", "TPAR"):
                visits.append(0)
                try:
                    sol = solve_integer(p, topo, scheme, budget=budget)
                except InfeasibleBudget:
                    continue
                assert visits[-1] <= 2000, (pv_dbm, budget, scheme)
                solved += 1
                assert sol.allocation.cost(p) <= budget and sol.amplitude >= 1.0
                assert sol.rate <= solve_continuous(p, topo, scheme, budget=budget).rate
    assert solved > 500 and max(visits) > 1000  # the sweep reaches long walks


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_walk_bound_holds_where_the_budget_sum_rounds_down(params, topo, scheme):
    # at 3e8 budget units the float sum w_act*n + w_pas rounds down onto the
    # budget, so the row affords one passive element although the real
    # budget line gives it 1 - 1.6e-7; the bound's margin keeps it below the
    # row's zeta
    wa, wp = 300.0, 0.3 + 0.6 * 2.0 ** -24
    n = 999_000.0
    m = wa * n + wp
    assert m - wa * n < wp
    p = replace(params, amp_power_budget=dbm_to_watts(60.0), cost_active=wa,
                cost_passive=wp, total_budget=m)
    a, b = objective_constants(p, scheme, topo.d1, topo.d2, topo.d3)
    n_pas = _row_pas(p, scheme, topo.d1, topo.d2, n, m)
    assert n_pas == 1.0
    zeta = zeta_of(a, b, n, n_pas)
    bound = _walk_bound(p, scheme, a, b, topo.d1, topo.d2, n, m)
    assert bound <= zeta
    assert bound / (1.0 - allocation._MARGIN) > zeta  # the margin is needed



def test_walk_bound_holds_where_pv_and_amplifier_noise_cancel():
    # at n_act = 1115, sigma_v^2*n_act is within about 1e-13 of Pv: q,
    # rounded, falls 2e-4 short of the 4669^2 that the beta* test admits; the
    # bound raises q's Pv by the margin and stays below the row's zeta
    pt, pv, sv2, rho = (1.6882636515399764e-11, 8.93288790237788e-08,
                        8.011558656841118e-11, 5.679653280788986e-09)
    params = SystemParams(transmit_power=pt, amp_power_budget=pv, rx_noise_power=1e-11,
                          amp_noise_power=sv2, ref_gain=rho, wavelength=0.1,
                          cost_active=1.0, cost_passive=1.0, total_budget=1e9)
    topo = build_topology((0, 0, 0), (3, 0, 4), (43, 0, 4), (50, 0, 0))
    n, m = 1115.0, 1e9
    n_pas = _row_pas(params, "TPAR", topo.d1, topo.d2, n, m)
    assert n_pas == 4669.0
    q = topo.d1 ** 2 * topo.d2 ** 2 * (pv - sv2 * n) / (pt * rho ** 2 * n)
    assert n_pas * n_pas > q * (1.0 + 1e-4)
    a, b = objective_constants(params, "TPAR", topo.d1, topo.d2, topo.d3)
    assert _walk_bound(params, "TPAR", a, b, topo.d1, topo.d2, n, m) <= zeta_of(a, b, n, n_pas)


@pytest.mark.parametrize("estimate", [0.0, 3.0, 4.99, 5.0, 6.5, 40.0, -3.0])
def test_corner_steps_from_an_estimate_either_side(estimate):
    # n_pas = 10 - n_act: the last row with n_pas >= 5 is 5, whatever the
    # estimate's error; rows cap the answer
    def pas(n):
        assert 1.0 <= n <= 20.0
        return 10.0 - n

    assert _corner(pas, estimate, 20.0, 5.0) == 5.0
    assert _corner(pas, estimate, 4.0, 5.0) == 4.0
    assert _corner(pas, estimate, 20.0, 10.0) == 0.0


def test_corner_estimate_one_short(topo):
    # (M - W_pas*p)/W_act rounds to 85.99999999999997 where the row rule
    # allows n_act 86 at n_pas 174: the step up finds the corner
    p = baseline_params(cost_active=0.1, cost_passive=0.1, total_budget=26.0)
    m, wp, wa = 26.0, 0.1, 0.1
    assert math.floor((m - wp * 174.0) / wa) == 85
    assert _row_pas(p, "TAPR", topo.d1, topo.d2, 86.0, m) == 174.0
    for scheme in ("TAPR", "TPAR"):
        assert _outcome(p, topo, scheme, "optimal") == _outcome(p, topo, scheme, "exhaustive")
