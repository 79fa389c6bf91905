"""Allocation solvers: continuous optimum, closed-form split and its literal
rounding, and the exact integer scan against a brute-force oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irsalloc import (
    Allocation, ConfigError, InfeasibleBudget, SearchSpaceTooLarge, SystemParams,
    build_topology, closed_form_split, dbm_to_watts, exhaustive_search,
    solve_continuous, solve_integer,
)
from irsalloc.allocation import affordable
from irsalloc.snr import objective_constants, zeta_value
from conftest import baseline_params, brute_force_allocation, random_scenario


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
    with pytest.raises(ValueError):
        Allocation(0, 10, "TAPR")
    with pytest.raises(ValueError):
        Allocation(2.5, 10, "TAPR")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Allocation(bad, 10, "TAPR")
        with pytest.raises(ValueError):
            Allocation(3, bad, "TPAR")
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Allocation(bad, 10.0, "TAPR", continuous=True)
        with pytest.raises(ValueError):
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
    # below u0 = 2M/(3*W_pas); the computed root must stay below u0
    topo = build_topology((0.0, 0.0, 0.0), (15.0, 5.0, 10.0),
                          (1e6, 5.0, 10.0), (1e6 + 2.0, 0.0, 0.0))
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
    sol = solve_integer(params, topo, "TPAR", method="optimal")
    assert (sol.allocation.n_act, sol.allocation.n_pas) == expected
    assert sol.amplitude >= 1.0


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
            ro = solve_integer(params, topo, scheme, method="optimal", budget=m)
            assert ex.rate >= ro.rate - 1e-12
            assert ex.rate - ro.rate <= 1e-2


def test_exhaustive_guard(params, topo):
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_search(params, topo, "TAPR", budget=1e8)
    # 2e5 rows are within the bound
    assert solve_integer(params, topo, "TAPR", budget=1e6).allocation.n_act >= 1


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, True])
def test_budget_override_must_be_finite_real(params, topo, budget):
    with pytest.raises(ConfigError):
        closed_form_split(budget, 5.0, 1.0, "TAPR")
    with pytest.raises(ConfigError):
        solve_continuous(params, topo, "TAPR", budget=budget)
    for method in ("optimal", "closed-form"):
        with pytest.raises(ConfigError):
            solve_integer(params, topo, "TPAR", method=method, budget=budget)


def test_infeasible_budget(params, topo):
    for budget in (0.0, -1.0):
        with pytest.raises(InfeasibleBudget):
            closed_form_split(budget, 5.0, 1.0, "TAPR")
    with pytest.raises(InfeasibleBudget):
        solve_continuous(params, topo, "TAPR", budget=4.0)
    with pytest.raises(InfeasibleBudget):
        exhaustive_search(params, topo, "TAPR", budget=4.0)


def test_solve_integer_closed_form_baseline(params, topo):
    for scheme in ("TAPR", "TPAR"):
        sol = solve_integer(params, topo, scheme, method="closed-form")
        assert (sol.allocation.n_act, sol.allocation.n_pas) == (100, 1000)
        assert sol.method == "closed-form"


def test_solution_rate_matches_closed_form(params, topo):
    from irsalloc import snr_closed_form
    sol = solve_integer(params, topo, "TAPR", method="optimal")
    lb = snr_closed_form(params, topo, sol.allocation)
    assert sol.rate == pytest.approx(lb.rate, rel=1e-12, abs=0.0)
    assert sol.snr == pytest.approx(lb.snr, rel=1e-12, abs=0.0)


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
def test_affordable_is_largest_count_within_budget(budget, spent, cost):
    k = affordable(budget, spent, cost)
    assert k == math.floor(k) >= 0.0
    if k > 0.0:
        assert spent + cost * k <= budget
    assert spent + cost * (k + 1.0) > budget
