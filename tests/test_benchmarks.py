"""Comparison-system rate calculators cross-checked against explicit
matrix oracles built from steering vectors."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irsalloc import (ConfigError, DistanceTooSmall, InfeasibleBudget, SearchSpaceTooLarge,
                      SystemParams, build_topology, dbm_to_watts)
from irsalloc.benchmarks import (
    DOUBLE_PIRS, HYBRID_IRS, SINGLE_AIRS, SINGLE_PIRS, rate_double_pirs,
    rate_hybrid_irs, rate_single_airs, rate_single_pirs, run_benchmark,
)
from irsalloc.channel import upa_response
from irsalloc.reflection import alpha_star
from conftest import (baseline_params, baseline_topology, site_distances,
                      site_loop_benchmark, traced_peak)


def single_surface_oracle(params, da, db, n, amp, transmit_power, amp_noise):
    """SNR of one co-phased surface from explicit channel vectors."""
    rho = params.ref_gain
    g = math.sqrt(rho) / da * upa_response(0.3, 1.1, n)
    h = math.sqrt(rho) / db * upa_response(-0.7, 0.9, n)
    phases = np.angle(h) - np.angle(g)
    refl = amp * np.exp(1j * phases)
    gain = h.conj() @ (refl * g)
    signal = transmit_power * abs(gain) ** 2
    noise = amp_noise * amp ** 2 * np.linalg.norm(h) ** 2 + params.rx_noise_power
    return signal / noise


def test_single_pirs_square_law(params, topo):
    r1 = rate_single_pirs(params, topo)
    r2 = rate_single_pirs(replace(params, total_budget=3000.0), topo)
    assert r2.snr == pytest.approx(4.0 * r1.snr, rel=1e-12, abs=0.0)


def test_single_pirs_baseline(params, topo):
    res = rate_single_pirs(params, topo)
    assert res.n_pas == 1500 and res.n_act == 0
    da_a, db_a = site_distances(topo, "A")
    da_b, db_b = site_distances(topo, "B")
    expected_site = "B" if da_b * db_b < da_a * db_a else "A"
    assert res.site == expected_site
    da, db = site_distances(topo, res.site)
    p_total = params.transmit_power + params.amp_power_budget
    assert res.snr == pytest.approx(
        p_total * params.ref_gain ** 2 * 1500 ** 2
        / (da ** 2 * db ** 2 * params.rx_noise_power), rel=1e-12, abs=0.0)


def test_single_pirs_matrix_oracle(params, topo):
    res = rate_single_pirs(params, topo)
    da, db = site_distances(topo, res.site)
    oracle = single_surface_oracle(
        params, da, db, res.n_pas, 1.0,
        params.transmit_power + params.amp_power_budget, 0.0)
    assert res.snr == pytest.approx(oracle, rel=1e-9, abs=0.0)


def test_single_pirs_fair_power(params, topo):
    # passive-only systems transmit with Pt + Pv: swapping the two budgets
    # leaves the rate unchanged
    swapped = replace(params, transmit_power=params.amp_power_budget,
                      amp_power_budget=params.transmit_power)
    assert rate_single_pirs(swapped, topo).snr == pytest.approx(
        rate_single_pirs(params, topo).snr, rel=1e-12, abs=0.0)
    assert rate_double_pirs(swapped, topo).snr == pytest.approx(
        rate_double_pirs(params, topo).snr, rel=1e-12, abs=0.0)


def test_single_airs_linear_law(params, topo):
    r1 = rate_single_airs(params, topo)
    r2 = rate_single_airs(replace(params, total_budget=3000.0), topo)
    assert r2.snr == pytest.approx(2.0 * r1.snr, rel=1e-12, abs=0.0)


def test_single_airs_baseline_formula(params, topo):
    res = rate_single_airs(params, topo)
    assert res.n_act == 300
    pt, pv = params.transmit_power, params.amp_power_budget
    rho, s02, sv2 = params.ref_gain, params.rx_noise_power, params.amp_noise_power
    best = max(
        pt * pv * rho ** 2 * 300
        / (sv2 * rho * pv * da ** 2 + s02 * db ** 2 * (pt * rho + sv2 * da ** 2))
        for da, db in (site_distances(topo, "A"), site_distances(topo, "B")))
    assert res.snr == pytest.approx(best, rel=1e-12, abs=0.0)


def test_single_airs_matrix_oracle(params, topo):
    res = rate_single_airs(params, topo)
    da, db = site_distances(topo, res.site)
    oracle = single_surface_oracle(params, da, db, res.n_act, res.amplitude,
                                   params.transmit_power,
                                   params.amp_noise_power)
    assert res.snr == pytest.approx(oracle, rel=1e-9, abs=0.0)
    # the reported amplitude saturates the amplification power budget
    rho = params.ref_gain
    out = (params.transmit_power * res.amplitude ** 2 * rho * res.n_act / da ** 2
           + params.amp_noise_power * res.amplitude ** 2 * res.n_act)
    assert out == pytest.approx(params.amp_power_budget, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pv, floored, n_act", [(0.012000000030000003, 2, 3),
                                                (0.05600000014, 14, 13)])
def test_single_airs_count_where_alpha_square_is_one_ulp_from_an_integer(pv, floored, n_act):
    # with Pt = 1, rho = 0.1 and site A 5 m from Tx, alpha*(1)^2 lies one ulp
    # from an integer, and its floor is off by one from the largest count with
    # alpha* >= 1: below it for 3, above it for 13, so each of the count's two
    # corrections is needed once. Site B is far from both end nodes.
    params = SystemParams(transmit_power=1.0, amp_power_budget=pv, rx_noise_power=1e-11,
                          amp_noise_power=1e-11, ref_gain=0.1, wavelength=0.1,
                          cost_active=2.0, cost_passive=1.0, total_budget=1e4)
    topo = build_topology((0, 0, 0), (3, 0, 4), (1000, 1000, 4), (10, 0, 0))
    assert math.floor(alpha_star(params, 5.0, 1.0) ** 2) == floored
    assert alpha_star(params, 5.0, n_act) >= 1.0 > alpha_star(params, 5.0, n_act + 1)
    res = rate_single_airs(params, topo)
    assert (res.site, res.n_act) == ("A", n_act)


@pytest.mark.parametrize("system", [SINGLE_PIRS, SINGLE_AIRS, HYBRID_IRS])
def test_site_on_an_end_node_is_refused(params, system):
    # B sits on Tx: no link of the topology is short, but single-surface
    # systems at site B would divide by its zero distance to Tx
    topo = build_topology((0.0, 0.0, 0.0), (15.0, 5.0, 10.0), (0.0, 0.0, 0.0),
                          (100.0, 0.0, 0.0))
    with pytest.raises(DistanceTooSmall, match="Tx or Rx"):
        run_benchmark(system, params, topo)


def test_single_airs_low_noise_limit(topo):
    # amplification noise at the domain's floor, 1e-21 W
    params = baseline_params(amp_noise_power=1e-21)
    res = rate_single_airs(params, topo)
    da, db = min((site_distances(topo, "A"), site_distances(topo, "B")),
                 key=lambda t: t[1])
    expected = (params.amp_power_budget * params.ref_gain * res.n_act
                / (params.rx_noise_power * db ** 2))
    assert res.snr == pytest.approx(expected, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("budget", [1e12, 1e300])
def test_single_airs_count_capped_by_amplitude(params, topo, budget):
    # a budget beyond the domain's 1e9 elements is refused; 1e9 still affords
    # far more elements than Pv can drive at alpha* >= 1 (4,871,311): the
    # count is the largest whose alpha* is still >= 1
    with pytest.raises(ConfigError, match="domain"):
        replace(params, total_budget=budget)
    res = rate_single_airs(replace(params, total_budget=1e9), topo)
    da, _ = site_distances(topo, res.site)
    assert res.amplitude >= 1.0
    assert res.amplitude == float(alpha_star(params, da, res.n_act))
    assert alpha_star(params, da, res.n_act + 1.0) < 1.0
    assert res.n_act < 1e9 / params.cost_active


def test_single_airs_infeasible_when_no_site_drives_one_element(params, topo):
    # alpha* of one element is below 1 at both sites
    low = replace(params, amp_power_budget=dbm_to_watts(-120.0))
    assert all(alpha_star(low, site_distances(topo, s)[0], 1.0) < 1.0 for s in "AB")
    with pytest.raises(InfeasibleBudget):
        rate_single_airs(low, topo)


def test_hybrid_pure_active_split_matches_single_airs(params, topo):
    # the hybrid objective with no passive elements reduces to the
    # single-active-surface formula at the same site and count
    pt, pv = params.transmit_power, params.amp_power_budget
    rho, s02, sv2 = params.ref_gain, params.rx_noise_power, params.amp_noise_power
    da, db = site_distances(topo, "B")
    n = 37
    alpha_sq = pv * da ** 2 / ((pt * rho + sv2 * da ** 2) * n)
    hybrid_snr = (pt * rho ** 2 * alpha_sq * n ** 2 / (da ** 2 * db ** 2)
                  / (sv2 * alpha_sq * rho * n / db ** 2 + s02))
    airs_snr = (pt * pv * rho ** 2 * n
                / (sv2 * rho * pv * da ** 2 + s02 * db ** 2 * (pt * rho + sv2 * da ** 2)))
    assert hybrid_snr == pytest.approx(airs_snr, rel=1e-12, abs=0.0)


def test_hybrid_matrix_oracle(params, topo):
    res = rate_hybrid_irs(params, topo)
    da, db = site_distances(topo, res.site)
    rho = params.ref_gain
    n = res.n_act + res.n_pas
    g = math.sqrt(rho) / da * upa_response(0.3, 1.1, n)
    h = math.sqrt(rho) / db * upa_response(-0.7, 0.9, n)
    amps = np.concatenate([np.full(res.n_act, res.amplitude),
                           np.ones(res.n_pas)])
    refl = amps * np.exp(1j * (np.angle(h) - np.angle(g)))
    signal = params.transmit_power * abs(h.conj() @ (refl * g)) ** 2
    noise = (params.amp_noise_power * res.amplitude ** 2
             * np.linalg.norm(h[:res.n_act]) ** 2 + params.rx_noise_power)
    assert res.snr == pytest.approx(signal / noise, rel=1e-9, abs=0.0)


def test_hybrid_budget_respected(params, topo):
    res = rate_hybrid_irs(params, topo)
    assert (params.cost_active * res.n_act + params.cost_passive * res.n_pas
            <= params.total_budget)
    assert res.amplitude >= 1.0


def test_double_pirs_baseline(params, topo):
    res = rate_double_pirs(params, topo)
    assert res.n_pas == 1500  # 750 per surface
    p_total = params.transmit_power + params.amp_power_budget
    expected = (p_total * params.ref_gain ** 3 * 750 ** 4
                / (topo.d1 ** 2 * topo.d2 ** 2 * topo.d3 ** 2
                   * params.rx_noise_power))
    assert res.snr == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_double_pirs_matrix_oracle(params, topo):
    # two co-phased passive surfaces, transmit power Pt + Pv, no active noise
    res = rate_double_pirs(params, topo)
    n = res.n_pas // 2
    rho = params.ref_gain
    u1 = upa_response(0.4, 1.2, n)
    u2 = upa_response(-0.2, 0.8, n)
    u3 = upa_response(1.0, 1.4, n)
    u4 = upa_response(0.6, 0.5, n)
    g = math.sqrt(rho) / topo.d1 * u1
    s = math.sqrt(rho) / topo.d2 * np.outer(u3, u2.conj())
    h = math.sqrt(rho) / topo.d3 * u4
    psi = np.exp(1j * (np.angle(u2) - np.angle(u1)))
    w = s @ (psi * g)
    phi = np.exp(1j * (np.angle(h) - np.angle(w)))
    gain = h.conj() @ (phi * w)
    snr = ((params.transmit_power + params.amp_power_budget) * abs(gain) ** 2
           / params.rx_noise_power)
    assert res.snr == pytest.approx(snr, rel=1e-9, abs=0.0)


def test_growth_orders(params, topo):
    budgets = np.array([500.0, 1000.0, 2000.0, 4000.0])
    expected = {SINGLE_PIRS: 2.0, SINGLE_AIRS: 1.0, DOUBLE_PIRS: 4.0}
    for system, target in expected.items():
        snrs = [run_benchmark(system, replace(params, total_budget=m), topo).snr
                for m in budgets]
        slope = np.polyfit(np.log(budgets), np.log(snrs), 1)[0]
        assert slope == pytest.approx(target, abs=0.05)
    # the two-surface schemes grow cubically in the dominant-term regime
    from irsalloc import closed_form_split, snr_approx
    for scheme in ("TAPR", "TPAR"):
        snrs = [snr_approx(params, topo, closed_form_split(
            m, params.cost_active, params.cost_passive, scheme)).snr for m in budgets]
        slope = np.polyfit(np.log(budgets), np.log(snrs), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.05)


def test_run_benchmark_dispatch(params, topo):
    for system in (SINGLE_PIRS, SINGLE_AIRS, HYBRID_IRS, DOUBLE_PIRS):
        res = run_benchmark(system, params, topo)
        assert res.system == system
        assert res.rate == pytest.approx(math.log2(1.0 + res.snr), rel=1e-12, abs=0.0)
    with pytest.raises(ConfigError):
        run_benchmark("triple-pirs", params, topo)


# budgets whose floored quotient overshoots by one ulp: 972/6.48 floors to 150
# but 150*6.48 = 972.0000000000001, and 2735.2/1.3 floors to 2104 but
# 2104*1.3 = 2735.2000000000003
@pytest.mark.parametrize("system, overrides, n_act, n_pas", [
    (SINGLE_AIRS, dict(total_budget=972.0, cost_active=6.48), 149, 0),
    (SINGLE_PIRS, dict(total_budget=2735.2, cost_passive=1.3), 0, 2103),
    (DOUBLE_PIRS, dict(total_budget=2735.2, cost_passive=1.3), 0, 2102),
    (HYBRID_IRS, dict(total_budget=972.0, cost_active=6.48), 149, 6),
])
def test_counts_within_budget_at_rounding_edge(topo, system, overrides, n_act, n_pas):
    params = baseline_params(**overrides)
    res = run_benchmark(system, params, topo)
    assert (res.n_act, res.n_pas) == (n_act, n_pas)
    assert (params.cost_active * res.n_act + params.cost_passive * res.n_pas
            <= params.total_budget)


@st.composite
def benchmark_scenarios(draw):
    """Pv from -60 to 30 dBm, so the hybrid's alpha* rules out some or all
    active counts; near and far-apart site pairs."""
    wa = draw(st.floats(2.0, 10.0))
    params = SystemParams(
        transmit_power=dbm_to_watts(draw(st.floats(10.0, 30.0))),
        amp_power_budget=dbm_to_watts(draw(st.floats(-60.0, 30.0))),
        rx_noise_power=dbm_to_watts(draw(st.floats(-90.0, -70.0))),
        amp_noise_power=dbm_to_watts(draw(st.floats(-90.0, -70.0))),
        ref_gain=10.0 ** draw(st.floats(-4.0, -2.0)),
        wavelength=0.1, cost_active=wa, cost_passive=1.0,
        total_budget=draw(st.floats(wa + 1.0, 3000.0)))
    xb = draw(st.floats(60.0, 130.0) | st.floats(2000.0, 6000.0))
    topo = build_topology(
        (0.0, 0.0, 0.0),
        (draw(st.floats(5.0, 30.0)), draw(st.floats(0.0, 10.0)), draw(st.floats(5.0, 15.0))),
        (xb, draw(st.floats(0.0, 10.0)), draw(st.floats(5.0, 15.0))),
        (xb + draw(st.floats(5.0, 40.0)), draw(st.floats(0.0, 10.0)), 0.0))
    return params, topo


def assert_matches_site_loop(system, params, topo):
    try:
        ref = site_loop_benchmark(system, params, topo)
    except InfeasibleBudget:
        with pytest.raises(InfeasibleBudget):
            run_benchmark(system, params, topo)
        return None
    res = run_benchmark(system, params, topo)
    assert ((res.system, res.site, res.n_act, res.n_pas)
            == (ref.system, ref.site, ref.n_act, ref.n_pas))
    # numpy squares as x*x where the loop calls pow: the last bit may differ
    assert res.snr == pytest.approx(ref.snr, rel=1e-15, abs=0.0)
    assert res.amplitude == pytest.approx(ref.amplitude, rel=1e-15, abs=0.0)
    return res


@settings(max_examples=150, deadline=None)
@given(benchmark_scenarios(), st.sampled_from((SINGLE_PIRS, SINGLE_AIRS, HYBRID_IRS)))
def test_site_arrays_match_site_loops(scenario, system):
    assert_matches_site_loop(system, *scenario)


@pytest.mark.parametrize("system", [SINGLE_PIRS, SINGLE_AIRS, HYBRID_IRS])
def test_exact_site_tie_picks_site_a(params, system):
    # B mirrors A in the xz-plane, which holds Tx and Rx: equal distances
    topo = build_topology((0.0, 0.0, 0.0), (30.0, 5.0, 10.0), (30.0, -5.0, 10.0),
                          (100.0, 0.0, 0.0))
    assert site_distances(topo, "A") == site_distances(topo, "B")
    assert assert_matches_site_loop(system, params, topo).site == "A"


def test_hybrid_row_guard(topo):
    # 2e7 active rows: the guard raises before any row array is built
    params = baseline_params(total_budget=1e8)

    def solve():
        with pytest.raises(SearchSpaceTooLarge):
            rate_hybrid_irs(params, topo)

    assert traced_peak(solve) < 100_000
