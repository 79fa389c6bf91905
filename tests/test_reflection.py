"""Phase co-phasing, amplification factors and power-constraint equality."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irsalloc import (Allocation, ConfigError, SystemParams, build_channels, build_topology,
                      dbm_to_watts, optimal_phases)
from irsalloc.reflection import alpha_sq, alpha_star, beta_sq, beta_star, configure, \
    optimal_amplitude, pas_cap_sq
from conftest import (baseline_params, inter_surface_matrix, random_scenario,
                      reflection_matrices)


def cascade_scalar(ch, refl):
    """h^H * Phi * S * Psi * g evaluated from the raw matrices."""
    psi, phi = reflection_matrices(refl)
    return ch.h.conj() @ phi @ inter_surface_matrix(ch) @ psi @ ch.g


def test_identity_angles_give_zero_phase(params):
    # B-IRS placed on the ray from the A-IRS toward the Tx, so the arrival
    # and departure directions at the A-IRS coincide and u_BA = u_TA
    topo = build_topology((0, 0, 0), (10, 0, 5), (5, 0, 2.5), (40, 0, 0))
    ch = build_channels(params, topo, Allocation(16, 4, "TAPR"))
    ph1, _ = optimal_phases(ch)
    assert np.allclose(np.where(ph1 > math.pi, ph1 - 2 * math.pi, ph1), 0.0,
                       atol=1e-10)


def test_scalar_cascade_magnitude(params, topo):
    alloc = Allocation(1, 1, "TAPR")
    ch = build_channels(params, topo, alloc)
    refl = configure(params, topo, alloc, ch)
    alpha = refl.amp_first
    expected = alpha * params.ref_gain ** 1.5 / (topo.d1 * topo.d2 * topo.d3)
    assert abs(cascade_scalar(ch, refl)) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_cophasing_identity_random_angles():
    rng = np.random.default_rng(23)
    for _ in range(20):
        params, topo = random_scenario(rng)
        for scheme in ("TAPR", "TPAR"):
            alloc = Allocation(16, 16, scheme)
            ch = build_channels(params, topo, alloc)
            refl = configure(params, topo, alloc, ch)
            amp = refl.amp_first if scheme == "TAPR" else refl.amp_second
            expected = (amp * 16 * 16 * params.ref_gain ** 1.5
                        / (topo.d1 * topo.d2 * topo.d3))
            assert abs(cascade_scalar(ch, refl)) == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_phases_in_canonical_range(params, topo):
    alloc = Allocation(25, 49, "TAPR")
    ch = build_channels(params, topo, alloc)
    ph1, ph2 = optimal_phases(ch)
    for ph in (ph1, ph2):
        assert np.all(ph >= 0.0) and np.all(ph < 2 * math.pi)


def test_alpha_star_pin(topo):
    params = baseline_params()
    pv = params.amp_power_budget
    expected = math.sqrt(pv * 350.0 / ((0.1 * 1e-3 + 350.0 * 1e-11) * 100.0))
    assert optimal_amplitude(params, topo, Allocation(100, 1000, "TAPR")) \
        == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_alpha_scales_with_sqrt_power(topo):
    params = baseline_params()
    quad = baseline_params(amp_power_budget=4.0 * params.amp_power_budget)
    alloc = Allocation(50, 500, "TAPR")
    assert optimal_amplitude(quad, topo, alloc) == pytest.approx(
        2.0 * optimal_amplitude(params, topo, alloc), rel=1e-12, abs=0.0)


def test_amplitudes_keep_plain_quotient_bits():
    # Pv enters scaled by a power of four, which changes no bit wherever the
    # plain quotient is finite
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = baseline_params(amp_power_budget=10.0 ** rng.uniform(-12.0, 3.0),
                                 transmit_power=10.0 ** rng.uniform(-3.0, 1.0),
                                 amp_noise_power=10.0 ** rng.uniform(-14.0, -8.0))
        pt, pv = params.transmit_power, params.amp_power_budget
        rho, sv2 = params.ref_gain, params.amp_noise_power
        d1, d2 = rng.uniform(1.0, 500.0, 2)
        x_act, x_pas = rng.integers(1, 3000, 2).astype(float)
        assert alpha_star(params, d1, x_act) == np.sqrt(
            pv * d1 ** 2 / (pt * rho * x_act + d1 ** 2 * sv2 * x_act))
        assert beta_star(params, d1, d2, x_act, x_pas) == np.sqrt(
            pv * d2 ** 2 / (pt * rho ** 2 * x_act * x_pas ** 2 / d1 ** 2 + d2 ** 2 * sv2 * x_act))


@pytest.mark.parametrize("dbm", [3060.0, 3100.0])
def test_amplitudes_at_extreme_amplifier_power(topo, dbm):
    # Pv*d1^2/(...) would overflow from about 3060 dBm, which lies outside the
    # domain; at its top, 90 dBm, the amplitudes are finite and warn of
    # nothing (pytest turns warnings into errors)
    with pytest.raises(ConfigError, match="domain"):
        baseline_params(amp_power_budget=dbm_to_watts(dbm))
    high = baseline_params(amp_power_budget=dbm_to_watts(90.0))
    assert 1.0 < alpha_star(high, topo.d1, 100.0) < math.inf
    assert 1.0 < beta_star(high, topo.d1, topo.d2, 100.0, 1000.0) < math.inf
    # a surface on the transmitter gets alpha* = 0, quietly
    assert alpha_star(high, np.array([0.0]), 100.0)[0] == 0.0


def test_beta_star_pin():
    # noise powers at the domain's top, 1e-3 W
    params = baseline_params(transmit_power=0.01, amp_power_budget=0.01,
                             rx_noise_power=1e-3, amp_noise_power=1e-3)
    topo = build_topology((0, 0, 0), (10, 0, 0), (10, 10, 0), (20, 10, 0))
    assert topo.d1 == topo.d2 == 10.0
    pt = pv = 0.01
    sv2 = 1e-3
    rho = params.ref_gain
    expected = math.sqrt(pv * 100.0 / (pt * rho ** 2 / 100.0 + 100.0 * sv2))
    got = optimal_amplitude(params, topo, Allocation(1, 1, "TPAR"))
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_beta_dominant_term_scaling(topo):
    # with the transmit term dominant, doubling n_pas halves beta
    params = baseline_params(transmit_power=100.0 * 0.1)
    b1 = beta_star(params, topo.d1, topo.d2, 10.0, 2000.0)
    b2 = beta_star(params, topo.d1, topo.d2, 10.0, 4000.0)
    assert b1 / b2 == pytest.approx(2.0, rel=1e-3, abs=0.0)


def test_tapr_power_constraint_equality(params, topo):
    alloc = Allocation(100, 1000, "TAPR")
    ch = build_channels(params, topo, alloc)
    refl = configure(params, topo, alloc, ch)
    psi, _ = reflection_matrices(refl)
    out = (params.transmit_power * np.linalg.norm(psi @ ch.g) ** 2
           + params.amp_noise_power * np.linalg.norm(psi, "fro") ** 2)
    assert out == pytest.approx(params.amp_power_budget, rel=1e-12, abs=0.0)


def test_tpar_power_constraint_equality(params, topo):
    alloc = Allocation(100, 1000, "TPAR")
    ch = build_channels(params, topo, alloc)
    refl = configure(params, topo, alloc, ch)
    psi, phi = reflection_matrices(refl)
    leaving_second = phi @ inter_surface_matrix(ch) @ psi @ ch.g
    out = (params.transmit_power * np.linalg.norm(leaving_second) ** 2
           + params.amp_noise_power * np.linalg.norm(phi, "fro") ** 2)
    assert out == pytest.approx(params.amp_power_budget, rel=1e-12, abs=0.0)


def test_passive_surface_amplitude_is_one(params, topo):
    ap = configure(params, topo, Allocation(10, 20, "TAPR"))
    assert ap.amp_second == 1.0 and ap.amp_first >= 1.0
    pa = configure(params, topo, Allocation(10, 20, "TPAR"))
    assert pa.amp_first == 1.0 and pa.amp_second >= 1.0


def test_carrier_phase_independence(params, topo):
    # the same geometry at a different wavelength shifts every carrier
    # phase but leaves the co-phased cascade magnitude unchanged
    alloc = Allocation(9, 16, "TAPR")
    mags = []
    for lam in (0.1, 0.0731):
        p = baseline_params(wavelength=lam)
        ch = build_channels(p, topo, alloc)
        refl = configure(p, topo, alloc, ch)
        mags.append(abs(cascade_scalar(ch, refl)))
    assert mags[0] == pytest.approx(mags[1], rel=1e-12, abs=0.0)


def test_alpha_below_one_possible(topo):
    # a huge active count starves the per-element power budget, and for TPAR
    # so does a huge passive gain ahead of the active surface; the amplitude
    # is reported below 1, neither clamped nor raised
    params = baseline_params(total_budget=1e7)
    assert alpha_star(params, topo.d1, 1e6) < 1.0
    assert optimal_amplitude(params, topo, Allocation(1e6, 10, "TAPR")) < 1.0
    assert optimal_amplitude(params, topo, Allocation(1e3, 1e6, "TPAR")) < 1.0


def _dbm(lo, hi):
    return st.floats(lo, hi).map(dbm_to_watts)


# (x_act, x_pas) pairs, whole and fractional, up to the domain's 1e9, where a
# square is no longer exact
_count = st.floats(1.0, 1e9) | st.integers(1, 10 ** 9).map(float)
_pairs = st.lists(st.tuples(_count, _count), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(pt=_dbm(0.0, 40.0), pv=_dbm(-40.0, 90.0), sv2=_dbm(-100.0, -40.0),
       rho=st.floats(-6.0, -1.0).map(lambda e: 10.0 ** e), d1=st.floats(1.0, 1e4),
       d2=st.floats(1.0, 1e4), pairs=_pairs)
# x**2 of a Python float is pow(x, 2), which differs from x*x at these two x_pas
@example(pt=0.1, pv=0.05, sv2=1e-11, rho=1e-3, d1=15.0, d2=83.0,
         pairs=[(94906267.0, 447957300.0), (99999999.5, 481218386.75564545)])
def test_squared_amplitudes_are_the_same_bits_for_floats_and_arrays(pt, pv, sv2, rho, d1,
                                                                      d2, pairs):
    # the corner walk evaluates one row in Python floats, the scan every row
    # as arrays: the helpers must give both the same bits
    params = SystemParams(transmit_power=pt, amp_power_budget=pv, rx_noise_power=1e-11,
                          amp_noise_power=sv2, ref_gain=rho, wavelength=0.1,
                          cost_active=1.0, cost_passive=1.0, total_budget=100.0)
    x_act, x_pas = (np.array(v) for v in zip(*pairs))
    pv_up = pv * (1.0 + 1e-6)
    arrays = (alpha_sq(params, d1, x_act), beta_sq(params, d1, d2, x_act, x_pas),
              pas_cap_sq(params, d1, d2, x_act, pv), pas_cap_sq(params, d1, d2, x_act, pv_up))
    for i, (n, k) in enumerate(pairs):
        floats = (alpha_sq(params, d1, n), beta_sq(params, d1, d2, n, k),
                  pas_cap_sq(params, d1, d2, n, pv), pas_cap_sq(params, d1, d2, n, pv_up))
        assert all(type(v) is float for v in floats)
        assert [v.tobytes() for v in np.array(floats)] == [a[i].tobytes() for a in arrays]
    # the amplitudes are the square roots of the squares, whatever the input
    assert np.array_equal(alpha_star(params, d1, x_act), np.sqrt(arrays[0]))
    assert np.array_equal(beta_star(params, d1, d2, x_act, x_pas), np.sqrt(arrays[1]))


def test_amplitude_test_on_the_square_is_exact_at_one():
    # sqrt is correctly rounded and monotone with sqrt(1) = 1, so testing the
    # square against 1 is testing the amplitude against 1, also one float off
    below, above, x = [], [], 1.0
    for _ in range(4):
        below.append(x := math.nextafter(x, 0.0))
    x = 1.0
    for _ in range(4):
        above.append(x := math.nextafter(x, 2.0))
    xs = below[::-1] + [1.0] + above
    for x in xs:
        assert (math.sqrt(x) >= 1.0) == (np.sqrt(x) >= 1.0) == (x >= 1.0)
    assert list(np.sqrt(np.array(xs)) >= 1.0) == [x >= 1.0 for x in xs] == [False] * 4 + [True] * 5
