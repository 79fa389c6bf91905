"""Phase co-phasing, amplification factors and power-constraint equality."""

import math

import numpy as np
import pytest

from irsalloc import Allocation, build_channels, build_topology, optimal_phases
from irsalloc.reflection import alpha_star, beta_star, configure, optimal_amplitude
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


def test_beta_star_pin():
    params = baseline_params(transmit_power=0.01, amp_power_budget=0.01,
                             rx_noise_power=0.01, amp_noise_power=0.01)
    topo = build_topology((0, 0, 0), (10, 0, 0), (10, 10, 0), (20, 10, 0))
    assert topo.d1 == topo.d2 == 10.0
    pt = pv = sv2 = 0.01
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
