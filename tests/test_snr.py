"""SNR oracles: matrix form vs closed form, approximations, regime check,
scheme comparator and the Monte-Carlo power meter."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irsalloc import (
    Allocation, ConditionUndefined, ConfigError, build_channels, build_topology,
    check_lemma1, compare_schemes, simulate_empirical_snr, snr_approx,
    snr_closed_form, snr_exact_matrix,
)
from irsalloc.allocation import closed_form_split
from irsalloc.reflection import ReflectionConfig, configure, optimal_phases
from irsalloc import snr as snr_module
from irsalloc.snr import _MC_BLOCK, _MC_CHUNK, rate_from_snr, snr_from_zeta, zeta_value
from conftest import (baseline_params, inter_surface_matrix, random_scenario,
                      reflection_matrices, traced_peak)


def zeta_oracle(params, scheme, x_act, x_pas, d1, d2, d3):
    """Straight transcription of the closed-form denominators."""
    pt, pv = params.transmit_power, params.amp_power_budget
    rho, s02, sv2 = params.ref_gain, params.rx_noise_power, params.amp_noise_power
    if scheme == "TAPR":
        return (pv * sv2 * rho ** 2 * d1 ** 2 / x_act
                + s02 * d2 ** 2 * d3 ** 2 * (rho * pt + sv2 * d1 ** 2)
                / (x_act * x_pas ** 2))
    return (pt * s02 * rho ** 2 * d3 ** 2 / x_act
            + sv2 * d1 ** 2 * d2 ** 2 * (rho * pv + s02 * d3 ** 2)
            / (x_act * x_pas ** 2))


def test_closed_form_matches_oracle(params, topo):
    for scheme, counts in (("TAPR", (100, 1000)), ("TPAR", (100, 1000))):
        alloc = Allocation(*counts, scheme)
        lb = snr_closed_form(params, topo, alloc)
        z = zeta_oracle(params, scheme, *counts, topo.d1, topo.d2, topo.d3)
        expected = (params.transmit_power * params.amp_power_budget
                    * params.ref_gain ** 3 / z)
        assert lb.snr == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert lb.rate == pytest.approx(math.log2(1.0 + lb.snr), rel=1e-12, abs=0.0)


def test_link_budget_component_identity(params, topo):
    for scheme in ("TAPR", "TPAR"):
        lb = snr_closed_form(params, topo, Allocation(100, 1000, scheme))
        assert lb.snr == pytest.approx(
            lb.signal_power / (lb.amp_noise_power_at_rx + lb.rx_noise_power),
            rel=1e-12, abs=0.0)


def test_scalar_cascade_hand_computation(params, topo):
    alloc = Allocation(1, 1, "TAPR")
    ch = build_channels(params, topo, alloc)
    refl = configure(params, topo, alloc, ch)
    lb = snr_exact_matrix(params, topo, alloc, ch, refl)
    alpha = refl.amp_first
    rho = params.ref_gain
    sig = params.transmit_power * (alpha * rho ** 1.5
                                   / (topo.d1 * topo.d2 * topo.d3)) ** 2
    noise = (params.amp_noise_power * (alpha * math.sqrt(rho) / topo.d2
                                       * math.sqrt(rho) / topo.d3) ** 2
             + params.rx_noise_power)
    assert lb.snr == pytest.approx(sig / noise, rel=1e-12, abs=0.0)


def test_noiseless_amplifier_limit(topo):
    params = baseline_params(amp_noise_power=1e-40)
    alloc = Allocation(8, 32, "TAPR")
    ch = build_channels(params, topo, alloc)
    refl = configure(params, topo, alloc, ch)
    lb = snr_exact_matrix(params, topo, alloc, ch, refl)
    alpha = refl.amp_first
    rho = params.ref_gain
    expected = (params.transmit_power * alpha ** 2 * rho ** 3 * 8 ** 2 * 32 ** 2
                / (topo.d1 ** 2 * topo.d2 ** 2 * topo.d3 ** 2
                   * params.rx_noise_power))
    assert lb.snr == pytest.approx(expected, rel=1e-6, abs=0.0)


def test_matrix_equals_closed_form_baseline(params, topo):
    for scheme in ("TAPR", "TPAR"):
        alloc = Allocation(100, 1000, scheme)
        ch = build_channels(params, topo, alloc)
        refl = configure(params, topo, alloc, ch)
        exact = snr_exact_matrix(params, topo, alloc, ch, refl).snr
        closed = snr_closed_form(params, topo, alloc).snr
        assert exact == pytest.approx(closed, rel=1e-9, abs=0.0)


def test_matrix_equals_closed_form_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        params, topo = random_scenario(rng)
        for scheme in ("TAPR", "TPAR"):
            alloc = Allocation(int(rng.integers(1, 65)), int(rng.integers(1, 65)),
                               scheme)
            ch = build_channels(params, topo, alloc)
            refl = configure(params, topo, alloc, ch)
            exact = snr_exact_matrix(params, topo, alloc, ch, refl).snr
            closed = snr_closed_form(params, topo, alloc).snr
            assert exact == pytest.approx(closed, rel=1e-9, abs=0.0)


def test_doubling_active_count_doubles_snr(params, topo):
    for scheme in ("TAPR", "TPAR"):
        one = snr_closed_form(params, topo, Allocation(50, 600, scheme)).snr
        two = snr_closed_form(params, topo, Allocation(100, 600, scheme)).snr
        assert two == pytest.approx(2.0 * one, rel=1e-12, abs=0.0)


def test_monotone_in_both_counts(params, topo):
    for scheme in ("TAPR", "TPAR"):
        base = snr_closed_form(params, topo, Allocation(50, 500, scheme)).snr
        assert snr_closed_form(params, topo, Allocation(51, 500, scheme)).snr > base
        assert snr_closed_form(params, topo, Allocation(50, 501, scheme)).snr > base


def test_tpar_single_passive_element_zeta(params, topo):
    pt, pv = params.transmit_power, params.amp_power_budget
    rho, s02, sv2 = params.ref_gain, params.rx_noise_power, params.amp_noise_power
    n_act = 40
    expected = (pt * s02 * rho ** 2 * topo.d3 ** 2
                + sv2 * topo.d1 ** 2 * topo.d2 ** 2
                * (rho * pv + s02 * topo.d3 ** 2)) / n_act
    got = zeta_value(params, "TPAR", n_act, 1, topo.d1, topo.d2, topo.d3)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_approx_converges_for_large_separation(params):
    # place the surfaces 100x the regime-check length scale apart
    topo_near = build_topology((0, 0, 0), (15, 5, 10), (98, 5, 10), (100, 0, 0))
    report = check_lemma1(params, topo_near, x_pas=1000.0)
    far = 100.0 * report.lemma1_lhs
    topo_far = build_topology((0, 0, 0), (15, 5, 10), (15.0 + far, 5, 10),
                              (17.0 + far, 0, 0))
    for scheme in ("TAPR", "TPAR"):
        alloc = Allocation(100, 1000, scheme)
        exact = snr_closed_form(params, topo_far, alloc).snr
        approx = snr_approx(params, topo_far, alloc).snr
        assert approx / exact == pytest.approx(1.0, abs=0.01)


def test_approx_gap_reported_at_baseline(params, topo):
    for scheme in ("TAPR", "TPAR"):
        alloc = Allocation(100, 1000, scheme)
        exact = snr_closed_form(params, topo, alloc).snr
        approx = snr_approx(params, topo, alloc).snr
        gap = abs(approx - exact) / exact
        assert 0.0 < gap < 1.0


def test_approx_accuracy_when_regime_tight():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 20:
        params, topo = random_scenario(rng, far_apart=True)
        split = closed_form_split(params.total_budget, params.cost_active,
                                  params.cost_passive, "TAPR")
        try:
            report = check_lemma1(params, topo, split.n_pas, epsilon=0.01)
        except ConditionUndefined:
            continue
        if not report.satisfied:
            continue
        for scheme in ("TAPR", "TPAR"):
            alloc = Allocation(max(1.0, split.n_act), split.n_pas, scheme,
                               continuous=True)
            exact = snr_closed_form(params, topo, alloc).snr
            approx = snr_approx(params, topo, alloc).snr
            assert abs(approx - exact) / exact <= 0.02
        checked += 1


def test_lemma1_baseline_ratio(params, topo):
    report = check_lemma1(params, topo, x_pas=1000.0)
    # frozen from the regime-check formula at the baseline constants; the
    # short 83 m inter-surface distance does NOT satisfy the 0.1 threshold
    assert report.ratio == pytest.approx(0.44428, rel=1e-3, abs=0.0)
    assert report.d2 == pytest.approx(83.0, rel=1e-6, abs=0.0)
    assert report.satisfied is False
    assert check_lemma1(params, topo, 1000.0, epsilon=0.5).satisfied is True


def test_lemma1_linear_in_x_pas(params, topo):
    r1 = check_lemma1(params, topo, 100.0)
    r10 = check_lemma1(params, topo, 1000.0)
    assert r10.lemma1_lhs == pytest.approx(10.0 * r1.lemma1_lhs, rel=1e-12, abs=0.0)


def test_lemma1_undefined_branch(topo):
    # rho*Pv == sigma0^2*d3^2 makes the second branch divide by zero
    params = baseline_params(
        amp_power_budget=1e-11 * topo.d3 ** 2 / 1e-3)
    with pytest.raises(ConditionUndefined):
        check_lemma1(params, topo, 1000.0)


def test_suboptimal_scaling_is_cubic(params, topo):
    for scheme in ("TAPR", "TPAR"):
        g1, g2 = (snr_approx(params, topo, closed_form_split(
            m, params.cost_active, params.cost_passive, scheme)).snr for m in (700.0, 1400.0))
        assert g2 / g1 == pytest.approx(8.0, rel=1e-12, abs=0.0)


def test_tpar_suboptimal_independent_of_pv_and_rx_noise(params, topo):
    split = closed_form_split(1500.0, params.cost_active, params.cost_passive, "TPAR")
    base = snr_approx(params, topo, split).snr
    moved = replace(params, amp_power_budget=10.0 * params.amp_power_budget,
                    rx_noise_power=3.0 * params.rx_noise_power)
    assert snr_approx(moved, topo, split).snr == pytest.approx(base, rel=1e-15, abs=0.0)


def test_comparator_baseline(params, topo):
    cmp = compare_schemes(params, topo)
    assert cmp.tapr_at_least_tpar is True
    pv_term = params.amp_power_budget / (topo.d3 ** 2 * params.rx_noise_power)
    pt_term = params.transmit_power / (topo.d1 ** 2 * params.amp_noise_power)
    assert pv_term == pytest.approx(3.885e7, rel=1e-3, abs=0.0)
    assert pt_term == pytest.approx(2.857e7, rel=1e-3, abs=0.0)
    assert cmp.inv_ref_gain == pytest.approx(1e3, rel=1e-12, abs=0.0)
    assert cmp.margin == pytest.approx(pv_term - pt_term - 1e3, rel=1e-12, abs=0.0)
    assert cmp.margin == pytest.approx(1.028e7, rel=1e-3, abs=0.0)


def test_comparator_low_amp_power(topo):
    params = baseline_params(amp_power_budget=1e-9)
    assert compare_schemes(params, topo).tapr_at_least_tpar is False


def test_comparator_agrees_with_approx_ordering():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 100:
        params, topo = random_scenario(rng, far_apart=True)
        split = closed_form_split(params.total_budget, params.cost_active,
                                  params.cost_passive, "TAPR")
        try:
            report = check_lemma1(params, topo, split.n_pas)
        except ConditionUndefined:
            continue
        if not report.satisfied:
            continue
        cmp = compare_schemes(params, topo)
        g_ap = snr_approx(params, topo, split).snr
        g_pa = snr_approx(params, topo, closed_form_split(
            params.total_budget, params.cost_active, params.cost_passive, "TPAR")).snr
        assert cmp.tapr_at_least_tpar == (g_ap >= g_pa)
        checked += 1


def test_monte_carlo_deterministic(params, topo):
    alloc = Allocation(20, 200, "TAPR")
    refl = configure(params, topo, alloc)
    a = simulate_empirical_snr(params, topo, alloc, refl, 50_000, seed=5)
    b = simulate_empirical_snr(params, topo, alloc, refl, 50_000, seed=5)
    assert a.snr == b.snr
    c = simulate_empirical_snr(params, topo, alloc, refl, 50_000, seed=6)
    assert c.snr != a.snr


def monte_carlo_oracle(params, topo, alloc, refl, num_samples, seed):
    """Serial reference for simulate_empirical_snr: the same per-block
    streams and draws, with the amplification and receiver noise assembled
    term by term; returns (signal power, noise power)."""
    ch = build_channels(params, topo, alloc)
    psi, phi = reflection_matrices(refl)
    through_second = ch.h.conj() @ phi
    through_both = through_second @ inter_surface_matrix(ch) @ psi
    cascade = through_both @ ch.g
    weights = through_both if alloc.scheme == "TAPR" else through_second
    n = weights.shape[0]
    n_blocks = math.ceil(num_samples / _MC_BLOCK)
    signal = noise = 0.0
    for k, stream in enumerate(np.random.SeedSequence(seed).spawn(n_blocks)):
        m = min(_MC_BLOCK, num_samples - k * _MC_BLOCK)
        rng = np.random.default_rng(stream)
        symbols = np.exp(2j * math.pi * rng.random(m))
        g = rng.standard_normal((m, 2 * (n + 1)))
        v = math.sqrt(params.amp_noise_power / 2) * (g[:, 0:2 * n:2] + 1j * g[:, 1:2 * n:2])
        n0 = math.sqrt(params.rx_noise_power / 2) * (g[:, 2 * n] + 1j * g[:, 2 * n + 1])
        signal += float(np.sum(np.abs(cascade * symbols) ** 2))
        noise += float(np.sum(np.abs(v @ weights + n0) ** 2))
    return signal / num_samples * params.transmit_power, noise / num_samples


@pytest.mark.parametrize("num_samples", [1, 1000, 2 * _MC_BLOCK + 17])
def test_monte_carlo_matches_serial_oracle(params, topo, num_samples):
    # one partial block, and whole blocks followed by a partial one
    for scheme in ("TAPR", "TPAR"):
        alloc = Allocation(12, 30, scheme)
        refl = configure(params, topo, alloc)
        got = simulate_empirical_snr(params, topo, alloc, refl, num_samples, seed=9)
        signal, noise = monte_carlo_oracle(params, topo, alloc, refl, num_samples, 9)
        assert got.signal_power == pytest.approx(signal, rel=1e-12, abs=0.0)
        assert got.snr == pytest.approx(signal / noise, rel=1e-12, abs=0.0)
        assert got.rate == rate_from_snr(got.snr)


class DeferredExecutor:
    """A stand-in for ThreadPoolExecutor that runs a block only when its
    result is asked for, so every future submitted and not yet collected is
    in flight; it records the most at once."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = self.in_flight = self.peak = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        executor = self
        executor.submitted += 1
        executor.in_flight += 1
        executor.peak = max(executor.peak, executor.in_flight)

        class Future:
            def result(self):
                executor.in_flight -= 1
                return fn(*args)

        return Future()


def test_monte_carlo_submission_is_windowed(params, topo, monkeypatch):
    # 200 blocks of 16 samples; at most two per thread are ever in flight
    import concurrent.futures
    alloc = Allocation(12, 30, "TAPR")
    refl = configure(params, topo, alloc)
    monkeypatch.setattr(snr_module, "_MC_BLOCK", 16)
    expected = simulate_empirical_snr(params, topo, alloc, refl, 200 * 16, seed=9)
    pools = []

    def deferred(max_workers):
        pools.append(DeferredExecutor(max_workers))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", deferred)
    got = simulate_empirical_snr(params, topo, alloc, refl, 200 * 16, seed=9)
    assert got == expected
    (pool,) = pools
    assert pool.submitted == 200
    assert pool.peak <= snr_module._MC_WINDOW * pool.max_workers
    assert pool.in_flight == 0


# noise rows per sub-chunk at 40 active elements: 41 complex columns a row
ROWS_40 = _MC_CHUNK // (2 * 41)
assert ROWS_40 < _MC_BLOCK


@pytest.mark.parametrize("chunk, num_samples", [
    (_MC_CHUNK, ROWS_40 - 1), (_MC_CHUNK, ROWS_40), (_MC_CHUNK, ROWS_40 + 1),
    (_MC_CHUNK, _MC_BLOCK + 2 * ROWS_40 + 1),
    (64, 37),  # one row (82 floats) is wider than the sub-chunk
])
def test_monte_carlo_sub_chunks_match_serial_oracle(params, topo, monkeypatch, chunk,
                                                    num_samples):
    monkeypatch.setattr(snr_module, "_MC_CHUNK", chunk)
    for scheme in ("TAPR", "TPAR"):
        alloc = Allocation(40, 30, scheme)
        refl = configure(params, topo, alloc)
        got = simulate_empirical_snr(params, topo, alloc, refl, num_samples, seed=9)
        signal, noise = monte_carlo_oracle(params, topo, alloc, refl, num_samples, 9)
        assert got.signal_power == pytest.approx(signal, rel=1e-12, abs=0.0)
        assert got.snr == pytest.approx(signal / noise, rel=1e-12, abs=0.0)


def test_monte_carlo_same_for_any_sub_chunk_size(params, topo, monkeypatch):
    # the sub-chunks cut a block's rows without changing their draws
    alloc = Allocation(12, 30, "TPAR")
    refl = configure(params, topo, alloc)
    results = []
    for chunk in (1, 26 * 7, 26 * 1000, 26 * _MC_BLOCK):
        monkeypatch.setattr(snr_module, "_MC_CHUNK", chunk)
        results.append(simulate_empirical_snr(params, topo, alloc, refl,
                                              2 * _MC_BLOCK + 5, seed=4))
    assert results[0] == results[1] == results[2] == results[3]


@pytest.mark.parametrize("alloc, num_samples, bound_mb", [
    (Allocation(300, 30, "TAPR"), 1, 4),
    (Allocation(300, 30, "TAPR"), _MC_BLOCK, 4),
    (Allocation(3000, 30, "TAPR"), 1, 8),
])
def test_monte_carlo_memory_bounded(params, topo, alloc, num_samples, bound_mb):
    # a block-sized noise buffer would be 8192 rows of 2*(n_act+1) floats:
    # 38 MB at 300 active elements, 375 MB at 3000
    refl = configure(params, topo, alloc)
    peak = traced_peak(lambda: simulate_empirical_snr(params, topo, alloc, refl,
                                                      num_samples, seed=0))
    assert peak < bound_mb * 2 ** 20


def test_monte_carlo_starts_no_more_threads_than_blocks(params, topo, monkeypatch):
    import concurrent.futures
    pool_sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(snr_module, "_MC_WORKERS", 3)
    alloc = Allocation(4, 9, "TAPR")
    refl = configure(params, topo, alloc)
    for num_samples in (1, _MC_BLOCK + 1, 5 * _MC_BLOCK):
        simulate_empirical_snr(params, topo, alloc, refl, num_samples, seed=0)
    assert pool_sizes == [1, 2, 3]


def test_monte_carlo_same_for_any_worker_count(params, topo, monkeypatch):
    alloc = Allocation(20, 200, "TPAR")
    refl = configure(params, topo, alloc)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(snr_module, "_MC_WORKERS", workers)
        results.append(simulate_empirical_snr(params, topo, alloc, refl,
                                              5 * _MC_BLOCK + 3, seed=11))
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("num_samples", [0, -3, 1.5, 1000.0, True, "1000", None])
def test_monte_carlo_rejects_bad_sample_count(params, topo, num_samples):
    alloc = Allocation(4, 9, "TAPR")
    refl = configure(params, topo, alloc)
    with pytest.raises(ConfigError):
        simulate_empirical_snr(params, topo, alloc, refl, num_samples, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None])
def test_monte_carlo_rejects_bad_seed(params, topo, seed):
    # None would draw fresh OS entropy: a different number on every call
    alloc = Allocation(4, 9, "TAPR")
    refl = configure(params, topo, alloc)
    with pytest.raises(ConfigError, match="seed"):
        simulate_empirical_snr(params, topo, alloc, refl, 100, seed=seed)


def test_monte_carlo_accepts_numpy_integer_seed(params, topo):
    alloc = Allocation(4, 9, "TAPR")
    refl = configure(params, topo, alloc)
    assert simulate_empirical_snr(params, topo, alloc, refl, 100, seed=np.int64(7)) == \
        simulate_empirical_snr(params, topo, alloc, refl, 100, seed=7)


def test_monte_carlo_converges(params, topo):
    for scheme in ("TAPR", "TPAR"):
        alloc = Allocation(100, 1000, scheme)
        refl = configure(params, topo, alloc)
        analytic = snr_exact_matrix(params, topo, alloc,
                                    build_channels(params, topo, alloc), refl).snr
        small = simulate_empirical_snr(params, topo, alloc, refl, 10_000, seed=1).snr
        large = simulate_empirical_snr(params, topo, alloc, refl, 400_000, seed=1).snr
        err_small = abs(small - analytic) / analytic
        err_large = abs(large - analytic) / analytic
        assert err_large < 0.02
        assert err_large < err_small


def test_rate_from_snr():
    assert rate_from_snr(0.0) == 0.0
    assert rate_from_snr(1.0) == 1.0
    assert rate_from_snr(3.0) == 2.0


def test_exact_matrix_rejects_mismatched_reflection(params, topo):
    from irsalloc.errors import DimensionMismatch
    alloc = Allocation(4, 9, "TAPR")
    ch = build_channels(params, topo, alloc)
    bad = ReflectionConfig(phases_first=np.zeros(5), phases_second=np.zeros(9),
                           amp_first=1.5, amp_second=1.0, scheme="TAPR")
    with pytest.raises(DimensionMismatch):
        snr_exact_matrix(params, topo, alloc, ch, bad)


# TPAR's first surface is its passive one, so Allocation(9, 4, "TPAR") has the
# surface sizes (4, 9) of Allocation(4, 9, "TAPR") under the other scheme
@pytest.mark.parametrize("other", [Allocation(4, 10, "TAPR"), Allocation(9, 4, "TPAR")])
def test_monte_carlo_rejects_mismatched_reflection(params, topo, other):
    from irsalloc.errors import DimensionMismatch
    refl = configure(params, topo, other)
    with pytest.raises(DimensionMismatch):
        simulate_empirical_snr(params, topo, Allocation(4, 9, "TAPR"), refl, 100, seed=0)


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_oracles_never_form_a_dense_reflection(params, topo, scheme):
    # 3000 passive elements: an n-by-n diagonal reflection alone is 144 MB
    alloc = Allocation(1, 3000, scheme)
    ch = build_channels(params, topo, alloc)
    refl = configure(params, topo, alloc, ch)
    for run in (lambda: snr_exact_matrix(params, topo, alloc, ch, refl),
                lambda: simulate_empirical_snr(params, topo, alloc, refl, 1000, seed=0)):
        assert traced_peak(run) < 8 * 2 ** 20


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_oracle_chain_never_forms_the_inter_surface_matrix(params, topo, scheme):
    # 1000 x 10000 elements: a dense S alone would be 160 MB
    alloc = Allocation(1000, 10000, scheme)

    def chain():
        ch = build_channels(params, topo, alloc)
        refl = configure(params, topo, alloc)
        snr_exact_matrix(params, topo, alloc, ch, refl)
        simulate_empirical_snr(params, topo, alloc, refl, 1000, seed=0)

    assert traced_peak(chain) < 8 * 2 ** 20


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64), st.integers(1, 64),
       st.sampled_from(("TAPR", "TPAR")))
def test_exact_matrix_equals_literal_product(seed, n_act, n_pas, scheme):
    # random phases and amplitudes, so nothing co-phases the cascade
    rng = np.random.default_rng(seed)
    params, topo = random_scenario(rng)
    alloc = Allocation(n_act, n_pas, scheme)
    ch = build_channels(params, topo, alloc)
    refl = ReflectionConfig(phases_first=rng.uniform(0.0, 2 * math.pi, ch.n_first),
                            phases_second=rng.uniform(0.0, 2 * math.pi, ch.n_second),
                            amp_first=float(rng.uniform(0.5, 3.0)),
                            amp_second=float(rng.uniform(0.5, 3.0)), scheme=scheme)
    psi, phi = reflection_matrices(refl)
    through_second = ch.h.conj() @ phi
    through_both = through_second @ inter_surface_matrix(ch) @ psi
    weights = through_both if scheme == "TAPR" else through_second
    lb = snr_exact_matrix(params, topo, alloc, ch, refl)
    # abs=0: the powers are far below approx's default absolute tolerance
    assert lb.signal_power == pytest.approx(
        params.transmit_power * abs(through_both @ ch.g) ** 2, rel=1e-12, abs=0.0)
    assert lb.amp_noise_power_at_rx == pytest.approx(
        params.amp_noise_power * np.linalg.norm(weights) ** 2, rel=1e-12, abs=0.0)
