"""Shared fixtures: the baseline desk-scale scenario and random generators."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from irsalloc import (Allocation, InfeasibleBudget, NoFeasiblePlacement, SystemParams, TAPR,
                      build_topology, dbm_to_watts, snr_closed_form)
from irsalloc.allocation import affordable
from irsalloc.benchmarks import (HYBRID_IRS, SINGLE_AIRS, SINGLE_PIRS,
                                 BenchmarkResult)
from irsalloc.reflection import alpha_star, beta_star, optimal_amplitude
from irsalloc.snr import rate_from_snr, snr_from_zeta, zeta_value

REPO_ROOT = Path(__file__).resolve().parents[1]


def baseline_params(**overrides) -> SystemParams:
    kw = dict(
        transmit_power=dbm_to_watts(20.0),
        amp_power_budget=dbm_to_watts(17.0),
        rx_noise_power=dbm_to_watts(-80.0),
        amp_noise_power=dbm_to_watts(-80.0),
        ref_gain=1e-3,
        wavelength=0.1,
        cost_active=5.0,
        cost_passive=1.0,
        total_budget=1500.0,
    )
    kw.update(overrides)
    return SystemParams(**kw)


def baseline_topology():
    return build_topology((0.0, 0.0, 0.0), (15.0, 5.0, 10.0),
                          (98.0, 5.0, 10.0), (100.0, 0.0, 0.0))


def random_scenario(rng: np.random.Generator, far_apart: bool = False):
    """Random but physically sane scenario for property tests.

    far_apart stretches the inter-surface distance so the dominant-term
    approximation regime holds.
    """
    params = SystemParams(
        transmit_power=dbm_to_watts(rng.uniform(10.0, 30.0)),
        amp_power_budget=dbm_to_watts(rng.uniform(5.0, 25.0)),
        rx_noise_power=dbm_to_watts(rng.uniform(-90.0, -70.0)),
        amp_noise_power=dbm_to_watts(rng.uniform(-90.0, -70.0)),
        ref_gain=10.0 ** rng.uniform(-4.0, -2.0),
        wavelength=0.1,
        cost_active=float(rng.uniform(2.0, 10.0)),
        cost_passive=1.0,
        total_budget=float(rng.uniform(100.0, 3000.0)),
    )
    xb = rng.uniform(2000.0, 6000.0) if far_apart else rng.uniform(60.0, 130.0)
    topo = build_topology(
        (0.0, 0.0, 0.0),
        (rng.uniform(5.0, 30.0), rng.uniform(0.0, 10.0), rng.uniform(5.0, 15.0)),
        (xb, rng.uniform(0.0, 10.0), rng.uniform(5.0, 15.0)),
        (xb + rng.uniform(5.0, 40.0), rng.uniform(0.0, 10.0), 0.0),
    )
    return params, topo


def brute_force_allocation(params: SystemParams, topo, scheme: str,
                           budget: float, n_act_rows=None):
    """Max-rate integer (n_act, n_pas) by enumerating every affordable pair
    whose active amplitude is >= 1; None if there is none.

    n_act_rows restricts the enumeration to those active counts. Exact ties
    go to the larger n_pas, then the larger n_act.
    """
    best = None
    n_act = 1
    while params.cost_active * n_act + params.cost_passive <= budget:
        if n_act_rows is None or n_act in n_act_rows:
            n_pas = 1
            while (alloc := Allocation(n_act, n_pas, scheme)).cost(params) <= budget:
                if optimal_amplitude(params, topo, alloc) >= 1.0:
                    key = (snr_closed_form(params, topo, alloc).snr, n_pas, n_act)
                    best = key if best is None else max(best, key)
                n_pas += 1
        n_act += 1
    return None if best is None else (best[2], best[1])


def site_distances(topo, site):
    """(Tx->site, site->Rx) distances of IRS site "A" or "B"."""
    pos = np.asarray(topo.pos_irs_a if site == "A" else topo.pos_irs_b)
    da = np.linalg.norm(pos - np.asarray(topo.pos_tx))
    db = np.linalg.norm(np.asarray(topo.pos_rx) - pos)
    return float(da), float(db)


def site_loop_benchmark(system: str, params: SystemParams, topo):
    """The single-PIRS, single-AIRS or hybrid result by looping over sites A
    then B and, for the hybrid, over active counts in increasing order; the
    first strict maximum wins. The oracle for the array form in benchmarks."""
    pt, pv = params.transmit_power, params.amp_power_budget
    rho, s02, sv2 = params.ref_gain, params.rx_noise_power, params.amp_noise_power
    m, wa, wp = params.total_budget, params.cost_active, params.cost_passive
    best = None
    if system == SINGLE_PIRS:
        n = int(affordable(m, 0.0, wp))
        for site in ("A", "B"):
            da, db = site_distances(topo, site)
            snr = (pt + pv) * rho ** 2 * n ** 2 / (da ** 2 * db ** 2 * s02)
            if best is None or snr > best[0]:
                best = (snr, site, 0, n, 1.0)
    elif system == SINGLE_AIRS:
        counts = np.arange(1.0, affordable(m, 0.0, wa) + 1.0)
        for site in ("A", "B"):
            da, db = site_distances(topo, site)
            # the largest affordable count whose alpha* is >= 1
            alphas = alpha_star(params, da, counts)
            if not (alphas >= 1.0).any():
                continue
            n = int(np.flatnonzero(alphas >= 1.0)[-1]) + 1
            snr = (pt * pv * rho ** 2 * n
                   / (sv2 * rho * pv * da ** 2 + s02 * db ** 2 * (pt * rho + sv2 * da ** 2)))
            if best is None or snr > best[0]:
                best = (snr, site, n, 0, float(alphas[n - 1]))
        if best is None:
            raise InfeasibleBudget("no site has an active count with alpha* >= 1")
    elif system == HYBRID_IRS:
        n_act = np.arange(1.0, affordable(m, 0.0, wa) + 1.0)
        n_pas = affordable(m, wa * n_act, wp).astype(int).tolist()
        for site in ("A", "B"):
            da, db = site_distances(topo, site)
            alphas = alpha_star(params, da, n_act)
            for na, (npas, alpha) in enumerate(zip(n_pas, alphas.tolist()), start=1):
                if alpha < 1.0:
                    continue
                signal = pt * rho ** 2 * (alpha * na + npas) ** 2 / (da ** 2 * db ** 2)
                noise = sv2 * alpha ** 2 * rho * na / db ** 2 + s02
                snr = signal / noise
                if best is None or snr > best[0]:
                    best = (snr, site, na, npas, alpha)
        if best is None:
            return site_loop_benchmark(SINGLE_PIRS, params, topo)
    else:
        raise ValueError(f"no site-loop oracle for {system!r}")
    snr, site, n_act, n_pas, amplitude = best
    return BenchmarkResult(system=system, n_act=n_act, n_pas=n_pas, site=site,
                           amplitude=amplitude, snr=snr, rate=rate_from_snr(snr))


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reflection_matrices(refl):
    """(Psi, Phi): the literal diagonal reflection matrices of the first and
    second surface, for tests that check the cascade as a matrix product."""
    return (np.diag(refl.amp_first * np.exp(1j * refl.phases_first)),
            np.diag(refl.amp_second * np.exp(1j * refl.phases_second)))


def inter_surface_matrix(ch):
    """S: the literal n_second x n_first inter-surface matrix that the
    channels hold as its factors, for tests that check the cascade as a
    matrix product."""
    return ch.s_gain * np.outer(ch.b_from_a, ch.a_to_b.conj())


def full_grid_placement(params: SystemParams, alloc, grid, pos_tx, pos_rx):
    """Joint grid-argmax of the closed-form rate over every candidate
    placement at once; the oracle for the pruned placement scan.

    Ties (within 1e-12 relative) resolve to the smallest x_A, then smallest
    x_B, then smallest y_A, y_B. Memory grows as the grid step to the -4.
    """
    tx = np.asarray(pos_tx, dtype=float)
    rx = np.asarray(pos_rx, dtype=float)
    xa = grid.axis(grid.xa_bounds)
    ya = grid.axis(grid.ya_bounds)
    xb = grid.axis(grid.xb_bounds)
    yb = grid.axis(grid.yb_bounds)
    # open grids; the C-order flat index matches the tie-break priority
    gxa, gxb, gya, gyb = np.meshgrid(xa, xb, ya, yb, indexing="ij", sparse=True)
    h = grid.height

    d1 = np.sqrt((gxa - tx[0]) ** 2 + (gya - tx[1]) ** 2 + (h - tx[2]) ** 2)
    d2 = np.sqrt((gxb - gxa) ** 2 + (gyb - gya) ** 2)
    d3 = np.sqrt((rx[0] - gxb) ** 2 + (rx[1] - gyb) ** 2 + (rx[2] - h) ** 2)
    # every link distance at least d_min and, as build_topology requires, > 0
    feasible = ((d1 >= grid.d_min) & (d2 >= grid.d_min) & (d3 >= grid.d_min)
                & (d1 > 0.0) & (d2 > 0.0) & (d3 > 0.0))
    # beta* divides by d1, which is 0 at a grid point on Tx; that point
    # already fails d1 > 0
    with np.errstate(divide="ignore"):
        if alloc.scheme == TAPR:
            feasible &= alpha_star(params, d1, alloc.n_act) >= 1.0
        else:
            feasible &= beta_star(params, d1, d2, alloc.n_act, alloc.n_pas) >= 1.0
    if not feasible.any():
        raise NoFeasiblePlacement("every grid point violates a distance or amplitude constraint")

    with np.errstate(divide="ignore", invalid="ignore"):
        snr = snr_from_zeta(params, zeta_value(params, alloc.scheme,
                                               alloc.n_act, alloc.n_pas, d1, d2, d3))
    snr = np.where(feasible, snr, -np.inf)
    best = float(np.max(snr))
    # first index among near-ties is the lexicographically smallest placement
    ixa, ixb, iya, iyb = np.unravel_index(
        np.flatnonzero(snr >= best * (1.0 - 1e-12))[0], snr.shape)
    return build_topology(tx, (xa[ixa], ya[iya], h), (xb[ixb], yb[iyb], h), rx,
                          d_min=grid.d_min)


@pytest.fixture(scope="session")
def params():
    return baseline_params()


@pytest.fixture(scope="session")
def topo():
    return baseline_topology()


@pytest.fixture(scope="session")
def baseline_config():
    return REPO_ROOT / "configs" / "baseline.yaml"
