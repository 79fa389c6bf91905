"""Rate calculators for the four comparison systems.

Fair-power convention: systems with no active surface transmit with Pt + Pv;
systems with an active surface keep (Pt, Pv) separate. Single-surface systems
are evaluated at both existing IRS sites and the better one is reported.
Every element count is the largest the budget affords (allocation.affordable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import affordable
from .reflection import alpha_star
from .scenario import SystemParams, Topology
from .snr import rate_from_snr

SINGLE_PIRS = "single-pirs"
SINGLE_AIRS = "single-airs"
HYBRID_IRS = "hybrid-irs"
DOUBLE_PIRS = "double-pirs"
BENCHMARK_SYSTEMS = (SINGLE_PIRS, SINGLE_AIRS, HYBRID_IRS, DOUBLE_PIRS)


@dataclass(frozen=True)
class BenchmarkResult:
    system: str
    n_act: int
    n_pas: int
    site: str          # "A", "B" or "A+B"
    amplitude: float
    snr: float
    rate: float


def _site_distances(topo: Topology) -> dict[str, tuple[float, float]]:
    """(Tx->site, site->Rx) distances for the two existing IRS locations."""
    tx = np.asarray(topo.pos_tx)
    rx = np.asarray(topo.pos_rx)
    out = {}
    for site, pos in (("A", topo.pos_irs_a), ("B", topo.pos_irs_b)):
        p = np.asarray(pos)
        out[site] = (float(np.linalg.norm(p - tx)), float(np.linalg.norm(rx - p)))
    return out


def rate_single_pirs(params: SystemParams, topo: Topology) -> BenchmarkResult:
    """One passive surface at the better site, transmit power Pt + Pv."""
    n = int(affordable(params.total_budget, 0.0, params.cost_passive))
    p_total = params.transmit_power + params.amp_power_budget
    rho, s02 = params.ref_gain, params.rx_noise_power
    best = None
    for site, (da, db) in sorted(_site_distances(topo).items()):
        snr = p_total * rho ** 2 * n ** 2 / (da ** 2 * db ** 2 * s02)
        if best is None or snr > best[0]:
            best = (snr, site)
    snr, site = best
    return BenchmarkResult(system=SINGLE_PIRS, n_act=0, n_pas=n, site=site,
                           amplitude=1.0, snr=snr, rate=rate_from_snr(snr))


def _single_airs_snr(params: SystemParams, n: int, da: float, db: float) -> tuple[float, float]:
    """(snr, amplitude) for one active surface with its power budget saturated."""
    pt, pv = params.transmit_power, params.amp_power_budget
    rho, s02, sv2 = params.ref_gain, params.rx_noise_power, params.amp_noise_power
    snr = (pt * pv * rho ** 2 * n
           / (sv2 * rho * pv * da ** 2 + s02 * db ** 2 * (pt * rho + sv2 * da ** 2)))
    return snr, float(alpha_star(params, da, n))


def rate_single_airs(params: SystemParams, topo: Topology) -> BenchmarkResult:
    n = int(affordable(params.total_budget, 0.0, params.cost_active))
    best = None
    for site, (da, db) in sorted(_site_distances(topo).items()):
        snr, alpha = _single_airs_snr(params, n, da, db)
        if best is None or snr > best[0]:
            best = (snr, site, alpha)
    snr, site, alpha = best
    return BenchmarkResult(system=SINGLE_AIRS, n_act=n, n_pas=0, site=site,
                           amplitude=alpha, snr=snr, rate=rate_from_snr(snr))


def rate_hybrid_irs(params: SystemParams, topo: Topology) -> BenchmarkResult:
    """Co-located hybrid surface: coherent combining of an amplified active
    sub-surface and a passive one; amplification noise through the active
    sub-path only. 1-D integer scan over the active count at each site."""
    pt = params.transmit_power
    rho, s02, sv2 = params.ref_gain, params.rx_noise_power, params.amp_noise_power
    m, wa, wp = params.total_budget, params.cost_active, params.cost_passive
    n_act = np.arange(1.0, affordable(m, 0.0, wa) + 1.0)
    n_pas = affordable(m, wa * n_act, wp).astype(int).tolist()
    best = None
    for site, (da, db) in sorted(_site_distances(topo).items()):
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
        # the power budget cannot drive even one element at amplitude >= 1
        return rate_single_pirs(params, topo)
    snr, site, na, npas, alpha = best
    return BenchmarkResult(system=HYBRID_IRS, n_act=na, n_pas=npas, site=site,
                           amplitude=alpha, snr=snr, rate=rate_from_snr(snr))


def rate_double_pirs(params: SystemParams, topo: Topology) -> BenchmarkResult:
    """Two equal passive surfaces at the existing sites, transmit power Pt + Pv."""
    n = int(affordable(params.total_budget, 0.0, 2.0 * params.cost_passive))
    p_total = params.transmit_power + params.amp_power_budget
    rho, s02 = params.ref_gain, params.rx_noise_power
    snr = (p_total * rho ** 3 * n ** 4
           / (topo.d1 ** 2 * topo.d2 ** 2 * topo.d3 ** 2 * s02))
    return BenchmarkResult(system=DOUBLE_PIRS, n_act=0, n_pas=2 * n, site="A+B",
                           amplitude=1.0, snr=snr, rate=rate_from_snr(snr))


def run_benchmark(system: str, params: SystemParams, topo: Topology) -> BenchmarkResult:
    dispatch = {
        SINGLE_PIRS: rate_single_pirs,
        SINGLE_AIRS: rate_single_airs,
        HYBRID_IRS: rate_hybrid_irs,
        DOUBLE_PIRS: rate_double_pirs,
    }
    if system not in dispatch:
        raise ValueError(f"unknown benchmark system {system!r}")
    return dispatch[system](params, topo)
