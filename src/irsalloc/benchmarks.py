"""Rate calculators for the four comparison systems.

Fair-power convention: systems with no active surface transmit with Pt + Pv;
systems with an active surface keep (Pt, Pv) separate. Every element count is
the largest the budget affords (allocation.affordable).

Single-surface systems are evaluated at both existing IRS sites (A, B) at
once, as SNR arrays of shape (2,), or (2, n_act) for the hybrid with -inf
where alpha* < 1. One np.argmax picks the answer, so ties go to site A
before B, then to the smallest n_act.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import MAX_SCAN_ROWS, affordable
from .errors import SearchSpaceTooLarge
from .reflection import alpha_star
from .scenario import SystemParams, Topology
from .snr import rate_from_snr

SINGLE_PIRS = "single-pirs"
SINGLE_AIRS = "single-airs"
HYBRID_IRS = "hybrid-irs"
DOUBLE_PIRS = "double-pirs"
BENCHMARK_SYSTEMS = (SINGLE_PIRS, SINGLE_AIRS, HYBRID_IRS, DOUBLE_PIRS)
_SITES = ("A", "B")


@dataclass(frozen=True)
class BenchmarkResult:
    system: str
    n_act: int
    n_pas: int
    site: str          # "A", "B" or "A+B"
    amplitude: float
    snr: float
    rate: float


def _distances(topo: Topology) -> tuple[np.ndarray, np.ndarray]:
    """(Tx->site, site->Rx) distances, each of shape (2,) over _SITES."""
    tx, rx = np.asarray(topo.pos_tx), np.asarray(topo.pos_rx)
    a, b = np.asarray(topo.pos_irs_a), np.asarray(topo.pos_irs_b)
    # one norm per 1-D difference: an axis=1 norm can differ in the last bit
    return (np.array([np.linalg.norm(a - tx), np.linalg.norm(b - tx)]),
            np.array([np.linalg.norm(rx - a), np.linalg.norm(rx - b)]))


def _first_max(system: str, snr: np.ndarray, n_act, n_pas, amplitude) -> BenchmarkResult:
    """The result at the first maximum of snr, whose first axis runs over
    _SITES; n_act, n_pas and amplitude broadcast against it."""
    i = np.unravel_index(np.argmax(snr), snr.shape)
    n_act, n_pas, amplitude = (np.broadcast_to(v, snr.shape)[i]
                               for v in (n_act, n_pas, amplitude))
    best = float(snr[i])
    return BenchmarkResult(system=system, n_act=int(n_act), n_pas=int(n_pas),
                           site=_SITES[i[0]], amplitude=float(amplitude), snr=best,
                           rate=rate_from_snr(best))


def rate_single_pirs(params: SystemParams, topo: Topology) -> BenchmarkResult:
    """One passive surface at the better site, transmit power Pt + Pv."""
    n = int(affordable(params.total_budget, 0.0, params.cost_passive))
    p_total = params.transmit_power + params.amp_power_budget
    rho, s02 = params.ref_gain, params.rx_noise_power
    da, db = _distances(topo)
    snr = p_total * rho ** 2 * n ** 2 / (da ** 2 * db ** 2 * s02)
    return _first_max(SINGLE_PIRS, snr, 0, n, 1.0)


def rate_single_airs(params: SystemParams, topo: Topology) -> BenchmarkResult:
    """One active surface at the better site, its power budget saturated."""
    n = int(affordable(params.total_budget, 0.0, params.cost_active))
    pt, pv = params.transmit_power, params.amp_power_budget
    rho, s02, sv2 = params.ref_gain, params.rx_noise_power, params.amp_noise_power
    da, db = _distances(topo)
    snr = (pt * pv * rho ** 2 * n
           / (sv2 * rho * pv * da ** 2 + s02 * db ** 2 * (pt * rho + sv2 * da ** 2)))
    return _first_max(SINGLE_AIRS, snr, n, 0, alpha_star(params, da, n))


def rate_hybrid_irs(params: SystemParams, topo: Topology) -> BenchmarkResult:
    """Co-located hybrid surface: coherent combining of an amplified active
    sub-surface and a passive one; amplification noise through the active
    sub-path only. Each site and active count uses every passive element the
    rest of the budget affords; counts whose alpha* < 1 are infeasible."""
    pt = params.transmit_power
    rho, s02, sv2 = params.ref_gain, params.rx_noise_power, params.amp_noise_power
    m, wa, wp = params.total_budget, params.cost_active, params.cost_passive
    rows = affordable(m, 0.0, wa)
    if rows > MAX_SCAN_ROWS:
        raise SearchSpaceTooLarge(f"{rows:.0f} n_act rows exceed the scan bound {MAX_SCAN_ROWS}")
    n_act = np.arange(1.0, rows + 1.0)
    n_pas = affordable(m, wa * n_act, wp)
    da, db = _distances(topo)
    da, db = da[:, None], db[:, None]
    alpha = alpha_star(params, da, n_act)
    feasible = alpha >= 1.0
    if not feasible.any():
        # the power budget cannot drive even one element at amplitude >= 1
        return rate_single_pirs(params, topo)
    # signal over noise, divided in place to hold one fewer (2, n_act) array
    snr = pt * rho ** 2 * (alpha * n_act + n_pas) ** 2 / (da ** 2 * db ** 2)
    snr /= sv2 * alpha ** 2 * rho * n_act / db ** 2 + s02
    snr[~feasible] = -np.inf
    return _first_max(HYBRID_IRS, snr, n_act, n_pas, alpha)


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
