"""Alternating optimization of IRS positions and element allocation.

The placement step is an exact grid argmax over both surfaces' (x, y)
positions (heights fixed). With the allocation fixed, zeta rises with each of
d1, d2 and d3, so the SNR of a block of candidates is bounded by its value
at the block's smallest distances. Each grid axis is cut into blocks of
BLOCK_POINTS points; block pairs (an A-block with a B-block) are visited in
descending bound order, each evaluated exactly, until the next bound falls
below the best SNR found. The scan holds one block pair's candidates, the
per-surface distance grids and one bound per block pair, never the joint grid.
The allocation step is the exact integer solver. Each step maximizes its own
block exactly, so the rate trace is non-decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import Allocation, solve_integer
from .errors import ConfigError, NoFeasiblePlacement
from .reflection import alpha_star, beta_star
from .scenario import SystemParams, TAPR, Topology, build_topology, check_scheme
from .snr import snr_from_zeta, zeta_value

# points per block along each grid axis; one block pair holds at most
# BLOCK_POINTS**4 candidates
BLOCK_POINTS = 8


@dataclass(frozen=True)
class PlacementGrid:
    """Candidate (x, y) boxes for the two surfaces at a fixed height."""

    xa_bounds: tuple[float, float]
    ya_bounds: tuple[float, float]
    xb_bounds: tuple[float, float]
    yb_bounds: tuple[float, float]
    step: float = 1.0
    height: float = 10.0
    d_min: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigError(f"grid step must be a finite number > 0, got {self.step!r}")
        for lo, hi in (self.xa_bounds, self.ya_bounds, self.xb_bounds, self.yb_bounds):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"grid bounds must be finite, got ({lo}, {hi})")
            if hi < lo:
                raise ConfigError(f"degenerate bounds ({lo}, {hi})")

    def axis(self, bounds: tuple[float, float]) -> np.ndarray:
        lo, hi = bounds
        n = int(math.floor((hi - lo) / self.step + 1e-9)) + 1
        return lo + self.step * np.arange(n)


@dataclass(frozen=True)
class AOIteration:
    topology: Topology
    allocation: Allocation
    amplitude: float
    rate: float


@dataclass(frozen=True)
class AOTrace:
    iterations: list[AOIteration]
    converged: bool

    @property
    def rates(self) -> list[float]:
        return [it.rate for it in self.iterations]

    @property
    def final(self) -> AOIteration:
        return self.iterations[-1]


def optimize_placement_given_allocation(params: SystemParams, alloc: Allocation,
                                        grid: PlacementGrid, pos_tx,
                                        pos_rx) -> Topology:
    """Exact grid-argmax of the closed-form rate over both surface positions.

    Branch and bound over block pairs (see the module docstring). Ties
    (within 1e-12 relative) resolve to the smallest x_A, then smallest x_B,
    then smallest y_A, y_B.
    """
    check_scheme(alloc.scheme)
    scheme, n_act, n_pas = alloc.scheme, alloc.n_act, alloc.n_pas
    tx = np.asarray(pos_tx, dtype=float)
    rx = np.asarray(pos_rx, dtype=float)
    xa = grid.axis(grid.xa_bounds)
    ya = grid.axis(grid.ya_bounds)
    xb = grid.axis(grid.xb_bounds)
    yb = grid.axis(grid.yb_bounds)
    h, d_min = grid.height, grid.d_min

    # Candidates are indexed (ixa, ixb, iya, iyb); C order over that index
    # is the tie-break priority. d1 is a grid over (ixa, iya), d3 over
    # (ixb, iyb), and d2 is built per block pair from the squared axis gaps.
    d1 = np.sqrt((xa[:, None] - tx[0]) ** 2 + (ya[None, :] - tx[1]) ** 2 + (h - tx[2]) ** 2)
    d3 = np.sqrt((rx[0] - xb[:, None]) ** 2 + (rx[1] - yb[None, :]) ** 2 + (rx[2] - h) ** 2)
    gap_x = (xb[None, :] - xa[:, None]) ** 2
    gap_y = (yb[None, :] - ya[:, None]) ** 2
    ok_a = d1 >= d_min
    if scheme == TAPR:
        ok_a &= alpha_star(params, d1, n_act) >= 1.0
    ok_b = d3 >= d_min

    # Bound of a block pair: the SNR at the pair's smallest d1, d2 and d3.
    # Each is the minimum of the very float values the pair's candidates use;
    # for d2, the smallest squared x gap plus the smallest squared y gap over
    # the pair's grid values (never below the squared box-to-box gap
    # max(0, lo_b - hi_a, lo_a - hi_b) on each axis). From there every step
    # to the SNR is monotone under IEEE round-to-nearest: adding non-negative
    # terms, sqrt, squaring a distance and multiplying positive factors never
    # decrease, and snr = C/zeta never increases in zeta. A and B
    # (objective_constants) are positive constants times squared distances,
    # so a pair's bound is at or above each of its candidates' computed SNR
    # bit for bit, not only in exact arithmetic. The d_min and amplitude
    # tests only remove candidates, so they leave it a bound.
    sxa, sya, sxb, syb = (np.arange(0, len(v), BLOCK_POINTS) for v in (xa, ya, xb, yb))
    d1_lo = _block_min(d1, sxa, sya)
    d3_lo = _block_min(d3, sxb, syb)
    d2_lo = np.sqrt(_block_min(gap_x, sxa, sxb)[:, :, None, None]
                    + _block_min(gap_y, sya, syb)[None, None, :, :])
    with np.errstate(divide="ignore"):
        bound = snr_from_zeta(params, zeta_value(params, scheme, n_act, n_pas,
                                                 d1_lo[:, None, :, None], d2_lo,
                                                 d3_lo[None, :, None, :]))

    near = 1.0 - 1e-12  # relative tie tolerance
    best = -math.inf
    hits = []  # (snr, ixa, ixb, iya, iyb) arrays of the near-ties seen so far
    for k in np.argsort(-bound, axis=None, kind="stable"):
        # the pairs left have no candidate within the tie tolerance of best;
        # while best is -inf nothing is pruned
        if bound.flat[k] < best * near:
            break
        bxa, bxb, bya, byb = np.unravel_index(k, bound.shape)
        ia = slice(sxa[bxa], sxa[bxa] + BLOCK_POINTS)
        ib = slice(sxb[bxb], sxb[bxb] + BLOCK_POINTS)
        ja = slice(sya[bya], sya[bya] + BLOCK_POINTS)
        jb = slice(syb[byb], syb[byb] + BLOCK_POINTS)
        p1 = d1[ia, ja][:, None, :, None]
        p2 = np.sqrt(gap_x[ia, ib][:, :, None, None] + gap_y[ja, jb][None, None, :, :])
        p3 = d3[ib, jb][None, :, None, :]
        feasible = (ok_a[ia, ja][:, None, :, None] & ok_b[ib, jb][None, :, None, :]
                    & (p2 >= d_min))
        if scheme != TAPR:
            feasible &= beta_star(params, p1, p2, n_act, n_pas) >= 1.0
        if not feasible.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            snr = snr_from_zeta(params, zeta_value(params, scheme, n_act, n_pas, p1, p2, p3))
        snr = np.where(feasible, snr, -np.inf)
        top = float(snr.max())
        if top < best * near:
            continue
        best = max(best, top)
        idx = np.nonzero(snr >= best * near)
        hits.append((snr[idx], idx[0] + ia.start, idx[1] + ib.start,
                     idx[2] + ja.start, idx[3] + jb.start))
    if best == -math.inf:
        raise NoFeasiblePlacement("every grid point violates a distance or amplitude constraint")

    snr, *index = (np.concatenate(col) for col in zip(*hits))
    tied = snr >= best * near
    ixa, ixb, iya, iyb = min(zip(*(i[tied] for i in index)))
    return build_topology(tx, (xa[ixa], ya[iya], h), (xb[ixb], yb[iyb], h), rx,
                          d_min=d_min)


def _block_min(values: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Minimum of a 2-D array over each (row block, column block)."""
    return np.minimum.reduceat(np.minimum.reduceat(values, rows, axis=0), cols, axis=1)


def _center_topology(grid: PlacementGrid, pos_tx, pos_rx) -> Topology:
    def center(axis):
        return float(axis[len(axis) // 2])

    return build_topology(
        pos_tx,
        (center(grid.axis(grid.xa_bounds)), center(grid.axis(grid.ya_bounds)), grid.height),
        (center(grid.axis(grid.xb_bounds)), center(grid.axis(grid.yb_bounds)), grid.height),
        pos_rx, d_min=grid.d_min)


def alternating_optimize(params: SystemParams, grid: PlacementGrid, scheme: str,
                         pos_tx, pos_rx, tol: float = 1e-6,
                         max_iters: int = 20) -> AOTrace:
    """Alternate placement-given-allocation and allocation-given-placement.

    Starts from the literal rounding of the closed-form split at the
    grid-center placement; stops when the rate improves by less than tol
    bps/Hz or after max_iters iterations.
    """
    check_scheme(scheme)
    sol = solve_integer(params, _center_topology(grid, pos_tx, pos_rx), scheme,
                        method="closed-form")
    iterations: list[AOIteration] = []
    prev_rate = -math.inf
    converged = False
    for _ in range(max_iters):
        topo = optimize_placement_given_allocation(params, sol.allocation, grid,
                                                   pos_tx, pos_rx)
        sol = solve_integer(params, topo, scheme, method="optimal")
        iterations.append(AOIteration(topology=topo, allocation=sol.allocation,
                                      amplitude=sol.amplitude, rate=sol.rate))
        if sol.rate - prev_rate < tol:
            converged = True
            break
        prev_rate = sol.rate
    return AOTrace(iterations=iterations, converged=converged)
