"""Alternating optimization of IRS positions and element allocation.

The placement step is a joint brute-force scan over both surfaces' grid
positions (heights fixed); the allocation step is the exact integer solver.
Each step maximizes its own block exactly, so the rate trace is
non-decreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import Allocation, solve_integer
from .errors import NoFeasiblePlacement
from .reflection import alpha_star, beta_star
from .scenario import SystemParams, TAPR, Topology, build_topology, check_scheme
from .snr import snr_from_zeta, zeta_value


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
        if self.step <= 0:
            raise ValueError("grid step must be > 0")
        for lo, hi in (self.xa_bounds, self.ya_bounds, self.xb_bounds, self.yb_bounds):
            if hi < lo:
                raise ValueError(f"degenerate bounds ({lo}, {hi})")

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
    """Joint grid-argmax of the closed-form rate over both surface positions.

    Ties (within 1e-12 relative) resolve to the smallest x_A, then smallest
    x_B, then smallest y_A, y_B.
    """
    check_scheme(alloc.scheme)
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
    feasible = (d1 >= grid.d_min) & (d2 >= grid.d_min) & (d3 >= grid.d_min)
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
