"""Alternating optimization of IRS positions and element allocation.

The placement step is an exact grid argmax over both surfaces' (x, y)
positions (heights fixed). snr = C/zeta, so it is worked out as the argmin
of zeta. With the allocation fixed, zeta = P + Q*d2^2*R, where P, Q and R are
grids over one surface each, built once per scan: for TAPR, P and Q are
functions of d1 on the A-surface and R = d3^2; for TPAR, Q = d1^2 and P and R
are functions of d3 on the B-surface. Each grid axis is cut into blocks of
BLOCK_POINTS points. The zeta of a block pair (an A-block with a B-block) is
bounded below by the same expression at the block minima of P, Q, d2^2 and
R. Pairs are visited in ascending bound order, each evaluated exactly, until
the next bound exceeds the best zeta found. Feasibility is decided once per
pair where it can be: the d2 >= d_min test runs per candidate only on pairs
whose smallest d2 is below d_min, the TPAR beta* >= 1 test only on pairs
where beta* at the pair's smallest d1 and d2 is below 1 (plus _SLACK), and
each surface's per-point tests only on blocks that hold a failing point.
The scan holds one block pair's candidates, the per-surface grids and one
bound per block pair, never the joint grid.
The allocation step is the exact integer solver. Each step maximizes its own
block exactly, so the rate trace is non-decreasing. An allocation equal to
the one scanned last reuses that scan's placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import Allocation, solve_integer
from .errors import ConfigError, NoFeasiblePlacement
from .reflection import alpha_star, beta_star
from .scenario import SystemParams, TAPR, Topology, build_topology, check_scheme
from .snr import objective_constants

# points per block along each grid axis; one block pair holds at most
# BLOCK_POINTS**4 candidates
BLOCK_POINTS = 8
# relative margin by which beta* at a block pair's smallest distances must
# exceed 1 before the pair is taken as amplitude-feasible throughout; it covers
# the rounding of beta_star, which rises with d1 and d2 only in exact arithmetic
_SLACK = 1e-12


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

    Branch and bound over block pairs in zeta space (see the module
    docstring). Ties (within 1e-12 relative) resolve to the smallest x_A,
    then smallest x_B, then smallest y_A, y_B.
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

    # d1 is a grid over (ixa, iya) and d3 over (ixb, iyb); a candidate's
    # d2^2 is its squared x gap plus its squared y gap.
    d1 = np.sqrt((xa[:, None] - tx[0]) ** 2 + (ya[None, :] - tx[1]) ** 2 + (h - tx[2]) ** 2)
    d3 = np.sqrt((rx[0] - xb[:, None]) ** 2 + (rx[1] - yb[None, :]) ** 2 + (rx[2] - h) ** 2)
    gap_x = (xb[None, :] - xa[:, None]) ** 2
    gap_y = (yb[None, :] - ya[:, None]) ** 2
    ok_a = d1 >= d_min
    if scheme == TAPR:
        ok_a &= alpha_star(params, d1, n_act) >= 1.0
    ok_b = d3 >= d_min

    # zeta = P + Q*d2^2*R with each factor on one surface: objective_constants
    # gives A(d1) and B = d2^2*d3^2*B'(d1) for TAPR, A(d3) and
    # B = d1^2*d2^2*B'(d3) for TPAR.
    if scheme == TAPR:
        a, b = objective_constants(params, scheme, d1, 1.0, 1.0)
        p, q, r = a / n_act, b / (n_act * n_pas ** 2), d3 ** 2
    else:
        a, b = objective_constants(params, scheme, 1.0, 1.0, d3)
        p, q, r = a / n_act, d1 ** 2, b / (n_act * n_pas ** 2)
    p_on_a = scheme == TAPR

    # Block pairs and, within one, candidates are indexed (xa, ya, xb, yb):
    # an A-surface block broadcasts as [:, :, None, None], a B-surface one as
    # it is. A pair's bound is zeta at the block minima of P, Q, d2^2 and R,
    # each the minimum of the very float values the pair's candidates use
    # (for d2^2, the smallest squared x gap plus the smallest squared y gap).
    # Adding and multiplying non-negative floats never decreases under IEEE
    # round-to-nearest, and the bound is evaluated in the candidates' order,
    # so it is at or below each candidate's computed zeta bit for bit, not
    # only in exact arithmetic. The feasibility tests only remove candidates,
    # so they leave it a bound.
    def on_a(v, ufunc=np.minimum):
        return _block_reduce(ufunc, v, sxa, sya)[:, :, None, None]

    def on_b(v, ufunc=np.minimum):
        return _block_reduce(ufunc, v, sxb, syb)

    sxa, sya, sxb, syb = (np.arange(0, len(v), BLOCK_POINTS) for v in (xa, ya, xb, yb))
    g_lo = (_block_reduce(np.minimum, gap_x, sxa, sxb)[:, None, :, None]
            + _block_reduce(np.minimum, gap_y, sya, syb)[None, :, None, :])
    bound = (on_a(p) if p_on_a else on_b(p)) + on_a(q) * g_lo * on_b(r)

    # Feasibility decided per pair where it can be. The d2 test can fail only
    # where the pair's smallest d2 is below d_min. beta* rises with d1 and d2,
    # so beta* >= 1 holds on the whole pair when it holds, with _SLACK to
    # spare, at the pair's smallest d1 and d2.
    d2_lo = np.sqrt(g_lo)
    may_cross = d2_lo < d_min
    if scheme != TAPR:
        with np.errstate(divide="ignore", invalid="ignore"):
            may_cross |= ~(beta_star(params, on_a(d1), d2_lo, n_act, n_pas) >= 1.0 + _SLACK)
    # the per-point tests on one surface are broadcast only on blocks that
    # hold a failing point, and pairs with no passing point on one of their
    # blocks are never visited
    all_a = _block_reduce(np.logical_and, ok_a, sxa, sya).tolist()
    all_b = _block_reduce(np.logical_and, ok_b, sxb, syb).tolist()
    order = np.argsort(bound, axis=None, kind="stable")
    order = order[(on_a(ok_a, np.logical_or) & on_b(ok_b, np.logical_or)).flat[order]]

    near = 1.0 - 1e-12  # relative tie tolerance
    best = math.inf
    cut = math.inf  # largest zeta within the tie tolerance of best
    hits = []  # (zeta, ixa, ixb, iya, iyb) arrays of the near-ties seen so far
    for lo, cross, bxa, bya, bxb, byb in zip(
            bound.flat[order].tolist(), may_cross.flat[order].tolist(),
            *(c.tolist() for c in np.unravel_index(order, bound.shape))):
        # the pairs left have no candidate within the tie tolerance of best
        if lo > cut:
            break
        ia = slice(bxa * BLOCK_POINTS, (bxa + 1) * BLOCK_POINTS)
        ja = slice(bya * BLOCK_POINTS, (bya + 1) * BLOCK_POINTS)
        ib = slice(bxb * BLOCK_POINTS, (bxb + 1) * BLOCK_POINTS)
        jb = slice(byb * BLOCK_POINTS, (byb + 1) * BLOCK_POINTS)
        g = gap_x[ia, ib][:, None, :, None] + gap_y[ja, jb][None, :, None, :]
        feasible = None
        if not all_a[bxa][bya]:
            feasible = ok_a[ia, ja][:, :, None, None]
        if not all_b[bxb][byb]:
            feasible = ok_b[ib, jb] if feasible is None else feasible & ok_b[ib, jb]
        if cross:
            d2 = np.sqrt(g)
            ok = d2 >= d_min
            if scheme != TAPR:
                ok &= beta_star(params, d1[ia, ja][:, :, None, None], d2, n_act, n_pas) >= 1.0
            feasible = ok if feasible is None else feasible & ok
        zeta = q[ia, ja][:, :, None, None] * g * r[ib, jb]
        zeta += p[ia, ja][:, :, None, None] if p_on_a else p[ib, jb]
        if feasible is not None:
            if not feasible.any():
                continue
            zeta = np.where(feasible, zeta, np.inf)
        top = float(zeta.min())
        if top > cut:
            continue
        best = min(best, top)
        cut = best / near
        tied = zeta <= cut
        if feasible is not None:
            tied &= feasible  # only matters while best is +inf
        i_xa, i_ya, i_xb, i_yb = np.nonzero(tied)
        hits.append((zeta[i_xa, i_ya, i_xb, i_yb], i_xa + ia.start, i_xb + ib.start,
                     i_ya + ja.start, i_yb + jb.start))
    if not hits:
        raise NoFeasiblePlacement("every grid point violates a distance or amplitude constraint")

    zeta, *index = (np.concatenate(col) for col in zip(*hits))
    tied = zeta <= cut
    ixa, ixb, iya, iyb = min(zip(*(i[tied] for i in index)))
    return build_topology(tx, (xa[ixa], ya[iya], h), (xb[ixb], yb[iyb], h), rx,
                          d_min=d_min)


def _block_reduce(ufunc, values: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """ufunc reduced over each (row block, column block) of a 2-D array."""
    return ufunc.reduceat(ufunc.reduceat(values, rows, axis=0), cols, axis=1)


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
    scanned = None  # (allocation, topology) of the last placement scan
    for _ in range(max_iters):
        # the scan is deterministic, so an allocation scanned last time gets
        # the same placement again
        if scanned is None or scanned[0] != sol.allocation:
            scanned = (sol.allocation, optimize_placement_given_allocation(
                params, sol.allocation, grid, pos_tx, pos_rx))
        topo = scanned[1]
        sol = solve_integer(params, topo, scheme, method="optimal")
        iterations.append(AOIteration(topology=topo, allocation=sol.allocation,
                                      amplitude=sol.amplitude, rate=sol.rate))
        if sol.rate - prev_rate < tol:
            converged = True
            break
        prev_rate = sol.rate
    return AOTrace(iterations=iterations, converged=converged)
