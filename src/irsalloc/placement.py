"""Alternating optimization of IRS positions and element allocation.

The placement step is an exact grid argmax over both surfaces' (x, y)
positions (heights fixed). snr = C/zeta, so it is worked out as the argmin
of zeta. With the allocation fixed, every candidate is zeta = P + C*F, where
P and C depend on a point of one surface (the row) and F on the row and a
point of the other surface (the column) but not on the allocation. For TAPR
the rows are the A-surface's points, P = A(d1)/n_act,
C = B'(d1)/(n_act*n_pas^2) and F = d2^2*d3^2; for TPAR the rows are the
B-surface's points, P = A(d3)/n_act, C = B'(d3)/(n_act*n_pas^2) and
F = d1^2*d2^2.

The geometry depends only on the grid, the Tx and Rx positions and the
scheme; alternating_optimize builds it once per run. It holds the real grid
axes, each surface's distances to its end node, the squared x and y gaps
between the surfaces, and m, a lower bound of each row's F over the columns
that pass the distance test (see _row_bound). For each line of columns (one
column x) it takes the row's x gap to the line plus the row's smallest y gap,
times the line's smallest admissible factor (d3^2 for TAPR, d1^2 for TPAR),
and keeps the smallest over the lines. Each of those terms is at most the
one it stands for in F, and adding and multiplying non-negative floats never
decreases under IEEE round-to-nearest, so m is at most, bit for bit, every F
the scan forms from an admissible column.

The scan for one allocation takes L = P + C*m for every row that passes its
own tests; by the same rounding argument L is at most, bit for bit, every
zeta the scan computes in the row from an admissible column, whatever the
pair tests (d2 >= d_min and, for TPAR, beta* >= 1) say. Rows are evaluated
whole, with every test, in ascending order of L, in chunks that double from
one row up to _CHUNK candidates, until the next L exceeds the tie cut; the
answer equals that of a scan of the joint grid. Every link distance must be
at least d_min and MIN_DISTANCE, as build_topology requires; with d_min = 0
the scan would otherwise pick coincident surfaces for TAPR, where zeta falls
to P.

A grid whose geometry needs an array of more than _MAX_GRID_POINTS entries is
refused before any array is built, and no temporary holds more floats than
_CHUNK or a geometry array, so a scan never holds the joint grid.

The allocation step is the exact integer solver. Each step maximizes its own
block exactly, so the rate trace is non-decreasing. An allocation equal to
the one scanned last reuses that scan's placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import Allocation, solve_integer
from .errors import ConfigError, NoFeasiblePlacement, SearchSpaceTooLarge
from .reflection import alpha_star, beta_star
from .scenario import (MAX_COORDINATE, MIN_DISTANCE, SystemParams, TAPR, Topology,
                       build_topology, check_min_distance, check_position, check_scheme)
from .snr import objective_constants

# entries of the largest geometry array a grid may need (one surface's
# points, or the squared gaps between two parallel axes): 4 MB per float64
# array; a scan's peak stays within about 160 B per surface point
# (tracemalloc: 62-82 MB with four 724-point axes at the bound, 15-19 MB on
# the baseline +/-15 m x +/-5 m boxes at 0.05 m); those boxes need 90,601
# entries (the x gaps) at 0.1 m and 361,201 at 0.05 m
_MAX_GRID_POINTS = 2 ** 19
# floats in one temporary of the row bound or of a chunk of scanned rows
_CHUNK = 2 ** 14
# stopping rule of alternating_optimize
AO_TOL = 1e-6
AO_MAX_ITERS = 20


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
        if not abs(self.height) <= MAX_COORDINATE:
            raise ConfigError(f"grid height must lie within the domain's "
                              f"+/-{MAX_COORDINATE:g} m, got {self.height!r}")
        check_min_distance(self.d_min)
        for lo, hi in (self.xa_bounds, self.ya_bounds, self.xb_bounds, self.yb_bounds):
            if not (abs(lo) <= MAX_COORDINATE and abs(hi) <= MAX_COORDINATE):
                raise ConfigError(f"grid bounds must lie within the domain's "
                                  f"+/-{MAX_COORDINATE:g} m, got ({lo}, {hi})")
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
    def final(self) -> AOIteration:
        return self.iterations[-1]


def optimize_placement_given_allocation(params: SystemParams, alloc: Allocation,
                                        grid: PlacementGrid, pos_tx,
                                        pos_rx) -> Topology:
    """Exact grid-argmax of the closed-form rate over both surface positions.

    Rows in ascending order of a per-row bound in zeta space (see the module
    docstring). Ties (within 1e-12 relative) resolve to the smallest x_A,
    then smallest x_B, then smallest y_A, y_B.
    """
    check_scheme(alloc.scheme)
    return _scan(params, alloc, _geometry(grid, pos_tx, pos_rx, alloc.scheme))


@dataclass(frozen=True)
class _Geometry:
    """The allocation-free arrays of a placement scan, on the grid's own
    axes. Row-surface grids (the A-surface for TAPR, B for TPAR) and
    column-surface grids are indexed (x, y); the gaps (row-surface
    coordinate, column-surface coordinate)."""

    grid: PlacementGrid
    scheme: str
    tx: np.ndarray
    rx: np.ndarray
    xa: np.ndarray
    ya: np.ndarray
    xb: np.ndarray
    yb: np.ndarray
    least: float  # smallest admissible link distance: d_min and MIN_DISTANCE
    d_row: np.ndarray  # d1 for TAPR, d3 for TPAR
    d_col: np.ndarray  # d3 for TAPR, d1 for TPAR
    f_col: np.ndarray  # d_col^2, so F = d2^2*f_col
    far_col: np.ndarray  # d_col >= least
    gap_x: np.ndarray  # squared x gaps
    gap_y: np.ndarray  # squared y gaps
    m: np.ndarray  # a lower bound of each row's F over far_col (_row_bound); inf if none


def _check_size(grid: PlacementGrid) -> None:
    """Raise SearchSpaceTooLarge, before any array is built, when a geometry
    array of grid may hold more than _MAX_GRID_POINTS entries."""
    # span/step + 1 is an axis's length up to the 1e-9 axis() adds, so every
    # grid above the bound is refused; inf where the span overflows
    xa, ya, xb, yb = ((hi - lo) / grid.step + 1 for lo, hi in
                      (grid.xa_bounds, grid.ya_bounds, grid.xb_bounds, grid.yb_bounds))
    if not max(xa * ya, xb * yb, xa * xb, ya * yb) <= _MAX_GRID_POINTS:
        raise SearchSpaceTooLarge(f"grid step {grid.step!r} needs a placement array of more "
                                  f"than {_MAX_GRID_POINTS} points")


def _geometry(grid: PlacementGrid, pos_tx, pos_rx, scheme: str) -> _Geometry:
    """The allocation-free part of a scan over grid for these Tx and Rx and
    this scheme."""
    _check_size(grid)
    tx = check_position("pos_tx", pos_tx)
    rx = check_position("pos_rx", pos_rx)
    xa, ya, xb, yb = (grid.axis(b) for b in
                      (grid.xa_bounds, grid.ya_bounds, grid.xb_bounds, grid.yb_bounds))
    h = grid.height
    d1 = np.sqrt((xa[:, None] - tx[0]) ** 2 + (ya[None, :] - tx[1]) ** 2 + (h - tx[2]) ** 2)
    d3 = np.sqrt((rx[0] - xb[:, None]) ** 2 + (rx[1] - yb[None, :]) ** 2 + (rx[2] - h) ** 2)
    if scheme == TAPR:
        d_row, d_col, (x_row, y_row, x_col, y_col) = d1, d3, (xa, ya, xb, yb)
    else:
        d_row, d_col, (x_row, y_row, x_col, y_col) = d3, d1, (xb, yb, xa, ya)
    least = max(grid.d_min, MIN_DISTANCE)  # as build_topology requires
    gap_x = (x_col[None, :] - x_row[:, None]) ** 2
    gap_y = (y_col[None, :] - y_row[:, None]) ** 2
    f_col = d_col ** 2
    far_col = d_col >= least
    return _Geometry(
        grid=grid, scheme=scheme, tx=tx, rx=rx, xa=xa, ya=ya, xb=xb, yb=yb, least=least,
        d_row=d_row, d_col=d_col, f_col=f_col, far_col=far_col,
        gap_x=gap_x, gap_y=gap_y, m=_row_bound(gap_x, gap_y, f_col, far_col))


def _row_bound(gap_x: np.ndarray, gap_y: np.ndarray, f: np.ndarray,
               ok: np.ndarray) -> np.ndarray:
    """low[i, j], a lower bound of (gap_x[i, k] + gap_y[j, l])*f[k, l] over the
    columns (k, l) in ok, inf where there are none: the smallest, over the
    lines k with a column in ok, of (gap_x[i, k] + min_l gap_y[j, l]) times
    the line's smallest factor in ok."""
    low = np.full((gap_x.shape[0], gap_y.shape[0]), np.inf)
    # a line with no column in ok has no factor; skipping it forms no 0*inf
    lines = np.flatnonzero(ok.any(axis=1))
    gx = gap_x[:, lines].T[:, :, None]
    f_lo = np.where(ok, f, np.inf)[lines].min(axis=1)[:, None, None]
    gy_lo = gap_y.min(axis=1)
    per = max(1, _CHUNK // low.size)  # lines per chunk
    for q in range(0, len(lines), per):
        chunk = (gx[q:q + per] + gy_lo) * f_lo[q:q + per]
        np.minimum(low, chunk.min(axis=0), out=low)
    return low


def _zeta_factors(params: SystemParams, alloc: Allocation, geo: _Geometry):
    """(P, C) on the row surface, with zeta = P + C*F."""
    # objective_constants gives A(d1) and B = d2^2*d3^2*B'(d1) for TAPR,
    # A(d3) and B = d1^2*d2^2*B'(d3) for TPAR
    if alloc.scheme == TAPR:
        a, b = objective_constants(params, alloc.scheme, geo.d_row, 1.0, 1.0)
    else:
        a, b = objective_constants(params, alloc.scheme, 1.0, 1.0, geo.d_row)
    return a / alloc.n_act, b / (alloc.n_act * alloc.n_pas ** 2)


def _rows(params: SystemParams, alloc: Allocation, geo: _Geometry, p, c, rows):
    """(zeta, feasible) of every candidate in rows, flat indices of the row
    surface, each indexed (row, column x, column y)."""
    i, j = np.divmod(rows, geo.gap_y.shape[0])
    g = geo.gap_x[i][:, :, None] + geo.gap_y[j][:, None, :]
    zeta = c.ravel()[rows, None, None] * (g * geo.f_col) + p.ravel()[rows, None, None]
    d2 = np.sqrt(g)
    feasible = (d2 >= geo.least) & geo.far_col
    if alloc.scheme != TAPR:
        # d1 as it is on far_col, which alone keeps a column; raised to least
        # elsewhere, so d1 = 0 (a grid point on Tx with d_min = 0) divides by no 0
        d1 = np.maximum(geo.d_col, geo.least)
        feasible &= beta_star(params, d1, d2, alloc.n_act, alloc.n_pas) >= 1.0
    return zeta, feasible


def _scan(params: SystemParams, alloc: Allocation, geo: _Geometry) -> Topology:
    """The placement scan for one allocation over a built geometry."""
    p, c = _zeta_factors(params, alloc, geo)
    ok = (geo.d_row >= geo.least) & np.isfinite(geo.m)
    if alloc.scheme == TAPR:
        ok &= alpha_star(params, geo.d_row, alloc.n_act) >= 1.0
    rows = np.flatnonzero(ok)
    low = c.ravel()[rows] * geo.m.ravel()[rows] + p.ravel()[rows]
    order = np.argsort(low)
    rows, low = rows[order], low[order]
    most = max(1, _CHUNK // geo.f_col.size)  # rows per chunk

    near = 1.0 - 1e-12  # relative tie tolerance
    best = math.inf
    cut = math.inf  # largest zeta within the tie tolerance of best
    hits = []  # (zeta, row, column x, column y) arrays of the near-ties seen so far
    start, size = 0, 1
    while start < len(rows):
        # the rows left past the first L above cut have no candidate within
        # the tie tolerance of best
        stop = start + min(size, most, int(np.searchsorted(low[start:], cut, side="right")))
        if stop == start:
            break
        chunk = rows[start:stop]
        start, size = stop, 2 * size
        zeta, feasible = _rows(params, alloc, geo, p, c, chunk)
        if not feasible.any():
            continue
        top = float(np.min(zeta, where=feasible, initial=math.inf))
        if top > cut:
            continue
        best = min(best, top)
        cut = best / near
        r, k, l = np.nonzero((zeta <= cut) & feasible)
        hits.append((zeta[r, k, l], chunk[r], k, l))
    if not hits:
        raise NoFeasiblePlacement("every grid point violates a distance or amplitude constraint")

    zeta, row, k, l = (np.concatenate(col) for col in zip(*hits))
    tied = zeta <= cut
    i, j = np.divmod(row[tied], geo.gap_y.shape[0])
    k, l = k[tied], l[tied]
    ixa, ixb, iya, iyb = min(zip(i, k, j, l) if geo.scheme == TAPR else zip(k, i, l, j))
    h = geo.grid.height
    return build_topology(geo.tx, (geo.xa[ixa], geo.ya[iya], h), (geo.xb[ixb], geo.yb[iyb], h),
                          geo.rx, d_min=geo.grid.d_min)


def _center_topology(grid: PlacementGrid, pos_tx, pos_rx) -> Topology:
    def center(axis):
        return float(axis[len(axis) // 2])

    return build_topology(
        pos_tx,
        (center(grid.axis(grid.xa_bounds)), center(grid.axis(grid.ya_bounds)), grid.height),
        (center(grid.axis(grid.xb_bounds)), center(grid.axis(grid.yb_bounds)), grid.height),
        pos_rx, d_min=grid.d_min)


def alternating_optimize(params: SystemParams, grid: PlacementGrid, scheme: str,
                         pos_tx, pos_rx) -> AOTrace:
    """Alternate placement-given-allocation and allocation-given-placement.

    Starts from the literal rounding of the closed-form split at the
    grid-center placement; stops when the rate improves by less than AO_TOL
    bps/Hz or after AO_MAX_ITERS iterations.
    """
    check_scheme(scheme)
    # the geometry first: it refuses a grid too large to build
    geo = _geometry(grid, pos_tx, pos_rx, scheme)
    sol = solve_integer(params, _center_topology(grid, pos_tx, pos_rx), scheme,
                        method="closed-form")
    iterations: list[AOIteration] = []
    prev_rate = -math.inf
    converged = False
    scanned = None  # (allocation, topology) of the last placement scan
    for _ in range(AO_MAX_ITERS):
        # the scan is deterministic, so an allocation scanned last time gets
        # the same placement again
        if scanned is None or scanned[0] != sol.allocation:
            scanned = (sol.allocation, _scan(params, sol.allocation, geo))
        topo = scanned[1]
        sol = solve_integer(params, topo, scheme, method="optimal")
        iterations.append(AOIteration(topology=topo, allocation=sol.allocation,
                                      amplitude=sol.amplitude, rate=sol.rate))
        if sol.rate - prev_rate < AO_TOL:
            converged = True
            break
        prev_rate = sol.rate
    return AOTrace(iterations=iterations, converged=converged)
