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

The geometry depends only on the system parameters, the grid, the Tx and Rx
positions and the scheme, not on the allocation; alternating_optimize builds
it once per run. It holds the real grid axes, each surface's distances to
its end node, the row surface's objective constants a and b (so that
P = a/n_act and C = b/(n_act*n_pas^2)), the squared x and y gaps between the
surfaces, m, a lower bound of each row's F over the columns that pass the
distance test (see _row_bound), and rows_ok, the rows that pass their own
distance test and have such a column. The bound is separable: the smallest
over the lines of columns (one column x) of the row's x gap to the line times
the line's smallest admissible factor (d3^2 for TAPR, d1^2 for TPAR), plus
the row's smallest y gap times the smallest admissible factor of all, less a
margin for rounding. So it costs one pass over the x gaps and one over the y
gaps, and m is at most, bit for bit, every F the scan forms from an
admissible column.

The scan for one allocation takes L = P + C*m for every row that passes its
own tests (TAPR's alpha* >= 1 among them), and inf for every other row; adding
and multiplying non-negative floats never decreases under round-to-nearest,
so L is at most, bit for bit, every zeta the scan computes in the row from an
admissible column, whatever the pair tests (d2 >= d_min and TPAR's beta* >= 1)
say. Both amplitude tests read reflection's squares against 1. Rows
are evaluated one at a time, whole and with every test: first the row of
least L, then, in ascending order of L, the rows whose L is within the tie
cut that row leaves (every row with a finite L while no candidate has passed
its tests), until the next L exceeds the cut. So only the rows within the cut
are sorted, and a row with L = inf is never evaluated. The answer equals that
of a scan of the joint grid. Every link distance must be at least d_min and
MIN_DISTANCE, as build_topology requires; with d_min = 0 the scan would
otherwise pick coincident surfaces for TAPR, where zeta falls to P. The
answer's Topology comes from build_topology's own constructor, which measures
the three distances and applies those tests again. Tx and Rx are checked once
per geometry and the grid's bounds by PlacementGrid, so of the domain checks
only the chosen surface points' remain: an axis's last point can pass its
bound by a rounding.

A grid whose geometry needs an array of more than _MAX_GRID_POINTS entries is
refused before any array is built, and no temporary holds more entries than
a geometry array or one row's candidates (the column surface's points), each
at most _MAX_GRID_POINTS, so a scan never holds the joint grid.

The allocation step is the exact integer solver. Each step maximizes its own
block exactly, so the rate trace is non-decreasing. An allocation equal to
the one scanned last reuses that scan's placement, and a placement equal to
the one solved last reuses that solve's allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import Allocation, solve_integer
from .errors import ConfigError, NoFeasiblePlacement, SearchSpaceTooLarge
from .reflection import alpha_sq, beta_sq
from .scenario import (MAX_COORDINATE, MIN_DISTANCE, SystemParams, TAPR, Topology,
                       _topology, check_min_distance, check_position, check_scheme,
                       is_finite_real)
from .snr import objective_constants

# entries of the largest geometry array a grid may need (one surface's
# points, so also one scanned row's candidates, or the squared gaps between
# two parallel axes): 4 MB per float64 array; a scan's peak stays within
# about 175 B per surface point (tracemalloc: 66.0-77.5 MiB with four
# 724-point axes at the bound, 16.6-19.1 MiB on the baseline +/-15 m x +/-5 m
# boxes at 0.05 m); those boxes need 90,601 entries (the x gaps) at 0.1 m and
# 361,201 at 0.05 m
_MAX_GRID_POINTS = 2 ** 19
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
        if not (is_finite_real(self.step) and self.step > 0):
            raise ConfigError(f"grid step must be a finite number > 0, got {self.step!r}")
        if not (is_finite_real(self.height) and abs(self.height) <= MAX_COORDINATE):
            raise ConfigError(f"grid height must be a number within the domain's "
                              f"+/-{MAX_COORDINATE:g} m, got {self.height!r}")
        check_min_distance(self.d_min)
        for bounds in (self.xa_bounds, self.ya_bounds, self.xb_bounds, self.yb_bounds):
            if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2 and all(
                    is_finite_real(v) and abs(v) <= MAX_COORDINATE for v in bounds)):
                raise ConfigError(f"grid bounds must be a pair of numbers within the domain's "
                                  f"+/-{MAX_COORDINATE:g} m, got {bounds!r}")
            lo, hi = bounds
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
    return _scan(params, alloc, _geometry(params, grid, pos_tx, pos_rx, alloc.scheme))


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
    a: np.ndarray  # the row's objective constants: P = a/n_act,
    b: np.ndarray  # C = b/(n_act*n_pas^2)
    f_col: np.ndarray  # d3^2 for TAPR, d1^2 for TPAR, so F = d2^2*f_col
    far_col: np.ndarray  # d3 (TAPR) or d1 (TPAR) >= least
    # d1 raised to least, read by TPAR's beta* only: far_col alone keeps a
    # column, and beta* then divides by no d1 = 0 (a grid point on Tx with d_min = 0)
    d1_floor: np.ndarray
    gap_x: np.ndarray  # squared x gaps
    gap_y: np.ndarray  # squared y gaps
    m: np.ndarray  # a lower bound of each row's F over far_col (_row_bound); inf if none
    rows_ok: np.ndarray  # d_row >= least and a finite m


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


def _geometry(params: SystemParams, grid: PlacementGrid, pos_tx, pos_rx,
              scheme: str) -> _Geometry:
    """The allocation-free part of a scan over grid for these parameters, Tx
    and Rx and this scheme."""
    _check_size(grid)
    tx = check_position("pos_tx", pos_tx)
    rx = check_position("pos_rx", pos_rx)
    xa, ya, xb, yb = (grid.axis(b) for b in
                      (grid.xa_bounds, grid.ya_bounds, grid.xb_bounds, grid.yb_bounds))
    h = grid.height
    d1 = np.sqrt((xa[:, None] - tx[0]) ** 2 + (ya[None, :] - tx[1]) ** 2 + (h - tx[2]) ** 2)
    d3 = np.sqrt((rx[0] - xb[:, None]) ** 2 + (rx[1] - yb[None, :]) ** 2 + (rx[2] - h) ** 2)
    # objective_constants gives A(d1) and B = d2^2*d3^2*B'(d1) for TAPR,
    # A(d3) and B = d1^2*d2^2*B'(d3) for TPAR
    if scheme == TAPR:
        d_row, d_col, (x_row, y_row, x_col, y_col) = d1, d3, (xa, ya, xb, yb)
        a, b = objective_constants(params, scheme, d_row, 1.0, 1.0)
    else:
        d_row, d_col, (x_row, y_row, x_col, y_col) = d3, d1, (xb, yb, xa, ya)
        a, b = objective_constants(params, scheme, 1.0, 1.0, d_row)
    least = max(grid.d_min, MIN_DISTANCE)  # as build_topology requires
    gap_x = (x_col[None, :] - x_row[:, None]) ** 2
    gap_y = (y_col[None, :] - y_row[:, None]) ** 2
    f_col = d_col ** 2
    far_col = d_col >= least
    m = _row_bound(gap_x, gap_y, f_col, far_col)
    return _Geometry(
        grid=grid, scheme=scheme, tx=tx, rx=rx, xa=xa, ya=ya, xb=xb, yb=yb, least=least,
        d_row=d_row, a=a, b=b, f_col=f_col, far_col=far_col, d1_floor=np.maximum(d1, least),
        gap_x=gap_x, gap_y=gap_y, m=m, rows_ok=(d_row >= least) & np.isfinite(m))


def _row_bound(gap_x: np.ndarray, gap_y: np.ndarray, f: np.ndarray,
               ok: np.ndarray) -> np.ndarray:
    """low[i, j], a lower bound of (gap_x[i, k] + gap_y[j, l])*f[k, l] over the
    columns (k, l) in ok, inf where there are none.

    With f_k the smallest factor in ok on line k and f_lo the smallest of all,
    (gx + gy)*f >= gx*f_k + gy*f_lo in real arithmetic, so low_x[i] + low_y[j]
    bounds every column from below, with low_x[i] = min_k gap_x[i, k]*f_k over
    the lines with a column in ok and low_y[j] = min_l gap_y[j, l]*f_lo. In
    floats the bound can gain three roundings (a product, the sum and the
    margin's product) and a candidate fl(fl(gx + gy)*f) can lose two, each by
    a relative 2^-53 in the normal range: the factor 1 - 2^-50 covers them.
    A subnormal product can round by an absolute 2^-1075, which the 2^-1070
    subtracted covers. Subtracting and clipping at 0 raise no value, so low is
    at most every candidate, bit for bit.
    """
    # a line with no column in ok has no factor; skipping it forms no 0*inf
    lines = np.flatnonzero(ok.any(axis=1))
    if not len(lines):
        return np.full((gap_x.shape[0], gap_y.shape[0]), np.inf)
    f_line = np.where(ok, f, np.inf)[lines].min(axis=1)
    low_x = (gap_x[:, lines] * f_line).min(axis=1)
    low_y = gap_y.min(axis=1) * f_line.min()
    return np.maximum((low_x[:, None] + low_y) * (1.0 - 2.0 ** -50) - 2.0 ** -1070, 0.0)


def _row(params: SystemParams, alloc: Allocation, geo: _Geometry, p, c, row):
    """(zeta, feasible) of every candidate in row, a flat index of the row
    surface, each indexed (column x, column y)."""
    i, j = divmod(row, geo.gap_y.shape[0])
    g = geo.gap_x[i][:, None] + geo.gap_y[j]
    zeta = c.flat[row] * (g * geo.f_col) + p.flat[row]
    d2 = np.sqrt(g)
    feasible = (d2 >= geo.least) & geo.far_col
    if alloc.scheme != TAPR:
        feasible &= beta_sq(params, geo.d1_floor, d2, alloc.n_act, alloc.n_pas) >= 1.0
    return zeta, feasible


def _scan(params: SystemParams, alloc: Allocation, geo: _Geometry) -> Topology:
    """The placement scan for one allocation over a built geometry."""
    p, c = geo.a / alloc.n_act, geo.b / (alloc.n_act * alloc.n_pas ** 2)
    ok = geo.rows_ok
    if alloc.scheme == TAPR:
        # never &=, which would write into the geometry
        ok = ok & (alpha_sq(params, geo.d_row, alloc.n_act) >= 1.0)
    # L of every row; inf marks a row that fails its own tests, and a visited one
    low = np.where(ok, c * geo.m + p, np.inf).ravel()

    near = 1.0 - 1e-12  # relative tie tolerance
    best = math.inf
    cut = math.inf  # largest zeta within the tie tolerance of best
    hits = []  # (zeta, ixa, ixb, iya, iyb) of the near-ties seen so far

    def visit(row):
        nonlocal best, cut
        zeta, feasible = _row(params, alloc, geo, p, c, row)
        zeta = np.where(feasible, zeta, np.inf)
        best = min(best, float(zeta.min()))
        if best == math.inf:
            return  # no feasible candidate yet: every zeta here is masked
        cut = best / near
        i, j = divmod(row, geo.gap_y.shape[0])
        ks, ls = np.nonzero(zeta <= cut)
        hits.extend((z, i, k, j, l) if geo.scheme == TAPR else (z, k, i, l, j)
                    for z, k, l in zip(zeta[ks, ls].tolist(), ks.tolist(), ls.tolist()))

    # the row of least L first, then the other rows within its cut (every
    # admissible row while there is no cut) in ascending L
    first = int(np.argmin(low))
    if low[first] < math.inf:
        visit(first)
        low[first] = math.inf
        rest = np.flatnonzero(low <= cut if cut < math.inf else low < math.inf)
        for row in rest[np.argsort(low[rest])].tolist():
            # this row and every row after it have no candidate within the
            # tie tolerance of best
            if low[row] > cut:
                break
            visit(row)
    if not hits:
        raise NoFeasiblePlacement("every grid point violates a distance or amplitude constraint")
    return _place(geo, *min(hit[1:] for hit in hits if hit[0] <= cut))


def _place(geo: _Geometry, ixa: int, ixb: int, iya: int, iyb: int) -> Topology:
    """The topology with the surfaces at these indices of the grid's axes."""
    h = geo.grid.height
    a, b = (geo.xa[ixa], geo.ya[iya], h), (geo.xb[ixb], geo.yb[iyb], h)
    # the grid's bounds lie in the domain, but an axis's last point can pass
    # its bound by a rounding
    for label, pos in (("pos_irs_a", a), ("pos_irs_b", b)):
        if not max(map(abs, pos)) <= MAX_COORDINATE:
            check_position(label, pos)  # raises build_topology's ConfigError
    return _topology(geo.tx, np.array(a), np.array(b), geo.rx, geo.grid.d_min)


def alternating_optimize(params: SystemParams, grid: PlacementGrid, scheme: str,
                         pos_tx, pos_rx) -> AOTrace:
    """Alternate placement-given-allocation and allocation-given-placement.

    Starts from the literal rounding of the closed-form split at the
    grid-center placement; stops when the rate improves by less than AO_TOL
    bps/Hz or after AO_MAX_ITERS iterations.
    """
    check_scheme(scheme)
    # the geometry first: it refuses a grid too large to build
    geo = _geometry(params, grid, pos_tx, pos_rx, scheme)
    center = _place(geo, *(len(axis) // 2 for axis in (geo.xa, geo.xb, geo.ya, geo.yb)))
    sol = solve_integer(params, center, scheme, method="closed-form")
    iterations: list[AOIteration] = []
    prev_rate = -math.inf
    converged = False
    scanned = None  # (allocation, topology) of the last placement scan
    solved = None  # (topology, solution) of the last integer solve
    for _ in range(AO_MAX_ITERS):
        # the scan is deterministic, so an allocation scanned last time gets
        # the same placement again
        if scanned is None or scanned[0] != sol.allocation:
            scanned = (sol.allocation, _scan(params, sol.allocation, geo))
        topo = scanned[1]
        # so is the solve: a placement solved last time gets the same allocation
        if solved is None or solved[0] != topo:
            solved = (topo, solve_integer(params, topo, scheme, method="optimal"))
        sol = solved[1]
        iterations.append(AOIteration(topology=topo, allocation=sol.allocation,
                                      amplitude=sol.amplitude, rate=sol.rate))
        if sol.rate - prev_rate < AO_TOL:
            converged = True
            break
        prev_rate = sol.rate
    return AOTrace(iterations=iterations, converged=converged)
