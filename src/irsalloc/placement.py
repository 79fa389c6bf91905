"""Alternating optimization of IRS positions and element allocation.

The placement step is an exact grid argmax over both surfaces' (x, y)
positions (heights fixed). snr = C/zeta, so it is worked out as the argmin
of zeta. With the allocation fixed, zeta = P + Q*d2^2*R, where P, Q and R are
grids over one surface each: for TAPR, P and Q are functions of d1 on the
A-surface and R = d3^2; for TPAR, Q = d1^2 and P and R are functions of d3 on
the B-surface.

A scan has two parts. The geometry depends only on the grid and the Tx and
Rx positions; alternating_optimize builds it once per run. Each grid axis is
padded to whole blocks of BLOCK_POINTS points by repeating its last
coordinate. A padded point ties with the real point it repeats and has the
larger index, so the tie rule never picks it. The geometry holds d1, d3, the
squared x and y gaps between the surfaces, the distance masks, the smallest
d1 and d2 of each block or block pair, and each point's smallest squared gap
to every block of the other surface, all as minima over reshaped arrays.

The per-allocation part builds P, Q and R and visits block pairs (an A-block
with a B-block) in ascending order of a coarse bound: zeta at the block
minima of P, Q, d2^2 and R. Once a feasible candidate is found, the pairs
whose coarse bound still reaches it get, in one vectorised step, a refined
bound max(L_A, L_B). L_A is the smallest over the pair's A-block of
Q*g*R_lo + P, where g is the A-point's smallest squared gap to the B-block,
R_lo the B-block's smallest R, and P is taken at the A-point for TAPR and at
its B-block minimum for TPAR; L_B is the same with the surfaces swapped. Only
pairs whose refined bound reaches the best zeta are evaluated, in coarse
order, until the next coarse bound exceeds it. Every bound is built from the
very float values its candidates use, each replaced by one no larger, and
combined in the candidates' order. Adding and multiplying non-negative
floats never decreases under IEEE round-to-nearest, so each bound is at or
below each candidate's computed zeta bit for bit, not only in exact
arithmetic. The feasibility tests only remove candidates, so they leave it a
bound, and the answer equals that of a scan of every pair.

Every link distance must be at least d_min and above 0, as build_topology
requires; with d_min = 0 the scan would otherwise pick coincident surfaces
for TAPR, where zeta falls to P. Feasibility is decided once per pair where
it can be: the d2 test runs per candidate only on pairs whose smallest d2 is
below that floor, the TPAR beta* >= 1 test only on pairs where beta* at the
pair's smallest d1 and d2 is below 1 (plus _SLACK), and each surface's
per-point tests only on blocks that hold a failing point. The scan holds
one block pair's candidates, the per-surface grids and one bound per block
pair, never the joint grid.
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
from .scenario import (SystemParams, TAPR, Topology, build_topology,
                       check_min_distance, check_scheme)
from .snr import objective_constants

# points per block along each grid axis; one block pair holds at most
# BLOCK_POINTS**4 candidates
BLOCK_POINTS = 8
# relative margin by which beta* at a block pair's smallest distances must
# exceed 1 before the pair is taken as amplitude-feasible throughout; it covers
# the rounding of beta_star, which rises with d1 and d2 only in exact arithmetic
_SLACK = 1e-12
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
        if not math.isfinite(self.height):
            raise ConfigError(f"grid height must be finite, got {self.height!r}")
        check_min_distance(self.d_min)
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
    return _scan(params, alloc, _geometry(grid, pos_tx, pos_rx))


@dataclass(frozen=True)
class _Geometry:
    """The allocation-free arrays of a placement scan, on axes padded to
    whole blocks. Per-surface grids are indexed (x, y), gaps (A-point,
    B-point) and block-pair grids (xa, ya, xb, yb) in blocks."""

    grid: PlacementGrid
    tx: np.ndarray
    rx: np.ndarray
    xa: np.ndarray
    ya: np.ndarray
    xb: np.ndarray
    yb: np.ndarray
    d1: np.ndarray
    d3: np.ndarray
    gap_x: np.ndarray  # squared x gaps
    gap_y: np.ndarray  # squared y gaps
    least: float  # smallest admissible link distance: d_min, and never 0
    far_a: np.ndarray  # d1 >= least
    far_b: np.ndarray  # d3 >= least
    d1_lo: np.ndarray  # block minima of d1
    g_lo: np.ndarray  # smallest d2^2 of each block pair
    d2_lo: np.ndarray  # sqrt(g_lo)
    # each point's smallest squared gap to every block of the other surface:
    # (A-block, point in block, B-block) and (A-block, B-block, point in block)
    gx_to_b: np.ndarray
    gy_to_b: np.ndarray
    gx_to_a: np.ndarray
    gy_to_a: np.ndarray


def _blocks(v: np.ndarray) -> np.ndarray:
    """A 2-D array over whole blocks, viewed as (row block, row in block,
    column block, column in block)."""
    n, m = v.shape
    return v.reshape(n // BLOCK_POINTS, BLOCK_POINTS, m // BLOCK_POINTS, BLOCK_POINTS)


def _geometry(grid: PlacementGrid, pos_tx, pos_rx) -> _Geometry:
    """The allocation-free part of a scan over grid for these Tx and Rx."""
    tx = np.asarray(pos_tx, dtype=float)
    rx = np.asarray(pos_rx, dtype=float)
    # a padded point repeats the last coordinate: it ties with that point and
    # has the larger index, so the tie rule never picks it
    xa, ya, xb, yb = (np.pad(v, (0, -len(v) % BLOCK_POINTS), mode="edge") for v in (
        grid.axis(grid.xa_bounds), grid.axis(grid.ya_bounds),
        grid.axis(grid.xb_bounds), grid.axis(grid.yb_bounds)))
    h = grid.height
    d1 = np.sqrt((xa[:, None] - tx[0]) ** 2 + (ya[None, :] - tx[1]) ** 2 + (h - tx[2]) ** 2)
    d3 = np.sqrt((rx[0] - xb[:, None]) ** 2 + (rx[1] - yb[None, :]) ** 2 + (rx[2] - h) ** 2)
    gap_x = (xb[None, :] - xa[:, None]) ** 2
    gap_y = (yb[None, :] - ya[:, None]) ** 2
    bx, by = _blocks(gap_x), _blocks(gap_y)
    g_lo = (bx.min(axis=(1, 3))[:, None, :, None] + by.min(axis=(1, 3))[None, :, None, :])
    # build_topology refuses a zero link distance even at d_min = 0, and
    # math.ulp(0.0) is the smallest positive float, so d >= least is d >= d_min
    # and d > 0
    least = max(grid.d_min, math.ulp(0.0))
    return _Geometry(
        grid=grid, tx=tx, rx=rx, xa=xa, ya=ya, xb=xb, yb=yb, d1=d1, d3=d3,
        gap_x=gap_x, gap_y=gap_y, least=least, far_a=d1 >= least, far_b=d3 >= least,
        d1_lo=_blocks(d1).min(axis=(1, 3)), g_lo=g_lo, d2_lo=np.sqrt(g_lo),
        gx_to_b=bx.min(axis=3), gy_to_b=by.min(axis=3),
        gx_to_a=bx.min(axis=1), gy_to_a=by.min(axis=1))


def _zeta_factors(params: SystemParams, alloc: Allocation, geo: _Geometry):
    """(P, Q, R) with zeta = P + Q*d2^2*R: P on the A-surface for TAPR and on
    the B-surface for TPAR, Q on the A-surface, R on the B-surface."""
    # objective_constants gives A(d1) and B = d2^2*d3^2*B'(d1) for TAPR,
    # A(d3) and B = d1^2*d2^2*B'(d3) for TPAR
    n_act, n_pas = alloc.n_act, alloc.n_pas
    if alloc.scheme == TAPR:
        a, b = objective_constants(params, alloc.scheme, geo.d1, 1.0, 1.0)
        return a / n_act, b / (n_act * n_pas ** 2), geo.d3 ** 2
    a, b = objective_constants(params, alloc.scheme, 1.0, 1.0, geo.d3)
    return a / n_act, geo.d1 ** 2, b / (n_act * n_pas ** 2)


def _refined_bounds(geo: _Geometry, p_on_a: bool, p, q, r, bxa, bya, bxb, byb) -> np.ndarray:
    """max(L_A, L_B) for the block pairs (bxa[k], bya[k], bxb[k], byb[k]).

    L_A is the smallest over the pair's A-block of zeta at that A-point with
    each B-side value (its gap to the B-block, R, and P if on B) at its
    minimum over the B-block; L_B swaps the surfaces.
    """
    def on_a(v):
        return _blocks(v)[bxa, :, bya, :]

    def on_b(v):
        return _blocks(v)[bxb, :, byb, :]

    def lo(v):
        return v.min(axis=(1, 2))[:, None, None]

    q_a, r_b = on_a(q), on_b(r)
    p_a = on_a(p) if p_on_a else on_b(p)
    g_b = geo.gx_to_b[bxa, :, bxb][:, :, None] + geo.gy_to_b[bya, :, byb][:, None, :]
    g_a = geo.gx_to_a[bxa, bxb][:, :, None] + geo.gy_to_a[bya, byb][:, None, :]
    l_a = q_a * g_b * lo(r_b) + (p_a if p_on_a else lo(p_a))
    l_b = lo(q_a) * g_a * r_b + (lo(p_a) if p_on_a else p_a)
    return np.maximum(l_a.min(axis=(1, 2)), l_b.min(axis=(1, 2)))


def _scan(params: SystemParams, alloc: Allocation, geo: _Geometry) -> Topology:
    """The placement scan for one allocation over a built geometry."""
    scheme, n_act, n_pas = alloc.scheme, alloc.n_act, alloc.n_pas
    least = geo.least
    d1, gap_x, gap_y = geo.d1, geo.gap_x, geo.gap_y
    ok_a, ok_b = geo.far_a, geo.far_b
    if scheme == TAPR:
        ok_a = ok_a & (alpha_star(params, d1, n_act) >= 1.0)
    p, q, r = _zeta_factors(params, alloc, geo)
    p_on_a = scheme == TAPR

    # Block pairs and, within one, candidates are indexed (xa, ya, xb, yb):
    # an A-surface block broadcasts as [:, :, None, None], a B-surface one as
    # it is. The coarse bound is zeta at the block minima of P, Q, d2^2 and R.
    def on_a(v):
        return v[:, :, None, None]

    def block_min(v):
        return _blocks(v).min(axis=(1, 3))

    bound = ((on_a(block_min(p)) if p_on_a else block_min(p))
             + on_a(block_min(q)) * geo.g_lo * block_min(r))

    # Feasibility decided per pair where it can be. The d2 test can fail only
    # where the pair's smallest d2 is below least. beta* rises with d1 and d2,
    # so beta* >= 1 holds on the whole pair when it holds, with _SLACK to
    # spare, at the pair's smallest d1 and d2.
    may_cross = geo.d2_lo < least
    if scheme != TAPR:
        with np.errstate(divide="ignore", invalid="ignore"):
            may_cross |= ~(beta_star(params, on_a(geo.d1_lo), geo.d2_lo, n_act, n_pas)
                           >= 1.0 + _SLACK)
    # the per-point tests on one surface are broadcast only on blocks that
    # hold a failing point, and pairs with no passing point on one of their
    # blocks are never visited
    all_a = _blocks(ok_a).all(axis=(1, 3)).tolist()
    all_b = _blocks(ok_b).all(axis=(1, 3)).tolist()
    order = np.argsort(bound, axis=None, kind="stable")
    order = order[(on_a(_blocks(ok_a).any(axis=(1, 3)))
                   & _blocks(ok_b).any(axis=(1, 3))).flat[order]]
    lows = bound.flat[order]
    pairs = np.unravel_index(order, bound.shape)

    near = 1.0 - 1e-12  # relative tie tolerance
    best = math.inf
    cut = math.inf  # largest zeta within the tie tolerance of best
    refined = None  # refined bound of each pair in order, once best is finite
    hits = []  # (zeta, ixa, ixb, iya, iyb) arrays of the near-ties seen so far
    for k, (lo, cross, bxa, bya, bxb, byb) in enumerate(zip(
            lows.tolist(), may_cross.flat[order].tolist(), *(c.tolist() for c in pairs))):
        # the pairs left have no candidate within the tie tolerance of best
        if lo > cut:
            break
        if refined is not None and refined[k] > cut:
            continue
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
            ok = d2 >= least
            if scheme != TAPR:
                with np.errstate(divide="ignore"):  # beta* = 0 where d1 = 0 (d_min = 0)
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
        if refined is None and best < math.inf:
            # refine, in one step, the bounds of the pairs left whose coarse
            # bound reaches best; the pairs after them are never visited
            rest = slice(k + 1, k + 1 + int(np.searchsorted(lows[k + 1:], cut, side="right")))
            refined = np.full(len(order), math.inf)
            refined[rest] = _refined_bounds(geo, p_on_a, p, q, r, *(c[rest] for c in pairs))
            refined = refined.tolist()
    if not hits:
        raise NoFeasiblePlacement("every grid point violates a distance or amplitude constraint")

    zeta, *index = (np.concatenate(col) for col in zip(*hits))
    tied = zeta <= cut
    ixa, ixb, iya, iyb = min(zip(*(i[tied] for i in index)))
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
    sol = solve_integer(params, _center_topology(grid, pos_tx, pos_rx), scheme,
                        method="closed-form")
    geo = _geometry(grid, pos_tx, pos_rx)
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
