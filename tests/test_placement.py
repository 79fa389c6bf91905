"""Grid placement search and the alternating placement/allocation loop."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import irsalloc.placement as placement
from irsalloc import (
    AOTrace, Allocation, ConfigError, DistanceTooSmall, NoFeasiblePlacement, PlacementGrid,
    SearchSpaceTooLarge, alternating_optimize, build_topology, dbm_to_watts,
    optimize_placement_given_allocation, snr_closed_form, solve_integer,
)
from irsalloc.placement import AOIteration
from irsalloc.reflection import alpha_star, beta_star
from irsalloc.snr import zeta_value
from conftest import baseline_params, full_grid_placement, traced_peak

TX = (0.0, 0.0, 0.0)
RX = (100.0, 0.0, 0.0)


def small_grid(step=2.0):
    return PlacementGrid(xa_bounds=(10.0, 20.0), ya_bounds=(0.0, 4.0),
                         xb_bounds=(90.0, 100.0), yb_bounds=(0.0, 4.0),
                         step=step, height=10.0, d_min=1.0)


def test_single_cell_grid(params):
    grid = PlacementGrid(xa_bounds=(15.0, 15.0), ya_bounds=(5.0, 5.0),
                         xb_bounds=(98.0, 98.0), yb_bounds=(5.0, 5.0),
                         step=1.0, height=10.0, d_min=1.0)
    topo = optimize_placement_given_allocation(
        params, Allocation(100, 1000, "TAPR"), grid, TX, RX)
    assert topo.pos_irs_a == (15.0, 5.0, 10.0)
    assert topo.pos_irs_b == (98.0, 5.0, 10.0)


def test_placement_is_true_grid_argmax(params):
    grid = small_grid(step=2.0)
    alloc = Allocation(100, 1000, "TPAR")
    topo = optimize_placement_given_allocation(params, alloc, grid, TX, RX)
    best = snr_closed_form(params, topo, alloc).snr
    # independent brute-force scan over the same grid
    scan_best = -np.inf
    for xa in grid.axis(grid.xa_bounds):
        for ya in grid.axis(grid.ya_bounds):
            for xb in grid.axis(grid.xb_bounds):
                for yb in grid.axis(grid.yb_bounds):
                    try:
                        t = build_topology(TX, (xa, ya, 10.0), (xb, yb, 10.0),
                                           RX, d_min=1.0)
                    except Exception:
                        continue
                    scan_best = max(scan_best,
                                    snr_closed_form(params, t, alloc).snr)
    assert best == pytest.approx(scan_best, rel=1e-12, abs=0.0)


def test_tpar_pulls_passive_surface_toward_tx(params):
    # the active-second order prefers a short Tx -> passive hop
    grid = small_grid(step=1.0)
    alloc = Allocation(100, 1000, "TPAR")
    topo = optimize_placement_given_allocation(params, alloc, grid, TX, RX)
    assert topo.pos_irs_a[0] == grid.xa_bounds[0]
    assert topo.d1 == min(
        np.hypot(np.hypot(xa, ya), 10.0)
        for xa in grid.axis(grid.xa_bounds) for ya in grid.axis(grid.ya_bounds))


def test_tie_break_lexicographic(params):
    # the grid holds only y = -1 and y = 1 for the A-IRS; every link
    # distance depends on |y_a| alone, so the two placements tie exactly
    grid = PlacementGrid(xa_bounds=(15.0, 15.0), ya_bounds=(-1.0, 1.0),
                         xb_bounds=(98.0, 98.0), yb_bounds=(0.0, 0.0),
                         step=2.0, height=10.0, d_min=1.0)
    topo = optimize_placement_given_allocation(
        params, Allocation(100, 1000, "TAPR"), grid,
        (0.0, 0.0, 0.0), (113.0, 0.0, 0.0))
    assert topo.pos_irs_a[1] == -1.0


@pytest.mark.parametrize("field, value", [
    ("d_min", math.nan), ("d_min", math.inf), ("d_min", -3.0),
    ("height", math.nan), ("height", math.inf), ("height", -math.inf), ("height", 2e6),
    # strings and bounds that are not pairs reach no arithmetic, and a bool is
    # not a number
    ("step", "1"), ("step", True), ("step", math.inf),
    ("height", "10"), ("height", True),
    ("xa_bounds", (0.0,)), ("ya_bounds", (0.0, 1.0, 2.0)), ("xb_bounds", 90.0),
    ("yb_bounds", ("0", "4")), ("xa_bounds", (True, 20.0)), ("ya_bounds", (math.nan, 4.0))])
def test_grid_rejects_bad_height_and_min_distance(field, value):
    kw = dict(xa_bounds=(10.0, 20.0), ya_bounds=(0.0, 4.0), xb_bounds=(90.0, 100.0),
              yb_bounds=(0.0, 4.0), step=2.0, height=10.0, d_min=1.0)
    kw[field] = value
    with pytest.raises(ConfigError,
                       match=field if field in ("d_min", "step", "height") else "bounds"):
        PlacementGrid(**kw)


def test_placement_coordinates_within_domain(params):
    # grid bounds and end nodes beyond the domain's +/-1e6 m are refused
    # before any array is built
    with pytest.raises(ConfigError, match="domain"):
        PlacementGrid(xa_bounds=(10.0, 2e6), ya_bounds=(0.0, 4.0),
                      xb_bounds=(90.0, 100.0), yb_bounds=(0.0, 4.0))
    for tx, rx in ((TX, (2e6, 0.0, 0.0)), ((math.nan, 0.0, 0.0), RX)):
        with pytest.raises(ConfigError, match="domain"):
            optimize_placement_given_allocation(
                params, Allocation(100, 1000, "TAPR"), small_grid(step=2.0), tx, rx)


def test_no_feasible_placement(params):
    grid = PlacementGrid(xa_bounds=(0.0, 0.0), ya_bounds=(0.0, 0.0),
                         xb_bounds=(0.0, 0.0), yb_bounds=(0.0, 0.0),
                         step=1.0, height=0.0, d_min=1.0)
    with pytest.raises(NoFeasiblePlacement):
        optimize_placement_given_allocation(
            params, Allocation(100, 1000, "TAPR"), grid, TX, RX)


def test_ao_monotone_and_terminates(params):
    trace = alternating_optimize(params, small_grid(step=2.0), "TAPR", TX, RX)
    rates = [it.rate for it in trace.iterations]
    assert len(rates) <= 20
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert trace.converged


def test_ao_single_cell_matches_pure_allocation(params):
    from irsalloc import solve_integer
    grid = PlacementGrid(xa_bounds=(15.0, 15.0), ya_bounds=(5.0, 5.0),
                         xb_bounds=(98.0, 98.0), yb_bounds=(5.0, 5.0),
                         step=1.0, height=10.0, d_min=1.0)
    trace = alternating_optimize(params, grid, "TAPR", TX, RX)
    topo = build_topology(TX, (15, 5, 10), (98, 5, 10), RX)
    fixed = solve_integer(params, topo, "TAPR", method="optimal")
    assert trace.iterations[-1].rate == pytest.approx(fixed.rate, rel=1e-12, abs=0.0)


def test_ao_wider_box_no_worse(params):
    narrow = alternating_optimize(params, small_grid(step=2.0), "TAPR", TX, RX)
    wide_grid = PlacementGrid(xa_bounds=(10.0, 30.0), ya_bounds=(0.0, 4.0),
                              xb_bounds=(80.0, 100.0), yb_bounds=(0.0, 4.0),
                              step=2.0, height=10.0, d_min=1.0)
    wide = alternating_optimize(params, wide_grid, "TAPR", TX, RX)
    assert wide.iterations[-1].rate >= narrow.iterations[-1].rate - 1e-9


def test_ao_stops_at_first_gain_below_tolerance(params):
    # on the +/-15 m x +/-5 m boxes around (12.036, 6.461) and (97.487, 5.962)
    # AO's third gain is positive but below AO_TOL
    grid = PlacementGrid(xa_bounds=(-2.964, 27.036), ya_bounds=(1.461, 11.461),
                         xb_bounds=(82.487, 112.487), yb_bounds=(0.962, 10.962),
                         step=0.5, height=10.0, d_min=1.0)
    trace = alternating_optimize(params, grid, "TAPR", TX, RX)
    gains = np.diff([it.rate for it in trace.iterations])
    assert trace.converged
    assert len(gains) == 3 and np.all(gains[:-1] >= placement.AO_TOL)
    assert 0.0 < gains[-1] < placement.AO_TOL


def ao_scanning_every_iteration(params, grid, scheme, tx, rx):
    """alternating_optimize with one placement scan per iteration, never
    reusing the last one."""
    geo = placement._geometry(params, grid, tx, rx, scheme)
    center = placement._place(geo, *(len(axis) // 2 for axis in (geo.xa, geo.xb, geo.ya, geo.yb)))
    sol = solve_integer(params, center, scheme, method="closed-form")
    iterations, prev_rate = [], -math.inf
    for _ in range(placement.AO_MAX_ITERS):
        topo = optimize_placement_given_allocation(params, sol.allocation, grid, tx, rx)
        sol = solve_integer(params, topo, scheme, method="optimal")
        iterations.append(AOIteration(topology=topo, allocation=sol.allocation,
                                      amplitude=sol.amplitude, rate=sol.rate))
        if sol.rate - prev_rate < placement.AO_TOL:
            return AOTrace(iterations=iterations, converged=True)
        prev_rate = sol.rate
    return AOTrace(iterations=iterations, converged=False)


def test_ao_reuses_scan_of_repeated_allocation(params, monkeypatch):
    # the second iteration returns the allocation it scanned, with a rate
    # still above the first's by more than AO_TOL, so the third iteration has
    # the same allocation to scan
    grid = PlacementGrid(xa_bounds=(0.0, 30.0), ya_bounds=(0.0, 10.0),
                         xb_bounds=(83.0, 113.0), yb_bounds=(0.0, 10.0),
                         step=0.5, height=10.0, d_min=1.0)
    expected = ao_scanning_every_iteration(params, grid, "TPAR", TX, RX)
    scanned = []
    scan = placement._scan

    def counting_scan(params, alloc, *args):
        scanned.append(alloc)
        return scan(params, alloc, *args)

    monkeypatch.setattr(placement, "_scan", counting_scan)
    trace = alternating_optimize(params, grid, "TPAR", TX, RX)
    assert trace == expected
    assert len(trace.iterations) == 3
    assert trace.iterations[1].allocation == trace.iterations[2].allocation
    assert len(scanned) == 2


def test_ao_reuses_solve_of_repeated_placement(params, monkeypatch):
    # as in test_ao_reuses_scan_of_repeated_allocation, the third iteration
    # reuses the second's placement, so it reuses its integer solve too
    grid = PlacementGrid(xa_bounds=(0.0, 30.0), ya_bounds=(0.0, 10.0),
                         xb_bounds=(83.0, 113.0), yb_bounds=(0.0, 10.0),
                         step=0.5, height=10.0, d_min=1.0)
    expected = ao_scanning_every_iteration(params, grid, "TPAR", TX, RX)
    solved = []
    solve = placement.solve_integer

    def counting_solve(params, topo, scheme, method):
        solved.append((topo, method))
        return solve(params, topo, scheme, method=method)

    monkeypatch.setattr(placement, "solve_integer", counting_solve)
    trace = alternating_optimize(params, grid, "TPAR", TX, RX)
    assert trace == expected
    assert len(trace.iterations) == 3
    assert trace.iterations[1].topology == trace.iterations[2].topology
    assert [t for t, method in solved if method == "optimal"] == \
        [it.topology for it in trace.iterations[:2]]


def test_ao_builds_geometry_once(params, monkeypatch):
    grid = PlacementGrid(xa_bounds=(0.0, 30.0), ya_bounds=(0.0, 10.0),
                         xb_bounds=(83.0, 113.0), yb_bounds=(0.0, 10.0),
                         step=0.5, height=10.0, d_min=1.0)
    for scheme in ("TAPR", "TPAR"):
        expected = ao_scanning_every_iteration(params, grid, scheme, TX, RX)
        built, scanned = [], []
        geometry, scan = placement._geometry, placement._scan

        def counting_geometry(*args):
            built.append(args)
            return geometry(*args)

        def counting_scan(*args):
            scanned.append(args)
            return scan(*args)

        with monkeypatch.context() as m:
            m.setattr(placement, "_geometry", counting_geometry)
            m.setattr(placement, "_scan", counting_scan)
            trace = alternating_optimize(params, grid, scheme, TX, RX)
        assert trace == expected
        assert len(built) == 1
        assert len(scanned) >= 2
        assert all(args[2] is scanned[0][2] for args in scanned)


# ---------------------------------------- pruned scan vs the full-grid oracle

def same_placement(params, alloc, grid, tx, rx):
    """Assert the pruned scan and the full-grid oracle agree, including on
    NoFeasiblePlacement."""
    try:
        expected = full_grid_placement(params, alloc, grid, tx, rx)
    except NoFeasiblePlacement:
        with pytest.raises(NoFeasiblePlacement):
            optimize_placement_given_allocation(params, alloc, grid, tx, rx)
        return None
    topo = optimize_placement_given_allocation(params, alloc, grid, tx, rx)
    assert (topo.pos_irs_a, topo.pos_irs_b) == (expected.pos_irs_a, expected.pos_irs_b)
    return topo


@st.composite
def placement_cases(draw):
    """Boxes of up to 30 points per axis, with Pv low enough for the
    amplitude test to remove most or all of the grid and d_min large enough
    to remove every candidate."""
    step = draw(st.floats(0.2, 3.0))

    def box(lo, hi):
        start = draw(st.floats(lo, hi))
        return start, start + step * (draw(st.integers(1, 30)) - 1 + draw(st.floats(0.0, 0.9)))

    params = baseline_params(amp_power_budget=dbm_to_watts(draw(st.floats(-50.0, 25.0))))
    grid = PlacementGrid(xa_bounds=box(-10.0, 40.0), ya_bounds=box(-15.0, 10.0),
                         xb_bounds=box(45.0, 120.0), yb_bounds=box(-15.0, 10.0),
                         step=step, height=draw(st.floats(0.0, 15.0)),
                         d_min=draw(st.sampled_from((0.5, 1.0, 10.0, 60.0))))
    tx = (draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)), 0.0)
    rx = (draw(st.floats(100.0, 160.0)), draw(st.floats(-10.0, 10.0)), 0.0)
    alloc = Allocation(draw(st.integers(1, 300)), draw(st.integers(1, 3000)),
                       draw(st.sampled_from(("TAPR", "TPAR"))))
    return params, alloc, grid, tx, rx


@settings(max_examples=60, deadline=None)
@given(placement_cases())
# a TPAR grid point on Tx: the oracle's beta* divides by d1 = 0 there
@example((baseline_params(amp_power_budget=dbm_to_watts(0.0)), Allocation(1, 1, "TPAR"),
          PlacementGrid(xa_bounds=(0.0, 0.0), ya_bounds=(0.0, 0.0), xb_bounds=(45.0, 45.0),
                        yb_bounds=(0.0, 0.0), step=1.0, height=0.0, d_min=0.5),
          TX, RX))
def test_pruned_scan_matches_full_grid_property(case):
    same_placement(*case)


def scan_inputs(case):
    """The geometry, P, C and the row bounds L of a placement case, with the
    rows that pass their own tests."""
    params, alloc, grid, tx, rx = case
    geo = placement._geometry(params, grid, tx, rx, alloc.scheme)
    p, c = geo.a / alloc.n_act, geo.b / (alloc.n_act * alloc.n_pas ** 2)
    ok = (geo.d_row >= geo.least) & np.isfinite(geo.m)
    if alloc.scheme == "TAPR":
        ok &= alpha_star(params, geo.d_row, alloc.n_act) >= 1.0
    return geo, p, c, c * geo.m + p, np.flatnonzero(ok)


def row_top(params, alloc, geo, p, c, row):
    """The smallest feasible zeta of one row, inf if it has none."""
    zeta, feasible = placement._row(params, alloc, geo, p, c, row)
    return float(np.min(zeta, where=feasible, initial=np.inf))


def assert_row_bound(low, dense):
    """low is at most dense, inf exactly where dense is, and holds no NaN."""
    assert not np.isnan(low).any()
    assert np.array_equal(np.isinf(low), np.isinf(dense))
    assert np.all(low <= dense)


def geometry_dense_minima(geo):
    """The smallest F of each row over the columns in far_col, from the
    dense (row x, row y, column x, column y) array."""
    f = (geo.gap_x[:, None, :, None] + geo.gap_y[None, :, None, :]) * geo.f_col
    return np.where(geo.far_col, f, np.inf).min(axis=(2, 3))


@settings(max_examples=60, deadline=None)
@given(placement_cases())
def test_row_minima_match_dense_minimum_property(case):
    params, alloc, grid, tx, rx = case
    geo = placement._geometry(params, grid, tx, rx, alloc.scheme)
    assert_row_bound(geo.m, geometry_dense_minima(geo))


@st.composite
def row_minima_inputs(draw):
    """Random gaps, factors and masks for _row_bound: 1-point axes, empty,
    full and sparse masks, zero and subnormal gaps and factors near 1e-300 and
    1e300."""
    n_i, n_k, n_j, n_l = (draw(st.integers(1, 20)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaps(shape):
        g = rng.random(shape) * draw(st.sampled_from((0.0, 1e-310, 1.0, 1e3)))
        g[rng.random(shape) < draw(st.sampled_from((0.0, 0.3)))] = 0.0
        return g

    f = rng.random((n_k, n_l)) * draw(st.sampled_from((1e-300, 1e-5, 1.0, 1e300)))
    ok = rng.random((n_k, n_l)) < draw(st.sampled_from((0.0, 0.05, 0.5, 1.0)))
    return gaps((n_i, n_k)), gaps((n_j, n_l)), f, ok


@settings(max_examples=300, deadline=None)
@given(row_minima_inputs())
def test_row_minima_of_random_arrays_match_dense_minimum_property(inputs):
    gap_x, gap_y, f, ok = inputs
    dense = np.where(ok, (gap_x[:, None, :, None] + gap_y[None, :, None, :]) * f, np.inf)
    assert_row_bound(placement._row_bound(gap_x, gap_y, f, ok), dense.min(axis=(2, 3)))


@settings(max_examples=60, deadline=None)
@given(placement_cases())
def test_row_bound_below_every_candidate_property(case):
    params, alloc = case[:2]
    geo, p, c, low, rows = scan_inputs(case)
    for row in rows:
        zeta, feasible = placement._row(params, alloc, geo, p, c, row)
        # every candidate of a row whose column passes its own distance test,
        # whatever the pair tests say
        assert np.all(np.where(geo.far_col, zeta, np.inf) >= low.flat[row])
        # so L is at most the row's smallest feasible zeta
        assert np.min(zeta, where=feasible, initial=np.inf) >= low.flat[row]


@settings(max_examples=60, deadline=None)
@given(placement_cases())
def test_scan_evaluates_every_row_within_cut_property(case):
    # every row whose L reaches the final tie cut is evaluated
    params, alloc = case[:2]
    geo, p, c, low, rows = scan_inputs(case)
    best = min((row_top(params, alloc, geo, p, c, row) for row in rows), default=np.inf)
    seen = []
    evaluate = placement._row

    def recording_row(*args):
        seen.append(int(args[-1]))
        return evaluate(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(placement, "_row", recording_row)
        if best == np.inf:
            with pytest.raises(NoFeasiblePlacement):
                placement._scan(params, alloc, geo)
        else:
            placement._scan(params, alloc, geo)
    # only rows that pass their own tests, each at most once
    assert set(seen) <= set(rows.tolist())
    assert len(seen) == len(set(seen))
    if best < np.inf:
        cut = best / (1.0 - 1e-12)
        assert set(rows[low.flat[rows] <= cut].tolist()) <= set(seen)


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_no_feasible_pair_in_admissible_rows(params, scheme):
    # on the line y = 0 at Tx height, d_min = 5: the row nearer its end node
    # (d1 = 2 for TAPR, d3 = 2 for TPAR) fails its own test, and the other
    # row's only pair has d2 = 3, so the cut stays inf; the failing row's
    # pair (d2 = 11) passes the pair tests and must still not be visited
    if scheme == "TAPR":
        boxes = dict(xa_bounds=(2.0, 10.0), xb_bounds=(13.0, 13.0))
    else:
        boxes = dict(xa_bounds=(87.0, 87.0), xb_bounds=(90.0, 98.0))
    grid = PlacementGrid(ya_bounds=(0.0, 0.0), yb_bounds=(0.0, 0.0), step=8.0, height=0.0,
                         d_min=5.0, **boxes)
    alloc = Allocation(100, 1000, scheme)
    geo, p, c, low, rows = scan_inputs((params, alloc, grid, TX, RX))
    masked = np.flatnonzero(~geo.rows_ok.ravel())
    assert len(rows) == 1 and len(masked) == 1
    assert np.isinf(row_top(params, alloc, geo, p, c, rows[0]))
    assert np.isfinite(row_top(params, alloc, geo, p, c, masked[0]))
    assert same_placement(params, alloc, grid, TX, RX) is None


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_place_matches_build_topology(params, scheme):
    # every point of a grid that holds Tx, where d1 = 0 raises
    grid = PlacementGrid(xa_bounds=(0.0, 4.0), ya_bounds=(0.0, 2.0), xb_bounds=(90.0, 96.0),
                         yb_bounds=(-2.0, 2.0), step=2.0, height=0.0, d_min=0.0)
    geo = placement._geometry(params, grid, TX, RX, scheme)
    raised = 0
    for ixa, ixb, iya, iyb in np.ndindex(len(geo.xa), len(geo.xb), len(geo.ya), len(geo.yb)):
        a, b = (geo.xa[ixa], geo.ya[iya], 0.0), (geo.xb[ixb], geo.yb[iyb], 0.0)
        try:
            expected = build_topology(TX, a, b, RX, d_min=0.0)
        except DistanceTooSmall as exc:
            with pytest.raises(DistanceTooSmall, match=f"^{re.escape(str(exc))}$"):
                placement._place(geo, ixa, ixb, iya, iyb)
            raised += 1
            continue
        assert placement._place(geo, ixa, ixb, iya, iyb) == expected
    assert raised == len(geo.xb) * len(geo.yb)


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_place_refuses_point_beyond_domain(params, scheme):
    # the passive surface's x axis (B for TAPR, A for TPAR) ends at
    # 1e6 + 5e-10, past the domain's bound by a rounding; with its end node
    # (Rx for TAPR, Tx for TPAR) beside that point the scan picks it, and with
    # the node 8 m short of the axis the scan picks the first point
    edge, near = (1e6 - 1.9999999995, 1e6), (10.0, 10.0)
    grid = PlacementGrid(xa_bounds=near if scheme == "TAPR" else edge, ya_bounds=(0.0, 0.0),
                         xb_bounds=edge if scheme == "TAPR" else near, yb_bounds=(0.0, 0.0),
                         step=1.0, height=10.0, d_min=1.0)
    alloc = Allocation(100, 1000, scheme)
    axis = grid.axis(edge)
    assert axis[-1] == 1000000.0000000005

    def nodes(x):
        return (TX, (x, 0.0, 0.0)) if scheme == "TAPR" else ((x, 0.0, 0.0), TX)

    # the point as _place forms it: axis entries and the grid height
    picked, other = (axis[-1], np.float64(0.0), 10.0), (10.0, 0.0, 10.0)
    label, a, b = (("pos_irs_b", other, picked) if scheme == "TAPR"
                   else ("pos_irs_a", picked, other))
    tx, rx = nodes(1e6)
    with pytest.raises(ConfigError) as expected:
        build_topology(tx, a, b, rx)
    assert str(expected.value).startswith(label)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(expected.value))}$"):
        optimize_placement_given_allocation(params, alloc, grid, *nodes(1e6))
    topo = optimize_placement_given_allocation(params, alloc, grid, *nodes(999990.0))
    pos = topo.pos_irs_b if scheme == "TAPR" else topo.pos_irs_a
    assert pos == (999998.0000000005, 0.0, 10.0)


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
@pytest.mark.parametrize("points", [(1, 1, 1, 1), (7, 7, 7, 7), (8, 8, 8, 8), (9, 9, 9, 9),
                                    (17, 17, 17, 17), (1, 7, 9, 17), (17, 9, 7, 1)])
def test_padded_axes_match_full_grid(params, scheme, points):
    # (xa, ya, xb, yb) points per axis, from 1-point axes up to 17
    nxa, nya, nxb, nyb = points
    grid = PlacementGrid(xa_bounds=(10.0, 10.0 + nxa - 1), ya_bounds=(-3.0, nya - 4.0),
                         xb_bounds=(85.0, 85.0 + nxb - 1), yb_bounds=(-4.0, nyb - 5.0),
                         step=1.0, height=10.0, d_min=1.0)
    geo = placement._geometry(params, grid, TX, RX, scheme)
    assert [len(v) for v in (geo.xa, geo.ya, geo.xb, geo.yb)] == list(points)
    assert_row_bound(geo.m, geometry_dense_minima(geo))
    assert same_placement(params, Allocation(100, 1000, scheme), grid, TX, RX) is not None


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_tie_on_last_point_of_every_axis(params, scheme):
    # 9 points per axis; Tx beyond the A-box and Rx beyond the B-box put the
    # optimum on the last point of every axis
    grid = PlacementGrid(xa_bounds=(10.0, 18.0), ya_bounds=(-8.0, 0.0),
                         xb_bounds=(90.0, 98.0), yb_bounds=(-8.0, 0.0),
                         step=1.0, height=10.0, d_min=1.0)
    tx, rx = (40.0, 0.0, 10.0), (120.0, 0.0, 10.0)
    geo = placement._geometry(params, grid, tx, rx, scheme)
    assert [len(v) for v in (geo.xa, geo.ya, geo.xb, geo.yb)] == [9] * 4
    topo = same_placement(params, Allocation(100, 1000, scheme), grid, tx, rx)
    assert topo.pos_irs_a == (18.0, 0.0, 10.0)
    assert topo.pos_irs_b == (98.0, 0.0, 10.0)


@pytest.mark.parametrize("scheme, pv_dbm", [("TAPR", -20.0), ("TPAR", -27.0)])
def test_pruned_scan_matches_full_grid_when_amplitude_rules_out_most(scheme, pv_dbm):
    params = baseline_params(amp_power_budget=dbm_to_watts(pv_dbm))
    grid = PlacementGrid(xa_bounds=(0.0, 29.0), ya_bounds=(-14.0, 15.0),
                         xb_bounds=(80.0, 109.0), yb_bounds=(-14.0, 15.0),
                         step=1.0, height=10.0, d_min=1.0)
    alloc = Allocation(100, 1000, scheme)
    # TAPR: only A-positions far enough from Tx keep alpha* >= 1; TPAR:
    # only placements with a long d1*d2 product keep beta* >= 1
    xa, ya = grid.axis(grid.xa_bounds), grid.axis(grid.ya_bounds)
    xb, yb = grid.axis(grid.xb_bounds), grid.axis(grid.yb_bounds)
    d1 = np.sqrt(xa[:, None, None, None] ** 2 + ya[None, None, :, None] ** 2 + 100.0)
    d2 = np.hypot(xb[None, :, None, None] - xa[:, None, None, None],
                  yb[None, None, None, :] - ya[None, None, :, None])
    amp = (alpha_star(params, d1, alloc.n_act) if scheme == "TAPR"
           else beta_star(params, d1, d2, alloc.n_act, alloc.n_pas))
    assert 0.0 < np.mean(np.broadcast_to(amp, (30,) * 4) >= 1.0) < 0.1
    assert same_placement(params, alloc, grid, TX, RX) is not None


def test_pruned_scan_nothing_feasible_across_blocks(params):
    # 20 points per axis; d_min exceeds every d2
    grid = PlacementGrid(xa_bounds=(10.0, 29.0), ya_bounds=(0.0, 19.0),
                         xb_bounds=(30.0, 49.0), yb_bounds=(0.0, 19.0),
                         step=1.0, height=10.0, d_min=60.0)
    for scheme in ("TAPR", "TPAR"):
        with pytest.raises(NoFeasiblePlacement):
            optimize_placement_given_allocation(
                params, Allocation(100, 1000, scheme), grid, TX, RX)


def test_tie_across_blocks_takes_smallest_placement(params):
    # Tx, Rx and the only B-row lie on y = 0 and the surfaces at Tx height,
    # so every distance depends on |y_A| alone. d_min = 5 on d1 = |y_A|
    # leaves y_A = -5 and y_A = 5 as exact ties, in different rows.
    grid = PlacementGrid(xa_bounds=(0.0, 0.0), ya_bounds=(-10.0, 10.0),
                         xb_bounds=(90.0, 95.0), yb_bounds=(0.0, 0.0),
                         step=1.0, height=0.0, d_min=5.0)
    alloc = Allocation(100, 1000, "TAPR")
    topo = same_placement(params, alloc, grid, TX, RX)
    assert topo.pos_irs_a == (0.0, -5.0, 0.0)
    mirror = build_topology(TX, (0.0, 5.0, 0.0), topo.pos_irs_b, RX, d_min=5.0)
    assert snr_closed_form(params, mirror, alloc).snr == \
        snr_closed_form(params, topo, alloc).snr


@pytest.mark.parametrize("scheme, y, step", [("TAPR", -0.119, 3.909), ("TPAR", -0.134, 3.619)])
def test_near_tie_across_rows_takes_smallest_placement(params, scheme, y, step):
    # Tx, Rx and the other surface lie on the line y; the two rows sit at
    # y -/+ step/2, so they tie in exact arithmetic, and in floats the first
    # row's bound L is larger by an ulp: the scan meets the second row first,
    # and the first must still be evaluated, since its L is within the cut
    tx, rx = (0.0, y, 0.0), (100.0, y, 0.0)
    rows, other = (y - step / 2, y + step / 2), (y, y)
    grid = PlacementGrid(xa_bounds=(15.0, 15.0), ya_bounds=rows if scheme == "TAPR" else other,
                         xb_bounds=(90.0, 90.0), yb_bounds=other if scheme == "TAPR" else rows,
                         step=step, height=10.0, d_min=1.0)
    alloc = Allocation(100, 1000, scheme)
    geo = placement._geometry(params, grid, tx, rx, scheme)
    p, c = geo.a / alloc.n_act, geo.b / (alloc.n_act * alloc.n_pas ** 2)
    low = (c * geo.m + p).ravel()
    assert low[1] < low[0] <= low[1] / (1.0 - 1e-12)
    topo = same_placement(params, alloc, grid, tx, rx)
    assert (topo.pos_irs_a if scheme == "TAPR" else topo.pos_irs_b)[1] == rows[0]


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_near_tie_with_bound_above_best_takes_smallest_placement(params, scheme):
    # as above, with the other surface 1e-10 m nearer the second row: the
    # first row's zeta exceeds the second's, best, by about 1e-13 relative,
    # so its bound L is above best but within the tie cut, and the scan must
    # still evaluate it
    rows, other = (-2.0, 2.0), (1e-10, 1e-10)
    grid = PlacementGrid(xa_bounds=(15.0, 15.0), ya_bounds=rows if scheme == "TAPR" else other,
                         xb_bounds=(90.0, 90.0), yb_bounds=other if scheme == "TAPR" else rows,
                         step=4.0, height=10.0, d_min=1.0)
    alloc = Allocation(100, 1000, scheme)
    geo = placement._geometry(params, grid, TX, RX, scheme)
    p, c = geo.a / alloc.n_act, geo.b / (alloc.n_act * alloc.n_pas ** 2)
    low = (c * geo.m + p).ravel()
    first, best = (row_top(params, alloc, geo, p, c, row) for row in (0, 1))
    assert low[1] < best < low[0] <= first <= best / (1.0 - 1e-12)
    topo = same_placement(params, alloc, grid, TX, RX)
    assert (topo.pos_irs_a if scheme == "TAPR" else topo.pos_irs_b)[1] == rows[0]


def baseline_boxes(topo, step):
    """The +/-15 m x +/-5 m boxes around the baseline surfaces."""
    xa, ya, h = topo.pos_irs_a
    xb, yb, _ = topo.pos_irs_b
    return PlacementGrid(xa_bounds=(xa - 15.0, xa + 15.0), ya_bounds=(ya - 5.0, ya + 5.0),
                         xb_bounds=(xb - 15.0, xb + 15.0), yb_bounds=(yb - 5.0, yb + 5.0),
                         step=step, height=h, d_min=1.0)


def test_fine_step_memory_bounded(params, topo):
    # the baseline +/-15 m x +/-5 m boxes hold 58M candidates at 0.2 m, 0.92G
    # at 0.1 m and 14.6G at 0.05 m, about 2 GB, 30 GB and 470 GB for a scan
    # that holds them all
    for step in (0.2, 0.1, 0.05):
        grid = baseline_boxes(topo, step)
        for scheme in ("TAPR", "TPAR"):
            peak = traced_peak(lambda: optimize_placement_given_allocation(
                params, Allocation(100, 1000, scheme), grid, topo.pos_tx, topo.pos_rx))
            assert peak < 64 * 2 ** 20, (step, scheme)


@pytest.mark.parametrize("step", [0.5, 0.1, 0.05])
def test_ao_evaluates_few_rows_per_scan(params, topo, step, monkeypatch):
    # on the baseline boxes the row bound ranks the best row first or close
    # to it: at most 8 of the 1,281 (0.5 m), 30,401 (0.1 m) or 120,801
    # (0.05 m) rows per scan
    grid = baseline_boxes(topo, step)
    per_scan = []
    scan, evaluate = placement._scan, placement._row

    def counting_scan(*args):
        per_scan.append(0)
        return scan(*args)

    def counting_row(*args):
        per_scan[-1] += 1
        return evaluate(*args)

    monkeypatch.setattr(placement, "_scan", counting_scan)
    monkeypatch.setattr(placement, "_row", counting_row)
    for scheme in ("TAPR", "TPAR"):
        alternating_optimize(params, grid, scheme, topo.pos_tx, topo.pos_rx)
    assert per_scan and max(per_scan) <= 8, per_scan


def test_grid_too_large_refused_before_any_array(params, topo):
    # the baseline boxes at 0.1 mm would hold 3e10 points per surface; a
    # 60 km strip at 1 m holds 60,001 points, within the bound, but its x
    # gaps to a parallel strip would hold 3.6e9; two 725-point strips along y
    # have 525,625 y gaps, just over the bound
    xa, ya, h = topo.pos_irs_a
    xb, yb, _ = topo.pos_irs_b
    fine = PlacementGrid(xa_bounds=(xa - 15.0, xa + 15.0), ya_bounds=(ya - 5.0, ya + 5.0),
                         xb_bounds=(xb - 15.0, xb + 15.0), yb_bounds=(yb - 5.0, yb + 5.0),
                         step=1e-4, height=h, d_min=1.0)
    strips = PlacementGrid(xa_bounds=(0.0, 6e4), ya_bounds=(5.0, 5.0),
                           xb_bounds=(0.0, 6e4), yb_bounds=(-5.0, -5.0),
                           step=1.0, height=h, d_min=1.0)
    y_strips = PlacementGrid(xa_bounds=(xa, xa), ya_bounds=(0.0, 724.0),
                             xb_bounds=(xb, xb), yb_bounds=(0.0, 724.0),
                             step=1.0, height=h, d_min=1.0)
    for grid in (fine, strips, y_strips):
        for scheme in ("TAPR", "TPAR"):
            peak = traced_peak(lambda: pytest.raises(
                SearchSpaceTooLarge, optimize_placement_given_allocation, params,
                Allocation(100, 1000, scheme), grid, topo.pos_tx, topo.pos_rx))
            assert peak < 2 ** 20
            peak = traced_peak(lambda: pytest.raises(
                SearchSpaceTooLarge, alternating_optimize, params, grid, scheme,
                topo.pos_tx, topo.pos_rx))
            assert peak < 2 ** 20


def joint_grids(params, alloc, grid, tx, rx):
    """d2, the amplitude test and zeta over the joint grid, indexed
    (xa, xb, ya, yb)."""
    xa, ya = grid.axis(grid.xa_bounds), grid.axis(grid.ya_bounds)
    xb, yb = grid.axis(grid.xb_bounds), grid.axis(grid.yb_bounds)
    gxa, gxb, gya, gyb = np.meshgrid(xa, xb, ya, yb, indexing="ij")
    h = grid.height
    d1 = np.sqrt((gxa - tx[0]) ** 2 + (gya - tx[1]) ** 2 + (h - tx[2]) ** 2)
    d2 = np.hypot(gxb - gxa, gyb - gya)
    d3 = np.sqrt((rx[0] - gxb) ** 2 + (rx[1] - gyb) ** 2 + (rx[2] - h) ** 2)
    amp = (alpha_star(params, d1, alloc.n_act) if alloc.scheme == "TAPR"
           else beta_star(params, d1, d2, alloc.n_act, alloc.n_pas))
    zeta = zeta_value(params, alloc.scheme, alloc.n_act, alloc.n_pas, d1, d2, d3)
    return d2, amp >= 1.0, zeta


def mixed_block_pairs(ok):
    """Cells of 8 points per axis of the joint grid that hold both a passing
    and a failing point."""
    n = 8
    blocks = [ok[i:i + n, j:j + n, k:k + n, m:m + n]
              for i in range(0, ok.shape[0], n) for j in range(0, ok.shape[1], n)
              for k in range(0, ok.shape[2], n) for m in range(0, ok.shape[3], n)]
    return sum(bool(b.any() and not b.all()) for b in blocks)


def test_amplitude_boundary_through_block_pairs():
    # TPAR: beta* = 1 cuts through most 8-point cells, and the smallest zeta
    # of the grid fails the amplitude test, so the per-candidate beta* test
    # decides the answer
    params = baseline_params(amp_power_budget=dbm_to_watts(-22.0))
    grid = PlacementGrid(xa_bounds=(0.0, 23.0), ya_bounds=(-12.0, 11.0),
                         xb_bounds=(60.0, 83.0), yb_bounds=(-12.0, 11.0),
                         step=1.0, height=10.0, d_min=1.0)
    alloc = Allocation(100, 1000, "TPAR")
    _, amp_ok, zeta = joint_grids(params, alloc, grid, TX, RX)
    assert mixed_block_pairs(amp_ok) >= 30
    assert not amp_ok.flat[np.argmin(zeta)]
    topo = same_placement(params, alloc, grid, TX, RX)
    assert topo is not None
    assert beta_star(params, topo.d1, topo.d2, alloc.n_act, alloc.n_pas) >= 1.0


def test_min_distance_boundary_through_block_pairs(params):
    # overlapping x boxes at one height: d2 = d_min cuts through 8-point cells
    # and the smallest zeta of the grid lies closer than d_min
    grid = PlacementGrid(xa_bounds=(20.0, 43.0), ya_bounds=(-12.0, 11.0),
                         xb_bounds=(30.0, 53.0), yb_bounds=(-12.0, 11.0),
                         step=1.0, height=10.0, d_min=5.0)
    alloc = Allocation(100, 1000, "TAPR")
    d2, _, zeta = joint_grids(params, alloc, grid, TX, RX)
    assert mixed_block_pairs(d2 >= grid.d_min) >= 30
    assert d2.flat[np.argmin(zeta)] < grid.d_min
    topo = same_placement(params, alloc, grid, TX, RX)
    assert topo is not None and topo.d2 >= grid.d_min


def test_tapr_overlapping_boxes_without_min_distance(params):
    # with d_min = 0 TAPR's zeta is smallest with both surfaces on one point,
    # which no topology admits; the scan skips d2 = 0 as the oracle does
    grid = PlacementGrid(xa_bounds=(10.0, 20.0), ya_bounds=(0.0, 4.0),
                         xb_bounds=(15.0, 30.0), yb_bounds=(0.0, 4.0),
                         step=1.0, height=10.0, d_min=0.0)
    alloc = Allocation(20, 200, "TAPR")
    got = optimize_placement_given_allocation(params, alloc, grid, TX, RX)
    assert got == full_grid_placement(params, alloc, grid, TX, RX)
    assert got.d2 > 0.0


def test_tapr_surface_on_rx_without_min_distance(params):
    # the B-grid holds the receiver's position: d3 = 0 would make R, and so
    # TAPR's whole second term, vanish
    grid = PlacementGrid(xa_bounds=(10.0, 20.0), ya_bounds=(0.0, 4.0),
                         xb_bounds=(90.0, 100.0), yb_bounds=(0.0, 4.0),
                         step=1.0, height=0.0, d_min=0.0)
    alloc = Allocation(20, 200, "TAPR")
    got = optimize_placement_given_allocation(params, alloc, grid, TX, RX)
    assert got == full_grid_placement(params, alloc, grid, TX, RX)
    assert got.d3 > 0.0


def test_tpar_grid_point_on_tx_without_min_distance(params):
    # d1 = 0 at the A-grid origin: beta* = 0 there, an infeasible point, and
    # no warning escapes the scan
    grid = PlacementGrid(xa_bounds=(0.0, 4.0), ya_bounds=(0.0, 4.0),
                         xb_bounds=(90.0, 96.0), yb_bounds=(0.0, 4.0),
                         step=1.0, height=0.0, d_min=0.0)
    alloc, rx = Allocation(20, 200, "TPAR"), (100.0, 0.0, 5.0)
    expected = full_grid_placement(params, alloc, grid, TX, rx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = optimize_placement_given_allocation(params, alloc, grid, TX, rx)
    assert got == expected
    assert got.d1 > 0.0


@pytest.mark.parametrize("scheme", ["TAPR", "TPAR"])
def test_amplitude_exactly_one_is_feasible(scheme):
    # one point per surface, 1 m from Tx and 1 m apart, one element of each
    # kind: with Pv the rounded Pt*rho (TAPR) or Pt*rho^2 (TPAR) plus
    # sigma_v^2, the squared amplitude is 1.0 exactly, which the cap admits;
    # one float less of Pv and no grid point is feasible
    pt, rho, sv2 = 0.1, 1e-3, 1e-8
    pv = (pt * rho if scheme == "TAPR" else pt * rho ** 2) + sv2
    grid = PlacementGrid(xa_bounds=(0.0, 0.0), ya_bounds=(0.0, 0.0),
                         xb_bounds=(1.0, 1.0), yb_bounds=(0.0, 0.0),
                         step=1.0, height=1.0, d_min=1.0)
    alloc = Allocation(1, 1, scheme)
    tx, rx = (0.0, 0.0, 0.0), (1.0, 0.0, 11.0)
    params = baseline_params(transmit_power=pt, ref_gain=rho, amp_noise_power=sv2,
                             amp_power_budget=pv)
    topo = optimize_placement_given_allocation(params, alloc, grid, tx, rx)
    assert (topo.pos_irs_a, topo.pos_irs_b, topo.d1, topo.d2) == (
        (0.0, 0.0, 1.0), (1.0, 0.0, 1.0), 1.0, 1.0)
    amp = (alpha_star(params, 1.0, 1) if scheme == "TAPR"
           else beta_star(params, 1.0, 1.0, 1, 1))
    assert amp == 1.0
    below = baseline_params(transmit_power=pt, ref_gain=rho, amp_noise_power=sv2,
                            amp_power_budget=math.nextafter(pv, 0.0))
    with pytest.raises(NoFeasiblePlacement):
        optimize_placement_given_allocation(below, alloc, grid, tx, rx)
