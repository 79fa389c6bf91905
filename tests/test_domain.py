"""Every public entry point at the corners of the numeric domain.

scenario.DOMAIN and the bounds after it are the only overflow decision in
the library: inside them every intermediate value is finite, so no formula
guards itself. This test drives the entry points at the domain's corners,
on geometries that mix link distances at the floor (1e-9 m) and at the
coordinate bound (about 1e6 m), and asserts that each gives a finite answer
or raises an IrsAllocError. pytest turns warnings into errors, so an
overflow or invalid operation on the way fails it too.

The corners are sampled, not enumerated: the full product of the nine
ranges and four geometries (2,048 drives) takes about 105 s on a 2-vCPU box.
"""

import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import irsalloc
from irsalloc import (Allocation, ConfigError, IrsAllocError, PlacementGrid, SystemParams,
                      alternating_optimize, build_channels, build_topology,
                      check_lemma1, closed_form_split, compare_schemes, configure,
                      db_to_linear, dbm_to_watts, free_space_ref_gain,
                      linear_to_db, load_scenario, optimal_phases,
                      optimize_placement_given_allocation, run_benchmark,
                      simulate_empirical_snr, snr_approx, snr_closed_form, snr_exact_matrix,
                      solve_continuous, solve_integer, unit_from_angles, upa_response,
                      watts_to_dbm)
from irsalloc.benchmarks import BENCHMARK_SYSTEMS
from irsalloc.channel import direction_angles, grid_shape, steering
from irsalloc.scenario import DOMAIN, MAX_COORDINATE, MAX_COST_RATIO, MAX_ELEMENTS, \
    MIN_DISTANCE, SCHEMES

FAR = MAX_COORDINATE
NEAR = MIN_DISTANCE

# (Tx, A-IRS, B-IRS, Rx, grid step); both surfaces at one height, as a
# placement grid needs
GEOMETRIES = {
    "near": ((0, 0, 0), (NEAR, 0, 0), (2 * NEAR, 0, 0), (3 * NEAR, 0, 0), NEAR / 4),
    "far": ((-FAR, -FAR, -FAR), (FAR, FAR, FAR), (-FAR, -FAR, FAR), (FAR, FAR, -FAR),
            FAR / 4),
    "near-far-near": ((0, 0, 0), (NEAR, 0, 0), (FAR, 0, 0), (FAR, NEAR, 0), NEAR / 4),
    "far-near-far": ((-FAR, 0, 0), (FAR, 0, 0), (FAR, NEAR, 0), (-FAR, FAR, 0), NEAR / 4),
}

# the ranges of the scalars a corner fixes; costs and budget are derived
RANGES = {name: DOMAIN[name] for name in (
    "transmit_power", "amp_power_budget", "rx_noise_power", "amp_noise_power",
    "ref_gain", "wavelength", "cost_passive")}


def corner_params(corner: dict, ratio: float, budget_high: bool) -> SystemParams:
    """The parameters at a corner: the cost ratio at its end, and the budget
    at the domain's largest or at one element of each kind."""
    cost_passive = corner["cost_passive"]
    cost_active = ratio * cost_passive
    budget = MAX_ELEMENTS * cost_passive if budget_high else cost_active + cost_passive
    return SystemParams(**{**corner, "cost_active": cost_active, "total_budget": budget})


def _box(x: float, step: float) -> tuple[float, float]:
    """Five grid points centred on x, or ending at x where that would leave
    the domain's coordinates."""
    if abs(x) + 2 * step > MAX_COORDINATE:
        return (x - 4 * step, x) if x > 0 else (x, x + 4 * step)
    return (x - 2 * step, x + 2 * step)


def _finite(*values) -> None:
    assert all(math.isfinite(v) for v in values), values


def _each(call, check) -> None:
    """check(call()), unless call raises an IrsAllocError."""
    try:
        result = call()
    except IrsAllocError:
        return
    check(result)


def drive(params: SystemParams, geometry: str) -> None:
    """Every entry point at params on the named geometry."""
    tx, a, b, rx, step = GEOMETRIES[geometry]
    topo = build_topology(tx, a, b, rx, d_min=0.0)

    def solution(sol):
        _finite(sol.snr, sol.rate, sol.amplitude, sol.allocation.n_act, sol.allocation.n_pas)

    def budget(lb):
        _finite(lb.snr, lb.rate, lb.signal_power)

    for scheme in SCHEMES:
        for method in ("optimal", "closed-form"):
            _each(lambda: solve_integer(params, topo, scheme, method=method), solution)
        _each(lambda: solve_continuous(params, topo, scheme), solution)
        alloc = Allocation(3, 5, scheme)
        refl = configure(params, topo, alloc)
        budget(snr_exact_matrix(params, topo, alloc, build_channels(params, topo, alloc), refl))
        budget(simulate_empirical_snr(params, topo, alloc, refl, num_samples=64, seed=0))
    for system in BENCHMARK_SYSTEMS:
        _each(lambda: run_benchmark(system, params, topo),
              lambda res: _finite(res.snr, res.rate, res.amplitude))
    cmp = compare_schemes(params, topo)
    _finite(cmp.margin, cmp.rhs, cmp.inv_ref_gain)
    split = closed_form_split(params.total_budget, params.cost_active, params.cost_passive,
                              SCHEMES[0])
    _each(lambda: check_lemma1(params, topo, split.n_pas),
          lambda report: _finite(report.lemma1_lhs, report.ratio))
    grid = PlacementGrid(xa_bounds=_box(a[0], step), ya_bounds=_box(a[1], step),
                         xb_bounds=_box(b[0], step), yb_bounds=_box(b[1], step),
                         step=step, height=a[2], d_min=0.0)
    for scheme in SCHEMES:
        _each(lambda: alternating_optimize(params, grid, scheme, tx, rx),
              lambda trace: _finite(*(it.rate for it in trace.iterations)))


@settings(max_examples=24, derandomize=True, deadline=None, database=None)
@given(corner=st.fixed_dictionaries({name: st.sampled_from(r) for name, r in RANGES.items()}),
       ratio=st.sampled_from((1.0, MAX_COST_RATIO)), budget_high=st.booleans(),
       geometry=st.sampled_from(sorted(GEOMETRIES)))
def test_entry_points_finite_or_typed_at_domain_corners(corner, ratio, budget_high, geometry):
    drive(corner_params(corner, ratio, budget_high), geometry)



# one malformed argument per public path that raised a plain ValueError
MALFORMED = {
    "allocation-count": lambda params, topo: Allocation(0, 10, "TAPR"),
    "continuous-count": lambda params, topo: Allocation(0.0, 10.0, "TPAR", continuous=True),
    "solve-method": lambda params, topo: solve_integer(params, topo, "TAPR", method="bogus"),
    "benchmark-system": lambda params, topo: run_benchmark("bogus", params, topo),
    "steering-length": lambda params, topo: steering(0.5, 0),
    "grid-shape": lambda params, topo: grid_shape(0),
    "zero-direction": lambda params, topo: direction_angles((0.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("path", sorted(MALFORMED))
def test_malformed_argument_raises_config_error(params, topo, path):
    with pytest.raises(ConfigError):
        MALFORMED[path](params, topo)


# every public callable of irsalloc with one malformed argument, the rest
# well formed
def _malformed_calls(params, topo):
    alloc = Allocation(3, 5, "TAPR")
    continuous = Allocation(2.5, 3.5, "TAPR", continuous=True)
    channels = build_channels(params, topo, alloc)
    refl = configure(params, topo, alloc, channels)
    grid = PlacementGrid(xa_bounds=(0.0, 10.0), ya_bounds=(0.0, 10.0), xb_bounds=(60.0, 70.0),
                         yb_bounds=(0.0, 10.0), step=5.0, height=5.0)
    unknown_scheme = SimpleNamespace(n_act=3, n_pas=5, scheme="bogus")
    tx, rx = topo.pos_tx, topo.pos_rx
    return {
        "Allocation": lambda: Allocation(0, 10, "TAPR"),
        "PlacementGrid": lambda: PlacementGrid(xa_bounds=(0.0, 10.0), ya_bounds=(0.0, 10.0),
                                               xb_bounds=(60.0, 70.0), yb_bounds=(0.0, 10.0),
                                               step=0.0, height=5.0),
        "SystemParams": lambda: replace(params, transmit_power=math.nan),
        "alternating_optimize": lambda: alternating_optimize(params, grid, "bogus", tx, rx),
        "build_channels": lambda: build_channels(params, topo, continuous),
        "build_topology": lambda: build_topology(tx, (1.0, 2.0), (3.0, 4.0, 5.0), rx),
        "check_lemma1": lambda: check_lemma1(params, topo, math.nan),
        "closed_form_split": lambda: closed_form_split(100.0, 0.0, 1.0, "TAPR"),
        "configure": lambda: configure(params, topo, continuous),
        "db_to_linear": lambda: db_to_linear(math.nan),
        "dbm_to_watts": lambda: dbm_to_watts(math.nan),
        "direction_angles": lambda: direction_angles((1.0, 2.0)),
        "free_space_ref_gain": lambda: free_space_ref_gain(-0.1),
        "linear_to_db": lambda: linear_to_db(-1.0),
        "load_scenario": lambda: load_scenario(Path(__file__).parent / "no-such-config.yaml"),
        "optimal_phases": lambda: optimal_phases(replace(channels, a_to_b=channels.a_to_b[:-1])),
        "optimize_placement_given_allocation": lambda: optimize_placement_given_allocation(
            params, alloc, grid, tx, (0.0, 0.0)),
        "run_benchmark": lambda: run_benchmark("bogus", params, topo),
        "simulate_empirical_snr": lambda: simulate_empirical_snr(params, topo, alloc, refl,
                                                                 num_samples=0, seed=0),
        "snr_approx": lambda: snr_approx(params, topo, unknown_scheme),
        "snr_closed_form": lambda: snr_closed_form(params, topo, unknown_scheme),
        "snr_exact_matrix": lambda: snr_exact_matrix(
            params, topo, alloc, channels, replace(refl, phases_first=refl.phases_first[:-1])),
        "solve_continuous": lambda: solve_continuous(params, topo, "bogus"),
        "solve_integer": lambda: solve_integer(params, topo, "TAPR", budget=math.nan),
        "steering": lambda: steering(math.nan, 4),
        "unit_from_angles": lambda: unit_from_angles(math.nan, 0.0),
        "upa_response": lambda: upa_response(0.1, math.inf, 4),
        "watts_to_dbm": lambda: watts_to_dbm(0.0),
    }


# public callables that take no argument a caller could malform: the error
# classes, the result records the library fills in, and compare_schemes,
# whose SystemParams and Topology are checked when they are built
NO_MALFORMED_ARGUMENT = {
    "AOTrace", "AllocationSolution", "BenchmarkResult", "ChannelTriple", "LinkBudget",
    "ReflectionConfig", "RegimeReport", "SchemeComparison", "Topology", "compare_schemes",
    "ConditionUndefined", "ConfigError", "DimensionMismatch", "DistanceTooSmall",
    "InfeasibleBudget", "IrsAllocError", "NoFeasiblePlacement", "SearchSpaceTooLarge",
}


def test_every_public_callable_has_a_malformed_call(params, topo):
    public = {name for name in dir(irsalloc)
              if not name.startswith("_") and callable(getattr(irsalloc, name))}
    calls = _malformed_calls(params, topo)
    assert not set(calls) & NO_MALFORMED_ARGUMENT
    assert public == set(calls) | NO_MALFORMED_ARGUMENT


def test_every_public_callable_raises_a_typed_error(params, topo):
    for name, call in _malformed_calls(params, topo).items():
        with pytest.raises(IrsAllocError):
            call()
