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

import pytest
from hypothesis import given, settings, strategies as st

from irsalloc import (Allocation, ConfigError, IrsAllocError, PlacementGrid, SystemParams,
                      alternating_optimize, build_channels, build_topology,
                      check_lemma1, closed_form_split, compare_schemes, configure,
                      run_benchmark, simulate_empirical_snr, snr_exact_matrix,
                      solve_continuous, solve_integer)
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
