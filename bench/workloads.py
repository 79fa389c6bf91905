"""Benchmark workloads for irsalloc: seeded inputs, one operation, output checks.

Inputs are plain numbers drawn from the workload seed; an operation builds
the library's objects (SystemParams, Topology, PlacementGrid)
from them and calls public functions only. Counts reported per layer come
from these inputs and from public return values, never from `diagnostics`
or private helpers, so that they do not move when the solver internals do.

The workloads BENCHMARK.json declares, which gate a change:

- placement: alternating optimisation on a 0.5 m grid, about 1.6M
  candidate placements per scan; vectorised zeta work, memory that grows
  as step^-4.
- verify: one random scenario solved every way and checked against all
  three oracles: the `sweep` op below (the default `irsalloc sweep` path),
  the `exact-oracle` op below (exhaustive enumeration and the O(n^2)
  matrix SNR at its optimum), then a 200k-sample Monte-Carlo estimate at
  the closed-form split with 30-150 active elements. The simulator's RNG
  and noise assembly take over 90% of an op.

Also runnable, but not declared: `sweep` and `exact-oracle` on their own,
with budgets up to 3000 and cost ratios 2-10. They isolate the Python-bound
layers (golden section, rounding, the hybrid-IRS loop, the enumeration row
loop) for reading their spans. Their time per op follows the load on a
shared host: over ten runs their ops/s spread by 20-30% (quartile distance
over median) while placement's spread by 3-9%, more than any bound a gated
metric may have.

The input dimensions that set an op's cost follow low-discrepancy sequences
instead of independent draws, so that any prefix of the op stream covers
their range evenly and the work done in a run does not swing with the seed:
the first (budget, or element count) runs 1 - frac(i/phi) from the top of
its range down, the same for every seed, so op 0 is always the largest and
peak memory is always reached; the second (cost ratio) runs
frac(u + i*(sqrt(2)-1)) from a seeded offset u. Every other dimension is
drawn independently from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from irsalloc import (PlacementGrid, SystemParams, alternating_optimize,
                      build_channels, build_topology, check_lemma1, compare_schemes,
                      configure, run_benchmark, simulate_empirical_snr, snr_closed_form,
                      snr_exact_matrix, solve_integer)

TAPR, TPAR = "TAPR", "TPAR"
SCHEMES = (TAPR, TPAR)
SYSTEMS = ("single-pirs", "single-airs", "hybrid-irs", "double-pirs")

RATE_TOL = 1e-9           # |rate - log2(1 + snr)|
MATRIX_REL_TOL = 1e-9     # |matrix snr - closed-form snr| / closed-form snr
MC_REL_TOL = 0.02         # same bound as `irsalloc verify`
MONOTONE_TOL = 1e-12      # AO rate trace, as in the library's own tests

GRID_STEP_M = 0.5
GRID_HALF_X_M = 15.0
GRID_HALF_Y_M = 5.0
MC_SAMPLES = 200_000
ORACLE_QUALITY_OPS = 16

_INV_PHI = (5 ** 0.5 - 1) / 2
_SQRT2_M1 = 2 ** 0.5 - 1


@dataclass(frozen=True)
class Scenario:
    """One scenario as plain numbers, in the units of a config file."""

    pt_dbm: float
    pv_dbm: float
    sigma0_dbm: float
    sigmav_dbm: float
    rho_db: float
    wavelength_m: float
    w_act: float
    w_pas: float
    total_budget: float
    pos_tx: tuple[float, float, float]
    pos_irs_a: tuple[float, float, float]
    pos_irs_b: tuple[float, float, float]
    pos_rx: tuple[float, float, float]
    d_min_m: float = 1.0

    def params(self) -> SystemParams:
        def watts(dbm):
            return 10.0 ** ((dbm - 30.0) / 10.0)

        return SystemParams(
            transmit_power=watts(self.pt_dbm), amp_power_budget=watts(self.pv_dbm),
            rx_noise_power=watts(self.sigma0_dbm), amp_noise_power=watts(self.sigmav_dbm),
            ref_gain=10.0 ** (self.rho_db / 10.0), wavelength=self.wavelength_m,
            cost_active=self.w_act, cost_passive=self.w_pas,
            total_budget=self.total_budget)

    def config_text(self) -> str:
        """The scenario as a config file `load_scenario` reads."""
        def fmt(v):
            return "[" + ", ".join(repr(float(x)) for x in v) + "]" if isinstance(v, tuple) \
                else repr(float(v))

        return "".join(f"{k}: {fmt(v)}\n" for k, v in self.__dict__.items())


@dataclass(frozen=True)
class PlacementInput:
    scenario: Scenario
    scheme: str


@dataclass(frozen=True)
class MonteCarloInput:
    scenario: Scenario
    scheme: str
    mc_seed: int


def _random_scenario(rng: np.random.Generator, budget: float, w_act: float) -> Scenario:
    # Pv >= 20 dBm and rho <= -30 dB keep both amplitude constraints >= 1 at
    # every budget drawn, and rho*Pv far above sigma0^2*d3^2 keeps the
    # regime check defined, so no op fails on a valid input.
    return Scenario(
        pt_dbm=rng.uniform(10, 25), pv_dbm=rng.uniform(20, 30),
        sigma0_dbm=rng.uniform(-90, -75), sigmav_dbm=rng.uniform(-90, -75),
        rho_db=rng.uniform(-40, -30), wavelength_m=0.1,
        w_act=w_act, w_pas=1.0, total_budget=budget,
        pos_tx=(0.0, 0.0, 0.0),
        pos_irs_a=(rng.uniform(5, 30), rng.uniform(0, 10), rng.uniform(5, 15)),
        pos_irs_b=(rng.uniform(60, 120), rng.uniform(0, 10), rng.uniform(5, 15)),
        pos_rx=(rng.uniform(125, 160), rng.uniform(0, 10), 0.0))


def _baseline_jittered(rng: np.random.Generator, budget: float) -> Scenario:
    """The 100 m baseline deployment with both surfaces moved by a few meters."""
    def jitter(x, y, z):
        return (x + rng.uniform(-3, 3), y + rng.uniform(-2, 2), z)

    return Scenario(
        pt_dbm=20.0, pv_dbm=17.0, sigma0_dbm=-80.0, sigmav_dbm=-80.0, rho_db=-30.0,
        wavelength_m=0.1, w_act=5.0, w_pas=1.0, total_budget=budget,
        pos_tx=(0.0, 0.0, 0.0), pos_irs_a=jitter(15.0, 5.0, 10.0),
        pos_irs_b=jitter(98.0, 5.0, 10.0), pos_rx=(100.0, 0.0, 0.0))


def _stream(seed: int, key: int, make: Callable) -> Iterator:
    """make(rng, i, q1, q2) for i = 0, 1, ...; q1, q2 in [0, 1] as in the
    module docstring."""
    rng = np.random.default_rng([key, seed])
    offset = rng.random()
    i = 0
    while True:
        yield make(rng, i, 1.0 - (i * _INV_PHI) % 1.0, (offset + i * _SQRT2_M1) % 1.0)
        i += 1


def sweep_inputs(seed: int) -> Iterator[Scenario]:
    return _stream(seed, 1, lambda rng, i, q1, q2: _random_scenario(
        rng, budget=float(round(50 + 2950 * q1)), w_act=2.0 + 8.0 * q2))


def oracle_inputs(seed: int) -> Iterator[Scenario]:
    return _stream(seed, 2, lambda rng, i, q1, q2: _random_scenario(
        rng, budget=float(round(100 + 2900 * q1)), w_act=2.0 + 8.0 * q2))


def placement_inputs(seed: int) -> Iterator[PlacementInput]:
    return _stream(seed, 3, lambda rng, i, q1, q2: PlacementInput(
        scenario=_baseline_jittered(rng, 1500.0), scheme=SCHEMES[i % 2]))


def verify_inputs(seed: int) -> Iterator[MonteCarloInput]:
    def make(rng, i, q1, q2):
        # the closed-form split puts M/(3*w_act) on the active surface, so
        # this budget targets 30-150 active elements; w_act <= 6 keeps the
        # exhaustive optimum under about 2000 passive elements
        w_act = 2.0 + 4.0 * q2
        budget = float(round(3 * w_act * (30 + 120 * q1)))
        return MonteCarloInput(scenario=_random_scenario(rng, budget, w_act),
                               scheme=SCHEMES[i % 2], mc_seed=int(rng.integers(2 ** 63)))

    return _stream(seed, 4, make)


# ------------------------------------------------------------------ checks

def _rate_ok(rate: float, snr: float) -> bool:
    return math.isfinite(rate) and abs(rate - math.log2(1.0 + snr)) <= RATE_TOL


def _check_solution(name: str, sol, params: SystemParams, budget: float) -> list[str]:
    bad = []
    if not _rate_ok(sol.rate, sol.snr):
        bad.append(f"{name}: rate != log2(1+snr)")
    if not sol.amplitude >= 1.0:
        bad.append(f"{name}: amplitude < 1")
    if not sol.allocation.cost(params) <= budget:
        bad.append(f"{name}: cost > budget")
    return bad


def _topology(s: Scenario):
    return build_topology(s.pos_tx, s.pos_irs_a, s.pos_irs_b, s.pos_rx, d_min=s.d_min_m)


# ---------------------------------------------------------------- sweep

@dataclass
class SweepOutput:
    params: SystemParams
    solutions: dict
    benchmarks: dict
    comparison: object
    regime: object


def sweep_op(s: Scenario, tr) -> SweepOutput:
    params = s.params()
    with tr.span("scenario.build_topology"):
        topo = _topology(s)
    solutions = {}
    for scheme in SCHEMES:
        for method in ("optimal", "closed-form"):
            with tr.span(f"allocation.solve_integer.{method}"):
                solutions[scheme, method] = solve_integer(params, topo, scheme, method=method)
    benchmarks = {}
    for system in SYSTEMS:
        with tr.span(f"benchmarks.run_benchmark.{system}"):
            benchmarks[system] = run_benchmark(system, params, topo)
    with tr.span("snr.compare_schemes"):
        comparison = compare_schemes(params, topo)
    with tr.span("snr.check_lemma1"):
        regime = check_lemma1(params, topo, solutions[TAPR, "closed-form"].allocation.n_pas)
    return SweepOutput(params, solutions, benchmarks, comparison, regime)


def sweep_check(s: Scenario, out: SweepOutput) -> list[str]:
    bad = []
    for (scheme, method), sol in out.solutions.items():
        bad += _check_solution(f"{scheme} {method}", sol, out.params, s.total_budget)
    for system, res in out.benchmarks.items():
        if not _rate_ok(res.rate, res.snr):
            bad.append(f"{system}: rate != log2(1+snr)")
        if not res.n_act * s.w_act + res.n_pas * s.w_pas <= s.total_budget:
            bad.append(f"{system}: cost > budget")
    cmp = out.comparison
    if not (math.isfinite(cmp.margin) and cmp.tapr_at_least_tpar == (cmp.margin >= 0.0)):
        bad.append("compare_schemes: margin inconsistent with ordering")
    reg = out.regime
    if not (math.isfinite(reg.ratio) and reg.satisfied == (reg.ratio <= reg.epsilon)):
        bad.append("check_lemma1: ratio inconsistent with verdict")
    return bad


# --------------------------------------------------------- exact-oracle

@dataclass
class OracleOutput:
    params: SystemParams
    topo: object
    solutions: dict
    matrix: dict


def oracle_op(s: Scenario, tr) -> OracleOutput:
    params = s.params()
    with tr.span("scenario.build_topology"):
        topo = _topology(s)
    solutions, matrix = {}, {}
    for scheme in SCHEMES:
        for method in ("exhaustive", "optimal", "closed-form"):
            with tr.span(f"allocation.solve_integer.{method}"):
                solutions[scheme, method] = solve_integer(params, topo, scheme, method=method)
        alloc = solutions[scheme, "exhaustive"].allocation
        with tr.span("channel.build_channels"):
            channels = build_channels(params, topo, alloc)
        with tr.span("reflection.configure"):
            reflection = configure(params, topo, alloc, channels)
        with tr.span("snr.snr_exact_matrix"):
            matrix[scheme] = snr_exact_matrix(params, topo, alloc, channels, reflection)
    return OracleOutput(params, topo, solutions, matrix)


def oracle_check(s: Scenario, out: OracleOutput) -> list[str]:
    bad = []
    for (scheme, method), sol in out.solutions.items():
        bad += _check_solution(f"{scheme} {method}", sol, out.params, s.total_budget)
    for scheme in SCHEMES:
        best = out.solutions[scheme, "exhaustive"]
        for method in ("optimal", "closed-form"):
            if not best.rate >= out.solutions[scheme, method].rate:
                bad.append(f"{scheme}: exhaustive rate < {method} rate")
        mat = out.matrix[scheme]
        if not _rate_ok(mat.rate, mat.snr):
            bad.append(f"{scheme} matrix: rate != log2(1+snr)")
        closed = snr_closed_form(out.params, out.topo, best.allocation).snr
        if not abs(mat.snr - closed) <= MATRIX_REL_TOL * closed:
            bad.append(f"{scheme}: matrix snr != closed-form snr")
    return bad


def exhaustive_pairs(s: Scenario) -> int:
    """Integer pairs (n_act, n_pas) >= 1 within the budget, for one scheme."""
    n_act = np.arange(1, math.floor((s.total_budget - s.w_pas) / s.w_act) + 1)
    return int(np.sum(np.floor((s.total_budget - s.w_act * n_act) / s.w_pas)))


def oracle_counts(i: int, s: Scenario, out: OracleOutput) -> dict:
    """Pairs enumerated; optimal-vs-exhaustive agreement over the first
    ORACLE_QUALITY_OPS ops only, so that it repeats exactly for a seed."""
    counts = {"pairs": len(SCHEMES) * exhaustive_pairs(s)}
    if i < ORACLE_QUALITY_OPS:
        counts.update(solves=0, hits=0, gap=0.0)
        for scheme in SCHEMES:
            exh = out.solutions[scheme, "exhaustive"]
            opt = out.solutions[scheme, "optimal"]
            counts["solves"] += 1
            counts["hits"] += (opt.allocation.n_act, opt.allocation.n_pas) == \
                (exh.allocation.n_act, exh.allocation.n_pas)
            counts["gap"] += exh.rate - opt.rate
    return counts


# ------------------------------------------------------------ placement

def placement_grid(s: Scenario) -> PlacementGrid:
    xa, ya, za = s.pos_irs_a
    xb, yb, _ = s.pos_irs_b
    hx, hy = GRID_HALF_X_M, GRID_HALF_Y_M
    return PlacementGrid(xa_bounds=(xa - hx, xa + hx), ya_bounds=(ya - hy, ya + hy),
                         xb_bounds=(xb - hx, xb + hx), yb_bounds=(yb - hy, yb + hy),
                         step=GRID_STEP_M, height=za, d_min=s.d_min_m)


@dataclass
class PlacementOutput:
    params: SystemParams
    grid: PlacementGrid
    trace: object


def placement_op(inp: PlacementInput, tr) -> PlacementOutput:
    s = inp.scenario
    params = s.params()
    with tr.span("scenario.build_topology"):
        topo = _topology(s)
    grid = placement_grid(s)
    with tr.span("placement.alternating_optimize"):
        trace = alternating_optimize(params, grid, inp.scheme, topo.pos_tx, topo.pos_rx)
    return PlacementOutput(params, grid, trace)


def placement_check(inp: PlacementInput, out: PlacementOutput) -> list[str]:
    bad = []
    s = inp.scenario
    rates = [it.rate for it in out.trace.iterations]
    if not all(b >= a - MONOTONE_TOL for a, b in zip(rates, rates[1:])):
        bad.append("AO rate trace decreases")
    for k, it in enumerate(out.trace.iterations):
        snr = snr_closed_form(out.params, it.topology, it.allocation).snr
        if not _rate_ok(it.rate, snr):
            bad.append(f"AO iteration {k}: rate != log2(1+snr)")
        if not it.amplitude >= 1.0:
            bad.append(f"AO iteration {k}: amplitude < 1")
        if not it.allocation.cost(out.params) <= s.total_budget:
            bad.append(f"AO iteration {k}: cost > budget")
    final = out.trace.final.topology
    if not min(final.d1, final.d2, final.d3) >= s.d_min_m:
        bad.append("final placement violates d_min")
    return bad


def placement_candidates(grid: PlacementGrid) -> int:
    """Candidate placements in one joint scan over both surfaces' boxes."""
    return math.prod(len(grid.axis(b)) for b in
                     (grid.xa_bounds, grid.ya_bounds, grid.xb_bounds, grid.yb_bounds))


def placement_counts(i: int, inp: PlacementInput, out: PlacementOutput) -> dict:
    scans = len(out.trace.iterations)  # one joint scan per AO iteration
    return {"ao_iterations": scans, "candidates": scans * placement_candidates(out.grid)}


# ---------------------------------------------------------- monte-carlo

@dataclass
class MonteCarloOutput:
    params: SystemParams
    solution: object
    estimate: object


def monte_carlo_op(inp: MonteCarloInput, tr) -> MonteCarloOutput:
    s = inp.scenario
    params = s.params()
    with tr.span("scenario.build_topology"):
        topo = _topology(s)
    with tr.span("allocation.solve_integer.closed-form"):
        sol = solve_integer(params, topo, inp.scheme, method="closed-form")
    with tr.span("channel.build_channels"):
        channels = build_channels(params, topo, sol.allocation)
    with tr.span("reflection.configure"):
        reflection = configure(params, topo, sol.allocation, channels)
    with tr.span("snr.simulate_empirical_snr"):
        estimate = simulate_empirical_snr(params, topo, sol.allocation, reflection,
                                          num_samples=MC_SAMPLES, seed=inp.mc_seed)
    return MonteCarloOutput(params, sol, estimate)


def monte_carlo_check(inp: MonteCarloInput, out: MonteCarloOutput) -> list[str]:
    bad = _check_solution(f"{inp.scheme} closed-form", out.solution, out.params,
                          inp.scenario.total_budget)
    est = out.estimate
    if not _rate_ok(est.rate, est.snr):
        bad.append("monte-carlo: rate != log2(1+snr)")
    if not abs(est.snr - out.solution.snr) <= MC_REL_TOL * out.solution.snr:
        bad.append("monte-carlo: estimate off the closed form by more than 2%")
    return bad


def monte_carlo_counts(i: int, inp: MonteCarloInput, out: MonteCarloOutput) -> dict:
    # one complex128 noise draw per sample and active element
    n_elements = int(out.solution.allocation.n_act)
    return {"samples": MC_SAMPLES, "mc_bytes": MC_SAMPLES * n_elements * 16}


def no_counts(i, inp, out) -> dict:
    return {}


# --------------------------------------------------------------- verify

@dataclass
class VerifyOutput:
    sweep: SweepOutput
    oracle: OracleOutput
    monte_carlo: MonteCarloOutput


def verify_op(inp: MonteCarloInput, tr) -> VerifyOutput:
    return VerifyOutput(sweep_op(inp.scenario, tr), oracle_op(inp.scenario, tr),
                        monte_carlo_op(inp, tr))


def verify_check(inp: MonteCarloInput, out: VerifyOutput) -> list[str]:
    return (sweep_check(inp.scenario, out.sweep) + oracle_check(inp.scenario, out.oracle)
            + monte_carlo_check(inp, out.monte_carlo))


def verify_counts(i: int, inp: MonteCarloInput, out: VerifyOutput) -> dict:
    return {**oracle_counts(i, inp.scenario, out.oracle),
            **monte_carlo_counts(i, inp, out.monte_carlo)}


# ------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator]
    op: Callable
    check: Callable
    counts: Callable        # (op index, input, output) -> per-layer counts
    min_ops: int            # ops a run completes even past its time budget


WORKLOADS = {w.name: w for w in (
    # 11 ops leave ten beyond the tail latency
    Workload("placement", placement_inputs, placement_op, placement_check,
             placement_counts, min_ops=11),
    Workload("verify", verify_inputs, verify_op, verify_check, verify_counts,
             min_ops=ORACLE_QUALITY_OPS),
    Workload("sweep", sweep_inputs, sweep_op, sweep_check, no_counts, min_ops=100),
    Workload("exact-oracle", oracle_inputs, oracle_op, oracle_check, oracle_counts,
             min_ops=ORACLE_QUALITY_OPS),
)}


def scenario_of(inp) -> Scenario:
    return inp if isinstance(inp, Scenario) else inp.scenario
