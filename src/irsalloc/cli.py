"""Command-line driver: single-scenario allocation, figure-style sweeps,
placement optimization, the scheme comparator and a cross-module
verification suite. All outputs are deterministic for a given config + seed.

Exit codes: 0 success, 1 config error or an --out file that cannot be
written, 2 solver/guard error (also used for verification failures).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import benchmarks
from .allocation import MAX_SCAN_ROWS, METHODS, Allocation, closed_form_split, \
    solve_continuous, solve_integer
from .channel import build_channels
from .errors import ConfigError, IrsAllocError, SearchSpaceTooLarge
from .placement import PlacementGrid, alternating_optimize
from .reflection import configure
from .scenario import SCHEMES, SystemParams, TAPR, Topology, build_topology, \
    dbm_to_watts, fmt_number, linear_to_db, load_scenario
from .snr import check_lemma1, check_seed, compare_schemes, rate_from_snr, \
    simulate_empirical_snr, snr_approx, snr_closed_form, snr_exact_matrix, \
    zeta_value

SCHEME_SYSTEMS = ("tapr", "tpar")
ALL_SYSTEMS = SCHEME_SYSTEMS + benchmarks.BENCHMARK_SYSTEMS

CSV_COLUMNS = ("sweep_param", "value", "system", "n_act", "n_pas", "amplitude",
               "snr_db", "rate_bps_hz", "method", "error")
# sweep values from here on print in exponent form: past 2**53 integer digits
# are inexact, and an error row's out-of-domain 1e300 would run to 301 digits
_EXPONENT_FROM = 1e16


@dataclass(frozen=True)
class SweepSpec:
    parameter: str            # total-budget | amp-power-dbm | cost-ratio
    start: float
    stop: float
    step: float
    systems: tuple[str, ...]
    method: str               # one of allocation.METHODS

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.start, self.stop, self.step)):
            raise ConfigError(f"sweep from/to/step must be finite numbers, got "
                              f"{self.start!r}/{self.stop!r}/{self.step!r}")
        if self.step <= 0:
            raise ConfigError("sweep step must be > 0")
        if self.start > self.stop:
            raise ConfigError("sweep start must be <= stop")
        if self.parameter not in ("total-budget", "amp-power-dbm", "cost-ratio"):
            raise ConfigError(f"unknown sweep parameter {self.parameter!r}")
        for system in self.systems:
            if system not in ALL_SYSTEMS:
                raise ConfigError(f"unknown system {system!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown allocation method {self.method!r}")
        # values() makes floor(span) + 1 values, at most MAX_SCAN_ROWS exactly
        # when span < MAX_SCAN_ROWS; the span is compared as a float, before
        # any int or list is made, as it can overflow to inf
        if not self._span() < MAX_SCAN_ROWS:
            raise SearchSpaceTooLarge(f"sweep from {self.start!r} to {self.stop!r} by "
                                      f"{self.step!r} exceeds {MAX_SCAN_ROWS} values")

    def _span(self) -> float:
        return (self.stop - self.start) / self.step + 1e-9

    def values(self) -> list[float]:
        n = int(math.floor(self._span())) + 1
        return [self.start + k * self.step for k in range(n)]


def _fmt_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() and abs(v) < _EXPONENT_FROM else f"{v:.6g}"


def _row(sweep_param: str, value: float, system: str, n_act, n_pas, amplitude,
         snr: float, method: str, error: str = "") -> dict:
    if error:
        num = dict(n_act="", n_pas="", amplitude="", snr_db="", rate_bps_hz="")
    else:
        snr_db_str = f"{linear_to_db(snr):.6f}"
        # rate is derived from the *emitted* (rounded) snr_db so the two
        # columns stay consistent for downstream plot scripts
        rate = rate_from_snr(10.0 ** (float(snr_db_str) / 10.0))
        num = dict(n_act=fmt_number(n_act, 0), n_pas=fmt_number(n_pas, 0),
                   amplitude=fmt_number(amplitude, 6),
                   snr_db=snr_db_str, rate_bps_hz=f"{rate:.9f}")
    return dict(sweep_param=sweep_param, value=_fmt_value(value), system=system,
                method=method, error=error, **num)


def _evaluate_system(params: SystemParams, topo: Topology, system: str,
                     method: str) -> tuple:
    """(n_act, n_pas, amplitude, snr, method_tag) for one sweep point."""
    if system in SCHEME_SYSTEMS:
        sol = solve_integer(params, topo, system.upper(), method=method)
        a = sol.allocation
        return a.n_act, a.n_pas, sol.amplitude, sol.snr, method
    res = benchmarks.run_benchmark(system, params, topo)
    return res.n_act, res.n_pas, res.amplitude, res.snr, "benchmark"


def _apply_sweep_value(params: SystemParams, parameter: str, value: float) -> SystemParams:
    if parameter == "total-budget":
        return replace(params, total_budget=value)
    if parameter == "amp-power-dbm":
        return replace(params, amp_power_budget=dbm_to_watts(value))
    # cost-ratio varies the active cost with the passive cost fixed
    return replace(params, cost_active=value * params.cost_passive)


def run_sweep(params: SystemParams, topo: Topology, spec: SweepSpec) -> list[dict]:
    rows = []
    for value in spec.values():
        for system in spec.systems:
            try:
                point = _apply_sweep_value(params, spec.parameter, value)
                n_act, n_pas, amp, snr, tag = _evaluate_system(point, topo,
                                                               system, spec.method)
                rows.append(_row(spec.parameter, value, system, n_act, n_pas,
                                 amp, snr, tag))
            except IrsAllocError as exc:
                rows.append(_row(spec.parameter, value, system, 0, 0, 0, 0,
                                 spec.method, error=str(exc)))
    return rows


def write_csv(rows: list[dict], out, columns=CSV_COLUMNS):
    writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def run_placement(params: SystemParams, topo: Topology, scheme: str,
                  grid_step: float) -> list[dict]:
    """AO trace rows; grid boxes span +/-15 m (x) and +/-5 m (y) around the
    configured IRS positions, heights fixed to the configured ones."""
    xa, ya, za = topo.pos_irs_a
    xb, yb, _ = topo.pos_irs_b
    grid = PlacementGrid(
        xa_bounds=(xa - 15.0, xa + 15.0), ya_bounds=(ya - 5.0, ya + 5.0),
        xb_bounds=(xb - 15.0, xb + 15.0), yb_bounds=(yb - 5.0, yb + 5.0),
        step=grid_step, height=za, d_min=topo.d_min)
    trace = alternating_optimize(params, grid, scheme, topo.pos_tx, topo.pos_rx)
    rows = []
    for i, it in enumerate(trace.iterations):
        rows.append({
            "iteration": str(i),
            "xa": _fmt_value(it.topology.pos_irs_a[0]), "ya": _fmt_value(it.topology.pos_irs_a[1]),
            "xb": _fmt_value(it.topology.pos_irs_b[0]), "yb": _fmt_value(it.topology.pos_irs_b[1]),
            "n_act": str(it.allocation.n_act), "n_pas": str(it.allocation.n_pas),
            "amplitude": fmt_number(it.amplitude, 6), "rate_bps_hz": f"{it.rate:.9f}",
        })
    return rows

PLACEMENT_COLUMNS = ("iteration", "xa", "ya", "xb", "yb", "n_act", "n_pas",
                     "amplitude", "rate_bps_hz")


# ------------------------------------------------------------------- verify

def _random_verify_scenario(rng: np.random.Generator):
    # every draw keeps d1 >= 5 m, d2 >= 30 m and d3 >= 5 m, so the
    # topology always passes d_min
    params = SystemParams(
        transmit_power=dbm_to_watts(rng.uniform(10, 30)),
        amp_power_budget=dbm_to_watts(rng.uniform(5, 25)),
        rx_noise_power=dbm_to_watts(rng.uniform(-90, -70)),
        amp_noise_power=dbm_to_watts(rng.uniform(-90, -70)),
        ref_gain=10.0 ** rng.uniform(-4, -2),
        wavelength=0.1,
        cost_active=rng.uniform(2, 10),
        cost_passive=1.0,
        total_budget=1500.0,
    )
    topo = build_topology(
        (0.0, 0.0, 0.0),
        (rng.uniform(5, 30), rng.uniform(0, 10), rng.uniform(5, 15)),
        (rng.uniform(60, 120), rng.uniform(0, 10), rng.uniform(5, 15)),
        (rng.uniform(125, 160), rng.uniform(0, 10), 0.0))
    return params, topo


def _slope(budgets, snrs) -> float:
    return float(np.polyfit(np.log(budgets), np.log(snrs), 1)[0])


def _gate(values, limit: float) -> tuple[bool, float]:
    """(passed, worst): the largest value, or the first that is not finite and
    so fails the gate (max alone would pass a NaN)."""
    worst = next((v for v in values if not math.isfinite(v)), max(values))
    return bool(math.isfinite(worst) and worst <= limit), worst


def run_verify(params: SystemParams, topo: Topology,
               seed: int = 0) -> list[tuple[str, bool, str]]:
    """Cross-module consistency suite, deterministic for a given seed."""
    seed = check_seed(seed)
    report = []
    rng = np.random.default_rng(seed)

    # 1. matrix oracle vs closed form on random scenarios
    diffs = []
    scenarios = []
    for _ in range(40):
        p, t = _random_verify_scenario(rng)
        scenarios.append((p, t))
        for scheme in SCHEMES:
            alloc = Allocation(n_act=int(rng.integers(1, 49)),
                               n_pas=int(rng.integers(1, 49)), scheme=scheme)
            ch = build_channels(p, t, alloc)
            refl = configure(p, t, alloc, ch)
            exact = snr_exact_matrix(p, t, alloc, ch, refl).snr
            closed = snr_closed_form(p, t, alloc).snr
            diffs.append(abs(exact - closed) / closed)
    ok, worst = _gate(diffs, 1e-9)
    report.append(("matrix-vs-closed-form", ok, f"worst rel diff {worst:.3e}"))

    # 2. Monte-Carlo power meter vs analytic SNR
    errs = []
    for scheme in SCHEMES:
        sol = solve_integer(params, topo, scheme, method="closed-form")
        refl = configure(params, topo, sol.allocation)
        est = simulate_empirical_snr(params, topo, sol.allocation, refl,
                                     num_samples=200_000, seed=seed).snr
        errs.append(abs(est - sol.snr) / sol.snr)
    ok, worst = _gate(errs, 0.02)
    report.append(("monte-carlo-agreement", ok, f"worst rel err {worst:.3e}"))

    # 3. continuous solver vs dense grid on the budget line; the signed gap
    # is negative when the solver beats every grid point
    gaps = []
    for scheme in SCHEMES:
        sol = solve_continuous(params, topo, scheme)
        m, wa, wp = params.total_budget, params.cost_active, params.cost_passive
        xp = np.linspace(m / wp * 1e-6, m / wp * (1 - 1e-6), 100_000)
        grid_best = float(np.min(zeta_value(params, scheme, (m - wp * xp) / wa, xp,
                                            topo.d1, topo.d2, topo.d3)))
        a = sol.allocation
        zeta = zeta_value(params, scheme, a.n_act, a.n_pas, topo.d1, topo.d2, topo.d3)
        gaps.append((zeta - grid_best) / grid_best)
    ok, worst = _gate(gaps, 1e-8)
    report.append(("optimizer-vs-grid", ok, f"worst objective gap {worst:.3e}"))

    # 4. the continuous relaxation bounds every integer optimum from above;
    # checks 4 and 5 scale their budgets with the element costs, so that the
    # smallest still affords at least one element of each kind
    scale = max(1.0, (params.cost_active + params.cost_passive) / 20.0)
    excess = []
    for scheme in SCHEMES:
        for m in (20.0 * scale, 100.0 * scale, 200.0 * scale):
            integer = solve_integer(params, topo, scheme, method="optimal", budget=m)
            relaxed = solve_continuous(params, topo, scheme, budget=m)
            excess.append(integer.rate - relaxed.rate)
    ok, worst = _gate(excess, 1e-12)
    report.append(("integer-vs-continuous", ok,
                   f"worst integer minus continuous rate {worst:.3e} bps/Hz"))

    # 5. SNR growth orders in the total budget
    budgets = np.array([500.0, 1000.0, 2000.0, 4000.0]) * scale
    ok = True
    details = []
    for scheme in SCHEMES:
        s_approx = _slope(budgets, [snr_approx(params, topo, closed_form_split(
            m, params.cost_active, params.cost_passive, scheme)).snr for m in budgets])
        cont = [solve_continuous(params, topo, scheme, budget=m).snr for m in budgets]
        s_full = _slope(budgets, cont)
        # the full closed form only approaches cubic growth when the
        # inter-surface distance dominates; report its slope without gating
        ok &= abs(s_approx - 3.0) <= 1e-9
        details.append(f"{scheme}: approx {s_approx:.6f}, full {s_full:.4f}")
    expected = {benchmarks.SINGLE_PIRS: 2.0, benchmarks.SINGLE_AIRS: 1.0,
                benchmarks.DOUBLE_PIRS: 4.0}
    for system, target in expected.items():
        s = _slope(budgets, [benchmarks.run_benchmark(
            system, replace(params, total_budget=m), topo).snr for m in budgets])
        ok &= abs(s - target) <= 0.05
        details.append(f"{system}: {s:.4f}")
    report.append(("scaling-slopes", bool(ok), "; ".join(details)))

    # 6. the corner walk against the full scan on check 1's scenarios, exactly
    # in counts, SNR, rate and amplitude, or in the error raised
    differ = sum(_outcome(p, t, scheme, "optimal") != _outcome(p, t, scheme, "exhaustive")
                 for p, t in scenarios for scheme in SCHEMES)
    report.append(("optimal-vs-exhaustive", differ == 0,
                   f"{differ} of {len(SCHEMES) * len(scenarios)} solves differ"))
    return report


def _outcome(params: SystemParams, topo: Topology, scheme: str, method: str) -> tuple:
    """(n_act, n_pas, snr, rate, amplitude) of one integer solve, or the
    type and text of its error."""
    try:
        sol = solve_integer(params, topo, scheme, method=method)
    except IrsAllocError as exc:
        return type(exc).__name__, str(exc)
    a = sol.allocation
    return a.n_act, a.n_pas, sol.snr, sol.rate, sol.amplitude


# ---------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irsalloc",
                                     description="Joint active/passive IRS allocation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=False):
        p.add_argument("--config", required=True, help="scenario config file (YAML)")
        if out:
            p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("allocate", help="solve one allocation problem")
    common(p, out=True)
    p.add_argument("--scheme", choices=[s.lower() for s in SCHEMES], default="tapr")
    p.add_argument("--method", choices=METHODS, default="optimal")

    p = sub.add_parser("sweep", help="parameter sweep, one CSV row per point/system")
    common(p, out=True)
    p.add_argument("--param", required=True,
                   choices=["total-budget", "amp-power-dbm", "cost-ratio"])
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--systems", default=",".join(ALL_SYSTEMS),
                   help="comma-separated subset of " + ",".join(ALL_SYSTEMS))
    p.add_argument("--method", choices=METHODS, default="optimal")

    p = sub.add_parser("placement", help="alternating placement/allocation optimization")
    common(p, out=True)
    p.add_argument("--scheme", choices=[s.lower() for s in SCHEMES], default="tapr")
    p.add_argument("--grid-step", type=float, default=1.0)

    p = sub.add_parser("compare", help="active-first vs active-second comparator")
    common(p)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="regime-check threshold for the reported ratio")

    p = sub.add_parser("verify", help="run the cross-module verification suite")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _write_out(path, rows: list[dict], columns=CSV_COLUMNS) -> int:
    """write_csv to the file at path, or to stdout when path is None; the
    exit code, 1 when the file cannot be written."""
    if path is None:
        write_csv(rows, sys.stdout, columns)
        return 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as out:
            write_csv(rows, out, columns)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params, topo = load_scenario(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "allocate":
            sol = solve_integer(params, topo, args.scheme.upper(), method=args.method)
            a = sol.allocation
            print(f"scheme={a.scheme} method={sol.method} "
                  f"n_act={a.n_act} n_pas={a.n_pas} amplitude={fmt_number(sol.amplitude, 6)} "
                  f"snr_db={linear_to_db(sol.snr):.6f} rate_bps_hz={sol.rate:.9f}")
            if args.out:
                return _write_out(args.out, [_row("none", params.total_budget,
                                                  a.scheme.lower(), a.n_act, a.n_pas,
                                                  sol.amplitude, sol.snr, sol.method)])
            return 0

        if args.command == "sweep":
            spec = SweepSpec(parameter=args.param, start=args.start, stop=args.stop,
                             step=args.step, systems=tuple(args.systems.split(",")),
                             method=args.method)
            return _write_out(args.out, run_sweep(params, topo, spec))

        if args.command == "placement":
            return _write_out(args.out, run_placement(params, topo, args.scheme.upper(),
                                                      args.grid_step), PLACEMENT_COLUMNS)

        if args.command == "compare":
            cmp = compare_schemes(params, topo)
            split = closed_form_split(params.total_budget, params.cost_active,
                                      params.cost_passive, TAPR)
            regime = check_lemma1(params, topo, split.n_pas, epsilon=args.epsilon)
            order = ">=" if cmp.tapr_at_least_tpar else "<"
            print(f"TAPR {order} TPAR  margin={cmp.margin:.6e} "
                  f"(1/rho={cmp.inv_ref_gain:.6e}, rhs={cmp.rhs:.6e})")
            print(f"regime ratio={regime.ratio:.6f} epsilon={regime.epsilon} "
                  f"satisfied={regime.satisfied}")
            return 0

        if args.command == "verify":
            report = run_verify(params, topo, seed=args.seed)
            all_ok = True
            for name, ok, detail in report:
                print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
                all_ok &= ok
            return 0 if all_ok else 2

    except IrsAllocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
