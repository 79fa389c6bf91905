"""Element-allocation solvers.

The allocation problem minimizes zeta = A/x_act + B/(x_act*x_pas^2) (see
snr.objective_constants) under the budget W_act*x_act + W_pas*x_pas <= M and
an active amplitude >= 1.

Continuous: the budget is active at the optimum. On the budget line
x_act = (M - W_pas*x_pas)/W_act, and dzeta/dx_pas = 0 is the cubic
c*x_pas^3 + x_pas = u0 with c = A/(3B) and u0 = 2M/(3*W_pas). Its left side
increases strictly, so its one real root, in (0, u0], is the optimum:
x_pas = (2/s)*sinh(asinh(1.5*u0*s)/3) with s = sqrt(A/B), and x_pas = u0
when A = 0. The tests certify it against a dense-grid oracle. The amplitude
cap is ignored, so its rate bounds every integer allocation's rate from above.

Integer ("optimal" and "exhaustive", one exact solver): for a fixed n_act,
zeta strictly decreases in n_pas, while the active amplitude does not depend
on n_pas (TAPR) or decreases in it (TPAR). Each n_act row is therefore best
at the largest n_pas that both the budget and the amplitude cap allow, and
the optimum is a vectorised scan over n_act. Every largest count, here and in
benchmarks, is largest_count: a floored estimate stepped once each way by the
count's own test, so rounding in the estimate cannot change the answer.

The closed-form split (M/(3*W_act), 2*M/(3*W_pas)) is optimal for the
approximate objective and is the same for both deployment orders; the
"closed-form" integer method is its literal rounding: the scan row at
n_act = max(1, round(M/(3*W_act))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InfeasibleBudget, SearchSpaceTooLarge
from .reflection import alpha_star, beta_star, optimal_amplitude
from .scenario import MAX_ELEMENTS, SystemParams, TAPR, Topology, check_budget, \
    check_positive, check_scheme, fmt_number
from .snr import objective_constants, rate_from_snr, snr_from_zeta, zeta_value

# most n_act rows one integer scan holds in memory; at this bound its
# tracemalloc peak is about 33 MB (TAPR) and 48 MB (TPAR)
MAX_SCAN_ROWS = 1_000_000


@dataclass(frozen=True)
class Allocation:
    """Element counts for one deployment order; integer unless continuous."""

    n_act: float
    n_pas: float
    scheme: str
    continuous: bool = False

    def __post_init__(self):
        check_scheme(self.scheme)
        # nan fails every comparison; inf must not reach int()
        if self.continuous:
            if not (0 < self.n_act <= MAX_ELEMENTS and 0 < self.n_pas <= MAX_ELEMENTS):
                raise ConfigError(f"continuous counts must be > 0 and at most {MAX_ELEMENTS:g}")
        else:
            for name in ("n_act", "n_pas"):
                v = getattr(self, name)
                if not 1 <= v <= MAX_ELEMENTS or v != int(v):
                    raise ConfigError(f"{name}={v!r} must be an integer in [1, {MAX_ELEMENTS:g}]")

    def cost(self, params: SystemParams) -> float:
        return params.cost_active * self.n_act + params.cost_passive * self.n_pas


@dataclass(frozen=True)
class AllocationSolution:
    allocation: Allocation
    amplitude: float
    snr: float
    rate: float
    method: str


def _solution(params: SystemParams, topo: Topology, alloc: Allocation, snr,
              method: str) -> AllocationSolution:
    """The solution at alloc, reporting the SNR its solver ranked."""
    snr = float(snr)
    return AllocationSolution(allocation=alloc,
                              amplitude=optimal_amplitude(params, topo, alloc),
                              snr=snr, rate=rate_from_snr(snr), method=method)


def _budget(params: SystemParams, budget) -> float:
    """The total budget, or the override after the domain's budget check;
    InfeasibleBudget when it cannot afford one element of each kind."""
    m = params.total_budget if budget is None else check_budget(budget, params.cost_passive)
    if m < params.cost_active + params.cost_passive:
        raise InfeasibleBudget(f"budget {m} cannot afford one element of each kind")
    return m


def closed_form_split(budget: float, w_act: float, w_pas: float,
                      scheme: str) -> Allocation:
    """Near-optimal continuous split: a third of the budget on active elements."""
    w_act, w_pas = check_positive("w_act", w_act), check_positive("w_pas", w_pas)
    budget = check_budget(budget, min(w_act, w_pas))
    if budget <= 0:
        raise InfeasibleBudget("budget must be positive")
    return Allocation(n_act=budget / (3.0 * w_act), n_pas=2.0 * budget / (3.0 * w_pas),
                      scheme=scheme, continuous=True)


def solve_continuous(params: SystemParams, topo: Topology, scheme: str,
                     approx: bool = False,
                     budget: float | None = None) -> AllocationSolution:
    """Continuous optimum on the active budget line: the root of
    c*x_pas^3 + x_pas = 2M/(3*W_pas) with c = A/(3B).

    approx=True minimizes the dominant-term objective instead (A = 0), whose
    optimum is the closed-form split, and reports that objective's SNR.
    """
    check_scheme(scheme)
    m = _budget(params, budget)
    wa, wp = params.cost_active, params.cost_passive
    a, b = objective_constants(params, scheme, topo.d1, topo.d2, topo.d3, approx)
    u0 = 2.0 * m / (3.0 * wp)
    # the hyperbolic form of the one real root; Cardano's form loses
    # precision to cancellation when A/B is small (large d2)
    s = math.sqrt(a / b)
    x_pas = u0 if s == 0.0 else 2.0 / s * math.sinh(math.asinh(1.5 * u0 * s) / 3.0)
    x_act = (m - wp * x_pas) / wa
    alloc = Allocation(n_act=x_act, n_pas=x_pas, scheme=scheme, continuous=True)
    zeta = zeta_value(params, scheme, x_act, x_pas, topo.d1, topo.d2, topo.d3, approx)
    return _solution(params, topo, alloc, snr_from_zeta(params, zeta), method="optimal")


def largest_count(estimate, ok):
    """The largest whole k >= 0 with ok(k), as a float; elementwise over an
    array estimate. ok must hold up to that count and fail above it, and
    floor(estimate) must miss the count by at most one."""
    k = np.floor(estimate)
    del estimate  # the caller's temporary: one row array fewer while ok runs
    k -= ~ok(k)  # one down where the floor is too many
    k += 1.0  # in place: a k + 1.0 passed to ok would hold one more row array
    k -= ~ok(k)  # and back unless ok allows the step up
    return np.maximum(k, 0.0)


def affordable(budget: float, spent, cost: float):
    """The largest whole count k >= 0 with spent + cost*k <= budget, as a
    float; elementwise over an array of spent."""
    return largest_count((budget - spent) / cost, lambda k: spent + cost * k <= budget)


def _largest_feasible_pas(params: SystemParams, topo: Topology, scheme: str,
                          n_act: np.ndarray, budget: float) -> np.ndarray:
    """Per n_act row, the largest n_pas (0 if none) within the budget whose
    active amplitude is >= 1."""
    hi = affordable(budget, params.cost_active * n_act, params.cost_passive)
    if scheme == TAPR:
        return np.where(alpha_star(params, topo.d1, n_act) >= 1.0, hi, 0.0)
    # beta* >= 1 exactly when n_pas^2 <= q, and beta* decreases in n_pas
    pt, pv = params.transmit_power, params.amp_power_budget
    d1, d2 = topo.d1, topo.d2
    q = d1 ** 2 * d2 ** 2 * (pv - params.amp_noise_power * n_act) / (
        pt * params.ref_gain ** 2 * n_act)
    return np.minimum(hi, largest_count(np.sqrt(np.maximum(q, 0.0)),
                                        lambda k: beta_star(params, d1, d2, n_act, k) >= 1.0))


def _best_row(params: SystemParams, topo: Topology, scheme: str, n_act: np.ndarray,
              budget: float, method: str) -> AllocationSolution:
    """Max-rate pair over the given n_act rows, each at its largest feasible
    n_pas; exact ties go to the larger n_pas, then the larger n_act."""
    n_pas = _largest_feasible_pas(params, topo, scheme, n_act, budget)
    keep = n_pas >= 1.0
    if not keep.any():
        raise InfeasibleBudget(
            f"no integer allocation within budget {budget} has an active amplitude >= 1")
    n_act, n_pas = n_act[keep], n_pas[keep]
    snr = snr_from_zeta(params, zeta_value(params, scheme, n_act, n_pas,
                                           topo.d1, topo.d2, topo.d3))
    tied = np.flatnonzero(snr == snr.max())
    k = tied[np.lexsort((n_act[tied], n_pas[tied]))[-1]]
    alloc = Allocation(n_act=int(n_act[k]), n_pas=int(n_pas[k]), scheme=scheme)
    return _solution(params, topo, alloc, snr[k], method=method)


def exhaustive_search(params: SystemParams, topo: Topology, scheme: str,
                      budget: float | None = None) -> AllocationSolution:
    """Exact integer optimum: a scan over every affordable n_act."""
    check_scheme(scheme)
    m = _budget(params, budget)
    # every n_act row that affords one passive element, tested as affordable does
    wa, wp = params.cost_active, params.cost_passive
    rows = largest_count((m - wp) / wa, lambda k: wa * k + wp <= m)
    if rows > MAX_SCAN_ROWS:
        raise SearchSpaceTooLarge(f"{fmt_number(rows, 0)} n_act rows exceed the scan bound "
                                  f"{MAX_SCAN_ROWS}")
    return _best_row(params, topo, scheme, np.arange(1.0, rows + 1.0), m,
                     method="exhaustive")


def solve_integer(params: SystemParams, topo: Topology, scheme: str,
                  method: str = "optimal", budget: float | None = None) -> AllocationSolution:
    """Integer allocation: the exact scan ("optimal" and "exhaustive") or the
    literal rounding of the closed-form split ("closed-form")."""
    m = _budget(params, budget)
    if method in ("optimal", "exhaustive"):
        sol = exhaustive_search(params, topo, scheme, budget=m)
        return replace(sol, method=method)
    if method == "closed-form":
        split = closed_form_split(m, params.cost_active, params.cost_passive, scheme)
        row = np.array([max(1, round(split.n_act))], dtype=float)
        return _best_row(params, topo, scheme, row, m, method="closed-form")
    raise ConfigError(f"unknown allocation method {method!r}")
