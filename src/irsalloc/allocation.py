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

Integer: for a fixed n_act, zeta strictly decreases in n_pas, while the
active amplitude does not depend on n_pas (TAPR) or decreases in it (TPAR).
Each n_act row is therefore best at the largest n_pas that both the budget
and the amplitude cap allow: the row rule. Every largest count, here and in
benchmarks, is largest_count: a floored estimate stepped once each way by the
count's own test, so rounding in the estimate cannot change the answer.
Exact ties go to the larger n_pas, then the larger n_act.

solve_integer checks its inputs, hands the topology's distances (d1, d2,
d3) to its method's kernel, which returns (snr, n_act, n_pas), and builds
the answer. "exhaustive" applies the row rule to every affordable n_act at
once, as arrays (_best_row), is the oracle, and refuses more than
MAX_SCAN_ROWS rows. "optimal" walks a few rows in Python floats at any
budget (_corner_walk), with the same answer bit for bit: both row rules take
the cap from reflection's squared amplitudes and zeta from snr.zeta_of,
which give a count as a float or as an array element one result. Not so a
distance (see reflection), so the kernels take Python-float distances.

- Corners. The budget, alpha* and beta* all fall in n_act, so n_pas does not
  increase in n_act (wherever largest_count's premise holds): the rows form
  runs of equal n_pas, and the feasible rows (n_pas >= 1) are a prefix.
  Within a run zeta does not increase in n_act, in floats too (each
  operation is monotone under round-to-nearest), and ties go to the larger
  n_act, so only the run's last row, its corner, can win. The corner of the
  rows with n_pas >= p is estimated from the budget and the cap solved for
  n_act, then made exact by steps of the row rule (_corner).
- Bound. zeta_lb(n) is zeta at n_act = n and the real n_pas the budget
  allows, (M - W_act*n)/W_pas, or for TPAR the smaller of that and sqrt(q),
  the n_pas at which beta* = 1 (pas_cap_sq; _walk_bound). It is at most
  zeta at every row n_act = n, and it is convex in n: A/n,
  B*W_pas^2/(n*(M - W_act*n)^2) and B*Pt*rho^2/(d1^2*d2^2*(Pv - sigma_v^2*n))
  are convex, and so is the larger of two. So the rows whose bound is at
  most a given value form an interval.
- Walk. The seed is the row nearest the bound's own minimum
  (_relaxed_optimum): the continuous root; for TPAR, where the cap binds
  there, the minimum along the cap or where the cap crosses the budget line.
  An infeasible seed moves to the last feasible row. The walk visits the
  seed, then corners to the right, then corners to the left, and stops on
  each side at the first row past the span it covers whose bound, less a
  relative margin, exceeds the best zeta so far. The best row lies in that
  span and in the bound's interval, so every row past a stop row lies
  outside the interval. On the baseline's Pv sweep (-40 to 59 dBm) a walk
  visits at most about 100 rows at budgets up to 5e6, and 1,500 up to 1e9.
- Margin (the float argument). The budget test W_act*n + W_pas*k <= M,
  rounded, can admit a k up to half an ulp of M, over W_pas, above the real
  budget line: at most 2^-53*M/W_pas <= 1.2e-7 (the domain affords at most
  1e9 elements), or 1.2e-7 of n_pas at k >= 1 and 2.4e-7 of zeta. The
  beta* test rounds sigma_v^2*n against Pv, which can be most of
  Pv - sigma_v^2*n where the two nearly cancel, so the bound raises q's Pv by
  the margin, far above those few ulps of Pv. What is left, the rounding of
  the bound (sqrt(q) among it), of zeta and of the SNR, is a few ulps. So the
  bound less the margin, 1e-6, stays below the zeta of every row past a stop
  row by more than the relative gap between two zetas whose SNRs round
  equal: no row there reaches the best row's SNR, and a row that ties it is
  visited.

The closed-form split (M/(3*W_act), 2*M/(3*W_pas)) is optimal for the
approximate objective and is the same for both deployment orders; the
"closed-form" integer method is its literal rounding: the row
n_act = max(1, round(M/(3*W_act))), through the walk's row rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleBudget, SearchSpaceTooLarge
from .reflection import alpha_sq, beta_sq, optimal_amplitude, pas_cap_sq
from .scenario import MAX_ELEMENTS, SystemParams, TAPR, Topology, check_budget, \
    check_positive, check_scheme, fmt_number
from .snr import objective_constants, rate_from_snr, snr_from_zeta, zeta_of, zeta_value

# most n_act rows one integer scan holds in memory; at this bound its
# tracemalloc peak is about 33 MB (TAPR) and 48 MB (TPAR)
MAX_SCAN_ROWS = 1_000_000
# the corner walk's relative bound margin (see the module docstring)
_MARGIN = 1e-6
METHODS = ("optimal", "closed-form", "exhaustive")


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


def _continuous_root(a: float, b: float, m: float, wa: float,
                     wp: float) -> tuple[float, float]:
    """(x_act, x_pas) at the one real root of c*x_pas^3 + x_pas = 2M/(3*W_pas)
    with c = A/(3B), on the budget line."""
    u0 = 2.0 * m / (3.0 * wp)
    # the hyperbolic form of the one real root; Cardano's form loses
    # precision to cancellation when A/B is small (large d2)
    s = math.sqrt(a / b)
    x_pas = u0 if s == 0.0 else 2.0 / s * math.sinh(math.asinh(1.5 * u0 * s) / 3.0)
    return (m - wp * x_pas) / wa, x_pas


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
    a, b = objective_constants(params, scheme, topo.d1, topo.d2, topo.d3, approx)
    x_act, x_pas = _continuous_root(a, b, m, params.cost_active, params.cost_passive)
    alloc = Allocation(n_act=x_act, n_pas=x_pas, scheme=scheme, continuous=True)
    return _solution(params, topo, alloc, snr_from_zeta(params, zeta_of(a, b, x_act, x_pas)),
                     method="optimal")


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


def _largest_feasible_pas(params: SystemParams, scheme: str, d1: float, d2: float,
                          n_act: np.ndarray, budget: float) -> np.ndarray:
    """Per n_act row, the largest n_pas (0 if none) within the budget whose
    active amplitude is >= 1."""
    hi = affordable(budget, params.cost_active * n_act, params.cost_passive)
    if scheme == TAPR:
        return np.where(alpha_sq(params, d1, n_act) >= 1.0, hi, 0.0)
    # beta* >= 1 exactly when n_pas^2 <= q, and beta* decreases in n_pas
    q = pas_cap_sq(params, d1, d2, n_act, params.amp_power_budget)
    return np.minimum(hi, largest_count(np.sqrt(np.maximum(q, 0.0)),
                                        lambda k: beta_sq(params, d1, d2, n_act, k) >= 1.0))


def _no_feasible_row(budget: float) -> InfeasibleBudget:
    return InfeasibleBudget(
        f"no integer allocation within budget {budget} has an active amplitude >= 1")


def _best_row(params: SystemParams, scheme: str, d1: float, d2: float, d3: float,
              n_act: np.ndarray, budget: float) -> tuple:
    """(snr, n_act, n_pas) of the max-rate pair over the given n_act rows,
    each at its largest feasible n_pas; exact ties go to the larger n_pas,
    then the larger n_act."""
    n_pas = _largest_feasible_pas(params, scheme, d1, d2, n_act, budget)
    keep = n_pas >= 1.0
    if not keep.any():
        raise _no_feasible_row(budget)
    n_act, n_pas = n_act[keep], n_pas[keep]
    snr = snr_from_zeta(params, zeta_value(params, scheme, n_act, n_pas, d1, d2, d3))
    tied = np.flatnonzero(snr == snr.max())
    k = tied[np.lexsort((n_act[tied], n_pas[tied]))[-1]]
    return snr[k], n_act[k], n_pas[k]


def _largest(estimate: float, ok) -> float:
    """largest_count of one Python float, step for step."""
    k = float(math.floor(estimate))
    k -= not ok(k)  # one down where the floor is too many
    k += 1.0
    k -= not ok(k)  # and back unless ok allows the step up
    return max(k, 0.0)


def _scan_rows(rows):
    """rows, a count of n_act rows to scan; SearchSpaceTooLarge above MAX_SCAN_ROWS."""
    if rows > MAX_SCAN_ROWS:
        raise SearchSpaceTooLarge(f"{fmt_number(rows, 0)} n_act rows exceed the scan bound "
                                  f"{MAX_SCAN_ROWS}")
    return rows


def _rows(params: SystemParams, m: float) -> float:
    """Every n_act row that affords one passive element, as affordable tests it."""
    wa, wp = params.cost_active, params.cost_passive
    return _largest((m - wp) / wa, lambda k: wa * k + wp <= m)


def _row_pas(params: SystemParams, scheme: str, d1: float, d2: float, n: float,
             m: float) -> float:
    """_largest_feasible_pas of the one row n_act = n, in Python floats, bit for bit."""
    spent, wp = params.cost_active * n, params.cost_passive
    hi = _largest((m - spent) / wp, lambda k: spent + wp * k <= m)
    if scheme == TAPR:
        return hi if alpha_sq(params, d1, n) >= 1.0 else 0.0
    q = pas_cap_sq(params, d1, d2, n, params.amp_power_budget)
    return min(hi, _largest(math.sqrt(max(q, 0.0)),
                            lambda k: beta_sq(params, d1, d2, n, k) >= 1.0))


def _walk_bound(params: SystemParams, scheme: str, a: float, b: float, d1: float,
                d2: float, n: float, m: float) -> float:
    """zeta_lb(n) of the module docstring, less the margin: zeta at the real
    n_pas the budget and, for TPAR, beta* >= 1 allow, with q's Pv raised by
    the margin."""
    pas = (m - params.cost_active * n) / params.cost_passive
    if scheme != TAPR:
        # q > 0 at every row the walk bounds: it affords n_pas >= 1 at the real Pv
        pas = min(pas, math.sqrt(pas_cap_sq(params, d1, d2, n,
                                            params.amp_power_budget * (1.0 + _MARGIN))))
    return zeta_of(a, b, n, pas) * (1.0 - _MARGIN)


def _relaxed_optimum(params: SystemParams, scheme: str, a: float, b: float, d1: float,
                     d2: float, m: float) -> float:
    """The real n_act that minimizes zeta at the real n_pas the budget and,
    for TPAR, beta* >= 1 allow: the continuous root where the cap does not
    bind there; else the minimum of zeta along the cap, if the cap binds
    there, or a point where the budget and the cap cross between the two."""
    wa, wp = params.cost_active, params.cost_passive
    x, _ = _continuous_root(a, b, m, wa, wp)
    if scheme == TAPR:
        return x
    pv, sv2 = params.amp_power_budget, params.amp_noise_power

    def capped(n):
        pas = max(m - wa * n, 0.0) / wp
        return pas * pas > pas_cap_sq(params, d1, d2, n, pv)

    if not capped(x):
        return x
    # along the cap n_pas^2 = c*(Pv - sv2*n)/n: zeta = a/n + b/(c*(Pv - sv2*n)), least at y
    c = d1 ** 2 * d2 ** 2 / (params.transmit_power * params.ref_gain ** 2)
    y = pv / (sv2 + math.sqrt(b * sv2 / (c * a)))
    if capped(y):
        return y
    while abs(x - y) > 0.5:
        mid = 0.5 * (x + y)
        x, y = (mid, y) if capped(mid) else (x, mid)
    return y


def _corner(pas, estimate: float, rows: float, p: float) -> float:
    """The last row n in [0, rows] whose n_pas, pas(n), is at least p, or 0:
    the corner of its run. estimate is that row to within a few rows; n_pas
    does not increase in n_act, so the steps from it make the answer exact."""
    n = min(max(float(math.floor(estimate)), 0.0), rows)
    while n > 0.0 and pas(n) < p:
        n -= 1.0
    while n < rows and pas(n + 1.0) >= p:
        n += 1.0
    return n


def _corner_walk(params: SystemParams, scheme: str, d1: float, d2: float, d3: float,
                 m: float) -> tuple:
    """(snr, n_act, n_pas) of the exact integer optimum, by the certified
    corner walk of the module docstring; solve_integer's scan gives the same,
    bit for bit."""
    rows = _rows(params, m)
    a, b = objective_constants(params, scheme, d1, d2, d3)
    wa, wp = params.cost_active, params.cost_passive
    memo = {}  # a dict, not functools.cache: that costs more to build per walk

    def pas(n):
        if n not in memo:
            memo[n] = _row_pas(params, scheme, d1, d2, n, m)
        return memo[n]

    # the last row with n_pas >= p, from the budget and from the cap: alpha*^2
    # and beta*(n_act, p)^2 fall as 1/n_act, so it is their value at n_act = 1
    def corner(p):
        cap = alpha_sq(params, d1, 1.0) if scheme == TAPR else beta_sq(params, d1, d2, 1.0, p)
        return _corner(pas, min((m - wp * p) / wa, cap), rows, p)

    best = None  # (snr, n_pas, n_act) of the best row visited, and its zeta

    def visit(n):
        nonlocal best
        p = pas(n)
        zeta = zeta_of(a, b, n, p)
        key = (snr_from_zeta(params, zeta), p, n)
        if best is None or key > best[0]:
            best = key, zeta

    seed = min(max(float(round(_relaxed_optimum(params, scheme, a, b, d1, d2, m))), 1.0),
               rows)
    if pas(seed) < 1.0:
        # feasible rows are a prefix; take the last one
        seed = corner(1.0)
        if seed < 1.0:
            raise _no_feasible_row(m)
    visit(seed)
    right = seed + 1.0
    while (right <= rows and pas(right) >= 1.0
           and _walk_bound(params, scheme, a, b, d1, d2, right, m) <= best[1]):
        right = corner(pas(right))
        visit(right)
        right += 1.0
    p = pas(seed)
    while (left := corner(p + 1.0)) >= 1.0 and \
            _walk_bound(params, scheme, a, b, d1, d2, left, m) <= best[1]:
        visit(left)
        p = pas(left)
    snr, p, n = best[0]
    return snr, n, p


def solve_integer(params: SystemParams, topo: Topology, scheme: str,
                  method: str = "optimal", budget: float | None = None) -> AllocationSolution:
    """Integer allocation: the exact corner walk ("optimal"), the exact scan
    ("exhaustive") or the literal rounding of the closed-form split
    ("closed-form"), one of METHODS."""
    m = _budget(params, budget)
    if method not in METHODS:
        raise ConfigError(f"unknown allocation method {method!r}")
    check_scheme(scheme)
    d1, d2, d3 = topo.d1, topo.d2, topo.d3
    if method == "optimal":
        snr, n, p = _corner_walk(params, scheme, d1, d2, d3, m)
    elif method == "exhaustive":
        n_act = np.arange(1.0, _scan_rows(_rows(params, m)) + 1.0)
        snr, n, p = _best_row(params, scheme, d1, d2, d3, n_act, m)
    else:
        split = closed_form_split(m, params.cost_active, params.cost_passive, scheme)
        n = float(max(1, round(split.n_act)))
        p = _row_pas(params, scheme, d1, d2, n, m)
        if p < 1.0:
            raise _no_feasible_row(m)
        snr = snr_from_zeta(params, zeta_value(params, scheme, n, p, d1, d2, d3))
    alloc = Allocation(n_act=int(n), n_pas=int(p), scheme=scheme)
    return _solution(params, topo, alloc, snr, method=method)
