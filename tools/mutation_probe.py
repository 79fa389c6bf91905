"""Mutation probe: does some test fail when a documented rule is broken?

Each mutant replaces one line of a source file. For every mutant the probe
copies src/, tests/, configs/ and pyproject.toml to a temporary directory, applies the
mutant there, and runs its test selection with pytest. The mutant is killed
when the run fails; it survives when every selected test passes. The two
documented known-red acceptance criteria (8b and 8c) are always deselected,
so they cannot kill a mutant. The probe changes no file of the repository and
is not part of the test suite.

Before any mutant it runs every selection on the unmutated copy, which must
pass, so that a failure means the mutant was caught.

    python tools/mutation_probe.py

Exit status: 0 when every mutant is killed, 1 when one survives or cannot be
applied, 2 when the unmutated copy fails its selections.

A rule added to the library later gets its mutant here. A mutant that no test
can kill, because it leaves every output the same, goes in EQUIVALENT with a
one-line reason, and is not run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
KNOWN_RED = ("tests/test_acceptance.py::test_criterion_8b_tpar_vs_single_airs",
             "tests/test_acceptance.py::test_criterion_8c_tapr_hybrid_crossover")
ALLOCATION = "src/irsalloc/allocation.py"
PLACEMENT = "src/irsalloc/placement.py"
REFLECTION = "src/irsalloc/reflection.py"
SNR = "src/irsalloc/snr.py"
TIMEOUT_S = 300

# (name, file, old line, new line, test selection); lines are compared with
# their indentation stripped, and an empty new line deletes the old one
MUTANTS = [
    ("best-row-tie-first", ALLOCATION,
     "k = tied[np.lexsort((n_act[tied], n_pas[tied]))[-1]]",
     "k = tied[np.lexsort((n_act[tied], n_pas[tied]))[0]]",
     "tests/test_allocation.py"),
    ("largest-count-no-down-correction", ALLOCATION,
     "k -= ~ok(k)  # one down where the floor is too many", "",
     "tests/test_allocation.py"),
    ("largest-count-no-up-correction", ALLOCATION,
     "k += 1.0  # in place: a k + 1.0 passed to ok would hold one more row array", "",
     "tests/test_allocation.py"),
    ("affordable-strict-budget", ALLOCATION,
     "return largest_count((budget - spent) / cost, lambda k: spent + cost * k <= budget)",
     "return largest_count((budget - spent) / cost, lambda k: spent + cost * k < budget)",
     "tests/test_allocation.py"),
    ("tpar-cap-strict-amplitude", ALLOCATION,
     "lambda k: beta_sq(params, d1, d2, n_act, k) >= 1.0))",
     "lambda k: beta_sq(params, d1, d2, n_act, k) > 1.0))",
     "tests/test_allocation.py"),
    ("scan-rows-no-passive-element", ALLOCATION,
     "return _largest((m - wp) / wa, lambda k: wa * k + wp <= m)",
     "return _largest((m - wp) / wa, lambda k: wa * k <= m)",
     "tests/test_allocation.py"),
    ("scan-rows-guard-inclusive", ALLOCATION,
     "if rows > MAX_SCAN_ROWS:", "if rows >= MAX_SCAN_ROWS:",
     "tests/test_allocation.py"),
    ("row-rule-no-down-correction", ALLOCATION,
     "k -= not ok(k)  # one down where the floor is too many", "",
     "tests/test_allocation.py"),
    ("row-rule-no-up-correction", ALLOCATION,
     "k += 1.0", "",
     "tests/test_allocation.py"),
    ("row-rule-strict-tpar-cap", ALLOCATION,
     "lambda k: beta_sq(params, d1, d2, n, k) >= 1.0))",
     "lambda k: beta_sq(params, d1, d2, n, k) > 1.0))",
     "tests/test_allocation.py"),
    ("walk-no-margin", ALLOCATION,
     "return zeta_of(a, b, n, pas) * (1.0 - _MARGIN)",
     "return zeta_of(a, b, n, pas)",
     "tests/test_allocation.py"),
    ("walk-no-pv-slack", ALLOCATION,
     "params.amp_power_budget * (1.0 + _MARGIN))))",
     "params.amp_power_budget)))",
     "tests/test_allocation.py"),
    ("walk-left-side-only", ALLOCATION,
     "while (right <= rows and pas(right) >= 1.0",
     "while (False",
     "tests/test_allocation.py"),
    ("walk-right-side-only", ALLOCATION,
     "while (left := corner(p + 1.0)) >= 1.0 and \\",
     "while False and \\",
     "tests/test_allocation.py"),
    ("walk-tie-to-smaller-n-pas", ALLOCATION,
     "if best is None or key > best[0]:",
     "if best is None or (key[0], -key[1]) > (best[0][0], -best[0][1]):",
     "tests/test_allocation.py"),
    ("walk-rows-not-corners", ALLOCATION,
     "right = corner(pas(right))", "",
     "tests/test_allocation.py"),
    ("walk-corner-no-step-up", ALLOCATION,
     "while n < rows and pas(n + 1.0) >= p:",
     "while False:",
     "tests/test_allocation.py"),
    ("walk-seed-ignores-cap", ALLOCATION,
     "if not capped(x):", "if True:",
     "tests/test_allocation.py"),
    ("ao-stops-at-no-gain", PLACEMENT,
     "if sol.rate - prev_rate < AO_TOL:",
     "if sol.rate - prev_rate <= 0.0:",
     "tests/test_placement.py"),
    ("placement-no-tie-tolerance", PLACEMENT,
     "near = 1.0 - 1e-12  # relative tie tolerance",
     "near = 1.0",
     "tests/test_placement.py"),
    ("placement-tie-max", PLACEMENT,
     "return _place(geo, *min(hit[1:] for hit in hits if hit[0] <= cut))",
     "return _place(geo, *max(hit[1:] for hit in hits if hit[0] <= cut))",
     "tests/test_placement.py"),
    ("scan-stops-at-best", PLACEMENT,
     "if low[row] > cut:",
     "if low[row] > best:",
     "tests/test_placement.py"),
    ("scan-visits-masked-rows", PLACEMENT,
     "rest = np.flatnonzero(low <= cut if cut < math.inf else low < math.inf)",
     "rest = np.flatnonzero(low <= cut)",
     "tests/test_placement.py"),
    ("scan-revisits-first-row", PLACEMENT,
     "low[first] = math.inf", "",
     "tests/test_placement.py"),
    ("scan-records-masked-zeta", PLACEMENT,
     "if best == math.inf:",
     "if False:",
     "tests/test_placement.py"),
    ("placement-d2-strict", PLACEMENT,
     "feasible = (d2 >= geo.least) & geo.far_col",
     "feasible = (d2 > geo.least) & geo.far_col",
     "tests/test_placement.py"),
    ("rows-ok-no-row-distance", PLACEMENT,
     "gap_x=gap_x, gap_y=gap_y, m=m, rows_ok=(d_row >= least) & np.isfinite(m))",
     "gap_x=gap_x, gap_y=gap_y, m=m, rows_ok=np.isfinite(m))",
     "tests/test_placement.py"),
    ("tpar-d1-not-raised", PLACEMENT,
     "d_row=d_row, a=a, b=b, f_col=f_col, far_col=far_col, d1_floor=np.maximum(d1, least),",
     "d_row=d_row, a=a, b=b, f_col=f_col, far_col=far_col, d1_floor=d1,",
     "tests/test_placement.py"),
    ("place-ixb-iya-swapped", PLACEMENT,
     "def _place(geo: _Geometry, ixa: int, ixb: int, iya: int, iyb: int) -> Topology:",
     "def _place(geo: _Geometry, ixa: int, iya: int, ixb: int, iyb: int) -> Topology:",
     "tests/test_placement.py"),
    ("place-no-domain-check", PLACEMENT,
     "if not max(map(abs, pos)) <= MAX_COORDINATE:",
     "if False:",
     "tests/test_placement.py"),
    ("check-size-no-y-gaps", PLACEMENT,
     "if not max(xa * ya, xb * yb, xa * xb, ya * yb) <= _MAX_GRID_POINTS:",
     "if not max(xa * ya, xb * yb, xa * xb) <= _MAX_GRID_POINTS:",
     "tests/test_placement.py"),
    ("topology-no-min-distance", "src/irsalloc/scenario.py",
     "if d < d_min:", "if False:",
     "tests/test_scenario.py"),
    ("placement-tapr-cap-strict", PLACEMENT,
     "ok = ok & (alpha_sq(params, geo.d_row, alloc.n_act) >= 1.0)",
     "ok = ok & (alpha_sq(params, geo.d_row, alloc.n_act) > 1.0)",
     "tests/test_placement.py"),
    ("placement-tpar-cap-strict", PLACEMENT,
     "feasible &= beta_sq(params, geo.d1_floor, d2, alloc.n_act, alloc.n_pas) >= 1.0",
     "feasible &= beta_sq(params, geo.d1_floor, d2, alloc.n_act, alloc.n_pas) > 1.0",
     "tests/test_placement.py"),
    ("beta-sq-pow-square", REFLECTION,
     "return pv * d2 ** 2 / (pt * rho ** 2 * x_act * (x_pas * x_pas) / d1 ** 2",
     "return pv * d2 ** 2 / (pt * rho ** 2 * x_act * x_pas ** 2 / d1 ** 2",
     "tests/test_reflection.py"),
    ("zeta-of-pow-square", SNR,
     "return a / x_act + b / (x_act * (x_pas * x_pas))",
     "return a / x_act + b / (x_act * x_pas ** 2)",
     "tests/test_snr.py"),
    ("exact-matrix-no-count-check", SNR,
     "if (channels.n_first, channels.n_second) != surface_counts(alloc):",
     "if False:",
     "tests/test_snr.py"),
    ("single-airs-ok-no-budget", "src/irsalloc/benchmarks.py",
     "lambda k: (k <= afford) & (alpha_sq(params, da, np.maximum(k, 1.0)) >= 1.0))",
     "lambda k: alpha_sq(params, da, np.maximum(k, 1.0)) >= 1.0)",
     "tests/test_benchmarks.py"),
]

# (name, file, old line, new line, why no test can tell it apart)
EQUIVALENT: list[tuple[str, str, str, str, str]] = []


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "configs"):
        shutil.copytree(REPO / name, dest / name, ignore=ignore)
    shutil.copy2(REPO / "pyproject.toml", dest / "pyproject.toml")


def mutate(root: Path, path: str, old: str, new: str) -> None:
    """Replace the one line of root/path that reads old (indentation
    stripped) with new at the same indentation; ValueError unless exactly one
    line matches."""
    target = root / path
    lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        raise ValueError(f"{path}: {len(hits)} lines read {old!r}, expected 1")
    i = hits[0]
    indent = lines[i][:len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = f"{indent}{new}\n" if new else ""
    target.write_text("".join(lines), encoding="utf-8")


def run_tests(root: Path, selection: list[str]) -> subprocess.CompletedProcess:
    """The selection's pytest run; a run that outlasts TIMEOUT_S fails, as a
    mutant that makes a loop endless is caught."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           *selection, *(f"--deselect={t}" for t in KNOWN_RED)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, 1, f"timed out after {TIMEOUT_S} s", "")


def summary(proc: subprocess.CompletedProcess) -> str:
    """pytest's last line, after the first failed test if there is one."""
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.stderr.strip()[-200:]
    failed = [line.split(" - ")[0] for line in lines if line.startswith("FAILED ")]
    return " ".join(failed[:1] + lines[-1:])


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        selections = sorted({m[4] for m in MUTANTS})
        proc = run_tests(base, selections)
        if proc.returncode != 0:
            print(proc.stdout[-4000:])
            print(f"unmutated copy fails {' '.join(selections)}: {summary(proc)}")
            return 2
        print(f"unmutated: {summary(proc)}")
        failed = 0
        for n, (name, path, old, new, selection) in enumerate(MUTANTS):
            root = Path(tmp) / f"m{n}"
            copy_tree(root)
            try:
                mutate(root, path, old, new)
            except ValueError as exc:
                print(f"STALE     {name}: {exc}")
                failed += 1
                continue
            t0 = time.perf_counter()
            proc = run_tests(root, [selection])
            # pytest exits 1 when a test fails; any other nonzero status is a
            # run that could not tell
            verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
            failed += verdict != "killed"
            print(f"{verdict:9} {name} ({selection}, {time.perf_counter() - t0:.1f} s): "
                  f"{summary(proc)}")
            shutil.rmtree(root)
    for name, _, _, _, why in EQUIVALENT:
        print(f"equivalent {name}: {why}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} killed, "
          f"{len(EQUIVALENT)} equivalent, in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
