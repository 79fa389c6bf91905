"""CLI driver: sweeps, CSV contract, verification suite and exit codes."""

import csv
import io
import math
from dataclasses import replace

import pytest

from irsalloc import ConfigError, LinkBudget, SearchSpaceTooLarge, compare_schemes
from irsalloc.allocation import MAX_SCAN_ROWS
from irsalloc.cli import (
    ALL_SYSTEMS, CSV_COLUMNS, PLACEMENT_COLUMNS, SweepSpec, main, run_placement,
    run_sweep, run_verify, write_csv,
)
from irsalloc.scenario import fmt_number
from conftest import traced_peak


def rows_to_csv(rows, columns=CSV_COLUMNS):
    buf = io.StringIO()
    write_csv(rows, buf, columns=columns)
    return buf.getvalue()


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec("total-budget", 100.0, 50.0, 10.0, ("tapr",), "optimal")
    with pytest.raises(ConfigError):
        SweepSpec("total-budget", 50.0, 100.0, 0.0, ("tapr",), "optimal")
    with pytest.raises(ConfigError):
        SweepSpec("frequency", 50.0, 100.0, 10.0, ("tapr",), "optimal")
    with pytest.raises(ConfigError):
        SweepSpec("total-budget", 50.0, 100.0, 10.0, ("quadruple-irs",), "optimal")
    with pytest.raises(ConfigError, match="unknown allocation method 'bogus'"):
        SweepSpec("total-budget", 500.0, 1000.0, 500.0, ("tapr",), "bogus")


def test_sweep_values_cover_grid():
    spec = SweepSpec("total-budget", 500.0, 3000.0, 500.0, ("tapr",), "optimal")
    assert spec.values() == [500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0]


def test_budget_sweep_closed_form_counts(params, topo):
    spec = SweepSpec("total-budget", 500.0, 3000.0, 500.0, ("tapr", "tpar"),
                     "closed-form")
    rows = run_sweep(params, topo, spec)
    assert len(rows) == 12
    # value-major, system-minor ordering and the Lemma-2 rounding per point
    for i, row in enumerate(rows):
        value = 500.0 * (i // 2 + 1)
        assert row["value"] == str(int(value))
        assert row["system"] == ("tapr", "tpar")[i % 2]
        assert int(row["n_act"]) == round(value / 15.0)
        assert row["error"] == ""


def test_amp_power_sweep_crossover(params, topo):
    from dataclasses import replace
    from irsalloc import dbm_to_watts
    p500 = replace(params, total_budget=500.0)
    spec = SweepSpec("amp-power-dbm", 5.0, 25.0, 1.0, ("tapr", "tpar"), "optimal")
    rows = run_sweep(p500, topo, spec)
    diff = {}
    for row in rows:
        diff.setdefault(float(row["value"]), {})[row["system"]] = \
            float(row["rate_bps_hz"])
    values = sorted(diff)
    signs = [diff[v]["tapr"] - diff[v]["tpar"] for v in values]
    # the active-first order loses at low amplification power and wins at
    # high power; the crossover matches the closed-form comparator
    assert signs[0] < 0 and signs[-1] > 0
    crossings = [v2 for s1, s2, v2 in zip(signs, signs[1:], values[1:])
                 if s1 < 0 <= s2]
    assert len(crossings) == 1
    margins = [compare_schemes(
        replace(p500, amp_power_budget=dbm_to_watts(v)), topo).margin
        for v in values]
    comparator_cross = [v2 for m1, m2, v2 in zip(margins, margins[1:], values[1:])
                        if m1 < 0 <= m2]
    assert abs(crossings[0] - comparator_cross[0]) <= 2.0


def test_cost_ratio_sweep_monotone(params, topo):
    spec = SweepSpec("cost-ratio", 1.0, 20.0, 1.0, ("tapr", "tpar"), "optimal")
    rows = run_sweep(params, topo, spec)
    rates = {"tapr": [], "tpar": []}
    for row in rows:
        rates[row["system"]].append(float(row["rate_bps_hz"]))
    for series in rates.values():
        assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))


def test_sweep_error_rows_do_not_abort(params, topo):
    spec = SweepSpec("total-budget", 2.0, 12.0, 5.0, ("tapr",), "optimal")
    rows = run_sweep(params, topo, spec)
    assert len(rows) == 3
    assert rows[0]["error"] != "" and rows[0]["rate_bps_hz"] == ""
    assert rows[2]["error"] == ""
    # a power that overflows a float in watts, and a budget outside the
    # domain, are error rows too
    for spec, cause in (
            (SweepSpec("amp-power-dbm", 4000.0, 4000.0, 1.0, ("tapr", "single-pirs"),
                       "optimal"), "float"),
            (SweepSpec("total-budget", 1e300, 1e300, 1.0, ("single-pirs", "double-pirs"),
                       "optimal"), "domain")):
        rows = run_sweep(params, topo, spec)
        assert len(rows) == 2
        assert all(cause in r["error"] and r["rate_bps_hz"] == "" for r in rows)


def test_sweep_quiet_at_extreme_amplifier_power(params, topo):
    # at the domain's top amplifier power, 90 dBm, every row is a result, with
    # an active amplitude >= 1, and nothing warns (pytest turns warnings into
    # errors)
    spec = SweepSpec("amp-power-dbm", 90.0, 90.0, 1.0, ("tapr", "tpar", "single-airs"),
                     "optimal")
    rows = run_sweep(params, topo, spec)
    assert [r["error"] for r in rows] == ["", "", ""]
    assert all(1.0 <= float(r["amplitude"]) < math.inf for r in rows)


def test_sweep_outside_domain_names_the_domain(params, topo):
    # 3060 dBm fits a float in watts (1e303 W) but lies outside the domain:
    # every system gets an error row that names the domain, not an overflow
    spec = SweepSpec("amp-power-dbm", 3060.0, 3060.0, 1.0, ALL_SYSTEMS, "optimal")
    rows = run_sweep(params, topo, spec)
    assert [r["system"] for r in rows] == list(ALL_SYSTEMS)
    assert all("amp_power_budget" in r["error"] and "domain" in r["error"]
               and "float" not in r["error"] for r in rows)


def test_csv_rate_snr_identity(params, topo):
    spec = SweepSpec("total-budget", 500.0, 2000.0, 500.0,
                     ("tapr", "single-pirs", "hybrid-irs"), "optimal")
    for row in run_sweep(params, topo, spec):
        if row["error"]:
            continue
        snr = 10.0 ** (float(row["snr_db"]) / 10.0)
        assert abs(float(row["rate_bps_hz"]) - math.log2(1.0 + snr)) <= 1e-9


def test_csv_deterministic(params, topo):
    spec = SweepSpec("total-budget", 500.0, 1500.0, 500.0, ("tapr", "tpar"),
                     "optimal")
    a = rows_to_csv(run_sweep(params, topo, spec))
    b = rows_to_csv(run_sweep(params, topo, spec))
    assert a == b
    header = a.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_placement_trace_monotone(params, topo):
    rows = run_placement(params, topo, "TAPR", grid_step=5.0)
    assert [r["iteration"] for r in rows] == [str(i) for i in range(len(rows))]
    rates = [float(r["rate_bps_hz"]) for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
    assert set(rows[0]) == set(PLACEMENT_COLUMNS)


def test_verify_default_seed_passes(params, topo):
    report = run_verify(params, topo, seed=0)
    assert all(ok for _, ok, _ in report)
    names = [name for name, _, _ in report]
    assert names == ["matrix-vs-closed-form", "monte-carlo-agreement",
                     "optimizer-vs-grid", "integer-vs-continuous",
                     "scaling-slopes", "optimal-vs-exhaustive"]


def test_verify_mutation_hook_fails(params, topo, monkeypatch):
    import irsalloc.cli as cli
    closed_form = cli.snr_closed_form

    def perturbed(*args):
        budget = closed_form(*args)
        return replace(budget, snr=budget.snr / 1.001)

    monkeypatch.setattr(cli, "snr_closed_form", perturbed)
    report = dict((name, ok) for name, ok, _ in run_verify(params, topo, seed=0))
    assert report["matrix-vs-closed-form"] is False


def test_verify_fails_when_the_walk_leaves_the_scan(params, topo, monkeypatch):
    # a walk that stops at the closed-form row differs from the scan on some
    # of check 1's scenarios, and the check says on how many
    import irsalloc.cli as cli
    solve = cli.solve_integer

    def rounded(p, t, scheme, method="optimal", budget=None):
        return solve(p, t, scheme, budget=budget,
                     method="closed-form" if method == "optimal" else method)

    monkeypatch.setattr(cli, "solve_integer", rounded)
    report = {name: (ok, detail) for name, ok, detail in run_verify(params, topo, seed=0)}
    ok, detail = report["optimal-vs-exhaustive"]
    assert ok is False and detail.endswith("of 80 solves differ")
    assert not detail.startswith("0 ")


def test_verify_fails_on_nan_estimate(baseline_config, monkeypatch, capsys):
    # a NaN estimate fails its gate: max(0.0, nan) alone would pass it
    import irsalloc.cli as cli

    def nan_meter(params, topo, alloc, *args, **kwargs):
        return LinkBudget(scheme=alloc.scheme, snr=math.nan, rate=math.nan)

    monkeypatch.setattr(cli, "simulate_empirical_snr", nan_meter)
    assert main(["verify", "--config", str(baseline_config)]) == 2
    assert "FAIL monte-carlo-agreement: worst rel err nan" in capsys.readouterr().out


def test_verify_deterministic(params, topo):
    assert run_verify(params, topo, seed=3) == run_verify(params, topo, seed=3)


@pytest.mark.parametrize("seed", [-1, None, 0.5, False])
def test_verify_rejects_bad_seed(params, topo, seed):
    with pytest.raises(ConfigError, match="seed"):
        run_verify(params, topo, seed=seed)


def test_main_verify_negative_seed(baseline_config, capsys):
    assert main(["verify", "--config", str(baseline_config), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be an integer >= 0") and "Traceback" not in err


def test_main_allocate_closed_form(baseline_config, capsys):
    code = main(["allocate", "--config", str(baseline_config),
                 "--scheme", "tapr", "--method", "closed-form"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_act=100 n_pas=1000" in out


def test_main_allocate_methods_agree(baseline_config, tmp_path):
    # method=optimal and the exhaustive oracle agree within 1e-2 bps/Hz
    cfg = tmp_path / "m200.yaml"
    text = baseline_config.read_text().replace("total_budget: 1500",
                                               "total_budget: 200")
    cfg.write_text(text)
    rates = {}
    for method in ("optimal", "exhaustive"):
        out = tmp_path / f"{method}.csv"
        assert main(["allocate", "--config", str(cfg), "--scheme", "tapr",
                     "--method", method, "--out", str(out)]) == 0
        with open(out) as fh:
            rates[method] = float(next(csv.DictReader(fh))["rate_bps_hz"])
    assert abs(rates["optimal"] - rates["exhaustive"]) <= 1e-2


def test_main_exhaustive_guard_exit_code(baseline_config, tmp_path):
    cfg = tmp_path / "huge.yaml"
    text = baseline_config.read_text().replace("total_budget: 1500",
                                               "total_budget: 100000000")
    cfg.write_text(text)
    # the scan's guard refuses; the corner walk answers
    assert main(["allocate", "--config", str(cfg), "--method", "exhaustive"]) == 2
    assert main(["allocate", "--config", str(cfg), "--method", "optimal"]) == 0


def test_main_nan_position_exit_code(baseline_config, tmp_path):
    cfg = tmp_path / "nan.yaml"
    cfg.write_text(baseline_config.read_text().replace(
        "pos_irs_a: [15, 5, 10]", "pos_irs_a: [.nan, 5, 10]"))
    assert main(["compare", "--config", str(cfg)]) == 1
    cfg.write_text(baseline_config.read_text().replace(
        "pos_irs_a: [15, 5, 10]", "pos_irs_a: [15, 5]"))
    assert main(["compare", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("pos_a, d_min", [("[0, 0, 0.5]", "1.0"), ("[0, 0, 0]", "0")])
def test_main_nodes_too_close_exit_code(baseline_config, tmp_path, capsys, pos_a, d_min):
    cfg = tmp_path / "close.yaml"
    cfg.write_text(baseline_config.read_text()
                   .replace("pos_irs_a: [15, 5, 10]", f"pos_irs_a: {pos_a}")
                   .replace("d_min_m: 1.0", f"d_min_m: {d_min}"))
    assert main(["compare", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Tx<->A-IRS distance" in err


def test_main_placement_nan_min_distance(baseline_config, tmp_path, capsys):
    # a bad d_min is a config error, caught when the config is loaded
    cfg = tmp_path / "nan_dmin.yaml"
    cfg.write_text(baseline_config.read_text().replace("d_min_m: 1.0", "d_min_m: .nan"))
    assert main(["placement", "--config", str(cfg), "--grid-step", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "d_min" in err and "Traceback" not in err


def test_main_config_error_exit_code(baseline_config, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("pt_dbm: 20\n")
    assert main(["sweep", "--config", str(bad), "--param", "total-budget",
                 "--from", "500", "--to", "1000", "--step", "500"]) == 1
    assert main(["allocate", "--config", str(tmp_path / "missing.yaml")]) == 1
    # a power that overflows a float in watts
    bad.write_text(baseline_config.read_text().replace("pv_dbm: 17", "pv_dbm: 4000"))
    capsys.readouterr()
    assert main(["allocate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "4000" in err and err.count("\n") == 1


@pytest.mark.parametrize("command, edits", [
    # nodes 1e-160 m apart: the distances' product underflowed to 0
    ("sweep", (("pos_irs_a: [15, 5, 10]", "pos_irs_a: [0, 0, 1.0e-160]"),
               ("d_min_m: 1.0", "d_min_m: 0"))),
    # a wavelength that made both SNR oracles NaN
    ("verify", (("wavelength_m: 0.1", "wavelength_m: 1.0e-310"),)),
])
def test_main_config_outside_domain(baseline_config, tmp_path, capsys, command, edits):
    text = baseline_config.read_text()
    for old, new in edits:
        text = text.replace(old, new)
    cfg = tmp_path / "outside.yaml"
    cfg.write_text(text)
    args = ["--param", "total-budget", "--from", "500", "--to", "500", "--step", "1"]
    assert main([command, "--config", str(cfg)] + (args if command == "sweep" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "domain" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["compare", "verify"])
def test_main_out_only_where_a_csv_is_written(baseline_config, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(baseline_config), "--out", "x"])
    assert exc.value.code == 2


def test_main_unwritable_out(baseline_config, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["sweep", "--config", str(baseline_config), "--param", "total-budget",
                 "--from", "500", "--to", "1000", "--step", "500", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.parent.exists()
    assert main(["allocate", "--config", str(baseline_config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_main_sweep_writes_csv(baseline_config, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(baseline_config),
                 "--param", "total-budget", "--from", "500", "--to", "1500",
                 "--step", "500", "--systems", "tapr,double-pirs",
                 "--method", "closed-form", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["value"], r["system"]) for r in rows] == [
        ("500", "tapr"), ("500", "double-pirs"),
        ("1000", "tapr"), ("1000", "double-pirs"),
        ("1500", "tapr"), ("1500", "double-pirs")]


def test_huge_values_print_in_exponent_form(params, topo):
    # sweep values outside the domain give error rows, whose value column
    # prints them in exponent form; no field runs long
    for param, value, shown in (("total-budget", 1e300, "1e+300"),
                                ("amp-power-dbm", 3000.0, "3000")):
        spec = SweepSpec(param, value, value, 1.0, ALL_SYSTEMS, "optimal")
        for row in run_sweep(params, topo, spec):
            assert all(len(field) < 120 for field in row.values())
            assert row["value"] == shown and "domain" in row["error"]
    # at the domain's largest budget, single-airs takes the largest count whose
    # alpha* is >= 1, and prints it in fixed form
    spec = SweepSpec("total-budget", 1e9, 1e9, 1.0, ("single-airs",), "optimal")
    airs = run_sweep(params, topo, spec)[0]
    assert airs["value"] == "1000000000"
    assert airs["n_act"] == "4871311" and float(airs["amplitude"]) >= 1.0


def test_ordinary_values_keep_fixed_form():
    assert fmt_number(12.3456789, 6) == "12.345679"
    assert fmt_number(9.9e15, 0) == "9900000000000000"
    # the domain's largest count, and an amplitude above its largest (about 3e13)
    assert fmt_number(1e9, 0) == "1000000000"
    assert fmt_number(1e14, 6) == "100000000000000.000000"


@pytest.mark.parametrize("step", ["0", "nan"])
def test_main_placement_bad_grid_step(baseline_config, capsys, step):
    assert main(["placement", "--config", str(baseline_config),
                 "--grid-step", step]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid step") and "Traceback" not in err


@pytest.mark.parametrize("start, stop, step", [("500", "1000", "nan"), ("nan", "1000", "500"),
                                              ("500", "inf", "500"), ("500", "1000", "inf")])
def test_main_sweep_non_finite_bounds(baseline_config, capsys, start, stop, step):
    assert main(["sweep", "--config", str(baseline_config), "--param", "total-budget",
                 "--from", start, "--to", stop, "--step", step]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep from/to/step") and "Traceback" not in err


def test_sweep_spec_bounds_value_count():
    # values() would make MAX_SCAN_ROWS values here, and one more past it
    SweepSpec("total-budget", 1.0, float(MAX_SCAN_ROWS), 1.0, ("tapr",), "optimal")
    with pytest.raises(SearchSpaceTooLarge):
        SweepSpec("total-budget", 1.0, MAX_SCAN_ROWS + 1.0, 1.0, ("tapr",), "optimal")
    # 1e11 values, and a span that overflows to inf
    for start, stop, step in ((100.0, 200.0, 1e-9), (-1e308, 1e308, 1.0)):
        peak = traced_peak(lambda: pytest.raises(SearchSpaceTooLarge, SweepSpec, "total-budget",
                                                 start, stop, step, ("tapr",), "optimal"))
        assert peak < 2 ** 20


def test_main_sweep_too_many_values(baseline_config, capsys):
    code = []
    peak = traced_peak(lambda: code.append(main([
        "sweep", "--config", str(baseline_config), "--param", "total-budget",
        "--from", "100", "--to", "200", "--step", "1e-9"])))
    assert code == [2] and peak < 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("error: sweep from") and err.count("\n") == 1
    assert "Traceback" not in err


def test_main_placement_grid_too_large(baseline_config, capsys):
    code = []
    peak = traced_peak(lambda: code.append(main([
        "placement", "--config", str(baseline_config), "--grid-step", "1e-4"])))
    assert code == [2] and peak < 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("error: grid step") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-1", "0"])
def test_main_compare_bad_epsilon(baseline_config, capsys, epsilon):
    assert main(["compare", "--config", str(baseline_config), "--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: epsilon")


def test_main_placement_boxes_around_configured_positions(baseline_config, tmp_path):
    # the boxes span +/-15 m (x) and +/-5 m (y) around the configured
    # surfaces, on either side of the axes
    cfg = tmp_path / "negative.yaml"
    cfg.write_text(baseline_config.read_text()
                   .replace("pos_tx: [0, 0, 0]", "pos_tx: [-40, -10, 0]")
                   .replace("pos_irs_a: [15, 5, 10]", "pos_irs_a: [-20, -8, 10]"))
    out = tmp_path / "placement.csv"
    assert main(["placement", "--config", str(cfg), "--scheme", "tapr",
                 "--grid-step", "1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        assert -35.0 <= float(r["xa"]) <= -5.0 and -13.0 <= float(r["ya"]) <= -3.0
        assert 83.0 <= float(r["xb"]) <= 113.0 and 0.0 <= float(r["yb"]) <= 10.0
    assert any(float(r["xa"]) < 0.0 for r in rows)


def test_main_compare_and_verify(baseline_config, capsys):
    assert main(["compare", "--config", str(baseline_config)]) == 0
    out = capsys.readouterr().out
    assert "TAPR >= TPAR" in out
    assert main(["verify", "--config", str(baseline_config), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out
    # the solver beats every dense-grid point, so the signed gap is negative
    assert "worst objective gap -" in out


def test_main_verify_elements_costlier_than_fixed_budgets(baseline_config, tmp_path, capsys):
    # w_act + w_pas = 26 is more than check 4's smallest budget of 20 at the
    # baseline costs; checks 4 and 5 scale their budgets with the costs
    cfg = tmp_path / "costly.yaml"
    cfg.write_text(baseline_config.read_text().replace("w_act: 5", "w_act: 25"))
    assert main(["allocate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg), "--seed", "0"]) == 0
    out, err = capsys.readouterr()
    assert out.count("PASS") == 6 and "FAIL" not in out and not err
