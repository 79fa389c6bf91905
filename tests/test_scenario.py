"""Unit conversions, parameter validation and geometry derivation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from irsalloc import (
    ConfigError, DistanceTooSmall, SystemParams, build_topology,
    db_to_linear, dbm_to_watts, direction_angles, free_space_ref_gain,
    linear_to_db, load_scenario, unit_from_angles, watts_to_dbm,
)
from conftest import baseline_params


def test_dbm_to_watts_pins():
    assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-15, abs=0.0)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert dbm_to_watts(-80.0) == pytest.approx(1e-11, rel=1e-15, abs=0.0)
    # a power that overflows a float in watts is a typed error
    for p_dbm in (4000.0, np.float64(4000.0)):
        with pytest.raises(ConfigError, match="overflows"):
            dbm_to_watts(p_dbm)


def test_db_to_linear_pins():
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-15, abs=0.0)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15, abs=0.0)
    with pytest.raises(ConfigError, match="overflows"):
        db_to_linear(4000.0)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_round_trip(p_dbm):
    assert watts_to_dbm(dbm_to_watts(p_dbm)) == pytest.approx(p_dbm, abs=1e-10)


def test_linear_to_db_round_trip():
    for g in (1e-6, 1.0, 37.5, 1e8):
        assert db_to_linear(float(linear_to_db(g))) == pytest.approx(g, rel=1e-12, abs=0.0)


def test_free_space_ref_gain():
    lam = 0.1
    assert free_space_ref_gain(lam) == pytest.approx((lam / (4 * math.pi)) ** 2, rel=1e-6, abs=0.0)


def test_baseline_distances():
    topo = build_topology((0, 0, 0), (15, 5, 10), (98, 5, 10), (100, 0, 0))
    assert topo.d1 == pytest.approx(math.sqrt(350.0), rel=1e-15, abs=0.0)
    assert topo.d2 == pytest.approx(83.0, rel=1e-15, abs=0.0)
    assert topo.d3 == pytest.approx(math.sqrt(129.0), rel=1e-15, abs=0.0)


def test_distances_recomputable_from_positions():
    topo = build_topology((0, 0, 0), (15, 5, 10), (98, 5, 10), (100, 0, 0))
    a = np.asarray(topo.pos_irs_a)
    b = np.asarray(topo.pos_irs_b)
    assert np.linalg.norm(a - np.asarray(topo.pos_tx)) == topo.d1
    assert np.linalg.norm(b - a) == topo.d2
    assert np.linalg.norm(np.asarray(topo.pos_rx) - b) == topo.d3


def test_distance_too_small():
    with pytest.raises(DistanceTooSmall):
        build_topology((0, 0, 0), (0.5, 0, 0), (98, 5, 10), (100, 0, 0))
    with pytest.raises(DistanceTooSmall):
        build_topology((0, 0, 0), (15, 5, 10), (98, 5, 10), (100, 0, 0), d_min=20.0)


def test_topology_rejects_bad_positions():
    good = [(0, 0, 0), (15, 5, 10), (98, 5, 10), (100, 0, 0)]
    for bad in ((math.nan, 5, 10), (math.inf, 5, 10), (15, 5), (15, 5, 10, 0)):
        for slot in range(4):
            nodes = list(good)
            nodes[slot] = bad
            with pytest.raises(ConfigError):
                build_topology(*nodes)


@pytest.mark.parametrize("d_min", [math.nan, math.inf, -3.0, True, "1"])
def test_topology_rejects_bad_min_distance(d_min):
    with pytest.raises(ConfigError, match="d_min"):
        build_topology((0, 0, 0), (15, 5, 10), (98, 5, 10), (100, 0, 0), d_min=d_min)


def test_topology_accepts_zero_min_distance():
    topo = build_topology((0, 0, 0), (0, 0, 1e-9), (98, 5, 10), (100, 0, 0), d_min=0)
    assert topo.d1 == 1e-9 and topo.d_min == 0


@pytest.mark.parametrize("positions", [
    ((0, 0, 0), (0, 0, 0), (98, 5, 10), (100, 0, 0)),
    ((0, 0, 0), (15, 5, 10), (15, 5, 10), (100, 0, 0)),
    ((0, 0, 0), (15, 5, 10), (98, 5, 10), (98, 5, 10)),
])
def test_topology_rejects_coincident_nodes(positions):
    # d_min = 0 lets a zero distance past the d_min test
    with pytest.raises(DistanceTooSmall, match="coincide"):
        build_topology(*positions, d_min=0)


def test_triangle_inequality_random_geometry():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pts = rng.uniform(-50.0, 50.0, size=(4, 3))
        try:
            topo = build_topology(*pts)
        except DistanceTooSmall:
            continue
        direct = np.linalg.norm(pts[3] - pts[0])
        assert topo.d1 + topo.d2 + topo.d3 >= direct - 1e-12


@given(st.lists(st.floats(min_value=-100.0, max_value=100.0),
                min_size=3, max_size=3))
@example([0.0, 1e-9, 1.0])
def test_angle_consistency(vec):
    v = np.asarray(vec)
    r = np.linalg.norm(v)
    if r < 1e-6:
        return
    az, el = direction_angles(v)
    assert np.allclose(unit_from_angles(az, el), v / r, atol=1e-12)


def test_params_validation():
    with pytest.raises(ConfigError):
        baseline_params(transmit_power=-1.0)
    with pytest.raises(ConfigError):
        baseline_params(ref_gain=1.5)
    with pytest.raises(ConfigError):
        baseline_params(cost_active=0.5, cost_passive=1.0)
    with pytest.raises(ConfigError):
        baseline_params(total_budget=4.0)  # < cost_active + cost_passive
    with pytest.raises(ConfigError):
        baseline_params(rx_noise_power=0.0)


def test_params_accept_real_scalars_only():
    with pytest.raises(ConfigError):
        baseline_params(transmit_power=True)
    with pytest.raises(ConfigError):
        baseline_params(transmit_power="1.0")
    params = baseline_params(amp_power_budget=np.float32(0.05),
                             cost_active=np.int64(3), total_budget=1500)
    for name in ("amp_power_budget", "cost_active", "total_budget"):
        assert type(getattr(params, name)) is float
    assert params.amp_power_budget == float(np.float32(0.05))
    assert params.cost_active == 3.0


def test_load_scenario_matches_direct_construction(baseline_config):
    params, topo = load_scenario(baseline_config)
    ref = baseline_params()
    for name in ("transmit_power", "amp_power_budget", "rx_noise_power",
                 "amp_noise_power", "ref_gain", "wavelength", "cost_active",
                 "cost_passive", "total_budget"):
        assert getattr(params, name) == pytest.approx(getattr(ref, name), rel=1e-15, abs=0.0)
    assert topo.d2 == pytest.approx(83.0, rel=1e-6, abs=0.0)


def test_load_scenario_missing_key(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("pt_dbm: 20\n")
    with pytest.raises(ConfigError):
        load_scenario(bad)
