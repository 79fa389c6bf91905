"""LOS channel construction: steering vectors, UPA responses, norms, rank."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irsalloc import (Allocation, IrsAllocError, build_channels, build_topology,
                      direction_angles, simulate_empirical_snr, unit_from_angles)
from irsalloc.channel import grid_shape, steering, upa_response
from irsalloc.reflection import configure
from conftest import baseline_params, inter_surface_matrix, random_scenario


def test_steering_pins():
    assert np.allclose(steering(0.0, 4), np.ones(4))
    assert np.allclose(steering(0.73, 1), [1.0])
    assert np.allclose(steering(1.0, 2), [1.0, -1.0], atol=1e-15)


def test_steering_entries():
    v = steering(0.37, 9)
    assert v[0] == 1.0
    assert np.allclose(np.abs(v), 1.0, atol=1e-15)
    # phase progression is linear in the element index
    diffs = np.angle(v[1:] / v[:-1])
    assert np.allclose(diffs, diffs[0], atol=1e-12)


def test_grid_shape():
    assert grid_shape(1) == (1, 1)
    assert grid_shape(6) == (2, 3)
    assert grid_shape(12) == (3, 4)
    assert grid_shape(16) == (4, 4)
    assert grid_shape(7) == (1, 7)
    for n in range(1, 200):
        nx, ny = grid_shape(n)
        assert nx * ny == n and nx <= ny


def test_upa_response_pins():
    assert np.allclose(upa_response(0.0, math.pi / 2, 6), np.ones(6))
    assert np.allclose(upa_response(1.1, 0.4, 1), [1.0])
    # theta = elevation = pi/2: x-argument 1, y-argument 0, 2x2 grid
    assert np.allclose(upa_response(math.pi / 2, math.pi / 2, 4),
                       [1.0, 1.0, -1.0, -1.0], atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=0.0, max_value=math.pi),
       st.integers(min_value=1, max_value=64))
def test_upa_unit_modulus(az, el, n):
    v = upa_response(az, el, n)
    assert v.shape == (n,)
    assert v[0] == 1.0
    assert np.allclose(np.abs(v), 1.0, atol=1e-12)


def test_channel_norm_pins():
    params = baseline_params()
    topo = build_topology((0, 0, 0), (15, 5, 10), (98, 5, 10), (100, 0, 0))
    ch = build_channels(params, topo, Allocation(100, 1000, "TAPR"))
    assert np.linalg.norm(ch.g) ** 2 == pytest.approx(1e-3 * 100 / 350.0, rel=1e-12, abs=0.0)
    assert np.linalg.norm(ch.h) ** 2 == pytest.approx(1e-3 * 1000 / 129.0, rel=1e-12, abs=0.0)

    ch1 = build_channels(params, topo, Allocation(1, 1, "TAPR"))
    assert abs(inter_surface_matrix(ch1)[0, 0]) == pytest.approx(math.sqrt(1e-3) / 83.0,
                                                                  rel=1e-12, abs=0.0)

    ch35 = build_channels(params, topo, Allocation(3, 5, "TAPR"))
    assert np.linalg.norm(inter_surface_matrix(ch35), "fro") ** 2 == pytest.approx(
        1e-3 * 15 / 83.0 ** 2, rel=1e-12, abs=0.0)


def test_channel_norms_random_geometry():
    rng = np.random.default_rng(11)
    for _ in range(30):
        params, topo = random_scenario(rng)
        for scheme in ("TAPR", "TPAR"):
            alloc = Allocation(int(rng.integers(1, 65)), int(rng.integers(1, 65)),
                               scheme)
            ch = build_channels(params, topo, alloc)
            n_first = ch.g.shape[0]
            n_second = ch.h.shape[0]
            rho = params.ref_gain
            assert np.linalg.norm(ch.g) ** 2 == pytest.approx(
                rho * n_first / topo.d1 ** 2, rel=1e-12, abs=0.0)
            assert np.linalg.norm(ch.h) ** 2 == pytest.approx(
                rho * n_second / topo.d3 ** 2, rel=1e-12, abs=0.0)
            assert np.linalg.norm(inter_surface_matrix(ch), "fro") ** 2 == pytest.approx(
                rho * n_first * n_second / topo.d2 ** 2, rel=1e-12, abs=0.0)


def test_inter_surface_channel_rank_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        params, topo = random_scenario(rng)
        alloc = Allocation(int(rng.integers(2, 65)), int(rng.integers(2, 65)), "TAPR")
        ch = build_channels(params, topo, alloc)
        sv = np.linalg.svd(inter_surface_matrix(ch), compute_uv=False)
        assert sv[1] <= 1e-10 * sv[0]


def test_responses_point_along_link_directions(params, topo):
    tx, a, b, rx = (np.asarray(p) for p in
                    (topo.pos_tx, topo.pos_irs_a, topo.pos_irs_b, topo.pos_rx))
    for scheme in ("TAPR", "TPAR"):
        # 6 and 10 elements make 2x3 and 2x5 grids, so both steering axes count
        ch = build_channels(params, topo, Allocation(6, 10, scheme))
        for response, disp, n in ((ch.a_from_tx, tx - a, ch.n_first),
                                  (ch.a_to_b, b - a, ch.n_first),
                                  (ch.b_from_a, a - b, ch.n_second),
                                  (ch.b_to_rx, rx - b, ch.n_second)):
            assert np.array_equal(response, upa_response(*direction_angles(disp), n))
    unit = (b - a) / np.linalg.norm(b - a)
    assert np.allclose(unit_from_angles(*direction_angles(b - a)), unit, atol=1e-12)
    assert np.allclose(unit_from_angles(*direction_angles(a - b)), -unit, atol=1e-12)


def test_channel_dimensions_follow_scheme(params, topo):
    ch_ap = build_channels(params, topo, Allocation(3, 7, "TAPR"))
    assert ch_ap.g.shape == (3,) and ch_ap.h.shape == (7,)
    assert inter_surface_matrix(ch_ap).shape == (7, 3)
    ch_pa = build_channels(params, topo, Allocation(3, 7, "TPAR"))
    assert ch_pa.g.shape == (7,) and ch_pa.h.shape == (3,)
    assert inter_surface_matrix(ch_pa).shape == (3, 7)


@pytest.mark.parametrize("entry", [
    lambda p, t, alloc: build_channels(p, t, alloc),
    lambda p, t, alloc: configure(p, t, alloc),
    lambda p, t, alloc: simulate_empirical_snr(
        p, t, alloc, configure(p, t, Allocation(2, 10, alloc.scheme)), 100, seed=0),
], ids=["build_channels", "configure", "simulate_empirical_snr"])
@pytest.mark.parametrize("alloc", [Allocation(2.5, 10.0, "TAPR", continuous=True),
                                   Allocation(2.0, 10.5, "TPAR", continuous=True)])
def test_non_integer_counts_raise_typed_error(params, topo, entry, alloc):
    # a continuous optimum has no array to build
    with pytest.raises(IrsAllocError, match="integer counts"):
        entry(params, topo, alloc)
