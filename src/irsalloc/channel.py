"""Link directions, array steering vectors and the deterministic LOS channels.

The double-reflection link is g (Tx -> first IRS), S (first -> second IRS)
and h (second IRS -> Rx). S is rank one, s_gain*outer(b_from_a,
conj(a_to_b)), and is held as those factors: no n_second x n_first matrix is
built. Each surface's responses point along the directions of its two
links, derived here from the node positions.
Steering arguments use a half-wavelength element grid, i.e. spacing factor 1;
under optimal phase alignment the SNR is angle-independent, so neither the
directions nor this choice affect any closed-form value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .scenario import SystemParams, TAPR, Topology, check_scheme

SPACING_FACTOR = 1.0  # 2 * (element spacing) / wavelength with lambda/2 spacing


def steering(w: float, n: int) -> np.ndarray:
    """Linear-array steering vector: entry k = exp(-j*pi*k*w), k = 0..n-1."""
    if n < 1:
        raise ConfigError("steering vector length must be >= 1")
    if not math.isfinite(w):
        raise ConfigError(f"steering argument must be finite, got {w!r}")
    return np.exp(-1j * math.pi * w * np.arange(n))


def grid_shape(n: int) -> tuple[int, int]:
    """Near-square factorization n = nx * ny with nx the largest divisor <= sqrt(n)."""
    if n < 1:
        raise ConfigError("element count must be >= 1")
    nx = 1
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            nx = d
    return nx, n // nx


def direction_angles(vec) -> tuple[float, float]:
    """(azimuth, elevation) of a displacement vector.

    Azimuth from the +x axis in the x-y plane; elevation measured from the
    +z axis, so elevation = pi/2 for a horizontal link.
    """
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ConfigError(f"a displacement needs three coordinates, got {vec!r}")
    r = float(np.linalg.norm(v))
    if r == 0.0:
        raise ConfigError("zero-length displacement has no direction")
    azimuth = math.atan2(v[1], v[0])
    # atan2 keeps the small components that acos(z/r) loses near the poles
    elevation = math.atan2(math.hypot(v[0], v[1]), v[2])
    return azimuth, elevation


def _check_angles(azimuth: float, elevation: float) -> None:
    if not (math.isfinite(azimuth) and math.isfinite(elevation)):
        raise ConfigError(f"angles must be finite, got {azimuth!r}, {elevation!r}")


def unit_from_angles(azimuth: float, elevation: float) -> np.ndarray:
    """Unit vector with the direction_angles convention."""
    _check_angles(azimuth, elevation)
    se = math.sin(elevation)
    return np.array([se * math.cos(azimuth), se * math.sin(azimuth), math.cos(elevation)])


def upa_response(azimuth: float, elevation: float, n: int) -> np.ndarray:
    """Planar-array response: x-axis steering (sin(az)sin(el)) kron y-axis (cos(el))."""
    _check_angles(azimuth, elevation)
    nx, ny = grid_shape(n)
    wx = SPACING_FACTOR * math.sin(azimuth) * math.sin(elevation)
    wy = SPACING_FACTOR * math.cos(elevation)
    return np.kron(steering(wx, nx), steering(wy, ny))


@dataclass(frozen=True)
class ChannelTriple:
    """The LOS channels g and h, the gain of S, and the array responses.

    a_from_tx / a_to_b are the responses at the first surface (toward Tx and
    toward the second surface); b_from_a / b_to_rx the analogous ones at the
    second surface. The inter-surface channel is held as its factors:
    S = s_gain * outer(b_from_a, conj(a_to_b)), never as a matrix.
    """

    g: np.ndarray       # (n_first,)
    s_gain: complex     # sqrt(rho)/d2 * exp(-2j*pi*d2/lambda)
    h: np.ndarray       # (n_second,)
    scheme: str
    a_from_tx: np.ndarray
    a_to_b: np.ndarray
    b_from_a: np.ndarray
    b_to_rx: np.ndarray

    @property
    def n_first(self) -> int:
        return self.g.shape[0]

    @property
    def n_second(self) -> int:
        return self.h.shape[0]

    def check_dims(self):
        """DimensionMismatch unless S's factors match g (a_to_b) and h
        (b_from_a) in length."""
        if self.a_to_b.shape != (self.n_first,) or self.b_from_a.shape != (self.n_second,):
            raise DimensionMismatch(
                f"S factors have lengths {self.b_from_a.shape} x {self.a_to_b.shape}, "
                f"expected ({self.n_second},) x ({self.n_first},)")


def surface_counts(alloc) -> tuple[int, int]:
    """(n_first, n_second) element counts: the active surface is first in TAPR.

    DimensionMismatch unless both counts are integers >= 1."""
    check_scheme(alloc.scheme)
    for name in ("n_act", "n_pas"):
        value = getattr(alloc, name)
        if value < 1 or value != int(value):
            raise DimensionMismatch(
                f"{name}={value!r}: channel construction needs integer counts >= 1")
    n_act, n_pas = int(alloc.n_act), int(alloc.n_pas)
    return (n_act, n_pas) if alloc.scheme == TAPR else (n_pas, n_act)


def build_channels(params: SystemParams, topo: Topology, alloc) -> ChannelTriple:
    """Construct g, S (as its gain and responses) and h for the allocation's
    scheme and element counts."""
    n_first, n_second = surface_counts(alloc)
    rho, lam = params.ref_gain, params.wavelength
    tx, a, b, rx = (np.asarray(p) for p in
                    (topo.pos_tx, topo.pos_irs_a, topo.pos_irs_b, topo.pos_rx))

    # each response points from its surface toward the other end of the link
    a_from_tx = upa_response(*direction_angles(tx - a), n_first)
    a_to_b = upa_response(*direction_angles(b - a), n_first)
    b_from_a = upa_response(*direction_angles(a - b), n_second)
    b_to_rx = upa_response(*direction_angles(rx - b), n_second)

    def scale(d):
        return math.sqrt(rho) / d * np.exp(-2j * math.pi * d / lam)

    g = scale(topo.d1) * a_from_tx
    h = scale(topo.d3) * b_to_rx
    return ChannelTriple(g=g, s_gain=scale(topo.d2), h=h, scheme=alloc.scheme,
                         a_from_tx=a_from_tx, a_to_b=a_to_b,
                         b_from_a=b_from_a, b_to_rx=b_to_rx)
