"""Units, system parameters, node positions and link distances.

Link directions belong to the channel model (channel.py); the allocation and
placement results depend on the geometry only through d1, d2 and d3.
Everything downstream of this module works in linear SI units (watts,
meters, dimensionless gains); dBm/dB appear only at the config boundary.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigError, DistanceTooSmall

TAPR = "TAPR"  # Tx -> active IRS -> passive IRS -> Rx
TPAR = "TPAR"  # Tx -> passive IRS -> active IRS -> Rx
SCHEMES = (TAPR, TPAR)


def check_scheme(scheme: str) -> str:
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    return scheme


# ---------------------------------------------------------------- conversions

def _from_db(value_db: float, offset_db: float, unit: str) -> float:
    """10^((value_db - offset_db)/10); ConfigError where it overflows a
    float."""
    try:
        return math.pow(10.0, (value_db - offset_db) / 10.0)
    except OverflowError:
        raise ConfigError(f"{value_db} {unit} overflows a float in linear units") from None


def dbm_to_watts(p_dbm: float) -> float:
    return _from_db(p_dbm, 30.0, "dBm")


def watts_to_dbm(p_watts: float) -> float:
    return 10.0 * math.log10(p_watts) + 30.0


def db_to_linear(g_db: float) -> float:
    return _from_db(g_db, 0.0, "dB")


def linear_to_db(g):
    return 10.0 * np.log10(g)


# from this magnitude numbers print in exponent form: past 2**53 a float's
# integer digits are not exact, and 1e300 written out runs to 301 digits
EXPONENT_FROM = 1e16


def fmt_number(v, decimals: int) -> str:
    """v with the given decimals, or from EXPONENT_FROM on in exponent form
    with six significant digits."""
    v = float(v)
    return f"{v:.{decimals}f}" if abs(v) < EXPONENT_FROM else f"{v:.6g}"


def free_space_ref_gain(wavelength: float) -> float:
    """Channel power gain at 1 m for an isotropic free-space link, (lambda/4pi)^2."""
    return (wavelength / (4.0 * math.pi)) ** 2


# ---------------------------------------------------------------------- types

def is_finite_real(value) -> bool:
    """True for a finite real number; a bool does not count as one."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_positive(name: str, value) -> float:
    """value as a float; ConfigError unless it is a positive finite real."""
    if not is_finite_real(value) or value <= 0:
        raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
    # numpy scalars would carry their own precision into the solvers
    return float(value)


@dataclass(frozen=True)
class SystemParams:
    """Scenario-wide powers, noise levels and element costs (linear units).

    ref_gain is an independent config key: it is *not* forced to equal
    free_space_ref_gain(wavelength).
    """

    transmit_power: float     # Pt [W]
    amp_power_budget: float   # Pv [W], total output power cap of the active surface
    rx_noise_power: float     # sigma_0^2 [W]
    amp_noise_power: float    # sigma_v^2 [W], per active element
    ref_gain: float           # channel power gain at 1 m, dimensionless
    wavelength: float         # [m]
    cost_active: float        # budget units per active element
    cost_passive: float       # budget units per passive element
    total_budget: float       # M, budget units

    def __post_init__(self):
        for name in ("transmit_power", "amp_power_budget", "rx_noise_power",
                     "amp_noise_power", "ref_gain", "wavelength",
                     "cost_active", "cost_passive", "total_budget"):
            object.__setattr__(self, name, check_positive(name, getattr(self, name)))
        if self.ref_gain > 1.0:
            raise ConfigError("ref_gain must not exceed 1 (passive channel)")
        if self.cost_active < self.cost_passive:
            raise ConfigError("cost_active must be >= cost_passive")
        if self.total_budget < self.cost_active + self.cost_passive:
            raise ConfigError("total_budget must afford at least one element of each kind")


@dataclass(frozen=True)
class Topology:
    """Node positions plus the three link distances derived from them."""

    pos_tx: tuple[float, float, float]
    pos_irs_a: tuple[float, float, float]
    pos_irs_b: tuple[float, float, float]
    pos_rx: tuple[float, float, float]
    d1: float  # Tx <-> A-IRS
    d2: float  # A-IRS <-> B-IRS
    d3: float  # B-IRS <-> Rx
    d_min: float = 1.0


def _position(label: str, pos) -> np.ndarray:
    p = np.asarray(pos, dtype=float)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise ConfigError(f"{label} must be three finite coordinates, got {pos!r}")
    return p


def check_min_distance(d_min) -> None:
    """Raise ConfigError unless d_min is a finite number >= 0."""
    if not is_finite_real(d_min) or d_min < 0:
        raise ConfigError(f"d_min must be a finite number >= 0, got {d_min!r}")


def build_topology(pos_tx, pos_irs_a, pos_irs_b, pos_rx, d_min: float = 1.0) -> Topology:
    """Check the four node positions and derive the three link distances."""
    check_min_distance(d_min)
    tx = _position("pos_tx", pos_tx)
    a = _position("pos_irs_a", pos_irs_a)
    b = _position("pos_irs_b", pos_irs_b)
    rx = _position("pos_rx", pos_rx)
    d1 = float(np.linalg.norm(a - tx))
    d2 = float(np.linalg.norm(b - a))
    d3 = float(np.linalg.norm(rx - b))
    for label, d in (("Tx<->A-IRS", d1), ("A-IRS<->B-IRS", d2), ("B-IRS<->Rx", d3)):
        if d < d_min:
            raise DistanceTooSmall(f"{label} distance {d:.6g} m < d_min {d_min:.6g} m")
        if d == 0.0:
            # only reachable with d_min = 0: placement and zeta divide by d
            raise DistanceTooSmall(f"{label} distance is 0 m: the nodes coincide")
    return Topology(pos_tx=tuple(tx), pos_irs_a=tuple(a), pos_irs_b=tuple(b),
                    pos_rx=tuple(rx), d1=d1, d2=d2, d3=d3, d_min=d_min)


# --------------------------------------------------------------- config file

CONFIG_KEYS = (
    "pt_dbm", "pv_dbm", "sigma0_dbm", "sigmav_dbm", "rho_db", "wavelength_m",
    "w_act", "w_pas", "total_budget", "pos_tx", "pos_rx", "pos_irs_a",
    "pos_irs_b", "d_min_m",
)


def load_scenario(path) -> tuple[SystemParams, Topology]:
    """Read a scenario config file (YAML/JSON key-value text)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} did not parse to a mapping")
    missing = [k for k in CONFIG_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"config {path} missing keys: {', '.join(missing)}")
    try:
        params = SystemParams(
            transmit_power=dbm_to_watts(float(raw["pt_dbm"])),
            amp_power_budget=dbm_to_watts(float(raw["pv_dbm"])),
            rx_noise_power=dbm_to_watts(float(raw["sigma0_dbm"])),
            amp_noise_power=dbm_to_watts(float(raw["sigmav_dbm"])),
            ref_gain=db_to_linear(float(raw["rho_db"])),
            wavelength=float(raw["wavelength_m"]),
            cost_active=float(raw["w_act"]),
            cost_passive=float(raw["w_pas"]),
            total_budget=float(raw["total_budget"]),
        )
        topo = build_topology(
            raw["pos_tx"], raw["pos_irs_a"], raw["pos_irs_b"], raw["pos_rx"],
            d_min=float(raw["d_min_m"]),
        )
    except (TypeError, ValueError, DistanceTooSmall) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    return params, topo
