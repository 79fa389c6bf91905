"""Units, system parameters, node positions and link distances, and the
numeric domain they must lie in.

Link directions belong to the channel model (channel.py); the allocation and
placement results depend on the geometry only through d1, d2 and d3.
Everything downstream of this module works in linear SI units (watts,
meters, dimensionless gains); dBm/dB appear only at the config boundary.

An input outside DOMAIN and the bounds after it raises ConfigError (or
DistanceTooSmall for a link distance). Inside them every intermediate value
of every formula is a finite float, so no formula guards against overflow.
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
    """10^((value_db - offset_db)/10); ConfigError unless value_db is a
    finite real or where the result overflows a float."""
    if not is_finite_real(value_db):
        raise ConfigError(f"a level in {unit} must be a finite number, got {value_db!r}")
    try:
        return math.pow(10.0, (value_db - offset_db) / 10.0)
    except OverflowError:
        raise ConfigError(f"{value_db} {unit} overflows a float in linear units") from None


def dbm_to_watts(p_dbm: float) -> float:
    return _from_db(p_dbm, 30.0, "dBm")


def watts_to_dbm(p_watts: float) -> float:
    return 10.0 * math.log10(check_positive("p_watts", p_watts)) + 30.0


def db_to_linear(g_db: float) -> float:
    return _from_db(g_db, 0.0, "dB")


def linear_to_db(g):
    """10*log10(g), elementwise; ConfigError unless every g is > 0."""
    if not np.all(np.asarray(g) > 0):
        raise ConfigError(f"a ratio in dB needs a value > 0, got {g!r}")
    return 10.0 * np.log10(g)


def fmt_number(v, decimals: int) -> str:
    """v in fixed form with the given decimals."""
    return f"{float(v):.{decimals}f}"


def free_space_ref_gain(wavelength: float) -> float:
    """Channel power gain at 1 m for an isotropic free-space link, (lambda/4pi)^2."""
    return (check_positive("wavelength", wavelength) / (4.0 * math.pi)) ** 2


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


# ---------------------------------------------------------------- the domain

# (low, high) of each SystemParams field, in linear SI units
DOMAIN = {
    "transmit_power": (1e-15, 1e6),     # W, -120..90 dBm
    "amp_power_budget": (1e-15, 1e6),   # W, -120..90 dBm
    "rx_noise_power": (1e-21, 1e-3),    # W, -180..0 dBm
    "amp_noise_power": (1e-21, 1e-3),   # W, -180..0 dBm
    "ref_gain": (1e-12, 1.0),           # -120..0 dB; 1 is a lossless passive channel
    "wavelength": (1e-4, 1e2),          # m
    "cost_active": (1e-3, 1e6),
    "cost_passive": (1e-3, 1e3),
    "total_budget": (2e-3, 1e12),
}
MAX_COST_RATIO = 1e3    # cost_active/cost_passive
MAX_ELEMENTS = 1e9      # elements of one kind, and of a budget's cheaper kind
MAX_COORDINATE = 1e6    # m, |c| of every node and grid coordinate
MIN_DISTANCE = 1e-9     # m, every link distance, whatever d_min


def check_budget(budget, cost: float) -> float:
    """budget as a float; ConfigError unless it is a finite real affording at
    most MAX_ELEMENTS elements of the given cost (feasibility is the solver's)."""
    if not is_finite_real(budget) or budget > MAX_ELEMENTS * cost:
        raise ConfigError(f"budget must be a finite number within the domain's "
                          f"{MAX_ELEMENTS:g} elements of cost {cost:g}, got {budget!r}")
    return float(budget)


def check_position(label: str, pos) -> np.ndarray:
    """pos as a float array; ConfigError unless it is three coordinates in the domain."""
    p = np.asarray(pos, dtype=float)
    if p.shape != (3,) or not np.all(np.abs(p) <= MAX_COORDINATE):
        raise ConfigError(f"{label} must be three coordinates within the domain's "
                          f"+/-{MAX_COORDINATE:g} m, got {pos!r}")
    return p


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
        for name, (lo, hi) in DOMAIN.items():
            value = getattr(self, name)
            if not (is_finite_real(value) and lo <= value <= hi):
                raise ConfigError(f"{name} must lie in the domain [{lo:g}, {hi:g}], got {value!r}")
            object.__setattr__(self, name, float(value))
        if not self.cost_passive <= self.cost_active <= MAX_COST_RATIO * self.cost_passive:
            raise ConfigError(f"cost_active/cost_passive must lie in the domain "
                              f"[1, {MAX_COST_RATIO:g}]")
        if self.total_budget < self.cost_active + self.cost_passive:
            raise ConfigError("total_budget must afford at least one element of each kind")
        check_budget(self.total_budget, self.cost_passive)


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


def check_min_distance(d_min) -> None:
    """Raise ConfigError unless d_min is a finite number >= 0."""
    if not is_finite_real(d_min) or d_min < 0:
        raise ConfigError(f"d_min must be a finite number >= 0, got {d_min!r}")


def build_topology(pos_tx, pos_irs_a, pos_irs_b, pos_rx, d_min: float = 1.0) -> Topology:
    """Check the four node positions and derive the three link distances,
    each at least d_min and MIN_DISTANCE."""
    check_min_distance(d_min)
    return _topology(check_position("pos_tx", pos_tx), check_position("pos_irs_a", pos_irs_a),
                     check_position("pos_irs_b", pos_irs_b), check_position("pos_rx", pos_rx),
                     d_min)


def _topology(tx: np.ndarray, a: np.ndarray, b: np.ndarray, rx: np.ndarray,
              d_min: float) -> Topology:
    """The topology of four checked positions (float arrays) and a checked
    d_min; DistanceTooSmall unless each link distance is at least d_min and
    MIN_DISTANCE."""
    # sqrt(v.v) is np.linalg.norm of a real vector, bit for bit
    d1, d2, d3 = (math.sqrt(v.dot(v)) for v in (a - tx, b - a, rx - b))
    for label, d in (("Tx<->A-IRS", d1), ("A-IRS<->B-IRS", d2), ("B-IRS<->Rx", d3)):
        if d < d_min:
            raise DistanceTooSmall(f"{label} distance {d:.6g} m < d_min {d_min:.6g} m")
        if d < MIN_DISTANCE:
            raise DistanceTooSmall(f"{label} distance {d:.6g} m < the domain's "
                                   f"{MIN_DISTANCE:g} m: the nodes coincide")
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(str(exc)) from exc
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
