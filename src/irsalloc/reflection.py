"""Optimal per-element phase shifts and common amplification factors.

Phases co-phase every per-element contribution of the cascade
h^H * Phi * S * Psi * g, so its magnitude becomes
amp * n_first * n_second * rho^{3/2} / (d1*d2*d3) regardless of angles.
The active surface's common amplitude is set so its output-power constraint
holds with equality; values below 1 are reported, never clamped.

ReflectionConfig holds phases and amplitudes only; the SNR oracles apply each
diagonal reflection, e.g. Psi = amp_first*diag(e^{j*phases_first}), as a gain vector.

alpha_sq, beta_sq and pas_cap_sq are the library's one expression of the
amplitude cap, in operators only with x_pas^2 as x_pas*x_pas (an array's
x_pas**2), so a count as a Python float or as an array element gets the same
bits. A test *_sq(...) >= 1.0 is exactly amplitude >= 1: sqrt is correctly
rounded and monotone, and sqrt(1) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelTriple, build_channels
from .scenario import SystemParams, TAPR, Topology, check_scheme

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ReflectionConfig:
    """Per-element phases for both surfaces plus their common amplitudes.

    Exactly one surface is active (amplitude possibly > 1); the passive
    surface's amplitude is fixed to 1. Phases are reduced to [0, 2pi).
    """

    phases_first: np.ndarray
    phases_second: np.ndarray
    amp_first: float
    amp_second: float
    scheme: str


def optimal_phases(channels: ChannelTriple) -> tuple[np.ndarray, np.ndarray]:
    """Co-phasing phases for both surfaces, each reduced to [0, 2pi).

    First surface: arg of the outgoing response minus arg of the incoming one
    (the outgoing response appears conjugated inside S). Second surface: arg
    of the response toward Rx minus arg of the one from the first surface
    (h appears conjugated in the cascade). DimensionMismatch unless the
    channels' sizes agree.
    """
    channels.check_dims()
    phases_first = np.mod(np.angle(channels.a_to_b) - np.angle(channels.a_from_tx), TWO_PI)
    phases_second = np.mod(np.angle(channels.b_to_rx) - np.angle(channels.b_from_a), TWO_PI)
    return phases_first, phases_second


def alpha_sq(params: SystemParams, d1, x_act):
    """alpha*^2, the squared active-first amplification factor; 0 at d1 = 0."""
    pt, pv = params.transmit_power, params.amp_power_budget
    rho, sv2 = params.ref_gain, params.amp_noise_power
    return pv * d1 ** 2 / (pt * rho * x_act + d1 ** 2 * sv2 * x_act)


def beta_sq(params: SystemParams, d1, d2, x_act, x_pas):
    """beta*^2, the squared active-second amplification factor; its input has
    already traversed Tx -> passive surface -> active surface."""
    pt, pv = params.transmit_power, params.amp_power_budget
    rho, sv2 = params.ref_gain, params.amp_noise_power
    return pv * d2 ** 2 / (pt * rho ** 2 * x_act * (x_pas * x_pas) / d1 ** 2
                           + d2 ** 2 * sv2 * x_act)


def pas_cap_sq(params: SystemParams, d1, d2, x_act, pv):
    """q, the squared x_pas at which beta* = 1 under the power budget pv."""
    pt, rho, sv2 = params.transmit_power, params.ref_gain, params.amp_noise_power
    return d1 ** 2 * d2 ** 2 * (pv - sv2 * x_act) / (pt * rho ** 2 * x_act)


def alpha_star(params: SystemParams, d1, x_act):
    return np.sqrt(alpha_sq(params, d1, x_act))


def beta_star(params: SystemParams, d1, d2, x_act, x_pas):
    return np.sqrt(beta_sq(params, d1, d2, x_act, x_pas))


def optimal_amplitude(params: SystemParams, topo: Topology, alloc) -> float:
    """The active surface's amplification factor: alpha* for TAPR, beta* for TPAR."""
    check_scheme(alloc.scheme)
    if alloc.scheme == TAPR:
        return float(alpha_star(params, topo.d1, alloc.n_act))
    return float(beta_star(params, topo.d1, topo.d2, alloc.n_act, alloc.n_pas))


def configure(params: SystemParams, topo: Topology, alloc,
              channels: ChannelTriple | None = None) -> ReflectionConfig:
    """Optimal phases plus the optimal amplitude on the scheme's active surface."""
    if channels is None:
        channels = build_channels(params, topo, alloc)
    phases_first, phases_second = optimal_phases(channels)
    amp = optimal_amplitude(params, topo, alloc)
    amp_first, amp_second = (amp, 1.0) if alloc.scheme == TAPR else (1.0, amp)
    return ReflectionConfig(phases_first=phases_first, phases_second=phases_second,
                            amp_first=amp_first, amp_second=amp_second,
                            scheme=alloc.scheme)
