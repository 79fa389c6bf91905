"""SNR and rate for both deployment orders: the exact cascade, the closed
form, the large-inter-surface-distance approximation, the regime check
enabling it, the scheme comparator, and a Monte-Carlo signal-level power
meter used as an independent oracle.

With the active surface's amplitude at its optimum, both orders share one
closed-form denominator, zeta = A/x_act + B/(x_act*x_pas^2), with per-order
constants from objective_constants, and snr = Pt*Pv*rho^3 / zeta. It is the
library's only closed-form SNR: snr_closed_form, snr_approx and every
solver take their SNR from zeta_of, so only the two oracles report the
signal and noise powers.

Both oracles, snr_exact_matrix and the Monte-Carlo meter, take the cascade
h^H*Phi*S*Psi*g from _cascade, which checks sizes and scheme tags, applies
each diagonal reflection as its gain vector amp*e^{j*theta} and S through
its rank-one factors, so both cost O(n_first + n_second) in memory and time;
no matrix is built.

The Monte-Carlo meter draws every sample's noise explicitly, in fixed blocks
that each own an SFC64 generator on a seed stream spawned from the caller's
seed. SFC64 fills normals 14-22% faster per float than numpy's default
PCG64 on a 2-vCPU x86-64 host, and the draws are almost all of the meter's
time. The blocks run on a thread pool and their sums are combined in block
order, so a seed gives the same number for any worker count. A block draws
its noise rows in sub-chunks of at most _MC_CHUNK floats (or one row, if a
row is wider), one after another from its own generator, so a thread holds
a bounded buffer whatever the element count, and the draws are the ones a
single fill of the whole block would give."""

from __future__ import annotations

import math
import numbers
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTriple, build_channels, surface_counts
from .errors import ConditionUndefined, ConfigError, DimensionMismatch
from .reflection import ReflectionConfig
from .scenario import MAX_ELEMENTS, SystemParams, TAPR, Topology, check_positive, check_scheme


@dataclass(frozen=True)
class LinkBudget:
    """SNR/rate plus, from the oracles only, the constituent received powers."""

    scheme: str
    snr: float
    rate: float  # bps/Hz
    signal_power: float | None = None
    amp_noise_power_at_rx: float | None = None
    rx_noise_power: float | None = None


def rate_from_snr(snr):
    return np.log2(1.0 + snr) if np.ndim(snr) else float(np.log2(1.0 + snr))


def objective_constants(params: SystemParams, scheme: str, d1, d2, d3,
                        approx: bool = False):
    """(A, B) with zeta = A/x_act + B/(x_act*x_pas^2); array-friendly in the
    distances.

    approx=True keeps only the terms that dominate at a large inter-surface
    distance: A vanishes, and for TPAR so does the receiver-noise part of B.
    """
    check_scheme(scheme)
    pt, pv = params.transmit_power, params.amp_power_budget
    rho = params.ref_gain
    s02, sv2 = params.rx_noise_power, params.amp_noise_power
    if scheme == TAPR:
        a = pv * sv2 * rho ** 2 * d1 ** 2
        b = s02 * d2 ** 2 * d3 ** 2 * (rho * pt + sv2 * d1 ** 2)
    else:
        a = pt * s02 * rho ** 2 * d3 ** 2
        b = sv2 * d1 ** 2 * d2 ** 2 * (rho * pv + (0.0 if approx else s02 * d3 ** 2))
    return (0.0 if approx else a), b


def zeta_value(params: SystemParams, scheme: str, x_act, x_pas, d1, d2, d3,
               approx: bool = False):
    """Closed-form SNR denominator; array-friendly in counts and distances."""
    return zeta_of(*objective_constants(params, scheme, d1, d2, d3, approx), x_act, x_pas)


def zeta_of(a, b, x_act, x_pas):
    """zeta's one expression; x_pas^2 is x_pas*x_pas, as in reflection."""
    return a / x_act + b / (x_act * (x_pas * x_pas))


def snr_from_zeta(params: SystemParams, zeta):
    return params.transmit_power * params.amp_power_budget * params.ref_gain ** 3 / zeta


def snr_closed_form(params: SystemParams, topo: Topology, alloc) -> LinkBudget:
    """Closed-form SNR and rate at optimal phases and optimal amplitude, from
    zeta; the power fields stay None. Accepts continuous (non-integer) counts.
    """
    snr = snr_from_zeta(params, zeta_value(params, alloc.scheme, alloc.n_act, alloc.n_pas,
                                           topo.d1, topo.d2, topo.d3))
    return LinkBudget(scheme=alloc.scheme, snr=snr, rate=rate_from_snr(snr))


def _cascade(channels: ChannelTriple, reflection: ReflectionConfig, scheme: str):
    """h^H*Phi, h^H*Phi*S*Psi and the cascade h^H*Phi*S*Psi*g, each surface
    applied as its gain vector amp*e^{j*theta} and S = s_gain*b*a^H as
    s_gain*(h^H*Phi*b)*conj(a): O(n_first + n_second), no matrix.
    DimensionMismatch unless the channels, the reflection and the scheme
    agree."""
    channels.check_dims()
    if (reflection.phases_first.shape[0] != channels.n_first
            or reflection.phases_second.shape[0] != channels.n_second):
        raise DimensionMismatch("reflection phase vectors do not match channel dimensions")
    if reflection.scheme != channels.scheme or reflection.scheme != scheme:
        raise DimensionMismatch("scheme tags disagree between channels/reflection/allocation")
    through_second = channels.h.conj() * (reflection.amp_second
                                          * np.exp(1j * reflection.phases_second))
    through_both = (channels.s_gain * (through_second @ channels.b_from_a)
                    * channels.a_to_b.conj()
                    * (reflection.amp_first * np.exp(1j * reflection.phases_first)))
    return through_second, through_both, through_both @ channels.g


def snr_exact_matrix(params: SystemParams, topo: Topology, alloc,
                     channels: ChannelTriple, reflection: ReflectionConfig) -> LinkBudget:
    """Link budget from the full cascade; works for any phases/amplitudes.
    DimensionMismatch unless the channels have alloc's element counts."""
    through_second, through_both, cascade = _cascade(channels, reflection, alloc.scheme)
    if (channels.n_first, channels.n_second) != surface_counts(alloc):
        raise DimensionMismatch("channel sizes do not match the allocation's counts")
    signal = params.transmit_power * abs(cascade) ** 2
    # amplification noise enters at the active surface, the first in TAPR
    noise_weights = through_both if alloc.scheme == TAPR else through_second
    amp_noise = params.amp_noise_power * float(np.linalg.norm(noise_weights) ** 2)
    snr = signal / (amp_noise + params.rx_noise_power)
    return LinkBudget(scheme=alloc.scheme, snr=snr, rate=rate_from_snr(snr),
                      signal_power=signal, amp_noise_power_at_rx=amp_noise,
                      rx_noise_power=params.rx_noise_power)


def snr_approx(params: SystemParams, topo: Topology, alloc) -> LinkBudget:
    """Dominant-term SNR, valid when the regime check passes. At
    closed_form_split(M, W_act, W_pas, scheme) it is cubic in the budget M."""
    zeta = zeta_value(params, alloc.scheme, alloc.n_act, alloc.n_pas,
                      topo.d1, topo.d2, topo.d3, approx=True)
    snr = snr_from_zeta(params, zeta)
    return LinkBudget(scheme=alloc.scheme, snr=snr, rate=rate_from_snr(snr))


# -------------------------------------------------------------- regime check

@dataclass(frozen=True)
class RegimeReport:
    """Large-inter-surface-distance condition: lhs << d2, operationalized as
    lhs/d2 <= epsilon."""

    lemma1_lhs: float
    d2: float
    ratio: float
    satisfied: bool
    epsilon: float


def check_lemma1(params: SystemParams, topo: Topology, x_pas: float,
                 epsilon: float = 0.1) -> RegimeReport:
    """The regime check at x_pas passive elements; ConfigError unless x_pas
    and epsilon are positive finite numbers and x_pas is at most the domain's
    MAX_ELEMENTS."""
    x_pas = check_positive("x_pas", x_pas)
    if x_pas > MAX_ELEMENTS:
        raise ConfigError(f"x_pas must be within the domain's {MAX_ELEMENTS:g} elements, "
                          f"got {x_pas!r}")
    epsilon = check_positive("epsilon", epsilon)
    pt, pv = params.transmit_power, params.amp_power_budget
    rho = params.ref_gain
    s0 = math.sqrt(params.rx_noise_power)
    sv = math.sqrt(params.amp_noise_power)
    d1, d2, d3 = topo.d1, topo.d2, topo.d3

    margin = rho * pv - s0 ** 2 * d3 ** 2
    if margin <= 0.0:
        raise ConditionUndefined(
            "rho*Pv <= sigma0^2*d3^2: second branch of the regime condition undefined")
    branch1 = math.sqrt(pv * rho) * sv * d1 * x_pas / (math.sqrt(pt) * s0 * d3)
    branch2 = math.sqrt(pt) * s0 * rho * d3 * x_pas / math.sqrt(sv ** 2 * d1 ** 2 * margin)
    lhs = max(branch1, branch2)
    ratio = lhs / d2
    return RegimeReport(lemma1_lhs=lhs, d2=d2, ratio=ratio,
                        satisfied=ratio <= epsilon, epsilon=epsilon)


# ---------------------------------------------------------------- comparator

@dataclass(frozen=True)
class SchemeComparison:
    """Active-first vs active-second ordering of the approximate rates."""

    tapr_at_least_tpar: bool
    margin: float          # rhs - 1/rho; positive iff TAPR >= TPAR
    inv_ref_gain: float    # 1/rho
    rhs: float             # Pv/(d3^2*s0^2) - Pt/(d1^2*sv2)


def compare_schemes(params: SystemParams, topo: Topology) -> SchemeComparison:
    rhs = (params.amp_power_budget / (topo.d3 ** 2 * params.rx_noise_power)
           - params.transmit_power / (topo.d1 ** 2 * params.amp_noise_power))
    inv_rho = 1.0 / params.ref_gain
    margin = rhs - inv_rho
    return SchemeComparison(tapr_at_least_tpar=margin >= 0.0, margin=margin,
                            inv_ref_gain=inv_rho, rhs=rhs)


# ----------------------------------------------------------------- simulation

# Samples per block. Part of the mapping from seed to number, with the
# per-block generator (SFC64 on SeedSequence(seed, spawn_key=(k,))):
# changing either changes every Monte-Carlo result.
_MC_BLOCK = 8192
# Floats per noise sub-chunk (2 MB). A block's rows are drawn in order from
# its own generator however they are cut, so this bounds memory and leaves
# every draw unchanged. Each sub-chunk hands the interpreter lock between the
# pool's threads twice; at 2**16 that cost about 12% of the wall time on two
# threads for the same CPU time, and at 2**18 it is no longer measurable.
_MC_CHUNK = 2 ** 18
# Threads that run the blocks, one per CPU this process may use
# (sched_getaffinity is missing on macOS and Windows). Any value gives the
# same result.
_MC_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
# Blocks in flight per thread. Two keep every thread busy while the oldest
# block's sum is collected.
_MC_WINDOW = 2


def check_seed(seed) -> int:
    """The seed as an int; ConfigError unless it is an integer >= 0 (None,
    which numpy would fill from OS entropy, is refused)."""
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def simulate_empirical_snr(params: SystemParams, topo: Topology, alloc,
                           reflection: ReflectionConfig, num_samples: int,
                           seed: int) -> LinkBudget:
    """Sample-level SNR estimate from the received-signal model.

    The symbols have unit modulus, so every sample's signal power is
    Pt*|cascade|^2 and no symbol is drawn: the meter checks the noise model,
    and snr_exact_matrix carries the signal path. Per-element circular complex
    Gaussian amplification noise (variance sigma_v^2) and receiver noise
    (sigma_0^2) are drawn explicitly, and the SNR is the signal power over
    the noise's sample power.

    The samples are cut into blocks of _MC_BLOCK. Block k builds its own
    generator when it runs, Generator(SFC64(SeedSequence(seed,
    spawn_key=(k,)))), whose stream is the same as that of
    SeedSequence(seed).spawn(n_blocks)[k], and the blocks run on a pool of
    min(_MC_WORKERS, n_blocks) threads. The per-block noise sums are
    combined in block order with math.fsum, so the result depends on the seed
    alone: the same number for any worker count and any order in which
    blocks finish. At most _MC_WINDOW blocks per thread are in flight: the
    oldest is collected before another is submitted, so the futures held do
    not grow with num_samples.

    Each block fills its noise rows in sub-chunks of at most _MC_CHUNK floats
    (one row if a row is wider), drawn in order from the block's generator,
    and projects them into one block-length received vector. A thread so
    holds at most max(_MC_CHUNK, 2*(n+1)) floats of noise, with n the
    elements whose noise reaches the receiver, plus a few block-length
    vectors. The sub-chunk size changes no draw; only where a one-row
    sub-chunk is wider than about 8192 complex columns does einsum sum that
    row in another order, which can move the last digits of the estimate.
    """
    if (not isinstance(num_samples, numbers.Integral) or isinstance(num_samples, bool)
            or num_samples < 1):
        raise ConfigError(f"num_samples must be an integer >= 1, got {num_samples!r}")
    seed = check_seed(seed)
    # imported here, not at the top: concurrent.futures pulls in logging,
    # which would add about 12 ms to every start of the library and CLI
    from concurrent.futures import ThreadPoolExecutor

    num_samples = int(num_samples)
    through_second, through_both, cascade = _cascade(
        build_channels(params, topo, alloc), reflection, alloc.scheme)
    noise_weights = through_both if alloc.scheme == TAPR else through_second
    # one complex weight per column of a sample row: the elements'
    # amplification noise, then the receiver noise in the last column
    weights = np.append(math.sqrt(params.amp_noise_power / 2.0) * noise_weights,
                        math.sqrt(params.rx_noise_power / 2.0))
    # noise rows per sub-chunk: a row holds a real and an imaginary draw per
    # column
    row_floats = 2 * weights.shape[0]
    rows = min(max(1, _MC_CHUNK // row_floats), _MC_BLOCK, num_samples)

    n_blocks = -(-num_samples // _MC_BLOCK)

    def block_noise(k: int) -> float:
        m = min(_MC_BLOCK, num_samples - k * _MC_BLOCK)
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(k,))))
        buf = np.empty((rows, row_floats))
        received = np.empty(m, dtype=np.complex128)
        for s in range(0, m, rows):
            c = min(rows, m - s)
            rng.standard_normal(out=buf[:c])
            # einsum, not @: BLAS threads would spin against the pool's threads
            np.einsum("ij,j->i", buf[:c].view(np.complex128), weights, out=received[s:s + c])
        return float(np.sum(np.abs(received) ** 2))

    workers = min(_MC_WORKERS, n_blocks)
    sums = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for k in range(n_blocks):
            if len(pending) == _MC_WINDOW * workers:
                sums.append(pending.popleft().result())
            pending.append(pool.submit(block_noise, k))
        sums.extend(future.result() for future in pending)

    signal = float(params.transmit_power * abs(cascade) ** 2)
    noise = math.fsum(sums) / num_samples
    snr = signal / noise
    return LinkBudget(scheme=alloc.scheme, snr=snr, rate=rate_from_snr(snr),
                      signal_power=signal, amp_noise_power_at_rx=None,
                      rx_noise_power=None)
