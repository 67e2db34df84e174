"""Physical link: fading, noise, pilot estimation, detection, and recovery.

Conventions: channel entries are unit-variance circularly-symmetric complex
Gaussians; ``noise_var`` is the total complex noise variance (half per real
dimension); LLRs are ``log(P(bit=0)/P(bit=1))``, so a negative value decides
bit 1.  With unit-energy constellations and m information bits per symbol
per terminal, ``noise_var = 1 / (m * Eb/N0)``.

Every detector scores the 2^(2m) joint hypotheses p of ``mapping.superimpose``
at samples y on one real grid, ``_correlations``: 2 Re(p conj y) - |p|^2, which is
-|p - y|^2 up to the |y|^2 that every hypothesis shares.  comp_ideal takes its
argmax over the last axis of the samples-outermost grid (..., samples, 2^mu);
detect_ncv and comp_nonideal_llrs run the likelihood kernel ``_llrs`` on the
hypotheses-outermost grid (..., 2^mu, samples), whose reductions over the
hypotheses run along whole sample rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import BitMatrix, inverse_f2
from .mapping import SuperimposedConstellation, _ncv_bits, superimpose
from .modulation import Constellation

PILOT_SYMBOL = (1.0 + 1.0j) / math.sqrt(2.0)

# exp of anything below this is exactly 0 (the least subnormal is exp(-744.4)),
# so _llrs counts such a lane dead and writes its zero itself; a bit class with
# every term below it gives L = +-inf, which quantize_llr saturates.  _llrs adds
# _EXP_SHIFT to every clamped lane, so exp reads only [-700, 50] and returns
# normal doubles: numpy's exp is about 15x slower from -708 down, where its
# results near or enter the subnormals, and about 100x where they are subnormal.
# 2^(2m) terms of e^50 are far from overflow, and e^50 cancels in the L-value.
_EXP_FLOOR = -750.0
_EXP_SHIFT = 50.0


def noise_variance(ebn0_db: float, bits_per_symbol: int) -> float:
    return 1.0 / (bits_per_symbol * 10.0 ** (ebn0_db / 10.0))


def _normals(rng, shape) -> np.ndarray:
    """Real and imaginary standard-normal parts, (2, frames, *shape), from a
    sequence of per-frame generators: frame f is drawn by rng[f] alone, one
    (2, *shape) fill in the stream order of ``rng[f].standard_normal((2, *shape))``."""
    out = np.empty((len(rng), 2, *shape))
    for g, frame in zip(rng, out):
        g.standard_normal(out=frame)
    return out.swapaxes(0, 1)


def draw_channel(rng, n_aps: int = 2, n_terminals: int = 2) -> np.ndarray:
    """(frames, APs, terminals), one frame from each generator of the sequence ``rng``."""
    re, im = _normals(rng, (n_aps, n_terminals))
    return (re + 1j * im) / math.sqrt(2.0)


def _noise(rng, shape, noise_var: float) -> np.ndarray:
    if noise_var == 0.0:
        return np.zeros(shape, dtype=complex)      # broadcasts over a frame axis
    re, im = _normals(rng, shape)
    return math.sqrt(noise_var / 2.0) * (re + 1j * im)


def transmit(H: np.ndarray, noise_var: float, symbols: np.ndarray, rng) -> np.ndarray:
    """Superimpose all terminals' symbol streams at every AP and add noise.

    ``H`` is (frames, APs, terminals) and ``symbols`` (frames, terminals,
    uses), with one generator per frame in the sequence ``rng``; the result
    is (frames, APs, uses), and ``H @ symbols`` is a stacked product of
    one-frame slices.
    """
    H = np.asarray(H, dtype=complex)
    symbols = np.asarray(symbols, dtype=complex)
    return H @ symbols + _noise(rng, (H.shape[-2], symbols.shape[-1]), noise_var)


def transmit_pilots(H: np.ndarray, noise_var: float, pilot_len: int, rng) -> np.ndarray:
    """Time-orthogonal pilot phase: each terminal sends alone for pilot_len uses.

    ``H`` is (frames, APs, terminals), with one generator per frame in the
    sequence ``rng``; returns (frames, APs, terminals, pilot_len).
    """
    H = np.asarray(H, dtype=complex)
    return H[..., None] * PILOT_SYMBOL + _noise(rng, (*H.shape[-2:], pilot_len), noise_var)


def estimate_channel(y_pilots: np.ndarray, pilot_len: int) -> np.ndarray:
    """Least-squares channel estimate from time-orthogonal pilots
    (..., APs, terminals, pilot_len) -> (..., APs, terminals).

    Per-coefficient error variance is noise_var / pilot_len.
    """
    if pilot_len < 1:
        raise ValueError("pilot_len must be >= 1")
    return y_pilots.mean(axis=-1) * np.conj(PILOT_SYMBOL) / abs(PILOT_SYMBOL) ** 2


_GRID_ELEMENTS = 2**16     # bounds a detector's grid: see _blockwise


def _correlations(points: np.ndarray, ys: np.ndarray, samples_outer: bool = False) -> np.ndarray:
    """The correlation metric 2 Re(p conj y) - |p|^2 = |y|^2 - |p - y|^2 of the optimum
    detector (Proakis & Salehi, Digital Communications, 5th ed., 2008) for every point p
    of ``points`` (..., 2^mu) and sample y of ``ys`` (..., samples): one stacked product
    at the slice shape, [2 Re p, 2 Im p, -|p|^2] @ [Re y; Im y; 1] of shape
    (..., 2^mu, samples), or with ``samples_outer`` [Re y, Im y, 1] @ [2 Re p; 2 Im p;
    -|p|^2] of shape (..., samples, 2^mu)."""
    a, b = (-1, -2) if samples_outer else (-2, -1)
    samples = np.stack([ys.real, ys.imag, np.ones(ys.shape)], axis=a)
    hypotheses = np.stack([2.0 * points.real, 2.0 * points.imag, -(points.real**2 + points.imag**2)], axis=b)
    return samples @ hypotheses if samples_outer else hypotheses @ samples


def _blockwise(points: np.ndarray, ys: np.ndarray, score, samples_outer: bool = False) -> np.ndarray:
    """``score(grid, block)`` for each block of frames of ``ys`` (frames, APs,
    samples), concatenated: the fewest whole frames that reach _GRID_ELEMENTS grid
    elements (18 qam4 or 2 qam16 frames at 2 APs x 120 uses), or one frame where one
    is larger; one block without a frame axis or with no frames.  Each grid, laid out
    as ``samples_outer`` asks _correlations, is freed as its score returns."""
    points = np.broadcast_to(points, ys.shape[:-1] + points.shape[-1:])
    step = -(-_GRID_ELEMENTS // max(1, math.prod(ys.shape[1:]) * points.shape[-1])) if ys.ndim > 2 else 0
    blocks = [slice(a, a + step) for a in range(0, len(ys) or 1, step)] if step else [...]
    return np.concatenate([score(_correlations(points[s], ys[s], samples_outer), s) for s in blocks])


def _llrs(sc: SuperimposedConstellation, ys: np.ndarray, bits: np.ndarray, noise_var: float, max_log: bool = False):
    """The likelihood kernel of every LLR detector: L-values (..., n, samples)
    of the 0/1 float labels ``bits`` (..., 2^mu, n) of the hypotheses of
    ``sc`` at samples ``ys`` (..., samples), from log-likelihoods metric / noise_var
    on the hypotheses-outermost grid.
    The exact form sums exp of those minus each sample's maximum, one matrix product
    bits^T @ e per slice; it shifts before it divides, so an overflowing lane is -inf,
    a dead lane.  A lane below _EXP_FLOOR is dead: clamped, raised by _EXP_SHIFT like
    every lane, and zeroed after exp.  max-log takes each bit's two class maxima in
    turn, so no temporary outgrows the grid."""
    bits = np.ascontiguousarray(np.swapaxes(bits, -1, -2))      # (..., n, 2^mu), the left factor of bits^T @ e
    ones, zeros = (np.broadcast_to(b, ys.shape[:-1] + bits.shape[-2:]) for b in (bits, 1.0 - bits))
    def block(e, s):
        if max_log:     # each class maximum reduces whole sample rows
            side = ones[s] == 1
            gap = np.stack([e.max(axis=-2, where=~side[..., j, :, None], initial=-np.inf)
                            - e.max(axis=-2, where=side[..., j, :, None], initial=-np.inf) for j in range(side.shape[-2])], axis=-2)
            with np.errstate(over="ignore"):
                return gap / noise_var
        e -= e.max(axis=-2, keepdims=True)
        with np.errstate(over="ignore"):
            e /= noise_var
        live = e < _EXP_FLOOR
        np.logical_not(live, out=live)      # a NaN lane stays live, and NaN
        np.maximum(e, _EXP_FLOOR, out=e)    # finite, so a -inf lane times 0 is 0, not NaN
        e += _EXP_SHIFT
        np.exp(e, out=e)
        e *= live
        with np.errstate(divide="ignore"):
            return np.log(zeros[s] @ e) - np.log(ones[s] @ e)

    return _blockwise(sc.points, ys, block)


def detect_ncv(
    y,
    h,
    matrix,
    constellation: Constellation,
    noise_var: float,
    max_log: bool = False,
) -> np.ndarray:
    """Per-bit L-values of the network-coded vector from each AP's samples.

    Sums the Gaussian likelihood over every joint-message hypothesis mapped
    to each bit value (uniform priors).  A matrix row mapping every
    hypothesis to one side yields an infinite L-value on that bit, which is
    the flag for a degenerate row.  ``max_log`` switches to the max-log
    approximation.

    ``y`` has shape (..., samples), ``h`` (..., 2) and ``matrix`` is an
    integer array of packed matrix rows (..., t), for a stack of frames and
    APs or for one AP; returns (..., samples, t), each slice equal to the
    call on that slice alone bit for bit.
    """
    ys = np.asarray(y, dtype=complex)
    bits = _ncv_bits(matrix, constellation.bits_per_symbol).astype(float)
    return np.swapaxes(_llrs(superimpose(constellation, h), ys, bits, noise_var, max_log), -1, -2)


def llrs_to_bits(llrs: np.ndarray) -> np.ndarray:
    """Hard decisions: negative L-value means bit 1."""
    return (np.asarray(llrs) < 0).astype(np.int64)


def recover_batch(g, x_bits: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Vectorized recovery for square invertible stacks.

    ``g`` is an integer array (frames, mu) of each frame's stacked packed
    rows and ``x_bits`` has shape (frames, samples, mu).  Returns message
    bits shaped like ``x_bits``, component k in the last axis' column k.
    Each distinct stack is inverted once into ``memo``, which maps a stack's
    rows to its unpacked inverse and may be passed again, so a run that
    keeps one inverts each stack once.
    """
    stacks, x = np.asarray(g), np.asarray(x_bits)
    if stacks.shape[-1] != x.shape[-1]:
        raise ValueError("recover_batch needs a square stack")
    mu = stacks.shape[-1]
    memo = {} if memo is None else memo
    keys = [tuple(rows) for rows in stacks.tolist()]
    for key in keys:
        if key not in memo:
            inverse = np.array(inverse_f2(BitMatrix.from_row_ints(key, mu)).rows)
            # the unpacked transpose: [c, r] is bit c of inverse row r
            memo[key] = (inverse >> np.arange(mu)[:, None]) & 1
    return (x @ np.stack([memo[key] for key in keys])) % 2


def comp_ideal(ys: np.ndarray, H: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Centralized joint maximum-likelihood detection over all symbol pairs.

    ``ys`` is (APs, uses) and ``H`` (APs, 2), or both carry leading frame
    axes.  Returns per-use joint indices (terminal-1 label in the high
    bits), shaped (..., uses), minimizing the stacked residual norm: the argmax
    of the correlation metric summed over APs, one block of frames at a time.
    """
    points = superimpose(constellation, H).points
    return _blockwise(points, np.asarray(ys), lambda g, s: g.sum(axis=-3).argmax(axis=-1), samples_outer=True)


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform mid-rise scalar quantizer with clipping."""

    bits: int = 2
    clip: float = 8.0

    def __post_init__(self) -> None:
        if self.bits not in (2, 4):
            raise ValueError("quantizer bits must be 2 or 4")
        if not 0 < self.clip <= float(np.finfo(float).max):     # exact for an int too large for a float
            raise ValueError(f"clip range must be positive and finite, not {self.clip}")

    @property
    def step(self) -> float:
        return 2.0 * self.clip / (1 << self.bits)


def quantize_llr(values: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    # clipped before the integer cast, so huge and infinite L-values saturate
    return np.floor(np.clip((np.asarray(values) + spec.clip) / spec.step, 0, (1 << spec.bits) - 1)).astype(np.int64)


def dequantize_llr(idx: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    return -spec.clip + (np.asarray(idx) + 0.5) * spec.step


def comp_nonideal_llrs(
    y: np.ndarray,
    h,
    constellation: Constellation,
    noise_var: float,
) -> np.ndarray:
    """Per-terminal per-bit LLRs at each AP, marginalizing the other terminal.

    ``y`` (..., uses) and ``h`` (..., 2) give (..., terminals,
    bits_per_symbol, uses).  The kernel is detect_ncv's, called directly (no
    detect_ncv call runs), so an L-value beyond about 745 is +-inf.
    """
    m = constellation.bits_per_symbol
    ys = np.asarray(y, dtype=complex)
    # the identity's NCV bit j is component j of w: label bit j of tau, MSB first
    bits = _ncv_bits(1 << np.arange(2 * m), m).astype(float)
    out = _llrs(superimpose(constellation, h), ys, bits, noise_var)
    return out.reshape(out.shape[:-2] + (2, m, ys.shape[-1]))


def comp_combine(dequantized: np.ndarray) -> np.ndarray:
    """CPU side of the quantized baseline: sum per-AP LLRs, threshold.

    ``dequantized`` has shape (..., APs, terminals, bits, uses); returns
    hard bits (..., terminals, bits, uses).
    """
    return (dequantized.sum(axis=-4) < 0).astype(np.int64)
