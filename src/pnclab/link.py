"""Physical link: fading, noise, pilot estimation, detection, and recovery.

Conventions: channel entries are unit-variance circularly-symmetric complex
Gaussians; ``noise_var`` is the total complex noise variance (half per real
dimension); LLRs are ``log(P(bit=0)/P(bit=1))``, so a negative value decides
bit 1.  With unit-energy constellations and m information bits per symbol
per terminal, ``noise_var = 1 / (m * Eb/N0)``.

Every detector scores the 2^(2m) joint hypotheses of ``mapping.superimpose``
on one distance grid, ``_distances``: comp_ideal and hard_ncv take its argmin;
detect_ncv and comp_nonideal_llrs run the one likelihood kernel ``_llrs`` on
it, with hypothesis labels from ``mapping._ncv_bits``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import BitMatrix, inverse_f2
from .mapping import SuperimposedConstellation, _ncv_bits, ncv_table, superimpose
from .modulation import Constellation

PILOT_SYMBOL = (1.0 + 1.0j) / math.sqrt(2.0)

# exp of anything below this is exactly 0 (the least subnormal is exp(-744.4)),
# reached through an underflow path about 15x slower than a normal exp, so
# _llrs writes the zeros itself (np.exp works lane by lane); a bit class
# with every term below it gives L = +-inf, which quantize_llr saturates.
_EXP_FLOOR = -750.0


def noise_variance(ebn0_db: float, bits_per_symbol: int) -> float:
    return 1.0 / (bits_per_symbol * 10.0 ** (ebn0_db / 10.0))


def _normals(rng, shape) -> np.ndarray:
    """Real and imaginary standard-normal parts, (2, *shape).  A sequence of
    per-frame generators gives (2, frames, *shape), frame f drawn by rng[f]
    alone; one (2, *shape) fill runs in stream order, as two calls would."""
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal((2, *shape))
    out = np.empty((len(rng), 2, *shape))
    for g, frame in zip(rng, out):
        g.standard_normal(out=frame)
    return out.swapaxes(0, 1)


def draw_channel(rng, n_aps: int = 2, n_terminals: int = 2) -> np.ndarray:
    """(APs, terminals), or (frames, APs, terminals) from a sequence of generators."""
    re, im = _normals(rng, (n_aps, n_terminals))
    return (re + 1j * im) / math.sqrt(2.0)


def _noise(rng, shape, noise_var: float) -> np.ndarray:
    if noise_var == 0.0:
        return np.zeros(shape, dtype=complex)      # broadcasts over a frame axis
    re, im = _normals(rng, shape)
    return math.sqrt(noise_var / 2.0) * (re + 1j * im)


def transmit(H: np.ndarray, noise_var: float, symbols: np.ndarray, rng) -> np.ndarray:
    """Superimpose all terminals' symbol streams at every AP and add noise.

    ``symbols`` has shape (terminals, uses); the result has shape (APs, uses).
    With a sequence of per-frame generators all three carry a leading frame
    axis, and ``H @ symbols`` is a stacked product of one-frame slices.
    """
    H = np.asarray(H, dtype=complex)
    symbols = np.asarray(symbols, dtype=complex)
    return H @ symbols + _noise(rng, (H.shape[-2], symbols.shape[-1]), noise_var)


def transmit_pilots(H: np.ndarray, noise_var: float, pilot_len: int, rng) -> np.ndarray:
    """Time-orthogonal pilot phase: each terminal sends alone for pilot_len uses.

    Returns shape (APs, terminals, pilot_len), or (frames, APs, terminals,
    pilot_len) with a sequence of per-frame generators.
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


def _distances(sc: SuperimposedConstellation, ys: np.ndarray) -> tuple[np.ndarray, int]:
    """|p - y|^2 for every hypothesis point p of ``sc`` and sample y of ``ys``
    (..., samples), and the grid's hypothesis axis.  The longer of the two
    axes is the fast one: (..., samples, 2^mu), axis -1, when hypotheses
    outnumber samples (qam16 at 120 uses), else (..., 2^mu, samples), axis
    -2.  Each element is the same p - y either way."""
    axis = -1 if sc.points.shape[-1] > ys.shape[-1] else -2
    d = np.abs(np.expand_dims(sc.points, -3 - axis) - np.expand_dims(ys, axis))
    d *= d
    return d, axis


def _llrs(sc: SuperimposedConstellation, ys: np.ndarray, bits: np.ndarray, noise_var: float, max_log: bool = False):
    """The likelihood kernel of every LLR detector: L-values (..., samples, n)
    of the 0/1 float labels ``bits`` (..., 2^mu, n) of the hypotheses of
    ``sc`` at samples ``ys`` (..., samples).  The exact form sums exp of the
    log-likelihoods minus their row maxima, one matrix product per slice."""
    metric, axis = _distances(sc, ys)
    metric /= -noise_var            # -(d**2) / noise_var, bit for bit
    if max_log:
        side, metric = np.expand_dims(bits == 1, -4 - axis), metric[..., None]   # hypotheses on axis - 1
        return np.where(side, -np.inf, metric).max(axis=axis - 1) - np.where(side, metric, -np.inf).max(axis=axis - 1)
    # e: (..., samples, 2^mu) C-ordered, so every slice's product has one layout
    hyps = metric if axis == -1 else metric.swapaxes(-1, -2)
    e = metric if axis == -1 else np.empty(hyps.shape)
    np.subtract(hyps, hyps.max(axis=-1, keepdims=True), out=e)
    dead = e < _EXP_FLOOR
    np.putmask(e, dead, 0.0)        # not a multiply: a -inf lane would turn NaN
    np.exp(e, out=e)
    e *= np.logical_not(dead, out=dead)
    with np.errstate(divide="ignore"):
        return np.log(e @ (1.0 - bits)) - np.log(e @ bits)


def detect_ncv(
    y,
    h,
    matrix,
    constellation: Constellation,
    noise_var: float,
    max_log: bool = False,
) -> np.ndarray:
    """Per-bit L-values of the network-coded vector from one AP's samples.

    Sums the Gaussian likelihood over every joint-message hypothesis mapped
    to each bit value (uniform priors).  A matrix row mapping every
    hypothesis to one side yields an infinite L-value on that bit, which is
    the flag for a degenerate row.  ``max_log`` switches to the max-log
    approximation.

    One AP: ``y`` is a scalar or a 1-D sample array, ``h`` a coefficient
    pair and ``matrix`` a BitMatrix; returns (t,) or (samples, t).  A stack
    of frames and APs: ``y`` has shape (..., samples), ``h`` (..., 2) and
    ``matrix`` is an integer array of packed rows (..., t); returns
    (..., samples, t), each slice equal to the one-AP call bit for bit.
    """
    ys = np.asarray(y, dtype=complex)
    rows = matrix.rows if isinstance(matrix, BitMatrix) else matrix
    bits = _ncv_bits(rows, constellation.bits_per_symbol).astype(float)
    out = _llrs(superimpose(constellation, h), np.atleast_1d(ys), bits, noise_var, max_log)
    return out[0] if ys.ndim == 0 else out


def hard_ncv(y, h: tuple[complex, complex], matrix: BitMatrix, constellation: Constellation) -> np.ndarray:
    """Zero-noise limit of detect_ncv: NCV of the nearest superposition point."""
    ys = np.atleast_1d(np.asarray(y, dtype=complex))
    d, axis = _distances(superimpose(constellation, h), ys)
    idx = d.argmin(axis=axis)
    return ncv_table(matrix, constellation.bits_per_symbol)[idx]


def llrs_to_bits(llrs: np.ndarray) -> np.ndarray:
    """Hard decisions: negative L-value means bit 1."""
    return (np.asarray(llrs) < 0).astype(np.int64)


def recover_batch(g, x_bits: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Vectorized recovery for square invertible stacks.

    One stack: ``g`` is a BitMatrix and ``x_bits`` has shape (samples, mu).
    A chunk of frames: ``g`` is an integer array (frames, mu) of each
    frame's stacked packed rows and ``x_bits`` has shape (frames, samples,
    mu).  Returns message bits shaped like ``x_bits``, component k in the
    last axis' column k.  Each distinct stack is inverted once into
    ``memo``, which maps a stack's rows to its unpacked inverse and may be
    passed again, so a run that keeps one inverts each stack once.
    """
    one = isinstance(g, BitMatrix)
    if one:
        if g.n_rows != g.n_cols:
            raise ValueError("recover_batch needs a square stack")
        stacks, x = np.array([g.rows]), np.asarray(x_bits)
    else:
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
    out = (x @ np.stack([memo[key] for key in keys])) % 2
    return out[0] if one else out


def comp_ideal(ys: np.ndarray, H: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Centralized joint maximum-likelihood detection over all symbol pairs.

    ``ys`` is (APs, uses) and ``H`` (APs, 2), or both carry leading frame
    axes.  Returns per-use joint indices (terminal-1 label in the high
    bits), shaped (..., uses), minimizing the stacked residual norm
    exhaustively.
    """
    d, axis = _distances(superimpose(constellation, H), np.asarray(ys))
    return d.sum(axis=-3).argmin(axis=axis)


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform mid-rise scalar quantizer with clipping."""

    bits: int = 2
    clip: float = 8.0

    def __post_init__(self) -> None:
        if self.bits not in (2, 4):
            raise ValueError("quantizer bits must be 2 or 4")
        if not 0 < self.clip < math.inf:
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
    """Per-terminal per-bit LLRs at one AP, marginalizing the other terminal.

    One AP: ``y`` is (uses,) and ``h`` a coefficient pair; returns shape
    (terminals, bits_per_symbol, uses).  A stack: ``y`` (..., uses) and
    ``h`` (..., 2) give (..., terminals, bits_per_symbol, uses).  The kernel
    is detect_ncv's, called directly (no detect_ncv call runs), so an
    L-value beyond about 700 is +-inf.
    """
    m = constellation.bits_per_symbol
    ys = np.atleast_1d(np.asarray(y, dtype=complex))
    # the identity's NCV bit j is component j of w: label bit j of tau, MSB first
    bits = _ncv_bits(1 << np.arange(2 * m), m).astype(float)
    out = _llrs(superimpose(constellation, h), ys, bits, noise_var)
    return np.moveaxis(out, -1, -2).reshape(out.shape[:-2] + (2, m, ys.shape[-1]))


def comp_combine(dequantized: np.ndarray) -> np.ndarray:
    """CPU side of the quantized baseline: sum per-AP LLRs, threshold.

    ``dequantized`` has shape (..., APs, terminals, bits, uses); returns
    hard bits (..., terminals, bits, uses).
    """
    return (dequantized.sum(axis=-4) < 0).astype(np.int64)
