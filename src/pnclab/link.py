"""Physical link: fading, noise, pilot estimation, detection, and recovery.

Conventions: channel entries are unit-variance circularly-symmetric complex
Gaussians; ``noise_var`` is the total complex noise variance (half per real
dimension); LLRs are ``log(P(bit=0)/P(bit=1))``, so a negative value decides
bit 1.  With unit-energy constellations and m information bits per symbol
per terminal, ``noise_var = 1 / (m * Eb/N0)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import BitMatrix, BitVector, InconsistentSystemError, inverse_f2, solve
from .mapping import _parity_table, joint_vector_table, ncv_table, superimpose
from .modulation import Constellation

PILOT_SYMBOL = (1.0 + 1.0j) / math.sqrt(2.0)

# exp of anything below this is exactly 0 (the least subnormal is exp(-744.4)),
# reached through an underflow path about 15x slower than a normal exp, so
# _bit_llrs writes the zeros itself (np.exp works lane by lane); a bit class
# with every term below it gives L = +-inf, which quantize_llr saturates.
_EXP_FLOOR = -750.0


def noise_variance(ebn0_db: float, bits_per_symbol: int) -> float:
    return 1.0 / (bits_per_symbol * 10.0 ** (ebn0_db / 10.0))


def draw_channel(rng: np.random.Generator, n_aps: int = 2, n_terminals: int = 2) -> np.ndarray:
    h = rng.standard_normal((n_aps, n_terminals)) + 1j * rng.standard_normal((n_aps, n_terminals))
    return h / math.sqrt(2.0)


def _noise(rng: np.random.Generator, shape, noise_var: float) -> np.ndarray:
    if noise_var == 0.0:
        return np.zeros(shape, dtype=complex)
    s = math.sqrt(noise_var / 2.0)
    return s * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def transmit(H: np.ndarray, noise_var: float, symbols: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Superimpose all terminals' symbol streams at every AP and add noise.

    ``symbols`` has shape (terminals, uses); the result has shape (APs, uses).
    """
    H = np.asarray(H, dtype=complex)
    symbols = np.asarray(symbols, dtype=complex)
    return H @ symbols + _noise(rng, (H.shape[0], symbols.shape[1]), noise_var)


def transmit_pilots(H: np.ndarray, noise_var: float, pilot_len: int, rng: np.random.Generator) -> np.ndarray:
    """Time-orthogonal pilot phase: each terminal sends alone for pilot_len uses.

    Returns shape (APs, terminals, pilot_len).
    """
    H = np.asarray(H, dtype=complex)
    n_aps, n_terminals = H.shape
    y = H[:, :, None] * PILOT_SYMBOL + _noise(rng, (n_aps, n_terminals, pilot_len), noise_var)
    return y


def estimate_channel(y_pilots: np.ndarray, pilot_len: int) -> np.ndarray:
    """Least-squares channel estimate from time-orthogonal pilots.

    Per-coefficient error variance is noise_var / pilot_len.
    """
    if pilot_len < 1:
        raise ValueError("pilot_len must be >= 1")
    return y_pilots.mean(axis=2) * np.conj(PILOT_SYMBOL) / abs(PILOT_SYMBOL) ** 2


def _bit_llrs(e: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The likelihood kernel of both LLR detectors (exact sum form): ``e``
    (..., samples, hyps) holds log-likelihoods minus their row maxima and is
    overwritten, ``bits`` (..., hyps, n) the 0/1 labels; gives (..., samples, n)."""
    dead = e < _EXP_FLOOR
    np.putmask(e, dead, 0.0)
    np.exp(e, out=e)
    np.putmask(e, dead, 0.0)
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
    (..., samples, t), each slice equal to the one-AP call bit for bit (the
    likelihood sums are one matrix product per slice, never a flattened
    one, whose blocking could round differently).
    """
    hh = np.asarray(h, dtype=complex)
    one = hh.ndim == 1
    ys = np.asarray(y, dtype=complex)
    if one:
        scalar = ys.ndim == 0
        ys, hh, rows = np.atleast_1d(ys)[None], hh[None], np.array([matrix.rows])
    else:
        rows = np.asarray(matrix)
    w_of_tau, _ = joint_vector_table(constellation.bits_per_symbol)
    sc = superimpose(constellation, hh)
    # bits[..., tau, i]: bit i of the NCV of joint message tau
    bits = _parity_table(sc.mu)[w_of_tau[:, None], rows[..., None, :]].astype(float)
    # metric[..., tau, sample], samples on the fast axis: |p - y| is |y - p|
    # bit for bit, and the reduction over hypotheses runs along whole rows
    metric = np.abs(sc.points[..., :, None] - ys[..., None, :])
    metric *= metric
    metric /= -noise_var            # -(d**2) / noise_var, bit for bit
    if max_log:
        out = np.empty(ys.shape + (rows.shape[-1],))
        for i in range(rows.shape[-1]):
            side = bits[..., :, i, None] == 1
            out[..., i] = np.where(side, -np.inf, metric).max(axis=-2) - np.where(side, metric, -np.inf).max(axis=-2)
    else:
        # e: (..., samples, 2^mu) C-ordered, the one-AP product's operand layout
        e = np.empty(ys.shape + metric.shape[-2:-1])
        np.subtract(metric.swapaxes(-1, -2), metric.max(axis=-2)[..., None], out=e)
        out = _bit_llrs(e, bits)
    if one:
        return out[0, 0] if scalar else out[0]
    return out


def hard_ncv(y, h: tuple[complex, complex], matrix: BitMatrix, constellation: Constellation) -> np.ndarray:
    """Zero-noise limit of detect_ncv: NCV of the nearest superposition point."""
    ys = np.atleast_1d(np.asarray(y, dtype=complex))
    sc = superimpose(constellation, h)
    table = ncv_table(matrix, constellation.bits_per_symbol)
    idx = np.abs(ys[:, None] - sc.points[None, :]).argmin(axis=1)
    return table[idx]


def llrs_to_bits(llrs: np.ndarray) -> np.ndarray:
    """Hard decisions: negative L-value means bit 1."""
    return (np.asarray(llrs) < 0).astype(np.int64)


def cpu_recover(
    x: BitVector,
    g: BitMatrix,
    llrs=None,
) -> tuple[BitVector, int]:
    """Solve the stacked mapping equations for the joint message.

    For a square invertible stack this is plain inversion.  Overdetermined
    stacks can carry conflicting equations after detection errors; those are
    resolved by discarding the lowest-|L-value| equations until the system
    is consistent.  Returns the message and the number of dropped equations.
    """
    if g.n_rows != x.length:
        raise ValueError("stack height does not match NCV length")
    weights = [math.inf] * g.n_rows if llrs is None else [abs(float(v)) for v in llrs]
    if len(weights) != g.n_rows:
        raise ValueError("one L-value per stacked equation is required")
    active = list(range(g.n_rows))
    dropped = 0
    while True:
        sub = BitMatrix.from_row_ints([g.rows[r] for r in active], g.n_cols)
        rhs = BitVector(len(active), sum(((x.value >> r) & 1) << i for i, r in enumerate(active)))
        try:
            return solve(sub, rhs), dropped
        except InconsistentSystemError:
            victim = min(active, key=lambda r: (weights[r], -r))
            active.remove(victim)
            dropped += 1


def recover_batch(g, x_bits: np.ndarray) -> np.ndarray:
    """Vectorized recovery for square invertible stacks.

    One stack: ``g`` is a BitMatrix and ``x_bits`` has shape (samples, mu).
    A chunk of frames: ``g`` is an integer array (frames, mu) of each
    frame's stacked packed rows and ``x_bits`` has shape (frames, samples,
    mu).  Returns message bits shaped like ``x_bits``, component k in the
    last axis' column k.  Each distinct stack is inverted once per call.
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
    distinct: dict[tuple[int, ...], int] = {}
    which = [distinct.setdefault(tuple(rows), len(distinct)) for rows in stacks.tolist()]
    inverses = np.array([inverse_f2(BitMatrix.from_row_ints(rows, mu)).rows for rows in distinct])
    # unpacked transposes: [stack, c, r] is bit c of inverse row r
    bits = (inverses[:, None, :] >> np.arange(mu)[:, None]) & 1
    out = (x @ bits[which]) % 2
    return out[0] if one else out


def comp_ideal(ys: np.ndarray, H: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Centralized joint maximum-likelihood detection over all symbol pairs.

    ``ys`` is (APs, uses) and ``H`` (APs, 2), or both carry leading frame
    axes.  Returns per-use joint indices (terminal-1 label in the high
    bits), shaped (..., uses), minimizing the stacked residual norm
    exhaustively.
    """
    m = constellation.bits_per_symbol
    size = 1 << m
    idx = np.arange(size * size)
    s1 = constellation.points[idx >> m]
    s2 = constellation.points[idx & (size - 1)]
    H = np.asarray(H)
    hyp = H[..., 0, None] * s1 + H[..., 1, None] * s2
    cost = np.abs(np.asarray(ys)[..., :, None] - hyp[..., None, :])
    cost *= cost
    return cost.sum(axis=-3).argmin(axis=-1)


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform mid-rise scalar quantizer with clipping."""

    bits: int = 2
    clip: float = 8.0

    def __post_init__(self) -> None:
        if self.bits not in (2, 4):
            raise ValueError("quantizer bits must be 2 or 4")
        if self.clip <= 0:
            raise ValueError("clip range must be positive")

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
    is detect_ncv's, so an L-value beyond about 700 is +-inf.
    """
    m = constellation.bits_per_symbol
    size = 1 << m
    hh = np.asarray(h, dtype=complex)
    ys = np.asarray(y, dtype=complex)
    if hh.ndim == 1:
        ys = np.atleast_1d(ys)
    idx = np.arange(size * size)
    hyp = hh[..., 0, None] * constellation.points[idx >> m] + hh[..., 1, None] * constellation.points[idx & (size - 1)]
    # bits[tau, j]: bit j of joint label tau, terminal 1's then 2's, MSB first
    bits = ((idx[:, None] >> np.arange(2 * m - 1, -1, -1)) & 1).astype(float)
    e = np.abs(ys[..., :, None] - hyp[..., None, :])
    e *= e
    e /= -noise_var
    e -= e.max(axis=-1, keepdims=True)
    out = _bit_llrs(e, bits)
    return np.moveaxis(out, -1, -2).reshape(out.shape[:-2] + (2, m, ys.shape[-1]))


def comp_combine(dequantized: np.ndarray) -> np.ndarray:
    """CPU side of the quantized baseline: sum per-AP LLRs, threshold.

    ``dequantized`` has shape (..., APs, terminals, bits, uses); returns
    hard bits (..., terminals, bits, uses).
    """
    return (dequantized.sum(axis=-4) < 0).astype(np.int64)
