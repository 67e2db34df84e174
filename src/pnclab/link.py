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
hypotheses run along whole sample rows; comp_nonideal_llrs's grid is centred,
the squared distance |p - y|^2 itself, which rounds only by eps of |p - y|^2.

After each sample's maximum the kernel makes four passes over detect_ncv's
grid, a log-likelihood grid (1/noise_var is folded into the hypotheses factor):
subtract, clamp, exp and one stacked class product.  A floor lane counts
e^_EXP_FLOOR of its sample's maximum, and a class of floor lanes alone (or none)
gives L = +-inf.  The centred grid, and a call whose scaled product could
overflow, divide after the subtraction instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import inverse_f2
from .mapping import _ncv_table, superimpose
from .modulation import Constellation

PILOT_SYMBOL = (1.0 + 1.0j) / math.sqrt(2.0)

# A lane more than -_EXP_FLOOR below its sample's maximum log-likelihood is clamped
# there, a floor lane: it counts e^_EXP_FLOOR of that maximum in its class sum, not its
# own smaller term.  A class of floor lanes alone gives L = +-inf, which quantize_llr
# saturates; _FLOOR_SUM bounds such a sum per lane, exp(-700) with room for the
# rounding of up to 2^13 terms.  Every lane is raised by _EXP_SHIFT, so exp reads only
# [-700, 50] and returns normal doubles: numpy's exp is about 15x slower from -708
# down, where its results near or enter the subnormals, and about 100x where they are
# subnormal.  2^(2m) terms of e^50 are far from overflow, and e^50 cancels in L.
_EXP_FLOOR = -750.0
_EXP_SHIFT = 50.0
_FLOOR_SUM = math.exp(_EXP_FLOOR + _EXP_SHIFT) * (1.0 + 2.0**-40)


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
_CENTRED_CHUNKS = 4         # a centred grid adds its squared imaginary parts in this many chunks


def _correlations(points: np.ndarray, ys: np.ndarray, samples_outer: bool = False, centred: bool = False,
                  scale: float = 1.0) -> np.ndarray:
    """The correlation metric 2 Re(p conj y) - |p|^2 = |y|^2 - |p - y|^2 of the optimum
    detector (Proakis & Salehi, Digital Communications, 5th ed., 2008) for every point p
    of ``points`` (..., 2^mu) and sample y of ``ys`` (..., samples), over ``scale``: one
    stacked product at the slice shape, [2 Re p, 2 Im p, -|p|^2] / scale @ [Re y; Im y; 1]
    of shape (..., 2^mu, samples), or with ``samples_outer`` [Re y, Im y, 1] @ [2 Re p;
    2 Im p; -|p|^2] / scale of shape (..., samples, 2^mu).

    With ``centred`` (hypotheses outermost, no scale) the grid is the squared distance
    |p - y|^2, the negated metric with each sample's |y|^2 taken off exactly, so a value
    rounds by a few eps of |p - y|^2 rather than of |p||y|, which at high SNR is
    thousands of times the size of an L-value near a hypothesis.  Its differences are K=2
    products [Re p, -1] @ [1; Re y] (and the same for Im): exact products and one
    rounding, so Re p - Re y bit for bit, in about a third of the time of a broadcast
    subtraction.  The squared imaginary parts are added a quarter of the slices (or of
    each of fewer slices' hypotheses) at a time, so the grid is the one grid-size buffer."""
    a, b = (-1, -2) if samples_outer else (-2, -1)
    if centred:
        ones, minus = np.ones(ys.shape), -np.ones(points.shape)
        d = np.stack([points.real, minus], axis=-1) @ np.stack([ones, ys.real], axis=-2)
        d *= d
        slices, hyps = math.prod(d.shape[:-2]), d.shape[-2]
        rows = d.reshape(slices, hyps, d.shape[-1])             # a view of d
        im = np.stack([points.imag, minus], axis=-1).reshape(slices, hyps, 2)
        cols = np.stack([ones, ys.imag], axis=-2).reshape(slices, 2, d.shape[-1])
        per = max(1, -(-slices // _CENTRED_CHUNKS))       # slices per chunk, and hypotheses per
        part = max(1, -(-hyps * min(slices, _CENTRED_CHUNKS) // _CENTRED_CHUNKS))   # slice
        for i in range(0, slices, per):
            for j in range(0, hyps, part):
                e = im[i : i + per, j : j + part] @ cols[i : i + per]
                e *= e
                rows[i : i + per, j : j + part] += e
                del e       # before the next chunk is made
        return d
    samples = np.stack([ys.real, ys.imag, np.ones(ys.shape)], axis=a)
    hypotheses = np.stack([2.0 * points.real, 2.0 * points.imag, -(points.real**2 + points.imag**2)], axis=b) / scale
    return samples @ hypotheses if samples_outer else hypotheses @ samples


def _blockwise(points: np.ndarray, ys: np.ndarray, score, samples_outer: bool = False, centred: bool = False,
               scale: float = 1.0) -> np.ndarray:
    """``score(grid, block)`` for each block of frames of ``ys`` (frames, APs,
    samples), concatenated: the fewest whole frames that reach _GRID_ELEMENTS grid
    elements (18 qam4 or 2 qam16 frames at 2 APs x 120 uses), or one frame where one
    is larger; one block without a frame axis or with no frames.  Each grid, laid out,
    centred and scaled as ``samples_outer``, ``centred`` and ``scale`` ask
    _correlations, is freed as its score returns."""
    points = np.broadcast_to(points, ys.shape[:-1] + points.shape[-1:])
    step = -(-_GRID_ELEMENTS // max(1, math.prod(ys.shape[1:]) * points.shape[-1])) if ys.ndim > 2 else 0
    blocks = [slice(a, a + step) for a in range(0, len(ys) or 1, step)] if step else [...]
    return np.concatenate([score(_correlations(points[s], ys[s], samples_outer, centred, scale), s) for s in blocks])


def _folds(points: np.ndarray, ys: np.ndarray, noise_var: float) -> bool:
    """Whether the kernel may divide the hypotheses factor by noise_var: twice the
    bound (3 a + a^2) max(1, max |y|) / noise_var, a = max |p|, on the terms of a lane
    of the scaled product is finite, so no lane or partial sum of it overflows."""
    with np.errstate(all="ignore"):
        a = np.abs(points).max(initial=0.0)
        return bool(2.0 * (3.0 + a) * a * np.abs(ys).max(initial=1.0) / noise_var < np.finfo(float).max)


def _llrs(points: np.ndarray, ys: np.ndarray, side: np.ndarray, noise_var: float, max_log: bool = False,
          centred: bool = False):
    """The likelihood kernel of every LLR detector: L-values (..., n, samples)
    of the boolean labels ``side`` (..., n, 2^mu), the rows of _ncv_table that
    the caller takes, of the hypotheses ``points`` (..., 2^mu) at samples ``ys``
    (..., samples), from the log-likelihoods metric / noise_var on the
    hypotheses-outermost grid, ``centred`` as the caller asks _correlations.

    The exact form: where _folds allows and the grid is not centred, the product is
    the log-likelihood grid (_correlations divides its hypotheses factor by noise_var),
    and four passes follow each sample's maximum: subtract that maximum less
    _EXP_SHIFT, clamp at _EXP_FLOOR + _EXP_SHIFT, exp, and one stacked product
    [1 - bits; bits]^T @ e per slice for both class sums.  Otherwise each sample's
    extreme metric is subtracted, and the quotient by noise_var (-inf where it
    overflows, clamped like any lane) is raised by _EXP_SHIFT.  A class sum of at most
    its size times exp(_EXP_FLOOR + _EXP_SHIFT), with room for rounding, holds only
    floor lanes and is set to 0, so its L-value is +-inf, as is an empty class's.
    max-log takes each bit's two class maxima in turn, so no temporary outgrows the
    grid."""
    classes = np.concatenate([~side, side], axis=-2).astype(float)     # built before it is broadcast
    floor = (classes @ np.ones(classes.shape[-1]))[..., None] * _FLOOR_SUM
    classes, floor = (np.broadcast_to(a, ys.shape[:-1] + a.shape[-2:]) for a in (classes, floor))
    fold = not (centred or max_log) and _folds(points, ys, noise_var)
    n = side.shape[-2]

    def block(e, s):
        if max_log:     # each class maximum reduces whole sample rows
            one = classes[s][..., n:, :] == 1
            gap = np.stack([e.max(axis=-2, where=~one[..., j, :, None], initial=-np.inf)
                            - e.max(axis=-2, where=one[..., j, :, None], initial=-np.inf) for j in range(n)], axis=-2)
            with np.errstate(over="ignore"):
                return gap / noise_var
        if fold:
            e -= e.max(axis=-2, keepdims=True) - _EXP_SHIFT
        else:       # a centred grid is |p - y|^2, whose nearest hypothesis is its minimum
            e -= e.min(axis=-2, keepdims=True) if centred else e.max(axis=-2, keepdims=True)
            with np.errstate(over="ignore"):
                e /= -noise_var if centred else noise_var
            e += _EXP_SHIFT
        np.maximum(e, _EXP_FLOOR + _EXP_SHIFT, out=e)
        np.exp(e, out=e)
        sums = classes[s] @ e
        sums *= sums > floor[s]
        with np.errstate(divide="ignore"):
            np.log(sums, out=sums)
        return sums[..., :n, :] - sums[..., n:, :]

    return _blockwise(points, ys, block, centred=centred, scale=noise_var if fold else 1.0)


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
    call on that slice alone bit for bit, but near noise_var 1e-305, where
    _folds may decide the stack and the slice apart (they then agree in signs
    and infinities).
    """
    ys = np.asarray(y, dtype=complex)
    side = _ncv_table(constellation.bits_per_symbol).take(matrix, axis=0)
    return np.swapaxes(_llrs(superimpose(constellation, h), ys, side, noise_var, max_log), -1, -2)


def llrs_to_bits(llrs: np.ndarray) -> np.ndarray:
    """Hard decisions: negative L-value means bit 1."""
    return (np.asarray(llrs) < 0).astype(np.int64)


def recover_batch(g, x_bits: np.ndarray) -> np.ndarray:
    """Vectorized recovery for square invertible stacks.

    ``g`` is an integer array (frames, mu) of each frame's stacked packed
    rows and ``x_bits`` has shape (frames, samples, mu).  Returns message
    bits shaped like ``x_bits``, component k in the last axis' column k.
    One ``inverse_f2`` call inverts every frame's stack; message bit r of a
    sample is the parity of inverse row r against the sample's packed bits.
    """
    stacks, x = np.asarray(g), np.asarray(x_bits)
    if stacks.shape[-1] != x.shape[-1]:
        raise ValueError("recover_batch needs a square stack")
    inverse = inverse_f2(stacks)
    xp = x @ (1 << np.arange(x.shape[-1]))
    return (np.bitwise_count(inverse[:, None, :] & xp[..., None]) & 1).astype(np.int64)


def comp_ideal(ys: np.ndarray, H: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Centralized joint maximum-likelihood detection over all symbol pairs.

    ``ys`` is (APs, uses) and ``H`` (APs, 2), or both carry leading frame
    axes.  Returns per-use joint indices (terminal-1 label in the high
    bits), shaped (..., uses), minimizing the stacked residual norm: the argmax
    of the correlation metric summed over APs, one block of frames at a time.
    """
    points = superimpose(constellation, H)
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
    detect_ncv call runs), so an L-value beyond about 745 is +-inf.  Its grid is
    centred, |p - y|^2, so while |L| < 720 each L-value matches the np.logaddexp
    fold it replaced to 1e-12 of the largest of 1, |L| and the nearest hypothesis'
    |p - y|^2 / noise_var.
    """
    m = constellation.bits_per_symbol
    ys = np.asarray(y, dtype=complex)
    # the identity's NCV bit j is component j of w: label bit j of tau, MSB first
    side = _ncv_table(m).take(1 << np.arange(2 * m), axis=0)
    out = _llrs(superimpose(constellation, h), ys, side, noise_var, centred=True)
    return out.reshape(out.shape[:-2] + (2, m, ys.shape[-1]))


def comp_combine(dequantized: np.ndarray) -> np.ndarray:
    """CPU side of the quantized baseline: sum per-AP LLRs, threshold.

    ``dequantized`` has shape (..., APs, terminals, bits, uses); returns
    hard bits (..., terminals, bits, uses).
    """
    return (dequantized.sum(axis=-4) < 0).astype(np.int64)
