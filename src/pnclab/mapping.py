"""Superimposed constellations and the quality of GF(2) mapping matrices.

A mapping matrix sends the joint message of both terminals to a short binary
vector; messages sharing that vector form a cluster of superimposed points.
The figure of merit is the minimum squared distance between points in
different clusters.  Everything here is indexed two ways:

* joint index ``tau``: terminal-1 label bits in the high-order half, used for
  constellation ordering and catalog files;
* message vector ``w``: packed F2 vector (component k at bit k) consumed by
  the matrix algebra.  Cluster structure is XOR-translation invariant in
  ``w``, which reduces distance scans from pairs to difference classes.

Everything passes plain arrays: ``superimpose`` gives the points (..., 2^mu)
indexed by ``tau``, which ``difference_profiles``, ``mapping_d_min`` and the
detectors in ``link`` read, and ``_ncv_table(m).take(rows, axis=0)`` gives
the NCV bits (..., t, 2^mu) that packed rows (..., t) assign each ``tau``.

Coincidence is exact: ``coincident_partition`` superimposes the integer
lattice coordinates with Gaussian-integer coefficients, so every position is
a small Gaussian integer and points coincide exactly when they compare
equal.  Distances are then scored against that partition, never against a
tolerance.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf2 import rref_rows
from .modulation import Constellation

Partition = tuple[tuple[int, ...], ...]     # blocks of joint indices, ascending, listed by first index


@lru_cache(maxsize=8)
def joint_vector_table(m: int) -> np.ndarray:
    """The map between joint index ``tau`` and message vector ``w`` for u=2.

    Returns one read-only array, ``w`` of ``tau`` and ``tau`` of ``w``
    alike.  tau packs the two labels MSB-first with terminal 1 in the high
    bits; w packs label bits component-wise with terminal 1 in the low
    bits.  So w is tau's 2m bits reversed (label bit j of tau, MSB first,
    is component j), and the reversal is its own inverse.
    """
    k = np.arange(2 * m)
    tau = np.arange(1 << 2 * m)
    w_of_tau = (((tau[:, None] >> (2 * m - 1 - k)) & 1) << k).sum(axis=1)
    w_of_tau.flags.writeable = False
    return w_of_tau


@lru_cache(maxsize=4)
def _parity_table(mu: int) -> np.ndarray:
    """``table[r, d]``: whether row ``r`` has odd parity against difference ``d``."""
    v = np.arange(1 << mu)
    table = (np.bitwise_count(v[:, None] & v[None, :]) & 1).astype(bool)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4)
def _ncv_table(m: int) -> np.ndarray:
    """``table[r, tau]``: the NCV bit that packed row ``r`` gives joint message ``tau``."""
    table = np.ascontiguousarray(_parity_table(2 * m)[:, joint_vector_table(m)])
    table.flags.writeable = False
    return table


def superimpose(c: Constellation, h) -> np.ndarray:
    """Noiseless received points ``h1*s1 + h2*s2`` over all joint messages.

    ``h`` is one coefficient pair, or an array of pairs with shape (..., 2);
    the points then have shape (..., 2^mu), indexed by joint index tau on the
    last axis.  Every product is the one a single pair gives, bit for bit.
    """
    hh = np.asarray(h, dtype=complex)
    h1, h2 = hh[..., 0, None, None], hh[..., 1, None, None]
    return (h1 * c.points[:, None] + h2 * c.points[None, :]).reshape(hh.shape[:-1] + (c.size**2,))


def coincident_partition(c: Constellation, h) -> tuple[Partition, ...]:
    """Partitions of joint indices by equal lattice superposition ``h1*a + h2*b``.

    ``h`` is an array of Gaussian-integer coefficient pairs with shape
    (n, 2), such as ``(den, num)`` for the fade state ``num / den`` or
    ``(0, 1)`` for infinity; the result holds one partition per pair, a
    1-tuple for one pair of shape (2,).  The lattice coordinates ``a``,
    ``b`` of ``c.lattice_points`` are small odd integers, so every
    superposition is a small Gaussian integer, exact in float64, and two
    points coincide exactly when they compare equal.  A pair that is not
    integer-valued is refused.  Blocks are ascending and listed by their
    first index.
    """
    hh = np.asarray(h, dtype=complex)
    if not (np.isfinite(hh) & (hh == np.round(hh))).all():
        raise ValueError("coincident_partition needs Gaussian-integer channel coefficients")
    pairs = hh.reshape(-1, 2)
    h1, h2 = pairs[:, 0, None, None], pairs[:, 1, None, None]
    lat = (h1 * c.lattice_points[:, None] + h2 * c.lattice_points[None, :]).reshape(len(pairs), -1)
    # a stable sort by key keeps each block's indices ascending, first index first
    order = np.lexsort((lat.imag, lat.real), axis=-1)
    lat = np.take_along_axis(lat, order, -1)
    new = lat[:, 1:] != lat[:, :-1]
    parts = []
    for o, cut in zip(order.tolist(), new.tolist()):
        starts = [0] + [k + 1 for k, c in enumerate(cut) if c]
        parts.append(tuple(sorted(tuple(o[a:b]) for a, b in zip(starts, starts[1:] + [len(o)]))))
    return tuple(parts)


@lru_cache(maxsize=8)
def _half_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint indices (a, b) of every unordered message pair, by difference.

    Row ``d - 1`` lists, for each ``w`` with the top bit of ``d`` clear, the
    joint indices of ``w`` and ``w xor d``: each unordered pair at
    difference ``d`` exactly once.
    """
    tau_of_w = joint_vector_table(m)
    n = len(tau_of_w)
    low = np.array([[w for w in range(n) if not w & (1 << (d.bit_length() - 1))] for d in range(1, n)])
    a = tau_of_w[low]
    b = tau_of_w[low ^ np.arange(1, n)[:, None]]
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


# difference_profiles takes channels a block at a time, about this many
# point pairs per block: one qam16 channel alone exceeds it, and a 1-D
# gather per channel stays in cache where a stacked one spills.
_PAIR_BLOCK = 1 << 13


def difference_profiles(points: np.ndarray, clash: Partition | None = None) -> np.ndarray:
    """Per-difference minimum squared distances of ``superimpose``'s points.

    Entry ``d`` is the minimum over all point pairs whose message vectors
    differ by ``d``; index 0 is +inf by convention.  Points (..., 2^mu) give
    a profile (..., 2^mu), each the one its channel alone gives.  With
    ``clash``, a partition of the joint indices, both profiles come from one
    pass over the pairs, stacked (2, ..., 2^mu): the plain one, then the one
    that leaves out pairs within one of its blocks (+inf where every pair at
    that difference is).

    Each unordered pair is evaluated once: ``x - y`` and ``y - x`` are exact
    negations in IEEE arithmetic, so both orders give the same distance bit
    for bit.
    """
    size = points.shape[-1]
    a, b = _half_pairs((size.bit_length() - 1) // 2)
    pts = points.reshape(-1, size)
    if clash is not None:       # each joint index's block; a pair within one block has equal ids
        block = np.zeros(size, dtype=np.intp)
        for k, members in enumerate(clash):
            block[list(members)] = k
        same = block[a] == block[b]
    out = np.full((1 + (clash is not None), len(pts), len(a) + 1), np.inf)     # plain[, clash]
    rows = max(1, _PAIR_BLOCK // a.size)
    for r0 in range(0, len(pts), rows):
        q = pts[r0 : r0 + rows] if rows > 1 else pts[r0]
        dist = np.abs(q[..., a] - q[..., b]) ** 2
        out[0, r0 : r0 + rows, 1:] = dist.min(axis=-1)
        if clash is not None:
            np.copyto(dist, np.inf, where=same)
            out[1, r0 : r0 + rows, 1:] = dist.min(axis=-1)
    out = out.reshape(out.shape[:1] + points.shape[:-1] + (len(a) + 1,))
    return out if clash is not None else out[0]


def mapping_d_min(matrix_rows, points: np.ndarray, clash: Partition | None = None):
    """Minimum squared distance between different-NCV points.

    Exploits XOR-translation invariance: two messages get different NCVs iff
    the matrix does not annihilate their difference, so the scan runs over
    the 2^mu - 1 difference classes of ``difference_profiles`` instead of
    all pairs.

    ``matrix_rows`` is an integer array of row sets with shape ``(..., t)``
    and ``points`` is ``superimpose``'s (..., 2^mu); their leading shapes
    broadcast, and the result has the broadcast shape, 0-d for one matrix's
    rows at one channel, each value the one that row set alone gives at its
    channel.  With ``clash``, a fade state's clash partition, the result is
    the pair (d_min, separated d_min) from one profile pass: the second
    ignores pairs within one of its blocks, so it is the distance among the
    points the state keeps apart.
    """
    profiles = difference_profiles(points, clash)
    split = _parity_table(points.shape[-1].bit_length() - 1).take(matrix_rows, axis=0).any(axis=-2)
    if clash is None:
        return np.where(split, profiles, np.inf).min(axis=-1)
    return tuple(np.where(split, p, np.inf).min(axis=-1) for p in profiles)


def clash_difference_basis(clash: Partition, m: int) -> tuple[int, ...]:
    """Basis of the span of within-block message differences."""
    w_of_tau = joint_vector_table(m)
    diffs = [int(w_of_tau[block[0]] ^ w_of_tau[t]) for block in clash for t in block[1:]]
    return rref_rows(diffs, 2 * m)[0]
