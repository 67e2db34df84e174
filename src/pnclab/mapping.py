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

Coincidence tests run on the unnormalized lattice coordinates, where every
position is rational with a small denominator and a 1e-9 rounding key is an
exact comparison.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gf2 import BitMatrix, enumerate_subspaces, nullspace, rref_rows
from .modulation import Constellation

COINCIDENCE_EPS = 1e-9


@lru_cache(maxsize=8)
def joint_vector_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Maps between joint index ``tau`` and message vector ``w`` for u=2.

    Returns (w_of_tau, tau_of_w).  tau packs the two labels MSB-first with
    terminal 1 in the high bits; w packs label bits component-wise with
    terminal 1 in the low bits.
    """
    size = 1 << m
    w_of_tau = np.empty(size * size, dtype=np.int64)
    for tau in range(size * size):
        i1, i2 = tau >> m, tau & (size - 1)
        w = 0
        for j in range(m):
            w |= ((i1 >> (m - 1 - j)) & 1) << j
            w |= ((i2 >> (m - 1 - j)) & 1) << (m + j)
        w_of_tau[tau] = w
    tau_of_w = np.empty_like(w_of_tau)
    tau_of_w[w_of_tau] = np.arange(len(w_of_tau))
    return w_of_tau, tau_of_w


@dataclass(eq=False)
class SuperimposedConstellation:
    """All joint-message superposition points seen by one AP."""

    constellation: Constellation
    h: tuple[complex, complex]
    points: np.ndarray          # normalized, indexed by joint index tau
    lattice_points: np.ndarray  # same channel applied to lattice coordinates
    _profiles: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def mu(self) -> int:
        return 2 * self.constellation.bits_per_symbol


def superimpose(c: Constellation, h: tuple[complex, complex]) -> SuperimposedConstellation:
    """Noiseless received constellation ``h1*s1 + h2*s2`` over all joint messages."""
    h1, h2 = complex(h[0]), complex(h[1])
    pts = (h1 * c.points[:, None] + h2 * c.points[None, :]).reshape(-1)
    lat = (h1 * c.lattice_points[:, None] + h2 * c.lattice_points[None, :]).reshape(-1)
    return SuperimposedConstellation(constellation=c, h=(h1, h2), points=pts, lattice_points=lat)


def coincident_partition(sc: SuperimposedConstellation, eps: float = COINCIDENCE_EPS) -> tuple[tuple[int, ...], ...]:
    """Partition of joint indices by equal superposition value (lattice test)."""
    decimals = max(0, int(round(-np.log10(eps))))
    groups: dict[tuple[float, float], list[int]] = {}
    for tau, z in enumerate(sc.lattice_points):
        key = (round(z.real, decimals), round(z.imag, decimals))
        groups.setdefault(key, []).append(tau)
    return tuple(sorted(tuple(g) for g in groups.values()))


@lru_cache(maxsize=8)
def _half_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint indices (a, b) of every unordered message pair, by difference.

    Row ``d - 1`` lists, for each ``w`` with the top bit of ``d`` clear, the
    joint indices of ``w`` and ``w xor d``: each unordered pair at
    difference ``d`` exactly once.
    """
    _, tau_of_w = joint_vector_table(m)
    n = len(tau_of_w)
    low = np.array([[w for w in range(n) if not w & (1 << (d.bit_length() - 1))] for d in range(1, n)])
    a = tau_of_w[low]
    b = tau_of_w[low ^ np.arange(1, n)[:, None]]
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def difference_profiles(sc: SuperimposedConstellation, eps: float = COINCIDENCE_EPS) -> tuple[np.ndarray, np.ndarray]:
    """Per-difference minimum squared distances.

    Entry ``d`` covers all point pairs whose message vectors differ by ``d``:
    the first profile is the plain minimum, the second excludes coincident
    pairs (+inf when every pair at that difference coincides).  Index 0 is
    +inf by convention.

    Each unordered pair is evaluated once: ``x - y`` and ``y - x`` are exact
    negations in IEEE arithmetic, so both orders give the same distance bit
    for bit.  The coincidence pass on the lattice is skipped when every
    plain distance exceeds ``4 * eps**2``: normalized points are the lattice
    ones divided by a scale of at least sqrt(2), so a pair within ``eps`` on
    the lattice lies within ``eps / sqrt(2)`` (with rounding, well within
    ``2 * eps``) in normalized coordinates, and no pair can be coincident.
    The second profile then equals the first.
    """
    if sc._profiles is not None:
        return sc._profiles
    a, b = _half_pairs(sc.constellation.bits_per_symbol)
    dist = np.abs(sc.points[a] - sc.points[b]) ** 2
    plain = np.full(len(a) + 1, np.inf)
    plain[1:] = dist.min(axis=1)
    if plain[1:].min() > 4 * eps**2:
        separated = plain.copy()
    else:
        coincident = np.abs(sc.lattice_points[a] - sc.lattice_points[b]) <= eps
        separated = np.full_like(plain, np.inf)
        separated[1:] = np.where(coincident, np.inf, dist).min(axis=1)
    sc._profiles = (plain, separated)
    return sc._profiles


def ncv_table(matrix: BitMatrix, m: int) -> np.ndarray:
    """Network-coded vector (as packed int) for every joint index."""
    w_of_tau, _ = joint_vector_table(m)
    out = np.zeros(len(w_of_tau), dtype=np.int64)
    for i, row in enumerate(matrix.rows):
        out |= (np.bitwise_count(w_of_tau & row).astype(np.int64) & 1) << i
    return out


@dataclass(frozen=True)
class MappingQuality:
    d_min: float
    clash_consistent: bool


@lru_cache(maxsize=4)
def _parity_table(mu: int) -> np.ndarray:
    """``table[r, d]``: whether row ``r`` has odd parity against difference ``d``."""
    v = np.arange(1 << mu)
    table = (np.bitwise_count(v[:, None] & v[None, :]) & 1).astype(bool)
    table.flags.writeable = False
    return table


def mapping_d_min(matrix_rows, sc: SuperimposedConstellation, separated_only: bool = False) -> float:
    """Minimum squared distance between different-NCV points.

    Exploits XOR-translation invariance: two messages get different NCVs iff
    the matrix does not annihilate their difference, so the scan runs over
    the 2^mu - 1 difference classes instead of all pairs.  With
    ``separated_only`` coincident pairs are ignored.
    """
    plain, separated = difference_profiles(sc)
    profile = separated if separated_only else plain
    split = _parity_table(sc.mu).take(matrix_rows, axis=0).any(axis=0)
    return float(np.where(split, profile, np.inf).min())


def evaluate_mapping(
    matrix: BitMatrix,
    sc: SuperimposedConstellation,
    clash: tuple[tuple[int, ...], ...] | None = None,
) -> MappingQuality:
    """Score a candidate matrix against a channel.

    ``clash`` is the coincidence partition to respect; when omitted it is
    derived from the superimposed constellation itself.  A coincident pair
    split across NCVs forces d_min to 0, so consistency never needs a
    separate distance pass.
    """
    if matrix.n_cols != sc.mu:
        raise ValueError(f"matrix has {matrix.n_cols} columns, channel needs {sc.mu}")
    if clash is None:
        clash = coincident_partition(sc)
    table = ncv_table(matrix, sc.constellation.bits_per_symbol)
    consistent = all(len({int(table[t]) for t in block}) == 1 for block in clash)
    d_min = mapping_d_min(matrix.rows, sc)
    return MappingQuality(d_min=d_min, clash_consistent=consistent)


def clash_difference_basis(clash: tuple[tuple[int, ...], ...], m: int) -> tuple[int, ...]:
    """Basis of the span of within-block message differences."""
    w_of_tau, _ = joint_vector_table(m)
    diffs = []
    for block in clash:
        if len(block) > 1:
            w0 = int(w_of_tau[block[0]])
            diffs.extend(w0 ^ int(w_of_tau[t]) for t in block[1:])
    reduced, _ = rref_rows(diffs, 2 * m)
    return reduced


def admissible_row_space(clash: tuple[tuple[int, ...], ...], m: int) -> tuple[int, ...]:
    """Basis of the rows that keep every clash block on a single NCV."""
    return nullspace(clash_difference_basis(clash, m), 2 * m)


def min_cardinality_t(
    sc: SuperimposedConstellation,
    clash: tuple[tuple[int, ...], ...],
    d_alpha: float = 0.0,
) -> tuple[int, BitMatrix]:
    """Smallest NCV length whose best clash-consistent mapping clears d_alpha.

    Scans lengths from m to mu-1 over full-rank clash-consistent row spaces
    (canonical RREF representative per space); falls back to the identity at
    length mu when nothing shorter works.
    """
    if d_alpha < 0:
        raise ValueError("d_alpha must be >= 0")
    m = sc.constellation.bits_per_symbol
    mu = 2 * m
    allowed = admissible_row_space(clash, m)
    for t in range(m, mu):
        if len(allowed) < t:
            continue
        best: tuple[float, int, BitMatrix] | None = None
        for rows in enumerate_subspaces(allowed, t):
            mat = BitMatrix.from_row_ints(rref_rows(rows, mu)[0], mu)
            d = mapping_d_min(mat.rows, sc)
            key = (-d, mat.encoding)
            if best is None or key < (-best[0], best[1]):
                best = (d, mat.encoding, mat)
        if best is not None and best[0] >= d_alpha and best[0] > 0:
            return t, best[2]
    return mu, BitMatrix.identity(mu)
