"""Exact linear algebra over the binary field.

Matrices are stored as packed bit rows: row ``r`` is a Python integer whose
bit ``c`` holds the entry in column ``c``.  XOR on whole rows makes Gaussian
elimination cheap, which matters because the off-line mapping search touches
a very large number of small matrices.

The canonical integer encoding of a matrix is its row-major bit string read
as a little-endian integer (bit index ``r * n_cols + c``), and the canonical
textual form is ``"{rows}x{cols}:{hex}"``.  Both are stable identities used
in catalog and store files.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when a matrix expected to be invertible over F2 is not."""


@dataclass(frozen=True)
class BitMatrix:
    """Dense matrix over F2 stored as packed bit rows (bit ``c`` = column ``c``)."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("BitMatrix dimensions must be >= 1")
        if len(self.rows) != self.n_rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.n_cols) - 1
        if any(r & ~mask for r in self.rows):
            raise ValueError("row has bits beyond n_cols")

    @classmethod
    def from_row_ints(cls, rows: Sequence[int], n_cols: int) -> "BitMatrix":
        return cls(n_rows=len(rows), n_cols=n_cols, rows=tuple(rows))

    @classmethod
    def from_encoding(cls, value: int, n_rows: int, n_cols: int) -> "BitMatrix":
        mask = (1 << n_cols) - 1
        rows = tuple((value >> (r * n_cols)) & mask for r in range(n_rows))
        return cls(n_rows=n_rows, n_cols=n_cols, rows=rows)

    @property
    def encoding(self) -> int:
        """Row-major bits as a little-endian integer (canonical identity)."""
        value = 0
        for r, row in enumerate(self.rows):
            value |= row << (r * self.n_cols)
        return value

    def to_text(self) -> str:
        return f"{self.n_rows}x{self.n_cols}:{self.encoding:x}"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        shape, _, hexpart = text.partition(":")
        r, _, c = shape.partition("x")
        value = int(hexpart, 16)
        if value < 0 or value >> (int(r) * int(c)):
            raise ValueError(f"{text!r} has bits beyond a {shape} matrix")
        return cls.from_encoding(value, int(r), int(c))


def rank_rows(rows: Iterable[int]) -> int:
    """Row rank over F2 by greedy elimination on packed rows."""
    basis: list[int] = []
    for row in rows:
        x = row
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return len(basis)


def inverse_f2(a: BitMatrix) -> BitMatrix:
    """Inverse over F2: Gauss-Jordan on [A | I], the identity in the high bits."""
    if a.n_rows != a.n_cols:
        raise ValueError("inverse requires a square matrix")
    n = a.n_rows
    reduced, pivots = rref_rows([row | 1 << (n + i) for i, row in enumerate(a.rows)], n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular over F2")
    return BitMatrix(n, n, tuple(row >> n for row in reduced))


def rref_rows(rows: Sequence[int], n_cols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form over the low ``n_cols`` columns; returns
    (pivot rows, pivot columns).  Bits at and above ``n_cols`` ride along
    with their rows, so [A | B] reduces to [R | E B]."""
    work = list(rows)
    pivots: list[int] = []
    piv = 0
    for col in range(n_cols):
        sel = next((r for r in range(piv, len(work)) if (work[r] >> col) & 1), None)
        if sel is None:
            continue
        work[piv], work[sel] = work[sel], work[piv]
        for r in range(len(work)):
            if r != piv and (work[r] >> col) & 1:
                work[r] ^= work[piv]
        pivots.append(col)
        piv += 1
    return tuple(work[:piv]), tuple(pivots)


def rref_stack(rows: np.ndarray, n_cols: int) -> np.ndarray:
    """``rref_rows`` applied to each matrix of a stack, shape ``(N, r)``.

    Row ``k`` of the result holds the reduced rows of matrix ``k`` followed
    by zero rows, one for each rank the matrix lacks.  The elimination is
    ``rref_rows``' own (lowest column first, the first eligible row becomes
    the pivot row), run on all matrices at once.
    """
    work = np.array(rows, dtype=np.int64)
    n, r = work.shape
    piv = np.zeros(n, dtype=np.int64)       # rows settled so far, per matrix
    for col in range(n_cols):
        bit = ((work >> col) & 1).astype(bool)
        eligible = bit & (np.arange(r) >= piv[:, None])
        has = np.flatnonzero(eligible.any(axis=1))
        p, q = piv[has], eligible[has].argmax(axis=1)
        work[has, p], work[has, q] = work[has, q], work[has, p]
        pivot_row = work[has, p]
        hit = ((work[has] >> col) & 1).astype(bool)
        hit[np.arange(len(has)), p] = False
        work[has] ^= np.where(hit, pivot_row[:, None], 0)
        piv[has] += 1
    return work


def nullspace(rows: Sequence[int], n_cols: int) -> tuple[int, ...]:
    """Basis of {v : parity(row & v) == 0 for every row}, as packed ints."""
    reduced, pivots = rref_rows(rows, n_cols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = 1 << fc
        for r, pc in enumerate(pivots):
            if (reduced[r] >> fc) & 1:
                v |= 1 << pc
        basis.append(v)
    return tuple(basis)


def span(basis: Sequence[int]) -> tuple[int, ...]:
    """All 2^len(basis) combinations of an independent basis, xor-walk order."""
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return tuple(out)


@lru_cache(maxsize=64)
def _coordinate_subspaces(w: int, dim: int) -> np.ndarray:
    """Canonical RREF bases of every ``dim``-dimensional subspace of F2^w.

    One subspace per row, enumerated by RREF shape: choose the pivot
    columns, then the free entries right of each pivot that are not pivots
    themselves (the mask's low bits fill the first row's entries first).
    Row ``i`` of a basis has its pivot at bit ``pivots[i]``.
    """
    blocks = []
    for pivots in combinations(range(w), dim):
        free = [[c for c in range(p + 1, w) if c not in pivots] for p in pivots]
        masks = np.arange(1 << sum(map(len, free)))
        rows = np.empty((len(masks), dim), dtype=np.int64)
        shift = 0
        for i, p in enumerate(pivots):
            rows[:, i] = 1 << p
            for j, c in enumerate(free[i]):
                rows[:, i] |= ((masks >> (shift + j)) & 1) << c
            shift += len(free[i])
        blocks.append(rows)
    out = np.concatenate(blocks)
    out.flags.writeable = False
    return out


def enumerate_subspaces(basis: Sequence[int], dim: int) -> np.ndarray:
    """Every ``dim``-dimensional subspace of span(basis), one per array row.

    Row ``k`` is a basis of the k-th subspace: its canonical RREF basis in
    the coordinates of ``basis``, mapped into the ambient coordinates.  In
    the standard basis these are exactly the rows ``rref_rows`` returns.
    Each subspace appears once; there are [w choose dim]_2 of them (the
    Gaussian binomial, w = len(basis)).  Read rows with ``tolist()`` to get
    Python ints.
    """
    if not 0 <= dim <= len(basis):
        return np.zeros((0, max(dim, 0)), dtype=np.int64)
    # span(basis)[c] is the sum of the basis vectors at the set bits of c
    return np.array(span(basis), dtype=np.int64)[_coordinate_subspaces(len(basis), dim)]
