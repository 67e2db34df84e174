"""Exact linear algebra over the binary field.

Matrices are stored as packed bit rows: row ``r`` is an integer whose bit
``c`` holds the entry in column ``c`` (a stack is an int64 array of rows).
XOR on whole rows makes Gaussian elimination cheap, which matters because
the off-line mapping search touches a very large number of small matrices.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when a matrix expected to be invertible over F2 is not."""


def rank_rows(rows: np.ndarray | Sequence[int]) -> np.ndarray:
    """Row rank over F2 of each matrix in a stack ``(..., r)`` of packed rows,
    from one ``rref_stack`` call; a 1-D sequence of rows gives a 0-d rank."""
    a = np.asarray(rows, dtype=np.int64)
    reduced = rref_stack(a.reshape(int(np.prod(a.shape[:-1])), a.shape[-1]), int(a.max(initial=0)).bit_length())
    return np.count_nonzero(reduced, axis=-1).reshape(a.shape[:-1])


def inverse_f2(rows: np.ndarray) -> np.ndarray:
    """Inverse over F2 of each matrix in a stack ``(..., n)``: ``rref_stack`` on [A | I] gives [I | A^-1]."""
    a = np.asarray(rows, dtype=np.int64)
    n = a.shape[-1]
    if (a >> n).any():
        raise ValueError(f"inverse_f2 needs square matrices: a row has bits at or above column {n}")
    identity = 1 << np.arange(n)
    work = rref_stack((a | identity << n).reshape(-1, n), n).reshape(a.shape)
    if ((work & identity.sum()) != identity).any():
        raise SingularMatrixError("matrix is singular over F2")
    return work >> n


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
