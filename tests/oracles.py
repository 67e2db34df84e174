"""Slow, literal oracles and small helpers shared by the test files.

None of these is used by the engine, the off-line build or the CLI; each is
the plainest form of a fact the package computes some faster way.
"""
import dataclasses
import io

import numpy as np

from pnclab.mapping import _ncv_table, mapping_d_min, superimpose
from pnclab.sim import emit_results


def greedy_rank(rows):
    """Row rank over F2 of one matrix's packed rows, by greedy elimination."""
    basis = []
    for row in rows:
        x = row
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return len(basis)


def bit_matrix(rows):
    """The packed rows of 0/1 entry lists, entry c of a row in its bit c."""
    return tuple(sum(b << c for c, b in enumerate(row)) for row in rows)


def unpack(encoding, t, mu):
    """The packed rows of the t x mu matrix with this encoding: its row r is
    bits r * mu to r * mu + mu - 1."""
    return tuple((encoding >> (r * mu)) & ((1 << mu) - 1) for r in range(t))


def pack(rows, mu):
    """The encoding of the matrix of packed rows ``rows`` over mu columns."""
    return sum(row << (r * mu) for r, row in enumerate(rows))


def ncv_bits(rows, m):
    """``bits[..., tau, i]``: bit i of the NCV that the packed rows ``rows``
    (..., t) give joint message ``tau`` (bool, shape (..., 2^(2m), t)), the
    transpose of the rows of the package's NCV table that ``rows`` picks."""
    return np.swapaxes(_ncv_table(m).take(np.asarray(rows), axis=0), -1, -2)


def ncv_table(rows, m):
    """Network-coded vector (as packed int) of every joint index, under the
    matrix of packed rows ``rows``."""
    return ncv_bits(rows, m) @ (1 << np.arange(len(rows)))


def all_matrices(n_rows, n_cols):
    """The packed rows of every n_rows x n_cols matrix over F2, in ascending encoding order."""
    return [unpack(v, n_rows, n_cols) for v in range(1 << n_rows * n_cols)]


def clash_consistent(rows, clash, m):
    """Whether the matrix of packed rows ``rows`` gives every block of the partition ``clash`` one NCV."""
    table = ncv_table(rows, m)
    return all(len(set(table[list(block)].tolist())) == 1 for block in clash)


def exhaustive_matrix_scan(points, clash, t):
    """Literal scan of every t x mu matrix at the channel of the superposition
    ``points``: (packed rows, d_min, clash-consistent) of each full-rank one."""
    mu = points.shape[-1].bit_length() - 1
    return [
        (rows, mapping_d_min(rows, points), clash_consistent(rows, clash, mu // 2))
        for rows in all_matrices(t, mu)
        if greedy_rank(rows) == t
    ]


def hard_ncv(y, h, rows, constellation):
    """Zero-noise limit of detect_ncv at one AP: the NCV of the nearest
    superposition point, by a plain argmin of |p - y|^2 over the samples
    ``y`` (a scalar or a 1-D array), the coefficient pair ``h`` and the
    matrix of packed rows ``rows``."""
    ys = np.atleast_1d(np.asarray(y, dtype=complex))
    d = np.abs(superimpose(constellation, h)[None, :] - ys[:, None]) ** 2
    return ncv_table(rows, constellation.bits_per_symbol)[d.argmin(axis=1)]


_ENTRY_FIELDS = ("codes", "d_min", "clash_consistent", "separated_d_min")


def store_lists(arrays):
    """Per state, the list of its entries as (encoding, d_min, clash flag,
    separated d_min), read from the array fields of a ``CandidateStore`` or
    of what ``mine_candidates`` returns."""
    a = arrays if isinstance(arrays, dict) else vars(arrays)
    encodings = a["encodings"].tolist()
    return [
        [(encodings[c], d, cc, sep) for c, d, cc, sep in zip(*row) if c < len(encodings)]
        for row in zip(*(a[name].tolist() for name in _ENTRY_FIELDS))
    ]


def with_lists(store, lists):
    """``store`` holding ``lists`` in place of its own: per state, a list of
    (encoding, d_min, clash flag, separated d_min) entries."""
    encodings = sorted({e[0] for l in lists for e in l})
    rank = {e: k for k, e in enumerate(encodings)}
    width = max(map(len, lists), default=0) or 1
    columns = [[[rank[e[0]] for e in l] for l in lists]] + [[[e[i] for e in l] for l in lists] for i in (1, 2, 3)]
    pads = ((len(encodings), np.int64), (0.0, float), (False, bool), (0.0, float))
    return dataclasses.replace(store, encodings=np.array(encodings, dtype=np.uint64), **{
        name: np.array([v + [pad] * (width - len(v)) for v in column], dtype=dtype).reshape(len(lists), width)
        for name, column, (pad, dtype) in zip(_ENTRY_FIELDS, columns, pads)
    })


def store_content(store):
    """What a store file holds: its header fields, its states and its lists."""
    header = (store.modulation, store.labeling_version, store.t, store.mu, store.k_per_state, store.rank_seed,
              store.rank_trials, store.certified_n, store.infeasible)
    return header, store.states, store_lists(store)


def results_csv_text(records):
    """The CSV that ``emit_results`` writes for ``records``, as a string."""
    buf = io.StringIO()
    emit_results(records, buf)
    return buf.getvalue()
