"""Slow, literal oracles and small helpers shared by the test files.

None of these is used by the engine, the off-line build or the CLI; each is
the plainest form of a fact the package computes some faster way.
"""
import io

import numpy as np

from pnclab.gf2 import BitMatrix, rank_rows
from pnclab.mapping import _ncv_bits, mapping_d_min, superimpose
from pnclab.sim import emit_results


def bit_matrix(rows):
    """The BitMatrix of 0/1 entry lists, entry c of a row in its bit c."""
    return BitMatrix.from_row_ints([sum(b << c for c, b in enumerate(row)) for row in rows], len(rows[0]))


def ncv_table(matrix, m):
    """Network-coded vector (as packed int) of every joint index."""
    return _ncv_bits(matrix.rows, m) @ (1 << np.arange(matrix.n_rows))


def all_matrices(n_rows, n_cols):
    """Every n_rows x n_cols matrix over F2, in ascending encoding order."""
    return [BitMatrix.from_encoding(v, n_rows, n_cols) for v in range(1 << n_rows * n_cols)]


def clash_consistent(matrix, clash, m):
    """Whether ``matrix`` gives every block of the partition ``clash`` one NCV."""
    table = ncv_table(matrix, m)
    return all(len(set(table[list(block)].tolist())) == 1 for block in clash)


def exhaustive_matrix_scan(sc, clash, t):
    """Literal scan of every t x mu matrix at the channel of ``sc``:
    (matrix, d_min, clash-consistent) of each full-rank one."""
    m = sc.constellation.bits_per_symbol
    return [
        (mat, mapping_d_min(mat.rows, sc), clash_consistent(mat, clash, m))
        for mat in all_matrices(t, sc.mu)
        if rank_rows(mat.rows) == t
    ]


def hard_ncv(y, h, matrix, constellation):
    """Zero-noise limit of detect_ncv at one AP: the NCV of the nearest
    superposition point, by a plain argmin of |p - y|^2 over the samples
    ``y`` (a scalar or a 1-D array), the coefficient pair ``h`` and the
    BitMatrix ``matrix``."""
    ys = np.atleast_1d(np.asarray(y, dtype=complex))
    d = np.abs(superimpose(constellation, h).points[None, :] - ys[:, None]) ** 2
    return ncv_table(matrix, constellation.bits_per_symbol)[d.argmin(axis=1)]


def results_csv_text(records):
    """The CSV that ``emit_results`` writes for ``records``, as a string."""
    buf = io.StringIO()
    emit_results(records, buf)
    return buf.getvalue()
