"""Detector oracles shared by the test files, independent of link's grid."""
import numpy as np

from pnclab.mapping import ncv_table, superimpose


def hard_ncv(y, h, matrix, constellation):
    """Zero-noise limit of detect_ncv at one AP: the NCV of the nearest
    superposition point, by a plain argmin of |p - y|^2 over the samples
    ``y`` (a scalar or a 1-D array), the coefficient pair ``h`` and the
    BitMatrix ``matrix``."""
    ys = np.atleast_1d(np.asarray(y, dtype=complex))
    d = np.abs(superimpose(constellation, h).points[None, :] - ys[:, None]) ** 2
    return ncv_table(matrix, constellation.bits_per_symbol)[d.argmin(axis=1)]
