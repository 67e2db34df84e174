"""Square QAM constellations with Gray labeling and unit average energy.

Labels are bit tuples ``(b1, ..., bm)`` read MSB-first into the point index,
so index 0 always carries the all-zero label.  Every constellation also keeps
its unnormalized integer-lattice coordinates, small odd integers: fade states
are ratios of their differences, and coincidence is decided on them by exact
equality of Gaussian integers, with no tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LABELING_VERSION = "gray-v1"

_GRAY_AXIS = {(0, 0): -3, (0, 1): -1, (1, 1): 1, (1, 0): 3}

BITS_PER_SYMBOL = {"qam4": 2, "qam16": 4}


@dataclass(frozen=True)
class Constellation:
    """2^m-point QAM map from m-bit labels to complex symbols."""

    name: str
    bits_per_symbol: int
    points: np.ndarray          # unit average energy, indexed by label int
    lattice_points: np.ndarray  # odd-integer grid, points scaled down to unit energy
    labeling_version: str = LABELING_VERSION

    @property
    def size(self) -> int:
        return 1 << self.bits_per_symbol


@lru_cache(maxsize=8)
def make_constellation(name: str) -> Constellation:
    """Build ``qam4`` or ``qam16`` with the fixed Gray labeling.  Built once
    per name, so every caller shares one object and its arrays are
    read-only."""
    if name == "qam4":
        # label (b1, b2) -> sign of (real, imag); 00 -> (+1+1j)
        lattice = np.array(
            [complex(1 - 2 * b1, 1 - 2 * b2) for b1 in (0, 1) for b2 in (0, 1)]
        )
    elif name == "qam16":
        # (b1, b2) Gray-codes the real axis, (b3, b4) the imaginary axis
        lattice = np.array(
            [
                complex(_GRAY_AXIS[(b1, b2)], _GRAY_AXIS[(b3, b4)])
                for b1 in (0, 1)
                for b2 in (0, 1)
                for b3 in (0, 1)
                for b4 in (0, 1)
            ]
        )
    else:
        raise ValueError(f"unknown modulation {name!r}; expected qam4 or qam16")
    points = lattice / np.sqrt(2 * (len(lattice) - 1) / 3)    # a square M-QAM grid's mean energy
    points.flags.writeable = lattice.flags.writeable = False
    return Constellation(name=name, bits_per_symbol=BITS_PER_SYMBOL[name], points=points, lattice_points=lattice)
