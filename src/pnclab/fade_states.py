"""Singular fade states for the two-terminal QAM multiple-access channel.

A fade state is the complex ratio of the two channel coefficients; it is
singular when two different joint messages superimpose onto the same point.
This module enumerates all singular ratios from symbol differences, attaches
the coincidence partition each one induces (no two states share one), ranks
the states by empirical occurrence under Rayleigh fading, and resolves a
live channel to its nearest catalog entry.  A catalog file records only the
ranking; loading it derives the states and partitions from the enumeration.

The zero ratio and the point at infinity (one terminal unheard) are genuine
singular states and are kept as catalog entries; the reported raw-state
count covers ratio values only, so infinity is listed but not counted.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._artifact import check_count, constellation_of, header_int, names_its_file, read_artifact, strip_index, write_artifact
# superimpose stays bound here for the layer tracer (perfbench/tracer.py),
# which wraps it as an attribute of this module.
from .mapping import coincident_partition, superimpose  # noqa: F401
from .modulation import Constellation, make_constellation


class DegenerateChannelError(ValueError):
    """Raised when both channel coefficients are zero."""


@dataclass(frozen=True)
class FadeState:
    """Channel-coefficient ratio, either a finite complex value or infinity."""

    value: complex
    infinite: bool = False

    def to_text(self) -> str:
        """``re,im`` as ``repr`` writes each part, which reads back to the same float."""
        if self.infinite:
            return "inf"
        return ",".join(repr(float(x) + 0.0) for x in (self.value.real, self.value.imag))

    @classmethod
    def from_text(cls, text: str) -> "FadeState":
        if text.strip() == "inf":
            return cls(value=0j, infinite=True)
        re, _, im = text.partition(",")
        value = complex(float(re), float(im))
        if not cmath.isfinite(value):
            raise ValueError(f"fade state {text.strip()!r} has a part that is not finite")
        return cls(value=value)


@dataclass(frozen=True)
class SfsEntry:
    state: FadeState
    partition: tuple[tuple[int, ...], ...]
    weight: int = 0             # nearest-state hits in the ranking trials


@dataclass(frozen=True)
class SfsCatalog:
    """Deduplicated singular fade states with occurrence ranks."""

    modulation: str
    bits_per_symbol: int
    labeling_version: str
    entries: tuple[SfsEntry, ...]
    n_raw_states: int
    rank_seed: int | None = None
    rank_trials: int | None = None
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _infinite_index: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # nearest_sfs reads these on every call; replace() recomputes them
        values = np.array(
            [e.state.value if not e.state.infinite else np.nan for e in self.entries],
            dtype=complex,
        )
        values.flags.writeable = False
        object.__setattr__(self, "_values", values)
        at_inf = np.flatnonzero(np.isnan(values))
        object.__setattr__(self, "_infinite_index", int(at_inf[0]) if len(at_inf) else None)

    def finite_values(self) -> np.ndarray:
        """State values in entry order, NaN at infinity (read-only)."""
        return self._values

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``nearest_indices``' cell list, built on first use: the entry
        positions of the finite states, their values with +inf appended,
        and the per-cell candidate table."""
        finite_pos = np.flatnonzero(~np.isnan(self._values))
        finite_vals = self._values[finite_pos]
        return finite_pos, np.append(finite_vals, np.inf), _cell_candidates(finite_vals)

    def infinite_index(self) -> int | None:
        return self._infinite_index


def enumerate_sfs(c: Constellation) -> SfsCatalog:
    """Enumerate all distinct singular ratios and their clash partitions.

    Every finite state is ``num / den`` for lattice differences ``num`` (or
    0) and ``den != 0``, both Gaussian integers.  States are told apart by
    the exact rational ``num * conj(den) / |den|^2``, each keeping the float
    of the first pair that gives it, and ordered by exact modulus, then by
    angle.  Each state's partition is ``coincident_partition`` of the
    Gaussian-integer channel ``(den, num)``, which superimposes like
    ``(1, num / den)`` but exactly.

    No two states share a partition, so there are no image states to
    merge.  Take a non-trivial block of the state ``num / den`` with
    messages ``(a, b) != (a', b')``.  Then ``b != b'``, since
    ``den * a = den * a'`` forces ``a = a'``, so the block fixes the ratio
    ``(a - a') / (b' - b)``.  At infinity the blocks are the pairs with
    ``b = b'``.
    """
    lat = c.lattice_points
    diffs = sorted({(int(d.real), int(d.imag)) for d in (lat[:, None] - lat[None, :]).ravel() if d})
    seen: dict[tuple[int, int, int], tuple[complex, complex]] = {}
    for nr, ni in [(0, 0)] + diffs:
        for dr, di in diffs:
            # num * conj(den) and |den|^2, reduced; |den|^2 summed exactly, not as abs(den)**2
            re, im, sq = nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di
            g = math.gcd(re, im, sq)
            seen.setdefault((re // g, im // g, sq // g), (complex(nr, ni), complex(dr, di)))
    keys = sorted(seen, key=lambda k: (Fraction(k[0] ** 2 + k[1] ** 2, k[2] ** 2), math.atan2(k[1], k[0])))
    values = [seen[k][0] / seen[k][1] for k in keys]
    channels = [(seen[k][1], seen[k][0]) for k in keys] + [(0, 1)]
    parts = coincident_partition(c, np.array(channels, dtype=complex))
    states = [FadeState(value=v) for v in values] + [FadeState(value=0j, infinite=True)]
    entries = [SfsEntry(state=s, partition=part) for s, part in zip(states, parts)]
    for e in entries:
        if not any(len(b) > 1 for b in e.partition):
            raise AssertionError(f"state {e.state.to_text()} induces no coincidence")
    return SfsCatalog(
        modulation=c.name,
        bits_per_symbol=c.bits_per_symbol,
        labeling_version=c.labeling_version,
        entries=tuple(entries),
        n_raw_states=len(values),
    )


def _rayleigh_ratios(rng: np.random.Generator, n: int) -> np.ndarray:
    h = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / np.sqrt(2.0)
    return h[1] / h[0]


# nearest_indices' cell grid: _GRID_CELLS x _GRID_CELLS square cells over
# |Re|, |Im| < _GRID_HALF; ratios are looked up in blocks of _BLOCK.
_GRID_HALF = 4.0
_GRID_CELLS = 256
_BLOCK = 1 << 15


def _cell_candidates(finite_vals: np.ndarray) -> np.ndarray:
    """Per grid cell, every state that can be nearest to a point in it.

    Row ``iy * _GRID_CELLS + ix`` lists positions in ``finite_vals`` in
    ascending order, padded with -1 to at least two columns, in the
    smallest integer type that holds them (the table lives as long as its
    catalog).  Cells are taken a block of grid rows at a time, so no
    temporary holds more than about 2^16 distances.
    """
    dtype = np.min_scalar_type(-len(finite_vals) - 1)
    size = 2 * _GRID_HALF / _GRID_CELLS
    centres = -_GRID_HALF + size * (np.arange(_GRID_CELLS) + 0.5)
    reach = size * math.sqrt(2.0) + 1e-9   # the cell diagonal, plus slack for rounding
    rows = max(1, (1 << 16) // (_GRID_CELLS * len(finite_vals)))
    dx2 = (centres[:, None] - finite_vals.real[None, :]) ** 2
    cells, states = [], []
    for y0 in range(0, _GRID_CELLS, rows):
        dy2 = (centres[y0 : y0 + rows, None] - finite_vals.imag[None, :]) ** 2
        dist2 = (dy2[:, None, :] + dx2[None, :, :]).reshape(-1, len(finite_vals))
        bound = (np.sqrt(dist2.min(axis=1, keepdims=True)) + reach) ** 2
        cell, state = np.nonzero(dist2 <= bound)
        cells.append((cell + y0 * _GRID_CELLS).astype(np.int32))
        states.append(state.astype(dtype))
    cell = np.concatenate(cells)
    counts = np.bincount(cell, minlength=_GRID_CELLS**2)
    slot = np.arange(len(cell)) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.full((_GRID_CELLS**2, max(2, counts.max())), -1, dtype=dtype)
    table[cell, slot] = np.concatenate(states)
    return table


def nearest_indices(cat: SfsCatalog, ratios: np.ndarray) -> np.ndarray:
    """Vectorized nearest-state lookup for an array of fade ratios.

    Returns, for every ratio, the catalog index of the finite state that
    minimizes ``np.abs(ratio - value) ** 2``, ties to the lowest index: the
    brute-force argmin over all states, computed with a cell list (Bentley,
    Weide & Yao, "Optimal expected-time algorithms for closest point
    problems", ACM TOMS 6(4), 1980).

    Exactness: let a cell have centre c and diagonal g, and let d0 be the
    distance from c to its nearest state s0.  A point v of the cell lies
    within g/2 of c, so its nearest state is at most |v - s0| <= d0 + g/2
    away.  A state s with |c - s| > d0 + g is at least |c - s| - g/2 > d0 +
    g/2 from v, so it cannot be nearest.  Each cell therefore keeps every
    state within d0 + g of its centre (plus 1e-9, which covers rounding in
    the cell index and in the distances), and the argmin of the same
    squared distances over those candidates, listed in ascending index
    order, is the brute-force answer, ties included.  Ratios off the grid
    (or not finite) take the brute-force argmin.
    """
    finite_pos, padded, cand = cat._cells      # the -1 padding reads inf and never wins
    scale = _GRID_CELLS / (2 * _GRID_HALF)
    out = np.empty(len(ratios), dtype=np.int64)
    for start in range(0, len(ratios), _BLOCK):
        v = ratios[start : start + _BLOCK]
        inside = (np.abs(v.real) < _GRID_HALF) & (np.abs(v.imag) < _GRID_HALF)
        w = v if inside.all() else v[inside]
        ix = np.minimum(((w.real + _GRID_HALF) * scale).astype(np.int64), _GRID_CELLS - 1)
        iy = np.minimum(((w.imag + _GRID_HALF) * scale).astype(np.int64), _GRID_CELLS - 1)
        cands = cand[iy * _GRID_CELLS + ix]
        near = cands[:, 0]
        several = np.flatnonzero(cands[:, 1] >= 0)     # the rest have one candidate: no distances
        if len(several):
            c = cands[several]
            near[several] = c[np.arange(len(c)), (np.abs(w[several, None] - padded[c]) ** 2).argmin(axis=1)]
        if len(w) < len(v):
            pos = np.empty(len(v), dtype=np.int64)
            pos[inside] = near
            outside = ~inside
            pos[outside] = (np.abs(v[outside][:, None] - padded[None, :-1]) ** 2).argmin(axis=1)
            near = pos
        out[start : start + _BLOCK] = finite_pos[near]
    return out


def rank_principal_sfs(cat: SfsCatalog, n_trials: int = 10**6, rng_seed: int = 0) -> SfsCatalog:
    """Sort states by empirical nearest-state hit counts under Rayleigh fading."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    counts = np.zeros(len(cat.entries), dtype=np.int64)
    remaining = n_trials
    while remaining > 0:
        n = min(remaining, 20000)
        idx = nearest_indices(cat, _rayleigh_ratios(rng, n))
        counts += np.bincount(idx, minlength=len(cat.entries))
        remaining -= n
    order = sorted(range(len(cat.entries)), key=lambda i: (-counts[i], i))
    entries = tuple(replace(cat.entries[i], weight=int(counts[i])) for i in order)
    return replace(cat, entries=entries, rank_seed=rng_seed, rank_trials=n_trials)


def truncate_catalog(cat: SfsCatalog, n_principal: int) -> SfsCatalog:
    """Keep the first ``n_principal`` entries (call after ranking)."""
    return replace(cat, entries=cat.entries[:n_principal])


def nearest_sfs(cat: SfsCatalog, h) -> tuple[np.ndarray, np.ndarray]:
    """Index and squared distance of the catalog state nearest to each channel.

    The ratio h2/h1 is compared against finite states; an exactly vanishing
    h1 matches only the infinity entry.  Ties break to the lowest index.
    ``h`` is an array of coefficient pairs with shape (..., 2); the result
    is an index array and a distance array of shape (...), 0-d for one
    pair.  The answer comes from ``nearest_indices``' cell list, which
    equals the brute-force argmin over the finite states.
    """
    hh = np.asarray(h, dtype=complex)
    pairs = hh.reshape(-1, 2)
    if (pairs == 0).all(axis=1).any():
        raise DegenerateChannelError("both channel coefficients are zero")
    # Python's complex division: numpy's rounds differently in the last bit
    # for about two ratios in five, and the distances are compared exactly.
    # 1e18 stands in for infinity when the catalog was truncated past it.
    v = np.array([h2 / h1 if h1 else 1e18 for h1, h2 in pairs.tolist()], dtype=complex)
    idx = nearest_indices(cat, v)
    dist = np.abs(v - cat.finite_values()[idx]) ** 2
    inf_idx = cat.infinite_index()
    if inf_idx is not None:
        at_inf = pairs[:, 0] == 0
        idx[at_inf] = inf_idx
        dist[at_inf] = 0.0
    return idx.reshape(hh.shape[:-1]), dist.reshape(hh.shape[:-1])


def save_catalog(cat: SfsCatalog, path: str) -> None:
    """Write the ranking: which states, in what order, with what weights."""
    header = {
        "modulation": cat.modulation,
        "labeling": cat.labeling_version,
        "rank_seed": cat.rank_seed,
        "rank_trials": cat.rank_trials,
        "entries": len(cat.entries),
    }
    body = (f"{i}; {e.state.to_text()}; {e.weight:d}" for i, e in enumerate(cat.entries))
    write_artifact(path, "pnclab-sfs-catalog v3", header, body)


@names_its_file
def load_catalog(path: str) -> SfsCatalog:
    """Read a catalog file.  Its states, partitions and raw-state count are
    ``enumerate_sfs``' own: each line's state must be one the enumeration
    of the file's modulation lists, and the labeling must be that
    constellation's.  Only the order, the weights and the rank fields come
    from the file."""
    with read_artifact(path, "pnclab-sfs-catalog v3") as (header, body):
        records = [strip_index(ln, ";", i).split(";") for i, ln in enumerate(body)]
    check_count("entries", header_int(header, "entries"), len(records))
    c = constellation_of(header)
    full = enumerate_sfs(c)
    by_state = {e.state: e for e in full.entries}
    entries, first = [], {}
    for i, fields in enumerate(records):
        if len(fields) != 2:
            raise ValueError(f"entry {i} has {len(fields)} fields after its index, not 2 (state; weight)")
        state_txt, weight_txt = (f.strip() for f in fields)
        entry = by_state.get(FadeState.from_text(state_txt))
        if entry is None:
            raise ValueError(f"entry {i}'s state {state_txt} is not a singular fade state of {c.name}")
        if first.setdefault(entry.state, i) != i:
            raise ValueError(f"entries {first[entry.state]} and {i} both list state {state_txt}")
        if not weight_txt.isdecimal():
            raise ValueError(f"entry {i} has weight {weight_txt!r}, not a non-negative integer")
        entries.append(replace(entry, weight=int(weight_txt)))
    return replace(
        full,
        entries=tuple(entries),
        rank_seed=header_int(header, "rank_seed", optional=True),
        rank_trials=header_int(header, "rank_trials", optional=True),
    )


def build_catalog(
    modulation: str,
    n_trials: int = 10**6,
    rng_seed: int = 0,
    n_principal: int | None = None,
) -> SfsCatalog:
    """Full pipeline: enumerate, rank, optionally truncate."""
    cat = rank_principal_sfs(enumerate_sfs(make_constellation(modulation)), n_trials=n_trials, rng_seed=rng_seed)
    if n_principal is not None:
        cat = truncate_catalog(cat, n_principal)
    return cat
