"""Monte Carlo link simulation: configs, the frame engine, metrics, and CSV.

Frames see block fading (one channel draw per frame).  A frame is in outage
when any recovered source bit is wrong; frames are uncoded.  Mis-mapping
counts frames where the matrices selected under estimated CSI differ from
the ones true CSI would pick.  Every frame derives its random stream from
(seed, sweep-point index, frame index), so worker splits cannot change
results.  A chunk's streams are seeded in one pass: SeedSequence's mixing is
a fixed 32-bit integer hash (O'Neill's seed_seq design; O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", HMC-CS-2014-0905), so it runs as uint32 array
arithmetic over the chunk's frames, and each stream is still
PCG64(SeedSequence((seed, point, frame))) bit for bit.

Frames run in chunks.  In the front end each frame draws from its own
stream in the fixed order (its data indices as one raw draw, the values
``Generator.integers`` would give), and the arithmetic runs once per chunk on
stacked arrays with a leading frame axis; the scheme's back end (selection,
detection, recovery, or a baseline's detector) then runs once per chunk on
those arrays; with pilots, one selection call takes the estimated and the
true channels stacked.  Sizes are derived, not configured: a chunk is the
fewest whole frames that reach _CHUNK_SAMPLES = 2^13 received samples (35
frames at 120 uses and 2 APs); a detector's grid takes its frames in blocks
within link._GRID_ELEMENTS.  Neither size can change a result: every batched
step is elementwise, a reduction along one frame's own axis, or a matrix
product kept at the one-frame shape, stacked and never flattened into one
2-D product, whose blocking could round differently: (frames, APs,
terminals) @ (frames, terminals, uses) in the front end; comp_ideal's
samples-outermost grid (frames, APs, uses, 3) @ (frames, APs, 3, 2^mu); and
the LLR detectors' hypotheses-outermost grid (frames, APs, 2^mu, 3) @
(frames, APs, 3, uses) with its class sums (frames, APs, t, 2^mu) @ (frames,
APs, 2^mu, uses).
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Iterator

import numpy as np

from . import link
from .fade_states import SfsCatalog, build_catalog, load_catalog, truncate_catalog
from .link import QuantizerSpec
from .mapping import joint_vector_table
from .modulation import BITS_PER_SYMBOL, make_constellation
from .search import (
    CandidateStore,
    SelectionBatch,
    SelectionTable,
    _check_store_matches_catalog,
    build_selection_table,
    build_store,
    load_store,
    load_table,
    select_mappings,
    table_lookup,
)

SCHEMES = ("bmas", "rbmas", "comp_ideal", "comp_nonideal")
PNC_SCHEMES = ("bmas", "rbmas")


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible description of one sweep.

    An Eb/N0 point needs n_aps * v <= DBL_MAX / 2^16 for its noise variance v.
    With numpy's normal draws below Z = 14 in magnitude (its ziggurat tail draw is at
    most 3.66 + ln(2^53) / 3.65) and points below S = 1.35, a channel estimate is below
    Z (1 + sqrt(v)) and, for v >= 1, |p| < 4SZ sqrt(v), |y| < (2S + 1) Z sqrt(v) and
    |p_a - p_b| < 8SZ sqrt(v): a correlation metric 2 Re(p conj y) - |p|^2 and each partial
    sum of its product are below 2|p||y| + |p|^2 < (32S^2 + 8S) Z^2 v < 2^14 v, a metric
    minus its row maximum below 2^15 v, comp_ideal's sum of one per AP below n_aps 2^14 v,
    and every squared distance below 2^15 v.
    """

    modulation: str = "qam4"
    scheme: str = "bmas"
    n_aps: int = 2
    n_terminals: int = 2
    ebn0_db: tuple[float, ...] = (10.0,)
    frames_per_point: int = 10000
    frame_len: int = 120
    pilot_len: int | None = None          # None = perfect CSI
    n_principal: int | None = None        # principal-state truncation
    k_per_state: int = 5
    ncv_len: int | None = None            # None = bits per symbol
    quantizer_bits: int = 2
    quantizer_clip: float = 8.0
    max_log_detection: bool = False
    seed: int = 1234
    rank_trials: int = 10**6
    catalog_path: str | None = None
    store_path: str | None = None
    table_path: str | None = None

    def __post_init__(self) -> None:
        for f in fields(self):          # f.type is annotation text: postponed annotations
            value = getattr(self, f.name)
            exact = {"int": int, "bool": bool, "str": str}.get(f.type.removesuffix(" | None"))
            if exact and type(value) is not exact and not (value is None and f.type.endswith("None")):
                raise ValueError(f"{f.name} must be {f.type}, not {value!r}")
            reals = {"float": (value,), "tuple[float, ...]": value}.get(f.type, ())
            if not isinstance(reals, tuple) or any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in reals):
                raise ValueError(f"{f.name} must be {f.type} (real numbers, not bool), not {value!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        # a path the scheme never reads would change config_hash and nothing else
        unread = {"bmas": ("table_path",), "rbmas": ()}.get(self.scheme, ("catalog_path", "store_path", "table_path"))
        if any(getattr(self, name) is not None for name in unread):
            raise ValueError(f"scheme {self.scheme} never reads {', '.join(unread)}: leave them None")
        if self.n_terminals != 2:
            raise ValueError("only the two-terminal uplink is supported")
        if self.modulation not in BITS_PER_SYMBOL:
            raise ValueError(f"unknown modulation {self.modulation!r}; expected one of {tuple(BITS_PER_SYMBOL)}")
        QuantizerSpec(bits=self.quantizer_bits, clip=self.quantizer_clip)  # raises on bad bits/clip
        if min(self.n_aps, self.frames_per_point, self.frame_len) < 1:
            raise ValueError("n_aps, frames_per_point and frame_len must be >= 1")
        if not self.ebn0_db:
            raise ValueError("ebn0_db needs at least one point")
        for point in self.ebn0_db:      # NaN and +-inf included: none has a noise variance
            try:
                noise_var = link.noise_variance(point, BITS_PER_SYMBOL[self.modulation])
            except ArithmeticError:     # 10 ** (point / 10) overflows, or is 0
                noise_var = math.nan
            if not 0.0 < noise_var <= np.finfo(float).max / 2**16 / self.n_aps:    # see the class docstring
                raise ValueError(f"ebn0_db point {point} dB has no finite positive noise variance "
                                 f"that keeps every squared distance finite at {self.n_aps} APs")
        object.__setattr__(self, "ebn0_db", tuple(map(float, self.ebn0_db)))     # one value, one config_hash
        object.__setattr__(self, "quantizer_clip", float(self.quantizer_clip))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.pilot_len is not None and self.pilot_len < 1:
            raise ValueError("pilot_len must be >= 1, or None for perfect CSI")
        if self.k_per_state < 1 or self.rank_trials < 1:
            raise ValueError("k_per_state and rank_trials must be >= 1")
        if self.n_principal is not None and self.n_principal < 1:
            raise ValueError("n_principal must be >= 1, or None for the full catalog")
        if self.scheme in PNC_SCHEMES:
            if self.n_aps >= 2 and self.k_per_state < 2:
                raise ValueError(
                    "k_per_state must be >= 2 with several APs: one matrix per state cannot stack "
                    "to full rank when two APs share a fade state"
                )
            m = BITS_PER_SYMBOL[self.modulation]
            t = self.ncv_len or m
            if not m <= t <= 2 * m:
                raise ValueError(f"ncv_len must be in [{m}, {2 * m}] for {self.modulation}")
            if self.n_aps * t != 2 * m:
                raise ValueError(
                    f"{self.n_aps} APs of {t} rows stack to a {self.n_aps * t}x{2 * m} global matrix; "
                    f"recovery needs it square (n_aps * ncv_len == {2 * m})"
                )

    @property
    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}.get(type(data), "a number")
            raise ValueError(f"a config must be a JSON object, not {kind}")
        unknown = sorted(data.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if isinstance(data.get("ebn0_db"), list):     # JSON's array; anything else is refused by name
            data["ebn0_db"] = tuple(data["ebn0_db"])
        return cls(**data)


@dataclass(frozen=True)
class MetricsRecord:
    ebn0_db: float
    scheme: str
    outage: float
    mismap_rate: float
    backhaul_bits: float
    frames: int
    runtime_s: float
    seed: int
    config_hash: str


@dataclass
class _Context:
    """Everything a frame worker needs, built once per experiment."""

    cfg: ExperimentConfig
    constellation: object
    quantizer: QuantizerSpec | None = None
    catalog: SfsCatalog | None = None
    store: CandidateStore | None = None
    table: SelectionTable | None = None


def _prepare(cfg: ExperimentConfig) -> _Context:
    c = make_constellation(cfg.modulation)
    ctx = _Context(cfg=cfg, constellation=c)
    if cfg.scheme == "comp_nonideal":
        ctx.quantizer = QuantizerSpec(bits=cfg.quantizer_bits, clip=cfg.quantizer_clip)
    if cfg.scheme not in PNC_SCHEMES:
        return ctx
    if cfg.catalog_path:
        cat = load_catalog(cfg.catalog_path)
        if cat.modulation != cfg.modulation:
            raise ValueError("catalog does not match the configured modulation")
        if cfg.n_principal is not None:
            cat = truncate_catalog(cat, cfg.n_principal)
    else:
        cat = build_catalog(
            cfg.modulation,
            n_trials=cfg.rank_trials,
            rng_seed=cfg.seed,
            n_principal=cfg.n_principal,
        )
    cat._cells                  # nearest_sfs' cell list: built here, not in the first frame
    ctx.catalog = cat
    t = cfg.ncv_len or c.bits_per_symbol
    if cfg.store_path:
        store = load_store(cfg.store_path)
        _check_store_matches_catalog(store, cat)
        if store.t != t:
            raise ValueError(f"store has NCV length t={store.t}, the config needs {t}")
        if store.certified_n != cfg.n_aps or store.infeasible:
            raise ValueError(
                f"store is certified for n={store.certified_n} with {len(store.infeasible)} infeasible "
                f"state tuples; the config needs every tuple of {cfg.n_aps} APs feasible"
            )
        if store.k_per_state != cfg.k_per_state:
            raise ValueError(f"store has K={store.k_per_state} matrices per state, the config needs {cfg.k_per_state}")
    else:
        store = build_store(cat, t=t, k_per_state=cfg.k_per_state, n_aps=cfg.n_aps)
    ctx.store = store
    if cfg.scheme == "rbmas":
        table = build_selection_table(store, n_aps=cfg.n_aps)
        if cfg.table_path:      # a loaded table must hold the store's own choice for every state tuple
            load_table(cfg.table_path).check_equal(table, f"table file {cfg.table_path} and the store's own table")
        if table.markers:       # also builds table_lookup's value rows, here and not in the first frame
            raise ValueError(f"table marks {table.markers} state tuples infeasible; the config needs all feasible")
        ctx.table = table
    return ctx


def _select(ctx: _Context, H: np.ndarray) -> SelectionBatch:
    if ctx.cfg.scheme == "rbmas":
        return table_lookup(ctx.table, ctx.catalog, H)
    return select_mappings(ctx.store, ctx.catalog, H)


def _frame_rng(cfg: ExperimentConfig, point: int, frame: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, point, frame)))


# SeedSequence's hash constants (numpy.random.bit_generator, after O'Neill's
# seed_seq_fe): its mixing is a fixed 32-bit integer hash, so it runs across
# a frame axis as uint32 array arithmetic and gives the same words.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(k: int, mult: int, n: int) -> np.ndarray:
    """The (xor, multiplier) pairs of n successive hashes, (2, n, 1) uint32:
    each hash xors the running constant in, then multiplies by its next value."""
    pairs = []
    for _ in range(n):
        pairs.append((k, k * mult & _M32))
        k = pairs[-1][1]
    return np.array(pairs, dtype=np.uint32).T[..., None]


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)     # generate_state(4, uint64): 8 words


@functools.cache
def _pool_constants(n_words: int):
    """SeedSequence's hash constants for an entropy of n_words words: the
    pool fill (2, 4, 1); the cross mix (2, source, pool word, 1), a source's
    own word unused; one (2, 4, 1) round per word past the fourth."""
    k = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(n_words - 4, 0))
    cross = np.zeros((2, 4, 4, 1), dtype=np.uint32)
    for src in range(4):
        cross[:, src, [dst for dst in range(4) if dst != src]] = k[:, 4 + 3 * src : 7 + 3 * src]
    return k[:, :4], cross, k[:, 16:].reshape(2, -1, 4, 1)


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x, y):
    out = x * _MIX_L - y * _MIX_R
    return out ^ out >> 16


def _seed_states(entropy: list, frames: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each frame's
    entropy e, (frames, 4): ``entropy`` holds e's 32-bit words in order, each
    an int shared by every frame or a (frames,) array."""
    words = np.zeros((max(len(entropy), 4), frames), dtype=np.uint32)    # zeros: the pool's padding
    for row, word in zip(words, entropy):
        row[...] = word
    fill, cross, rounds = _pool_constants(len(entropy))
    pool = _hashmix(words[:4], *fill)
    for src in range(4):
        own = pool[src].copy()
        pool = _mix(pool, _hashmix(own, *cross[:, src]))
        pool[src] = own
    for word, xor, mult in zip(words[4:], *rounds):
        pool = _mix(pool, _hashmix(word, xor, mult))
    state = _hashmix(np.concatenate([pool, pool]), *_STATE_CONSTANTS)
    return np.ascontiguousarray(state.T).view("<u8").astype(np.uint64, copy=False)


def _words(n: int) -> list[int]:
    """The 32-bit words SeedSequence splits a non-negative int into, least significant first."""
    return [n >> shift & _M32 for shift in range(0, max(n.bit_length(), 1), 32)]


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A frame's SeedSequence output computed ahead: the four uint64 words
    PCG64 asks for, so numpy's own code does PCG64's 128-bit seeding."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.state


def _frame_rngs(cfg: ExperimentConfig, point: int, frames: range) -> list[np.random.Generator]:
    """``[_frame_rng(cfg, point, f) for f in frames]``, every stream bit for
    bit, with SeedSequence's hash run once over the frames of each run that
    shares f >> 32.  A frame's low 32-bit word follows the seed's and the
    point's words and precedes its higher ones; the word count changes only
    at a multiple of 2^32, and an entropy of more than four words takes extra
    mixing rounds, so a run is hashed at its own word count."""
    if frames.step != 1:
        raise ValueError(f"frames must be consecutive, not {frames}")
    prefix = _words(cfg.seed) + _words(point)
    rngs = []
    start = 0
    while start < len(frames):
        high, low = divmod(frames[start], 1 << 32)
        n = min(len(frames) - start, (1 << 32) - low)
        lows = np.arange(low, low + n, dtype=np.uint32)
        states = _seed_states(prefix + [lows] + (_words(high) if high else []), n)
        rngs += [np.random.Generator(np.random.PCG64(_SeedState(s))) for s in states]
        start += n
    return rngs


def _data_indices(rngs, n_terminals: int, frame_len: int, m: int) -> np.ndarray:
    """Each frame's data indices (frames, terminals, uses), what
    ``rng.integers(0, 2^m, (terminals, uses))`` draws from each generator, by
    one raw draw per frame.  For a power-of-two range numpy's bounded draw is
    Lemire's method without a rejection (Lemire, "Fast random integer
    generation in an interval", ACM TOMACS 29(1), 2019): the top m bits of
    each 32-bit half of a 64-bit output, low half first.  An even count of
    halves leaves each stream where that draw leaves it."""
    raw = np.stack([rng.bit_generator.random_raw(n_terminals * frame_len // 2) for rng in rngs])
    halves = raw.astype("<u8", copy=False).view("<u4") >> (32 - m)
    return halves.astype(np.int64).reshape(len(rngs), n_terminals, frame_len)


def _front_end(ctx: _Context, noise_var: float, rngs):
    """Channel, data, received samples and receiver CSI of a chunk of
    frames, one generator per frame.

    Each frame draws from its own stream in this order: channel, data
    indices, data noise, then pilot noise; the arithmetic then runs once on
    the stacked arrays.  Returns (H, H_hat, idx, y), each with a leading
    frame axis; H_hat is H itself under perfect CSI.
    """
    cfg = ctx.cfg
    c = ctx.constellation
    H = link.draw_channel(rngs, cfg.n_aps, cfg.n_terminals)
    idx = _data_indices(rngs, cfg.n_terminals, cfg.frame_len, c.bits_per_symbol)
    y = link.transmit(H, noise_var, c.points[idx], rngs)
    if cfg.pilot_len is None:
        return H, H, idx, y
    H_hat = link.estimate_channel(link.transmit_pilots(H, noise_var, cfg.pilot_len, rngs), cfg.pilot_len)
    return H, H_hat, idx, y


# Back ends: (ctx, noise_var, H, H_hat, idx, y) -> (outage frames, mismap
# frames) over one chunk.  H and H_hat are (frames, APs, 2), idx is
# (frames, terminals, uses) and y (frames, APs, uses); H_hat is H itself
# under perfect CSI.

def _back_end_pnc(ctx: _Context, noise_var: float, H, H_hat, idx, y) -> tuple[int, int]:
    """Select, detect the NCV at every AP, recover the joint message."""
    cfg = ctx.cfg
    c = ctx.constellation
    m = c.bits_per_symbol
    frames = len(H)
    # selection is per frame, so one call on H_hat and H stacked gives both
    both = _select(ctx, H_hat if H_hat is H else np.concatenate([H_hat, H])).rows
    rows = both[:frames]
    mismaps = 0 if H_hat is H else int((rows != both[frames:]).any(axis=(1, 2)).sum())
    llrs = link.detect_ncv(y, H_hat, rows, c, noise_var, max_log=cfg.max_log_detection)
    # (frames, APs, uses, t) -> (frames, uses, APs * t): AP order, as the stack
    bits = link.llrs_to_bits(llrs).transpose(0, 2, 1, 3).reshape(frames, cfg.frame_len, -1)
    w_bits = link.recover_batch(rows.reshape(frames, -1), bits)
    w_hat = (w_bits * (1 << np.arange(2 * m))).sum(axis=-1)
    w_true = joint_vector_table(m)[(idx[:, 0] << m) | idx[:, 1]]
    return int(np.any(w_hat != w_true, axis=1).sum()), mismaps


def _back_end_comp_ideal(ctx: _Context, noise_var: float, H, H_hat, idx, y) -> tuple[int, int]:
    m = ctx.constellation.bits_per_symbol
    joint = link.comp_ideal(y, H_hat, ctx.constellation)
    return int(np.any(joint != ((idx[:, 0] << m) | idx[:, 1]), axis=1).sum()), 0


def _back_end_comp_nonideal(ctx: _Context, noise_var: float, H, H_hat, idx, y) -> tuple[int, int]:
    c = ctx.constellation
    m = c.bits_per_symbol
    spec = ctx.quantizer
    llrs = link.comp_nonideal_llrs(y, H_hat, c, noise_var)
    bits = link.comp_combine(link.dequantize_llr(link.quantize_llr(llrs, spec), spec))
    # (frames, terminals, bits, uses), label bits MSB first
    true_bits = (idx[:, :, None, :] >> (m - 1 - np.arange(m))[:, None]) & 1
    return int(np.any(bits != true_bits, axis=(1, 2, 3)).sum()), 0


_BACK_ENDS = {
    "bmas": _back_end_pnc,
    "rbmas": _back_end_pnc,
    "comp_ideal": _back_end_comp_ideal,
    "comp_nonideal": _back_end_comp_nonideal,
}

# A chunk is the fewest whole frames that reach this many received samples,
# frames x APs x uses; the detectors bound their grids (link._GRID_ELEMENTS).
_CHUNK_SAMPLES = 2**13


def _run_point(ctx: _Context, point: int, ebn0_db: float, frame_range: range) -> tuple[int, int]:
    """Count (outage frames, mismap frames) over a range of frames.

    Frames run in chunks: one _frame_rngs call seeds the chunk's
    generators, one front-end call draws each frame from its own generator
    and returns the chunk's stacked arrays, then the back end takes them in
    one call.
    """
    cfg = ctx.cfg
    noise_var = link.noise_variance(ebn0_db, ctx.constellation.bits_per_symbol)
    back_end = _BACK_ENDS[cfg.scheme]
    chunk = -(-_CHUNK_SAMPLES // (cfg.n_aps * cfg.frame_len))
    outages = 0
    mismaps = 0
    for start in range(0, len(frame_range), chunk):
        rngs = _frame_rngs(cfg, point, frame_range[start : start + chunk])
        outage, mismap = back_end(ctx, noise_var, *_front_end(ctx, noise_var, rngs))
        outages += outage
        mismaps += mismap
    return outages, mismaps


def backhaul_accounting(cfg: ExperimentConfig) -> float:
    """Backhaul bits per channel use for the configured scheme.

    Network-coded schemes forward one bit per mapping-matrix row per use;
    the quantized baseline sends n*u*m*q; the unquantized baseline is an
    unbounded marker.
    """
    m = BITS_PER_SYMBOL[cfg.modulation]
    if cfg.scheme in PNC_SCHEMES:
        return float(cfg.n_aps * (cfg.ncv_len or m))
    if cfg.scheme == "comp_nonideal":
        return float(cfg.n_aps * cfg.n_terminals * m * cfg.quantizer_bits)
    return math.inf


def run_experiment(cfg: ExperimentConfig) -> Iterator[MetricsRecord]:
    """Prepare the sweep, and return an iterator of one record per Eb/N0 point.

    Honors the PNCLAB_WORKERS environment variable for frame parallelism;
    results are identical for any worker count.  A value that is not an
    integer >= 1 is refused before any off-line work.  Preparation (loading
    or building the off-line artifacts) runs in this call, so a refused
    config or artifact raises here, before any frame runs.
    """
    text = os.environ.get("PNCLAB_WORKERS", "1")
    workers = int(text) if text.strip().isdecimal() else 0
    if workers < 1:
        raise ValueError(f"PNCLAB_WORKERS must be an integer >= 1, not {text!r}")
    return _sweep(_prepare(cfg), workers)


def _sweep(ctx: _Context, workers: int) -> Iterator[MetricsRecord]:
    cfg = ctx.cfg
    backhaul = backhaul_accounting(cfg)
    n = cfg.frames_per_point
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, n, workers + 1, dtype=int)
        splits = [range(bounds[i], bounds[i + 1]) for i in range(workers)]
    # one pool serves every point; closing the generator shuts it down
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        for point, ebn0 in enumerate(cfg.ebn0_db):
            start = time.perf_counter()
            if pool is None:
                outages, mismaps = _run_point(ctx, point, ebn0, range(n))
            else:
                parts = list(pool.map(_run_point_star, [(ctx, point, ebn0, split) for split in splits]))
                outages = sum(p[0] for p in parts)
                mismaps = sum(p[1] for p in parts)
            pnc = cfg.scheme in PNC_SCHEMES
            mismap_rate = (mismaps / n) if (pnc and cfg.pilot_len is not None) else math.nan
            yield MetricsRecord(
                ebn0_db=ebn0,
                scheme=cfg.scheme,
                outage=outages / n,
                mismap_rate=mismap_rate,
                backhaul_bits=backhaul,
                frames=n,
                runtime_s=time.perf_counter() - start,
                seed=cfg.seed,
                config_hash=cfg.config_hash,
            )


def _run_point_star(args):
    return _run_point(*args)


CSV_COLUMNS = ("ebn0_db", "scheme", "outage", "mismap_rate", "backhaul_bits", "frames", "seed", "config_hash")


def emit_results(records, out) -> None:
    """Write records as CSV with a stable column order and formatting.

    ``out`` is a path or a text file object.  Runtime is intentionally not a
    column: two runs with the same seed and config produce identical bytes.
    """
    own = isinstance(out, (str, os.PathLike))
    f = open(out, "w", newline="", encoding="ascii") if own else out
    try:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    f"{r.ebn0_db:.10g}",
                    r.scheme,
                    f"{r.outage:.10g}",
                    f"{r.mismap_rate:.10g}",
                    f"{r.backhaul_bits:.10g}",
                    r.frames,
                    r.seed,
                    r.config_hash,
                ]
            )
    except OSError as exc:
        raise OSError(f"failed writing results to {out}: {exc}") from exc
    finally:
        if own:
            f.close()
