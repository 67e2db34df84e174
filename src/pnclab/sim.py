"""Monte Carlo link simulation: configs, the frame engine, metrics, and CSV.

Frames see block fading (one channel draw per frame).  A frame is in outage
when any recovered source bit is wrong; frames are uncoded.  Mis-mapping
counts frames where the matrices selected under estimated CSI differ from
the ones true CSI would pick.  Every frame derives its random stream from
(seed, sweep-point index, frame index), so worker splits cannot change
results.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import link
from .fade_states import SfsCatalog, build_catalog, load_catalog, truncate_catalog
from .link import QuantizerSpec
from .mapping import joint_vector_table
from .modulation import BITS_PER_SYMBOL, make_constellation
from .search import (
    CandidateStore,
    Selection,
    SelectionTable,
    _check_store_matches_catalog,
    _check_table_matches_store,
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
    """Reproducible description of one sweep."""

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
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.n_terminals != 2:
            raise ValueError("only the two-terminal uplink is supported")
        if self.modulation.lower() not in BITS_PER_SYMBOL:
            raise ValueError(f"unknown modulation {self.modulation!r}; expected one of {tuple(BITS_PER_SYMBOL)}")
        QuantizerSpec(bits=self.quantizer_bits, clip=self.quantizer_clip)  # raises on bad bits/clip
        if not self.ebn0_db:
            raise ValueError("ebn0_db needs at least one point")
        if self.frames_per_point < 1 or self.frame_len < 1:
            raise ValueError("frames_per_point and frame_len must be >= 1")
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
            m = BITS_PER_SYMBOL[self.modulation.lower()]
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
        if "ebn0_db" in data:
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
    w_of_tau: np.ndarray | None = None


def _prepare(cfg: ExperimentConfig) -> _Context:
    c = make_constellation(cfg.modulation)
    ctx = _Context(cfg=cfg, constellation=c)
    if cfg.scheme == "comp_nonideal":
        ctx.quantizer = QuantizerSpec(bits=cfg.quantizer_bits, clip=cfg.quantizer_clip)
    if cfg.scheme not in PNC_SCHEMES:
        return ctx
    ctx.w_of_tau = joint_vector_table(c.bits_per_symbol)[0]
    if cfg.catalog_path:
        cat = load_catalog(cfg.catalog_path)
        if cat.modulation != cfg.modulation or cat.labeling_version != c.labeling_version:
            raise ValueError("catalog does not match the configured modulation/labeling")
        if cfg.n_principal is not None:
            cat = truncate_catalog(cat, cfg.n_principal)
    else:
        cat = build_catalog(
            cfg.modulation,
            n_trials=cfg.rank_trials,
            rng_seed=cfg.seed,
            n_principal=cfg.n_principal,
        )
    ctx.catalog = cat
    t = cfg.ncv_len or c.bits_per_symbol
    if cfg.store_path:
        store = load_store(cfg.store_path)
        _check_store_matches_catalog(store, cat)
        if store.t != t:
            raise ValueError(f"store has NCV length t={store.t}, the config needs {t}")
    else:
        store = build_store(cat, t=t, k_per_state=cfg.k_per_state, n_aps=cfg.n_aps)
    ctx.store = store
    if cfg.scheme == "rbmas":
        if cfg.table_path:
            table = load_table(cfg.table_path)
            _check_table_matches_store(table, store)
            if table.n_aps != cfg.n_aps:
                raise ValueError(f"table was built for {table.n_aps} APs, the config has {cfg.n_aps}")
        else:
            table = build_selection_table(store, cat, cfg.n_aps)
        ctx.table = table
    return ctx


def _select(ctx: _Context, H: np.ndarray) -> Selection:
    if ctx.cfg.scheme == "rbmas":
        return table_lookup(ctx.table, ctx.catalog, H)
    return select_mappings(ctx.store, ctx.catalog, H)


def _frame_rng(cfg: ExperimentConfig, point: int, frame: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, point, frame)))


def _front_end(ctx: _Context, noise_var: float, rng: np.random.Generator):
    """Channel, data, received samples and receiver CSI of one frame.

    Every scheme draws from the frame's stream in this order: channel, data
    indices, data noise, then pilot noise.  Returns (H, H_hat, idx, y);
    H_hat is H itself under perfect CSI.
    """
    cfg = ctx.cfg
    c = ctx.constellation
    H = link.draw_channel(rng, cfg.n_aps, cfg.n_terminals)
    idx = rng.integers(0, c.size, size=(cfg.n_terminals, cfg.frame_len))
    y = link.transmit(H, noise_var, c.points[idx], rng)
    if cfg.pilot_len is None:
        return H, H, idx, y
    H_hat = link.estimate_channel(link.transmit_pilots(H, noise_var, cfg.pilot_len, rng), cfg.pilot_len)
    return H, H_hat, idx, y


# Back ends: (ctx, noise_var, H, H_hat, idx, y) -> (outage, mismap).

def _back_end_pnc(ctx: _Context, noise_var: float, H, H_hat, idx, y) -> tuple[bool, bool]:
    """Select, detect the NCV at every AP, recover the joint message."""
    cfg = ctx.cfg
    c = ctx.constellation
    m = c.bits_per_symbol
    sel = _select(ctx, H_hat)
    mismap = H_hat is not H and (
        tuple(mm.encoding for mm in sel.per_ap) != tuple(mm.encoding for mm in _select(ctx, H).per_ap)
    )
    bits = [
        link.llrs_to_bits(link.detect_ncv(
            y[j], (H_hat[j, 0], H_hat[j, 1]), sel.per_ap[j], c, noise_var, max_log=cfg.max_log_detection,
        ))
        for j in range(cfg.n_aps)
    ]
    w_bits = link.recover_batch(sel.global_matrix, np.concatenate(bits, axis=1))
    w_hat = (w_bits * (1 << np.arange(2 * m))[None, :]).sum(axis=1)
    w_true = ctx.w_of_tau[(idx[0] << m) | idx[1]]
    return bool(np.any(w_hat != w_true)), mismap


def _back_end_comp_ideal(ctx: _Context, noise_var: float, H, H_hat, idx, y) -> tuple[bool, bool]:
    m = ctx.constellation.bits_per_symbol
    joint = link.comp_ideal(y, H_hat, ctx.constellation)
    return bool(np.any(joint != ((idx[0] << m) | idx[1]))), False


def _back_end_comp_nonideal(ctx: _Context, noise_var: float, H, H_hat, idx, y) -> tuple[bool, bool]:
    c = ctx.constellation
    m = c.bits_per_symbol
    spec = ctx.quantizer
    deq = np.empty((ctx.cfg.n_aps, 2, m, ctx.cfg.frame_len))
    for j in range(ctx.cfg.n_aps):
        llrs = link.comp_nonideal_llrs(y[j], (H_hat[j, 0], H_hat[j, 1]), c, noise_var)
        deq[j] = link.dequantize_llr(link.quantize_llr(llrs, spec), spec)
    bits = link.comp_combine(deq)
    true_bits = np.empty_like(bits)
    for term in range(2):
        for i in range(m):
            true_bits[term, i] = (idx[term] >> (m - 1 - i)) & 1
    return bool(np.any(bits != true_bits)), False


_BACK_ENDS = {
    "bmas": _back_end_pnc,
    "rbmas": _back_end_pnc,
    "comp_ideal": _back_end_comp_ideal,
    "comp_nonideal": _back_end_comp_nonideal,
}


def _run_point(ctx: _Context, point: int, ebn0_db: float, frame_range: range) -> tuple[int, int]:
    """Count (outage frames, mismap frames) over a range of frames."""
    cfg = ctx.cfg
    noise_var = link.noise_variance(ebn0_db, ctx.constellation.bits_per_symbol)
    back_end = _BACK_ENDS[cfg.scheme]
    outages = 0
    mismaps = 0
    for f in frame_range:
        rng = _frame_rng(cfg, point, f)
        outage, mismap = back_end(ctx, noise_var, *_front_end(ctx, noise_var, rng))
        outages += outage
        mismaps += mismap
    return outages, mismaps


def backhaul_accounting(cfg: ExperimentConfig) -> float:
    """Backhaul bits per channel use for the configured scheme.

    Network-coded schemes forward one bit per mapping-matrix row per use;
    the quantized baseline sends n*u*m*q; the unquantized baseline is an
    unbounded marker.
    """
    m = BITS_PER_SYMBOL[cfg.modulation.lower()]
    if cfg.scheme in PNC_SCHEMES:
        return float(cfg.n_aps * (cfg.ncv_len or m))
    if cfg.scheme == "comp_nonideal":
        return float(cfg.n_aps * cfg.n_terminals * m * cfg.quantizer_bits)
    return math.inf


def run_experiment(cfg: ExperimentConfig) -> Iterator[MetricsRecord]:
    """Run the sweep, yielding one record per Eb/N0 point.

    Honors the PNCLAB_WORKERS environment variable for frame parallelism;
    results are identical for any worker count.
    """
    ctx = _prepare(cfg)
    backhaul = backhaul_accounting(cfg)
    workers = int(os.environ.get("PNCLAB_WORKERS", "1"))
    for point, ebn0 in enumerate(cfg.ebn0_db):
        start = time.perf_counter()
        n = cfg.frames_per_point
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            bounds = np.linspace(0, n, workers + 1, dtype=int)
            chunks = [range(bounds[i], bounds[i + 1]) for i in range(workers)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(_run_point_star, [(ctx, point, ebn0, ch) for ch in chunks]))
            outages = sum(p[0] for p in parts)
            mismaps = sum(p[1] for p in parts)
        else:
            outages, mismaps = _run_point(ctx, point, ebn0, range(n))
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


def results_csv_text(records) -> str:
    buf = io.StringIO()
    emit_results(records, buf)
    return buf.getvalue()
