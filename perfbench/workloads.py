"""The benchmark's three workloads, built from pnclab's public API.

A workload is a tuple of experiment configs plus an optional off-line build
that writes the artifacts those configs read.  One *sweep* runs every config
once through ``run_experiment`` with ``sweep_frames[i]`` frames per point.
Sweep 0 of every run uses ``DIGEST_SEED`` and is checked against the CSV
digests recorded in ``digests.json``; later sweeps use seeds derived from the
benchmark's ``--seed``.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable

from pnclab import fade_states, search
from pnclab.sim import ExperimentConfig

DIGEST_SEED = 1234
WORK_DIR = os.path.join("perfbench", "_work")

# Artifact paths are relative to the repository root and never change:
# ExperimentConfig.config_hash covers the path strings, so a varying path
# would change the CSV bytes.
QAM16_DIR = os.path.join(WORK_DIR, "qam16-regulated")
QAM16_CATALOG = os.path.join(QAM16_DIR, "catalog.txt")
QAM16_STORE = os.path.join(QAM16_DIR, "store.cat")
QAM16_TABLE = os.path.join(QAM16_DIR, "table.tab")

COMMON = dict(n_aps=2, frame_len=120, pilot_len=4)


def build_qam16_regulated() -> None:
    """Paper-scale off-line half: full 390-entry qam16 catalog, t=4, K=5, n=2."""
    os.makedirs(QAM16_DIR, exist_ok=True)
    cat = fade_states.build_catalog("qam16", n_trials=10**6, rng_seed=0)
    store = search.build_store(cat, t=4, k_per_state=5, n_aps=2)
    table = search.build_selection_table(store, cat, 2)
    fade_states.save_catalog(cat, QAM16_CATALOG)
    search.save_store(store, QAM16_STORE)
    search.save_table(table, QAM16_TABLE)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[ExperimentConfig, ...]
    sweep_frames: tuple[int, ...]        # frames per point, one per config
    sweeps: int                          # seeded sweeps after the gate
    trace_scale: int                     # traced sweep = trace_scale x sweep_frames
    expected_hooks: frozenset[str]       # hooks the traced run must see fire
    build: Callable[[], None] | None = None

    def sweep(self, seed: int, scale: float = 1.0) -> tuple[ExperimentConfig, ...]:
        return tuple(
            replace(cfg, seed=seed, frames_per_point=max(1, round(n * scale)))
            for cfg, n in zip(self.configs, self.sweep_frames)
        )


FRONT_END = {"link.draw_channel", "link.transmit", "link.transmit_pilots", "link.estimate_channel"}
PNC_FRAME = FRONT_END | {
    "search.select_mappings",
    "fade_states.nearest_sfs",
    "mapping.superimpose",
    "mapping.mapping_d_min",
    "mapping.difference_profiles",
    "modulation.make_constellation",
    "link.detect_ncv",
    "link.recover_batch",
    "gf2.inverse_f2",
    "sim.prepare",
    "sim.frame_loop",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="qam4-live",
            configs=(
                ExperimentConfig(
                    modulation="qam4", scheme="bmas", ebn0_db=(10.0, 14.0),
                    ncv_len=2, k_per_state=5, **COMMON,
                ),
            ),
            sweep_frames=(250,),
            sweeps=8,
            trace_scale=4,
            expected_hooks=frozenset(
                PNC_FRAME
                | {
                    "gf2.rank_rows",
                    "fade_states.enumerate_sfs",
                    "fade_states.rank_principal_sfs",
                    "search.mine_candidates",
                    "search.assemble_store",
                    "search.certify_store",
                }
            ),
        ),
        Workload(
            name="qam16-regulated",
            configs=(
                ExperimentConfig(
                    modulation="qam16", scheme="rbmas", ebn0_db=(26.0,),
                    ncv_len=4, k_per_state=5,
                    catalog_path=QAM16_CATALOG, store_path=QAM16_STORE, table_path=QAM16_TABLE,
                    **COMMON,
                ),
            ),
            sweep_frames=(200,),
            sweeps=1,   # every sweep reloads the 4 MB table
            trace_scale=3,
            expected_hooks=frozenset(
                (PNC_FRAME - {"search.select_mappings"})
                | {
                    "search.table_lookup",
                    "gf2.rank_rows",
                    "fade_states.enumerate_sfs",
                    "fade_states.rank_principal_sfs",
                    "fade_states.load_catalog",
                    "search.mine_candidates",
                    "search.assemble_store",
                    "search.certify_store",
                    "search.build_selection_table",
                    "search.save_store",
                    "search.save_table",
                    "search.load_store",
                    "search.load_table",
                }
            ),
            build=build_qam16_regulated,
        ),
        Workload(
            name="baselines",
            configs=tuple(
                ExperimentConfig(modulation=mod, scheme=scheme, ebn0_db=(ebn0,), quantizer_bits=2, **COMMON)
                for scheme in ("comp_ideal", "comp_nonideal")
                for mod, ebn0 in (("qam4", 10.0), ("qam16", 26.0))
            ),
            # roughly equal frame-loop time per config
            sweep_frames=(600, 120, 100, 8),
            sweeps=8,
            trace_scale=4,
            expected_hooks=frozenset(
                FRONT_END
                | {
                    "link.comp_ideal",
                    "link.comp_nonideal_llrs",
                    "link.quantize_llr",
                    "link.dequantize_llr",
                    "link.comp_combine",
                    "sim.prepare",
                    "sim.frame_loop",
                }
            ),
        ),
    )
}
