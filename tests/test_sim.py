import math
import os

import numpy as np
import pytest

from pnclab import link, sim
from pnclab.sim import (
    ExperimentConfig,
    backhaul_accounting,
    emit_results,
    results_csv_text,
    run_experiment,
)

FAST = dict(frames_per_point=120, frame_len=24, rank_trials=10**4)


class TestConfig:
    def test_json_roundtrip(self):
        cfg = ExperimentConfig(modulation="qam4", scheme="rbmas", ebn0_db=(8.0, 12.0), pilot_len=4)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.config_hash == cfg.config_hash

    def test_hash_changes_with_fields(self):
        a = ExperimentConfig(seed=1)
        b = ExperimentConfig(seed=2)
        assert a.config_hash != b.config_hash

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheme="magic")

    def test_rejects_more_terminals(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_terminals=3)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(scheme="bmas", n_aps=3),                 # 6 rows over 4 message bits
            dict(scheme="rbmas", ncv_len=3),              # 6 rows over 4 message bits
            dict(scheme="bmas", n_aps=4, ncv_len=1),      # square, but t below bits per symbol
            dict(scheme="comp_nonideal", quantizer_bits=3),
            dict(scheme="comp_ideal", quantizer_clip=0.0),
            dict(modulation="qam64"),
            dict(scheme="comp_ideal", frames_per_point=0),
            dict(scheme="comp_ideal", frame_len=0),
            dict(scheme="comp_ideal", pilot_len=0),
            dict(scheme="comp_ideal", pilot_len=-1),
            dict(scheme="comp_ideal", ebn0_db=()),
            dict(scheme="bmas", k_per_state=0),
            dict(scheme="rbmas", k_per_state=1),           # two APs in one fade stack to rank 2 < 4
            dict(scheme="bmas", n_principal=0),
            dict(scheme="bmas", rank_trials=0),
            dict(scheme="comp_ideal", n_aps=0),            # zero-size chunk divisor
            dict(scheme="comp_nonideal", n_aps=0),
            dict(scheme="comp_ideal", seed=-1),            # SeedSequence takes no negative entropy
            dict(scheme="bmas", seed=-1),
            dict(scheme="comp_ideal", ebn0_db=(10.0, math.nan)),
            dict(scheme="comp_ideal", ebn0_db=(-math.inf,)),
            dict(scheme="bmas", ebn0_db=(math.inf,)),     # zero noise variance
            dict(scheme="comp_nonideal", quantizer_clip=math.nan),
            dict(scheme="comp_nonideal", quantizer_clip=math.inf),
            dict(scheme="comp_ideal", frames_per_point=1e3),  # what --set frames_per_point=1e3 gives
            dict(scheme="comp_nonideal", quantizer_bits=2.0),
            dict(scheme="comp_ideal", catalog_path="catalog"),  # paths a scheme never reads
            dict(scheme="comp_ideal", store_path="store"),
            dict(scheme="comp_ideal", table_path="table"),
            dict(scheme="comp_nonideal", catalog_path="catalog"),
            dict(scheme="comp_nonideal", store_path="store"),
            dict(scheme="comp_nonideal", table_path="table"),
            dict(scheme="bmas", table_path="table"),
        ],
        ids=[
            "bmas-3aps", "rbmas-ncv3", "t-below-bits", "quantizer-bits", "quantizer-clip", "modulation",
            "no-frames", "empty-frame", "no-pilots", "negative-pilots", "no-points",
            "no-candidates", "one-candidate", "no-principal-states", "no-rank-trials",
            "no-aps-ideal", "no-aps-nonideal", "negative-seed-comp", "negative-seed-pnc",
            "nan-point", "minus-inf-point", "inf-point", "nan-clip", "inf-clip",
            "float-frames", "float-quantizer-bits",
            "catalog-ideal", "store-ideal", "table-ideal", "catalog-nonideal", "store-nonideal", "table-nonideal",
            "table-bmas",
        ],
    )
    def test_rejects_unrunnable_config(self, fields):
        with pytest.raises(ValueError):
            ExperimentConfig(**{"modulation": "qam4", **fields})

    def test_comp_schemes_take_any_stack_shape(self):
        ExperimentConfig(modulation="qam4", scheme="comp_ideal", n_aps=3, ncv_len=3)

    def test_single_ap_takes_one_candidate(self):
        ExperimentConfig(modulation="qam4", scheme="bmas", n_aps=1, ncv_len=4, k_per_state=1)


class TestBackhaul:
    def test_pnc_load_equals_total_rate(self):
        cfg = ExperimentConfig(modulation="qam4", scheme="bmas")
        assert backhaul_accounting(cfg) == 4.0

    def test_quantized_baseline_load(self):
        cfg = ExperimentConfig(modulation="qam4", scheme="comp_nonideal", quantizer_bits=2)
        assert backhaul_accounting(cfg) == 16.0

    def test_single_ap_fallback_still_total_rate(self):
        cfg = ExperimentConfig(modulation="qam4", scheme="bmas", n_aps=1, ncv_len=4)
        assert backhaul_accounting(cfg) == 4.0

    def test_ideal_is_unbounded(self):
        cfg = ExperimentConfig(scheme="comp_ideal")
        assert backhaul_accounting(cfg) == math.inf


class TestRuns:
    @pytest.mark.parametrize("scheme", ["bmas", "rbmas", "comp_ideal", "comp_nonideal"])
    def test_smoke(self, scheme):
        cfg = ExperimentConfig(modulation="qam4", scheme=scheme, ebn0_db=(12.0,), seed=3, **FAST)
        recs = list(run_experiment(cfg))
        assert len(recs) == 1
        assert 0.0 <= recs[0].outage <= 1.0
        assert recs[0].frames == FAST["frames_per_point"]

    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig(modulation="qam4", scheme="bmas", ebn0_db=(12.0,), seed=5, **FAST)
        a = [r.outage for r in run_experiment(cfg)]
        b = [r.outage for r in run_experiment(cfg)]
        assert a == b

    def test_worker_split_matches_serial(self):
        cfg = ExperimentConfig(modulation="qam4", scheme="bmas", ebn0_db=(12.0,), seed=6, **FAST)
        serial = [r.outage for r in run_experiment(cfg)]
        os.environ["PNCLAB_WORKERS"] = "2"
        try:
            split = [r.outage for r in run_experiment(cfg)]
        finally:
            os.environ.pop("PNCLAB_WORKERS")
        assert serial == split

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
    def test_bad_worker_count_refused_before_prepare(self, value, monkeypatch):
        """The variable used to be read after the off-line build: ``abc``
        raised a bare ``int()`` error, ``0`` and ``-3`` ran serially."""
        def no_prepare(cfg):
            raise AssertionError("_prepare ran before the worker count was checked")

        monkeypatch.setattr(sim, "_prepare", no_prepare)
        monkeypatch.setenv("PNCLAB_WORKERS", value)
        cfg = ExperimentConfig(modulation="qam4", scheme="bmas", ebn0_db=(12.0,), seed=6, **FAST)
        with pytest.raises(ValueError, match="PNCLAB_WORKERS must be an integer >= 1"):
            next(run_experiment(cfg))

    def test_high_snr_limit_error_free(self):
        cfg = ExperimentConfig(
            modulation="qam4", scheme="bmas", ebn0_db=(60.0,), seed=7,
            frames_per_point=1000, frame_len=24, rank_trials=10**4,
        )
        recs = list(run_experiment(cfg))
        assert recs[0].outage == 0.0

    def test_pilot_run_reports_mismap(self):
        cfg = ExperimentConfig(
            modulation="qam4", scheme="bmas", ebn0_db=(15.0,), seed=8, pilot_len=2, **FAST
        )
        recs = list(run_experiment(cfg))
        assert 0.0 <= recs[0].mismap_rate <= 1.0

    def test_perfect_csi_mismap_is_nan(self):
        cfg = ExperimentConfig(modulation="qam4", scheme="bmas", ebn0_db=(12.0,), seed=9, **FAST)
        recs = list(run_experiment(cfg))
        assert math.isnan(recs[0].mismap_rate)

    def test_catalog_mismatch_refused(self, tmp_path):
        from pnclab.fade_states import build_catalog, save_catalog

        cat = build_catalog("qam16", n_trials=10**4, rng_seed=0)
        path = str(tmp_path / "mismatch.cat")
        save_catalog(cat, path)
        cfg = ExperimentConfig(modulation="qam4", scheme="bmas", catalog_path=path, **FAST)
        with pytest.raises(ValueError):
            list(run_experiment(cfg))

    def test_rbmas_from_artifact_files(self, tmp_path):
        from pnclab.fade_states import build_catalog, save_catalog
        from pnclab.search import build_selection_table, build_store, save_store, save_table

        cat = build_catalog("qam4", n_trials=10**4, rng_seed=0)
        store = build_store(cat, t=2, k_per_state=5, n_aps=2)
        table = build_selection_table(store, cat, n_aps=2)
        cat_path = str(tmp_path / "c.cat")
        store_path = str(tmp_path / "s.cat")
        table_path = str(tmp_path / "t.tab")
        save_catalog(cat, cat_path)
        save_store(store, store_path)
        save_table(table, table_path)
        cfg = ExperimentConfig(
            modulation="qam4", scheme="rbmas", ebn0_db=(12.0,), seed=3,
            catalog_path=cat_path, store_path=store_path, table_path=table_path, **FAST,
        )
        from_files = [r.outage for r in run_experiment(cfg)]
        import dataclasses

        rebuilt = dataclasses.replace(
            cfg, catalog_path=None, store_path=None, table_path=None, rank_trials=10**4
        )
        assert from_files == [r.outage for r in run_experiment(rebuilt)]

    def test_table_mismatch_refused(self, tmp_path):
        from pnclab.fade_states import build_catalog, save_catalog
        from pnclab.search import build_selection_table, build_store, save_table

        cat4 = build_catalog("qam4", n_trials=10**4, rng_seed=0)
        cat16 = build_catalog("qam16", n_trials=10**4, rng_seed=0, n_principal=6)
        store16 = build_store(cat16, t=4, k_per_state=5, n_aps=2)
        table16 = build_selection_table(store16, cat16, n_aps=2)
        cat_path = str(tmp_path / "c4.cat")
        table_path = str(tmp_path / "t16.tab")
        save_catalog(cat4, cat_path)
        save_table(table16, table_path)
        cfg = ExperimentConfig(
            modulation="qam4", scheme="rbmas", ebn0_db=(12.0,), seed=3,
            catalog_path=cat_path, table_path=table_path, **FAST,
        )
        with pytest.raises(ValueError):
            list(run_experiment(cfg))

    @pytest.fixture(scope="class")
    def qam4_files(self, tmp_path_factory):
        """qam4 catalog, a t=2 store and its two-AP table, written to files."""
        from pnclab.fade_states import build_catalog, save_catalog
        from pnclab.search import build_selection_table, build_store, save_store, save_table

        d = tmp_path_factory.mktemp("qam4")
        cat = build_catalog("qam4", n_trials=10**4, rng_seed=0)
        store = build_store(cat, t=2, k_per_state=5, n_aps=2)
        paths = {k: str(d / k) for k in ("catalog", "store", "table")}
        save_catalog(cat, paths["catalog"])
        save_store(store, paths["store"])
        save_table(build_selection_table(store, cat, n_aps=2), paths["table"])
        return cat, store, paths

    def test_store_ncv_length_mismatch_refused(self, qam4_files, tmp_path):
        from pnclab.search import build_store, save_store

        cat, _, paths = qam4_files
        store_t4 = str(tmp_path / "t4.store")
        save_store(build_store(cat, t=4, k_per_state=3, n_aps=1), store_t4)
        cfg = ExperimentConfig(
            modulation="qam4", scheme="bmas", catalog_path=paths["catalog"], store_path=store_t4, **FAST
        )
        with pytest.raises(ValueError, match="t=4"):
            list(run_experiment(cfg))

    def test_table_ap_count_mismatch_refused(self, qam4_files, tmp_path):
        from pnclab.search import build_selection_table, save_table

        cat, store, paths = qam4_files
        one_ap = str(tmp_path / "one_ap.tab")
        save_table(build_selection_table(store, cat, n_aps=1), one_ap)
        cfg = ExperimentConfig(
            modulation="qam4", scheme="rbmas", catalog_path=paths["catalog"],
            store_path=paths["store"], table_path=one_ap, **FAST,
        )
        with pytest.raises(ValueError, match="1 APs"):
            list(run_experiment(cfg))

    def test_table_state_values_checked_against_store(self, qam4_files, tmp_path):
        """States must match as the files write them; a 1e-10 move used to
        pass a tolerance of the store header's eps=1e-09."""
        _, store, paths = qam4_files
        state = store.states[0]
        assert not state.infinite
        text = open(paths["table"]).read()
        for shift in (0.01, 1e-10):
            moved = f"{state.value.real + shift:.12g},{state.value.imag + 0.0:.12g}"
            assert moved != state.to_text()
            bad = str(tmp_path / "moved.tab")
            with open(bad, "w") as f:
                f.write(text.replace(f"state 0 @ {state.to_text()}\n", f"state 0 @ {moved}\n", 1))
            cfg = ExperimentConfig(
                modulation="qam4", scheme="rbmas", catalog_path=paths["catalog"],
                store_path=paths["store"], table_path=bad, **FAST,
            )
            with pytest.raises(ValueError, match="disagree in value"):
                list(run_experiment(cfg))


    def _save_store(self, store, tmp_path):
        from pnclab.search import save_store

        path = str(tmp_path / "other.store")
        save_store(store, path)
        return path

    def test_store_with_infeasible_tuples_refused(self, qam4_files, tmp_path):
        """A K=1 store lists 66 tuples no stack serves; before this check the
        sweep raised SelectionInfeasibleError at tuple (10, 9)."""
        from pnclab.search import build_store

        cat, _, paths = qam4_files
        store = build_store(cat, t=2, k_per_state=1, n_aps=2)
        assert len(store.infeasible) == 66
        cfg = ExperimentConfig(
            modulation="qam4", scheme="bmas", catalog_path=paths["catalog"],
            store_path=self._save_store(store, tmp_path), **FAST,
        )
        with pytest.raises(ValueError, match="66 infeasible"):
            list(run_experiment(cfg))

    def test_store_certified_for_other_ap_count_refused(self, qam4_files, tmp_path):
        from pnclab.search import certify_store

        cat, store, paths = qam4_files
        cfg = ExperimentConfig(
            modulation="qam4", scheme="bmas", catalog_path=paths["catalog"],
            store_path=self._save_store(certify_store(store, 3), tmp_path), **FAST,
        )
        with pytest.raises(ValueError, match="certified for n=3"):
            list(run_experiment(cfg))

    def test_store_list_length_mismatch_refused(self, qam4_files):
        _, _, paths = qam4_files
        cfg = ExperimentConfig(
            modulation="qam4", scheme="bmas", catalog_path=paths["catalog"],
            store_path=paths["store"], k_per_state=3, **FAST,
        )
        with pytest.raises(ValueError, match="K=5"):
            list(run_experiment(cfg))

    def _edited_table(self, paths, tmp_path, tup, value):
        """The table file with one more value, written ``value``, which
        state tuple ``tup`` (two APs) takes alone."""
        lines = open(paths["table"]).read().splitlines()
        k = sum(ln.startswith("value ") for ln in lines)
        lines[lines.index(f"values={k}")] = f"values={k + 1}"
        lines.insert(lines.index(next(ln for ln in lines if ln.startswith("row 0 @ "))), f"value {k} @ {value}")
        i, j = tup
        at = lines.index(next(ln for ln in lines if ln.startswith(f"row {i} @ ")))
        ids = lines[at].split()
        ids[3 + j] = str(k)
        lines[at] = " ".join(ids)
        bad = str(tmp_path / "edited.tab")
        with open(bad, "w") as f:
            f.write("\n".join(lines) + "\n")
        return bad

    def test_table_with_markers_refused(self, qam4_files, tmp_path):
        _, _, paths = qam4_files
        bad = self._edited_table(paths, tmp_path, (0, 1), "fallback")
        cfg = ExperimentConfig(
            modulation="qam4", scheme="rbmas", catalog_path=paths["catalog"],
            store_path=paths["store"], table_path=bad, **FAST,
        )
        with pytest.raises(ValueError, match="table marks 1 state tuples infeasible"):
            list(run_experiment(cfg))

    def test_table_entry_outside_store_lists_refused(self, qam4_files, tmp_path):
        """Swapping an entry's two matrices keeps the stack invertible, so
        the file loads; the first matrix is not in the first state's list."""
        from pnclab.search import load_table

        _, store, paths = qam4_files
        held = [{e.matrix.encoding for e in l} for l in store.lists]
        entries = load_table(paths["table"]).entries
        tup, (a, b) = next((tup, v) for tup, v in entries.items() if v is not None and v[1] not in held[tup[0]])
        cfg = ExperimentConfig(
            modulation="qam4", scheme="rbmas", catalog_path=paths["catalog"],
            store_path=paths["store"], table_path=self._edited_table(paths, tmp_path, tup, f"{b:x} {a:x}"), **FAST,
        )
        with pytest.raises(ValueError, match="does not hold"):
            list(run_experiment(cfg))

    def test_loaded_artifacts_serve_the_config(self, qam4_files):
        cat, _, paths = qam4_files
        cfg = ExperimentConfig(
            modulation="qam4", scheme="rbmas", ebn0_db=(12.0,), catalog_path=paths["catalog"],
            store_path=paths["store"], table_path=paths["table"], **FAST,
        )
        assert len(list(run_experiment(cfg))) == 1

class TestCsv:
    def _records(self, seed=10):
        cfg = ExperimentConfig(modulation="qam4", scheme="comp_ideal",
                               ebn0_db=(10.0, 14.0), seed=seed, **FAST)
        return list(run_experiment(cfg))

    def test_byte_identical_for_same_seed(self):
        assert results_csv_text(self._records()) == results_csv_text(self._records())

    def test_header_and_parse(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results(self._records(), str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "ebn0_db,scheme,outage,mismap_rate,backhaul_bits,frames,seed,config_hash"
        for ln in lines[1:]:
            cells = ln.split(",")
            outage = float(cells[2])
            assert 0.0 <= outage <= 1.0

    def test_sweep_order_preserved(self):
        text = results_csv_text(self._records())
        rows = text.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["10", "14"]


CHUNKED = {
    "bmas-pilots": dict(scheme="bmas", ebn0_db=(8.0, 14.0), pilot_len=4),
    "rbmas": dict(scheme="rbmas", ebn0_db=(12.0,)),
    "comp-ideal": dict(scheme="comp_ideal", ebn0_db=(10.0,), pilot_len=4),
    "comp-nonideal": dict(scheme="comp_nonideal", ebn0_db=(8.0,), pilot_len=4),
}


class TestChunking:
    """The CSV does not depend on how frames are grouped into back-end calls.

    At 120 uses a qam4 chunk holds 18 frames by default, so 40 frames run as
    chunks of 18, 18 and 4.
    """

    @staticmethod
    def csv(fields):
        cfg = ExperimentConfig(modulation="qam4", frames_per_point=40, frame_len=120, rank_trials=10**4, seed=21, **fields)
        return results_csv_text(run_experiment(cfg))

    @pytest.mark.parametrize("name", sorted(CHUNKED))
    def test_csv_is_independent_of_chunking(self, name, monkeypatch):
        fields = CHUNKED[name]
        default = self.csv(fields)
        assert -(-sim._CHUNK_ELEMENTS // (2 * 120 * 16)) == 18

        monkeypatch.setattr(sim, "_CHUNK_ELEMENTS", 1)                   # one frame per chunk
        assert self.csv(fields) == default
        monkeypatch.setattr(sim, "_CHUNK_ELEMENTS", 40 * 2 * 120 * 16)   # every frame in one chunk
        assert self.csv(fields) == default
        monkeypatch.undo()

        monkeypatch.setenv("PNCLAB_WORKERS", "2")
        assert self.csv(fields) == default
        monkeypatch.delenv("PNCLAB_WORKERS")

        whole = sim._run_point

        def uneven(ctx, point, ebn0_db, frame_range):
            cuts = [frame_range.start, frame_range.start + 7, frame_range.start + 25, frame_range.stop]
            parts = [whole(ctx, point, ebn0_db, range(a, b)) for a, b in zip(cuts, cuts[1:])]
            return tuple(map(sum, zip(*parts)))

        monkeypatch.setattr(sim, "_run_point", uneven)
        assert self.csv(fields) == default


@pytest.mark.parametrize("mod, frames, chunks", [("qam4", 40, [18, 18, 4]), ("qam16", 5, [2, 2, 1])])
def test_chunk_is_fewest_frames_reaching_chunk_elements(mod, frames, chunks, monkeypatch):
    """At 120 uses and 2 APs a chunk is 18 qam4 frames (3,840 metric
    elements each) or 2 qam16 frames (61,440 each): the fewest whole frames
    that reach 2^16 elements."""
    seen = []
    back_end = sim._BACK_ENDS["comp_ideal"]

    def spy(ctx, noise_var, H, *rest):
        seen.append(len(H))
        return back_end(ctx, noise_var, H, *rest)

    monkeypatch.setitem(sim._BACK_ENDS, "comp_ideal", spy)
    cfg = ExperimentConfig(modulation=mod, scheme="comp_ideal", frames_per_point=frames, frame_len=120)
    list(run_experiment(cfg))
    assert seen == chunks


def _back_end_pnc_two_selections(ctx, noise_var, H, H_hat, idx, y):
    """Oracle: the PNC back end with one selection call on H_hat for the
    frames and a second on H that only counts mis-maps."""
    m = ctx.constellation.bits_per_symbol
    frames = len(H)
    sel = sim._select(ctx, H_hat)
    mismaps = int((sel.rows != sim._select(ctx, H).rows).any(axis=(1, 2)).sum())
    llrs = link.detect_ncv(y, H_hat, sel.rows, ctx.constellation, noise_var, max_log=ctx.cfg.max_log_detection)
    bits = link.llrs_to_bits(llrs).transpose(0, 2, 1, 3).reshape(frames, ctx.cfg.frame_len, -1)
    w_bits = link.recover_batch(sel.rows.reshape(frames, -1), bits)
    w_hat = (w_bits * (1 << np.arange(2 * m))).sum(axis=-1)
    w_true = sim.joint_vector_table(m)[(idx[:, 0] << m) | idx[:, 1]]
    return int(np.any(w_hat != w_true, axis=1).sum()), mismaps


@pytest.mark.parametrize("scheme", ["bmas", "rbmas"])
def test_one_selection_call_counts_as_two(scheme, monkeypatch):
    """With pilots the back end selects once on H_hat and H stacked; its
    outage and mis-map counts are the two-call oracle's, chunk by chunk."""
    cfg = ExperimentConfig(modulation="qam4", scheme=scheme, pilot_len=1, frame_len=24, rank_trials=10**4, seed=5)
    ctx = sim._prepare(cfg)
    nv = link.noise_variance(4.0, 2)
    calls = []
    select = sim._select
    monkeypatch.setattr(sim, "_select", lambda ctx, H: calls.append(len(H)) or select(ctx, H))
    totals = np.zeros(2, dtype=int)
    for start in range(0, 60, 15):
        frames = [sim._front_end(ctx, nv, sim._frame_rng(cfg, 0, f)) for f in range(start, start + 15)]
        H, H_hat, idx, y = (np.stack(a) for a in zip(*frames))
        got = sim._back_end_pnc(ctx, nv, H, H_hat, idx, y)
        assert calls[-1:] == [30]
        assert got == _back_end_pnc_two_selections(ctx, nv, H, H_hat, idx, y)
        totals += got
    assert (totals > 0).all()       # both counts exercised


def test_inverse_f2_once_per_distinct_stack_per_run(monkeypatch):
    """recover_batch's memo lives in the run's context: within one run
    each distinct stack is inverted once, and a second run inverts again."""
    seen = []
    inverse_f2 = link.inverse_f2

    def spy(matrix):
        seen.append(matrix.rows)
        return inverse_f2(matrix)

    monkeypatch.setattr(link, "inverse_f2", spy)
    cfg = ExperimentConfig(scheme="bmas", ebn0_db=(6.0, 12.0), frames_per_point=60, frame_len=24, rank_trials=10**4)
    list(run_experiment(cfg))
    first = list(seen)
    assert len(first) == len(set(first)) > 1
    list(run_experiment(cfg))
    assert seen == first + first
