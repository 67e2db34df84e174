import math
import os

import pytest

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
        ],
        ids=[
            "bmas-3aps", "rbmas-ncv3", "t-below-bits", "quantizer-bits", "quantizer-clip", "modulation",
            "no-frames", "empty-frame", "no-pilots", "negative-pilots", "no-points",
            "no-candidates", "one-candidate", "no-principal-states", "no-rank-trials",
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
        _, store, paths = qam4_files
        state = store.states[0]
        assert not state.infinite
        text = open(paths["table"]).read()
        moved = f"state 0 @ {state.value.real + 0.01:.12g},{state.value.imag:.12g}\n"
        bad = str(tmp_path / "moved.tab")
        with open(bad, "w") as f:
            f.write(text.replace(f"state 0 @ {state.to_text()}\n", moved, 1))
        cfg = ExperimentConfig(
            modulation="qam4", scheme="rbmas", catalog_path=paths["catalog"],
            store_path=paths["store"], table_path=bad, **FAST,
        )
        with pytest.raises(ValueError, match="disagree in value"):
            list(run_experiment(cfg))


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
