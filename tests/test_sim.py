import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab import link, sim
from pnclab.modulation import BITS_PER_SYMBOL
from pnclab.sim import (
    ExperimentConfig,
    backhaul_accounting,
    emit_results,
    run_experiment,
)

from oracles import results_csv_text

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

    @pytest.mark.parametrize(
        "fields",
        [dict(ebn0_db=(10,)), dict(ebn0_db=(10.0,)), dict(ebn0_db=(np.float32(10),)), dict(quantizer_clip=8)],
        ids=["int-point", "float-point", "float32-point", "int-clip"],
    )
    def test_hash_depends_on_values_not_number_types(self, fields):
        """The int and float32 points and the int clip used to hash as
        f0c1afdab366, 0f534fc01b70 and cb652d60a9ce, for the same frames."""
        cfg = ExperimentConfig(**fields)
        assert cfg.config_hash == "3a891ba5a211"
        assert all(type(x) is float for x in cfg.ebn0_db) and type(cfg.quantizer_clip) is float

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
            dict(scheme="comp_nonideal", quantizer_clip=10**400),  # no float holds it
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
            "nan-point", "minus-inf-point", "inf-point", "nan-clip", "inf-clip", "huge-int-clip",
            "float-frames", "float-quantizer-bits",
            "catalog-ideal", "store-ideal", "table-ideal", "catalog-nonideal", "store-nonideal", "table-nonideal",
            "table-bmas",
        ],
    )
    def test_rejects_unrunnable_config(self, fields):
        with pytest.raises(ValueError):
            ExperimentConfig(**{"modulation": "qam4", **fields})

    @pytest.mark.parametrize("point, error", [(4000.0, "OverflowError"), (-4000.0, "ZeroDivisionError")])
    def test_point_without_noise_variance_refused(self, point, error):
        """These used to build and then raise the named error in
        link.noise_variance once run_experiment reached the point."""
        with pytest.raises(ValueError, match=rf"ebn0_db point {point} dB has no finite positive noise variance"):
            ExperimentConfig(scheme="comp_ideal", ebn0_db=(10.0, point))

    @pytest.mark.parametrize("mod", ["qam4", "qam16"])
    def test_extreme_points_that_build_run(self, mod, monkeypatch):
        """The largest and the smallest point that construction accepts run;
        the adjacent floats beyond them are refused.  At both every scheme
        runs with no RuntimeWarning (an error under this suite's filter) and
        no NaN L-value."""

        def builds(point):
            try:
                return ExperimentConfig(modulation=mod, scheme="comp_ideal", ebn0_db=(point,), frames_per_point=4, frame_len=24)
            except ValueError:
                return None

        llrs = link._llrs
        nans = []
        monkeypatch.setattr(link, "_llrs", lambda *args, **kw: nans.append(np.isnan(out := llrs(*args, **kw)).any()) or out)
        pnc = dict(rank_trials=10**4, n_principal=24 if mod == "qam16" else None)
        for ok, refused in ((3000.0, 4000.0), (-3000.0, -4000.0)):
            while (mid := (ok + refused) / 2) not in (ok, refused):
                ok, refused = (mid, refused) if builds(mid) else (ok, mid)
            assert np.nextafter(ok, refused) == refused and builds(refused) is None
            (record,) = run_experiment(builds(ok))
            assert record.frames == 4 and record.outage == (ok < 0)
            for scheme in sim.SCHEMES:
                cfg = replace(builds(ok), scheme=scheme, pilot_len=2, **(pnc if scheme in sim.PNC_SCHEMES else {}))
                (record,) = run_experiment(cfg)
                assert record.outage == (ok < 0)
        assert len(nans) == 6 and not any(nans)      # bmas, rbmas and comp_nonideal at each point

    def test_point_whose_noise_can_overflow_refused(self):
        """-3036 dB gives qam4 a noise variance of 1.99e303: within the
        limit for one AP, over it for two, whose grids comp_ideal sums."""
        ExperimentConfig(scheme="comp_ideal", n_aps=1, ebn0_db=(-3036.0,))
        with pytest.raises(ValueError, match=r"point -3036.0 dB has no finite positive noise variance that keeps every squared distance finite at 2 APs"):
            ExperimentConfig(scheme="comp_ideal", n_aps=2, ebn0_db=(10.0, -3036.0))

    @pytest.mark.parametrize("modulation", ["QAM4", "Qam16"])
    def test_other_spelling_of_modulation_refused(self, modulation):
        """A second spelling used to build and write a second config_hash."""
        with pytest.raises(ValueError, match=r"expected one of \('qam4', 'qam16'\)"):
            ExperimentConfig(modulation=modulation, scheme="comp_ideal")

    @pytest.mark.parametrize(
        "fields",
        [dict(ebn0_db=10), dict(ebn0_db=[10.0]), dict(ebn0_db=(True,)), dict(ebn0_db=(10.0, "12")),
         dict(quantizer_clip=True), dict(quantizer_clip="8")],
        ids=["scalar-points", "list-points", "bool-point", "text-point", "bool-clip", "text-clip"],
    )
    def test_non_real_float_field_refused_by_name(self, fields):
        (name,) = fields
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            ExperimentConfig(scheme="comp_nonideal", **fields)

    def test_json_scalar_point_refused_by_name(self):
        """This used to raise TypeError: 'int' object is not iterable."""
        with pytest.raises(ValueError, match="^ebn0_db must be "):
            ExperimentConfig.from_json('{"ebn0_db": 10}')

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
        # one AP of t=2 rows cannot reach rank 4, so the build refuses n=1 and
        # the file is the table it used to write: every state a marker
        table = replace(build_selection_table(store, cat, n_aps=2), n_aps=1,
                        choice=np.zeros(len(store.states), dtype=np.int8), values=(None,))
        save_table(table, one_ap)
        cfg = ExperimentConfig(
            modulation="qam4", scheme="rbmas", catalog_path=paths["catalog"],
            store_path=paths["store"], table_path=one_ap, **FAST,
        )
        with pytest.raises(ValueError, match="disagree on n_aps: 1 vs 2"):
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

    def test_store_header_claiming_feasibility_refused(self, qam4_files, tmp_path):
        """A K=2 store of mined candidates only (one per state at t=2, so 66
        infeasible tuples), saved as certified for two APs with none: its
        header used to be trusted, and the sweep stopped mid-point with
        SelectionInfeasibleError.  Now neither the load nor the run gets
        past the header (a frame-time failure would not be a ValueError)."""
        from pnclab.search import load_store, mine_candidates

        cat, store, paths = qam4_files
        mined = replace(store, k_per_state=2, lists=tuple(r.entries[:2] for r in mine_candidates(cat, t=2)))
        assert (mined.certified_n, mined.infeasible) == (2, ())
        path = self._save_store(mined, tmp_path)
        with pytest.raises(ValueError, match="header lists 0 infeasible state tuples for n=2, the lists give 66"):
            load_store(path)
        cfg = ExperimentConfig(
            modulation="qam4", scheme="bmas", catalog_path=paths["catalog"], store_path=path, k_per_state=2, **FAST,
        )
        with pytest.raises(ValueError, match="infeasible"):
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
        with pytest.raises(ValueError, match=r"disagree at state tuple \(0, 1\): fallback vs "):
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
        with pytest.raises(ValueError, match=rf"disagree at state tuple \({tup[0]}, {tup[1]}\): {b:x} {a:x} vs "):
            list(run_experiment(cfg))

    def test_table_with_swapped_entry_refused(self, qam4_files, tmp_path):
        """Swapping an entry's two matrices where each state's list holds
        the other's keeps every matrix in its list and the stack invertible,
        so only the table the store builds tells the file is wrong."""
        from pnclab.search import load_table

        _, store, paths = qam4_files
        held = [{e.matrix.encoding for e in l} for l in store.lists]
        entries = load_table(paths["table"]).entries
        tup, (a, b) = next((tup, v) for tup, v in entries.items()
                           if v is not None and v[0] != v[1] and v[1] in held[tup[0]] and v[0] in held[tup[1]])
        cfg = ExperimentConfig(
            modulation="qam4", scheme="rbmas", catalog_path=paths["catalog"],
            store_path=paths["store"], table_path=self._edited_table(paths, tmp_path, tup, f"{b:x} {a:x}"), **FAST,
        )
        with pytest.raises(ValueError, match=rf"disagree at state tuple \({tup[0]}, {tup[1]}\): {b:x} {a:x} vs {a:x} {b:x}$"):
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
    """The CSV does not depend on how frames are grouped into back-end calls,
    nor on how a detector blocks a chunk's frames.

    At 120 uses and 2 APs a chunk holds 35 frames and a qam4 detector block
    18, so 40 frames run as chunks of 35 and 5, detected in blocks of 18,
    17 and 5.
    """

    @staticmethod
    def csv(fields):
        cfg = ExperimentConfig(modulation="qam4", frames_per_point=40, frame_len=120, rank_trials=10**4, seed=21, **fields)
        return results_csv_text(run_experiment(cfg))

    @pytest.mark.parametrize("name", sorted(CHUNKED))
    def test_csv_is_independent_of_chunking(self, name, monkeypatch):
        fields = CHUNKED[name]
        default = self.csv(fields)
        assert -(-sim._CHUNK_SAMPLES // (2 * 120)) == 35
        assert -(-link._GRID_ELEMENTS // (2 * 120 * 16)) == 18

        # engine chunks of one frame and of every frame, crossed with
        # detector blocks of one frame and of every frame
        for chunk in (1, 40 * 2 * 120):
            for block in (1, 40 * 2 * 120 * 16):
                monkeypatch.setattr(sim, "_CHUNK_SAMPLES", chunk)
                monkeypatch.setattr(link, "_GRID_ELEMENTS", block)
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


@pytest.mark.parametrize(
    "mod, n_aps, frame_len, frames, chunks",
    [("qam4", 2, 120, 80, [35, 35, 10]), ("qam16", 2, 120, 40, [35, 5]), ("qam16", 1, 300, 60, [28, 28, 4])],
)
def test_chunk_is_fewest_frames_reaching_chunk_samples(mod, n_aps, frame_len, frames, chunks, monkeypatch):
    """A chunk is the fewest whole frames that reach 2^13 received samples
    (frames x APs x uses), whatever the modulation: 35 frames at 2 APs x
    120 uses, 28 at 1 AP x 300."""
    seen = []
    back_end = sim._BACK_ENDS["comp_ideal"]

    def spy(ctx, noise_var, H, *rest):
        seen.append(len(H))
        return back_end(ctx, noise_var, H, *rest)

    monkeypatch.setitem(sim._BACK_ENDS, "comp_ideal", spy)
    cfg = ExperimentConfig(modulation=mod, scheme="comp_ideal", n_aps=n_aps, frames_per_point=frames, frame_len=frame_len)
    list(run_experiment(cfg))
    assert seen == chunks


# 50 frames run as chunks of 35 and 15; a chunk's frames are detected in
# blocks of 18 qam4 or 2 qam16 frames at 120 uses, and 1 qam16 frame at 300
@pytest.mark.parametrize(
    "mod, frame_len, scheme, blocks",
    [
        ("qam4", 120, "bmas", {18, 17, 15}),
        ("qam4", 120, "rbmas", {18, 17, 15}),
        ("qam4", 120, "comp_nonideal", {18, 17, 15}),
        ("qam16", 120, "comp_ideal", {2, 1}),
        ("qam16", 300, "comp_ideal", {1}),
        ("qam16", 300, "comp_nonideal", {1}),
    ],
)
def test_no_distance_grid_exceeds_its_bound(mod, frame_len, scheme, blocks, monkeypatch):
    """Every detector grid a run allocates (the correlation metric's, which
    replaced the distance grid) holds the fewest whole frames that reach 2^16
    elements, so without its last frame it is under 2^16; a qam16 frame at
    300 uses (153,600 elements) is a grid alone."""
    sizes = []
    correlations = link._correlations

    def spy(points, ys, *layout):
        grid = correlations(points, ys, *layout)
        sizes.append((grid.size, grid.size // len(ys)))
        return grid

    monkeypatch.setattr(link, "_correlations", spy)
    cfg = ExperimentConfig(modulation=mod, scheme=scheme, frames_per_point=50, frame_len=frame_len, pilot_len=4, rank_trials=10**4)
    list(run_experiment(cfg))
    assert sizes and all(size - frame < link._GRID_ELEMENTS for size, frame in sizes)
    assert {size // frame for size, frame in sizes} == blocks


def _noise_one_frame(rng, shape, noise_var):
    if noise_var == 0.0:
        return np.zeros(shape, dtype=complex)
    return math.sqrt(noise_var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _front_end_one_frame(ctx, noise_var, rng):
    """Oracle: the front end of one frame as it ran before the chunk call,
    link arithmetic inlined: two normal draws per complex array, the
    one-frame product and the one-frame pilot mean."""
    cfg, c = ctx.cfg, ctx.constellation
    shape = (cfg.n_aps, cfg.n_terminals)
    H = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    idx = rng.integers(0, c.size, size=(cfg.n_terminals, cfg.frame_len))
    y = H @ c.points[idx] + _noise_one_frame(rng, (cfg.n_aps, cfg.frame_len), noise_var)
    if cfg.pilot_len is None:
        return H, H, idx, y
    pilots = H[:, :, None] * link.PILOT_SYMBOL + _noise_one_frame(rng, (*shape, cfg.pilot_len), noise_var)
    return H, pilots.mean(axis=2) * np.conj(link.PILOT_SYMBOL) / abs(link.PILOT_SYMBOL) ** 2, idx, y


@pytest.mark.parametrize("frames", [1, 7])
@pytest.mark.parametrize("n_aps", [1, 2, 3])
@pytest.mark.parametrize("pilot_len", [None, 1, 4])
@pytest.mark.parametrize("mod", ["qam4", "qam16"])
def test_chunk_front_end_is_per_frame_bit_for_bit(mod, pilot_len, n_aps, frames):
    """One front-end call on a chunk's generators gives the per-frame
    oracle's arrays stacked, every float bit for bit."""
    cfg = ExperimentConfig(modulation=mod, scheme="comp_ideal", n_aps=n_aps, pilot_len=pilot_len, seed=17)
    ctx = sim._prepare(cfg)
    nv = link.noise_variance(6.0, ctx.constellation.bits_per_symbol)
    rngs, oracle_rngs = ([sim._frame_rng(cfg, 2, f) for f in range(frames)] for _ in range(2))
    H, H_hat, idx, y = sim._front_end(ctx, nv, rngs)
    want = [np.stack(a) for a in zip(*(_front_end_one_frame(ctx, nv, r) for r in oracle_rngs))]
    assert (H_hat is H) == (pilot_len is None)
    assert idx.shape == (frames, 2, cfg.frame_len) and np.array_equal(idx, want[2])
    for a, b in zip((H, H_hat, y), (want[0], want[1], want[3])):
        assert a.shape == b.shape and a.dtype == b.dtype == complex
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    # every stream was used as the oracle used it: the next draws agree
    assert [r.random() for r in rngs] == [r.random() for r in oracle_rngs]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["qam4", "qam16"]),
    st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 7, 120]),
)
def test_raw_bit_draw_is_the_integers_draw(mod, seed, point, frame_len):
    """The front end's data indices, one raw draw per frame after the
    channel draw, are what Generator.integers(0, size, (2, frame_len)) draws
    on a twin generator, and both streams are left at the same place: their
    next normal draws are equal."""
    m = BITS_PER_SYMBOL[mod]
    rngs, twins = ([sim._frame_rng(ExperimentConfig(seed=seed), point, f) for f in range(3)] for _ in range(2))
    for g in rngs + twins:
        g.standard_normal((2, 2, 2))
    got = sim._data_indices(rngs, 2, frame_len, m)
    want = np.stack([g.integers(0, 1 << m, (2, frame_len)) for g in twins])
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert all(np.array_equal(a.standard_normal(5), b.standard_normal(5)) for a, b in zip(rngs, twins))


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
        H, H_hat, idx, y = sim._front_end(ctx, nv, [sim._frame_rng(cfg, 0, f) for f in range(start, start + 15)])
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
