"""Byte identity of the CSV for small fixed configs that cover every frame
back end and its branches (pilots or perfect CSI, sum or max-log
detection, one or two APs, qam4 or qam16), and of the off-line artifacts
(certified store, selection table) for two small builds and the
paper-scale qam16 build, plus the qam4 stores and tables that take
certification's other branches (one AP, three APs, a K=1 store with
infeasible tuples and a table with markers).

The first four CSV digests were recorded before the frame engine was
restructured and before selection memoized its rank checks, the other
five with the per-frame engine, before frames ran in chunks, and the last
two (high-SNR ``comp_nonideal``) with the ``np.logaddexp`` LLRs, before
``comp_nonideal_llrs`` moved onto the max-shifted likelihood kernel; a
change that alters any of them changes published numbers or files and has
to say so.
"""
import hashlib

import pytest

from pnclab.fade_states import build_catalog, save_catalog
from pnclab.search import build_selection_table, build_store, save_store, save_table
from pnclab.sim import ExperimentConfig, results_csv_text, run_experiment

SMALL = dict(modulation="qam4", frames_per_point=60, frame_len=24, rank_trials=10**4, seed=11)
SMALL16 = {**SMALL, "modulation": "qam16", "frames_per_point": 20}

CASES = {
    "bmas-pilots": (
        ExperimentConfig(scheme="bmas", ebn0_db=(8.0, 14.0), pilot_len=4, **SMALL),
        "12f002c38e11da7f7ec8e00057ec68fa967afd14526eb2f9aa56feecdadd0d42",
    ),
    "rbmas-in-memory": (
        ExperimentConfig(scheme="rbmas", ebn0_db=(12.0,), **SMALL),
        "2c56300a6d51cfc1d9f9e79b74d7a2e1d632053ea89e11efab9eca39c7e9026a",
    ),
    "comp-ideal": (
        ExperimentConfig(scheme="comp_ideal", ebn0_db=(10.0,), pilot_len=4, **SMALL),
        "e89dc3cf60a7dba965b5ae822a8186e790299f330a3cf891e9fe592794e92214",
    ),
    "comp-nonideal-qam16": (
        ExperimentConfig(
            scheme="comp_nonideal", ebn0_db=(20.0,), quantizer_bits=4,
            **{**SMALL, "modulation": "qam16", "frames_per_point": 20},
        ),
        "f54a15f6532daf66104741761e039e1c68661220f004b615bb3e8e32a89f6c5e",
    ),
    "bmas-perfect-maxlog": (
        ExperimentConfig(scheme="bmas", ebn0_db=(6.0, 10.0), max_log_detection=True, **SMALL),
        "11be85e1377382ea4e6efa2ccbd4b6bade23b9d6349a013288795fffa7e996c8",
    ),
    "bmas-one-ap": (
        ExperimentConfig(scheme="bmas", n_aps=1, ncv_len=4, ebn0_db=(8.0, 12.0), pilot_len=4, **SMALL),
        "262029a3fa67b41b2167ad6896c8c11f1a2a38fb81e9312da5b89d5d313701f9",
    ),
    "bmas-qam16-psfs24": (
        ExperimentConfig(scheme="bmas", n_principal=24, ncv_len=4, ebn0_db=(22.0,), pilot_len=4, **SMALL16),
        "efbaaa22d74b0df9c459c7a85383a75151110d2fc8a7fb7bfe6f250e5c2a7059",
    ),
    "comp-ideal-qam16": (
        ExperimentConfig(scheme="comp_ideal", ebn0_db=(12.0, 16.0), pilot_len=4, **SMALL16),
        "ea2bef092bbc196b58e199b0a76a721ddac49ee87f6c3bebd45a63ec53b803e7",
    ),
    "comp-nonideal-qam4": (
        ExperimentConfig(scheme="comp_nonideal", ebn0_db=(8.0,), pilot_len=4, **SMALL),
        "f16129655424b2f9bc978ff89f036dcf25889334102fa4e98dc39fec5bb82ac8",
    ),
    # L-values of one bit class underflow entirely here, so the likelihood
    # kernel gives +-inf and the quantizer must saturate them
    "comp-nonideal-qam16-26db": (
        ExperimentConfig(scheme="comp_nonideal", ebn0_db=(26.0,), quantizer_bits=2, pilot_len=4, **SMALL16),
        "e697ddc428b3c093bf412883e117b81d29f5381641a39e35e465b9f28bf62ac6",
    ),
    "comp-nonideal-qam4-30db": (
        ExperimentConfig(scheme="comp_nonideal", ebn0_db=(30.0,), pilot_len=4, **SMALL),
        "d88012dfba43bcd6e2b9addc7116830fcf7b28ecb44deb094ad9c9ffbb02f61e",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digest(name):
    cfg, expected = CASES[name]
    text = results_csv_text(run_experiment(cfg))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == expected


ARTIFACT_CASES = {
    "qam16-psfs24": (
        ("qam16", dict(n_trials=10**4, rng_seed=0, n_principal=24), 4),
        "dec6d6c90e58cb46cf9fcc10967df3979788d2ec06333d2730e8d6b2cfe136bc",
        "b0790c595dd5158e140ae6a966c3a6317bd2c2b796ce40ab9bc7713513f8ba1f",
    ),
    "qam4-full": (
        ("qam4", dict(n_trials=10**4, rng_seed=0), 2),
        "ddfd92a5e982d6dacc84ca1196c4e9df1bae49b0e8145bfd7091f6128a16cdea",
        "5572edf7fd288ca437b1f54a71686c22a29bd680468a39d00e22ab339cf6ef16",
    ),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_CASES))
def test_artifact_digest(name, tmp_path):
    """Byte identity of the certified store and the selection table (K=5, n=2)."""
    (modulation, catalog_kw, t), store_sha, table_sha = ARTIFACT_CASES[name]
    cat = build_catalog(modulation, **catalog_kw)
    store = build_store(cat, t=t, k_per_state=5, n_aps=2)
    save_store(store, tmp_path / "store")
    save_table(build_selection_table(store, cat, 2), tmp_path / "table")
    assert hashlib.sha256((tmp_path / "store").read_bytes()).hexdigest() == store_sha
    assert hashlib.sha256((tmp_path / "table").read_bytes()).hexdigest() == table_sha


# qam4 builds off the K=5 two-AP path: (build_store keywords, store sha256,
# table sha256)
BRANCH_CASES = {
    "n1-t4": (
        dict(t=4, k_per_state=5, n_aps=1),
        "450cbac35b6f39f2015bcbe810f15ff7a42cf196bdd2bd18865697f405707a58",
        "013789da69955f9c0eb15f507ea26ef9d838f4cc17b13dd750a91df5d7a5b317",
    ),
    "n3-t2": (
        dict(t=2, k_per_state=5, n_aps=3),
        "d4ce966761839e3402520b069da9f38ff270c116d9ce02163276294ed49f89b8",
        "2a95e8105406f90b34882c92146bea95f0858b7f96ec424241acfa8a6885a70d",
    ),
    "k1-infeasible": (
        dict(t=2, k_per_state=1, n_aps=2),
        "8f5f9d00ce30035414415f9e11305d140c7154df362e959fd062fc7cf747013a",
        "913b90da5ab3cb197989da21d409ca8e8208fdaaff564169f7996650a9e7cdb4",
    ),
}


@pytest.fixture(scope="module")
def qam4_catalog():
    return build_catalog("qam4", n_trials=10**4, rng_seed=0)


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_branch_artifact_digest(name, qam4_catalog, tmp_path):
    """Byte identity of the store and table where certification and the
    table build leave the two-AP K=5 path."""
    kw, store_sha, table_sha = BRANCH_CASES[name]
    store = build_store(qam4_catalog, **kw)
    assert bool(store.infeasible) == (kw["k_per_state"] == 1)
    save_store(store, tmp_path / "store")
    assert hashlib.sha256((tmp_path / "store").read_bytes()).hexdigest() == store_sha
    table = build_selection_table(store, qam4_catalog, kw["n_aps"])
    assert (None in table.entries.values()) == bool(store.infeasible)
    save_table(table, tmp_path / "table")
    assert hashlib.sha256((tmp_path / "table").read_bytes()).hexdigest() == table_sha


def test_paper_scale_qam16_artifacts(tmp_path):
    """Byte identity of the paper-scale qam16 off-line build: the full
    390-entry catalog ranked over 10^6 trials, the t=4 K=5 store certified
    for two APs, and its 152,100-entry selection table."""
    cat = build_catalog("qam16", n_trials=10**6, rng_seed=0)
    store = build_store(cat, t=4, k_per_state=5, n_aps=2)
    table = build_selection_table(store, cat, 2)
    save_catalog(cat, tmp_path / "catalog")
    save_store(store, tmp_path / "store")
    save_table(table, tmp_path / "table")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("catalog", "store", "table")}
    assert digests == {
        "catalog": "ea8b49b6a9ce815430e729968c2c8964fe1fc0e59ac3b8694ed8a7d71b16cdc9",
        "store": "43ee04f231249f402fdbaf64842bacfc30512f5e5da919427329d126ec42d09e",
        "table": "2ee2ef1049c0f2da9423f9adbfdf3bbb7ce5bb8e9e3489069337e6c0304296b1",
    }
