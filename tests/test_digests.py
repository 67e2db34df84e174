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
``comp_nonideal_llrs`` moved onto the max-shifted likelihood kernel.  The
qam16 ``rbmas`` case that reads its artifacts from files was recorded while
the selection table was still a dict.  Each pinned table also pins its
content, independent of the file format: the digest of its state-tuple
mapping, for the table as built and as loaded from its file, recorded
while tables were still saved one keyed line per tuple.  The table file
digests were re-recorded, and only they, when the file became the
``pnclab-table v2`` layout of indexed value-id rows; the content digests
held.  The catalog, store and table file digests were re-recorded, and
only they, when floats were first written losslessly (``pnclab-sfs-catalog
v2``, ``pnclab-store v2``, ``pnclab-table v3``, no ``eps=`` line); every
CSV and table content digest held.  The paper-scale catalog file digest
was re-recorded, and only it, when the catalog file stopped storing
partitions (``pnclab-sfs-catalog v3``); every other digest held.  Every
digest held when the detectors moved from the squared distance |p - y|^2
to the correlation metric 2 Re(p conj y) - |p|^2, whose L-values differ in
their last bits.  A change that alters any of them changes published numbers or files and
has to say so.
"""
import hashlib

import pytest

from pnclab.fade_states import build_catalog, save_catalog
from pnclab.search import build_selection_table, build_store, load_table, save_store, save_table
from pnclab.sim import ExperimentConfig, run_experiment

from oracles import results_csv_text

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


def test_csv_digest_loaded_artifacts(tmp_path, monkeypatch):
    """Byte identity of a qam16 ``rbmas`` sweep that reads its catalog,
    store and table from files.  The table saved is the one built in
    memory, as the bench's off-line build writes it; since floats are
    written losslessly, the table rebuilt from the loaded store is the same
    table (``test_rebuild_from_loaded_files_equals_build`` in
    test_search.py).  The paths are fixed and relative because
    ``config_hash`` covers them."""
    monkeypatch.chdir(tmp_path)
    cat = build_catalog("qam16", n_trials=10**4, rng_seed=0, n_principal=24)
    store = build_store(cat, t=4, k_per_state=5, n_aps=2)
    save_catalog(cat, "catalog")
    save_store(store, "store")
    save_table(build_selection_table(store, cat, 2), "table")
    cfg = ExperimentConfig(
        scheme="rbmas", ncv_len=4, ebn0_db=(14.0, 22.0), pilot_len=4,
        catalog_path="catalog", store_path="store", table_path="table", **SMALL16,
    )
    text = results_csv_text(run_experiment(cfg))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "be75d740cdfe0ff171b854015fed832cbe8f2c0293f9f800c0fbbfc8d0b24aeb"
    )


def content_digest(table):
    """sha256 of the table's values in the C order of its state tuples,
    whatever the value ids and the file layout."""
    mapping = [table.values[i] for i in table.choice.ravel().tolist()]
    return hashlib.sha256(repr(mapping).encode("ascii")).hexdigest()


def check_table(table, path, table_sha, content_sha):
    """The saved file's bytes, and the content of the table and of its load."""
    save_table(table, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == table_sha
    assert content_digest(table) == content_sha
    load_table(str(path)).check_equal(table)


ARTIFACT_CASES = {
    "qam16-psfs24": (
        ("qam16", dict(n_trials=10**4, rng_seed=0, n_principal=24), 4),
        "b5b26ac532bcc98a6df6ad1aaaed43a2b17712cf5bccd0bda4ee02d6c3860a64",
        "4eb546adeee7ec014d801091bb438d71dc6e14c87ab95f501605f2f403252bfd",
        "c881d64e6e810f6689be29a191e41359c4db602e8432328a4aa9aebc65cf8072",
    ),
    "qam4-full": (
        ("qam4", dict(n_trials=10**4, rng_seed=0), 2),
        "4f7447ed061a0b78a0c654815cd6467f46ffd8e8d1354e6ecfa2d7a94d556e11",
        "6b5112851531b364cf1d9a69bb10950ee8728e7892a4fe60506bfe4f115fea64",
        "0e596d53637a020347cafe940a2a69da432bb5d25951f72cc03066f00f4814c2",
    ),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_CASES))
def test_artifact_digest(name, tmp_path):
    """Byte identity of the certified store and the selection table (K=5,
    n=2), and the table's content."""
    (modulation, catalog_kw, t), store_sha, table_sha, content_sha = ARTIFACT_CASES[name]
    cat = build_catalog(modulation, **catalog_kw)
    store = build_store(cat, t=t, k_per_state=5, n_aps=2)
    save_store(store, tmp_path / "store")
    assert hashlib.sha256((tmp_path / "store").read_bytes()).hexdigest() == store_sha
    check_table(build_selection_table(store, cat, 2), tmp_path / "table", table_sha, content_sha)


# qam4 builds off the K=5 two-AP path: (build_store keywords, store sha256,
# table sha256, table content sha256)
BRANCH_CASES = {
    "n1-t4": (
        dict(t=4, k_per_state=5, n_aps=1),
        "a45d803f36e319bdd92c3e51c5cdfbf06e00d76cb730625173bdff048cf478c4",
        "800b4e4ac35ed2351d187ba6152e7e1e8bf3dc7b016cdc0ddc31f309e00b8300",
        "1daaa98b9c1bd6b8e269fb33b8fdce4f463de3ef75a921c1de1f97dd345cbd6d",
    ),
    "n3-t2": (
        dict(t=2, k_per_state=5, n_aps=3),
        "34dfbd2346c31465c4732c1b68de7f6229df6b7b277e975b08db3ae45e8eb9f9",
        "bfaff15b6a7574ef15c44df7c71054e5c6dd23c658306bcd0ecdc16b7acb3b80",
        "7f2a296f42b83e5ee699bfbe058afb96c2549bed958b6743bc53c9d36dde325f",
    ),
    "k1-infeasible": (
        dict(t=2, k_per_state=1, n_aps=2),
        "a1f1722bc881a6e69722c5df9091105436321781c242a7b6e0b228d34f2f97dd",
        "96edca5e40b012bebd8c3402e08f85da26f85efd7965bc2b88327eac177f7275",
        "b1e657ce127995428f771c71f0b66bb19fb3b3f99d4534ba5b7ffd17acbc9bdc",
    ),
}


@pytest.fixture(scope="module")
def qam4_catalog():
    return build_catalog("qam4", n_trials=10**4, rng_seed=0)


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_branch_artifact_digest(name, qam4_catalog, tmp_path):
    """Byte identity of the store and table where certification and the
    table build leave the two-AP K=5 path."""
    kw, store_sha, table_sha, content_sha = BRANCH_CASES[name]
    store = build_store(qam4_catalog, **kw)
    assert bool(store.infeasible) == (kw["k_per_state"] == 1)
    save_store(store, tmp_path / "store")
    assert hashlib.sha256((tmp_path / "store").read_bytes()).hexdigest() == store_sha
    table = build_selection_table(store, qam4_catalog, kw["n_aps"])
    assert (None in table.entries.values()) == bool(store.infeasible)
    check_table(table, tmp_path / "table", table_sha, content_sha)


def test_paper_scale_qam16_artifacts(tmp_path):
    """Byte identity of the paper-scale qam16 off-line build: the full
    390-entry catalog ranked over 10^6 trials, the t=4 K=5 store certified
    for two APs, and its 152,100-entry selection table."""
    cat = build_catalog("qam16", n_trials=10**6, rng_seed=0)
    store = build_store(cat, t=4, k_per_state=5, n_aps=2)
    table = build_selection_table(store, cat, 2)
    save_catalog(cat, tmp_path / "catalog")
    save_store(store, tmp_path / "store")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("catalog", "store")}
    assert digests == {
        "catalog": "d702772ec8465193cd90a482d17eba2938a87124042ba542eebd7faf37197936",
        "store": "e1c02dce87f80cfb01e0c7b8b8a6ade994e74fc3cb470bcc2709d99caae98e6a",
    }
    check_table(
        table, tmp_path / "table",
        "7b786b472400135a4af23a5a7bcc32a59a0589780e8ed1e22fe7e35cf7703a03",
        "3644b04053a07cc2130cbf0cbba52ee8acea5b4cabdde44e4f907e9a08bbc382",
    )
