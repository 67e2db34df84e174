import dataclasses
import itertools
import math

import numpy as np
import pytest

from pnclab import search
from pnclab.fade_states import build_catalog, enumerate_sfs, rank_principal_sfs, truncate_catalog
from pnclab.gf2 import BitMatrix, nullspace, rank_rows, span
from pnclab.link import draw_channel
from pnclab.mapping import difference_profiles, mapping_d_min, superimpose
from pnclab.modulation import make_constellation
from pnclab.search import (
    SelectionInfeasibleError,
    assemble_store,
    build_selection_table,
    build_store,
    certify_store,
    exhaustive_matrix_scan,
    load_store,
    load_table,
    mine_candidates,
    save_store,
    save_table,
    select_mappings,
    state_channel,
    table_lookup,
)


@pytest.fixture(scope="module")
def qam4():
    return make_constellation("qam4")


@pytest.fixture(scope="module")
def cat4(qam4):
    return rank_principal_sfs(enumerate_sfs(qam4), n_trials=10**5, rng_seed=0)


@pytest.fixture(scope="module")
def store4(cat4):
    return build_store(cat4, t=2, k_per_state=5, n_aps=2)


@pytest.fixture(scope="module")
def cat16():
    return build_catalog("qam16", n_trials=10**4, rng_seed=0, n_principal=24)


def _kernel_scores(kernel_basis, sc):
    """Oracle: (d_min, separated d_min) of the row space with this kernel.

    A difference splits two messages iff it lies outside the kernel span, so
    each score is the first profile entry off the span, in ascending order.
    """
    members = set(span(kernel_basis))
    scores = []
    for profile in difference_profiles(sc):
        order = np.argsort(profile, kind="stable")
        scores.append(next((float(profile[d]) for d in order if d not in members), math.inf))
    return tuple(scores)


class TestMining:
    def test_all_4qam_states_resolvable(self, cat4):
        rankings = mine_candidates(cat4, t=2)
        assert all(r.resolvable for r in rankings)
        for r in rankings:
            assert len(r.entries) >= 1
            assert all(e.clash_consistent and e.d_min > 0 for e in r.entries)

    def test_matches_exhaustive_scan(self, cat4, qam4):
        """Row-space mining agrees with the literal per-matrix scan."""
        rankings = mine_candidates(cat4, t=2)
        for entry, r in zip(cat4.entries, rankings):
            sc = superimpose(qam4, state_channel(entry.state))
            scan = exhaustive_matrix_scan(sc, entry.partition, t=2)
            consistent = [(m, d) for m, d, cc in scan if cc]
            # six bases of the single admissible row space, equal d_min
            assert len(consistent) == 6
            best_scan = max(d for _, d in consistent)
            assert r.entries[0].d_min == pytest.approx(best_scan, rel=1e-12)
            scan_space = frozenset(span(consistent[0][0].rows))
            assert frozenset(span(r.entries[0].matrix.rows)) == scan_space

    def test_rank_t_invariant(self, store4):
        for lst in store4.lists:
            for e in lst:
                assert rank_rows(e.matrix.rows) == store4.t

    @pytest.mark.parametrize(
        "cat_name, t", [("cat4", 2), ("cat4", 3), ("cat16", 4)], ids=["qam4-t2", "qam4-t3", "qam16-t4"]
    )
    def test_mined_scores_match_kernel_oracle(self, request, cat_name, t):
        cat = request.getfixturevalue(cat_name)
        c = make_constellation(cat.modulation)
        mu = 2 * c.bits_per_symbol
        for entry, r in zip(cat.entries, mine_candidates(cat, t)):
            sc = superimpose(c, state_channel(entry.state))
            assert r.entries
            for e in r.entries:
                kernel = nullspace(e.matrix.rows, mu)
                assert (e.d_min, e.separated_d_min) == _kernel_scores(kernel, sc)


class TestCertification:
    def test_store_certified_for_pairs(self, store4):
        assert store4.certified_n == 2
        assert store4.infeasible == ()

    def test_every_ordered_pair_has_invertible_stack(self, store4):
        n = len(store4.states)
        for a, b in itertools.product(range(n), repeat=2):
            ok = any(
                rank_rows(ma.rows + mb.rows) == store4.mu
                for ma in store4.matrices_for(a)
                for mb in store4.matrices_for(b)
            )
            assert ok, (a, b)

    def test_k1_store_reports_infeasible_tuples(self, cat4):
        rankings = mine_candidates(cat4, t=2, limit=1)
        store = certify_store(assemble_store(cat4, rankings, t=2, k_per_state=1), 2)
        # a single candidate per state cannot serve two APs in the same fade
        assert any(a == b for a, b in store.infeasible)

    def test_list_cap(self, store4):
        assert all(len(l) <= store4.k_per_state for l in store4.lists)


class TestOnlineSelection:
    def test_always_invertible(self, store4, cat4):
        rng = np.random.default_rng(11)
        for _ in range(300):
            sel = select_mappings(store4, cat4, draw_channel(rng))
            assert rank_rows(sel.global_matrix.rows) == store4.mu

    def test_deterministic(self, store4, cat4):
        rng = np.random.default_rng(12)
        H = draw_channel(rng)
        a = select_mappings(store4, cat4, H)
        b = select_mappings(store4, cat4, H)
        assert a == b

    def test_scale_invariance(self, store4, cat4):
        rng = np.random.default_rng(13)
        for _ in range(40):
            H = draw_channel(rng)
            a = complex(rng.standard_normal() + 1j * rng.standard_normal())
            if abs(a) < 1e-3:
                continue
            s1 = select_mappings(store4, cat4, H)
            s2 = select_mappings(store4, cat4, a * H)
            assert [m.encoding for m in s1.per_ap] == [m.encoding for m in s2.per_ap]

    def test_silent_terminal_at_one_ap(self, store4, cat4):
        # AP1 barely hears terminal 2, so its state is the zero ratio and
        # the other AP must cover terminal 2 for the stack to invert
        H = np.array([[1.0, 1e-9], [0.7 + 0.2j, 0.9 - 0.4j]])
        sel = select_mappings(store4, cat4, H)
        assert cat4.entries[sel.state_indices[0]].state.value == pytest.approx(0.0)
        assert rank_rows(sel.global_matrix.rows) == 4

    def test_same_state_at_both_aps(self, store4, cat4):
        v = cat4.entries[3].state.value
        H = np.array([[1.0, v * 1.001], [1.0, v * 0.999]])
        sel = select_mappings(store4, cat4, H)
        assert sel.state_indices[0] == sel.state_indices[1] == 3
        assert rank_rows(sel.global_matrix.rows) == 4


class TestSelectionTable:
    def test_25_entries_for_5_states(self, cat4):
        sub = truncate_catalog(cat4, 5)
        store = build_store(sub, t=2, k_per_state=5, n_aps=2)
        table = build_selection_table(store, sub, n_aps=2)
        assert len(table) == 25

    def test_exact_hits_match_online(self, store4, cat4):
        table = build_selection_table(store4, cat4, n_aps=2)
        for a, b in [(0, 1), (2, 5), (7, 7), (3, 12)]:
            H = np.array(
                [state_channel(store4.states[a]), state_channel(store4.states[b])]
            )
            looked = table_lookup(table, cat4, H)
            online = select_mappings(store4, cat4, H)
            assert [m.encoding for m in looked.per_ap] == [m.encoding for m in online.per_ap]

    def test_marker_raises_infeasible(self, store4, cat4):
        table = build_selection_table(store4, cat4, n_aps=2)
        patched = dataclasses.replace(table, entries={**table.entries, (0, 1): None})
        H = np.array([state_channel(store4.states[0]), state_channel(store4.states[1])])
        with pytest.raises(SelectionInfeasibleError):
            table_lookup(patched, cat4, H)

    def test_online_dominates_table(self, store4, cat4, qam4):
        """The table combo lives in the on-line search space."""
        table = build_selection_table(store4, cat4, n_aps=2)

        def worst_ap_d_min(sel, H):
            return min(mapping_d_min(m.rows, superimpose(qam4, tuple(h))) for m, h in zip(sel.per_ap, H))

        rng = np.random.default_rng(21)
        for _ in range(100):
            H = draw_channel(rng)
            online = select_mappings(store4, cat4, H)
            looked = table_lookup(table, cat4, H)
            assert worst_ap_d_min(online, H) >= worst_ap_d_min(looked, H) - 1e-12


class TestPersistence:
    def test_store_roundtrip(self, store4, tmp_path):
        path = str(tmp_path / "store.cat")
        save_store(store4, path)
        loaded = load_store(path)
        assert loaded.t == store4.t and loaded.mu == store4.mu
        assert loaded.certified_n == 2
        assert len(loaded.states) == len(store4.states)
        for la, lb in zip(loaded.lists, store4.lists):
            assert [e.matrix for e in la] == [e.matrix for e in lb]
            assert [e.d_min for e in la] == pytest.approx([e.d_min for e in lb], rel=1e-9)

    def test_store_load_rejects_rank_violation(self, store4, tmp_path):
        path = str(tmp_path / "store.cat")
        save_store(store4, path)
        text = open(path).read()
        good = store4.lists[0][0].matrix.to_text()
        bad = BitMatrix.zeros(2, 4).to_text()
        (tmp_path / "bad.cat").write_text(text.replace(good, bad))
        with pytest.raises(ValueError):
            load_store(str(tmp_path / "bad.cat"))

    def test_table_roundtrip(self, store4, cat4, tmp_path):
        table = build_selection_table(store4, cat4, n_aps=2)
        path = str(tmp_path / "table.tab")
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.entries == table.entries
        assert loaded.n_aps == 2

    def test_table_load_verifies_stacks(self, store4, cat4, tmp_path):
        table = build_selection_table(store4, cat4, n_aps=2)
        path = str(tmp_path / "table.tab")
        save_table(table, path)
        text = open(path).read()
        lines = text.splitlines()
        for i, ln in enumerate(lines):
            if " -> " in ln and "fallback" not in ln:
                key, _, val = ln.partition(" -> ")
                parts = val.split()
                lines[i] = f"{key} -> {parts[0]} {parts[0]}"  # repeated rows: singular
                break
        (tmp_path / "bad.tab").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_table(str(tmp_path / "bad.tab"))

    def test_table_entry_needs_one_matrix_per_ap(self, store4, cat4, tmp_path):
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("0,0 -> "))
        first = lines[at].split()[2]
        lines[at] += f" {first}"   # three encodings; the first two still stack to full rank
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="lists 3 matrices"):
            load_table(str(path))

    def test_store_with_legacy_d_alpha_line_loads(self, store4, tmp_path):
        path = tmp_path / "store.cat"
        save_store(store4, str(path))
        lines = path.read_text().splitlines()
        assert not any(ln.startswith("d_alpha=") for ln in lines)
        at = next(i for i, ln in enumerate(lines) if ln.startswith("eps="))
        lines.insert(at + 1, "d_alpha=0")   # the line older writers put after eps
        path.write_text("\n".join(lines) + "\n")
        loaded = load_store(str(path))
        assert loaded.states == store4.states
        assert [[e.matrix for e in l] for l in loaded.lists] == [[e.matrix for e in l] for l in store4.lists]

    def test_truncated_store_refused(self, store4, tmp_path):
        path = tmp_path / "store.cat"
        save_store(store4, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="states"):
            load_store(str(path))

    @pytest.mark.parametrize("cut", ["last_tuple", "last_state"])
    def test_truncated_table_refused(self, store4, cat4, tmp_path, cut):
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        lines = path.read_text().splitlines()
        if cut == "last_tuple":
            del lines[-1]
        else:
            del lines[max(i for i, ln in enumerate(lines) if ln.startswith("state "))]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_table(str(path))

    def test_table_keys_must_be_state_tuples(self, store4, cat4, tmp_path):
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        n = len(store4.states)
        text = path.read_text().replace(f"\n0,0 -> ", f"\n0,{n} -> ", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="state indices"):
            load_table(str(path))


def test_selection_infeasible_raises(cat4):
    rankings = mine_candidates(cat4, t=2, limit=1)
    store = certify_store(assemble_store(cat4, rankings, t=2, k_per_state=1), 2)
    assert store.infeasible
    a, b = next(iter(t for t in store.infeasible if t[0] == t[1]))
    v = store.states[a].value
    H = np.array([[1.0, v], [1.0, v]])
    with pytest.raises(SelectionInfeasibleError):
        select_mappings(store, cat4, H)


def test_rank_checks_are_memoized(cat16, monkeypatch, tmp_path):
    """Certification, table building and table loading share one verdict
    per distinct stack: at most (distinct matrices)^2 rank computations."""
    cat = cat16
    store = assemble_store(cat, mine_candidates(cat, t=4, limit=5), t=4, k_per_state=5)
    distinct = len({e.matrix for l in store.lists for e in l})
    calls = []

    def counting_rank_rows(rows):
        calls.append(1)
        return rank_rows(rows)

    monkeypatch.setattr(search, "rank_rows", counting_rank_rows)
    store = certify_store(store, 2)
    table = build_selection_table(store, cat, n_aps=2)
    built = len(calls)
    assert 0 < built <= distinct**2

    path = tmp_path / "table.tab"
    save_table(table, str(path))
    assert load_table(str(path)).entries == table.entries
    assert len(calls) == built

    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if " -> " in ln and "fallback" not in ln)
    key, _, val = lines[at].partition(" -> ")
    lines[at] = f"{key} -> {val.split()[0]} {val.split()[0]}"   # repeated rows: singular
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="singular"):
        load_table(str(path))
