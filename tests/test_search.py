import collections
import dataclasses
import functools
import itertools
import math
import operator
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab import search, sim
from pnclab.fade_states import (
    FadeState,
    build_catalog,
    enumerate_sfs,
    load_catalog,
    nearest_sfs,
    rank_principal_sfs,
    save_catalog,
    truncate_catalog,
)
from pnclab.gf2 import BitMatrix, enumerate_subspaces, nullspace, rank_rows, rref_rows, span
from pnclab.link import draw_channel
from pnclab.mapping import clash_difference_basis, difference_profiles, mapping_d_min, superimpose
from pnclab.modulation import make_constellation
from pnclab.search import (
    CandidateEntry,
    SelectionInfeasibleError,
    assemble_store,
    build_selection_table,
    build_store,
    certify_store,
    load_store,
    load_table,
    mine_candidates,
    save_store,
    save_table,
    select_mappings,
    state_channel,
    table_lookup,
)

from oracles import exhaustive_matrix_scan


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


def _kernel_scores(kernel_basis, sc, clash):
    """Oracle: (d_min, separated d_min) of the row space with this kernel,
    the second leaving out pairs within a block of ``clash``.

    A difference splits two messages iff it lies outside the kernel span, so
    each score is the first profile entry off the span, in ascending order.
    """
    members = set(span(kernel_basis))
    scores = []
    for profile in (difference_profiles(sc), difference_profiles(sc, clash)):
        order = np.argsort(profile, kind="stable")
        scores.append(next((float(profile[d]) for d in order if d not in members), math.inf))
    return tuple(scores)


def _kernel_mine(cat, t, limit):
    """Oracle: the miner that enumerated kernels and reduced each one.

    A resolvable state's kernels are D + E, E running over the subspaces of
    a standard-vector complement of D; an unresolvable state's kernels are
    the (mu - t)-dim subspaces of D.  Every candidate is the RREF of its
    kernel's nullspace, scored one ``mapping_d_min`` call at a time.
    Returns (resolvable, [(matrix, d_min, separated_d_min)]) per state.
    """
    c = make_constellation(cat.modulation)
    m = c.bits_per_symbol
    mu = 2 * m
    out = []
    for entry in cat.entries:
        sc = superimpose(c, state_channel(entry.state))
        d_basis = clash_difference_basis(entry.partition, m)
        kernel_dim = mu - t
        resolvable = len(d_basis) <= kernel_dim
        if resolvable:
            pivots = rref_rows(d_basis, mu)[1]
            comp = tuple(1 << col for col in range(mu) if col not in pivots)
            kernels = [d_basis + tuple(e) for e in enumerate_subspaces(comp, kernel_dim - len(d_basis)).tolist()]
        else:
            kernels = enumerate_subspaces(d_basis, kernel_dim).tolist()
        scored = []
        for kb in kernels:
            rows = rref_rows(nullspace(kb, mu), mu)[0]
            scored.append(
                (BitMatrix.from_row_ints(rows, mu), mapping_d_min(rows, sc), mapping_d_min(rows, sc, clash=entry.partition))
            )
        scored.sort(key=lambda e: (-e[1], -e[2], e[0].encoding))
        out.append((resolvable, scored[:limit]))
    return out


class TestMining:
    @pytest.mark.parametrize("limit", [None, 1, 5])
    @pytest.mark.parametrize(
        "cat_name, t",
        [("cat4", 2), ("cat4", 3), ("cat4", 4), ("cat16", 4), ("cat16", 5)],
        ids=["qam4-t2", "qam4-t3", "qam4-t4", "qam16-t4", "qam16-t5"],
    )
    def test_matches_kernel_miner(self, request, cat_name, t, limit):
        """Row spaces enumerated directly, scored in batches and reduced
        only when they can reach the cut: the same ranked lists."""
        cat = request.getfixturevalue(cat_name)
        for r, (resolvable, want) in zip(mine_candidates(cat, t, limit=limit), _kernel_mine(cat, t, limit)):
            assert r.resolvable == resolvable
            assert all(e.clash_consistent == resolvable for e in r.entries)
            assert [(e.matrix, e.d_min, e.separated_d_min) for e in r.entries] == want


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
                assert (e.d_min, e.separated_d_min) == _kernel_scores(kernel, sc, entry.partition)


class TestCertification:
    def test_store_certified_for_pairs(self, store4):
        assert store4.certified_n == 2
        assert store4.infeasible == ()

    def test_every_ordered_pair_has_invertible_stack(self, store4):
        n = len(store4.states)
        for a, b in itertools.product(range(n), repeat=2):
            ok = any(
                rank_rows(ma.rows + mb.rows) == store4.mu
                for ma in (e.matrix for e in store4.lists[a])
                for mb in (e.matrix for e in store4.lists[b])
            )
            assert ok, (a, b)

    def test_k1_store_reports_infeasible_tuples(self, cat4):
        rankings = mine_candidates(cat4, t=2, limit=1)
        store = certify_store(assemble_store(cat4, rankings, t=2, k_per_state=1), 2)
        # a single candidate per state cannot serve two APs in the same fade
        assert any(a == b for a, b in store.infeasible)

    def test_list_cap(self, store4):
        assert all(len(l) <= store4.k_per_state for l in store4.lists)

    @pytest.mark.parametrize(
        "cat_name, t, k, n",
        [
            ("cat4", 2, 5, 2),
            ("cat4", 3, 5, 2),
            ("cat4", 4, 5, 2),
            ("cat4", 4, 5, 1),
            ("cat4", 2, 1, 2),
            ("cat4", 3, 1, 3),
            ("cat4", 2, 3, 3),
            ("cat16", 4, 5, 2),
        ],
    )
    def test_matches_pair_loop(self, request, cat_name, t, k, n):
        cat = request.getfixturevalue(cat_name)
        store = assemble_store(cat, mine_candidates(cat, t=t, limit=k), t=t, k_per_state=k)
        got = certify_store(store, n)
        assert got.lists == store.lists
        assert got.infeasible == pair_loop_certify(store, n)
        assert got.certified_n == n
        if k == 1:
            assert got.infeasible

    def test_certificate_describes_the_lists(self, store4):
        """Certification keeps every entry, so re-certifying its store, or
        building its table, finds the tuples it reports.  A two-AP pruning
        test used to drop span{e0 + e2, e1 + e3} at state 1, which no pair
        of entries needs but three APs do: the store reported 12 infeasible
        tuples and its lists had 15, (1, 1, 3) and its two rotations more."""
        def entry(*rows):
            return CandidateEntry(BitMatrix.from_row_ints(rows, 4), 1.0, True, 1.0)

        rows = [[(1, 4)], [(2, 8), (5, 10)], [(3, 12), (1, 10)], [(10, 4)]]
        lists = tuple(tuple(entry(*r) for r in l) for l in rows)
        got = certify_store(dataclasses.replace(store4, states=store4.states[:4], lists=lists), 3)
        assert got.lists == lists
        assert len(got.infeasible) == 12
        assert certify_store(got, 3).infeasible == got.infeasible
        assert build_selection_table(got, n_aps=3).markers == 12


def pair_loop_certify(store, n_aps):
    """Oracle: certification one tuple at a time.  Returns the tuples with
    no full-rank combination of their states' matrices, in lexicographic
    order."""
    encodings = [tuple(e.matrix.encoding for e in l) for l in store.lists]
    return tuple(
        tup
        for tup in itertools.product(range(len(store.states)), repeat=n_aps)
        if not any(
            _stacks_full_rank(combo, store.t, store.mu) for combo in itertools.product(*(encodings[i] for i in tup))
        )
    )


def _stacked_verdicts(store, n):
    """Oracle: ``_full_rank(n)`` by one ``rank_rows`` call per combination
    of distinct encodings, over stacked ``BitMatrix.from_encoding`` rows."""
    distinct = sorted({e.matrix.encoding for l in store.lists for e in l})
    want = np.zeros((len(distinct) + 1,) * n, dtype=bool)
    for combo in itertools.product(range(len(distinct)), repeat=n):
        rows = [r for c in combo for r in BitMatrix.from_encoding(distinct[c], store.t, store.mu).rows]
        want[combo] = rank_rows(rows) == store.mu
    return want


class TestVerdicts:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "cat_name, t", [("cat4", 2), ("cat4", 3), ("cat16", 4)], ids=["qam4-t2", "qam4-t3", "qam16-t4"]
    )
    def test_match_stacked_rank(self, request, cat_name, t, n, monkeypatch):
        """The verdicts equal the ordered walk's, from one rank_rows call per
        unordered combination of the u distinct encodings, C(u + n - 1, n)."""
        cat = request.getfixturevalue(cat_name)
        store = assemble_store(cat, mine_candidates(cat, t=t, limit=5), t=t, k_per_state=5)
        calls = []
        monkeypatch.setattr(search, "rank_rows", lambda rows: calls.append(rows) or rank_rows(rows))
        got = store._full_rank(n)
        monkeypatch.undo()
        assert np.array_equal(got, _stacked_verdicts(store, n))
        assert len(calls) == math.comb(len(store._arrays[0]) + n - 1, n)

    @pytest.mark.parametrize("cat_name, t", [("cat4", 2), ("cat16", 4)], ids=["qam4-t2", "qam16-t4"])
    def test_certified_store_takes_verdicts_when_no_encoding_is_pruned(self, request, cat_name, t):
        """Certification prunes nothing, so the certified store shares the
        store's verdicts."""
        cat = request.getfixturevalue(cat_name)
        store = assemble_store(cat, mine_candidates(cat, t=t, limit=5), t=t, k_per_state=5)
        got = certify_store(store, 2)
        assert got._arrays[0] == store._arrays[0]
        assert got._verdicts[2] is store._verdicts[2]
        assert np.array_equal(got._full_rank(2), _stacked_verdicts(got, 2))

    def test_certified_store_does_not_rebuild_arrays(self, cat4, monkeypatch):
        """The certified store carries the store's arrays over, as it does
        the verdicts, so a run's selection and table build read them without
        building them again (4.9 ms on the qam16 K=5 store)."""
        builds = []
        build = search.CandidateStore._arrays.func
        monkeypatch.setattr(search.CandidateStore._arrays, "func", lambda store: builds.append(1) or build(store))
        store = assemble_store(cat4, mine_candidates(cat4, t=2, limit=5), t=2, k_per_state=5)
        got = certify_store(certify_store(store, 2), 2)
        assert got._arrays is store._arrays and len(builds) == 1


class TestOnlineSelection:
    def test_always_invertible(self, store4, cat4):
        rng = np.random.default_rng(11)
        for _ in range(300):
            sel = select_mappings(store4, cat4, draw_channel([rng]))
            assert rank_rows(sel.rows[0].ravel().tolist()) == store4.mu

    def test_deterministic(self, store4, cat4):
        rng = np.random.default_rng(12)
        H = draw_channel([rng])
        a = select_mappings(store4, cat4, H)
        b = select_mappings(store4, cat4, H)
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.state_indices, b.state_indices)

    def test_scale_invariance(self, store4, cat4):
        rng = np.random.default_rng(13)
        for _ in range(40):
            H = draw_channel([rng])
            a = complex(rng.standard_normal() + 1j * rng.standard_normal())
            if abs(a) < 1e-3:
                continue
            s1 = select_mappings(store4, cat4, H)
            s2 = select_mappings(store4, cat4, a * H)
            assert np.array_equal(s1.rows, s2.rows)

    def test_silent_terminal_at_one_ap(self, store4, cat4):
        # AP1 barely hears terminal 2, so its state is the zero ratio and
        # the other AP must cover terminal 2 for the stack to invert
        H = np.array([[[1.0, 1e-9], [0.7 + 0.2j, 0.9 - 0.4j]]])
        sel = select_mappings(store4, cat4, H)
        assert cat4.entries[sel.state_indices[0, 0]].state.value == pytest.approx(0.0)
        assert rank_rows(sel.rows[0].ravel().tolist()) == 4

    def test_same_state_at_both_aps(self, store4, cat4):
        v = cat4.entries[3].state.value
        H = np.array([[[1.0, v * 1.001], [1.0, v * 0.999]]])
        sel = select_mappings(store4, cat4, H)
        assert sel.state_indices[0].tolist() == [3, 3]
        assert rank_rows(sel.rows[0].ravel().tolist()) == 4

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 3), (2,), (1, 2, 2, 2)])
    def test_channels_not_a_frame_stack_refused(self, store4, cat4, shape):
        """A channel array that is not (frames, APs, 2), such as one frame's
        (APs, 2), is refused by name, not failed on inside the search."""
        with pytest.raises(ValueError, match=re.escape(f"(frames, APs, 2), not {shape}")):
            select_mappings(store4, cat4, np.ones(shape, dtype=complex))


class TestSelectionTable:
    def test_25_entries_for_5_states(self, cat4):
        sub = truncate_catalog(cat4, 5)
        store = build_store(sub, t=2, k_per_state=5, n_aps=2)
        table = build_selection_table(store, sub, n_aps=2)
        assert len(table) == 25

    @pytest.mark.parametrize("n_aps", [0, 1])
    def test_too_few_aps_for_rank_refused(self, store4, cat4, n_aps):
        """n APs of t = 2 rows cannot stack to rank 4 for n < 2: the table
        build refuses them with certification's message, where it used to
        fail on a reshape (n = 0) or return a table of markers (n = 1)."""
        for build in (certify_store, build_selection_table):
            with pytest.raises(ValueError, match=f"^{n_aps} APs of 2 rows cannot reach rank 4$"):
                build(store4, n_aps=n_aps)

    def test_exact_hits_match_online(self, store4, cat4):
        table = build_selection_table(store4, cat4, n_aps=2)
        for a, b in [(0, 1), (2, 5), (7, 7), (3, 12)]:
            H = np.array(
                [[state_channel(store4.states[a]), state_channel(store4.states[b])]]
            )
            looked = table_lookup(table, cat4, H)
            online = select_mappings(store4, cat4, H)
            assert np.array_equal(looked.rows, online.rows)

    def test_marker_raises_infeasible(self, store4, cat4):
        table = build_selection_table(store4, cat4, n_aps=2)
        choice = table.choice.astype(np.intp)
        choice[0, 1] = len(table.values)
        patched = dataclasses.replace(table, choice=choice, values=table.values + (None,))
        H = np.array([[state_channel(store4.states[0]), state_channel(store4.states[1])]])
        with pytest.raises(SelectionInfeasibleError):
            table_lookup(patched, cat4, H)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 1, 2), (4, 3, 2), (4, 2, 3)])
    def test_lookup_channels_not_a_frame_stack_refused(self, store4, cat4, shape):
        """A channel array that is not (frames, n, 2) for the table's n APs,
        such as one frame's (APs, 2), is refused by name."""
        table = build_selection_table(store4, cat4, n_aps=2)
        with pytest.raises(ValueError, match=re.escape(f"(frames, 2, 2), not {shape}")):
            table_lookup(table, cat4, np.ones(shape, dtype=complex))

    def test_online_dominates_table(self, store4, cat4, qam4):
        """The table combo lives in the on-line search space."""
        table = build_selection_table(store4, cat4, n_aps=2)

        def worst_ap_d_min(sel, H):
            return mapping_d_min(sel.rows, superimpose(qam4, H)).min()

        rng = np.random.default_rng(21)
        for _ in range(100):
            H = draw_channel([rng])
            online = select_mappings(store4, cat4, H)
            looked = table_lookup(table, cat4, H)
            assert worst_ap_d_min(online, H) >= worst_ap_d_min(looked, H) - 1e-12


@functools.cache
def _stacks_full_rank(encodings, t, mu):
    """Oracle: whether the t x mu matrices with these encodings stack to rank mu."""
    return rank_rows([r for e in encodings for r in BitMatrix.from_encoding(e, t, mu).rows]) == mu


def _pick_best(encodings, d_values, t, mu):
    """Oracle: the lexicographic best over candidate combinations with a
    full-rank stack, one combination at a time.

    ``encodings[j]`` lists AP j's candidate matrices by encoding.  Maximizes
    the worst per-AP distance, then the sum, then breaks ties by the lowest
    tuple of matrix encodings.  Returns the chosen index per AP, or None.
    """
    best = None
    best_key = None
    for combo in itertools.product(*(range(len(l)) for l in encodings)):
        encs = tuple(map(operator.getitem, encodings, combo))
        if not _stacks_full_rank(encs, t, mu):
            continue
        ds = tuple(map(operator.getitem, d_values, combo))
        key = (-min(ds), -sum(ds), encs)
        if best_key is None or key < best_key:
            best_key = key
            best = combo
    return best


def _tuplewise_entries(store, n_aps):
    """Oracle: ``_pick_best`` called once per ordered state tuple."""
    encodings = [tuple(e.matrix.encoding for e in l) for l in store.lists]
    d_values = [tuple(e.d_min for e in l) for l in store.lists]
    out = {}
    for tup in itertools.product(range(len(store.states)), repeat=n_aps):
        encs = tuple(encodings[i] for i in tup)
        combo = _pick_best(encs, tuple(d_values[i] for i in tup), store.t, store.mu)
        out[tup] = None if combo is None else tuple(map(operator.getitem, encs, combo))
    return out


@pytest.fixture(scope="module")
def store16(cat16):
    return build_store(cat16, t=4, k_per_state=5, n_aps=2)


def _short_lists(store):
    """Lists cut to 1, 2, ... entries in turn: some tuples lose every
    full-rank combination."""
    return dataclasses.replace(store, lists=tuple(l[: 1 + i % len(l)] for i, l in enumerate(store.lists)))


def _flat_distances(store):
    """Every distance equal: the choice falls to the encoding tie-break."""
    lists = tuple(tuple(dataclasses.replace(e, d_min=1.0) for e in l) for l in store.lists)
    return dataclasses.replace(store, lists=lists)


class TestPairTable:
    """The array table build against ``_pick_best`` per tuple."""

    @pytest.mark.parametrize("variant", [None, _short_lists, _flat_distances], ids=["as-built", "short", "flat"])
    @pytest.mark.parametrize("store_name", ["store4", "store16"])
    def test_matches_pick_best(self, request, store_name, variant):
        store = request.getfixturevalue(store_name)
        if variant is not None:
            store = variant(store)
        entries = build_selection_table(store, n_aps=2).entries
        assert entries == _tuplewise_entries(store, 2)
        assert list(entries) == list(itertools.product(range(len(store.states)), repeat=2))
        if variant is _short_lists:
            assert None in entries.values()

    def test_matches_pick_best_with_markers(self, cat4):
        """A K=1 store certified with infeasible tuples."""
        store = certify_store(assemble_store(cat4, mine_candidates(cat4, t=2, limit=1), t=2, k_per_state=1), 2)
        entries = build_selection_table(store, n_aps=2).entries
        assert [t for t, v in entries.items() if v is None] == sorted(store.infeasible)
        assert entries == _tuplewise_entries(store, 2)

    @pytest.mark.parametrize("n, t, n_states", [(1, 4, 14), (3, 2, 4)], ids=["n1", "n3"])
    def test_other_ap_counts_match_pick_best(self, cat4, n, t, n_states):
        """One AP at t=4 over every state, three APs at t=2 over four."""
        sub = truncate_catalog(cat4, n_states)
        store = certify_store(assemble_store(sub, mine_candidates(sub, t=t, limit=3), t=t, k_per_state=3), n)
        entries = build_selection_table(store, n_aps=n).entries
        assert entries == _tuplewise_entries(store, n)
        assert list(entries) == list(itertools.product(range(len(store.states)), repeat=n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_store_of_no_states_gives_empty_table(self, store4, n):
        # one AP needs t = mu rows to reach rank mu
        empty = dataclasses.replace(store4, states=(), lists=(), t=store4.mu if n == 1 else store4.t)
        assert build_selection_table(empty, n_aps=n).entries == {}


def _coordinate_entry(cols, sc, clash):
    """Oracle: the row space spanned by standard vectors on ``cols``,
    scored at ``sc`` and its state's ``clash`` by one-matrix
    ``mapping_d_min`` calls."""
    rows = tuple(1 << c for c in cols)
    d = mapping_d_min(rows, sc)
    return CandidateEntry(BitMatrix.from_row_ints(rows, sc.mu), d, d > 0, mapping_d_min(rows, sc, clash=clash))


def _assemble_oracle(cat, rankings, t, k_per_state):
    """Oracle: the assembly loop that scored the two extractors itself, at a
    constellation it superimposed for each state.  Returns the lists."""
    c = make_constellation(cat.modulation)
    mu = 2 * c.bits_per_symbol
    lists = []
    for r, entry in zip(rankings, cat.entries):
        chosen = list(r.entries[: max(0, k_per_state - 2)])
        have = {e.matrix for e in chosen}
        if k_per_state >= 2:
            sc = superimpose(c, state_channel(entry.state))
            for cols in (tuple(range(t)), tuple(range(mu - t, mu))):
                cand = _coordinate_entry(cols, sc, entry.partition)
                if cand.matrix not in have and len(chosen) < k_per_state:
                    chosen.append(cand)
                    have.add(cand.matrix)
        for e in r.entries[max(0, k_per_state - 2):]:
            if len(chosen) >= k_per_state:
                break
            if e.matrix not in have:
                chosen.append(e)
                have.add(e.matrix)
        lists.append(tuple(chosen))
    return tuple(lists)


class TestAssembly:
    @pytest.mark.parametrize(
        "cat_name, t, k",
        [("cat4", t, k) for t in (2, 3, 4) for k in (1, 2, 3, 4, 5)] + [("cat16", 4, 2), ("cat16", 4, 5)],
    )
    def test_matches_scoring_loop(self, request, cat_name, t, k):
        """Entry for entry (matrix, both scores, clash_consistent), the
        picks equal the loop that scored the extractors on its own path."""
        cat = request.getfixturevalue(cat_name)
        rankings = mine_candidates(cat, t=t, limit=k)
        if cat_name == "cat4" and t == 4:    # both extractors are the identity
            assert all(r.extractors[0].matrix == r.extractors[1].matrix for r in rankings)
        assert assemble_store(cat, rankings, t=t, k_per_state=k).lists == _assemble_oracle(cat, rankings, t, k)

    def test_assembly_scores_nothing(self, cat16, monkeypatch):
        """Mining superimposes each state once and scores its extractors
        there; assembly builds no constellation and scores nothing."""
        calls = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("make_constellation", "superimpose", "mapping_d_min"):
            monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
        rankings = mine_candidates(cat16, t=4, limit=5)
        calls.clear()
        assemble_store(cat16, rankings, t=4, k_per_state=5)
        assert not calls
        build_store(cat16, t=4, k_per_state=5)
        assert calls["superimpose"] == len(cat16.entries)


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
        bad = BitMatrix.from_row_ints((0, 0), 4).to_text()
        (tmp_path / "bad.cat").write_text(text.replace(good, bad))
        with pytest.raises(ValueError):
            load_store(str(tmp_path / "bad.cat"))

    @pytest.mark.parametrize(
        "certified_n, infeasible",
        [(2, ((0, 0),)), (None, ((0, 0),)), (2, ((0, 0), (1, 1), (20, 20))), (1, ())],
        ids=["extra-tuple", "uncertified-with-tuples", "tuple-past-the-states", "n-below-rank"],
    )
    def test_store_certificate_must_be_its_lists_own(self, store4, tmp_path, certified_n, infeasible):
        """``store4`` is feasible for two APs; a header that says otherwise,
        or lists tuples without a certificate, is refused."""
        path = str(tmp_path / "store.cat")
        save_store(dataclasses.replace(store4, certified_n=certified_n, infeasible=infeasible), path)
        with pytest.raises(ValueError, match="infeasible state tuples|cannot reach rank"):
            load_store(path)

    def test_store_certificate_missing_a_tuple_refused(self, cat4, tmp_path):
        store = certify_store(assemble_store(cat4, mine_candidates(cat4, t=2, limit=1), t=2, k_per_state=1), 2)
        path = str(tmp_path / "store.cat")
        save_store(dataclasses.replace(store, infeasible=store.infeasible[1:]), path)
        with pytest.raises(ValueError, match=re.escape(f"differ at state tuple {store.infeasible[0]}")):
            load_store(path)
        save_store(store, path)
        assert load_store(path).infeasible == store.infeasible

    @pytest.mark.parametrize("bad", ["2x3:1d", "3x4:f21", "2x4:1e1"])
    def test_store_entry_of_another_shape_refused(self, store4, tmp_path, bad):
        """In a t=2, mu=4 store, ``2x3:1d`` (rows 5, 3) used to load and be
        read as rows 13, 1; ``2x4:1e1`` has a bit past its 8."""
        path = tmp_path / "store.cat"
        save_store(store4, str(path))
        good = store4.lists[0][0].matrix.to_text()
        path.write_text(path.read_text().replace(f"@ {good}|", f"@ {bad}|", 1))
        with pytest.raises(ValueError, match="not 2x4|bits beyond"):
            load_store(str(path))

    def test_table_roundtrip(self, store4, cat4, tmp_path):
        table = build_selection_table(store4, cat4, n_aps=2)
        path = str(tmp_path / "table.tab")
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.choice.dtype == table.choice.dtype
        loaded.check_equal(table)
        assert loaded.n_aps == 2

    def test_table_load_verifies_stacks(self, store4, cat4, tmp_path):
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        first = _table_line(path, "value 0 @ ").split()[3]
        _rewrite_table_line(path, "value 0 @ ", f"value 0 @ {first} {first}")   # repeated rows: singular
        with pytest.raises(ValueError, match="singular"):
            load_table(str(path))

    def test_table_encoding_wider_than_a_matrix_refused(self, store4, cat4, tmp_path):
        """``121 84`` would read as (0x121, 0x84), a 9-bit encoding of a
        2x4 matrix, left for the store cross-check to catch."""
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        _rewrite_table_line(path, "value 0 @ ", "value 0 @ 121 84")
        with pytest.raises(ValueError, match="more than 2x4 bits"):
            load_table(str(path))

    def test_table_entry_needs_one_matrix_per_ap(self, store4, cat4, tmp_path):
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        line = _table_line(path, "value 0 @ ")
        # three encodings; the first two still stack to full rank
        _rewrite_table_line(path, "value 0 @ ", f"{line} {line.split()[3]}")
        with pytest.raises(ValueError, match="lists 3 matrices"):
            load_table(str(path))

    def test_store_with_legacy_d_alpha_line_loads(self, store4, tmp_path):
        path = tmp_path / "store.cat"
        save_store(store4, str(path))
        lines = path.read_text().splitlines()
        assert not any(ln.startswith("d_alpha=") for ln in lines)
        at = next(i for i, ln in enumerate(lines) if ln.startswith("K="))
        lines.insert(at + 1, "d_alpha=0")   # older writers put it after K= (and eps=)
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
        """A row's ids must name listed values."""
        table = build_selection_table(store4, cat4, n_aps=2)
        path = tmp_path / "table.tab"
        save_table(table, str(path))
        ids = _table_line(path, "row 0 @ ").split()[3:]
        for bad in (len(table.values), -1):
            _rewrite_table_line(path, "row 0 @ ", "row 0 @ " + " ".join([str(bad)] + ids[1:]))
            with pytest.raises(ValueError, match=f"row 0 is not {len(ids)} ids of its {len(table.values)} values"):
                load_table(str(path))

    def test_table_key_repeated_refused(self, store4, cat4, tmp_path):
        """A row of one id too many, or one too few."""
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        line = _table_line(path, "row 0 @ ")
        n = len(store4.states)
        for bad in (f"{line} 0", line.rpartition(" ")[0]):
            _rewrite_table_line(path, "row 0 @ ", bad)
            with pytest.raises(ValueError, match=f"row 0 is not {n} ids"):
                load_table(str(path))

    def test_table_key_missing_refused(self, store4, cat4, tmp_path):
        """A missing row, and an extra one."""
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        lines = path.read_text().splitlines()
        n = len(store4.states)
        assert lines[-1].startswith(f"row {n - 1} @ ")
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match=f"record {n - 1} carries index ''"):
            load_table(str(path))
        path.write_text("\n".join(lines + [lines[-1].replace(f"row {n - 1} @ ", f"row {n} @ ")]) + "\n")
        with pytest.raises(ValueError, match=f"expected {n} table rows, found {n + 1}"):
            load_table(str(path))

    def test_table_header_larger_than_file_refused(self, store4, cat4, tmp_path):
        """A header of n=12 over 14 states claims 14^12 tuples; the load
        refuses it without allocating a table of that size: at the first
        value of 2 matrices, or, with every value a marker, where the rows
        run out."""
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        text = path.read_text().replace("\nn=2\n", "\nn=12\n", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="lists 2 matrices, not 12"):
            load_table(str(path))
        path.write_text(re.sub(r"(?m)^(value \d+ @ ).*$", r"\1fallback", text))
        with pytest.raises(ValueError, match="record 14 carries index ''"):
            load_table(str(path))

    @pytest.mark.parametrize("key, delta", [("states", 1), ("values", 1), ("values", -1), ("n", -2)])
    def test_table_header_counts_checked(self, store4, cat4, tmp_path, key, delta):
        table = build_selection_table(store4, cat4, n_aps=2)
        path = tmp_path / "table.tab"
        save_table(table, str(path))
        count = {"states": len(table.states), "values": len(table.values), "n": 2}[key]
        path.write_text(path.read_text().replace(f"\n{key}={count}\n", f"\n{key}={count + delta}\n", 1))
        with pytest.raises(ValueError, match="carries index|n >= 1"):
            load_table(str(path))

    def test_table_of_version_1_refused(self, store4, cat4, tmp_path):
        path = tmp_path / "table.tab"
        save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        path.write_text(path.read_text().replace("pnclab-table v3\n", "pnclab-table v1\n", 1))
        with pytest.raises(ValueError, match=r"is a pnclab-table v1 file.*`pnclab table --store"):
            load_table(str(path))

    @pytest.mark.parametrize("kind, key", [("catalog", "labeling"), ("store", "K"), ("table", "values")])
    def test_missing_header_key_refused(self, store4, cat4, tmp_path, kind, key):
        """A header without one of its keys is refused with the file and the
        key, where it used to raise a bare KeyError."""
        path = tmp_path / kind
        if kind == "catalog":
            save_catalog(cat4, str(path))
        elif kind == "store":
            save_store(store4, str(path))
        else:
            save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        path.write_text(re.sub(rf"(?m)^{key}=.*\n", "", path.read_text(), count=1))
        load = {"catalog": load_catalog, "store": load_store, "table": load_table}[kind]
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: the header has no {key}= line"):
            load(str(path))

    @pytest.mark.parametrize(
        "kind, old, command",
        [("catalog", "pnclab-sfs-catalog v1", "pnclab sfs list"), ("catalog", "pnclab-sfs-catalog v2", "pnclab sfs list"),
         ("store", "pnclab-store v1", "pnclab offline"), ("table", "pnclab-table v2", "pnclab table --store")],
    )
    def test_older_version_refused(self, store4, cat4, tmp_path, kind, old, command):
        """Files of the versions that wrote floats with 12 significant
        digits (and catalogs and stores with an eps= line), and catalogs
        that stored each state's partition, are refused, naming the command
        that rebuilds them."""
        path = tmp_path / kind
        if kind == "catalog":
            save_catalog(cat4, str(path))
        elif kind == "store":
            save_store(store4, str(path))
        else:
            save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join([old] + lines[1:]) + "\n")
        load = {"catalog": load_catalog, "store": load_store, "table": load_table}[kind]
        with pytest.raises(ValueError, match=rf"is a {old} file, not {lines[0]}: rebuild it with `{command}"):
            load(str(path))

    @pytest.mark.parametrize("kind", ["store", "table", "row"])
    def test_swapped_indexed_lines_refused(self, store4, cat4, tmp_path, kind):
        """Two state lines, or two table rows, swapped keep their indices,
        which no longer match their positions."""
        path = tmp_path / kind
        if kind == "store":
            save_store(store4, str(path))
        else:
            save_table(build_selection_table(store4, cat4, n_aps=2), str(path))
        lines = path.read_text().splitlines()
        prefix = {"store": "", "table": "state ", "row": "row "}[kind]
        i = lines.index(next(ln for ln in lines if ln.startswith(f"{prefix}0 @ ")))
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="index '1'"):
            (load_store if kind == "store" else load_table)(str(path))


def _table_line(path, prefix):
    return next(ln for ln in path.read_text().splitlines() if ln.startswith(prefix))


def _rewrite_table_line(path, prefix, new):
    """Replace the first line of the file that starts with ``prefix``."""
    lines = path.read_text().splitlines()
    lines[lines.index(_table_line(path, prefix))] = new
    path.write_text("\n".join(lines) + "\n")


FADE_STATES = st.one_of(
    st.just(FadeState(value=0j, infinite=True)),
    st.builds(lambda re, im: FadeState(value=complex(re, im)), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
)
DISTANCES = st.one_of(st.floats(0.0, 100.0), st.just(math.inf))


def full_rank_rows(t, mu=4):
    return st.lists(st.integers(0, (1 << mu) - 1), min_size=t, max_size=t).filter(lambda r: rank_rows(r) == t)


def _save_load_save(save, load, artifact):
    """Bytes of save(artifact) and of save(load(...)) of them, and the loaded artifact."""
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a"), os.path.join(d, "b")
        save(artifact, first)
        loaded = load(first)
        save(loaded, second)
        return open(first, "rb").read(), open(second, "rb").read(), loaded


class TestRoundTripProperties:
    """save -> load -> save gives the same bytes, for artifacts drawn at random."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_store(self, store4, t, data):
        entries = st.builds(
            CandidateEntry,
            full_rank_rows(t).map(lambda r: BitMatrix.from_row_ints(r, 4)),
            DISTANCES,
            st.booleans(),
            DISTANCES,
        )
        lists = data.draw(st.lists(st.lists(entries, min_size=1, max_size=5).map(tuple), min_size=1, max_size=6))
        store = dataclasses.replace(
            store4,
            t=t,
            states=tuple(data.draw(FADE_STATES) for _ in lists),
            lists=tuple(lists),
            certified_n=None,
            infeasible=(),
            rank_seed=data.draw(st.one_of(st.none(), st.integers(0, 2**31))),
        )
        n = data.draw(st.one_of(st.none(), st.integers(math.ceil(4 / t), 3)))
        if n is not None:       # load_store certifies again, so the certificate must be the lists' own
            store = certify_store(store, n)
        first, second, loaded = _save_load_save(save_store, load_store, store)
        assert first == second
        assert loaded.states == store.states and loaded.lists == store.lists
        assert (loaded.certified_n, loaded.infeasible) == (store.certified_n, store.infeasible)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 4), (2, 2), (2, 3), (3, 2)]), st.integers(1, 4), st.data())
    def test_table(self, store4, n_t, n_states, data):
        """Markers, one AP and three APs included."""
        n, t = n_t
        stack = st.lists(full_rank_rows(t), min_size=n, max_size=n).filter(
            lambda ms: rank_rows([r for m in ms for r in m]) == 4
        )
        pool = data.draw(st.lists(stack, min_size=1, max_size=4))
        values = tuple(tuple(BitMatrix.from_row_ints(m, 4).encoding for m in ms) for ms in pool) + (None,)
        ids = st.integers(0, len(values) - 1)
        table = search.SelectionTable(
            modulation=store4.modulation,
            labeling_version=store4.labeling_version,
            t=t,
            mu=4,
            n_aps=n,
            states=tuple(data.draw(FADE_STATES) for _ in range(n_states)),
            choice=np.array([data.draw(ids) for _ in range(n_states**n)]).reshape((n_states,) * n),
            values=values,
        )
        first, second, loaded = _save_load_save(save_table, load_table, table)
        assert first == second
        loaded.check_equal(table)
        assert loaded.states == table.states

    @pytest.mark.parametrize("n_principal", [24, 50])
    def test_rebuild_from_loaded_files_equals_build(self, tmp_path, n_principal):
        """Catalog -> store -> table gives the same content whether or not
        each step read its input from a file: floats are written as the
        text that reads back to the same float.  With 12 significant
        digits, at 50 states over 10^6 ranking trials, the table rebuilt
        from the loaded store differed in 45 entries, the store rebuilt
        from the loaded catalog in 12 matrices, and its table in 348."""
        cat = build_catalog("qam16", n_trials=10**6, rng_seed=0, n_principal=n_principal)
        store = build_store(cat, t=4, k_per_state=5, n_aps=2)
        table = build_selection_table(store, cat, 2)
        paths = [str(tmp_path / name) for name in ("catalog", "store", "table")]
        save_catalog(cat, paths[0])
        save_store(store, paths[1])
        save_table(table, paths[2])
        loaded_cat, loaded_store, loaded_table = load_catalog(paths[0]), load_store(paths[1]), load_table(paths[2])
        assert loaded_cat == cat
        assert loaded_store == store
        assert build_store(loaded_cat, t=4, k_per_state=5, n_aps=2) == store
        for other in (loaded_table, build_selection_table(loaded_store, loaded_cat, 2)):
            other.check_equal(table)


def _edited_tables(store, table, seed, count=60):
    """Tables with a few entries rewritten to markers, to their own entry
    under a new value id, or to stacks of stored, foreign or misplaced
    encodings, each with the oracle's verdict: whether the walk over every
    state tuple finds the same entry as in ``table``."""
    encodings = sorted({e.matrix.encoding for l in store.lists for e in l}) + [0xABC]
    entries = table.entries
    rng = np.random.default_rng(seed)
    for _ in range(count):
        choice, values = table.choice.astype(np.intp), list(table.values)
        for _ in range(rng.integers(1, 4)):
            tup = tuple(rng.integers(0, len(store.states), table.n_aps).tolist())
            r = rng.random()
            values.append(None if r < 0.1 else entries[tup] if r < 0.3 else
                          tuple(int(e) for e in rng.choice(encodings, table.n_aps)))
            choice[tup] = len(values) - 1
        patched = dataclasses.replace(table, choice=choice, values=tuple(values))
        yield patched, patched.entries == entries


@pytest.mark.parametrize("n, t, k", [(1, 4, 5), (2, 2, 5), (2, 2, 1), (3, 2, 3)])
def test_table_check_equal_matches_entry_walk(cat4, n, t, k):
    """An edited table is refused as unequal to the built one exactly when
    the oracle finds a changed entry, naming the first such state tuple in
    C order; renumbered values alone are no difference."""
    cat = truncate_catalog(cat4, 5) if n == 3 else cat4
    store = build_store(cat, t=t, k_per_state=k, n_aps=n)
    table = build_selection_table(store, n_aps=n)
    verdicts = []
    for patched, same in _edited_tables(store, table, n * 10 + k):
        verdicts.append(same)
        if same:
            patched.check_equal(table)
        else:
            first = next(tup for tup, v in patched.entries.items() if v != table.entries[tup])
            with pytest.raises(ValueError, match=re.escape(f"tables disagree at state tuple {first}: ")):
                patched.check_equal(table)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("n, t", [(1, 4), (2, 2)])
def test_edited_table_refused_exactly_when_it_differs(cat4, n, t, tmp_path, monkeypatch):
    """A run whose loaded table is an edited one is refused in set-up
    exactly when the oracle finds a changed entry."""
    store = build_store(cat4, t=t, k_per_state=5, n_aps=n)
    table = build_selection_table(store, n_aps=n)
    save_catalog(cat4, str(tmp_path / "catalog"))
    save_store(store, str(tmp_path / "store"))
    cfg = sim.ExperimentConfig(
        modulation="qam4", scheme="rbmas", n_aps=n, ncv_len=t, k_per_state=5,
        catalog_path=str(tmp_path / "catalog"), store_path=str(tmp_path / "store"), table_path="edited",
    )
    verdicts = []
    for patched, same in _edited_tables(store, table, n * 10 + 5):
        monkeypatch.setattr(sim, "load_table", lambda path: patched)
        verdicts.append(same)
        if same:
            sim._prepare(cfg)
        else:
            with pytest.raises(ValueError, match=r"and the store's own table disagree at state tuple \("):
                sim._prepare(cfg)
    assert any(verdicts) and not all(verdicts)


def test_selection_infeasible_raises(cat4):
    rankings = mine_candidates(cat4, t=2, limit=1)
    store = certify_store(assemble_store(cat4, rankings, t=2, k_per_state=1), 2)
    assert store.infeasible
    a, b = next(iter(t for t in store.infeasible if t[0] == t[1]))
    v = store.states[a].value
    H = np.array([[[1.0, v], [1.0, v]]])
    with pytest.raises(SelectionInfeasibleError):
        select_mappings(store, cat4, H)


def test_rank_checks_are_memoized(cat16, monkeypatch, tmp_path):
    """Certification and table building share one verdict per pair of
    distinct matrices: at most (distinct matrices)^2 rank computations.
    Table loading checks each distinct entry once.  Store loading checks
    each distinct matrix once and certifies the lists again with as many
    verdicts as the build took, and a table built from the loaded store
    reads those verdicts."""
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
    assert len(calls) == built + len(set(table.entries.values()) - {None})

    store_path = tmp_path / "store.cat"
    save_store(store, str(store_path))
    before = len(calls)
    loaded = load_store(str(store_path))
    assert len(calls) - before == distinct + built and distinct < sum(map(len, store.lists))
    before = len(calls)
    build_selection_table(loaded, n_aps=2).check_equal(table)
    assert len(calls) == before

    first = _table_line(path, "value 0 @ ").split()[3]
    _rewrite_table_line(path, "value 0 @ ", f"value 0 @ {first} {first}")   # repeated rows: singular
    with pytest.raises(ValueError, match="singular"):
        load_table(str(path))


def _per_frame_selection(store, cat, H):
    """Oracle: the per-frame search, each AP's candidates scored one matrix
    at a time at its channel, then ``_pick_best``.  Returns each AP's packed
    rows and state index, as lists."""
    c = make_constellation(store.modulation)
    states, lists, d_values = [], [], []
    for h in H:
        idx = int(nearest_sfs(cat, tuple(h))[0])
        sc = superimpose(c, tuple(h))
        states.append(idx)
        lists.append(tuple(e.matrix for e in store.lists[idx]))
        d_values.append(tuple(float(mapping_d_min(m.rows, sc)) for m in lists[-1]))
    combo = _pick_best(tuple(tuple(m.encoding for m in l) for l in lists), tuple(d_values), store.t, store.mu)
    return [list(m.rows) for m in map(operator.getitem, lists, combo)], states


def _frame(batch, f):
    """Frame f of a SelectionBatch as ``_per_frame_selection`` gives it."""
    return batch.rows[f].tolist(), batch.state_indices[f].tolist()


def _channel_stack(seed, frames, shared):
    """Rayleigh channels; in ``shared`` frames both APs see one fade ratio,
    and some frames have a silent first coefficient at AP 0."""
    rng = np.random.default_rng(seed)
    H = (rng.standard_normal((frames, 2, 2)) + 1j * rng.standard_normal((frames, 2, 2))) / np.sqrt(2)
    H[shared, 1] = H[shared, 0] * (0.5 - 1.5j)
    H[rng.random(frames) < 0.1, 0, 0] = 0
    return H


class TestBatchedSelection:
    """Selection over a stack of frames against frame axes of one and the
    per-frame oracle, frame by frame."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.sampled_from(["4", "16"]))
    def test_matches_one_frame_and_oracle(self, request, seed, frames, modulation):
        store = request.getfixturevalue(f"store{modulation}")
        cat = request.getfixturevalue(f"cat{modulation}")
        H = _channel_stack(seed, frames, np.arange(frames) % 3 == 0)
        batch = select_mappings(store, cat, H)
        assert batch.rows.shape == (frames, 2, store.t) and batch.state_indices.shape == (frames, 2)
        for f in range(frames):
            assert _frame(batch, f) == _frame(select_mappings(store, cat, H[f : f + 1]), 0)
            assert _frame(batch, f) == _per_frame_selection(store, cat, H[f])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 24))
    def test_table_lookup_matches_one_frame(self, store4, cat4, seed, frames):
        table = build_selection_table(store4, cat4, n_aps=2)
        H = _channel_stack(seed, frames, np.arange(frames) % 2 == 0)
        batch = table_lookup(table, cat4, H)
        assert [_frame(batch, f) for f in range(frames)] == [
            _frame(table_lookup(table, cat4, H[f : f + 1]), 0) for f in range(frames)
        ]

    def test_one_ap(self, cat4):
        store = build_store(cat4, t=4, k_per_state=5, n_aps=1)
        H = _channel_stack(5, 12, np.zeros(12, dtype=bool))[:, :1]
        batch = select_mappings(store, cat4, H)
        for f in range(12):
            assert _frame(batch, f) == _frame(select_mappings(store, cat4, H[f : f + 1]), 0)
            assert _frame(batch, f) == _per_frame_selection(store, cat4, H[f])
