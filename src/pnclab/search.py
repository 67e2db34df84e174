"""Two-stage mapping-matrix search, on-line selection, and the lookup table.

Stage one mines, for every singular fade state, the full-rank row spaces
whose clusters respect that state's clashes, ranked by minimum inter-cluster
distance at the state.  Stage two certifies that every ordered tuple of
states admits per-AP choices whose stacked global matrix is invertible,
augmenting candidate lists with complementary row spaces where the mined
ones cannot do it (two APs caught in the same fade, or states whose
admissible spaces overlap).  On-line, each AP resolves its channel to the
nearest state and the CPU picks the invertible combination with the best
worst-AP distance; the regulated variant replaces that search with a
precomputed table keyed by state indices.

Candidates are handled at row-space granularity: matrices sharing a row
space induce identical clusters, identical distances, and identical global
ranks, so each space is represented once by its canonical reduced-row-
echelon matrix.  An exhaustive per-matrix scan is kept for cross-checks at
small sizes.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np

from ._artifact import check_count, opt_int, read_v1, write_v1
# The layer tracer (perfbench/tracer.py) wraps these names as attributes of
# this module: rank_rows, nearest_sfs, difference_profiles, mapping_d_min,
# superimpose and make_constellation.  Keep each bound here, difference_profiles
# included, though nothing in this module calls it.
from .fade_states import FadeState, SfsCatalog, nearest_sfs
from .gf2 import (
    BitMatrix,
    enumerate_matrices,
    enumerate_subspaces,
    nullspace,
    rank_rows,
    rref_rows,
)
from .mapping import (
    SuperimposedConstellation,
    clash_difference_basis,
    difference_profiles,
    mapping_d_min,
    superimpose,
)
from .modulation import make_constellation


class SelectionInfeasibleError(RuntimeError):
    """No candidate combination stacks to an invertible global matrix."""


@dataclass(frozen=True)
class CandidateEntry:
    """One candidate row space for one fade state."""

    matrix: BitMatrix           # canonical RREF representative
    d_min: float                # minimum inter-cluster distance at the state
    clash_consistent: bool
    separated_d_min: float      # same, ignoring coincident pairs

    @property
    def sort_key(self) -> tuple[float, float, int]:
        return (-self.d_min, -self.separated_d_min, self.matrix.encoding)


@dataclass(frozen=True)
class SfsCandidates:
    """Ranked candidates of one fade state (stage-one output)."""

    state_index: int
    resolvable: bool
    entries: tuple[CandidateEntry, ...]


def state_channel(state: FadeState) -> tuple[complex, complex]:
    """Channel coefficient pair realizing a fade state."""
    return (0.0 + 0j, 1.0 + 0j) if state.infinite else (1.0 + 0j, state.value)


def _complement_basis(d_basis: tuple[int, ...], mu: int) -> tuple[int, ...]:
    """Standard-vector completion of a subspace basis to the full space."""
    _, pivots = rref_rows(d_basis, mu)
    taken = set(pivots)
    return tuple(1 << c for c in range(mu) if c not in taken)


def _scored_entry(rows: tuple[int, ...], sc: SuperimposedConstellation, consistent: bool) -> CandidateEntry:
    return CandidateEntry(
        matrix=BitMatrix.from_row_ints(rows, sc.mu),
        d_min=mapping_d_min(rows, sc),
        clash_consistent=consistent,
        separated_d_min=mapping_d_min(rows, sc, separated_only=True),
    )


def mine_candidates(
    cat: SfsCatalog,
    t: int,
    limit: int | None = None,
) -> tuple[SfsCandidates, ...]:
    """Stage one: rank clash-consistent row spaces per state by d_min.

    States whose clash structure leaves fewer than ``t`` admissible row
    dimensions cannot be resolved by any rank-t binary matrix; they are
    flagged unresolvable and get best-effort candidates ranked by the
    distance among already-separated points instead.
    """
    c = make_constellation(cat.modulation)
    m = c.bits_per_symbol
    mu = 2 * m
    if not m <= t <= mu:
        raise ValueError(f"t must be in [{m}, {mu}]")
    out = []
    for idx, entry in enumerate(cat.entries):
        sc = superimpose(c, state_channel(entry.state))
        d_basis = clash_difference_basis(entry.partition, m)
        kernel_dim = mu - t
        resolvable = len(d_basis) <= kernel_dim
        if resolvable:
            comp = _complement_basis(d_basis, mu)
            kernels = (d_basis + extra for extra in enumerate_subspaces(comp, kernel_dim - len(d_basis)))
        else:
            # kernels inside the clash-difference span absorb the most clashes
            kernels = enumerate_subspaces(d_basis, kernel_dim)
        candidates = sorted(
            (_scored_entry(rref_rows(nullspace(kb, mu), mu)[0], sc, resolvable) for kb in kernels),
            key=lambda e: e.sort_key,
        )
        if limit is not None:
            candidates = candidates[:limit]
        out.append(SfsCandidates(state_index=idx, resolvable=resolvable, entries=tuple(candidates)))
    return tuple(out)


def exhaustive_matrix_scan(
    sc: SuperimposedConstellation,
    clash: tuple[tuple[int, ...], ...],
    t: int,
    max_bits: int = 24,
) -> list[tuple[BitMatrix, float, bool]]:
    """Literal scan of every t x mu matrix: (matrix, d_min, clash_consistent).

    Only the full-rank matrices are returned.  This is the slow oracle used
    to cross-check the row-space search at small sizes.
    """
    from .mapping import evaluate_mapping

    mu = sc.mu
    out = []
    for mat in enumerate_matrices(t, mu, max_bits=max_bits):
        if rank_rows(mat.rows) != t:
            continue
        q = evaluate_mapping(mat, sc, clash)
        out.append((mat, q.d_min, q.clash_consistent))
    return out


@dataclass(frozen=True)
class CandidateStore:
    """Per-state candidate lists shared by the APs and the CPU."""

    modulation: str
    labeling_version: str
    t: int
    mu: int
    k_per_state: int
    eps: float
    rank_seed: int | None
    rank_trials: int | None
    states: tuple[FadeState, ...]
    lists: tuple[tuple[CandidateEntry, ...], ...]
    certified_n: int | None = None
    infeasible: tuple[tuple[int, ...], ...] = ()

    def matrices_for(self, state_index: int) -> tuple[BitMatrix, ...]:
        return tuple(e.matrix for e in self.lists[state_index])


def _coordinate_entry(
    cols: tuple[int, ...],
    state: FadeState,
    modulation: str,
) -> CandidateEntry:
    """Row space spanned by standard vectors on ``cols``, scored at the state."""
    sc = superimpose(make_constellation(modulation), state_channel(state))
    entry = _scored_entry(tuple(1 << c for c in cols), sc, False)
    return replace(entry, clash_consistent=entry.d_min > 0)


def assemble_store(
    cat: SfsCatalog,
    rankings: tuple[SfsCandidates, ...],
    t: int,
    k_per_state: int,
) -> CandidateStore:
    """Per-state lists: top-ranked candidates plus two universal extractors.

    The extractors project onto the first and the last ``t`` message bits.
    Their column sets cover all of F2^mu whenever 2t >= mu, so any ordered
    pair of lists can stack them to full rank: that keeps selection feasible
    even when both APs resolve to the same fade state, or to states whose
    admissible row spaces overlap.  With k_per_state >= 3 the extractors
    cost at most two list slots; below that the store may be uncertifiable,
    which certification reports rather than hides.
    """
    c = make_constellation(cat.modulation)
    mu = 2 * c.bits_per_symbol
    head = tuple(range(t))
    tail = tuple(range(mu - t, mu))
    lists = []
    for r, entry in zip(rankings, cat.entries):
        chosen = list(r.entries[: max(0, k_per_state - 2)])
        have = {e.matrix for e in chosen}
        if k_per_state >= 2:
            for cols in (head, tail):
                cand = _coordinate_entry(cols, entry.state, cat.modulation)
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
    return CandidateStore(
        modulation=cat.modulation,
        labeling_version=cat.labeling_version,
        t=t,
        mu=mu,
        k_per_state=k_per_state,
        eps=cat.eps,
        rank_seed=cat.rank_seed,
        rank_trials=cat.rank_trials,
        states=tuple(e.state for e in cat.entries),
        lists=tuple(lists),
    )


@lru_cache(maxsize=1 << 15)
def _stacks_full_rank(encodings: tuple[int, ...], t: int, mu: int) -> bool:
    """Whether the t x mu matrices with these encodings stack to rank mu.

    A store holds a few distinct matrices (109 for the full qam16 catalog at
    K=5), so certification, table building, on-line selection and table
    loading ask the same few thousand questions over and over; the verdict
    depends on the encodings alone.  ``certify_store`` clears the memo, so
    it holds one store's verdicts and every build does the same rank work
    whatever ran before it in the process.
    """
    return rank_rows([r for e in encodings for r in BitMatrix.from_encoding(e, t, mu).rows]) == mu


def _tuple_feasible(encodings, tup, t, mu) -> bool:
    return any(_stacks_full_rank(combo, t, mu) for combo in itertools.product(*(encodings[i] for i in tup)))


def certify_store(store: CandidateStore, n_aps: int) -> CandidateStore:
    """Stage two: verify an invertible stack exists for every ordered tuple.

    Repeated indices are covered as well: two APs do land in the same fade
    with positive probability.  Any tuple without a full-rank combination
    is reported in the returned store rather than hidden.  Entries that can
    pair with no other stored entry to full rank (and so participate in no
    feasible stack) are pruned, keeping at least one entry per state.
    """
    t, mu = store.t, store.mu
    if n_aps * t < mu:
        raise ValueError(f"{n_aps} APs of {t} rows cannot reach rank {mu}")
    _stacks_full_rank.cache_clear()
    lists = store.lists
    encodings = [tuple(e.matrix.encoding for e in l) for l in lists]
    n_states = len(store.states)
    all_tuples = itertools.product(range(n_states), repeat=n_aps)
    remaining = tuple(tup for tup in all_tuples if not _tuple_feasible(encodings, tup, t, mu))

    if n_aps >= 2:
        flat = [(i, j, enc) for i, l in enumerate(encodings) for j, enc in enumerate(l)]
        used: list[set[int]] = [set() for _ in range(n_states)]
        for a, (i1, j1, enc1) in enumerate(flat):
            for i2, j2, enc2 in flat[a:]:
                if _stacks_full_rank((enc1, enc2), t, mu):
                    used[i1].add(j1)
                    used[i2].add(j2)
    else:
        used = [{j for j, enc in enumerate(l) if _stacks_full_rank((enc,), t, mu)} for l in encodings]
    pruned = tuple(
        tuple(e for j, e in enumerate(lists[i]) if j in used[i]) or tuple(lists[i][:1])
        for i in range(n_states)
    )
    return replace(store, lists=pruned, certified_n=n_aps, infeasible=remaining)


def build_store(
    cat: SfsCatalog,
    t: int,
    k_per_state: int,
    n_aps: int = 2,
) -> CandidateStore:
    """Mine, assemble, and certify in one call."""
    rankings = mine_candidates(cat, t, limit=k_per_state)
    return certify_store(assemble_store(cat, rankings, t, k_per_state), n_aps)


def _check_same_states(a: tuple[FadeState, ...], b: tuple[FadeState, ...], eps: float, what: str) -> None:
    if len(a) != len(b):
        raise ValueError(f"{what} cover different state sets")
    for s, e in zip(a, b):
        if s.infinite != e.infinite:
            raise ValueError(f"{what} states are ordered differently")
        if not s.infinite and abs(s.value - e.value) > eps:
            raise ValueError(f"{what} states disagree in value")


def _check_store_matches_catalog(store: CandidateStore, cat: SfsCatalog) -> None:
    if store.modulation != cat.modulation or store.labeling_version != cat.labeling_version:
        raise ValueError("store and catalog disagree on modulation or labeling")
    _check_same_states(store.states, tuple(e.state for e in cat.entries), cat.eps, "store and catalog")


def _check_table_matches_store(table: SelectionTable, store: CandidateStore) -> None:
    if (table.modulation, table.labeling_version, table.t, table.mu) != (
        store.modulation, store.labeling_version, store.t, store.mu
    ):
        raise ValueError("table and store disagree on modulation, labeling or matrix shape")
    _check_same_states(table.states, store.states, store.eps, "table and store")


@dataclass(frozen=True)
class Selection:
    """Chosen per-AP matrices and the nearest state of each AP's channel."""

    per_ap: tuple[BitMatrix, ...]
    state_indices: tuple[int, ...]

    @property
    def global_matrix(self) -> BitMatrix:
        """The per-AP matrices stacked in AP order (invertible)."""
        return reduce(BitMatrix.stack, self.per_ap)


def _pick_best(
    encodings: tuple[tuple[int, ...], ...],
    d_values: tuple[tuple[float, ...], ...],
    t: int,
    mu: int,
) -> tuple[int, ...] | None:
    """Lexicographic best over candidate combinations with full-rank stack.

    ``encodings[j]`` lists AP j's candidate matrices by encoding.  Maximizes
    the worst per-AP distance, then the sum, then breaks ties by the lowest
    tuple of matrix encodings.  Returns the chosen index per AP.
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


def select_mappings(
    store: CandidateStore,
    cat: SfsCatalog,
    channels: np.ndarray,
) -> Selection:
    """On-line selection for one channel realization (rows = APs).

    Each AP resolves its channel to the nearest catalog state and offers
    that state's candidates; the CPU evaluates every cross-product choice
    at the true channels and keeps the best invertible stack.
    """
    c = make_constellation(store.modulation)
    H = np.asarray(channels, dtype=complex)
    n_aps = H.shape[0]
    state_idx = []
    mat_lists = []
    d_lists = []
    for j in range(n_aps):
        idx, _ = nearest_sfs(cat, (H[j, 0], H[j, 1]))
        state_idx.append(idx)
        sc = superimpose(c, (H[j, 0], H[j, 1]))
        mats = store.matrices_for(idx)
        mat_lists.append(mats)
        d_lists.append(tuple(mapping_d_min(m.rows, sc) for m in mats))
    encodings = tuple(tuple(m.encoding for m in mats) for mats in mat_lists)
    combo = _pick_best(encodings, tuple(d_lists), store.t, store.mu)
    if combo is None:
        raise SelectionInfeasibleError(
            f"no invertible stack for state tuple {tuple(state_idx)}; store contract violated"
        )
    return Selection(per_ap=tuple(map(operator.getitem, mat_lists, combo)), state_indices=tuple(state_idx))


@dataclass(frozen=True)
class SelectionTable:
    """Precomputed per-state-tuple assignments for low-latency selection."""

    modulation: str
    labeling_version: str
    t: int
    mu: int
    n_aps: int
    states: tuple[FadeState, ...]
    entries: dict[tuple[int, ...], tuple[int, ...] | None]

    def __len__(self) -> int:
        return len(self.entries)


def build_selection_table(
    store: CandidateStore,
    cat: SfsCatalog | None = None,
    n_aps: int = 2,
) -> SelectionTable:
    """Evaluate every ordered state tuple at its fade-state channel points.

    Uses the same objective and tie-breaks as the on-line search, scored
    with the distances the store holds for each state.  Tuples with no
    invertible stack (possible only when certification reported them
    infeasible) carry a marker, on which ``table_lookup`` raises.  When
    ``cat`` is given, the store is checked against it first.
    """
    if cat is not None:
        _check_store_matches_catalog(store, cat)
    encodings = [tuple(e.matrix.encoding for e in l) for l in store.lists]
    d_values = [tuple(e.d_min for e in l) for l in store.lists]
    entries: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    for tup in itertools.product(range(len(store.states)), repeat=n_aps):
        encs = tuple(encodings[i] for i in tup)
        combo = _pick_best(encs, tuple(d_values[i] for i in tup), store.t, store.mu)
        entries[tup] = None if combo is None else tuple(map(operator.getitem, encs, combo))
    return SelectionTable(
        modulation=store.modulation,
        labeling_version=store.labeling_version,
        t=store.t,
        mu=store.mu,
        n_aps=n_aps,
        states=store.states,
        entries=entries,
    )


def table_lookup(
    table: SelectionTable,
    cat: SfsCatalog,
    channels: np.ndarray,
) -> Selection:
    """Regulated selection: nearest states, then a table read.

    Raises ``SelectionInfeasibleError`` on a tuple that carries the marker:
    the table was built from the store's lists for that tuple, and the
    on-line search over the same lists finds no invertible stack either.
    """
    H = np.asarray(channels, dtype=complex)
    tup = tuple(nearest_sfs(cat, (H[j, 0], H[j, 1]))[0] for j in range(H.shape[0]))
    encs = table.entries[tup]
    if encs is None:
        raise SelectionInfeasibleError(f"no invertible stack for state tuple {tup}; the table marks it")
    mats = tuple(BitMatrix.from_encoding(e, table.t, table.mu) for e in encs)
    return Selection(per_ap=mats, state_indices=tup)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _format_entry(e: CandidateEntry) -> str:
    return f"{e.matrix.to_text()}|{e.d_min:.12g}|{int(e.clash_consistent)}|{e.separated_d_min:.12g}"


def _parse_entry(text: str) -> CandidateEntry:
    enc, d, cc, sep = text.split("|")
    return CandidateEntry(
        matrix=BitMatrix.from_text(enc),
        d_min=float(d),
        clash_consistent=bool(int(cc)),
        separated_d_min=float(sep),
    )


def save_store(store: CandidateStore, path: str) -> None:
    header = {
        "modulation": store.modulation,
        "labeling": store.labeling_version,
        "t": store.t,
        "mu": store.mu,
        "K": store.k_per_state,
        "eps": f"{store.eps:g}",
        "rank_seed": store.rank_seed,
        "rank_trials": store.rank_trials,
        "certified_n": store.certified_n,
        "infeasible": ";".join(",".join(map(str, t)) for t in store.infeasible),
        "states": len(store.states),
    }
    body = (
        f"{i} @ {state.to_text()} @ " + " ".join(_format_entry(e) for e in entries)
        for i, (state, entries) in enumerate(zip(store.states, store.lists))
    )
    write_v1(path, "store", header, body)


def load_store(path: str) -> CandidateStore:
    """Read a store file; a ``d_alpha=`` header line of older files is ignored."""
    states = []
    lists = []
    with read_v1(path, "store") as (header, body):
        for ln in body:
            _, state_txt, entries_txt = (s.strip() for s in ln.split(" @ ", 2))
            states.append(FadeState.from_text(state_txt))
            lists.append(tuple(_parse_entry(e) for e in entries_txt.split()))
    check_count(path, "states", int(header["states"]), len(states))
    store = CandidateStore(
        modulation=header["modulation"],
        labeling_version=header["labeling"],
        t=int(header["t"]),
        mu=int(header["mu"]),
        k_per_state=int(header["K"]),
        eps=float(header["eps"]),
        rank_seed=opt_int(header["rank_seed"]),
        rank_trials=opt_int(header["rank_trials"]),
        states=tuple(states),
        lists=tuple(lists),
        certified_n=opt_int(header["certified_n"]),
        infeasible=tuple(tuple(map(int, part.split(","))) for part in header["infeasible"].split(";") if part),
    )
    for entries in store.lists:
        for e in entries:
            if rank_rows(e.matrix.rows) != store.t:
                raise ValueError("store entry violates the rank invariant")
    return store


def save_table(table: SelectionTable, path: str) -> None:
    header = {
        "modulation": table.modulation,
        "labeling": table.labeling_version,
        "t": table.t,
        "mu": table.mu,
        "n": table.n_aps,
        "states": len(table.states),
    }
    states = (f"state {i} @ {state.to_text()}" for i, state in enumerate(table.states))
    entries = (
        ",".join(map(str, tup)) + " -> "
        + ("fallback" if encs is None else " ".join(format(e, "x") for e in encs))
        for tup, encs in sorted(table.entries.items())
    )
    write_v1(path, "table", header, itertools.chain(states, entries))


def load_table(path: str) -> SelectionTable:
    """Read a table file: every ``n``-tuple of state indices must be present
    once, and every entry must list ``n`` matrices that stack to an
    invertible global matrix."""
    states: list[FadeState] = []
    entries: dict[tuple[int, ...], tuple[int, ...] | None] = {}
    with read_v1(path, "table") as (header, body):
        t, mu, n, n_states = (int(header[k]) for k in ("t", "mu", "n", "states"))
        for ln in body:
            if ln.startswith("state "):
                states.append(FadeState.from_text(ln.partition(" @ ")[2]))
                continue
            key, _, val = ln.partition(" -> ")
            tup = tuple(map(int, key.split(",")))
            if len(tup) != n or min(tup) < 0 or max(tup) >= n_states:
                raise ValueError(f"{path}: table key {key!r} is not a {n}-tuple of state indices")
            if val.strip() == "fallback":
                entries[tup] = None
                continue
            encs = tuple(int(x, 16) for x in val.split())
            if len(encs) != n:
                raise ValueError(f"{path}: table entry {tup} lists {len(encs)} matrices, not {n}")
            if not _stacks_full_rank(encs, t, mu):
                raise ValueError(f"table entry {tup} stacks to a singular global matrix")
            entries[tup] = encs
    check_count(path, "states", n_states, len(states))
    check_count(path, "state tuples", n_states**n, len(entries))
    return SelectionTable(
        modulation=header["modulation"],
        labeling_version=header["labeling"],
        t=t,
        mu=mu,
        n_aps=n,
        states=tuple(states),
        entries=entries,
    )
