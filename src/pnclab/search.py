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
echelon matrix.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from ._artifact import check_count, opt_int, read_artifact, records, strip_index, write_artifact
# The layer tracer (perfbench/tracer.py) wraps these names as attributes of
# this module: rank_rows, nearest_sfs, difference_profiles, mapping_d_min,
# superimpose and make_constellation.  Keep each bound here, difference_profiles
# included, though nothing in this module calls it.
from .fade_states import FadeState, SfsCatalog, nearest_sfs
from .gf2 import (
    BitMatrix,
    enumerate_subspaces,
    nullspace,
    rank_rows,
    rref_rows,
    rref_stack,
)
from .mapping import (
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
    separated_d_min: float      # same, ignoring pairs within a block of the state's clash partition


@dataclass(frozen=True)
class SfsCandidates:
    """Stage-one output of one fade state: its ranked candidates and its two extractors."""

    resolvable: bool
    entries: tuple[CandidateEntry, ...]
    extractors: tuple[CandidateEntry, CandidateEntry]


def state_channel(state: FadeState) -> tuple[complex, complex]:
    """Channel coefficient pair realizing a fade state."""
    return (0.0 + 0j, 1.0 + 0j) if state.infinite else (1.0 + 0j, state.value)


def _complement_basis(basis: tuple[int, ...], mu: int) -> tuple[int, ...]:
    """Standard-vector completion of a subspace basis to the full space."""
    _, pivots = rref_rows(basis, mu)
    taken = set(pivots)
    return tuple(1 << c for c in range(mu) if c not in taken)


def _candidate_rows(admissible: tuple[int, ...], t: int, mu: int) -> np.ndarray:
    """Bases of the rank-t row spaces mined for one state, one per row.

    With ``len(admissible) >= t`` these are the t-dim subspaces of the
    admissible space A; otherwise the t-dim spaces that contain A, each
    A plus a subspace of a fixed complement of A.
    """
    if len(admissible) >= t:
        return enumerate_subspaces(admissible, t)
    extra = enumerate_subspaces(_complement_basis(admissible, mu), t - len(admissible))
    return np.hstack((np.broadcast_to(np.array(admissible), (len(extra), len(admissible))), extra))


def mine_candidates(
    cat: SfsCatalog,
    t: int,
    limit: int | None = None,
) -> tuple[SfsCandidates, ...]:
    """Stage one: rank clash-consistent row spaces per state by d_min.

    A row space keeps every clash of a state on one NCV iff it lies in the
    admissible space A = D^perp, D being the span of the state's clash
    differences.  A resolvable state (dim A >= t) gets every t-dim
    subspace of A.  States whose clash structure leaves fewer than ``t``
    admissible row dimensions cannot be resolved by any rank-t binary
    matrix; they are flagged unresolvable and get the t-dim spaces that
    contain A, whose kernels lie inside D and so absorb the most clashes.
    Their d_min is 0, so the ranking falls to the distance among
    already-separated points.

    These are the orthogonal complements of the kernels K (dim mu - t) that
    contain D, and of those inside D, each space once: K -> K^perp is a
    bijection that reverses inclusion.  A space R containing A is A + F
    with F a subspace of a fixed complement C of A, and F = R & C is unique
    by the modular law (R = A + (R & C) whenever A <= R), so enumerating
    the subspaces F of C lists each such R once.

    Scores depend on the row space alone (a difference splits iff it is not
    in the kernel), so each state's bases are scored by two batched
    ``mapping_d_min`` calls, one per score kind.  The same calls score the
    state's two universal extractors (see ``assemble_store``), each one
    clash-consistent when its d_min is positive.  The sort key is (-d_min,
    -separated_d_min, canonical encoding).  Let (d_K, s_K) be the
    ``limit``-th best score pair: a space whose pair is worse trails at
    least ``limit`` others whatever its encoding, so only the spaces at or
    above (d_K, s_K), ties included, are brought to canonical RREF and
    sorted by the full key.  The result equals sorting every space by that
    key and cutting.
    """
    c = make_constellation(cat.modulation)
    m = c.bits_per_symbol
    mu = 2 * m
    if not m <= t <= mu:
        raise ValueError(f"t must be in [{m}, {mu}]")
    extractors = np.array([[1 << b for b in range(t)], [1 << b for b in range(mu - t, mu)]])
    out = []
    for entry in cat.entries:
        sc = superimpose(c, state_channel(entry.state))
        admissible = nullspace(clash_difference_basis(entry.partition, m), mu)
        resolvable = len(admissible) >= t
        rows = np.vstack((_candidate_rows(admissible, t, mu), extractors))
        sep = mapping_d_min(rows, sc, clash=entry.partition)     # also keeps the plain profile on sc
        d = mapping_d_min(rows, sc)
        ext = tuple(
            CandidateEntry(BitMatrix.from_row_ints(tuple(r), mu), float(dr), bool(dr > 0), float(sr))
            for r, dr, sr in zip(extractors.tolist(), d[-2:], sep[-2:])
        )
        rows, d, sep = rows[:-2], d[:-2], sep[:-2]
        if limit is not None and 0 < limit < len(rows):
            kth = np.lexsort((-sep, -d))[limit - 1]
            keep = (d > d[kth]) | ((d == d[kth]) & (sep >= sep[kth]))
            rows, d, sep = rows[keep], d[keep], sep[keep]
        canon = rref_stack(rows, mu)
        # BitMatrix.encoding; t * mu <= 64 bits for qam4 and qam16
        enc = np.bitwise_or.reduce(canon.astype(np.uint64) << (mu * np.arange(t, dtype=np.uint64)), axis=1)
        order = np.lexsort((enc, -sep, -d))[:limit]
        candidates = tuple(
            CandidateEntry(
                matrix=BitMatrix.from_row_ints(tuple(canon[k].tolist()), mu),
                d_min=float(d[k]),
                clash_consistent=resolvable,
                separated_d_min=float(sep[k]),
            )
            for k in order
        )
        out.append(SfsCandidates(resolvable=resolvable, entries=candidates, extractors=ext))
    return tuple(out)


@dataclass(frozen=True)
class CandidateStore:
    """Per-state candidate lists shared by the APs and the CPU."""

    modulation: str
    labeling_version: str
    t: int
    mu: int
    k_per_state: int
    rank_seed: int | None
    rank_trials: int | None
    states: tuple[FadeState, ...]
    lists: tuple[tuple[CandidateEntry, ...], ...]
    certified_n: int | None = None
    infeasible: tuple[tuple[int, ...], ...] = ()
    _verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _arrays(self) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
        """The lists as arrays, built on first use.

        Returns the distinct encodings in ascending order, then per state
        its entries' codes (ranks among those encodings) and stored
        distances, padded to a common width with the pad slot u = number
        of distinct encodings and distance 0, then the packed rows of each
        code's matrix (zeros at the pad slot).
        """
        distinct = sorted({e.matrix.encoding for l in self.lists for e in l})
        u = len(distinct)
        slot = {e: k for k, e in enumerate(distinct)}
        width = max((len(l) for l in self.lists), default=0) or 1
        code = np.full((len(self.lists), width), u)
        d = np.zeros((len(self.lists), width))
        for i, l in enumerate(self.lists):
            code[i, : len(l)] = [slot[e.matrix.encoding] for e in l]
            d[i, : len(l)] = [e.d_min for e in l]
        rows = np.zeros((u + 1, self.t), dtype=np.int64)
        for k, e in enumerate(distinct):
            rows[k] = BitMatrix.from_encoding(e, self.t, self.mu).rows
        return distinct, code, d, rows

    def _full_rank(self, n: int) -> np.ndarray:
        """Verdict array for ``n`` APs: ``full[c_1, ..., c_n]`` is whether
        the matrices with these codes stack to rank mu (False at the pad
        slot).  Built on first use for each ``n``, one ``rank_rows`` call per
        sorted code tuple, which fills all its orders (5,995 calls for 11,881
        pairs of 109 codes).

        A store holds a few distinct matrices (109 for the full qam16
        catalog at K=5), so certification, table building and on-line
        selection all read the same few thousand verdicts.
        """
        if n not in self._verdicts:
            distinct, _, _, rows = self._arrays
            u = len(distinct)
            packed = rows[:u].tolist()
            combos = list(itertools.combinations_with_replacement(range(u), n))
            ranks = [rank_rows([r for c in combo for r in packed[c]]) for combo in combos]
            by_sorted = np.zeros((u,) * n, dtype=bool)      # a stack's rank does not depend on its order
            by_sorted[tuple(np.array(combos, dtype=np.intp).reshape(-1, n).T)] = np.equal(ranks, self.mu)
            full = np.zeros((u + 1,) * n, dtype=bool)
            full[(slice(u),) * n] = by_sorted[tuple(np.sort(np.indices((u,) * n), axis=0))]
            self._verdicts[n] = full
        return self._verdicts[n]


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

    Nothing is scored here: ``mine_candidates`` scored the extractors with
    each state's candidates.  A list is the first K distinct matrices of the
    top K - 2 candidates, the extractors (when K >= 2), then the rest.
    """
    cut = max(0, k_per_state - 2)
    lists = []
    for r in rankings:
        first = {}
        for e in r.entries[:cut] + (r.extractors if k_per_state >= 2 else ()) + r.entries[cut:]:
            first.setdefault(e.matrix, e)
        lists.append(tuple(first.values())[:k_per_state])
    return CandidateStore(
        modulation=cat.modulation,
        labeling_version=cat.labeling_version,
        t=t,
        mu=2 * cat.bits_per_symbol,
        k_per_state=k_per_state,
        rank_seed=cat.rank_seed,
        rank_trials=cat.rank_trials,
        states=tuple(e.state for e in cat.entries),
        lists=tuple(lists),
    )


def _check_reaches_rank(store: CandidateStore, n_aps: int) -> None:
    """Refuse ``n_aps`` APs of t rows each, too few rows to stack to rank mu."""
    if n_aps * store.t < store.mu:
        raise ValueError(f"{n_aps} APs of {store.t} rows cannot reach rank {store.mu}")


def certify_store(store: CandidateStore, n_aps: int) -> CandidateStore:
    """Stage two: verify an invertible stack exists for every ordered tuple.

    Repeated indices are covered as well: two APs do land in the same fade
    with positive probability.  Any tuple without a full-rank combination
    is reported in the returned store rather than hidden.  The lists are
    kept as they are, so the store's certificate describes them, and the
    returned store shares the store's arrays and verdicts.

    The answer comes from the store's verdict arrays over its distinct
    encodings.  A tuple is feasible when some combination of its states'
    codes is full rank: each AP's code axis in turn is replaced by a state
    axis, taking ``any`` over that state's K codes (the pad slot reads
    False).
    """
    _check_reaches_rank(store, n_aps)
    _, code, _, _ = store._arrays
    feasible = store._full_rank(n_aps)
    for _ in range(n_aps):          # the leading code axis becomes a trailing state axis
        feasible = np.moveaxis(feasible[code].any(axis=1), 0, -1)
    out = replace(store, certified_n=n_aps, infeasible=tuple(map(tuple, np.argwhere(~feasible).tolist())))
    vars(out)["_arrays"] = store._arrays    # where cached_property keeps it: replace copies fields only
    out._verdicts.update(store._verdicts)
    return out


def build_store(
    cat: SfsCatalog,
    t: int,
    k_per_state: int,
    n_aps: int = 2,
) -> CandidateStore:
    """Mine, assemble, and certify in one call."""
    rankings = mine_candidates(cat, t, limit=k_per_state)
    return certify_store(assemble_store(cat, rankings, t, k_per_state), n_aps)


def _check_same_states(a: tuple[FadeState, ...], b: tuple[FadeState, ...], what: str) -> None:
    """States must match exactly, in the text form the artifact files store."""
    if len(a) != len(b):
        raise ValueError(f"{what} cover different state sets")
    for i, (s, e) in enumerate(zip(a, b)):
        if s.to_text() != e.to_text():
            raise ValueError(f"{what} states disagree in value at state {i}: {s.to_text()} and {e.to_text()}")


def _check_store_matches_catalog(store: CandidateStore, cat: SfsCatalog) -> None:
    if store.modulation != cat.modulation or store.labeling_version != cat.labeling_version:
        raise ValueError("store and catalog disagree on modulation or labeling")
    _check_same_states(store.states, tuple(e.state for e in cat.entries), "store and catalog")


@dataclass(frozen=True, eq=False)
class SelectionBatch:
    """Selections for a stack of frames: each AP's matrix and nearest state."""

    rows: np.ndarray            # (frames, APs, t): packed rows of each AP's matrix
    state_indices: np.ndarray   # (frames, APs)


def _pick_combination(full: np.ndarray, codes: list[np.ndarray], d: list[np.ndarray]) -> np.ndarray:
    """Best full-rank combination of per-AP candidates, over many
    candidate sets at once.

    ``codes[j]`` (shape (..., K), leading shapes broadcasting) lists AP j's
    candidates by rank among the store's distinct encodings, with the pad
    slot u past a list's end; ``d[j]`` holds their distances; ``full`` is
    the store's verdict array for n = len(codes) APs.  The best
    combination has the lowest key (-min(ds), -sum(ds), encodings): the
    largest worst-AP distance, then the largest sum (0 + d_1 + ... + d_n
    in AP order), then the lowest tuple of encodings.  The key is applied
    as successive filters over the K^n combinations: keep the full-rank
    ones, then those of maximal worst-AP distance, then those of maximal
    sum, then the lowest tuple of codes.  A key's minimum is the minimum of
    its first component, then of the second over the combinations that
    reach the first, and so on, so the filters find it.  Codes order tuples
    like the encodings themselves.  Returns the chosen code per AP on a new
    last axis, all u where no combination stacks to full rank.
    """
    n = len(codes)
    base = full.shape[0]        # u + 1

    def spread(a, j):           # AP j's K candidates on combination axis j
        return a.reshape(a.shape[:-1] + tuple(a.shape[-1] if i == j else 1 for i in range(n)))

    cs = [spread(c, j) for j, c in enumerate(codes)]
    ds = [spread(x, j) for j, x in enumerate(d)]
    axes = tuple(range(-n, 0))
    ok = full[tuple(cs)]
    worst = np.where(ok, reduce(np.minimum, ds), -np.inf)
    ok &= worst == worst.max(axis=axes, keepdims=True)
    total = np.where(ok, sum(ds), -np.inf)
    ok &= total == total.max(axis=axes, keepdims=True)
    # codes in base u + 1, most significant first; base**n - 1 reads (u, ..., u)
    pick = np.where(ok, reduce(lambda acc, c: acc * base + c, cs), base**n - 1).min(axis=axes)
    out = np.empty(pick.shape + (n,), dtype=np.int64)
    for j in reversed(range(n)):
        pick, out[..., j] = np.divmod(pick, base)
    return out


def _channel_stack(channels, n_aps: int | None = None) -> np.ndarray:
    """``channels`` as a complex (frames, APs, 2) array, with ``n_aps`` APs
    when given, or a ValueError naming its shape."""
    H = np.asarray(channels, dtype=complex)
    if H.ndim != 3 or H.shape[2] != 2 or n_aps not in (None, H.shape[1]):
        raise ValueError(f"channels must have shape (frames, {n_aps or 'APs'}, 2), not {H.shape}")
    return H


def select_mappings(
    store: CandidateStore,
    cat: SfsCatalog,
    channels: np.ndarray,
) -> SelectionBatch:
    """On-line selection for a stack of channel realizations (frames, APs, 2).

    Each AP resolves its channel to the nearest catalog state and offers
    that state's candidates; the CPU evaluates every cross-product choice
    at the true channels and keeps the best invertible stack
    (``_pick_combination``).  Each frame's selection is the one its
    channels alone give.
    """
    H = _channel_stack(channels)
    n_aps = H.shape[1]
    _, code, _, rows = store._arrays
    state, _ = nearest_sfs(cat, H)
    cand = code[state]                                          # (frames, APs, K)
    sc = superimpose(make_constellation(store.modulation), H[:, :, None, :])
    d = mapping_d_min(rows[cand], sc)
    chosen = _pick_combination(
        store._full_rank(n_aps), [cand[:, j] for j in range(n_aps)], [d[:, j] for j in range(n_aps)]
    )
    infeasible = np.flatnonzero(chosen[:, 0] == len(rows) - 1)
    if len(infeasible):
        raise SelectionInfeasibleError(
            f"no invertible stack for state tuple {tuple(state[infeasible[0]].tolist())}; store contract violated"
        )
    return SelectionBatch(rows=rows[chosen], state_indices=state)


@dataclass(frozen=True, eq=False)
class SelectionTable:
    """Precomputed per-state-tuple assignments for low-latency selection:
    ``values[choice[i_1, ..., i_n]]`` is the per-AP matrix encodings of state
    tuple (i_1, ..., i_n), or None, the marker of a tuple with no invertible
    stack.  ``choice`` is read-only, of the smallest signed type that fits."""

    modulation: str
    labeling_version: str
    t: int
    mu: int
    n_aps: int
    states: tuple[FadeState, ...]
    choice: np.ndarray
    values: tuple[tuple[int, ...] | None, ...]

    def __post_init__(self) -> None:
        self.choice.flags.writeable = False

    def __len__(self) -> int:
        return self.choice.size

    @property
    def entries(self) -> dict[tuple[int, ...], tuple[int, ...] | None]:
        """The table as a dict from state tuple to value, built on each
        call; the layer tracer (perfbench/tracer.py) counts markers in it."""
        keys = itertools.product(range(len(self.states)), repeat=self.n_aps)
        return dict(zip(keys, map(self.values.__getitem__, self.choice.ravel().tolist())))

    @cached_property
    def _rows(self) -> np.ndarray:
        """Each value's packed matrix rows, (values, APs, t); -1 throughout at the marker."""
        t, mu, n = self.t, self.mu, self.n_aps
        rows = [[[-1] * t] * n if v is None else [BitMatrix.from_encoding(e, t, mu).rows for e in v]
                for v in self.values]
        return np.array(rows, dtype=np.int64).reshape(-1, n, t)

    @property
    def markers(self) -> int:
        """Number of state tuples that carry the marker."""
        return int(np.count_nonzero(self._rows[:, 0, 0][self.choice] < 0))

    def check_equal(self, other: "SelectionTable", what: str = "tables") -> None:
        """Raise ValueError naming the first difference from ``other``: a
        header field, the states as the files write them, or else the first
        state tuple (C order) whose entry differs.  Value ids are the
        layout, not the content: renumbered values are no difference."""
        for name in ("modulation", "labeling_version", "t", "mu", "n_aps"):
            if getattr(self, name) != getattr(other, name):
                raise ValueError(f"{what} disagree on {name}: {getattr(self, name)!r} vs {getattr(other, name)!r}")
        _check_same_states(self.states, other.states, what)
        ids: dict = {}          # each distinct value, from either table, one id
        mine, theirs = (np.array([ids.setdefault(v, len(ids)) for v in tab.values], dtype=np.intp)[tab.choice]
                        for tab in (self, other))
        bad = np.argwhere(mine != theirs)
        if len(bad):
            tup = tuple(bad[0].tolist())
            a, b = (_format_value(tab.values[tab.choice[tup]]) for tab in (self, other))
            raise ValueError(f"{what} disagree at state tuple {tup}: {a} vs {b}")


def _table_entries(store: CandidateStore, n_aps: int) -> tuple[np.ndarray, tuple[tuple[int, ...] | None, ...]]:
    """``_pick_combination`` for every ordered tuple of ``n_aps`` states,
    as the table's ``choice`` and ``values``.

    Each tuple's K^n combinations are scored with the distances the store
    holds.  The tuples are taken a block of first states at a time, so each
    temporary stays near 2^16 elements; each tuple keeps its chosen codes
    as one key, and tuples with equal keys share one value id.
    """
    distinct, code, d, _ = store._arrays
    u = len(distinct)
    full = store._full_rank(n_aps)
    n, width = code.shape
    block = max(1, (1 << 16) // (max(n, 1) ** (n_aps - 1) * width**n_aps))

    def spread(a, j, states):   # AP j's states on leading axis j of n_aps
        return a[states].reshape(tuple(-1 if i == j else 1 for i in range(n_aps)) + (width,))

    place = (u + 1) ** np.arange(n_aps)[::-1]      # codes in base u + 1, most significant first
    keys = [np.zeros(0, dtype=np.int64)]            # a store of no states gives an empty table
    for i0 in range(0, n, block):
        states = [slice(i0, i0 + block)] + [slice(None)] * (n_aps - 1)
        codes = [spread(code, j, s) for j, s in enumerate(states)]
        dists = [spread(d, j, s) for j, s in enumerate(states)]
        keys.append(_pick_combination(full, codes, dists).reshape(-1, n_aps) @ place)
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    chosen = (keys[:, None] // place % (u + 1)).tolist()
    values = tuple(None if c[0] == u else tuple(map(distinct.__getitem__, c)) for c in chosen)
    return inverse.reshape((n,) * n_aps).astype(np.min_scalar_type(-len(values))), values


def build_selection_table(
    store: CandidateStore,
    cat: SfsCatalog | None = None,
    n_aps: int = 2,
) -> SelectionTable:
    """Evaluate every ordered state tuple at its fade-state channel points.

    Uses the same objective and tie-breaks as the on-line search, scored
    with the distances the store holds for each state.  Tuples with no
    invertible stack (possible only when certification reported them
    infeasible) carry a marker, on which ``table_lookup`` raises.  An
    ``n_aps`` that certification refuses is refused here too.  When ``cat``
    is given, the store is checked against it first.
    """
    _check_reaches_rank(store, n_aps)
    if cat is not None:
        _check_store_matches_catalog(store, cat)
    choice, values = _table_entries(store, n_aps)
    return SelectionTable(
        modulation=store.modulation,
        labeling_version=store.labeling_version,
        t=store.t,
        mu=store.mu,
        n_aps=n_aps,
        states=store.states,
        choice=choice,
        values=values,
    )


def table_lookup(
    table: SelectionTable,
    cat: SfsCatalog,
    channels: np.ndarray,
) -> SelectionBatch:
    """Regulated selection for a stack of channels (frames, table.n_aps, 2):
    nearest states, then a table read.

    Raises ``SelectionInfeasibleError`` on a tuple that carries the marker:
    the table was built from the store's lists for that tuple, and the
    on-line search over the same lists finds no invertible stack either.
    """
    H = _channel_stack(channels, table.n_aps)
    state, _ = nearest_sfs(cat, H)
    rows = table._rows[table.choice[tuple(state.T)]]
    hit = np.flatnonzero(rows[:, 0, 0] < 0)
    if len(hit):
        tup = tuple(state[hit[0]].tolist())
        raise SelectionInfeasibleError(f"no invertible stack for state tuple {tup}; the table marks it")
    return SelectionBatch(rows=rows, state_indices=state)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _format_entry(e: CandidateEntry) -> str:
    return f"{e.matrix.to_text()}|{float(e.d_min)!r}|{int(e.clash_consistent)}|{float(e.separated_d_min)!r}"


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
    write_artifact(path, "pnclab-store v2", header, body)


def load_store(path: str) -> CandidateStore:
    """Read a store file; a header line it does not read (an old ``d_alpha=``) is ignored.

    The ``certified_n=`` and ``infeasible=`` header is not trusted: a
    certified store is certified again for its ``n``, and a header that
    disagrees with its lists is refused.  The returned store keeps the
    verdicts that took, for the table build to read.
    """
    states = []
    lists = []
    with read_artifact(path, "pnclab-store v2") as (header, body):
        for ln in body:
            state_txt, entries_txt = (s.strip() for s in strip_index(path, ln, " @ ", len(states)).split(" @ ", 1))
            states.append(FadeState.from_text(state_txt))
            lists.append(tuple(_parse_entry(e) for e in entries_txt.split()))
    check_count(path, "states", int(header["states"]), len(states))
    store = CandidateStore(
        modulation=header["modulation"],
        labeling_version=header["labeling"],
        t=int(header["t"]),
        mu=int(header["mu"]),
        k_per_state=int(header["K"]),
        rank_seed=opt_int(header["rank_seed"]),
        rank_trials=opt_int(header["rank_trials"]),
        states=tuple(states),
        lists=tuple(lists),
    )
    for matrix in dict.fromkeys(e.matrix for entries in store.lists for e in entries):   # each distinct matrix once
        if (matrix.n_rows, matrix.n_cols) != (store.t, store.mu):
            raise ValueError(f"{path}: store entry {matrix.to_text()} is not {store.t}x{store.mu}")
        if rank_rows(matrix.rows) != store.t:
            raise ValueError("store entry violates the rank invariant")
    certified_n = opt_int(header["certified_n"])
    claimed = {tuple(map(int, part.split(","))) for part in header["infeasible"].split(";") if part}
    if certified_n is not None:
        store = certify_store(store, certified_n)
    wrong = sorted(claimed ^ set(store.infeasible))
    if wrong:
        raise ValueError(
            f"{path}: the header lists {len(claimed)} infeasible state tuples for n={certified_n}, "
            f"the lists give {len(store.infeasible)}; they differ at state tuple {wrong[0]}"
        )
    return store


def _format_value(v: tuple[int, ...] | None) -> str:
    return "fallback" if v is None else " ".join(format(e, "x") for e in v)


def save_table(table: SelectionTable, path: str) -> None:
    header = {
        "modulation": table.modulation,
        "labeling": table.labeling_version,
        "t": table.t,
        "mu": table.mu,
        "n": table.n_aps,
        "states": len(table.states),
        "values": len(table.values),
    }
    rows = table.choice.reshape(len(table.states) ** (table.n_aps - 1), len(table.states))
    write_artifact(path, "pnclab-table v3", header, itertools.chain(
        (f"state {i} @ {state.to_text()}" for i, state in enumerate(table.states)),
        (f"value {k} @ {_format_value(v)}" for k, v in enumerate(table.values)),
        (f"row {r} @ " + " ".join(map(str, row.tolist())) for r, row in enumerate(rows)),
    ))


def load_table(path: str) -> SelectionTable:
    """Read a table file: its states, its values, then ``choice`` as
    ``states**(n-1)`` rows of ``states`` value ids, in C order.  Each value
    must list ``n`` encodings below 2^(t*mu) whose rows stack to rank mu.
    Rows are parsed one at a time, so a header that claims more than the
    file holds is refused when the file runs out, with nothing allocated."""
    with read_artifact(path, "pnclab-table v3") as (header, body):
        t, mu, n, n_states, n_values = (int(header[k]) for k in ("t", "mu", "n", "states", "values"))
        if n < 1:
            raise ValueError(f"{path}: a table needs n >= 1 APs, not {n}")
        states = tuple(map(FadeState.from_text, records(path, body, "state", n_states)))
        values: list[tuple[int, ...] | None] = []
        for k, text in enumerate(records(path, body, "value", n_values)):
            encs = None if text.strip() == "fallback" else tuple(int(x, 16) for x in text.split())
            if encs is not None and len(encs) != n:
                raise ValueError(f"{path}: table value {k} lists {len(encs)} matrices, not {n}")
            if encs is not None and any(e >> (t * mu) for e in encs):
                raise ValueError(f"{path}: table value {k} lists an encoding of more than {t}x{mu} bits")
            if encs is not None and rank_rows([(e >> (r * mu)) & ((1 << mu) - 1) for e in encs for r in range(t)]) != mu:
                raise ValueError(f"{path}: table value {k} stacks to a singular global matrix")
            values.append(encs)
        dtype = np.min_scalar_type(-n_values)
        rows = []
        for r, text in enumerate(records(path, body, "row", n_states ** (n - 1))):
            row = np.array(text.split(), dtype=np.int64)
            if len(row) != n_states or np.any((row < 0) | (row >= n_values)):
                raise ValueError(f"{path}: table row {r} is not {n_states} ids of its {n_values} values")
            rows.append(row.astype(dtype))
        check_count(path, "table rows", len(rows), len(rows) + sum(1 for _ in body))
    return SelectionTable(
        modulation=header["modulation"],
        labeling_version=header["labeling"],
        t=t,
        mu=mu,
        n_aps=n,
        states=states,
        choice=np.array(rows, dtype=dtype).reshape((n_states,) * n),
        values=tuple(values),
    )
