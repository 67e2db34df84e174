import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab.fade_states import (
    DegenerateChannelError,
    FadeState,
    enumerate_sfs,
    load_catalog,
    nearest_indices,
    nearest_sfs,
    rank_principal_sfs,
    save_catalog,
    truncate_catalog,
)
from pnclab.modulation import make_constellation


@pytest.fixture(scope="module")
def cat4():
    return enumerate_sfs(make_constellation("qam4"))


def test_4qam_state_count(cat4):
    assert cat4.n_raw_states == 13
    assert cat4.n_states == 13
    assert len(cat4.entries) == 14  # ratio states plus the infinity entry
    assert cat4.infinite_index() is not None


def test_expected_4qam_values(cat4):
    got = {
        (round(e.state.value.real, 9), round(e.state.value.imag, 9))
        for e in cat4.entries
        if not e.state.infinite
    }
    want = {(0.0, 0.0)}
    want |= {(a / 2, b / 2) for a in (-1, 1) for b in (-1, 1)}
    want |= {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    want |= {(float(a), float(b)) for a in (-1, 1) for b in (-1, 1)}
    assert got == want


def test_every_state_induces_a_clash(cat4):
    for e in cat4.entries:
        assert any(len(b) > 1 for b in e.partition)


def test_conjugate_symmetry(cat4):
    vals = {
        (round(e.state.value.real, 9), round(e.state.value.imag, 9))
        for e in cat4.entries
        if not e.state.infinite
    }
    assert all((re, -im) in vals for re, im in vals)


@pytest.mark.parametrize("name", ["cat4", "cat16"])
def test_partitions_pairwise_distinct(request, name):
    """No two states share a clash partition (``enumerate_sfs`` gives the
    argument), so the catalog has no image states to merge."""
    cat = request.getfixturevalue(name)
    assert len({e.partition for e in cat.entries}) == len(cat.entries)


class TestRanking:
    def test_weights_sum_to_trials(self, cat4):
        ranked = rank_principal_sfs(cat4, n_trials=5000, rng_seed=3)
        assert sum(e.weight for e in ranked.entries) == 5000

    def test_deterministic(self, cat4):
        a = rank_principal_sfs(cat4, n_trials=4000, rng_seed=7)
        b = rank_principal_sfs(cat4, n_trials=4000, rng_seed=7)
        assert [e.state for e in a.entries] == [e.state for e in b.entries]
        assert [e.weight for e in a.entries] == [e.weight for e in b.entries]

    def test_sorted_descending(self, cat4):
        ranked = rank_principal_sfs(cat4, n_trials=20000, rng_seed=1)
        weights = [e.weight for e in ranked.entries]
        assert weights == sorted(weights, reverse=True)

    def test_truncation(self, cat4):
        ranked = rank_principal_sfs(cat4, n_trials=10000, rng_seed=1)
        assert len(truncate_catalog(ranked, 5).entries) == 5


class TestNearest:
    def test_exact_state(self, cat4):
        idx, dist = nearest_sfs(cat4, (1.0, 1j))
        assert not cat4.entries[idx].state.infinite
        assert cat4.entries[idx].state.value == pytest.approx(1j)
        assert dist == pytest.approx(0.0, abs=1e-18)

    def test_bruteforce_scan(self, cat4):
        """Oracle: independent distance scan over the enumerated catalog."""
        h = (1.0, 0.7 + 0.7j)
        v = h[1] / h[0]
        dists = [
            np.inf if e.state.infinite else abs(v - e.state.value) ** 2
            for e in cat4.entries
        ]
        want = int(np.argmin(dists))
        idx, dist = nearest_sfs(cat4, h)
        assert idx == want
        assert dist == pytest.approx(min(dists))
        # for this channel the winner is (1+1j)/2
        assert cat4.entries[idx].state.value == pytest.approx(0.5 + 0.5j)

    def test_vanishing_first_coefficient(self, cat4):
        idx, dist = nearest_sfs(cat4, (0.0, 1.0))
        assert cat4.entries[idx].state.infinite
        assert dist == 0.0

    def test_degenerate(self, cat4):
        with pytest.raises(DegenerateChannelError):
            nearest_sfs(cat4, (0.0, 0.0))

    def test_scale_invariance(self, cat4):
        rng = np.random.default_rng(2)
        for _ in range(40):
            h = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            a = complex(rng.standard_normal() + 1j * rng.standard_normal())
            if abs(a) < 1e-3:
                continue
            assert nearest_sfs(cat4, h)[0] == nearest_sfs(cat4, (a * h[0], a * h[1]))[0]


def brute_nearest(cat, ratios):
    """Oracle: argmin of the squared distance over every finite state."""
    vals = cat.finite_values()
    finite = np.flatnonzero(~np.isnan(vals))
    ratios = np.asarray(ratios, dtype=complex)
    return np.concatenate([
        finite[(np.abs(ratios[i : i + 2048, None] - vals[finite][None, :]) ** 2).argmin(axis=1)]
        for i in range(0, len(ratios), 2048)
    ])


@pytest.fixture(scope="module")
def cat16():
    return enumerate_sfs(make_constellation("qam16"))


@pytest.fixture(scope="module")
def ranked16(cat16):
    return rank_principal_sfs(cat16, n_trials=5000, rng_seed=2)


GRID_LINES = np.arange(-4.0, 4.0 + 1 / 64, 1 / 32)     # cell edges of the 256 x 256 grid over |Re|, |Im| < 4


def _nudged(x):
    """x and its two float neighbours."""
    return np.array([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


class TestNearestIndices:
    """The cell-list lookup against the brute-force argmin, index for index."""

    @pytest.mark.parametrize("name", ["cat4", "cat16"])
    def test_rayleigh_ratios(self, request, name):
        cat = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 20000))
        ratios = (h[0] + 1j * h[1]) / (h[2] + 1j * h[3])
        assert np.array_equal(nearest_indices(cat, ratios), brute_nearest(cat, ratios))

    @pytest.mark.parametrize("name", ["cat4", "cat16"])
    def test_exact_state_values(self, request, name):
        cat = request.getfixturevalue(name)
        vals = cat.finite_values()
        ratios = np.concatenate([_nudged(v.real) + 1j * v.imag for v in vals[~np.isnan(vals)]])
        assert np.array_equal(nearest_indices(cat, ratios), brute_nearest(cat, ratios))

    @pytest.mark.parametrize("name", ["cat4", "cat16"])
    def test_cell_edges_and_corners(self, request, name):
        cat = request.getfixturevalue(name)
        lines = np.concatenate([_nudged(x) for x in GRID_LINES])
        ratios = (lines[:, None] + 1j * lines[None, ::7]).ravel()
        ratios = np.concatenate([ratios, ratios.imag + 1j * ratios.real])
        assert np.array_equal(nearest_indices(cat, ratios), brute_nearest(cat, ratios))

    @pytest.mark.parametrize("name", ["cat4", "cat16"])
    def test_just_off_the_grid(self, request, name):
        cat = request.getfixturevalue(name)
        edge = np.concatenate([_nudged(4.0), _nudged(-4.0)])
        inner = np.linspace(-4.5, 4.5, 37)
        ratios = np.concatenate([
            (edge[:, None] + 1j * inner[None, :]).ravel(),
            (inner[:, None] + 1j * edge[None, :]).ravel(),
            np.array([1e6 + 1e6j, -1e-300 + 50j, np.nan, np.inf, complex(np.inf, np.nan)]),
        ])
        assert np.array_equal(nearest_indices(cat, ratios), brute_nearest(cat, ratios))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), min_size=1, max_size=200
        ),
        st.integers(1, 389),
    )
    def test_random_ratios_on_truncated_catalogs(self, ranked16, points, keep):
        cat = truncate_catalog(ranked16, keep)
        if np.isnan(cat.finite_values()).all():
            return      # only the infinity entry is left: no finite state to be nearest
        ratios = np.array([complex(x, y) for x, y in points])
        assert np.array_equal(nearest_indices(cat, ratios), brute_nearest(cat, ratios))

    @pytest.mark.parametrize("name", ["cat4", "cat16"])
    def test_catalog_without_the_zero_state(self, request, name):
        """Near the origin the nearest state is then some distance away, so
        a cell padding that read as a state value could win there."""
        cat = request.getfixturevalue(name)
        cat = dataclasses.replace(cat, entries=tuple(e for e in cat.entries if e.state.infinite or e.state.value != 0))
        rng = np.random.default_rng(3)
        ratios = (rng.standard_normal(20000) + 1j * rng.standard_normal(20000)) * 0.3
        assert np.array_equal(nearest_indices(cat, ratios), brute_nearest(cat, ratios))

    def test_infinity_entry_in_the_middle(self, cat4):
        entries = cat4.entries
        inf = next(i for i, e in enumerate(entries) if e.state.infinite)
        moved = dataclasses.replace(cat4, entries=entries[:3] + (entries[inf],) + entries[3:inf] + entries[inf + 1 :])
        ratios = np.random.default_rng(1).standard_normal(2000) * (1 + 1j) * 2
        got = nearest_indices(moved, ratios)
        assert 3 not in got
        assert np.array_equal(got, brute_nearest(moved, ratios))


def test_catalog_io_roundtrip(tmp_path, cat4):
    ranked = rank_principal_sfs(cat4, n_trials=3000, rng_seed=5)
    path = tmp_path / "cat.txt"
    save_catalog(ranked, str(path))
    loaded = load_catalog(str(path))
    assert loaded.modulation == ranked.modulation
    assert loaded.n_raw_states == ranked.n_raw_states
    assert loaded.rank_seed == 5 and loaded.rank_trials == 3000
    assert len(loaded.entries) == len(ranked.entries)
    for a, b in zip(loaded.entries, ranked.entries):
        assert a.partition == b.partition
        assert a.weight == b.weight
        assert a.state.infinite == b.state.infinite
        assert a.state.value == b.state.value     # written as text that reads back to the same float
    assert loaded == ranked


def test_catalog_rejects_other_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("something else\n")
    with pytest.raises(ValueError):
        load_catalog(str(p))


def test_catalog_truncated_file_refused(tmp_path, cat4):
    path = tmp_path / "cat.txt"
    save_catalog(cat4, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="entries"):
        load_catalog(str(path))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 13), st.integers(0, 10**7)), min_size=1, max_size=12, unique_by=lambda p: p[0]),
    st.one_of(st.none(), st.integers(0, 2**31)),
    st.one_of(st.none(), st.integers(1, 10**7)),
)
def test_catalog_save_load_save_bytes(cat4, picks, rank_seed, rank_trials):
    """An ordered subset of the real qam4 entries, with any weights and
    rank fields, loads back entry for entry and saves to the same bytes."""
    entries = tuple(dataclasses.replace(cat4.entries[i], weight=w) for i, w in picks)
    cat = dataclasses.replace(cat4, entries=entries, rank_seed=rank_seed, rank_trials=rank_trials)
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a"), os.path.join(d, "b")
        save_catalog(cat, first)
        loaded = load_catalog(first)
        save_catalog(loaded, second)
        assert open(first, "rb").read() == open(second, "rb").read()
    assert loaded == cat        # entries, raw-state count and rank fields


def test_loaded_qam16_catalog_equals_built(tmp_path, ranked16):
    """The full qam16 ranking loads back with the build's states,
    partitions, weights, raw-state count and rank fields (qam4 and 24 or 50
    qam16 states: the tests above and ``test_search.TestRoundTripProperties``)."""
    save_catalog(ranked16, str(tmp_path / "cat.txt"))
    assert load_catalog(str(tmp_path / "cat.txt")) == ranked16


@pytest.mark.parametrize("text", ["nan,0", "0,nan", "inf,0", "1,-inf"])
def test_non_finite_state_refused(tmp_path, cat4, text):
    """A NaN part used to load, and the catalog then took the first NaN
    for its infinity entry."""
    with pytest.raises(ValueError, match="not finite"):
        FadeState.from_text(text)
    path = tmp_path / "cat.txt"
    save_catalog(cat4, str(path))
    state = cat4.entries[0].state.to_text()
    path.write_text(path.read_text().replace(f"0; {state}; ", f"0; {text}; ", 1))
    with pytest.raises(ValueError, match="not finite"):
        load_catalog(str(path))


def test_non_singular_state_refused(tmp_path, cat4):
    """A line may only name a state that the enumeration lists."""
    path = tmp_path / "cat.txt"
    save_catalog(cat4, str(path))
    state = cat4.entries[2].state.to_text()
    path.write_text(path.read_text().replace(f"2; {state}; ", "2; 0.3,0.0; ", 1))
    with pytest.raises(ValueError, match=r"entry 2's state 0\.3,0\.0 is not a singular fade state of qam4"):
        load_catalog(str(path))


def test_other_labeling_refused(tmp_path, cat4):
    path = tmp_path / "cat.txt"
    save_catalog(cat4, str(path))
    path.write_text(path.read_text().replace("labeling=gray-v1\n", "labeling=gray-v0\n", 1))
    with pytest.raises(ValueError, match="labeling gray-v0 is not qam4's gray-v1"):
        load_catalog(str(path))


def test_catalog_swapped_lines_refused(tmp_path, cat4):
    """Each line's leading index must be its position: two lines swapped
    used to load in the swapped order."""
    path = tmp_path / "cat.txt"
    save_catalog(cat4, str(path))
    lines = path.read_text().splitlines()
    i = lines.index(next(ln for ln in lines if ln.startswith("3; ")))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="record 3 carries index '4'"):
        load_catalog(str(path))


def test_catalog_repeated_state_refused(tmp_path, cat4):
    """Entry 0 appended again used to load as a 15th entry that is never
    nearest (nearest_indices ties to the lowest index)."""
    path = tmp_path / "cat.txt"
    save_catalog(cat4, str(path))
    n = len(cat4.entries)
    text = path.read_text().replace(f"entries={n}\n", f"entries={n + 1}\n", 1)
    path.write_text(text + f"{n}; {cat4.entries[0].state.to_text()}; 7\n")
    with pytest.raises(ValueError, match=rf"cat\.txt: entries 0 and {n} both list state 0\.0,0\.0$"):
        load_catalog(str(path))


@pytest.mark.parametrize(
    "line, message",
    [
        ("1; {state}", r"entry 1 has 1 fields after its index, not 2 \(state; weight\)"),
        ("1; {state}; 5; 6", r"entry 1 has 3 fields after its index, not 2 \(state; weight\)"),
        ("1; {state}; 5.0", r"entry 1 has weight '5\.0', not a non-negative integer"),
        ("1; {state}; -5", r"entry 1 has weight '-5', not a non-negative integer"),
        ("1; {state}; ", r"entry 1 has weight '', not a non-negative integer"),
    ],
    ids=["missing-field", "extra-field", "float-weight", "negative-weight", "empty-weight"],
)
def test_catalog_malformed_line_named(tmp_path, cat4, line, message):
    """A malformed line is refused naming the file and the entry, not with
    a bare unpacking or int() error."""
    path = tmp_path / "cat.txt"
    save_catalog(cat4, str(path))
    lines = path.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("1; "))
    lines[i] = line.format(state=cat4.entries[1].state.to_text())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"cat\.txt: " + message):
        load_catalog(str(path))


def brute_nearest_sfs(cat, h):
    """Oracle: the one-pair scan in Python arithmetic, h2/h1 by Python's
    complex division, argmin over every finite state."""
    h1, h2 = complex(h[0]), complex(h[1])
    if h1 == 0:
        if cat.infinite_index() is not None:
            return cat.infinite_index(), 0.0
        v = complex(1e18, 0.0)
    else:
        v = h2 / h1
    d = np.abs(v - cat.finite_values()) ** 2
    d[np.isnan(d)] = np.inf
    i = int(np.argmin(d))
    return i, float(d[i])


_PART = st.one_of(st.just(0.0), st.floats(-5.0, 5.0).filter(lambda x: x == 0 or abs(x) >= 1e-6))
_COEF = st.builds(complex, _PART, _PART)


class TestNearestSfsArray:
    """The array form of ``nearest_sfs`` against the brute-force scan, pair
    for pair: h1 == 0, ratios off the cell grid (|h2/h1| > 4) and truncated
    catalogs included."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_COEF, _COEF), min_size=1, max_size=40), st.integers(1, 390), st.booleans())
    def test_matches_bruteforce(self, ranked16, cat4, pairs, keep, qam16):
        cat = truncate_catalog(ranked16, keep) if qam16 else truncate_catalog(cat4, 1 + keep % len(cat4.entries))
        if np.isnan(cat.finite_values()).all():
            return      # only the infinity entry is left: no finite state to be nearest
        H = np.array(pairs, dtype=complex)
        if any(h1 == 0 and h2 == 0 for h1, h2 in pairs):
            with pytest.raises(DegenerateChannelError):
                nearest_sfs(cat, H)
            return
        idx, dist = nearest_sfs(cat, H)
        want = [brute_nearest_sfs(cat, h) for h in pairs]
        assert idx.tolist() == [i for i, _ in want]
        assert dist.tolist() == [d for _, d in want]
        assert [nearest_sfs(cat, h) for h in pairs] == want

    def test_leading_axes(self, cat4):
        H = np.random.default_rng(4).standard_normal((5, 2, 2)) * (1 + 1j)
        idx, dist = nearest_sfs(cat4, H)
        assert idx.shape == dist.shape == (5, 2)
        assert idx[3, 1] == nearest_sfs(cat4, H[3, 1])[0]
