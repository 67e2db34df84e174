import dataclasses

import numpy as np
import pytest

from pnclab.fade_states import (
    DegenerateChannelError,
    FadeState,
    SfsEntry,
    enumerate_sfs,
    load_catalog,
    nearest_sfs,
    rank_principal_sfs,
    remove_image_sfs,
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


def test_image_removal_is_noop_on_real_catalog(cat4):
    # frozen regression constant: all 13 partitions are distinct
    assert len(remove_image_sfs(cat4).entries) == len(cat4.entries)


def test_image_removal_merges_identical_partitions(cat4):
    first = cat4.entries[0]
    clone = SfsEntry(state=FadeState(value=123.0 + 0j), partition=first.partition)
    fake = dataclasses.replace(cat4, entries=cat4.entries + (clone,))
    merged = remove_image_sfs(fake)
    assert len(merged.entries) == len(cat4.entries)
    # the lowest-index representative was the one kept
    assert merged.entries[0] == first


def test_image_removal_keeps_distinct_partitions():
    a = SfsEntry(state=FadeState(1.0 + 0j), partition=((0, 1), (2,), (3,)))
    b = SfsEntry(state=FadeState(2.0 + 0j), partition=((0, 2), (1,), (3,)))
    cat = _tiny_catalog((a, b))
    assert len(remove_image_sfs(cat).entries) == 2


def _tiny_catalog(entries):
    from pnclab.fade_states import SfsCatalog

    return SfsCatalog(
        modulation="qam4",
        bits_per_symbol=2,
        eps=1e-9,
        labeling_version="gray-v1",
        entries=tuple(entries),
        n_raw_states=len(entries),
    )


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
        if not a.state.infinite:
            assert a.state.value == pytest.approx(b.state.value, abs=1e-11)


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
