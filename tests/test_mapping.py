from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab.fade_states import enumerate_sfs
from pnclab.gf2 import BitMatrix, rank_rows
from pnclab.mapping import (
    coincident_partition,
    difference_profiles,
    joint_vector_table,
    mapping_d_min,
    superimpose,
)
from pnclab.modulation import make_constellation
from pnclab.search import state_channel

from oracles import bit_matrix, clash_consistent, ncv_table

XOR_MAP = bit_matrix([[1, 0, 1, 0], [0, 1, 0, 1]])

# the coincidence tolerance the package used before coincidence became
# exact; the oracles below keep that code to compare against
EPS = 1e-9


@pytest.fixture(scope="module")
def qam4():
    return make_constellation("qam4")


@pytest.fixture(scope="module")
def qam16():
    return make_constellation("qam16")


def lattice_superposition(c, h):
    """``h1*a + h2*b`` over the lattice coordinates of every joint message,
    in float arithmetic, as superimpose used to compute it for any channel."""
    h1, h2 = np.asarray(h, dtype=complex)
    return (h1 * c.lattice_points[:, None] + h2 * c.lattice_points[None, :]).ravel()


def eps_coincident(c, h, eps=EPS):
    """Oracle: which joint-message pairs coincide on the lattice within
    ``eps``, the test the separated profile used to run."""
    lat = lattice_superposition(c, h)
    return np.abs(lat[:, None] - lat[None, :]) <= eps


def clash_coincident(clash, size):
    """Which joint-message pairs share a block of ``clash``."""
    block = {t: k for k, members in enumerate(clash) for t in members}
    ids = np.array([block[t] for t in range(size)])
    return ids[:, None] == ids[None, :]


def brute_force_d_min(sc, matrix, clash=None):
    """Oracle: scan of every pair of joint messages on different NCVs,
    skipping pairs within one block of ``clash`` when it is given."""
    table = ncv_table(matrix, sc.constellation.bits_per_symbol)
    dist = np.abs(sc.points[:, None] - sc.points[None, :]) ** 2
    keep = table[:, None] != table[None, :]
    if clash is not None:
        keep &= ~clash_coincident(clash, len(sc.points))
    return float(dist[keep].min()) if keep.any() else np.inf


def _w_of_tau_loop(m):
    """Oracle: the label-bit loop joint_vector_table ran before it became
    a bit reversal."""
    size = 1 << m
    w_of_tau = np.empty(size * size, dtype=np.int64)
    for tau in range(size * size):
        i1, i2 = tau >> m, tau & (size - 1)
        w = 0
        for j in range(m):
            w |= ((i1 >> (m - 1 - j)) & 1) << j
            w |= ((i2 >> (m - 1 - j)) & 1) << (m + j)
        w_of_tau[tau] = w
    return w_of_tau


def _ncv_table_loop(matrix, m):
    """Oracle: the per-row parity loop ncv_table ran before it became a
    gather from the parity table."""
    w_of_tau = _w_of_tau_loop(m)
    out = np.zeros(len(w_of_tau), dtype=np.int64)
    for i, row in enumerate(matrix.rows):
        out |= (np.bitwise_count(w_of_tau & row).astype(np.int64) & 1) << i
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_joint_vector_table_matches_loop(m):
    table = joint_vector_table(m)
    want = _w_of_tau_loop(m)
    assert table.dtype == want.dtype and np.array_equal(table, want)
    assert np.array_equal(table[table], np.arange(len(want)))      # its own inverse
    assert not table.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.data())
def test_ncv_table_matches_loop(m, data):
    t = data.draw(st.integers(1, 2 * m))
    rows = data.draw(st.lists(st.integers(0, (1 << 2 * m) - 1), min_size=t, max_size=t))
    matrix = BitMatrix.from_row_ints(rows, 2 * m)
    got = ncv_table(matrix, m)
    assert got.dtype == np.int64 and np.array_equal(got, _ncv_table_loop(matrix, m))


def all_pairs_profiles(sc, coincident):
    """Oracle: every ordered pair of message vectors at every difference;
    the plain profile, and the one without the pairs that ``coincident``
    (indexed by joint index) marks."""
    tau_of_w = joint_vector_table(sc.constellation.bits_per_symbol)
    pts_w = sc.points[tau_of_w]
    idx = np.arange(len(pts_w))
    partner = idx[:, None] ^ idx[None, :]          # [w, d] -> w xor d
    dist = np.abs(pts_w[:, None] - pts_w[partner]) ** 2
    plain = dist.min(axis=0)
    separated = np.where(coincident[tau_of_w[:, None], tau_of_w[partner]], np.inf, dist).min(axis=0)
    plain[0] = np.inf
    separated[0] = np.inf
    return plain, separated


def assert_profiles_bit_exact(c, h, clash):
    """The plain profile, and the one without the pairs within a block of
    ``clash``, equal the all-pairs formula bit for bit."""
    sc = superimpose(c, h)
    plain, separated = all_pairs_profiles(sc, clash_coincident(clash, len(sc.points)))
    assert np.array_equal(difference_profiles(sc), plain)
    assert np.array_equal(difference_profiles(sc, clash), separated)


def round_partition(c, h, eps=EPS):
    """Oracle: joint indices grouped by ``round`` of both float lattice
    coordinates, one point at a time, as coincidence was found before it
    became exact.  The coordinates are numpy scalars, so ``round`` is
    numpy's ``rint(x * 10^d) / 10^d``."""
    decimals = max(0, int(round(-np.log10(eps))))
    groups = {}
    for tau, z in enumerate(lattice_superposition(c, h)):
        key = (round(z.real, decimals), round(z.imag, decimals))
        groups.setdefault(key, []).append(tau)
    return tuple(sorted(tuple(g) for g in groups.values()))


def gaussian_channel(state):
    """The Gaussian-integer channel ``(den, num)`` of a state ``num / den``,
    read back from its float with small denominators; ``(0, 1)`` at
    infinity."""
    if state.infinite:
        return 0, 1
    re, im = (Fraction(x).limit_denominator(1000) for x in (state.value.real, state.value.imag))
    den = re.denominator * im.denominator // np.gcd(re.denominator, im.denominator)
    return den, complex(re * den, im * den)


def eps_enumeration(c, eps=EPS):
    """Oracle: the state values, in catalog order, of the enumeration that
    deduplicated and sorted ratios by keys rounded at ``eps``."""
    decimals = max(0, int(round(-np.log10(eps))))

    def key(z):
        return (round(z.real, decimals), round(z.imag, decimals))

    lat = c.lattice_points
    diffs = sorted({key(a - b) for a in lat for b in lat if a != b})
    seen = {}
    for dr, di in [(0.0, 0.0)] + diffs:
        for er, ei in diffs:
            v = complex(dr, di) / complex(er, ei)
            seen.setdefault(key(v), v)
    return sorted(seen.values(), key=lambda z: (round(abs(z), decimals), round(np.arctan2(z.imag, z.real), decimals)))


coefficient = st.builds(
    complex,
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(-4.0, 4.0, allow_nan=False),
)
gaussian_integer = st.builds(complex, st.integers(-12, 12), st.integers(-12, 12))

# singular qam16 ratios: the two single-terminal states, a unit rotation,
# and 6 / (2 - 6j), a ratio of symbol differences
QAM16_SINGULAR = ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1.0, 1j), (1.0, 0.3 + 0.9j))


@pytest.mark.parametrize("modulation", ["qam4", "qam16"])
def test_exact_geometry_matches_eps_oracle(modulation):
    """Over the whole catalog, the exact enumeration gives today's floats
    in today's order, and each state's exact partition and separated
    profile equal the ones the 1e-9 lattice code gives at its float
    channel, all compared with ==."""
    c = make_constellation(modulation)
    cat = enumerate_sfs(c)
    finite = [e.state.value for e in cat.entries if not e.state.infinite]
    assert [(v.real.hex(), v.imag.hex()) for v in finite] == [(v.real.hex(), v.imag.hex()) for v in eps_enumeration(c)]
    assert cat.entries[-1].state.infinite
    for entry in cat.entries:
        h = state_channel(entry.state)
        assert entry.partition == round_partition(c, h)
        sc = superimpose(c, h)
        assert np.array_equal(difference_profiles(sc, entry.partition), all_pairs_profiles(sc, eps_coincident(c, h))[1])


class TestProfilesBitExact:
    """The half-pair profiles equal the all-pairs formula bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(h1=coefficient, h2=coefficient)
    def test_random_channels_qam4(self, qam4, h1, h2):
        assert_profiles_bit_exact(qam4, (h1, h2), round_partition(qam4, (h1, h2)))

    @settings(max_examples=25, deadline=None)
    @given(h1=coefficient, h2=coefficient)
    def test_random_channels_qam16(self, qam16, h1, h2):
        assert_profiles_bit_exact(qam16, (h1, h2), round_partition(qam16, (h1, h2)))

    def test_every_qam4_catalog_state(self, qam4):
        for entry in enumerate_sfs(qam4).entries:
            assert_profiles_bit_exact(qam4, state_channel(entry.state), entry.partition)

    @pytest.mark.parametrize("offset", [1e-12, 1e-12j, -1e-12 + 1e-12j, 1e-9, 3e-9j])
    def test_near_singular_channels(self, qam4, qam16, offset):
        # a channel just off a state, scored against that state's clashes:
        # their pairs are left out whatever their distance
        for entry in enumerate_sfs(qam4).entries:
            h1, h2 = state_channel(entry.state)
            assert_profiles_bit_exact(qam4, (h1, h2 + offset), entry.partition)
            assert_profiles_bit_exact(qam4, (h1 + offset, h2), entry.partition)
        for h1, h2 in QAM16_SINGULAR:
            clash = round_partition(qam16, (h1, h2))
            assert_profiles_bit_exact(qam16, (h1, h2 + offset), clash)
            assert_profiles_bit_exact(qam16, (h1 + offset, h2), clash)


class TestBatchedDMin:
    """A stack of row sets scores exactly as one call per row set."""

    @settings(max_examples=40, deadline=None)
    @given(
        modulation=st.sampled_from(["qam4", "qam16"]),
        h1=coefficient,
        h2=coefficient,
        seed=st.integers(0, 2**32 - 1),
        with_clash=st.booleans(),
    )
    def test_random_channels_and_rows(self, modulation, h1, h2, seed, with_clash):
        c = make_constellation(modulation)
        mu = 2 * c.bits_per_symbol
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 1 << mu, size=(3, 7, int(rng.integers(1, mu + 1))))
        entries = enumerate_sfs(c).entries
        clash = entries[int(rng.integers(len(entries)))].partition if with_clash else None
        sc = superimpose(c, (h1, h2))
        got = mapping_d_min(rows, sc, clash)
        want = [[mapping_d_min(tuple(r), sc, clash) for r in block] for block in rows.tolist()]
        assert got.shape == (3, 7)
        assert np.array_equal(got, np.array(want))

    @pytest.mark.parametrize("modulation", ["qam4", "qam16"])
    def test_singular_states(self, modulation):
        c = make_constellation(modulation)
        mu = 2 * c.bits_per_symbol
        rng = np.random.default_rng(4)
        for entry in enumerate_sfs(c).entries[::7]:
            sc = superimpose(c, state_channel(entry.state))
            rows = rng.integers(0, 1 << mu, size=(50, c.bits_per_symbol))
            for clash in (None, entry.partition):
                want = [mapping_d_min(tuple(r), sc, clash) for r in rows.tolist()]
                assert np.array_equal(mapping_d_min(rows, sc, clash), np.array(want))


class TestSuperimpose:
    def test_single_terminal_visible(self, qam4):
        sc = superimpose(qam4, (1.0, 0.0))
        vals = {round(z.real, 9) + 1j * round(z.imag, 9) for z in sc.points}
        assert len(vals) == 4
        part = coincident_partition(qam4, (1, 0))[0]
        assert sorted(len(b) for b in part) == [4, 4, 4, 4]

    def test_origin_clash_at_unit_rotation(self, qam4):
        part = coincident_partition(qam4, (1, 1j))[0]
        lat = lattice_superposition(qam4, (1, 1j))
        origin_blocks = [b for b in part if lat[b[0]] == 0 and len(b) > 1]
        assert len(origin_blocks) == 1 and len(origin_blocks[0]) == 4

    def test_ratio_of_symbol_differences_coincides(self, qam16):
        # 0.3+0.9j equals 6/(2-6j), a ratio of symbol differences, so the
        # superposition is singular: two joint messages land together
        assert any(len(b) > 1 for b in coincident_partition(qam16, (2 - 6j, 6))[0])
        assert coincident_partition(qam16, (2 - 6j, 6))[0] == round_partition(qam16, (1.0, 0.3 + 0.9j))

    def test_generic_16qam_channel_all_distinct(self, qam16):
        sc = superimpose(qam16, (1.0, 0.3117 + 0.8843j))
        assert len(sc.points) == 256
        # oracle: pairwise distances all positive
        d = np.abs(sc.points[:, None] - sc.points[None, :])
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-9

    def test_joint_index_order(self, qam4):
        # terminal-1 label occupies the high-order index bits
        sc = superimpose(qam4, (1.0, 0.0))
        for i1 in range(4):
            for i2 in range(4):
                assert sc.points[(i1 << 2) | i2] == pytest.approx(qam4.points[i1])


class TestCoincidentPartition:
    """The stacked, exact partition over Gaussian-integer channels against
    the per-point ``round`` oracle, compared with exact ==."""

    @pytest.mark.parametrize("modulation", ["qam4", "qam16"])
    def test_every_catalog_state(self, modulation):
        c = make_constellation(modulation)
        entries = enumerate_sfs(c).entries
        H = np.array([gaussian_channel(e.state) for e in entries], dtype=complex)
        parts = coincident_partition(c, H)
        assert list(parts) == [round_partition(c, state_channel(e.state)) for e in entries]
        assert list(parts) == [e.partition for e in entries]
        assert coincident_partition(c, H[-1]) == parts[-1:]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(gaussian_integer, gaussian_integer), min_size=1, max_size=6), st.booleans())
    def test_hypothesis_channels(self, qam4, qam16, pairs, sixteen):
        c = qam16 if sixteen else qam4
        parts = coincident_partition(c, np.array(pairs, dtype=complex))
        assert list(parts) == [round_partition(c, h) for h in pairs]

    @pytest.mark.parametrize("h", [(1.0, 0.3 + 0.9j), (0.5, 1), (1, complex(np.nan, 0)), (np.inf, 1)])
    def test_non_integer_channel_refused(self, qam4, h):
        with pytest.raises(ValueError, match="Gaussian-integer"):
            coincident_partition(qam4, h)


class TestEvaluateMapping:
    def test_xor_map_at_unit_rotation_oracle(self, qam4):
        """Verdict comes from enumerating the origin clash directly."""
        sc = superimpose(qam4, (1.0, 1j))
        clash = coincident_partition(qam4, (1, 1j))[0]
        w_of_tau = joint_vector_table(2)
        verdict = True
        for block in clash:
            # the NCV of w is the parity of each row against it
            ncvs = {tuple((row & int(w_of_tau[t])).bit_count() & 1 for row in XOR_MAP.rows) for t in block}
            if len(ncvs) > 1:
                verdict = False
        assert clash_consistent(XOR_MAP, clash, 2) == verdict
        assert (mapping_d_min(XOR_MAP.rows, sc) > 0) == verdict

    def test_d_min_matches_bruteforce(self, qam4, qam16):
        """Random channels and singular fade states, both profiles."""
        rng = np.random.default_rng(8)
        for c in (qam4, qam16):
            m = c.bits_per_symbol
            states = enumerate_sfs(c).entries
            singular = [states[i] for i in rng.choice(len(states), 10, replace=False)]
            random = [tuple((rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)) for _ in range(15)]
            cases = [(state_channel(e.state), e.partition) for e in singular] + [(h, round_partition(c, h)) for h in random]
            for h, clash in cases:
                sc = superimpose(c, h)
                mat = BitMatrix.from_encoding(int(rng.integers(1, 1 << (2 * m * m))), m, 2 * m)
                assert mapping_d_min(mat.rows, sc) == pytest.approx(brute_force_d_min(sc, mat), rel=1e-12)
                assert mapping_d_min(mat.rows, sc, clash) == pytest.approx(brute_force_d_min(sc, mat, clash), rel=1e-12)

    def test_zero_row_merges_clusters(self, qam4):
        mat = bit_matrix([[1, 0, 1, 0], [0, 0, 0, 0]])
        assert rank_rows(mat.rows) < 2
        assert len(set(ncv_table(mat, 2))) == 2 ** rank_rows(mat.rows)

    def test_zero_matrix_single_cluster(self, qam4):
        sc = superimpose(qam4, (1.0, 0.5 + 0.25j))
        mat = BitMatrix.from_row_ints((0, 0), 4)
        assert len(set(ncv_table(mat, 2))) == 1
        assert mapping_d_min(mat.rows, sc) == np.inf

    def test_cluster_count_is_two_to_rank(self, qam4):
        for enc in range(256):
            mat = BitMatrix.from_encoding(enc, 2, 4)
            assert len(set(ncv_table(mat, 2))) == 2 ** rank_rows(mat.rows)

    def test_ncv_linearity(self, qam4):
        tau_of_w = joint_vector_table(2)
        table = ncv_table(XOR_MAP, 2)
        rng = np.random.default_rng(9)
        for _ in range(64):
            wa, wb = int(rng.integers(0, 16)), int(rng.integers(0, 16))
            ta, tb, tc = tau_of_w[wa], tau_of_w[wb], tau_of_w[wa ^ wb]
            assert table[tc] == table[ta] ^ table[tb]

    def test_split_clash_zeroes_d_min(self, qam4):
        # a matrix splitting the origin clash of v = i realizes d_min = 0
        sc = superimpose(qam4, (1.0, 1j))
        clash = coincident_partition(qam4, (1, 1j))[0]
        mat = bit_matrix([[1, 0, 0, 0], [0, 1, 0, 0]])
        assert not clash_consistent(mat, clash, 2)
        assert mapping_d_min(mat.rows, sc) == 0.0

    def test_d_min_channel_scaling(self, qam4):
        h = (0.9 - 0.2j, 0.4 + 0.6j)
        base = mapping_d_min(XOR_MAP.rows, superimpose(qam4, h))
        rotated = mapping_d_min(XOR_MAP.rows, superimpose(qam4, (h[0] * 1j, h[1] * 1j)))
        scaled = mapping_d_min(XOR_MAP.rows, superimpose(qam4, (2 * h[0], 2 * h[1])))
        assert rotated == pytest.approx(base, rel=1e-12)
        assert scaled == pytest.approx(4 * base, rel=1e-12)

    def test_profiles_match_bruteforce(self, qam4):
        sc = superimpose(qam4, (1.0, 1j))
        plain = difference_profiles(sc)
        separated = difference_profiles(sc, coincident_partition(qam4, (1, 1j))[0])
        tau_of_w = joint_vector_table(2)
        pts = sc.points[tau_of_w]
        lat = lattice_superposition(qam4, (1, 1j))[tau_of_w]
        for d in range(1, 16):
            dist = np.abs(pts - pts[np.arange(16) ^ d]) ** 2
            assert plain[d] == pytest.approx(dist.min(), abs=1e-12)
            mask = np.abs(lat - lat[np.arange(16) ^ d]) > 1e-9
            want = dist[mask].min() if mask.any() else np.inf
            assert separated[d] == pytest.approx(want, abs=1e-12)
