import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab.fade_states import enumerate_sfs
from pnclab.gf2 import BitMatrix, rank_rows
from pnclab.mapping import (
    COINCIDENCE_EPS,
    SuperimposedConstellation,
    coincident_partition,
    difference_profiles,
    evaluate_mapping,
    joint_vector_table,
    mapping_d_min,
    ncv_table,
    superimpose,
)
from pnclab.modulation import make_constellation
from pnclab.search import state_channel

XOR_MAP = BitMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])


@pytest.fixture(scope="module")
def qam4():
    return make_constellation("qam4")


@pytest.fixture(scope="module")
def qam16():
    return make_constellation("qam16")


def brute_force_d_min(sc, matrix, separated_only=False, eps=COINCIDENCE_EPS):
    """Oracle: scan of every pair of joint messages on different NCVs,
    skipping pairs that coincide on the lattice when ``separated_only``."""
    table = ncv_table(matrix, sc.constellation.bits_per_symbol)
    dist = np.abs(sc.points[:, None] - sc.points[None, :]) ** 2
    keep = table[:, None] != table[None, :]
    if separated_only:
        keep &= np.abs(sc.lattice_points[:, None] - sc.lattice_points[None, :]) > eps
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
    w_of_tau, tau_of_w = joint_vector_table(m)
    want = _w_of_tau_loop(m)
    assert w_of_tau.dtype == want.dtype and np.array_equal(w_of_tau, want)
    assert np.array_equal(tau_of_w[w_of_tau], np.arange(len(want)))
    assert not w_of_tau.flags.writeable and not tau_of_w.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.data())
def test_ncv_table_matches_loop(m, data):
    t = data.draw(st.integers(1, 2 * m))
    rows = data.draw(st.lists(st.integers(0, (1 << 2 * m) - 1), min_size=t, max_size=t))
    matrix = BitMatrix.from_row_ints(rows, 2 * m)
    got = ncv_table(matrix, m)
    assert got.dtype == np.int64 and np.array_equal(got, _ncv_table_loop(matrix, m))


def all_pairs_profiles(sc, eps=COINCIDENCE_EPS):
    """Oracle: every ordered pair of message vectors at every difference."""
    _, tau_of_w = joint_vector_table(sc.constellation.bits_per_symbol)
    pts_w = sc.points[tau_of_w]
    lat_w = sc.lattice_points[tau_of_w]
    idx = np.arange(len(pts_w))
    partner = idx[:, None] ^ idx[None, :]          # [w, d] -> w xor d
    dist = np.abs(pts_w[:, None] - pts_w[partner]) ** 2
    coincident = np.abs(lat_w[:, None] - lat_w[partner]) <= eps
    plain = dist.min(axis=0)
    separated = np.where(coincident, np.inf, dist).min(axis=0)
    plain[0] = np.inf
    separated[0] = np.inf
    return plain, separated


def assert_profiles_bit_exact(c, h):
    got = difference_profiles(superimpose(c, h))
    want = all_pairs_profiles(superimpose(c, h))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


coefficient = st.builds(
    complex,
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(-4.0, 4.0, allow_nan=False),
)

# singular qam16 ratios: the two single-terminal states, a unit rotation,
# and 6 / (2 - 6j), a ratio of symbol differences
QAM16_SINGULAR = ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1.0, 1j), (1.0, 0.3 + 0.9j))


class TestProfilesBitExact:
    """The half-pair profiles equal the all-pairs formula bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(h1=coefficient, h2=coefficient)
    def test_random_channels_qam4(self, qam4, h1, h2):
        assert_profiles_bit_exact(qam4, (h1, h2))

    @settings(max_examples=25, deadline=None)
    @given(h1=coefficient, h2=coefficient)
    def test_random_channels_qam16(self, qam16, h1, h2):
        assert_profiles_bit_exact(qam16, (h1, h2))

    def test_every_qam4_catalog_state(self, qam4):
        for entry in enumerate_sfs(qam4).entries:
            assert_profiles_bit_exact(qam4, state_channel(entry.state))

    @pytest.mark.parametrize("offset", [1e-12, 1e-12j, -1e-12 + 1e-12j, 1e-9, 3e-9j])
    def test_near_singular_channels(self, qam4, qam16, offset):
        # 1e-12 keeps the clashes coincident on the lattice while lifting
        # their distance off zero; 1e-9 and 3e-9 separate them on the
        # lattice, with normalized distances either side of 4 * eps**2
        for entry in enumerate_sfs(qam4).entries:
            h1, h2 = state_channel(entry.state)
            assert_profiles_bit_exact(qam4, (h1, h2 + offset))
            assert_profiles_bit_exact(qam4, (h1 + offset, h2))
        for h1, h2 in QAM16_SINGULAR:
            assert_profiles_bit_exact(qam16, (h1, h2 + offset))
            assert_profiles_bit_exact(qam16, (h1 + offset, h2))


class TestBatchedDMin:
    """A stack of row sets scores exactly as one call per row set."""

    @settings(max_examples=40, deadline=None)
    @given(
        modulation=st.sampled_from(["qam4", "qam16"]),
        h1=coefficient,
        h2=coefficient,
        seed=st.integers(0, 2**32 - 1),
        separated_only=st.booleans(),
    )
    def test_random_channels_and_rows(self, modulation, h1, h2, seed, separated_only):
        c = make_constellation(modulation)
        mu = 2 * c.bits_per_symbol
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 1 << mu, size=(3, 7, int(rng.integers(1, mu + 1))))
        sc = superimpose(c, (h1, h2))
        got = mapping_d_min(rows, sc, separated_only=separated_only)
        want = [[mapping_d_min(tuple(r), sc, separated_only=separated_only) for r in block] for block in rows.tolist()]
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
            for separated_only in (False, True):
                want = [mapping_d_min(tuple(r), sc, separated_only=separated_only) for r in rows.tolist()]
                assert np.array_equal(mapping_d_min(rows, sc, separated_only=separated_only), np.array(want))


class TestSuperimpose:
    def test_single_terminal_visible(self, qam4):
        sc = superimpose(qam4, (1.0, 0.0))
        vals = {round(z.real, 9) + 1j * round(z.imag, 9) for z in sc.points}
        assert len(vals) == 4
        part = coincident_partition(sc)
        assert sorted(len(b) for b in part) == [4, 4, 4, 4]

    def test_origin_clash_at_unit_rotation(self, qam4):
        sc = superimpose(qam4, (1.0, 1j))
        part = coincident_partition(sc)
        origin_blocks = [
            b for b in part if abs(sc.lattice_points[b[0]]) < 1e-9 and len(b) > 1
        ]
        assert len(origin_blocks) == 1 and len(origin_blocks[0]) == 4

    def test_ratio_of_symbol_differences_coincides(self, qam16):
        # 0.3+0.9j equals 6/(2-6j), a ratio of symbol differences, so the
        # superposition is singular: two joint messages land together
        sc = superimpose(qam16, (1.0, 0.3 + 0.9j))
        assert any(len(b) > 1 for b in coincident_partition(sc))

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


def round_partition(sc, eps=COINCIDENCE_EPS):
    """Oracle: joint indices grouped by ``round`` of both lattice
    coordinates, one point at a time.  The coordinates are numpy scalars,
    so ``round`` is numpy's ``rint(x * 10^d) / 10^d``."""
    decimals = max(0, int(round(-np.log10(eps))))
    groups = {}
    for tau, z in enumerate(sc.lattice_points):
        key = (round(z.real, decimals), round(z.imag, decimals))
        groups.setdefault(key, []).append(tau)
    return tuple(sorted(tuple(g) for g in groups.values()))


_RATIO = st.builds(lambda p, q: p / q, st.integers(-12, 12), st.integers(1, 12))
_CHANNEL_PART = st.one_of(_RATIO, st.floats(-8.0, 8.0))


class TestCoincidentPartition:
    """The stacked, array-keyed partition against the per-point ``round``
    oracle, compared with exact ==."""

    @pytest.mark.parametrize("modulation", ["qam4", "qam16"])
    def test_every_catalog_state(self, modulation):
        c = make_constellation(modulation)
        H = np.array([state_channel(e.state) for e in enumerate_sfs(c).entries], dtype=complex)
        parts = coincident_partition(superimpose(c, H))
        assert list(parts) == [round_partition(superimpose(c, h)) for h in H]
        assert coincident_partition(superimpose(c, H[-1])) == parts[-1]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(*[st.builds(complex, _CHANNEL_PART, _CHANNEL_PART)] * 2), min_size=1, max_size=6),
        st.booleans(),
    )
    def test_hypothesis_channels(self, qam4, qam16, pairs, sixteen):
        c = qam16 if sixteen else qam4
        parts = coincident_partition(superimpose(c, np.array(pairs, dtype=complex)))
        assert list(parts) == [round_partition(superimpose(c, h)) for h in pairs]

    def test_values_either_side_of_a_half_way_point(self, qam4):
        """Coordinates at half a unit of the ninth decimal and a few ulps
        either side, exact dyadic halves (1/1024) and magnitudes past 2^20.
        For some of them numpy's rounding and a Python float's correctly
        rounded ``round`` disagree; the partition follows numpy's, as the
        per-point keys always have."""
        rng = np.random.default_rng(3)
        centres = [5.9127555775, 5.8506242255, 7.8631789225, 30.2254357635, 1 / 1024, 3 / 1024, -5.8506242255]
        centres += list(rng.choice([1.0, 40.0, 2.0**19, 3.0e6], 24) + (rng.integers(0, 10**9, 24) + 0.5) / 1e9)
        rows = []
        for x in centres:
            near = [x + 1e-9, x - 1e-9]
            for k in range(-3, 4):
                near.append(float(np.nextafter(x, k * np.inf, dtype=float) if k else x))
                for _ in range(abs(k) - 1):
                    near[-1] = float(np.nextafter(near[-1], k * np.inf))
            rows.append(rng.choice(near, 16) + 1j * rng.choice(near, 16))
        lattice = np.array(rows)
        assert any(np.rint(v * 1e9) / 1e9 != round(v, 9) for v in lattice.real.ravel().tolist())
        sc = SuperimposedConstellation(constellation=qam4, points=lattice, lattice_points=lattice)
        parts = coincident_partition(sc)
        want = [round_partition(SuperimposedConstellation(qam4, row, row)) for row in lattice]
        assert list(parts) == want
        assert any(1 < len(b) < 16 for p in want for b in p)


class TestEvaluateMapping:
    def test_xor_map_at_unit_rotation_oracle(self, qam4):
        """Verdict comes from enumerating the origin clash directly."""
        sc = superimpose(qam4, (1.0, 1j))
        clash = coincident_partition(sc)
        w_of_tau, _ = joint_vector_table(2)
        verdict = True
        for block in clash:
            # the NCV of w is the parity of each row against it
            ncvs = {tuple((row & int(w_of_tau[t])).bit_count() & 1 for row in XOR_MAP.rows) for t in block}
            if len(ncvs) > 1:
                verdict = False
        q = evaluate_mapping(XOR_MAP, sc, clash)
        assert q.clash_consistent == verdict
        assert (q.d_min > 0) == verdict

    def test_d_min_matches_bruteforce(self, qam4, qam16):
        """Random channels and singular fade states, both profiles."""
        rng = np.random.default_rng(8)
        for c in (qam4, qam16):
            m = c.bits_per_symbol
            states = enumerate_sfs(c).entries
            singular = [state_channel(states[i].state) for i in rng.choice(len(states), 10, replace=False)]
            random = [tuple((rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)) for _ in range(15)]
            for h in singular + random:
                sc = superimpose(c, h)
                mat = BitMatrix.from_encoding(int(rng.integers(1, 1 << (2 * m * m))), m, 2 * m)
                assert evaluate_mapping(mat, sc).d_min == pytest.approx(brute_force_d_min(sc, mat), rel=1e-12)
                assert mapping_d_min(mat.rows, sc, separated_only=True) == pytest.approx(
                    brute_force_d_min(sc, mat, separated_only=True), rel=1e-12
                )

    def test_zero_row_merges_clusters(self, qam4):
        mat = BitMatrix.from_rows([[1, 0, 1, 0], [0, 0, 0, 0]])
        assert rank_rows(mat.rows) < 2
        assert len(set(ncv_table(mat, 2))) == 2 ** rank_rows(mat.rows)

    def test_zero_matrix_single_cluster(self, qam4):
        sc = superimpose(qam4, (1.0, 0.5 + 0.25j))
        mat = BitMatrix.zeros(2, 4)
        assert len(set(ncv_table(mat, 2))) == 1
        assert mapping_d_min(mat.rows, sc) == np.inf

    def test_cluster_count_is_two_to_rank(self, qam4):
        for enc in range(256):
            mat = BitMatrix.from_encoding(enc, 2, 4)
            assert len(set(ncv_table(mat, 2))) == 2 ** rank_rows(mat.rows)

    def test_ncv_linearity(self, qam4):
        w_of_tau, tau_of_w = joint_vector_table(2)
        table = ncv_table(XOR_MAP, 2)
        rng = np.random.default_rng(9)
        for _ in range(64):
            wa, wb = int(rng.integers(0, 16)), int(rng.integers(0, 16))
            ta, tb, tc = tau_of_w[wa], tau_of_w[wb], tau_of_w[wa ^ wb]
            assert table[tc] == table[ta] ^ table[tb]

    def test_split_clash_zeroes_d_min(self, qam4):
        # a matrix splitting the origin clash of v = i realizes d_min = 0
        sc = superimpose(qam4, (1.0, 1j))
        clash = coincident_partition(sc)
        mat = BitMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
        q = evaluate_mapping(mat, sc, clash)
        assert not q.clash_consistent
        assert q.d_min == 0.0

    def test_d_min_channel_scaling(self, qam4):
        h = (0.9 - 0.2j, 0.4 + 0.6j)
        base = evaluate_mapping(XOR_MAP, superimpose(qam4, h)).d_min
        rotated = evaluate_mapping(
            XOR_MAP, superimpose(qam4, (h[0] * 1j, h[1] * 1j))
        ).d_min
        scaled = evaluate_mapping(
            XOR_MAP, superimpose(qam4, (2 * h[0], 2 * h[1]))
        ).d_min
        assert rotated == pytest.approx(base, rel=1e-12)
        assert scaled == pytest.approx(4 * base, rel=1e-12)

    def test_profiles_match_bruteforce(self, qam4):
        sc = superimpose(qam4, (1.0, 1j))
        plain, separated = difference_profiles(sc)
        w_of_tau, tau_of_w = joint_vector_table(2)
        pts = sc.points[tau_of_w]
        lat = sc.lattice_points[tau_of_w]
        for d in range(1, 16):
            dist = np.abs(pts - pts[np.arange(16) ^ d]) ** 2
            assert plain[d] == pytest.approx(dist.min(), abs=1e-12)
            mask = np.abs(lat - lat[np.arange(16) ^ d]) > 1e-9
            want = dist[mask].min() if mask.any() else np.inf
            assert separated[d] == pytest.approx(want, abs=1e-12)
