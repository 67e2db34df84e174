import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab.fade_states import enumerate_sfs
from pnclab.gf2 import BitMatrix, mul_int, rank_f2
from pnclab.mapping import (
    COINCIDENCE_EPS,
    coincident_partition,
    difference_profiles,
    evaluate_mapping,
    joint_vector_table,
    mapping_d_min,
    min_cardinality_t,
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


class TestEvaluateMapping:
    def test_xor_map_at_unit_rotation_oracle(self, qam4):
        """Verdict comes from enumerating the origin clash directly."""
        sc = superimpose(qam4, (1.0, 1j))
        clash = coincident_partition(sc)
        w_of_tau, _ = joint_vector_table(2)
        verdict = True
        for block in clash:
            ncvs = {mul_int(XOR_MAP.rows, int(w_of_tau[t])) for t in block}
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
        assert rank_f2(mat) < 2
        assert len(set(ncv_table(mat, 2))) == 2 ** rank_f2(mat)

    def test_zero_matrix_single_cluster(self, qam4):
        sc = superimpose(qam4, (1.0, 0.5 + 0.25j))
        mat = BitMatrix.zeros(2, 4)
        assert len(set(ncv_table(mat, 2))) == 1
        assert mapping_d_min(mat.rows, sc) == np.inf

    def test_cluster_count_is_two_to_rank(self, qam4):
        for enc in range(256):
            mat = BitMatrix.from_encoding(enc, 2, 4)
            assert len(set(ncv_table(mat, 2))) == 2 ** rank_f2(mat)

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


class TestMinCardinality:
    def test_all_4qam_states_need_only_two_rows(self, qam4):
        cat = enumerate_sfs(qam4)
        for entry in cat.entries:
            h = (0.0, 1.0) if entry.state.infinite else (1.0, entry.state.value)
            sc = superimpose(qam4, h)
            t, mat = min_cardinality_t(sc, entry.partition)
            assert t == 2
            assert rank_f2(mat) == 2
            assert evaluate_mapping(mat, sc, entry.partition).d_min > 0

    def test_nonsingular_channel_needs_minimum(self, qam4):
        sc = superimpose(qam4, (1.0, 0.37 - 0.82j))
        clash = coincident_partition(sc)
        t, mat = min_cardinality_t(sc, clash)
        assert t == 2
        assert evaluate_mapping(mat, sc, clash).d_min > 0

    def test_adversarial_fallback_returns_identity(self, qam4):
        sc = superimpose(qam4, (1.0, 0.37 - 0.82j))
        everything = (tuple(range(16)),)
        t, mat = min_cardinality_t(sc, everything)
        assert t == 4
        assert mat == BitMatrix.identity(4)
