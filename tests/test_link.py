import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab import link
from pnclab.link import (
    QuantizerSpec,
    comp_combine,
    comp_ideal,
    comp_nonideal_llrs,
    dequantize_llr,
    detect_ncv,
    draw_channel,
    estimate_channel,
    llrs_to_bits,
    noise_variance,
    quantize_llr,
    recover_batch,
    transmit,
    transmit_pilots,
)
from pnclab.mapping import joint_vector_table, superimpose
from pnclab.modulation import make_constellation

from oracles import bit_matrix, greedy_rank, hard_ncv, ncv_bits, ncv_table

XOR_MAP = bit_matrix([[1, 0, 1, 0], [0, 1, 0, 1]])


@pytest.fixture(scope="module")
def qam4():
    return make_constellation("qam4")


class TestTransmit:
    def test_noiseless_exact(self, qam4):
        rng = np.random.default_rng(0)
        H = draw_channel([rng])
        idx = rng.integers(0, 4, size=(1, 2, 50))
        y = transmit(H, 0.0, qam4.points[idx], [rng])
        assert np.allclose(y, H @ qam4.points[idx])

    def test_received_energy(self, qam4):
        rng = np.random.default_rng(1)
        H = draw_channel([rng])[0]
        nv = 0.25
        idx = rng.integers(0, 4, size=(2, 10**5))
        y = transmit(H[None], nv, qam4.points[idx][None], [rng])[0]
        for j in range(2):
            want = abs(H[j, 0]) ** 2 + abs(H[j, 1]) ** 2 + nv
            assert np.mean(np.abs(y[j]) ** 2) == pytest.approx(want, rel=0.02)

    def test_single_visible_terminal(self, qam4):
        rng = np.random.default_rng(2)
        H = np.array([[[1.0, 0.0]]])
        idx = rng.integers(0, 4, size=(1, 2, 20))
        y = transmit(H, 0.0, qam4.points[idx], [rng])
        assert np.allclose(y[0, 0], qam4.points[idx[0, 0]])


class TestGeneratorSequences:
    """Each link draw takes a sequence of per-frame generators."""

    @staticmethod
    def _draws(rngs, c, noise_var):
        H = draw_channel(rngs, 3, 2)
        sym = np.broadcast_to(c.points[np.arange(10).reshape(2, 5) % c.size], (len(rngs), 2, 5))
        return H, transmit(H, noise_var, sym, rngs), transmit_pilots(H, noise_var, 4, rngs)

    @pytest.mark.parametrize("noise_var", [0.0, 0.3])
    def test_one_generator_equals_one_element_sequence(self, qam4, noise_var):
        """A one-element sequence reads its generator in the order of plain
        ``standard_normal`` draws of each result's (2, *shape) parts, and
        leaves it where they would."""
        twin, seq = np.random.default_rng(8), [np.random.default_rng(8)]
        H, y, pilots = self._draws(seq, qam4, noise_var)
        assert (H.shape, y.shape, pilots.shape) == ((1, 3, 2), (1, 3, 5), (1, 3, 2, 4))
        re, im = twin.standard_normal((2, 3, 2))
        assert np.array_equal(H[0].view(np.int64), ((re + 1j * im) / np.sqrt(2.0)).view(np.int64))
        if noise_var:
            twin.standard_normal((2, 3, 5))
            twin.standard_normal((2, 3, 2, 4))
        assert twin.random() == seq[0].random()

    def test_zero_noise_draws_nothing(self, qam4):
        """At noise_var 0.0 only the channel is drawn: each generator's next
        draw is the one after its channel's normals."""
        rngs = [np.random.default_rng(s) for s in (5, 6)]
        self._draws(rngs, qam4, 0.0)
        for s, r in zip((5, 6), rngs):
            fresh = np.random.default_rng(s)
            fresh.standard_normal((2, 3, 2))
            assert r.random() == fresh.random()


class TestChannelEstimation:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(3)
        H = draw_channel([rng])
        y = transmit_pilots(H, 0.0, 4, [rng])
        assert np.allclose(estimate_channel(y, 4), H)

    def test_error_variance_halves_with_double_length(self):
        rng = np.random.default_rng(4)
        nv = 0.5
        errs = {1: [], 2: []}
        for _ in range(20000):
            H = draw_channel([rng], 1, 1)
            for P in (1, 2):
                y = transmit_pilots(H, nv, P, [rng])
                errs[P].append(abs(estimate_channel(y, P)[0, 0, 0] - H[0, 0, 0]) ** 2)
        v1, v2 = np.mean(errs[1]), np.mean(errs[2])
        assert v1 == pytest.approx(nv, rel=0.05)
        assert v2 / v1 == pytest.approx(0.5, rel=0.05)


class TestDetectNcv:
    def test_symmetric_sample_gives_zero(self, qam4):
        # y at the origin with a single visible terminal: both bit classes
        # sit symmetrically, so every L-value vanishes
        mat = bit_matrix([[1, 0, 0, 0], [0, 1, 0, 0]])
        llr = detect_ncv([0j], (1.0, 0.0), mat, qam4, 0.5)
        assert np.allclose(llr, 0.0, atol=1e-12)

    def test_low_noise_concentrates_on_cluster(self, qam4):
        rng = np.random.default_rng(5)
        w_of_tau = joint_vector_table(2)
        for _ in range(20):
            h = tuple((rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2))
            pts = superimpose(qam4, h)
            table = ncv_table(XOR_MAP, 2)
            tau = int(rng.integers(0, 16))
            llr = detect_ncv(pts[tau : tau + 1], h, XOR_MAP, qam4, 1e-4)
            bits = llrs_to_bits(llr[0])
            want = np.array([(table[tau] >> i) & 1 for i in range(2)])
            assert np.array_equal(bits, want)

    def test_matches_bruteforce_posterior(self, qam4):
        """Oracle: direct posterior ratio over all 16 joint hypotheses."""
        rng = np.random.default_rng(6)
        table = ncv_table(XOR_MAP, 2)
        for _ in range(100):
            h = tuple((rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2))
            y = complex(rng.standard_normal(), rng.standard_normal())
            nv = float(rng.uniform(0.05, 1.0))
            pts = superimpose(qam4, h)
            weights = np.exp(-np.abs(y - pts) ** 2 / nv)
            llr = detect_ncv([y], h, XOR_MAP, qam4, nv)[0]
            for i in range(2):
                bit = (table >> i) & 1
                want = np.log(weights[bit == 0].sum()) - np.log(weights[bit == 1].sum())
                assert llr[i] == pytest.approx(want, abs=1e-9)

    def test_degenerate_row_flags_infinity(self, qam4):
        mat = bit_matrix([[1, 0, 1, 0], [0, 0, 0, 0]])
        llr = detect_ncv([0.3 + 0.1j], (1.0, 0.5), mat, qam4, 0.5)[0]
        assert llr[1] == np.inf  # zero row: bit is always 0

    def test_vector_input_shape(self, qam4):
        y = np.array([0.1 + 0.2j, -0.4 + 1j, 0.9j])
        llr = detect_ncv(y, (1.0, 0.5), XOR_MAP, qam4, 0.3)
        assert llr.shape == (3, 2)

    def test_max_log_signs_agree_at_low_noise(self, qam4):
        rng = np.random.default_rng(7)
        h = (0.8 - 0.1j, 0.3 + 0.5j)
        y = np.array([complex(rng.standard_normal(), rng.standard_normal()) for _ in range(32)])
        exact = detect_ncv(y, h, XOR_MAP, qam4, 1e-3)
        approx = detect_ncv(y, h, XOR_MAP, qam4, 1e-3, max_log=True)
        assert np.array_equal(np.sign(exact), np.sign(approx))


class TestRecovery:
    def test_noiseless_end_to_end(self, qam4):
        rng = np.random.default_rng(8)
        from pnclab.fade_states import rank_principal_sfs, enumerate_sfs
        from pnclab.search import build_store, select_mappings

        cat = rank_principal_sfs(enumerate_sfs(qam4), n_trials=10**4, rng_seed=0)
        store = build_store(cat, t=2, k_per_state=5, n_aps=2)
        w_of_tau = joint_vector_table(2)
        for _ in range(25):
            H = draw_channel([rng])
            rows = select_mappings(store, cat, H).rows
            H = H[0]
            taus = np.arange(16)
            xs = []
            for j in range(2):
                y = H[j, 0] * qam4.points[taus >> 2] + H[j, 1] * qam4.points[taus & 3]
                ncv = hard_ncv(y, (H[j, 0], H[j, 1]), rows[0, j].tolist(), qam4)
                xs.append(((ncv[:, None] >> np.arange(2)[None, :]) & 1))
            w_bits = recover_batch(rows.reshape(1, -1), np.concatenate(xs, axis=1)[None])[0]
            w_hat = (w_bits * (1 << np.arange(4))[None, :]).sum(axis=1)
            assert np.array_equal(w_hat, w_of_tau[taus])

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([4, 8]), st.data())
    def test_chunk_recovers_every_frame(self, mu, data):
        """A chunk of frames, some sharing a stack: every frame recovers its
        messages, equals the call on a frame axis of one, and one flipped NCV
        bit changes exactly the message it belongs to."""
        square = st.lists(st.integers(0, (1 << mu) - 1), min_size=mu, max_size=mu).filter(
            lambda rows: greedy_rank(rows) == mu
        )
        stacks = data.draw(st.lists(square, min_size=1, max_size=3))
        which = data.draw(st.lists(st.integers(0, len(stacks) - 1), min_size=1, max_size=6))
        g = np.array([stacks[k] for k in which])
        frames, samples = len(which), data.draw(st.integers(1, 5))
        w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, 2, size=(frames, samples, mu))
        # NCV bit r is the parity of stack row r against the message
        x = (w @ ((g[:, None, :] >> np.arange(mu)[:, None]) & 1)) % 2
        got = recover_batch(g, x)
        assert np.array_equal(got, w)
        for f in range(frames):
            assert np.array_equal(got[f : f + 1], recover_batch(g[f : f + 1], x[f : f + 1]))
        f, s, r = (data.draw(st.integers(0, n - 1)) for n in (frames, samples, mu))
        x[f, s, r] ^= 1
        moved = recover_batch(g, x) != w
        assert moved[f, s].any()
        moved[f, s] = False
        assert not moved.any()

    @pytest.mark.parametrize(
        "g, x_shape",
        [
            (np.array([XOR_MAP]), (1, 5, 2)),
            (np.array([XOR_MAP * 3]), (1, 5, 6)),
            (np.array([[1, 2, 4, 8, 3, 12]] * 3), (3, 5, 4)),
            (np.array([[1, 2, 4, 8, 3, 12]] * 3), (3, 5, 6)),
            (np.array([XOR_MAP] * 3), (3, 5, 2)),
        ],
        ids=["one-2x4", "one-6x4", "chunk-6-rows-4-bits", "chunk-6x4", "chunk-2x4"],
    )
    def test_non_square_stack_refused(self, g, x_shape):
        with pytest.raises(ValueError):
            recover_batch(g, np.zeros(x_shape, dtype=np.int64))


class TestCompBaselines:
    def test_ideal_noiseless_exact(self, qam4):
        rng = np.random.default_rng(9)
        for _ in range(20):
            H = draw_channel([rng])
            taus = rng.integers(0, 16, size=30)
            sym = np.stack([qam4.points[taus >> 2], qam4.points[taus & 3]])
            y = transmit(H, 0.0, sym[None], [rng])
            got = comp_ideal(y, H, qam4)[0]
            assert np.array_equal(got, taus)

    def test_nonideal_quantizer_monotone(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 4.0, size=20000)
        errs = {}
        for q in (2, 4):
            spec = QuantizerSpec(bits=q, clip=8.0)
            xq = dequantize_llr(quantize_llr(x, spec), spec)
            errs[q] = np.mean((x - xq) ** 2)
        assert errs[4] < errs[2]

    def test_nonideal_matches_unquantized_at_low_noise(self, qam4):
        rng = np.random.default_rng(11)
        spec = QuantizerSpec(bits=4, clip=8.0)
        H = draw_channel([rng])[0]
        taus = rng.integers(0, 16, size=40)
        sym = np.stack([qam4.points[taus >> 2], qam4.points[taus & 3]])
        y = transmit(H[None], 1e-5, sym[None], [rng])[0]
        raw = np.stack(
            [comp_nonideal_llrs(y[j], (H[j, 0], H[j, 1]), qam4, 1e-5) for j in range(2)]
        )
        deq = dequantize_llr(quantize_llr(raw, spec), spec)
        assert np.array_equal(comp_combine(deq), comp_combine(raw))

    @pytest.mark.parametrize("bits", [2, 4])
    def test_quantizer_saturates_huge_and_infinite(self, bits):
        spec = QuantizerSpec(bits=bits, clip=8.0)
        top = (1 << bits) - 1
        got = quantize_llr(np.array([np.inf, 1e300, 1e20, -np.inf, -1e300, -1e20]), spec)
        assert got.tolist() == [top, top, top, 0, 0, 0]

    @pytest.mark.parametrize("bits", [2, 4])
    def test_quantizer_levels_around_thresholds(self, bits):
        spec = QuantizerSpec(bits=bits, clip=8.0)
        for k in range(1, 1 << bits):
            th = -spec.clip + k * spec.step
            assert quantize_llr(np.array([th - 1e-9, th, th + 1e-9]), spec).tolist() == [k - 1, k, k]
        assert quantize_llr(np.array([-8.0 - 1e-9, 8.0 + 1e-9]), spec).tolist() == [0, (1 << bits) - 1]

    def test_quantizer_validation(self):
        with pytest.raises(ValueError):
            QuantizerSpec(bits=3)
        with pytest.raises(ValueError):
            QuantizerSpec(bits=2, clip=0.0)


def _comp_ideal_hyp(ys, H, constellation):
    """Oracle: comp_ideal's own hypothesis points and argmin, from before it
    moved onto superimpose and the shared distance grid."""
    m = constellation.bits_per_symbol
    size = 1 << m
    idx = np.arange(size * size)
    s1 = constellation.points[idx >> m]
    s2 = constellation.points[idx & (size - 1)]
    H = np.asarray(H)
    hyp = H[..., 0, None] * s1 + H[..., 1, None] * s2
    cost = np.abs(np.asarray(ys)[..., :, None] - hyp[..., None, :])
    cost *= cost
    return cost.sum(axis=-3).argmin(axis=-1)


@pytest.mark.parametrize("mod, ebn0_db, n_aps", [("qam4", 4.0, 2), ("qam16", 12.0, 2), ("qam16", 6.0, 3)])
def test_comp_ideal_matches_hyp_oracle(mod, ebn0_db, n_aps):
    """Noisy stacks of frames, stacked and one frame at a time, bit for bit."""
    c = make_constellation(mod)
    rng = np.random.default_rng(13)
    nv = noise_variance(ebn0_db, c.bits_per_symbol)
    H = np.concatenate([draw_channel([rng], n_aps) for _ in range(4)])
    idx = rng.integers(0, c.size, size=(4, 2, 50))
    ys = np.concatenate([transmit(H[f : f + 1], nv, c.points[idx[f : f + 1]], [rng]) for f in range(4)])
    stacked = comp_ideal(ys, H, c)
    assert stacked.shape == (4, 50)
    assert np.array_equal(stacked, _comp_ideal_hyp(ys, H, c))
    for f in range(4):
        assert np.array_equal(comp_ideal(ys[f], H[f], c), _comp_ideal_hyp(ys[f], H[f], c))
        assert np.array_equal(comp_ideal(ys[f], H[f], c), stacked[f])
    assert (stacked != (idx[:, 0] << c.bits_per_symbol) | idx[:, 1]).any()   # noisy enough to err


def _llrs_logaddexp(y, h, constellation, bits, noise_var):
    """Oracle: the Jacobian-logarithm fold comp_nonideal_llrs used before it
    moved onto the max-shifted kernel, for the 0/1 labels ``bits`` (..., 2^mu,
    n) of the joint hypotheses: the exact sum, L-values (..., samples, n),
    finite for every input but where a class is empty."""
    m = constellation.bits_per_symbol
    size = 1 << m
    hh = np.asarray(h, dtype=complex)
    ys = np.asarray(y, dtype=complex)
    if hh.ndim == 1:
        ys = np.atleast_1d(ys)
    idx = np.arange(size * size)
    hyp = hh[..., 0, None] * constellation.points[idx >> m] + hh[..., 1, None] * constellation.points[idx & (size - 1)]
    metric = np.abs(ys[..., :, None] - hyp[..., None, :])
    metric *= metric
    metric /= -noise_var
    side = np.asarray(bits)[..., None, :, :] == 1
    shape = np.broadcast_shapes(metric.shape + (1,), side.shape)
    metric, side = np.broadcast_to(metric[..., None], shape), np.broadcast_to(side, shape)
    return (np.logaddexp.reduce(metric, axis=-2, where=~side, initial=-np.inf)
            - np.logaddexp.reduce(metric, axis=-2, where=side, initial=-np.inf))


def _comp_nonideal_llrs_logaddexp(y, h, constellation, noise_var):
    """Oracle: that fold on the identity's bits, bit j label bit j of tau,
    MSB first, in comp_nonideal_llrs's layout (..., terminals, bits, uses)."""
    m = constellation.bits_per_symbol
    bits = (np.arange(1 << 2 * m)[:, None] >> (2 * m - 1 - np.arange(2 * m))) & 1
    out = np.moveaxis(_llrs_logaddexp(y, h, constellation, bits, noise_var), -1, -2)
    return out.reshape(out.shape[:-2] + (2, m, out.shape[-1]))


_coord = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _comp_stacks(draw):
    """A (2 frames, 2 APs) stack: channels, 5 samples per AP, noise variance
    from 1e-5 (most L-values infinite) to 3."""
    mod = draw(st.sampled_from(["qam4", "qam16"]))
    parts = draw(st.lists(_coord, min_size=2 * 2 * 2 * 2, max_size=2 * 2 * 2 * 2))
    h = (np.array(parts[:8]) + 1j * np.array(parts[8:])).reshape(2, 2, 2)
    parts = draw(st.lists(_coord, min_size=2 * 2 * 2 * 5, max_size=2 * 2 * 2 * 5))
    y = (np.array(parts[:20]) + 1j * np.array(parts[20:])).reshape(2, 2, 5)
    noise_var = 10.0 ** draw(st.floats(-5.0, 0.5))
    return mod, h, y, noise_var


class TestCompNonidealKernel:
    """comp_nonideal_llrs (max-shifted exp-sum) against the logaddexp fold."""

    @settings(max_examples=80, deadline=None)
    @given(_comp_stacks())
    def test_matches_logaddexp_oracle(self, case):
        mod, h, y, noise_var = case
        c = make_constellation(mod)
        got = comp_nonideal_llrs(y, h, c, noise_var)
        want = _comp_nonideal_llrs_logaddexp(y, h, c, noise_var)
        assert got.shape == want.shape == (2, 2, 2, c.bits_per_symbol, 5)
        assert np.isfinite(want).all()
        # both forms round the log-likelihoods themselves, whose size is at
        # least the nearest hypothesis' |y - p|^2 / noise_var; an exact tie
        # (a symmetric channel and sample) reads 0 or +-that rounding
        m = c.bits_per_symbol
        idx = np.arange(1 << 2 * m)
        hyp = h[..., 0, None] * c.points[idx >> m] + h[..., 1, None] * c.points[idx & ((1 << m) - 1)]
        nearest = (np.abs(y[..., :, None] - hyp[..., None, :]) ** 2).min(axis=-1) / noise_var
        tol = 1e-12 * np.maximum(np.maximum(1.0, np.abs(want)), nearest[:, :, None, None, :])
        tie = np.abs(want) <= tol
        assert np.array_equal(np.sign(got)[~tie], np.sign(want)[~tie])
        # exp reads only normal results, so the kernel's one loss is its dead lanes,
        # each below exp(-750) of the row maximum: at most 2^(2m) e^(|L| - 750) of
        # the losing class's sum, so L moves by under 256 e^-30 = 2.4e-11, inside
        # tol, while |L| < 720; and L reads +-inf only when every lane of that class
        # is dead, so |L| > 750 - ln 2^(2m) >= 744.5
        small = np.abs(want) < 720
        assert np.all(np.abs(got - want)[small] <= tol[small])
        assert np.all(np.abs(want[np.isinf(got)]) > 740)
        assert np.array_equal(np.sign(got[np.isinf(got)]), np.sign(want[np.isinf(got)]))
        for bits in (2, 4):
            spec = QuantizerSpec(bits=bits, clip=8.0)
            pos = (want + spec.clip) / spec.step
            edge = np.abs(pos - np.round(pos)) <= tol / spec.step     # a threshold within rounding
            assert np.array_equal(quantize_llr(got, spec)[~edge], quantize_llr(want, spec)[~edge])

    @settings(max_examples=40, deadline=None)
    @given(_comp_stacks())
    def test_one_ap_call_equals_stacked_slice(self, case):
        mod, h, y, noise_var = case
        c = make_constellation(mod)
        stacked = comp_nonideal_llrs(y, h, c, noise_var)
        for f in range(2):
            for a in range(2):
                one = comp_nonideal_llrs(y[f, a], tuple(h[f, a]), c, noise_var)
                assert one.tobytes() == stacked[f, a].tobytes()

    def test_high_snr_gives_saturated_infinities(self):
        """qam16 received at 26 dB: many L-values are infinite, every one
        with the oracle's sign, and the quantizer puts them at the extreme
        levels."""
        c = make_constellation("qam16")
        rng = np.random.default_rng(12)
        H = draw_channel([rng])[0]
        idx = rng.integers(0, 16, size=(2, 60))
        nv = noise_variance(26.0, 4)
        y = transmit(H[None], nv, c.points[idx][None], [rng])[0]
        got = comp_nonideal_llrs(y, H, c, nv)
        want = _comp_nonideal_llrs_logaddexp(y, H, c, nv)
        inf = np.isinf(got)
        assert inf.mean() > 0.05
        assert np.array_equal(np.sign(got), np.sign(want))
        spec = QuantizerSpec(bits=2, clip=8.0)
        assert np.array_equal(quantize_llr(got[inf], spec), np.where(got[inf] > 0, 3, 0))


@settings(max_examples=40, deadline=None)
@given(_comp_stacks(), st.booleans(), st.data())
def test_detect_ncv_one_ap_call_equals_stacked_slice(case, max_log, data):
    """One AP (samples (uses,), a coefficient pair and rows (t,)) gives the
    slice of the stacked call on the same samples bit for bit, in both
    detection forms, and so does a frame axis of one."""
    mod, h, y, noise_var = case
    c = make_constellation(mod)
    m = c.bits_per_symbol
    rows = np.array(data.draw(st.lists(st.integers(0, (1 << 2 * m) - 1), min_size=4 * m, max_size=4 * m)))
    rows = rows.reshape(2, 2, m)
    stacked = detect_ncv(y, h, rows, c, noise_var, max_log=max_log)
    assert stacked.shape == (2, 2, 5, m)
    for f in range(2):
        frame = detect_ncv(y[f : f + 1], h[f : f + 1], rows[f : f + 1], c, noise_var, max_log=max_log)
        assert frame.tobytes() == stacked[f].tobytes()
        for a in range(2):
            one = detect_ncv(y[f, a], tuple(h[f, a]), tuple(rows[f, a].tolist()), c, noise_var, max_log=max_log)
            assert one.tobytes() == stacked[f, a].tobytes()


@settings(max_examples=80, deadline=None)
@given(_comp_stacks(), st.data())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_detect_ncv_matches_logaddexp_oracle(case, data):
    """detect_ncv against the exact sum, the logaddexp fold, for arbitrary
    packed rows (a zero row, whose one class is empty, gives the oracle's
    +-inf).  Where the exact |L| < 720 the L-value is within the rounding of
    the metrics (the near-distance bound) and the fold's 1e-12; every finite
    L-value is within ln(1 + 2^mu e^(|L| - 750)) more, as each floor lane
    counts e^-750 of its sample's maximum; and L reads +-inf only where the
    exact |L| exceeds 744.5.  At noise variances a factor of 4 either side of
    where the kernel stops folding 1/noise_var into its product, the two
    kernels give the same signs and the same infinities."""
    mod, h, y, noise_var = case
    c = make_constellation(mod)
    m = c.bits_per_symbol
    rows = np.array(data.draw(st.lists(st.integers(0, (1 << 2 * m) - 1), min_size=4 * m, max_size=4 * m))).reshape(2, 2, m)
    got = detect_ncv(y, h, rows, c, noise_var)
    want = _llrs_logaddexp(y, h, c, ncv_bits(rows, m), noise_var)
    assert got.shape == want.shape == (2, 2, 5, m)
    empty = np.isinf(want)
    assert np.array_equal(got[empty], want[empty])
    pts = superimpose(c, h)
    scale = (np.abs(y) + np.abs(pts).max(axis=-1, keepdims=True)) ** 2
    exact = ~empty
    l_abs = np.abs(want[exact])
    tol = 2**6 * np.finfo(float).eps * np.broadcast_to(scale[..., None], got.shape)[exact] / noise_var
    tol += 1e-12 * np.maximum(1.0, l_abs)
    g = got[exact]
    tie = l_abs <= tol
    assert np.array_equal(np.sign(g)[~tie], np.sign(want[exact])[~tie])
    finite = np.isfinite(g)
    err = np.abs(g[finite] - want[exact][finite])
    floor = np.logaddexp(0.0, 2 * m * np.log(2.0) + l_abs[finite] - 750.0)       # ln(1 + 2^mu e^(|L| - 750))
    assert np.all(err[l_abs[finite] < 720] <= tol[finite][l_abs[finite] < 720])
    assert np.all(err <= floor + tol[finite])
    assert np.all(l_abs[~finite] > 744.5)

    turn = _fold_turn(pts, y)
    if turn / 4 >= np.finfo(float).tiny:
        folded, divided = detect_ncv(y, h, rows, c, 4 * turn), detect_ncv(y, h, rows, c, turn / 4)
        # the max-log gap in squared distance: a gap within the metrics' rounding
        # is a tie, which either kernel may break either way at these variances
        gap = _llrs_sample_fast(pts, y, ncv_bits(rows, m), 1.0, max_log=True)
        apart = ~(np.abs(gap) <= 2**6 * np.finfo(float).eps * scale[..., None])
        assert np.array_equal(np.sign(folded)[apart], np.sign(divided)[apart])
        assert np.array_equal(np.isinf(folded)[apart], np.isinf(divided)[apart])


def _fold_turn(points, ys):
    """The noise variance below which _folds keeps the hypotheses factor
    unscaled: 2 (3 a + a^2) max(1, max |y|) / the largest double, a = max |p|."""
    a = np.abs(points).max()
    return 2.0 * (3.0 + a) * a * max(1.0, np.abs(ys).max()) / np.finfo(float).max


@pytest.mark.parametrize("mod", ["qam4", "qam16"])
def test_fold_turns_before_the_scaled_product_overflows(mod, monkeypatch):
    """Samples at the largest |y| the guard allows: a factor of 4 above the
    turn the kernel folds 1/noise_var into the hypotheses factor and its
    log-likelihood grid is finite; a factor of 4 below it scales nothing and
    divides after the max-subtract.  Both warn of nothing."""
    c, H, ys, rows, _ = _frame_stack(mod, 2, 24, 10.0, 48)
    ys = ys * (1e3 / np.abs(ys).max())
    turn = _fold_turn(superimpose(c, H), ys)
    scales, grids, correlations = [], [], link._correlations

    def spy(points, ys, *layout):
        scales.append(layout[-1])
        grids.append(correlations(points, ys, *layout))
        return grids[-1].copy()

    monkeypatch.setattr(link, "_correlations", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        folded, divided = detect_ncv(ys, H, rows, c, 4 * turn), detect_ncv(ys, H, rows, c, turn / 4)
    assert scales == [4 * turn, 1.0]
    assert np.isfinite(grids[0]).all() and np.abs(grids[0]).max() > 1e300
    assert np.array_equal(np.sign(folded), np.sign(divided)) and np.isinf(folded).any()


def _distances_sample_fast(pts, ys):
    """Oracle: the squared-distance grid |p - y|^2 the detectors read before
    the correlation metric, samples on the fast axis: (..., 2^mu, samples)."""
    d = np.abs(pts[..., :, None] - ys[..., None, :])
    d *= d
    return d


def _llrs_sample_fast(pts, ys, bits, noise_var, max_log=False):
    """Oracle: the likelihood kernel on that grid, dividing by the noise
    variance before the shift: a lane more than 750 below its sample's
    maximum is clamped there and counts e^-750 of it, every lane is raised
    by e^50 in exp, and a class with no lane above the floor sums to 0, so
    its L-value is +-inf."""
    metric = _distances_sample_fast(pts, ys)
    metric /= -noise_var
    if max_log:
        side, metric = bits[..., :, None, :] == 1, metric[..., None]
        return np.where(side, -np.inf, metric).max(axis=-3) - np.where(side, metric, -np.inf).max(axis=-3)
    e = np.empty(ys.shape + metric.shape[-2:-1])
    np.subtract(metric.swapaxes(-1, -2), metric.max(axis=-2)[..., None], out=e)
    np.maximum(e, -750.0, out=e)
    live = (e > -750.0).astype(float)
    e += 50.0
    np.exp(e, out=e)
    zeros, ones = e @ (1.0 - bits), e @ bits
    zeros[live @ (1.0 - bits) == 0] = 0.0
    ones[live @ bits == 0] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(zeros) - np.log(ones)


def _correlation_grid(p, ys, scale=1.0):
    """Oracle: the correlation metric (..., samples, 2^mu) over ``scale``, the
    transpose of the kernel's hypotheses-outermost grid: one stacked product
    [2 Re p, 2 Im p, -|p|^2] / scale @ [Re y; Im y; 1] per slice."""
    rows = np.stack([2.0 * p.real, 2.0 * p.imag, -(p.real**2 + p.imag**2)], axis=-1) / scale
    cols = np.stack([ys.real, ys.imag, np.ones(ys.shape)], axis=-2)
    return (rows @ cols).swapaxes(-1, -2)


def _centred_grid(pts, ys):
    """Oracle: the centred metric -|p - y|^2 (..., samples, 2^mu), the
    squared distance from the broadcast differences of the real and the
    imaginary parts."""
    p, y = pts[..., None, :], ys[..., :, None]
    re, im = p.real - y.real, p.imag - y.imag
    return -(re * re + im * im)


def _llrs_correlation(pts, ys, bits, noise_var, max_log=False, grid=_correlation_grid):
    """Oracle: the likelihood kernel on the correlation metric (or another
    ``grid``), the whole stack in one call, the grid hypotheses outermost
    (..., 2^mu, samples).  On the correlation grid the noise variance is
    folded into the hypotheses factor, so the grid is the log-likelihood,
    and each sample's maximum less 50 is subtracted; another grid has its
    maximum subtracted before the division and 50 added after.  Every lane
    is clamped at -700 (e^-750 of the sample's maximum), exp is taken, the
    class sums [1 - bits; bits]^T @ e come from one stacked product per
    slice, and a class with no lane above the floor sums to 0, so its
    L-value is +-inf.  max-log divides the gap of the class maxima.
    Returns (..., samples, n)."""
    if max_log:
        side, metric = bits[..., None, :, :] == 1, grid(pts, ys)[..., None]
        return (np.where(side, -np.inf, metric).max(axis=-2) - np.where(side, metric, -np.inf).max(axis=-2)) / noise_var
    if grid is _correlation_grid:
        e = grid(pts, ys, noise_var).swapaxes(-1, -2)
        e -= e.max(axis=-2, keepdims=True) - 50.0
    else:
        metric = grid(pts, ys).swapaxes(-1, -2)
        e = (metric - metric.max(axis=-2, keepdims=True)) / noise_var + 50.0
    np.maximum(e, -700.0, out=e)
    live = (e > -700.0).astype(float)
    classes = np.swapaxes(np.concatenate([1.0 - bits, bits], axis=-1), -1, -2)
    sums = classes @ np.exp(e)
    sums[classes @ live == 0] = 0.0
    n = bits.shape[-1]
    with np.errstate(divide="ignore"):
        out = np.log(sums[..., :n, :]) - np.log(sums[..., n:, :])
    return out.swapaxes(-1, -2)


def _assert_near_distance_oracle(got, pts, ys, bits, noise_var, max_log=False):
    """L-values ``got`` (..., samples, n) against the squared-distance oracle:
    the same hard decisions, the same infinities, and finite values within
    2^6 eps (|y| + max |p|)^2 / noise_var of a sample's.  Each metric's terms
    are at most (|y| + |p|)^2, so either form rounds a metric by a few eps
    of that, and an L-value moves by at most twice a metric's error over
    the noise variance."""
    want = _llrs_sample_fast(pts, ys, bits, noise_var, max_log)
    scale = (np.abs(ys) + np.abs(pts).max(axis=-1, keepdims=True)) ** 2
    tol = 2**6 * np.finfo(float).eps * scale[..., None] / noise_var
    finite = np.isfinite(want)
    assert np.array_equal(llrs_to_bits(got), llrs_to_bits(want))
    assert np.array_equal(got[~finite], want[~finite]) and np.isfinite(got[finite]).all()
    assert (np.abs(got[finite] - want[finite]) <= np.broadcast_to(tol, got.shape)[finite]).all()


def _received_stack(mod, uses, ebn0_db, seed):
    """Two frames of two APs: channels (2, 2, 2), samples (2, 2, uses),
    random packed rows (2, 2, m) and the noise variance."""
    c = make_constellation(mod)
    m = c.bits_per_symbol
    rng = np.random.default_rng(seed)
    nv = noise_variance(ebn0_db, m)
    H = np.concatenate([draw_channel([rng]) for _ in range(2)])
    idx = rng.integers(0, c.size, size=(2, 2, uses))
    ys = np.concatenate([transmit(H[f : f + 1], nv, c.points[idx[f : f + 1]], [rng]) for f in range(2)])
    rows = rng.integers(1, 1 << 2 * m, size=(2, 2, m))
    return c, H, ys, rows, nv


# qam4 has 16 hypotheses, qam16 256: fewer and more than the samples at 120
# uses, and fewer than them at 300
GRID_CASES = [("qam4", 120, 10.0), ("qam16", 120, 26.0), ("qam16", 120, 8.0), ("qam16", 300, 26.0)]


@pytest.mark.parametrize("mod, uses, ebn0_db", GRID_CASES)
class TestShapeChosenGrid:
    """Every detector on the correlation grid: the LLR detectors bit for bit
    against the correlation oracle (comp_nonideal_llrs on the centred grid) and
    within rounding of the squared-distance oracle, the argmax detector against
    the squared-distance oracle's argmin."""

    @pytest.mark.parametrize("max_log", [False, True])
    def test_detect_ncv_matches_oracle(self, mod, uses, ebn0_db, max_log):
        c, H, ys, rows, nv = _received_stack(mod, uses, ebn0_db, 31)
        got = detect_ncv(ys, H, rows, c, nv, max_log=max_log)
        bits = ncv_bits(rows, c.bits_per_symbol).astype(float)
        want = _llrs_correlation(superimpose(c, H), ys, bits, nv, max_log)
        assert got.shape == (2, 2, uses, c.bits_per_symbol)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        _assert_near_distance_oracle(got, superimpose(c, H), ys, bits, nv, max_log)

    def test_comp_nonideal_llrs_matches_oracle(self, mod, uses, ebn0_db):
        c, H, ys, _, nv = _received_stack(mod, uses, ebn0_db, 32)
        m = c.bits_per_symbol
        got = comp_nonideal_llrs(ys, H, c, nv)
        bits = ncv_bits(1 << np.arange(2 * m), m).astype(float)
        want = _llrs_correlation(superimpose(c, H), ys, bits, nv, grid=_centred_grid)
        assert np.array_equal(got.view(np.int64), np.moveaxis(want, -1, -2).reshape(2, 2, 2, m, uses).view(np.int64))
        kernel_layout = np.moveaxis(got.reshape(2, 2, 2 * m, uses), -1, -2)
        _assert_near_distance_oracle(kernel_layout, superimpose(c, H), ys, bits, nv)

    def test_argmin_detectors_match_oracle(self, mod, uses, ebn0_db):
        c, H, ys, rows, _ = _received_stack(mod, uses, ebn0_db, 33)
        grid = _distances_sample_fast(superimpose(c, H), ys)
        assert np.array_equal(comp_ideal(ys, H, c), grid.sum(axis=-3).argmin(axis=-2))
        mat = rows[0, 0].tolist()
        want = ncv_table(mat, c.bits_per_symbol)[grid[0, 0].argmin(axis=0)]
        assert np.array_equal(hard_ncv(ys[0, 0], tuple(H[0, 0]), mat, c), want)


def _frame_stack(mod, frames, uses, ebn0_db, seed):
    """A stack of frames of two APs: channels (frames, 2, 2), samples
    (frames, 2, uses), random packed rows (frames, 2, m) and the noise
    variance."""
    c = make_constellation(mod)
    m = c.bits_per_symbol
    rng = np.random.default_rng(seed)
    nv = noise_variance(ebn0_db, m)
    H = draw_channel([np.random.default_rng((seed, f)) for f in range(frames)])
    idx = rng.integers(0, c.size, size=(frames, 2, uses))
    ys = transmit(H, nv, c.points[idx], [np.random.default_rng((seed, f, 1)) for f in range(frames)])
    rows = rng.integers(1, 1 << 2 * m, size=(frames, 2, m))
    return c, H, ys, rows, nv


# at 2 APs x 120 uses a block is 18 qam4 frames (3,840 grid elements each)
# or 2 qam16 frames (61,440 each): the fewest that reach 2^16
BLOCK_CASES = [("qam4", 40, [18, 18, 4]), ("qam16", 5, [2, 2, 1])]


@pytest.mark.parametrize("mod, frames, blocks", BLOCK_CASES)
class TestFrameBlocks:
    """A stacked detector call scores its frames a block at a time; the
    result equals the per-block calls, and any other blocking, bit for bit."""

    DETECTORS = {
        "detect_ncv": lambda c, H, ys, rows, nv: detect_ncv(ys, H, rows, c, nv),
        "detect_ncv-max-log": lambda c, H, ys, rows, nv: detect_ncv(ys, H, rows, c, nv, max_log=True),
        "comp_nonideal_llrs": lambda c, H, ys, rows, nv: comp_nonideal_llrs(ys, H, c, nv),
        "comp_ideal": lambda c, H, ys, rows, nv: comp_ideal(ys, H, c),
    }

    def test_block_is_fewest_frames_reaching_grid_elements(self, mod, frames, blocks, monkeypatch):
        c, H, ys, rows, nv = _frame_stack(mod, frames, 120, 14.0, 41)
        seen = []
        correlations = link._correlations

        def spy(points, ys, *layout):
            seen.append(len(ys))
            return correlations(points, ys, *layout)

        monkeypatch.setattr(link, "_correlations", spy)
        for detect in self.DETECTORS.values():
            seen.clear()
            detect(c, H, ys, rows, nv)
            assert seen == blocks

    @pytest.mark.parametrize("name", sorted(DETECTORS))
    def test_stacked_call_equals_per_block_calls(self, mod, frames, blocks, name, monkeypatch):
        detect = self.DETECTORS[name]
        c, H, ys, rows, nv = _frame_stack(mod, frames, 120, 14.0, 42)
        stacked = detect(c, H, ys, rows, nv)
        cuts = np.cumsum([0] + blocks)
        parts = [detect(c, H[a:b], ys[a:b], rows[a:b], nv) for a, b in zip(cuts, cuts[1:])]
        assert stacked.shape[0] == frames
        assert stacked.tobytes() == np.concatenate(parts).tobytes()
        for grid in (1, frames * ys[0].size * c.size**2):       # one frame per block, every frame in one
            monkeypatch.setattr(link, "_GRID_ELEMENTS", grid)
            assert detect(c, H, ys, rows, nv).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("name", sorted(TestFrameBlocks.DETECTORS))
def test_frames_without_samples_give_empty_result(name):
    """Frames with no samples make an empty grid, not a zero divisor in the
    block rule: the result is empty, with the stack's frame axis."""
    c, H, ys, rows, nv = _frame_stack("qam4", 3, 1, 10.0, 43)
    got = TestFrameBlocks.DETECTORS[name](c, H, ys[:, :, :0], rows, nv)
    assert got.size == 0 and got.shape[0] == 3


@pytest.mark.parametrize("mod", ["qam4", "qam16"])
@pytest.mark.parametrize("name", sorted(TestFrameBlocks.DETECTORS))
def test_no_frames_give_empty_result(name, mod):
    """A stack of zero frames gives an empty result with a one-frame call's
    trailing shape; superimpose used to refuse it, and the blocks to
    concatenate nothing."""
    c, H, ys, rows, nv = _frame_stack(mod, 1, 24, 10.0, 44)
    detect = TestFrameBlocks.DETECTORS[name]
    got = detect(c, H[:0], ys[:0], rows[:0], nv)
    assert got.shape == (0,) + detect(c, H, ys, rows, nv).shape[1:]


@pytest.mark.parametrize("mod", ["qam4", "qam16"])
def test_minus_inf_metric_lane_matches_oracle(mod):
    """A lane whose metric overflows to -inf is a dead lane: the L-values
    are the oracle's, and the call warns of nothing, neither the overflow
    that made the lane nor an invalid value (a NaN from -inf * 0)."""
    c = make_constellation(mod)
    m = c.bits_per_symbol
    h = np.array([1e4 + 0j, 1e-4 + 0j])
    pts = superimpose(c, h)
    ys = pts[[0, 5, 9]]               # on a hypothesis: its lane reads -0
    rows = np.arange(1, m + 1)
    nv = 1e-305                             # far hypotheses: |p - y|^2 / nv overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = detect_ncv(ys, h, rows, c, nv)
    with np.errstate(over="ignore"):
        want = _llrs_sample_fast(pts, ys, ncv_bits(rows, m).astype(float), nv)
        metric = _distances_sample_fast(pts, ys) / -nv
    assert np.isneginf(metric).any() and np.isfinite(metric).any()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("mod", ["qam4", "qam16"])
@pytest.mark.parametrize("name", ["detect_ncv", "comp_nonideal_llrs"])
def test_exp_reads_only_normal_range(mod, name, monkeypatch):
    """At 26 dB many lanes lie far below their row maximum, some where exp's
    result would be subnormal.  exp still reads only [-700, 50], where its
    results are normal doubles, and an L-value is +-inf exactly where a bit
    class is empty (a zero matrix row) or every lane in it lies below -750."""
    c, H, ys, rows, nv = _frame_stack(mod, 3, 120, 26.0, 46)
    m = c.bits_per_symbol
    rows[0, 0, 0] = 0
    seen, exp = [], np.exp

    def spy(x, *args, **kwargs):
        seen.append((x.min(), x.max()))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    if name == "detect_ncv":
        got = detect_ncv(ys, H, rows, c, nv)
        bits = ncv_bits(rows, m).astype(float)
    else:
        got = np.moveaxis(comp_nonideal_llrs(ys, H, c, nv).reshape(3, 2, 2 * m, 120), -1, -2)
        bits = ncv_bits(1 << np.arange(2 * m), m).astype(float)
    monkeypatch.undo()
    assert seen and min(lo for lo, _ in seen) >= -700.0 and max(hi for _, hi in seen) <= 50.0
    metric = (_correlation_grid if name == "detect_ncv" else _centred_grid)(superimpose(c, H), ys)
    shifted = (metric - metric.max(axis=-1, keepdims=True)) / nv
    assert ((shifted > -750) & (shifted < -708.4)).any()         # subnormal without the shift
    live = (shifted >= -750).astype(float)
    has_one, has_zero = live @ bits > 0, live @ (1.0 - bits) > 0
    assert np.array_equal(np.isposinf(got), ~has_one) and np.array_equal(np.isneginf(got), ~has_zero)
    assert np.isinf(got).any() and np.isfinite(got).any()


@pytest.mark.parametrize("max_log", [False, True])
@pytest.mark.parametrize("mod, frames", [("qam4", 18), ("qam16", 2)])
def test_one_block_peak_is_a_few_grids(mod, frames, max_log):
    """A one-block detect_ncv call allocates at most 2.5 grids at its peak in
    either form: max-log takes each bit's two class maxima in turn, so no
    temporary holds the n grids of a whole bit class array."""
    c, H, ys, rows, nv = _frame_stack(mod, frames, 120, 14.0, 47)
    grid = ys.size * c.size**2 * 8
    detect_ncv(ys, H, rows, c, nv, max_log=max_log)        # fills the memoised tables first
    tracemalloc.start()
    try:
        detect_ncv(ys, H, rows, c, nv, max_log=max_log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * grid


@pytest.mark.parametrize("mod, frames", [("qam4", 18), ("qam16", 2)])
def test_comp_nonideal_one_block_peak_is_a_few_grids(mod, frames, monkeypatch):
    """A one-block comp_nonideal_llrs call builds its centred grid in one
    grid-size buffer, adding the squared imaginary parts a quarter of the
    slices at a time: building it allocates at most 1.5 grids (the real and
    the imaginary differences once took two), and the whole call at most 2.1."""
    c, H, ys, _, nv = _frame_stack(mod, frames, 120, 14.0, 47)
    grid = ys.size * c.size**2 * 8
    built, correlations = [], link._correlations

    def spy(points, ys, *layout):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = correlations(points, ys, *layout)
        built.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    comp_nonideal_llrs(ys, H, c, nv)        # fills the memoised tables first
    tracemalloc.start()
    try:
        comp_nonideal_llrs(ys, H, c, nv)
        peak = tracemalloc.get_traced_memory()[1]
        monkeypatch.setattr(link, "_correlations", spy)
        comp_nonideal_llrs(ys, H, c, nv)
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * grid
    assert len(built) == 1 and built[0] <= 1.5 * grid


def test_noise_variance_bookkeeping():
    # unit symbol energy, m information bits per symbol per terminal
    assert noise_variance(0.0, 2) == pytest.approx(0.5)
    assert noise_variance(10.0, 2) == pytest.approx(0.05)
    assert noise_variance(10.0, 4) == pytest.approx(0.025)
