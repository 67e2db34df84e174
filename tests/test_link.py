import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab.gf2 import BitMatrix, rank_rows
from pnclab.link import (
    QuantizerSpec,
    comp_combine,
    comp_ideal,
    comp_nonideal_llrs,
    dequantize_llr,
    detect_ncv,
    draw_channel,
    estimate_channel,
    hard_ncv,
    llrs_to_bits,
    noise_variance,
    quantize_llr,
    recover_batch,
    transmit,
    transmit_pilots,
)
from pnclab.mapping import _ncv_bits, joint_vector_table, ncv_table, superimpose
from pnclab.modulation import make_constellation

XOR_MAP = BitMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])


@pytest.fixture(scope="module")
def qam4():
    return make_constellation("qam4")


class TestTransmit:
    def test_noiseless_exact(self, qam4):
        rng = np.random.default_rng(0)
        H = draw_channel(rng)
        idx = rng.integers(0, 4, size=(2, 50))
        y = transmit(H, 0.0, qam4.points[idx], rng)
        assert np.allclose(y, H @ qam4.points[idx])

    def test_received_energy(self, qam4):
        rng = np.random.default_rng(1)
        H = draw_channel(rng)
        nv = 0.25
        idx = rng.integers(0, 4, size=(2, 10**5))
        y = transmit(H, nv, qam4.points[idx], rng)
        for j in range(2):
            want = abs(H[j, 0]) ** 2 + abs(H[j, 1]) ** 2 + nv
            assert np.mean(np.abs(y[j]) ** 2) == pytest.approx(want, rel=0.02)

    def test_single_visible_terminal(self, qam4):
        rng = np.random.default_rng(2)
        H = np.array([[1.0, 0.0]])
        idx = rng.integers(0, 4, size=(2, 20))
        y = transmit(H, 0.0, qam4.points[idx], rng)
        assert np.allclose(y[0], qam4.points[idx[0]])


class TestGeneratorSequences:
    """Each link draw takes one generator or a sequence of per-frame ones."""

    @staticmethod
    def _draws(rng, c, noise_var):
        H = draw_channel(rng, 3, 2)
        sym = c.points[np.arange(10).reshape(2, 5) % c.size]
        return H, transmit(H, noise_var, sym, rng), transmit_pilots(H, noise_var, 4, rng)

    @pytest.mark.parametrize("noise_var", [0.0, 0.3])
    def test_one_generator_equals_one_element_sequence(self, qam4, noise_var):
        one, seq = np.random.default_rng(8), [np.random.default_rng(8)]
        for a, b in zip(self._draws(one, qam4, noise_var), self._draws(seq, qam4, noise_var)):
            assert b.shape == (1, *a.shape)
            assert np.array_equal(a.view(np.int64), b[0].view(np.int64))
        assert one.random() == seq[0].random()

    def test_zero_noise_draws_nothing(self, qam4):
        """At noise_var 0.0 only the channel is drawn: each generator's next
        draw is the one after its channel's normals."""
        for rngs in (np.random.default_rng(5), [np.random.default_rng(s) for s in (5, 6)]):
            self._draws(rngs, qam4, 0.0)
            for s, r in zip((5, 6), rngs if isinstance(rngs, list) else [rngs]):
                fresh = np.random.default_rng(s)
                fresh.standard_normal((2, 3, 2))
                assert r.random() == fresh.random()


class TestChannelEstimation:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(3)
        H = draw_channel(rng)
        y = transmit_pilots(H, 0.0, 4, rng)
        assert np.allclose(estimate_channel(y, 4), H)

    def test_error_variance_halves_with_double_length(self):
        rng = np.random.default_rng(4)
        nv = 0.5
        errs = {1: [], 2: []}
        for _ in range(20000):
            H = draw_channel(rng, 1, 1)
            for P in (1, 2):
                y = transmit_pilots(H, nv, P, rng)
                errs[P].append(abs(estimate_channel(y, P)[0, 0] - H[0, 0]) ** 2)
        v1, v2 = np.mean(errs[1]), np.mean(errs[2])
        assert v1 == pytest.approx(nv, rel=0.05)
        assert v2 / v1 == pytest.approx(0.5, rel=0.05)


class TestDetectNcv:
    def test_symmetric_sample_gives_zero(self, qam4):
        # y at the origin with a single visible terminal: both bit classes
        # sit symmetrically, so every L-value vanishes
        mat = BitMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
        llr = detect_ncv(0j, (1.0, 0.0), mat, qam4, 0.5)
        assert np.allclose(llr, 0.0, atol=1e-12)

    def test_low_noise_concentrates_on_cluster(self, qam4):
        rng = np.random.default_rng(5)
        w_of_tau = joint_vector_table(2)
        for _ in range(20):
            h = tuple((rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2))
            sc = superimpose(qam4, h)
            table = ncv_table(XOR_MAP, 2)
            tau = int(rng.integers(0, 16))
            llr = detect_ncv(sc.points[tau], h, XOR_MAP, qam4, 1e-4)
            bits = llrs_to_bits(llr)
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
            sc = superimpose(qam4, h)
            weights = np.exp(-np.abs(y - sc.points) ** 2 / nv)
            llr = detect_ncv(y, h, XOR_MAP, qam4, nv)
            for i in range(2):
                bit = (table >> i) & 1
                want = np.log(weights[bit == 0].sum()) - np.log(weights[bit == 1].sum())
                assert llr[i] == pytest.approx(want, abs=1e-9)

    def test_degenerate_row_flags_infinity(self, qam4):
        mat = BitMatrix.from_rows([[1, 0, 1, 0], [0, 0, 0, 0]])
        llr = detect_ncv(0.3 + 0.1j, (1.0, 0.5), mat, qam4, 0.5)
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
            H = draw_channel(rng)
            sel = select_mappings(store, cat, H)
            taus = np.arange(16)
            xs = []
            for j in range(2):
                y = H[j, 0] * qam4.points[taus >> 2] + H[j, 1] * qam4.points[taus & 3]
                ncv = hard_ncv(y, (H[j, 0], H[j, 1]), sel.per_ap[j], qam4)
                xs.append(((ncv[:, None] >> np.arange(2)[None, :]) & 1))
            w_bits = recover_batch(sel.global_matrix, np.concatenate(xs, axis=1))
            w_hat = (w_bits * (1 << np.arange(4))[None, :]).sum(axis=1)
            assert np.array_equal(w_hat, w_of_tau[taus])

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([4, 8]), st.data())
    def test_chunk_recovers_every_frame(self, mu, data):
        """A chunk of frames, some sharing a stack: every frame recovers its
        messages, equals the one-stack call, and one flipped NCV bit changes
        exactly the message it belongs to."""
        square = st.lists(st.integers(0, (1 << mu) - 1), min_size=mu, max_size=mu).filter(
            lambda rows: rank_rows(rows) == mu
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
            assert np.array_equal(got[f], recover_batch(BitMatrix.from_row_ints(g[f].tolist(), mu), x[f]))
        f, s, r = (data.draw(st.integers(0, n - 1)) for n in (frames, samples, mu))
        x[f, s, r] ^= 1
        moved = recover_batch(g, x) != w
        assert moved[f, s].any()
        moved[f, s] = False
        assert not moved.any()

    @pytest.mark.parametrize(
        "g, x_shape",
        [
            (XOR_MAP, (5, 2)),
            (XOR_MAP.stack(XOR_MAP).stack(XOR_MAP), (5, 6)),
            (np.array([[1, 2, 4, 8, 3, 12]] * 3), (3, 5, 4)),
            (np.array([[1, 2, 4, 8, 3, 12]] * 3), (3, 5, 6)),
            (np.array([XOR_MAP.rows] * 3), (3, 5, 2)),
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
            H = draw_channel(rng)
            taus = rng.integers(0, 16, size=30)
            sym = np.stack([qam4.points[taus >> 2], qam4.points[taus & 3]])
            y = transmit(H, 0.0, sym, rng)
            got = comp_ideal(y, H, qam4)
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
        H = draw_channel(rng)
        taus = rng.integers(0, 16, size=40)
        sym = np.stack([qam4.points[taus >> 2], qam4.points[taus & 3]])
        y = transmit(H, 1e-5, sym, rng)
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
    H = np.stack([draw_channel(rng, n_aps) for _ in range(4)])
    idx = rng.integers(0, c.size, size=(4, 2, 50))
    ys = np.stack([transmit(H[f], nv, c.points[idx[f]], rng) for f in range(4)])
    stacked = comp_ideal(ys, H, c)
    assert stacked.shape == (4, 50)
    assert np.array_equal(stacked, _comp_ideal_hyp(ys, H, c))
    for f in range(4):
        assert np.array_equal(comp_ideal(ys[f], H[f], c), _comp_ideal_hyp(ys[f], H[f], c))
        assert np.array_equal(comp_ideal(ys[f], H[f], c), stacked[f])
    assert (stacked != (idx[:, 0] << c.bits_per_symbol) | idx[:, 1]).any()   # noisy enough to err


def _comp_nonideal_llrs_logaddexp(y, h, constellation, noise_var):
    """Oracle: the Jacobian-logarithm fold comp_nonideal_llrs used before it
    moved onto the max-shifted kernel (finite for every input)."""
    m = constellation.bits_per_symbol
    size = 1 << m
    hh = np.asarray(h, dtype=complex)
    ys = np.asarray(y, dtype=complex)
    if hh.ndim == 1:
        ys = np.atleast_1d(ys)
    idx = np.arange(size * size)
    labels = (idx >> m, idx & (size - 1))
    hyp = hh[..., 0, None] * constellation.points[labels[0]] + hh[..., 1, None] * constellation.points[labels[1]]
    metric = np.abs(ys[..., :, None] - hyp[..., None, :])
    metric *= metric
    metric /= -noise_var
    out = np.empty(metric.shape[:-2] + (2, m, ys.shape[-1]))
    for term in range(2):
        for i in range(m):
            bit = (labels[term] >> (m - 1 - i)) & 1
            out[..., term, i, :] = (
                np.logaddexp.reduce(metric[..., bit == 0], axis=-1)
                - np.logaddexp.reduce(metric[..., bit == 1], axis=-1)
            )
    return out


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
        small = np.abs(want) < 700
        assert np.all(np.abs(got - want)[small] <= tol[small])
        assert np.all(np.abs(want[np.isinf(got)]) > 700)
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
        H = draw_channel(rng)
        idx = rng.integers(0, 16, size=(2, 60))
        nv = noise_variance(26.0, 4)
        y = transmit(H, nv, c.points[idx], rng)
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
    """One AP (a BitMatrix, with a sample array or one sample) gives the
    slice of the stacked call on the same samples bit for bit, in both
    detection forms.  One sample is compared with a one-sample stack: a
    one-row product may round differently from a row of a larger one."""
    mod, h, y, noise_var = case
    c = make_constellation(mod)
    m = c.bits_per_symbol
    rows = np.array(data.draw(st.lists(st.integers(0, (1 << 2 * m) - 1), min_size=4 * m, max_size=4 * m)))
    rows = rows.reshape(2, 2, m)
    stacked = detect_ncv(y, h, rows, c, noise_var, max_log=max_log)
    stacked_one = detect_ncv(y[..., 2:3], h, rows, c, noise_var, max_log=max_log)
    assert stacked.shape == (2, 2, 5, m)
    for f in range(2):
        for a in range(2):
            mat = BitMatrix.from_row_ints(rows[f, a].tolist(), 2 * m)
            one = detect_ncv(y[f, a], tuple(h[f, a]), mat, c, noise_var, max_log=max_log)
            assert one.tobytes() == stacked[f, a].tobytes()
            single = detect_ncv(y[f, a, 2], tuple(h[f, a]), mat, c, noise_var, max_log=max_log)
            assert single.shape == (m,) and single.tobytes() == stacked_one[f, a, 0].tobytes()


def _distances_sample_fast(sc, ys):
    """Oracle: the distance grid before its layout followed the input's
    shape, samples always on the fast axis: (..., 2^mu, samples)."""
    d = np.abs(sc.points[..., :, None] - ys[..., None, :])
    d *= d
    return d


def _llrs_sample_fast(sc, ys, bits, noise_var, max_log=False):
    """Oracle: the likelihood kernel on that grid, with the dead exp lanes
    zeroed by a putmask before and after exp."""
    metric = _distances_sample_fast(sc, ys)
    metric /= -noise_var
    if max_log:
        side, metric = bits[..., :, None, :] == 1, metric[..., None]
        return np.where(side, -np.inf, metric).max(axis=-3) - np.where(side, metric, -np.inf).max(axis=-3)
    e = np.empty(ys.shape + metric.shape[-2:-1])
    np.subtract(metric.swapaxes(-1, -2), metric.max(axis=-2)[..., None], out=e)
    dead = e < -750.0
    np.putmask(e, dead, 0.0)
    np.exp(e, out=e)
    np.putmask(e, dead, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(e @ (1.0 - bits)) - np.log(e @ bits)


def _received_stack(mod, uses, ebn0_db, seed):
    """Two frames of two APs: channels (2, 2, 2), samples (2, 2, uses),
    random packed rows (2, 2, m) and the noise variance."""
    c = make_constellation(mod)
    m = c.bits_per_symbol
    rng = np.random.default_rng(seed)
    nv = noise_variance(ebn0_db, m)
    H = np.stack([draw_channel(rng) for _ in range(2)])
    idx = rng.integers(0, c.size, size=(2, 2, uses))
    ys = np.stack([transmit(H[f], nv, c.points[idx[f]], rng) for f in range(2)])
    rows = rng.integers(1, 1 << 2 * m, size=(2, 2, m))
    return c, H, ys, rows, nv


# qam4 (16 hypotheses) keeps samples on the fast axis; qam16 (256) puts
# hypotheses there at 120 uses and samples there at 300
GRID_CASES = [("qam4", 120, 10.0), ("qam16", 120, 26.0), ("qam16", 120, 8.0), ("qam16", 300, 26.0)]


@pytest.mark.parametrize("mod, uses, ebn0_db", GRID_CASES)
class TestShapeChosenGrid:
    """Every detector on the shape-chosen grid against the sample-fast
    oracle, bit for bit."""

    @pytest.mark.parametrize("max_log", [False, True])
    def test_detect_ncv_matches_oracle(self, mod, uses, ebn0_db, max_log):
        c, H, ys, rows, nv = _received_stack(mod, uses, ebn0_db, 31)
        got = detect_ncv(ys, H, rows, c, nv, max_log=max_log)
        bits = _ncv_bits(rows, c.bits_per_symbol).astype(float)
        want = _llrs_sample_fast(superimpose(c, H), ys, bits, nv, max_log)
        assert got.shape == (2, 2, uses, c.bits_per_symbol)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_comp_nonideal_llrs_matches_oracle(self, mod, uses, ebn0_db):
        c, H, ys, _, nv = _received_stack(mod, uses, ebn0_db, 32)
        m = c.bits_per_symbol
        got = comp_nonideal_llrs(ys, H, c, nv)
        want = _llrs_sample_fast(superimpose(c, H), ys, _ncv_bits(1 << np.arange(2 * m), m).astype(float), nv)
        want = np.moveaxis(want, -1, -2).reshape(2, 2, 2, m, uses)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_argmin_detectors_match_oracle(self, mod, uses, ebn0_db):
        c, H, ys, rows, _ = _received_stack(mod, uses, ebn0_db, 33)
        grid = _distances_sample_fast(superimpose(c, H), ys)
        assert np.array_equal(comp_ideal(ys, H, c), grid.sum(axis=-3).argmin(axis=-2))
        mat = BitMatrix.from_row_ints(rows[0, 0].tolist(), 2 * c.bits_per_symbol)
        want = ncv_table(mat, c.bits_per_symbol)[grid[0, 0].argmin(axis=0)]
        assert np.array_equal(hard_ncv(ys[0, 0], tuple(H[0, 0]), mat, c), want)


@pytest.mark.parametrize("mod", ["qam4", "qam16"])
def test_minus_inf_metric_lane_matches_oracle(mod):
    """A lane whose metric overflows to -inf is a dead lane: the L-values
    are the oracle's, and the only warning is the overflow that made the
    lane, never an invalid value (a NaN from -inf * 0)."""
    c = make_constellation(mod)
    m = c.bits_per_symbol
    h = np.array([1e4 + 0j, 1e-4 + 0j])
    sc = superimpose(c, h)
    ys = sc.points[[0, 5, 9]]               # on a hypothesis: its lane reads -0
    rows = np.arange(1, m + 1)
    nv = 1e-305                             # far hypotheses: |p - y|^2 / nv overflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = detect_ncv(ys, h, BitMatrix.from_row_ints(rows.tolist(), 2 * m), c, nv)
        want = _llrs_sample_fast(sc, ys, _ncv_bits(rows, m).astype(float), nv)
        metric = _distances_sample_fast(sc, ys) / -nv
    assert np.isneginf(metric).any() and np.isfinite(metric).any()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert {str(w.message) for w in caught} == {"overflow encountered in divide"}


def test_noise_variance_bookkeeping():
    # unit symbol energy, m information bits per symbol per terminal
    assert noise_variance(0.0, 2) == pytest.approx(0.5)
    assert noise_variance(10.0, 2) == pytest.approx(0.05)
    assert noise_variance(10.0, 4) == pytest.approx(0.025)
