import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab.gf2 import BitMatrix, BitVector, mul
from pnclab.link import (
    QuantizerSpec,
    comp_combine,
    comp_ideal,
    comp_nonideal_llrs,
    cpu_recover,
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
from pnclab.mapping import joint_vector_table, ncv_table, superimpose
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
        w_of_tau, _ = joint_vector_table(2)
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
        w_of_tau, _ = joint_vector_table(2)
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

    def test_identity_stack_passthrough(self):
        g = BitMatrix.identity(4)
        x = BitVector.from_bits((1, 0, 1, 1))
        w, dropped = cpu_recover(x, g)
        assert w == x and dropped == 0

    def test_single_flipped_bit_changes_message(self):
        g = BitMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
        w = BitVector.from_bits((1, 1, 0, 1))
        x = mul(g, w)
        flipped = BitVector(4, x.value ^ 1)
        w2, _ = cpu_recover(flipped, g)
        assert w2 != w

    def test_overdetermined_conflict_resolution(self):
        g = BitMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]]
        )
        w = BitVector.from_bits((1, 0, 1, 1))
        x = mul(g, w)
        # flip the redundant equation; it carries the least reliable L-value
        bad = BitVector(5, x.value ^ (1 << 4))
        got, dropped = cpu_recover(bad, g, llrs=[5.0, 4.0, 3.0, 2.0, 0.1])
        assert got == w and dropped == 1


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


def test_noise_variance_bookkeeping():
    # unit symbol energy, m information bits per symbol per terminal
    assert noise_variance(0.0, 2) == pytest.approx(0.5)
    assert noise_variance(10.0, 2) == pytest.approx(0.05)
    assert noise_variance(10.0, 4) == pytest.approx(0.025)
