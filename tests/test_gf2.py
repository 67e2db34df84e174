import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab.gf2 import (
    BitMatrix,
    SingularMatrixError,
    enumerate_subspaces,
    inverse_f2,
    nullspace,
    rank_rows,
    rref_rows,
    rref_stack,
    span,
)

from oracles import all_matrices, bit_matrix as bm


def full_rank(a):
    return rank_rows(a.rows) == a.n_rows


def product(rows, v):
    """Matrix-vector product over F2 on packed rows and a packed vector."""
    return sum(((row & v).bit_count() & 1) << i for i, row in enumerate(rows))


def is_identity_product(a, b):
    """Whether a b = I over F2, one column of b at a time."""
    return all(product(a.rows, product(b.rows, 1 << c)) == 1 << c for c in range(b.n_cols))


class TestDetRank:
    def test_det_examples(self):
        assert full_rank(bm([[1, 0], [0, 1]]))
        assert not full_rank(bm([[1, 1], [1, 1]]))
        assert full_rank(bm([[1, 1], [0, 1]]))

    def test_det_requires_square(self):
        with pytest.raises(ValueError):
            inverse_f2(bm([[1, 0, 1]]))

    def test_rank_examples(self):
        assert rank_rows(bm([[1, 0, 1, 0], [0, 1, 0, 1]]).rows) == 2
        assert rank_rows(bm([[0, 0, 0]] * 3).rows) == 0
        assert rank_rows(bm([[1, 0], [0, 1], [1, 1]]).rows) == 2

    def test_det_iff_full_rank(self):
        """A square matrix inverts exactly when its rows have full rank."""
        rng = np.random.default_rng(1)
        mats = all_matrices(2, 2)
        mats += [BitMatrix.from_encoding(int(rng.integers(0, 1 << 16)), 4, 4) for _ in range(50)]
        for a in mats:
            if full_rank(a):
                assert is_identity_product(a, inverse_f2(a))
            else:
                with pytest.raises(SingularMatrixError):
                    inverse_f2(a)


class TestInverse:
    def test_identity(self):
        identity = BitMatrix.from_row_ints((1, 2, 4, 8), 4)
        assert inverse_f2(identity) == identity

    def test_self_inverse(self):
        a = bm([[1, 1], [0, 1]])
        assert inverse_f2(a) == a

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse_f2(bm([[1, 1], [1, 1]]))

    def test_roundtrip_random_4x4(self):
        rng = np.random.default_rng(2)
        found = 0
        while found < 20:
            a = BitMatrix.from_encoding(int(rng.integers(0, 1 << 16)), 4, 4)
            if not full_rank(a):
                continue
            found += 1
            assert is_identity_product(a, inverse_f2(a))

    def test_roundtrip_all_invertible_3x3(self):
        rng = np.random.default_rng(3)
        count = 0
        for a in all_matrices(3, 3):
            if not full_rank(a):
                continue
            count += 1
            inv = inverse_f2(a)
            v = int(rng.integers(0, 8))
            assert product(inv.rows, product(a.rows, v)) == v
        assert count == 168  # |GL(3, F2)|


class TestEnumeration:
    def test_gl2_count(self):
        mats = all_matrices(2, 2)
        assert len(mats) == 16
        assert sum(map(full_rank, mats)) == 6  # |GL(2, F2)|


class TestEncoding:
    def test_little_endian_row_major(self):
        # bit index r * n_cols + c
        assert BitMatrix.from_encoding(0b0001, 2, 2) == bm([[1, 0], [0, 0]])
        assert BitMatrix.from_encoding(0b0100, 2, 2) == bm([[0, 0], [1, 0]])

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            enc = int(rng.integers(0, 1 << 8))
            m = BitMatrix.from_encoding(enc, 2, 4)
            assert m.encoding == enc
            assert BitMatrix.from_text(m.to_text()) == m

    def test_text_format(self):
        m = bm([[1, 0, 1, 0], [0, 1, 0, 1]])
        assert m.to_text() == f"2x4:{m.encoding:x}"

    @pytest.mark.parametrize("text", ["2x4:1e1", "2x2:-1"])
    def test_text_bits_beyond_shape_refused(self, text):
        """``2x4:1e1`` used to drop its bit 8 and read as rows 1, 14."""
        with pytest.raises(ValueError, match="bits beyond"):
            BitMatrix.from_text(text)


class TestSubspaces:
    def test_nullspace_orthogonality(self):
        rows = (0b0110, 0b1001)
        ns = nullspace(rows, 4)
        for v in span(ns):
            for r in rows:
                assert (r & v).bit_count() % 2 == 0

    def test_subspace_counts(self):
        full3 = tuple(1 << i for i in range(3))
        assert sum(1 for _ in enumerate_subspaces(full3, 1)) == 7
        full4 = tuple(1 << i for i in range(4))
        assert sum(1 for _ in enumerate_subspaces(full4, 2)) == 35

    def test_subspaces_match_bruteforce_rowspaces(self):
        # oracle: distinct row spaces of all rank-2 2x4 matrices
        spaces = set()
        for m in all_matrices(2, 4):
            if rank_rows(m.rows) == 2:
                spaces.add(frozenset(span(rref_rows(m.rows, 4)[0])))
        enumerated = {
            frozenset(span(rows)) for rows in enumerate_subspaces(tuple(1 << i for i in range(4)), 2)
        }
        assert enumerated == spaces

    def test_rref_canonical(self):
        rows1, _ = rref_rows((0b0110, 0b1111), 4)
        rows2, _ = rref_rows((0b1001, 0b0110), 4)
        assert rows1 == rows2


def gaussian_binomial(n, k):
    """[n choose k]_2: the number of k-dim subspaces of F2^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


@st.composite
def independent_rows(draw, max_cols=8):
    """(basis, n_cols): linearly independent packed rows in F2^n_cols."""
    n_cols = draw(st.integers(1, max_cols))
    candidates = draw(st.lists(st.integers(1, (1 << n_cols) - 1), max_size=n_cols + 3))
    basis = []
    for r in candidates:
        if rank_rows(basis + [r]) > len(basis):
            basis.append(r)
    return tuple(basis), n_cols


def _is_canonical(rows, n_cols):
    """RREF shape: pivots (lowest set bits) strictly increase, and each
    pivot column is set in its own row only."""
    pivots = [(r & -r).bit_length() - 1 for r in rows]
    if any(r == 0 for r in rows) or pivots != sorted(set(pivots)):
        return False
    return all(sum((r >> p) & 1 for r in rows) == 1 for p in pivots)


class TestSubspaceProperties:
    @settings(max_examples=60, deadline=None)
    @given(independent_rows(max_cols=6), st.data())
    def test_every_subspace_once(self, basis_cols, data):
        """Count is the Gaussian binomial, the spans are distinct, and each
        is a dim-dimensional subspace of span(basis): together, every
        subspace appears exactly once."""
        basis, _ = basis_cols
        dim = data.draw(st.integers(0, len(basis)))
        subspaces = enumerate_subspaces(basis, dim).tolist()
        assert len(subspaces) == gaussian_binomial(len(basis), dim)
        whole = set(span(basis))
        spans = set()
        for rows in subspaces:
            assert rank_rows(rows) == dim
            members = frozenset(span(rows))
            assert members <= whole
            spans.add(members)
        assert len(spans) == len(subspaces)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_standard_basis_rows_are_canonical(self, n_cols, data):
        dim = data.draw(st.integers(1, n_cols))
        for rows in enumerate_subspaces(tuple(1 << c for c in range(n_cols)), dim).tolist():
            assert rref_rows(rows, n_cols) == (tuple(rows), tuple((r & -r).bit_length() - 1 for r in rows))

    def test_out_of_range_dimension_is_empty(self):
        assert enumerate_subspaces((1, 2), 3).shape == (0, 3)
        assert enumerate_subspaces((1, 2), -1).shape[0] == 0


class TestRankProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda c: st.lists(st.integers(0, (1 << c) - 1), max_size=8)), st.data())
    def test_log2_of_span_and_row_operations(self, rows, data):
        """The rank is log2 of the span's size, and swapping rows or adding
        one row to another leaves it unchanged."""
        spanned = {0}
        for row in rows:
            spanned |= {x ^ row for x in spanned}
        rank = rank_rows(rows)
        assert 1 << rank == len(spanned)
        ops = st.tuples(st.booleans(), st.integers(0, max(len(rows) - 1, 0)), st.integers(0, max(len(rows) - 1, 0)))
        moved = list(rows)
        for swap, i, j in data.draw(st.lists(ops, max_size=6)) if rows else ():
            if swap:
                moved[i], moved[j] = moved[j], moved[i]
            elif i != j:
                moved[j] ^= moved[i]
        assert rank_rows(moved) == rank


class TestRrefProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.lists(st.integers(0, (1 << n) - 1), max_size=9), st.just(n))
    ))
    def test_canonical_and_same_span(self, rows_cols):
        rows, n_cols = rows_cols
        reduced, pivots = rref_rows(rows, n_cols)
        assert _is_canonical(reduced, n_cols)
        assert pivots == tuple((r & -r).bit_length() - 1 for r in reduced)
        closure = {0}
        for r in rows:
            closure |= {x ^ r for x in closure}
        assert set(span(reduced)) == closure
        assert len(reduced) == rank_rows(rows)

    @settings(max_examples=50, deadline=None)
    @given(independent_rows())
    def test_any_basis_gives_the_same_form(self, basis_cols):
        """Canonical: every basis of a space reduces to the same rows."""
        basis, n_cols = basis_cols
        mixed = [basis[0]] + [b ^ basis[0] for b in basis[1:]] if basis else []
        assert rref_rows(mixed, n_cols) == rref_rows(basis, n_cols)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_stack_matches_rref_rows(self, n_cols, n_rows, seed):
        rows = np.random.default_rng(seed).integers(0, 1 << n_cols, size=(40, n_rows))
        got = rref_stack(rows, n_cols).tolist()
        for want, have in zip(rows.tolist(), got):
            reduced, _ = rref_rows(want, n_cols)
            assert tuple(have) == reduced + (0,) * (n_rows - len(reduced))


_SQUARE = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
)


class TestInverseSolveProperties:
    @settings(max_examples=200, deadline=None)
    @given(_SQUARE)
    def test_inverse_round_trip(self, square):
        n, rows = square
        a = BitMatrix.from_row_ints(rows, n)
        if rank_rows(rows) < n:
            with pytest.raises(SingularMatrixError):
                inverse_f2(a)
            return
        inv = inverse_f2(a)
        assert is_identity_product(a, inv)
        assert is_identity_product(inv, a)
        assert inverse_f2(inv) == a
