import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnclab.gf2 import (
    SingularMatrixError,
    enumerate_subspaces,
    inverse_f2,
    nullspace,
    rank_rows,
    rref_rows,
    rref_stack,
    span,
)
from pnclab.search import _unpack, format_matrix, parse_matrix

from oracles import all_matrices, bit_matrix as bm, greedy_rank, unpack


def full_rank(a):
    return rank_rows(a) == len(a)


def product(rows, v):
    """Matrix-vector product over F2 on packed rows and a packed vector."""
    return sum(((row & v).bit_count() & 1) << i for i, row in enumerate(rows))


def is_identity_product(a, b):
    """Whether a b = I over F2 for square packed rows, one column of b at a time."""
    return all(product(a, product(b, 1 << c)) == 1 << c for c in range(len(b)))


def inverse_one(a):
    """inverse_f2 on a frame axis of one, read back as a tuple of packed rows."""
    return tuple(inverse_f2(np.array([a]))[0].tolist())


class TestDetRank:
    def test_det_examples(self):
        assert full_rank(bm([[1, 0], [0, 1]]))
        assert not full_rank(bm([[1, 1], [1, 1]]))
        assert full_rank(bm([[1, 1], [0, 1]]))

    def test_det_requires_square(self):
        with pytest.raises(ValueError):
            inverse_f2(np.array([bm([[1, 0, 1]])]))

    def test_rank_examples(self):
        assert rank_rows(bm([[1, 0, 1, 0], [0, 1, 0, 1]])) == 2
        assert rank_rows(bm([[0, 0, 0]] * 3)) == 0
        assert rank_rows(bm([[1, 0], [0, 1], [1, 1]])) == 2

    def test_det_iff_full_rank(self):
        """A square matrix inverts exactly when its rows have full rank."""
        rng = np.random.default_rng(1)
        mats = all_matrices(2, 2)
        mats += [unpack(int(rng.integers(0, 1 << 16)), 4, 4) for _ in range(50)]
        for a in mats:
            if full_rank(a):
                assert is_identity_product(a, inverse_one(a))
            else:
                with pytest.raises(SingularMatrixError):
                    inverse_one(a)


class TestInverse:
    def test_identity(self):
        identity = (1, 2, 4, 8)
        assert inverse_one(identity) == identity

    def test_self_inverse(self):
        a = bm([[1, 1], [0, 1]])
        assert inverse_one(a) == a

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse_one(bm([[1, 1], [1, 1]]))

    def test_roundtrip_random_4x4(self):
        rng = np.random.default_rng(2)
        found = 0
        while found < 20:
            a = unpack(int(rng.integers(0, 1 << 16)), 4, 4)
            if not full_rank(a):
                continue
            found += 1
            assert is_identity_product(a, inverse_one(a))

    def test_roundtrip_all_invertible_3x3(self):
        rng = np.random.default_rng(3)
        count = 0
        for a in all_matrices(3, 3):
            if not full_rank(a):
                continue
            count += 1
            inv = inverse_one(a)
            v = int(rng.integers(0, 8))
            assert product(inv, product(a, v)) == v
        assert count == 168  # |GL(3, F2)|


class TestEnumeration:
    def test_gl2_count(self):
        mats = all_matrices(2, 2)
        assert len(mats) == 16
        assert sum(map(full_rank, mats)) == 6  # |GL(2, F2)|


class TestEncoding:
    """A matrix's encoding, which the store unpacks, and its text form in store files."""

    def test_little_endian_row_major(self):
        # bit index r * n_cols + c
        assert tuple(_unpack(0b0001, 2, 2).tolist()) == bm([[1, 0], [0, 0]])
        assert tuple(_unpack(0b0100, 2, 2).tolist()) == bm([[0, 0], [1, 0]])

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            enc = int(rng.integers(0, 1 << 8))
            assert tuple(_unpack(enc, 2, 4).tolist()) == unpack(enc, 2, 4)
            assert parse_matrix(format_matrix(enc, 2, 4), 2, 4) == enc

    def test_text_format(self):
        rows = bm([[1, 0, 1, 0], [0, 1, 0, 1]])
        assert format_matrix(rows[0] | rows[1] << 4, 2, 4) == "2x4:a5"

    @pytest.mark.parametrize("text", ["2x4:1e1", "2x2:-1"])
    def test_text_bits_beyond_shape_refused(self, text):
        """``2x4:1e1`` used to drop its bit 8 and read as rows 1, 14."""
        t, mu = map(int, text.partition(":")[0].split("x"))
        with pytest.raises(ValueError, match="bits beyond"):
            parse_matrix(text, t, mu)


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
        mats = all_matrices(2, 4)
        ranks = rank_rows(mats)
        spaces = {frozenset(span(rref_rows(m, 4)[0])) for m, r in zip(mats, ranks) if r == 2}
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
        if greedy_rank(basis + [r]) > len(basis):
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
        subspaces = enumerate_subspaces(basis, dim)
        assert len(subspaces) == gaussian_binomial(len(basis), dim)
        assert (rank_rows(subspaces) == dim).all()
        whole = set(span(basis))
        spans = set()
        for rows in subspaces.tolist():
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


    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4, 8, 63]), st.lists(st.integers(0, 3), max_size=3), st.integers(0, 9), st.data())
    def test_stack_matches_greedy_oracle(self, n_cols, lead, r, data):
        """Each slice's rank is the greedy oracle's, over stacks with zero
        rows, repeated rows, no matrices and matrices of no rows; a 1-D
        sequence of rows (no leading axes) gives a 0-d rank."""
        pool = data.draw(st.lists(st.integers(0, (1 << n_cols) - 1), min_size=1, max_size=4))
        row = st.one_of(st.just(0), st.sampled_from(pool), st.integers(0, (1 << n_cols) - 1))
        flat = data.draw(st.lists(row, min_size=math.prod(lead) * r, max_size=math.prod(lead) * r))
        rows = np.array(flat, dtype=np.int64).reshape(tuple(lead) + (r,))
        ranks = rank_rows(rows if lead else flat)
        assert ranks.shape == tuple(lead)
        for idx in np.ndindex(*lead):
            assert ranks[idx] == greedy_rank(rows[idx].tolist())


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
        a = tuple(rows)
        if greedy_rank(rows) < n:
            with pytest.raises(SingularMatrixError):
                inverse_one(a)
            return
        inv = inverse_one(a)
        assert is_identity_product(a, inv)
        assert is_identity_product(inv, a)
        assert inverse_one(inv) == a

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 4, 8]), st.data())
    def test_stack_inverts_each_slice(self, n, data):
        """Each slice of a stack inverts as it would alone, to A^-1 with
        A A^-1 = I; one singular slice, or a bit at or above n, refuses the stack."""
        square = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
        invertible = square.filter(lambda rows: greedy_rank(rows) == n)
        stack = np.array(data.draw(st.lists(invertible, min_size=1, max_size=6)))
        inv = inverse_f2(stack)
        assert inv.shape == stack.shape and np.array_equal(inverse_f2(stack[None])[0], inv)
        for a, b in zip(stack.tolist(), inv.tolist()):
            assert inverse_f2(np.array([a]))[0].tolist() == b
            assert all(product(a, product(b, 1 << c)) == 1 << c for c in range(n))
        singular = data.draw(square.filter(lambda rows: greedy_rank(rows) < n))
        with pytest.raises(SingularMatrixError):
            inverse_f2(np.insert(stack, data.draw(st.integers(0, len(stack))), singular, axis=0))
        wide = stack.copy()
        f, r = data.draw(st.integers(0, len(stack) - 1)), data.draw(st.integers(0, n - 1))
        wide[f, r] |= 1 << data.draw(st.integers(n, 2 * n))
        with pytest.raises(ValueError, match="at or above"):
            inverse_f2(wide)
