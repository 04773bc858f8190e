"""Exact row reduction: the integer span against the rational basis."""

import copy
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from slnfusion.linalg import IntegerRowSpan, RationalRowBasis


@st.composite
def insert_sequences(draw, entries=st.integers(-9, 9), coeffs=st.integers(-4, 4)):
    """Sparse vectors with values from `entries`; about half are combinations
    of earlier ones with coefficients from `coeffs`, so that both verdicts of
    insert occur."""
    width = draw(st.integers(1, 8))
    out = []
    for _ in range(draw(st.integers(1, 14))):
        if out and draw(st.booleans()):
            terms = draw(
                st.lists(
                    st.tuples(st.integers(0, len(out) - 1), coeffs),
                    min_size=1,
                    max_size=3,
                )
            )
            vec = {}
            for index, coeff in terms:
                for k, v in out[index].items():
                    vec[k] = vec.get(k, 0) + coeff * v
        else:
            vec = draw(st.dictionaries(st.integers(0, width - 1), entries, max_size=width))
        out.append(vec)
    return out


FRACTION_SEQUENCES = insert_sequences(
    entries=st.fractions(-9, 9, max_denominator=6),
    coeffs=st.fractions(-4, 4, max_denominator=3),
)


class FractionRowBasis:
    """Reference: the reduced echelon basis computed with every entry a
    Fraction, as RationalRowBasis did before it kept integers as ints."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        residue = {k: Fraction(v) for k, v in vec.items() if v}
        coeffs = {p: c for p, c in residue.items() if p in self.rows}
        for p, c in coeffs.items():
            for k, v in self.rows[p].items():
                val = residue.get(k, 0) - c * v
                if val:
                    residue[k] = val
                else:
                    del residue[k]
        return residue, coeffs

    def insert(self, vec):
        residue, _ = self.reduce(vec)
        if not residue:
            return None
        p = min(residue)
        stored = {k: v / residue[p] for k, v in residue.items()}
        for other in self.rows.values():
            coeff = other.get(p)
            if coeff:
                for k, v in stored.items():
                    val = other.get(k, 0) - coeff * v
                    if val:
                        other[k] = val
                    else:
                        del other[k]
        self.rows[p] = stored
        return stored


def exact(values) -> bool:
    return all(type(v) in (int, Fraction) for v in values)


def assert_matches_fraction_reference(vectors):
    basis, reference = RationalRowBasis(), FractionRowBasis()
    for vec in vectors:
        stored = basis.insert(vec)
        assert stored == reference.insert(vec)
        assert stored is None or exact(stored.values())
        assert basis.pivots() == sorted(reference.rows)
        for p in basis.pivots():
            assert basis.row(p) == reference.rows[p]
            assert exact(basis.row(p).values())
        coords = basis.coordinates(vec)
        residue, expected = reference.reduce(vec)
        assert not residue and coords == expected
        assert exact(coords.values())


@settings(max_examples=200, deadline=None)
@given(insert_sequences())
def test_rational_basis_matches_fraction_reference_on_ints(vectors):
    assert_matches_fraction_reference(vectors)


@settings(max_examples=200, deadline=None)
@given(FRACTION_SEQUENCES)
def test_rational_basis_matches_fraction_reference_on_fractions(vectors):
    assert_matches_fraction_reference(vectors)


@settings(max_examples=100, deadline=None)
@given(insert_sequences())
def test_insert_leaves_caller_vectors_unchanged(vectors):
    for basis in (IntegerRowSpan(), RationalRowBasis()):
        snapshot = copy.deepcopy(vectors)
        for vec in vectors:
            basis.insert(vec)
        # later inserts reduce stored rows in place; none may be a caller's dict
        assert vectors == snapshot


def test_integer_span_frozen():
    span = IntegerRowSpan()
    assert span.insert({0: 2, 1: 4}) == {0: 1, 1: 2}
    assert span.insert({0: -3, 1: -6}) is None
    assert span.insert({0: 1, 2: 3}) == {1: 2, 2: -3}
    assert span.insert({}) is None
    assert span.dimension == 2


@settings(max_examples=200, deadline=None)
@given(insert_sequences())
def test_integer_span_agrees_with_rational_basis(vectors):
    span, basis = IntegerRowSpan(), RationalRowBasis()
    for vec in vectors:
        stored = span.insert(vec)
        assert (stored is None) == (basis.insert(vec) is None)
        assert span.dimension == basis.dimension
        if stored is not None:
            assert all(type(v) is int and v for v in stored.values())
            assert math.gcd(*stored.values()) == 1
            assert stored[min(stored)] > 0
        # every vector inserted so far lies in the rational span
        coeffs = basis.coordinates(vec)
        rebuilt = {}
        for pivot, c in coeffs.items():
            for k, v in basis.row(pivot).items():
                rebuilt[k] = rebuilt.get(k, 0) + c * v
        assert {k: v for k, v in rebuilt.items() if v} == {k: v for k, v in vec.items() if v}


def test_rational_basis_frozen():
    basis = RationalRowBasis()
    assert basis.insert({1: 1}) == {1: 1}
    assert basis.insert({0: 1, 1: 1}) == {0: 1}
    assert basis.insert({0: 2, 1: -3}) is None
    assert basis.coordinates({0: 2, 1: -3}) == {0: 2, 1: -3}


def test_rational_basis_keeps_ints_where_exact():
    basis = RationalRowBasis()
    row = basis.insert({0: 2, 1: 4})
    assert row == {0: 1, 1: 2} and all(type(v) is int for v in row.values())
    row = basis.insert({1: 2, 2: 3})
    assert row == {1: 1, 2: Fraction(3, 2)}
    assert type(row[1]) is int and type(row[2]) is Fraction
    # the earlier row is reduced at the new pivot, exactly
    assert basis.row(0) == {0: 1, 2: -3}
    coords = basis.coordinates({0: 1, 1: 1, 2: -Fraction(3, 2)})
    assert coords == {0: 1, 1: 1} and all(type(v) is int for v in coords.values())
    # float entries are converted exactly, as Fraction does
    row = RationalRowBasis().insert({0: 0.5, 1: 0.25})
    assert row == {0: 1, 1: Fraction(1, 2)} and exact(row.values())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rational_basis_independent_of_insertion_order(data):
    vectors = data.draw(insert_sequences())
    bases = []
    for _ in range(2):
        basis = RationalRowBasis()
        for vec in data.draw(st.permutations(vectors)):
            basis.insert(vec)
        bases.append(basis)
    first, second = bases
    assert first.pivots() == second.pivots()
    assert [first.row(p) for p in first.pivots()] == [second.row(p) for p in second.pivots()]
