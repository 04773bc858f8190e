"""Exact row reduction: the integer span against the rational basis."""

import math

from hypothesis import given, settings, strategies as st

from slnfusion.linalg import IntegerRowSpan, RationalRowBasis


@st.composite
def insert_sequences(draw):
    """Sparse integer vectors; about half are integer combinations of earlier
    ones, so that both verdicts of insert occur."""
    width = draw(st.integers(1, 8))
    out = []
    for _ in range(draw(st.integers(1, 14))):
        if out and draw(st.booleans()):
            terms = draw(
                st.lists(
                    st.tuples(st.integers(0, len(out) - 1), st.integers(-4, 4)),
                    min_size=1,
                    max_size=3,
                )
            )
            vec = {}
            for index, coeff in terms:
                for k, v in out[index].items():
                    vec[k] = vec.get(k, 0) + coeff * v
        else:
            vec = draw(
                st.dictionaries(
                    st.integers(0, width - 1), st.integers(-9, 9), max_size=width
                )
            )
        out.append(vec)
    return out


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
