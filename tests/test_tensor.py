"""Tensor decomposition oracle and decomposition-map plumbing."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slnfusion.cases import is_much_greater, large_case_mults
from slnfusion.tensor import DecompositionMap, _klimyk, lr_coefficients, schur_positive
from slnfusion.typea import Weight, weight_multiplicities, weyl_dim


def dominant_weights(n, coord_max):
    return [
        Weight(n, c) for c in itertools.product(range(coord_max + 1), repeat=n - 1)
    ]


def test_map_validation():
    w = Weight(3, (1, 0))
    dm = DecompositionMap(3, {w: 2, Weight.zero(3): 0})
    assert dm[w] == 2
    assert Weight.zero(3) not in dm  # zero multiplicities are dropped
    with pytest.raises(ValueError):
        DecompositionMap(3, {w: -1})
    with pytest.raises(ValueError):
        DecompositionMap(3, {Weight(3, (-1, 1)): 1})
    with pytest.raises(ValueError):
        DecompositionMap(3, {Weight(2, (1,)): 1})


def test_map_sorting_and_json():
    dm = DecompositionMap(
        3, {Weight.zero(3): 1, Weight(3, (1, 1)): 2, Weight(3, (0, 3)): 1}
    )
    # (0,3) dominates (1,1): their difference is the second simple root
    ordered = [w.coords for w, _ in dm.items_sorted()]
    assert ordered == [(0, 3), (1, 1), (0, 0)]
    payload = dm.to_json()
    assert payload["n"] == 3
    assert payload["terms"][0] == {"tau": [0, 3], "mult": 1}


def test_map_dimension():
    dm = DecompositionMap(3, {Weight(3, (1, 1)): 1, Weight.zero(3): 1})
    assert dm.dimension() == 9


def test_lr_frozen_fundamentals():
    got = lr_coefficients(Weight(3, (1, 0)), Weight(3, (0, 1)))
    assert got.entries == {Weight(3, (1, 1)): 1, Weight.zero(3): 1}
    got = lr_coefficients(Weight(3, (1, 0)), Weight(3, (1, 0)))
    assert got.entries == {Weight(3, (2, 0)): 1, Weight(3, (0, 1)): 1}
    got = lr_coefficients(Weight(4, (1, 0, 0)), Weight(4, (0, 0, 1)))
    assert got.entries == {Weight(4, (1, 0, 1)): 1, Weight.zero(4): 1}


def test_lr_adjoint_squared():
    got = lr_coefficients(Weight(3, (1, 1)), Weight(3, (1, 1)))
    assert got.entries == {
        Weight(3, (2, 2)): 1,
        Weight(3, (3, 0)): 1,
        Weight(3, (0, 3)): 1,
        Weight(3, (1, 1)): 2,
        Weight.zero(3): 1,
    }


def test_lr_with_trivial_factor():
    for lam in dominant_weights(3, 2):
        got = lr_coefficients(lam, Weight.zero(3))
        assert got.entries == {lam: 1}


def test_lr_sl2_is_clebsch_gordan():
    for m1 in range(6):
        for m2 in range(m1 + 1):
            got = lr_coefficients(Weight(2, (m1,)), Weight(2, (m2,)))
            expected = {
                Weight(2, (m1 + m2 - 2 * k,)): 1 for k in range(m2 + 1)
            }
            assert got.entries == expected


def test_lr_symmetry():
    weights = dominant_weights(3, 2)
    for a in weights:
        for b in weights:
            assert _klimyk(a, b) == _klimyk(b, a)


def test_lr_validation():
    with pytest.raises(ValueError):
        lr_coefficients(Weight(3, (-1, 0)), Weight(3, (1, 0)))
    with pytest.raises(ValueError):
        lr_coefficients(Weight(2, (1,)), Weight(3, (1, 0)))


def test_lr_dimension_identity():
    for n in (2, 3, 4):
        for a in dominant_weights(n, 2):
            for b in dominant_weights(n, 2):
                got = lr_coefficients(a, b)
                assert got.dimension() == weyl_dim(a) * weyl_dim(b)


def test_lr_top_coefficient_is_one():
    for n in (3, 4):
        for a in dominant_weights(n, 2):
            for b in dominant_weights(n, 2):
                assert lr_coefficients(a, b)[a + b] == 1


def test_lr_matches_character_convolution():
    # independent oracle: characters multiply, so convolving the two weight
    # diagrams must equal the multiplicity-weighted sum of the constituents'
    for a in dominant_weights(3, 2):
        for b in dominant_weights(3, 2):
            conv = {}
            for mu1, k1 in weight_multiplicities(a).items():
                for mu2, k2 in weight_multiplicities(b).items():
                    key = mu1 + mu2
                    conv[key] = conv.get(key, 0) + k1 * k2
            recomposed = {}
            for tau, mult in lr_coefficients(a, b).entries.items():
                for mu, k in weight_multiplicities(tau).items():
                    recomposed[mu] = recomposed.get(mu, 0) + mult * k
            assert conv == recomposed


def test_schur_positive_frozen():
    # lr((3),(1)) = V(4) + V(2) contains lr((4),(0)) = V(4), not conversely
    high = (Weight(2, (3,)), Weight(2, (1,)))
    low = (Weight(2, (4,)), Weight(2, (0,)))
    assert schur_positive(high, low) is True
    assert schur_positive(low, high) is False


def test_schur_positive_requires_same_total():
    with pytest.raises(ValueError):
        schur_positive(
            (Weight(2, (3,)), Weight(2, (1,))),
            (Weight(2, (3,)), Weight(2, (0,))),
        )


def weights(n, coord_max):
    return st.tuples(*[st.integers(0, coord_max)] * (n - 1)).map(lambda c: Weight(n, c))


def weight_pairs(coord_max):
    return st.integers(2, 4).flatmap(
        lambda n: st.tuples(weights(n, coord_max), weights(n, coord_max))
    )


@settings(max_examples=40, deadline=None)
@given(weight_pairs(3))
def test_lr_symmetric_and_dimension_property(pair):
    a, b = pair
    got = lr_coefficients(a, b)
    assert got == lr_coefficients(b, a)
    assert got.dimension() == weyl_dim(a) * weyl_dim(b)


def _expand(pairs):
    # sum of m * lr(x, y) over (x, y, m), in the irreducible basis
    out = {}
    for x, y, m in pairs:
        for sigma, k in lr_coefficients(x, y).items_sorted():
            out[sigma] = out.get(sigma, 0) + m * k
    return out


@settings(max_examples=20, deadline=None)
@given(weights(3, 2), weights(3, 2), weights(3, 2))
def test_lr_associative_sl3(a, b, c):
    # (V(a) (x) V(b)) (x) V(c) == V(a) (x) (V(b) (x) V(c))
    left = _expand((tau, c, m) for tau, m in lr_coefficients(a, b).items_sorted())
    right = _expand((a, sigma, m) for sigma, m in lr_coefficients(b, c).items_sorted())
    assert left == right


@st.composite
def much_greater_pairs(draw):
    # lambda1 + w(lambda2) is dominant for every w iff each coordinate of
    # lambda1 is at least p_1 - p_n = sum of lambda2's coordinates
    n = draw(st.integers(2, 4))
    b = draw(weights(n, 2))
    extra = draw(st.tuples(*[st.integers(0, 2)] * (n - 1)))
    a = Weight(n, tuple(sum(b.coords) + e for e in extra))
    return a, b


@settings(max_examples=40, deadline=None)
@given(much_greater_pairs())
def test_lr_matches_large_case(pair):
    a, b = pair
    assert is_much_greater(a, b)
    assert lr_coefficients(a, b) == large_case_mults(a, b)
