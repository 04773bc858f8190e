"""Two-part splitting posets, their cover relations, Weyl predictions."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slnfusion.dyck import bounds_from_pair
from slnfusion.poset import (
    WeightPair,
    enumerate_pairs,
    maximal_pair,
    order_leq,
    poset_report,
    weyl_character_prediction,
)
from slnfusion.tensor import lr_coefficients, schur_positive
from slnfusion.typea import Weight, pairing, positive_roots, weyl_dim


def dominant_weights(n, coord_max):
    return [
        Weight(n, c) for c in itertools.product(range(coord_max + 1), repeat=n - 1)
    ]


def test_weight_pair_canonicalization():
    pair = WeightPair(Weight(3, (1, 0)), Weight(3, (0, 1)))
    # omega_2 has the lexicographically larger parts vector (1,1,0) > (1,0,0)
    assert pair.first.coords == (0, 1)
    assert pair.second.coords == (1, 0)
    assert pair == WeightPair(Weight(3, (0, 1)), Weight(3, (1, 0)))
    assert pair.total == Weight(3, (1, 1))


def test_weight_pair_validation():
    with pytest.raises(ValueError):
        WeightPair(Weight(3, (-1, 1)), Weight(3, (1, 0)))
    with pytest.raises(ValueError):
        WeightPair(Weight(2, (1,)), Weight(3, (1, 0)))


def test_weight_pair_min_vector():
    pair = WeightPair(Weight(3, (2, 0)), Weight(3, (0, 2)))
    assert pair.min_vector.values == (0, 2, 0)


def test_weight_pair_cached_attributes_keep_identity():
    a, b = Weight(4, (2, 0, 1)), Weight(4, (0, 3, 1))
    pair, fresh = WeightPair(a, b), WeightPair(b, a)
    json_before = pair.to_json()
    assert pair.total == a + b
    assert pair.min_vector is pair.min_vector  # computed once, then kept
    # reading the cached attributes leaves equality, hashing and JSON alone
    assert pair == fresh
    assert hash(pair) == hash(fresh)
    assert {pair: 1}[fresh] == 1
    assert pair.to_json() == fresh.to_json() == json_before
    assert pair.min_vector == bounds_from_pair(a, b)
    other = WeightPair(a, Weight(4, (0, 3, 0)))
    assert other.total != pair.total and other.min_vector is not None
    with pytest.raises(ValueError):
        order_leq(pair, other)
    with pytest.raises(ValueError):
        order_leq(other, pair)


def test_enumerate_pairs_frozen():
    assert [str(p) for p in enumerate_pairs(Weight(2, (0,)))] == ["((0), (0))"]
    got = [(p.first.coords, p.second.coords) for p in enumerate_pairs(Weight(2, (4,)))]
    assert got == [((4,), (0,)), ((3,), (1,)), ((2,), (2,))]
    got = [(p.first.coords, p.second.coords) for p in enumerate_pairs(Weight(3, (1, 1)))]
    assert got == [((1, 1), (0, 0)), ((0, 1), (1, 0))]


def test_enumerate_pairs_orbit_count():
    # ordered pairs = prod (m_i + 1); orbits pair up except the halved weight
    for n in (2, 3, 4):
        for lam in dominant_weights(n, 3):
            orbits = enumerate_pairs(lam)
            ordered = 1
            for m in lam.coords:
                ordered *= m + 1
            self_paired = 1 if all(m % 2 == 0 for m in lam.coords) else 0
            assert 2 * len(orbits) - self_paired == ordered


def test_order_leq_chain_and_errors():
    chain = enumerate_pairs(Weight(2, (4,)))
    assert order_leq(chain[0], chain[1])
    assert order_leq(chain[1], chain[2])
    assert order_leq(chain[0], chain[2])
    assert not order_leq(chain[2], chain[0])
    with pytest.raises(ValueError):
        order_leq(chain[0], enumerate_pairs(Weight(2, (2,)))[0])


def test_order_incomparable_example():
    a = WeightPair(Weight(3, (2, 0)), Weight(3, (0, 2)))
    b = WeightPair(Weight(3, (2, 1)), Weight(3, (0, 1)))
    assert a.total == b.total
    assert not order_leq(a, b)
    assert not order_leq(b, a)


def test_maximal_pair_frozen():
    p = maximal_pair(Weight(2, (4,)))
    assert (p.first.coords, p.second.coords) == ((2,), (2,))
    p = maximal_pair(Weight(3, (1, 0)))
    assert (p.first.coords, p.second.coords) == ((1, 0), (0, 0))
    p = maximal_pair(Weight(4, (3, 2, 1)))
    assert (p.first.coords, p.second.coords) == ((1, 1, 1), (2, 1, 0))


def test_maximal_pair_dominates_sweep():
    for n in (2, 3, 4):
        for lam in dominant_weights(n, 2):
            top = maximal_pair(lam)
            for p in enumerate_pairs(lam):
                assert order_leq(p, top)


def test_maximal_pair_min_vector_is_halved_pairing():
    for n in (2, 3, 4):
        for lam in dominant_weights(n, 3):
            top = maximal_pair(lam)
            values = top.min_vector.values
            for root, value in zip(positive_roots(n), values):
                assert value == pairing(lam, root) // 2


def test_minimum_element():
    for lam in dominant_weights(3, 2):
        bottom = WeightPair(lam, Weight.zero(3))
        for p in enumerate_pairs(lam):
            assert order_leq(bottom, p)


def test_weyl_prediction_frozen():
    pred = weyl_character_prediction(Weight(2, (2,)))
    assert (pred.max_pair.first.coords, pred.max_pair.second.coords) == ((1,), (1,))
    assert pred.character.entries == {Weight(2, (2,)): 1, Weight.zero(2): 1}
    assert pred.dimension == 4
    assert pred.proven_regime == "sl2"
    assert not pred.conjectural

    pred = weyl_character_prediction(Weight(3, (0, 1)))
    assert pred.character.entries == {Weight(3, (0, 1)): 1}
    assert pred.proven_regime == "rectangular"

    pred = weyl_character_prediction(Weight(4, (0, 2, 0)))
    assert (pred.max_pair.first.coords, pred.max_pair.second.coords) == (
        (0, 1, 0), (0, 1, 0),
    )
    assert pred.character == lr_coefficients(
        Weight(4, (0, 1, 0)), Weight(4, (0, 1, 0))
    )
    assert pred.dimension == 36


def test_weyl_prediction_conjectural_flag():
    pred = weyl_character_prediction(Weight(3, (2, 2)))
    assert (pred.max_pair.first.coords, pred.max_pair.second.coords) == (
        (1, 1), (1, 1),
    )
    assert pred.proven_regime is None
    assert pred.conjectural
    assert pred.dimension == 64


def test_weyl_prediction_json():
    pred = weyl_character_prediction(Weight(3, (2, 1)))
    payload = pred.to_json()
    assert payload["conjectural"] is False
    assert payload["dim"] == weyl_dim(pred.max_pair.first) * weyl_dim(
        pred.max_pair.second
    )


def test_poset_report_frozen():
    report = poset_report(Weight(2, (4,)))
    assert len(report.nodes) == 3
    assert report.edges == ((0, 1, True), (1, 2, True))
    assert report.min_pair.first == Weight(2, (4,))
    assert (report.max_pair.first.coords, report.max_pair.second.coords) == (
        (2,), (2,),
    )


def lr_difference_nonnegative(pair_high, pair_low):
    """Schur positivity from its definition: lr(high) - lr(low) has no
    negative entry over the union of the two maps' keys."""
    high, low = lr_coefficients(*pair_high), lr_coefficients(*pair_low)
    return all(high[w] - low[w] >= 0 for w in set(high) | set(low))


@st.composite
def small_dominant_weights(draw):
    n = draw(st.integers(2, 4))
    coords = draw(st.tuples(*[st.integers(0, 3)] * (n - 1)))
    return Weight(n, coords)


@settings(max_examples=40, deadline=None)
@given(small_dominant_weights())
def test_poset_report_edges_are_covers(lam):
    report = poset_report(lam)
    nodes = report.nodes
    assert list(nodes) == enumerate_pairs(lam)
    strict = {
        (a, b)
        for a in range(len(nodes))
        for b in range(len(nodes))
        if a != b
        and order_leq(nodes[a], nodes[b])
        and not order_leq(nodes[b], nodes[a])
    }
    covers = {
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in range(len(nodes)))
    }
    assert [(a, b) for a, b, _ in report.edges] == sorted(covers)
    for a, b, positive in report.edges:
        high, low = nodes[b], nodes[a]
        assert positive == lr_difference_nonnegative(
            (high.first, high.second), (low.first, low.second)
        )
    assert report.min_pair == nodes[0] == WeightPair(lam, Weight.zero(lam.n))
    assert report.max_pair == maximal_pair(lam)


@st.composite
def same_total_pairs(draw):
    lam = draw(small_dominant_weights())
    pairs = enumerate_pairs(lam)
    return draw(st.sampled_from(pairs)), draw(st.sampled_from(pairs))


def test_schur_positive_matches_reference():
    verdicts = set()

    @settings(max_examples=60, deadline=None)
    @given(same_total_pairs())
    def check(pairs):
        high, low = ((p.first, p.second) for p in pairs)
        got = schur_positive(high, low)
        assert got == lr_difference_nonnegative(high, low)
        verdicts.add(got)

    check()
    assert verdicts == {True, False}


def test_poset_report_json():
    payload = poset_report(Weight(3, (2, 1))).to_json()
    assert payload["edges"] == [
        {"from": 0, "to": 2, "schur_positive": True},
        {"from": 2, "to": 1, "schur_positive": True},
    ]
    assert payload["max_pair"] == {"first": [1, 1], "second": [1, 0]}
