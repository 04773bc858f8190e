"""Two-part splitting posets, their cover relations, Weyl predictions."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slnfusion.cases import _dominant_range
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
        for lam in _dominant_range(n, 3):
            orbits = enumerate_pairs(lam)
            ordered = 1
            for m in lam.coords:
                ordered *= m + 1
            self_paired = 1 if all(m % 2 == 0 for m in lam.coords) else 0
            assert 2 * len(orbits) - self_paired == ordered


def set_and_sort_pairs(lam):
    """enumerate_pairs by its definition: every splitting through the checked
    WeightPair constructor, deduplicated by a set, then sorted."""
    seen = set()
    for coords in itertools.product(*(range(m + 1) for m in lam.coords)):
        mu = Weight(lam.n, coords)
        seen.add(WeightPair(mu, lam - mu))
    return sorted(
        seen, key=lambda p: (p.first.to_parts(), p.second.to_parts()), reverse=True
    )


def test_enumerate_pairs_matches_set_and_sort_reference():
    for n, cmax in ((2, 8), (3, 4), (4, 3), (5, 2)):
        for lam in _dominant_range(n, cmax):
            got, expected = enumerate_pairs(lam), set_and_sort_pairs(lam)
            assert got == expected
            assert [hash(p) for p in got] == [hash(p) for p in expected]
            assert [p.to_json() for p in got] == [p.to_json() for p in expected]


W = Weight(3, (1, 0))
PAIR = WeightPair(W, W)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: lr_coefficients((1, 0), W), "Weight"),
        (lambda: lr_coefficients(W, (1, 0)), "Weight"),
        (lambda: schur_positive(((1, 0), W), (W, W)), "Weight"),
        (lambda: schur_positive((W, W), (W, (1, 0))), "Weight"),
        (lambda: enumerate_pairs((1, 1)), "Weight"),
        (lambda: maximal_pair((2, 2)), "Weight"),
        (lambda: WeightPair((1, 0), (0, 1)), "Weight"),
        (lambda: WeightPair(W, (0, 1)), "Weight"),
        (lambda: poset_report((1, 1)), "Weight"),
        (lambda: weyl_character_prediction((2, 2)), "Weight"),
        (lambda: order_leq((1,), (2,)), "WeightPair"),
        (lambda: order_leq(PAIR, (2,)), "WeightPair"),
    ],
    ids=[
        "lr first",
        "lr second",
        "schur high",
        "schur low",
        "enumerate_pairs",
        "maximal_pair",
        "pair first",
        "pair second",
        "poset_report",
        "weyl prediction",
        "order_leq first",
        "order_leq second",
    ],
)
def test_non_weight_arguments_raise_one_type_error(call, expected):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == f"expected a {expected}, got tuple"


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
        for lam in _dominant_range(n, 2):
            top = maximal_pair(lam)
            for p in enumerate_pairs(lam):
                assert order_leq(p, top)


def test_maximal_pair_min_vector_is_halved_pairing():
    for n in (2, 3, 4):
        for lam in _dominant_range(n, 3):
            top = maximal_pair(lam)
            values = top.min_vector.values
            for root, value in zip(positive_roots(n), values):
                assert value == pairing(lam, root) // 2


def test_minimum_element():
    for lam in _dominant_range(3, 2):
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


@settings(max_examples=40, deadline=None)
@given(small_dominant_weights())
def test_poset_report_order_matrix_is_order_leq(lam):
    # the report builds its matrix from the min-vectors directly; it must be
    # the public order on every ordered pair of nodes
    report = poset_report(lam)
    nodes = report.nodes
    assert report.leq == tuple(tuple(order_leq(a, b) for b in nodes) for a in nodes)


def test_poset_and_weyl_outputs_pinned():
    # sha256 over the JSON of every poset report of sl_3 <= 4 and sl_4 <= 3,
    # and of every Weyl prediction of sl_5 <= 2, in grid order
    reports = hashlib.sha256()
    for lam in _dominant_range(3, 4) + _dominant_range(4, 3):
        reports.update(repr(poset_report(lam).to_json()).encode())
    assert reports.hexdigest() == (
        "9081353957f0fd313d6022c8ebd57df51fbc0058be895f3b74b81111b825d2cc"
    )
    predictions = hashlib.sha256()
    for lam in _dominant_range(5, 2):
        predictions.update(repr(weyl_character_prediction(lam).to_json()).encode())
    assert predictions.hexdigest() == (
        "ee446b705f6f65fdb8534bf301581371a741c9c5671115c043a85944887cf621"
    )


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
