"""Tensor decomposition oracle and decomposition-map plumbing."""

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from slnfusion import cache_info, tensor
from slnfusion.cases import _dominant_range, is_much_greater, large_case_mults
from slnfusion.poset import enumerate_pairs
from slnfusion.tensor import DecompositionMap, _klimyk, lr_coefficients, schur_positive
from slnfusion.typea import Weight, weight_multiplicities, weyl_dim


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
    # entries that are not a mapping: a list of pairs, or nothing
    for entries in ([(w, 1)], None):
        with pytest.raises(ValueError, match="must be a mapping"):
            DecompositionMap(3, entries)


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


def test_map_dimension_equals_the_fresh_sum_and_is_computed_once():
    def unreachable(parts):
        raise AssertionError("dimension() recomputed")

    maps = [DecompositionMap(3, {Weight(3, (2, 1)): 2, Weight.zero(3): 3})]
    maps += [lr_coefficients(a, b) for a in _dominant_range(4, 1) for b in _dominant_range(4, 1)]
    for dm in maps:
        fresh = sum(m * weyl_dim(w) for w, m in dm.items_sorted())
        assert dm.dimension() == fresh
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor, "_weyl_dim_parts", unreachable)
            assert dm.dimension() == fresh


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
    for lam in _dominant_range(3, 2):
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
    # the fold is the same whichever factor is walked: one cache entry
    # serves a pair and its reverse
    weights = [w.to_parts() for w in _dominant_range(3, 2)]
    for a in weights:
        for b in weights:
            assert _klimyk(a, b) == _klimyk(b, a)


def test_lr_reverse_pair_shares_one_fold():
    a, b = Weight(4, (3, 0, 2)), Weight(4, (1, 2, 0))
    forward = lr_coefficients(a, b)
    before = cache_info()["_lr_cached"]
    assert lr_coefficients(b, a) == forward
    assert schur_positive((b, a), (a, b)) and schur_positive((a, b), (b, a))
    after = cache_info()["_lr_cached"]
    # one hit for lr_coefficients, two for each schur_positive; no miss
    assert after == {**before, "hits": before["hits"] + 5}


def test_lr_failing_pair_is_never_cached():
    before = cache_info()["_lr_cached"]
    for bad in (Weight(3, (-1, 2)), Weight(2, (1,))):
        for pair in ((bad, Weight(3, (1, 0))), (Weight(3, (1, 0)), bad)):
            with pytest.raises(ValueError):
                lr_coefficients(*pair)
    assert cache_info()["_lr_cached"] == before


def test_lr_validation():
    with pytest.raises(ValueError):
        lr_coefficients(Weight(3, (-1, 0)), Weight(3, (1, 0)))
    with pytest.raises(ValueError):
        lr_coefficients(Weight(2, (1,)), Weight(3, (1, 0)))


def test_lr_dimension_identity():
    for n in (2, 3, 4):
        for a in _dominant_range(n, 2):
            for b in _dominant_range(n, 2):
                got = lr_coefficients(a, b)
                assert got.dimension() == weyl_dim(a) * weyl_dim(b)


def test_lr_top_coefficient_is_one():
    for n in (3, 4):
        for a in _dominant_range(n, 2):
            for b in _dominant_range(n, 2):
                assert lr_coefficients(a, b)[a + b] == 1


def test_lr_matches_character_convolution():
    # independent oracle: characters multiply, so convolving the two weight
    # diagrams must equal the multiplicity-weighted sum of the constituents'
    for a in _dominant_range(3, 2):
        for b in _dominant_range(3, 2):
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
    with pytest.raises(ValueError) as exc:
        schur_positive(
            (Weight(2, (3,)), Weight(2, (1,))),
            (Weight(2, (3,)), Weight(2, (0,))),
        )
    assert str(exc.value) == "pairs must share the same total weight, got (4) vs (3)"


@pytest.mark.parametrize(
    "high, low, message",
    [
        (
            (Weight(2, (1,)), Weight(2, (0,))),
            (Weight(3, (1, 0)), Weight.zero(3)),
            "rank mismatch: sl_2 vs sl_3",
        ),
        (
            (Weight(3, (1, 0)), Weight(3, (0, 1))),
            (Weight(4, (1, 0, 0)), Weight(4, (0, 1, 0))),
            "rank mismatch: sl_3 vs sl_4",
        ),
        (
            (Weight(2, (1,)), Weight(3, (1, 0))),
            (Weight(3, (1, 0)), Weight.zero(3)),
            "rank mismatch: sl_2 vs sl_3",
        ),
        (
            (Weight(3, (2, -1)), Weight(3, (0, 2))),
            (Weight(3, (2, 1)), Weight.zero(3)),
            "expected a dominant weight, got (2,-1)",
        ),
        (
            (Weight(3, (2, 1)), Weight.zero(3)),
            (Weight(3, (3, -1)), Weight(3, (-1, 2))),
            "expected a dominant weight, got (3,-1)",
        ),
    ],
    ids=[
        "total across ranks",
        "rank across pairs",
        "rank",
        "high not dominant",
        "low not dominant",
    ],
)
def test_schur_positive_error_messages(high, low, message):
    with pytest.raises(ValueError) as exc:
        schur_positive(high, low)
    assert str(exc.value) == message


def test_schur_positive_matches_containment_on_every_poset():
    # every ordered pair of nodes, not only the covers poset_report checks
    verdicts = Counter()
    for n, cmax in ((2, 6), (3, 3), (4, 2)):
        for lam in _dominant_range(n, cmax):
            nodes = enumerate_pairs(lam)
            lr = {p: Counter(lr_coefficients(p.first, p.second).entries) for p in nodes}
            for high in nodes:
                for low in nodes:
                    got = schur_positive((high.first, high.second), (low.first, low.second))
                    assert got is (lr[low] <= lr[high]), (high, low)
                    verdicts[got] += 1
    assert verdicts[True] and verdicts[False]
    assert sum(verdicts.values()) == 998


def test_lr_output_digest():
    # pins the entries and report order of every lr map on these grids
    payloads = [
        json.dumps(lr_coefficients(a, b).to_json())
        for n, cmax in ((2, 6), (3, 3), (4, 2), (5, 1))
        for a in _dominant_range(n, cmax)
        for b in _dominant_range(n, cmax)
    ]
    assert len(payloads) == 1290
    digest = hashlib.sha256("".join(p + "\n" for p in payloads).encode()).hexdigest()
    assert digest == "57121bc2bc1117f3fbb1ddc7853c00e8eff8a0f7b216e6657ed3e8ce15888483"


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(weights(n, 3 if n < 5 else 2), weights(n, 3 if n < 5 else 2))
    )
)
def test_lr_report_order_matches_checked_constructor(pair):
    # lr_coefficients sorts the cached fold into report order itself: strictly
    # descending parts, exactly as the checked constructor sorts them
    a, b = pair
    got = lr_coefficients(a, b)
    parts = [w.to_parts() for w, _ in got.items_sorted()]
    assert all(x > y for x, y in zip(parts, parts[1:]))
    checked = DecompositionMap(a.n, got.entries)
    assert got == checked
    assert got.items_sorted() == checked.items_sorted()
    assert got.to_json() == checked.to_json()


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


def _strips(shape, size, rows):
    # Every shape above `shape` (at most `rows` rows) by a horizontal strip
    # of `size` boxes: row r grows to at most the old length of row r - 1.
    def rec(r, left, acc):
        if r == rows:
            if left == 0:
                yield tuple(acc)
            return
        old = shape[r] if r < len(shape) else 0
        cap = left if r == 0 else min(left, shape[r - 1] - old)
        for extra in range(cap + 1):
            yield from rec(r + 1, left - extra, acc + [old + extra])

    return rec(0, size, [])


def _lattice(prev, cur, new):
    # In the reverse reading word (rows top to bottom, each right to left)
    # the letter k of row r is read after all k - 1 of rows above and before
    # those of row r, so the word is a lattice word iff, for every r, the k
    # in rows <= r number at most the k - 1 in rows < r.
    ks = above = 0
    for r in range(len(new)):
        ks += new[r] - cur[r]
        if ks > above:
            return False
        above += cur[r] - prev[r]
    return True


def _lr_tableaux(a: Weight, b: Weight) -> dict[Weight, int]:
    """Reference LR rule: count the LR tableaux of shape nu / a and content b
    (one horizontal strip per letter, with the lattice condition on the
    reverse reading word), with nu of at most n rows, and read each nu as
    an sl_n weight."""
    n = a.n
    chains = [(a.to_parts(),)]
    for k, size in enumerate(b.to_parts()):
        chains = [
            c + (s,)
            for c in chains
            for s in _strips(c[-1], size, n)
            if k == 0 or _lattice(c[-2], c[-1], s)
        ]
    out: dict[Weight, int] = {}
    for chain in chains:
        nu = Weight.from_parts(n, chain[-1])
        out[nu] = out.get(nu, 0) + 1
    return out


def test_lr_matches_tableau_count_on_small_grids():
    pairs = [
        (a, b)
        for n, cmax in ((3, 3), (4, 2), (5, 1))
        for a in _dominant_range(n, cmax)
        for b in _dominant_range(n, cmax)
    ]
    assert len(pairs) == 1241
    for a, b in pairs:
        assert lr_coefficients(a, b).entries == _lr_tableaux(a, b), (a, b)


@settings(max_examples=30, deadline=None)
@given(weights(6, 1), weights(6, 1))
def test_lr_matches_tableau_count_sl6(a, b):
    assert lr_coefficients(a, b).entries == _lr_tableaux(a, b)
