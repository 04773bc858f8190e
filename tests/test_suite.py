"""How `run_all` hands its sweep limits to the checks, and what the checks
catch."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slnfusion import poset, suite
from slnfusion.dyck import bounds_from_pair
from slnfusion.fusion import GradedDecomposition
from slnfusion.tensor import DecompositionMap
from slnfusion.typea import Weight
from test_poset import lr_difference_nonnegative


def test_run_all_forwards_limits(monkeypatch):
    calls = {}

    def recorder(name, results=1):
        def check(*args, **kwargs):
            assert not args
            calls[name] = kwargs
            found = tuple(suite.CheckResult(name, True, "", 0.0) for _ in range(results))
            return found if results > 1 else found[0]

        return check

    for name in suite.__all__:
        if name.startswith("check_"):
            monkeypatch.setattr(suite, name, recorder(name))
    monkeypatch.setattr(suite, "check_fusion", recorder("check_fusion", results=2))
    monkeypatch.setattr(suite, "check_poset", recorder("check_poset", results=2))
    results = suite.run_all(n_max=3, coord_max=1, dim_cap=50)
    assert len(results) == 10
    assert calls == {
        "check_sl2": {"dim_cap": 50},
        "check_rectangular": {},
        "check_pieri": {},
        "check_large": {},
        "check_ffol": {"n_max": 3, "coord_max": 1},
        "check_fusion": {"dim_cap": 50},
        "check_poset": {"n_max": 3, "coord_max": 1},
        "check_weyl": {"n_max": 3, "coord_max": 1, "dim_cap": 50},
    }


def test_check_sl2_compares_full_grading(monkeypatch):
    # swapping degrees 0 and 1 keeps the ungraded collapse and the top degree,
    # so only a comparison of the full graded entries sees it
    real = suite.fusion_graded

    def swapped(*args):
        graded = real(*args)
        if graded.max_degree == 0:
            return graded
        swap = {0: 1, 1: 0}
        return GradedDecomposition(
            n=graded.n,
            entries={(swap.get(s, s), tau): m for (s, tau), m in graded.entries.items()},
        )

    assert suite.check_sl2().passed
    monkeypatch.setattr(suite, "fusion_graded", swapped)
    result = suite.check_sl2()
    assert not result.passed
    # the 21 pairs with m2 >= 1 have a degree 1
    assert result.detail.startswith("21 failures: [('fusion', 1, 1), ")


def test_check_sl2_meets_the_cap():
    # V(6) has dimension 7
    result = suite.check_sl2(dim_cap=6)
    assert not result.passed
    assert result.detail == (
        "dimension cap exceeded: V(6) has dimension 7, above the construction cap 6"
    )


def schur_reference(n_max, coord_max, positive=lr_difference_nonnegative):
    """Criterion 9 from its definition: the Schur product difference of every
    comparable pair A < C, not only of the covers, is nonnegative."""
    for lam in suite._weights(n_max, coord_max):
        for low, high in itertools.permutations(poset.enumerate_pairs(lam), 2):
            if not poset.order_leq(low, high):
                continue
            if not positive((high.first, high.second), (low.first, low.second)):
                return False
    return True


def test_schur_positivity_matches_all_pairs_reference():
    axioms, schur = suite.check_poset(n_max=3, coord_max=2)
    assert axioms.passed and schur.passed
    assert schur_reference(n_max=3, coord_max=2)
    # the sl_2 poset of (m) is a chain of m // 2 covers (1 in all); the
    # sl_3 posets hold 13
    assert schur.detail == "14 cover relations"


@settings(max_examples=25, deadline=None)
@given(weights=st.lists(st.integers(-2, 3), min_size=3, max_size=3))
def test_schur_positivity_verdict_for_additive_products(weights):
    # replace the product by a linear functional of the min-vector: any such
    # product difference adds up along chains of covers, as lr does, but its
    # signs vary with the draw, so both verdicts get exercised
    def value(pair):
        return sum(w * v for w, v in zip(weights, bounds_from_pair(*pair).values))

    def fake_positive(pair_high, pair_low):
        return value(pair_high) >= value(pair_low)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poset, "schur_positive", fake_positive)
        _, schur = suite.check_poset(n_max=3, coord_max=2)
    assert schur.passed == schur_reference(n_max=3, coord_max=2, positive=fake_positive)


def test_check_poset_records_a_failing_report(monkeypatch):
    # an AssertionError from poset_report fails criterion 8 for that weight
    # alone; the other posets are still checked
    real = suite.poset_report
    broken = Weight(3, (1, 1))

    def report(lam):
        if lam == broken:
            raise AssertionError("extremal elements are wrong")
        return real(lam)

    monkeypatch.setattr(suite, "poset_report", report)
    axioms, schur = suite.check_poset(n_max=3, coord_max=1)
    assert not axioms.passed
    assert axioms.detail == (
        "1 failures: [('report', 3, (1, 1), 'extremal elements are wrong')]"
    )
    assert schur.passed


# Each test below breaks one name that `suite` imports and checks that the
# criterion reading it fails, naming the first failure.


def failures_of(result):
    """The failure count of a failed check and the repr of its first three
    failures, read from its detail ("<count> failures: [<first>, ...]")."""
    assert not result.passed
    count, listed = result.detail.split(" failures: ", 1)
    return int(count), listed


def test_check_ffol_catches_a_missing_point(monkeypatch):
    real = suite.lattice_points
    monkeypatch.setattr(suite, "lattice_points", lambda bounds: real(bounds)[:-1])
    count, listed = failures_of(suite.check_ffol(n_max=3, coord_max=1))
    # every weight loses one point
    assert count == 6
    assert listed.startswith("[(2, (0,), 0, 1), ")


def test_check_fusion_catches_a_wrong_oracle(monkeypatch):
    real = suite.lr_coefficients
    monkeypatch.setattr(suite, "lr_coefficients", lambda lam1, lam2: real(lam1, lam1))
    oracle, sandwich = suite.check_fusion()
    count, listed = failures_of(oracle)
    # the oracle stays right exactly on the 17 pairs with lam1 = lam2
    assert count == 76 - 17
    assert listed.startswith("[((1,), (0,)), ")
    assert sandwich.passed


def test_check_fusion_catches_a_short_sandwich(monkeypatch):
    monkeypatch.setattr(suite, "dominant_points", lambda lam1, lam2: [])
    oracle, sandwich = suite.check_fusion()
    assert oracle.passed
    count, listed = failures_of(sandwich)
    # one failure per constituent of each of the 76 fusion collapses
    assert count == 310
    assert listed.startswith("[((0,), (0,), (0,)), ")


@pytest.mark.parametrize(
    "flip, first",
    [
        ((0, 0), ("reflexive", 3, (2, 2), 0)),
        ((4, 0), ("antisymmetric", 3, (2, 2), 0, 4)),
        ((0, 4), ("transitive", 3, (2, 2), 0, 1, 4)),
        ((0, 1), ("minimum", 3, (2, 2), [])),
        ((1, 4), ("maximum", 3, (2, 2), [])),
        # 1 <= 2 keeps a partial order, but the points of node 1 do not lie
        # among those of node 2
        ((1, 2), ("point-nesting", 3, (2, 2), 1, 2)),
    ],
    ids=["reflexive", "antisymmetric", "transitive", "minimum", "maximum", "point-nesting"],
)
def test_check_poset_catches_a_perturbed_order(monkeypatch, flip, first):
    # the sl_3 poset of (2,2) has node 0 at the bottom, node 4 at the top and
    # the pairwise incomparable nodes 1, 2, 3 between them; one entry of its
    # order matrix is negated
    real = suite.poset_report
    target = Weight(3, (2, 2))

    def report(lam):
        found = real(lam)
        if lam != target:
            return found
        leq = [list(row) for row in found.leq]
        a, b = flip
        leq[a][b] = not leq[a][b]
        return dataclasses.replace(found, leq=tuple(map(tuple, leq)))

    assert real(target).leq == (
        (True, True, True, True, True),
        (False, True, False, False, True),
        (False, False, True, False, True),
        (False, False, False, True, True),
        (False, False, False, False, True),
    )
    monkeypatch.setattr(suite, "poset_report", report)
    axioms, schur = suite.check_poset(n_max=3, coord_max=2)
    _, listed = failures_of(axioms)
    assert listed.startswith(f"[{first!r}")
    assert schur.passed


def test_check_weyl_catches_a_wrong_prediction(monkeypatch):
    real = suite.weyl_character_prediction

    def empty(lam):
        return dataclasses.replace(real(lam), character=DecompositionMap(lam.n, {}))

    monkeypatch.setattr(suite, "weyl_character_prediction", empty)
    count, listed = failures_of(suite.check_weyl(n_max=3, coord_max=1))
    # all 6 weights lie in a proven regime
    assert count == 6
    assert listed.startswith("[(2, (0,)), ")
