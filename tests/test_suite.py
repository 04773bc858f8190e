"""How `run_all` hands its sweep limits to the checks, and what the checks
catch."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slnfusion import poset, suite
from slnfusion.dyck import bounds_from_pair
from slnfusion.fusion import GradedDecomposition
from slnfusion.tensor import lr_coefficients
from slnfusion.typea import Weight


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
            lambda1=graded.lambda1,
            lambda2=graded.lambda2,
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


def lr_difference_nonnegative(pair_high, pair_low):
    """Schur positivity from its definition: lr(high) - lr(low) has no
    negative entry over the union of the two maps' keys."""
    high, low = lr_coefficients(*pair_high), lr_coefficients(*pair_low)
    return all(high[w] - low[w] >= 0 for w in set(high) | set(low))


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
