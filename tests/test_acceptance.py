"""Acceptance battery: each test replays one criterion at full scale and
prints a single pass/fail line (visible with `pytest -s` or on failure)."""

import pytest

from slnfusion.suite import (
    check_ffol,
    check_fusion,
    check_large,
    check_pieri,
    check_poset,
    check_rectangular,
    check_sl2,
    check_weyl,
)


def report(result, budget=None):
    print(result.line())
    assert result.passed, result.detail
    if budget is not None:
        assert result.elapsed < budget, (
            f"{result.name} took {result.elapsed:.1f}s, budget {budget}s"
        )


@pytest.fixture(scope="module")
def fusion_sweep():
    # criteria 6 and 7 share one pass over the fusion sweep
    return check_fusion()


@pytest.fixture(scope="module")
def poset_sweep():
    # criteria 8 and 9 share one pass over the posets of the sweep
    return check_poset(n_max=4, coord_max=3)


def test_criterion_01_sl2():
    report(check_sl2(), budget=10)


def test_criterion_02_rectangular():
    report(check_rectangular(), budget=60)


def test_criterion_03_pieri():
    report(check_pieri(), budget=60)


def test_criterion_04_large_pairs():
    report(check_large(), budget=60)


def test_criterion_05_ffol_counts():
    report(check_ffol(n_max=4, coord_max=2))


def test_criterion_06_fusion_oracle(fusion_sweep):
    oracle, _ = fusion_sweep
    report(oracle, budget=300)


def test_criterion_07_sandwich(fusion_sweep):
    _, sandwich = fusion_sweep
    report(sandwich)


def test_criterion_08_poset(poset_sweep):
    axioms, _ = poset_sweep
    report(axioms)


def test_criterion_09_schur_positivity(poset_sweep):
    _, schur = poset_sweep
    report(schur)


def test_criterion_10_weyl_prediction():
    report(check_weyl(n_max=4, coord_max=3))
