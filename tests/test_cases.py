"""Closed-form product rules and their sweeps against the oracle."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slnfusion.cases import (
    CaseReport,
    is_much_greater,
    large_case_mults,
    pieri_column,
    pieri_row,
    proven_regime,
    rect_hw_points,
    rect_mults_formula,
    sl2_mults,
    verify_case,
)
from slnfusion.tensor import DecompositionMap, lr_coefficients
from slnfusion.typea import Weight, weight_multiplicities, weyl_orbit


def test_sl2_mults_frozen():
    got = sl2_mults(2, 1)
    assert got.entries == {Weight(2, (3,)): 1, Weight(2, (1,)): 1}
    got = sl2_mults(3, 3)
    assert got.entries == {Weight(2, (m,)): 1 for m in (6, 4, 2, 0)}
    got = sl2_mults(4, 0)
    assert got.entries == {Weight(2, (4,)): 1}
    # order of the arguments is irrelevant
    assert sl2_mults(1, 2) == sl2_mults(2, 1)


def test_rect_hw_points_frozen():
    pts = rect_hw_points(3, 1, 1, 1, 1)
    assert [(p.exps, tau.coords) for p, tau in pts] == [
        ((0, 0, 0), (2, 0)),
        ((1, 0, 0), (0, 1)),
    ]
    # empty when either factor is trivial, except the top point
    pts = rect_hw_points(3, 1, 0, 2, 2)
    assert [(p.exps, tau.coords) for p, tau in pts] == [((0, 0, 0), (0, 2))]


def test_rect_hw_points_antidiagonal_shape():
    # exponents sit on the antidiagonal starting at (i, j) and weakly decrease
    for p, _ in rect_hw_points(4, 2, 3, 3, 2):
        seen = {}
        for idx, (ri, rj) in enumerate(((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))):
            if p.exps[idx]:
                seen[(ri, rj)] = p.exps[idx]
        for (ri, rj) in seen:
            assert ri + rj == 2 + 3  # on the antidiagonal through (i, j)


def test_rect_mults_formula_frozen():
    got = rect_mults_formula(3, 1, 1, 1, 1)
    assert got.entries == {Weight(3, (2, 0)): 1, Weight(3, (0, 1)): 1}
    got = rect_mults_formula(3, 1, 2, 2, 2)
    assert got == lr_coefficients(Weight(3, (2, 0)), Weight(3, (0, 2)))


def test_rect_three_way_small_sweep():
    for n in (3, 4):
        for i in range(1, n):
            for j in range(i, n):
                for m_i in range(3):
                    for m_j in range(3):
                        lam1 = m_i * Weight.fundamental(n, i)
                        lam2 = m_j * Weight.fundamental(n, j)
                        oracle = lr_coefficients(lam1, lam2)
                        assert rect_mults_formula(n, i, m_i, j, m_j) == oracle
                        counts = {}
                        for _, tau in rect_hw_points(n, i, m_i, j, m_j):
                            counts[tau] = counts.get(tau, 0) + 1
                        assert DecompositionMap(n, counts) == oracle


def test_pieri_row_frozen():
    got = pieri_row(Weight(3, (1, 1)), 2)
    assert got.entries == {
        Weight(3, (3, 1)): 1,
        Weight(3, (1, 2)): 1,
        Weight(3, (2, 0)): 1,
        Weight(3, (0, 1)): 1,
    }
    assert pieri_row(Weight(3, (1, 1)), 0).entries == {Weight(3, (1, 1)): 1}
    with pytest.raises(ValueError):
        pieri_row(Weight(3, (1, 1)), -1)


def test_pieri_column_frozen():
    got = pieri_column(Weight(3, (1, 1)), 2)
    assert got.entries == {
        Weight(3, (1, 2)): 1,
        Weight(3, (2, 0)): 1,
        Weight(3, (0, 1)): 1,
    }
    with pytest.raises(ValueError):
        pieri_column(Weight(3, (1, 1)), 3)
    with pytest.raises(ValueError):
        pieri_column(Weight(3, (1, 1)), 0)


def test_pieri_row_and_column_agree_for_one_box():
    for n in (3, 4):
        for coords in itertools.product(range(3), repeat=n - 1):
            lam = Weight(n, coords)
            assert pieri_row(lam, 1) == pieri_column(lam, 1)


def test_pieri_against_oracle_small_sweep():
    for n in (3, 4):
        for coords in itertools.product(range(3), repeat=n - 1):
            lam = Weight(n, coords)
            for k in range(4):
                assert pieri_row(lam, k) == lr_coefficients(
                    lam, k * Weight.fundamental(n, 1)
                )
            for j in range(1, n):
                assert pieri_column(lam, j) == lr_coefficients(
                    lam, Weight.fundamental(n, j)
                )


def test_is_much_greater():
    assert is_much_greater(Weight(3, (3, 3)), Weight(3, (1, 1)))
    assert is_much_greater(Weight(3, (2, 2)), Weight(3, (1, 1)))
    assert not is_much_greater(Weight(3, (1, 1)), Weight(3, (1, 1)))
    assert not is_much_greater(Weight(3, (0, 0)), Weight(3, (1, 0)))
    assert is_much_greater(Weight(3, (1, 1)), Weight(3, (0, 0)))
    with pytest.raises(ValueError):
        is_much_greater(Weight(3, (-1, 0)), Weight(3, (0, 0)))


@st.composite
def dominant_pairs(draw):
    n = draw(st.integers(2, 5))
    first = draw(st.lists(st.integers(0, 6), min_size=n - 1, max_size=n - 1))
    second = draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1))
    return Weight(n, first), Weight(n, second)


@settings(max_examples=150, deadline=None)
@given(dominant_pairs())
def test_is_much_greater_matches_orbit_definition(pair):
    lam1, lam2 = pair
    expected = all((lam1 + mu).is_dominant for mu in weyl_orbit(lam2))
    assert is_much_greater(lam1, lam2) == expected


def test_large_case_mults_frozen():
    got = large_case_mults(Weight(3, (3, 3)), Weight(3, (1, 1)))
    assert got.entries == {
        Weight(3, (4, 4)): 1,
        Weight(3, (2, 2)): 1,
        Weight(3, (5, 2)): 1,
        Weight(3, (2, 5)): 1,
        Weight(3, (4, 1)): 1,
        Weight(3, (1, 4)): 1,
        Weight(3, (3, 3)): 2,
    }
    assert got == lr_coefficients(Weight(3, (3, 3)), Weight(3, (1, 1)))
    with pytest.raises(ValueError):
        large_case_mults(Weight(3, (1, 1)), Weight(3, (1, 1)))


def test_large_case_is_shifted_diagram():
    lam1, lam2 = Weight(4, (2, 2, 2)), Weight(4, (1, 0, 0))
    got = large_case_mults(lam1, lam2)
    diagram = weight_multiplicities(lam2)
    assert got.entries == {lam1 + mu: m for mu, m in diagram.items()}


def test_proven_regime():
    assert proven_regime(Weight(2, (4,)), Weight(2, (1,))) == "sl2"
    assert proven_regime(Weight(3, (2, 0)), Weight(3, (0, 3))) == "rectangular"
    assert proven_regime(Weight(3, (0, 0)), Weight(3, (0, 2))) == "rectangular"
    # the zero weight is a trivial row, so this lands in the Pieri regime
    assert proven_regime(Weight(3, (0, 0)), Weight(3, (2, 2))) == "pieri"
    assert proven_regime(Weight(3, (1, 1)), Weight(3, (2, 0))) == "pieri"
    assert proven_regime(Weight(3, (0, 1)), Weight(3, (2, 1))) == "pieri"
    assert proven_regime(Weight(3, (3, 3)), Weight(3, (1, 1))) == "large"
    assert proven_regime(Weight(3, (1, 1)), Weight(3, (3, 3))) == "large"
    assert proven_regime(Weight(3, (2, 1)), Weight(3, (1, 2))) is None


# the ranges each regime's sweep reads, at small values
READ_RANGES = {
    "sl2": {"m_max": 1},
    "rectangular": {"n_values": (3,), "m_max": 1},
    "pieri-row": {"n_values": (3,), "coord_max": 1, "k_max": 1},
    "pieri-column": {"n_values": (3,), "coord_max": 1},
    "large": {"n_values": (3,), "coord_max": 1},
}
ALL_RANGES = {"m_max": 1, "n_values": (3,), "coord_max": 1, "k_max": 1}


def test_verify_case_tags():
    for tag, ranges in READ_RANGES.items():
        reports = verify_case(tag, **ranges)
        assert reports
        assert all(r.equal for r in reports)
    with pytest.raises(ValueError):
        verify_case("unknown")


@pytest.mark.parametrize("tag", READ_RANGES)
def test_verify_case_refuses_ranges_it_does_not_read(tag):
    unread = [name for name in ALL_RANGES if name not in READ_RANGES[tag]]
    assert unread
    for name in unread:
        with pytest.raises(ValueError, match=f"case {tag} reads only .*, not {name}$"):
            verify_case(tag, **{name: ALL_RANGES[name]}, **READ_RANGES[tag])


def test_case_report_mismatch_bookkeeping():
    a = DecompositionMap(3, {Weight(3, (1, 1)): 1})
    c = DecompositionMap(3, {Weight(3, (1, 1)): 2, Weight.zero(3): 1})
    report = CaseReport("sl2", {"m1": 1}, a, c)
    assert not report.equal
    assert report.mismatches == [
        (Weight(3, (1, 1)), 1, 2),
        (Weight.zero(3), 0, 1),
    ]
    payload = report.to_json()
    assert payload["equal"] is False
    assert payload["mismatches"][0] == {"tau": [1, 1], "a": 1, "c": 2}
    round_tripped = CaseReport.from_json(payload)
    assert round_tripped.equal == report.equal
    assert round_tripped.mismatches == report.mismatches
