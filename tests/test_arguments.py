"""Every public function that takes a Weight rejects a bad one the same way:
TypeError for an argument that is not a Weight, ValueError for one that is
not dominant where a dominant weight is required.  Integer parameters and
the other argument types fail with the same two exceptions."""

import pytest

from slnfusion import (
    Root,
    Weight,
    WeightPair,
    bounds_from_pair,
    bounds_from_weight,
    build_irrep,
    dominant_points,
    dominant_weight_multiplicities,
    enumerate_pairs,
    fusion_graded,
    is_much_greater,
    large_case_mults,
    lattice_points,
    lr_coefficients,
    maximal_pair,
    pairing,
    pieri_column,
    pieri_row,
    poset_report,
    proven_regime,
    rect_hw_points,
    rect_mults_formula,
    schur_positive,
    sl2_mults,
    weight_multiplicities,
    weyl_character_prediction,
    weyl_dim,
    weyl_orbit,
)
from slnfusion.typea import root_coordinates, root_lattice_height

OK = Weight(3, (1, 0))

# name -> a call of the function with w in the place of one Weight argument
REQUIRES_DOMINANT = {
    "weyl_orbit": weyl_orbit,
    "weyl_dim": weyl_dim,
    "weight_multiplicities": weight_multiplicities,
    "dominant_weight_multiplicities": dominant_weight_multiplicities,
    "lr_coefficients first": lambda w: lr_coefficients(w, OK),
    "lr_coefficients second": lambda w: lr_coefficients(OK, w),
    "schur_positive high": lambda w: schur_positive((w, OK), (OK, w)),
    "schur_positive low": lambda w: schur_positive((OK, w), (w, OK)),
    "bounds_from_pair first": lambda w: bounds_from_pair(w, OK),
    "bounds_from_pair second": lambda w: bounds_from_pair(OK, w),
    "bounds_from_weight": bounds_from_weight,
    "dominant_points first": lambda w: dominant_points(w, OK),
    "dominant_points second": lambda w: dominant_points(OK, w),
    "pieri_row": lambda w: pieri_row(w, 1),
    "pieri_column": lambda w: pieri_column(w, 1),
    "is_much_greater first": lambda w: is_much_greater(w, OK),
    "is_much_greater second": lambda w: is_much_greater(OK, w),
    "large_case_mults": lambda w: large_case_mults(w, OK),
    "proven_regime first": lambda w: proven_regime(w, OK),
    "proven_regime second": lambda w: proven_regime(OK, w),
    "WeightPair first": lambda w: WeightPair(w, OK),
    "WeightPair second": lambda w: WeightPair(OK, w),
    "enumerate_pairs": enumerate_pairs,
    "maximal_pair": maximal_pair,
    "weyl_character_prediction": weyl_character_prediction,
    "poset_report": poset_report,
    "build_irrep": build_irrep,
}
ANY_WEIGHT = {
    "pairing": lambda w: pairing(w, Root(3, 1, 1)),
    "root_coordinates": root_coordinates,
    "root_lattice_height": root_lattice_height,
    "Weight + w": lambda w: OK + w,
    "Weight - w": lambda w: OK - w,
}
TAKES_WEIGHT = {**REQUIRES_DOMINANT, **ANY_WEIGHT}


@pytest.mark.parametrize("call", TAKES_WEIGHT.values(), ids=TAKES_WEIGHT)
def test_a_tuple_in_place_of_a_weight_raises_type_error(call):
    with pytest.raises(TypeError) as exc:
        call((1, 0))
    assert str(exc.value) == "expected a Weight, got tuple"


@pytest.mark.parametrize("call", REQUIRES_DOMINANT.values(), ids=REQUIRES_DOMINANT)
def test_a_non_dominant_weight_raises_value_error(call):
    with pytest.raises(ValueError, match=r"^expected a dominant weight, got \(2,-1\)$"):
        call(Weight(3, (2, -1)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: sl2_mults(1.0, 2),
        lambda: sl2_mults(1, 2.0),
        lambda: rect_mults_formula(3, 1, 1.0, 2, 1),
        lambda: rect_hw_points(3, 1.0, 1, 2, 1),
        lambda: pieri_row(OK, 1.0),
        lambda: pieri_column(OK, 1.0),
        lambda: Weight.fundamental(3, 1.5),
    ],
    ids=["sl2 m1", "sl2 m2", "rect m_i", "rect i", "pieri_row k", "pieri_column j", "omega_k"],
)
def test_a_float_parameter_raises_value_error(call):
    with pytest.raises(ValueError, match="must be integers"):
        call()


def test_other_argument_types_raise_type_error():
    with pytest.raises(TypeError, match="^expected a BoundVector, got tuple$"):
        lattice_points((1, 1, 1))
    mod = build_irrep(OK)
    with pytest.raises(TypeError, match="^expected an ExplicitModule, got Weight$"):
        fusion_graded(OK, 0, mod, 1)
    with pytest.raises(TypeError, match="^expected an ExplicitModule, got Weight$"):
        fusion_graded(mod, 0, OK, 1)
