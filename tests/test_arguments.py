"""Every public function that takes a Weight rejects a bad one the same way:
TypeError for an argument that is not a Weight, ValueError for one that is
not dominant where a dominant weight is required.  Integer parameters and
the other argument types fail with the same two exceptions."""

import pytest
from hypothesis import given, strategies as st

from slnfusion import (
    BoundVector,
    DyckPath,
    GradedDecomposition,
    LatticePoint,
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
    run_all,
    schur_positive,
    sl2_mults,
    verify_case,
    weight_multiplicities,
    weyl_character_prediction,
    weyl_dim,
    weyl_orbit,
)
from slnfusion import suite
from slnfusion.typea import (
    exact_ints,
    positive_root_index,
    root_as_weight,
    root_coordinates,
    root_lattice_height,
)

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
        lambda: exact_ints((1, True), "entries"),
    ],
    ids=[
        "sl2 m1",
        "sl2 m2",
        "rect m_i",
        "rect i",
        "pieri_row k",
        "pieri_column j",
        "omega_k",
        "exact_ints bool",
    ],
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BoundVector(3, (1, 1, 1)).leq((1, 1, 1)), "expected a BoundVector, got tuple"),
        (lambda: DyckPath(((1, 1),)), "expected a Root, got tuple"),
        (lambda: DyckPath((Root(3, 1, 1), (1, 2))), "expected a Root, got tuple"),
        (lambda: pairing(OK, (1, 1)), "expected a Root, got tuple"),
        (lambda: root_as_weight((1, 1)), "expected a Root, got tuple"),
        (lambda: positive_root_index((1, 1)), "expected a Root, got tuple"),
    ],
    ids=[
        "BoundVector.leq",
        "DyckPath first step",
        "DyckPath second step",
        "pairing root",
        "root_as_weight",
        "positive_root_index",
    ],
)
def test_a_tuple_in_place_of_a_bound_vector_or_root_raises_type_error(call, message):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


def test_a_path_stores_its_steps_as_a_tuple():
    path = DyckPath([Root(3, 1, 1), Root(3, 1, 2)])
    assert path.steps == (Root(3, 1, 1), Root(3, 1, 2))
    assert path == DyckPath((Root(3, 1, 1), Root(3, 1, 2)))
    assert hash(path) == hash(DyckPath((Root(3, 1, 1), Root(3, 1, 2))))


@pytest.mark.parametrize("entries", [None, [((0, OK), 1)]], ids=["None", "list of pairs"])
def test_graded_entries_that_are_not_a_mapping_raise_value_error(entries):
    kind = type(entries).__name__
    with pytest.raises(ValueError, match=f"^graded entries must be a mapping, got {kind}$"):
        GradedDecomposition(3, entries)


# limits outside the CLI's bounds, each of which would sweep nothing or fail
# inside the sweep
BAD_LIMITS = {
    "n_max 1": {"n_max": 1},
    "n_max float": {"n_max": 3.0},
    "coord_max -1": {"coord_max": -1},
    "coord_max str": {"coord_max": "2"},
}
BAD_RANGES = {
    "large coord_max -1": ("large", {"coord_max": -1}),
    "pieri-column n_values float": ("pieri-column", {"n_values": (3.0,)}),
    "rectangular n_values empty": ("rectangular", {"n_values": ()}),
    "rectangular n_values 1": ("rectangular", {"n_values": (3, 1)}),
    "pieri-row n_values int": ("pieri-row", {"n_values": 3}),
    "pieri-row k_max -1": ("pieri-row", {"k_max": -1}),
    "sl2 m_max -1": ("sl2", {"m_max": -1}),
    "sl2 m_max float": ("sl2", {"m_max": 2.0}),
    "sl2 m_max bool": ("sl2", {"m_max": True}),
}
LIMIT_MESSAGE = r"must be (an integer|a nonempty tuple of integers) >= [02], got "


@pytest.mark.parametrize("limits", BAD_LIMITS.values(), ids=BAD_LIMITS)
def test_run_all_rejects_bad_limits_before_any_check(monkeypatch, limits):
    def unreached(**_):
        raise AssertionError("a check ran")

    monkeypatch.setattr(suite, "check_sl2", unreached)
    with pytest.raises(ValueError, match=LIMIT_MESSAGE):
        run_all(**limits)


@pytest.mark.parametrize("check", ["check_ffol", "check_poset", "check_weyl"])
def test_a_weight_sweep_check_rejects_bad_limits(check):
    with pytest.raises(ValueError, match=LIMIT_MESSAGE):
        getattr(suite, check)(n_max=1, coord_max=3)
    # both limits are keyword-only and have no defaults: run_all sets them
    with pytest.raises(TypeError):
        getattr(suite, check)(n_max=3)
    with pytest.raises(TypeError):
        getattr(suite, check)(3, 1)


@pytest.mark.parametrize("case, ranges", BAD_RANGES.values(), ids=BAD_RANGES)
def test_verify_case_rejects_bad_ranges(case, ranges):
    with pytest.raises(ValueError, match=LIMIT_MESSAGE):
        verify_case(case, **ranges)


@pytest.mark.parametrize("value", ["x", 2.5, 0, -1], ids=["str", "float", "0", "-1"])
def test_run_all_rejects_a_bad_dim_cap_before_any_check(monkeypatch, value):
    def unreached(**_):
        raise AssertionError("a check ran")

    monkeypatch.setattr(suite, "check_sl2", unreached)
    with pytest.raises(ValueError, match=f"^dim_cap must be an integer >= 1, got {value!r}$"):
        run_all(dim_cap=value)


@pytest.mark.parametrize(
    "cap", ["a", 2.5, 0, -1, True], ids=["str", "float", "0", "-1", "bool"]
)
def test_build_irrep_rejects_a_cap_that_is_not_an_integer_at_least_1(cap):
    with pytest.raises(ValueError) as exc:
        build_irrep(OK, cap=cap)
    # a limit error, not a module refused by a cap below its dimension
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"cap must be an integer >= 1, got {cap!r}"


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: Weight(3, None), "weight coordinates"),
        (lambda: Weight.from_parts(3, None), "parts"),
        (lambda: BoundVector(3, None), "bounds"),
    ],
    ids=["Weight", "Weight.from_parts", "BoundVector"],
)
def test_none_in_place_of_integers_raises_value_error(call, what):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"{what} must be integers, got None"
    # raised from the check itself, not from inside its own error path
    assert exc.value.__context__ is None or exc.value.__suppress_context__


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: LatticePoint.from_sparse(3, None),
            "sparse exponents must be an iterable of (i, j, s), got None",
        ),
        (lambda: DyckPath(None), "path steps must be an iterable of Roots, got None"),
    ],
    ids=["LatticePoint.from_sparse", "DyckPath"],
)
def test_none_in_place_of_an_iterable_raises_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: schur_positive(OK, (OK, OK)), TypeError, "expected a pair of Weights, got Weight"),
        (lambda: schur_positive((OK, OK), OK), TypeError, "expected a pair of Weights, got Weight"),
        (
            lambda: schur_positive((OK, OK, OK), (OK, OK)),
            ValueError,
            "expected a pair of Weights, got a tuple of length 3",
        ),
        (
            lambda: schur_positive((OK, OK), (OK,)),
            ValueError,
            "expected a pair of Weights, got a tuple of length 1",
        ),
    ],
    ids=["high Weight", "low Weight", "high 3-tuple", "low 1-tuple"],
)
def test_schur_positive_names_the_pair_before_unpacking(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("call", [rect_mults_formula, rect_hw_points], ids=["formula", "points"])
def test_rectangle_rank_is_checked_before_the_indices(call):
    with pytest.raises(ValueError, match=r"^rank must be an integer >= 2, got '3'$"):
        call("3", 1, 1, 1, 1)


# an integer parameter outside its range, with the message of the one range check
OUT_OF_RANGE = {
    "omega_k 0": (
        lambda: Weight.fundamental(3, 0),
        "fundamental weight index must be in 1..2, got (0,)",
    ),
    "omega_k 3": (
        lambda: Weight.fundamental(3, 3),
        "fundamental weight index must be in 1..2, got (3,)",
    ),
    "bounds": (lambda: BoundVector(3, (1, -1, 0)), "bounds must be >= 0, got (1, -1, 0)"),
    "sl2 m2": (lambda: sl2_mults(1, -2), "sl_2 coordinates must be >= 0, got (1, -2)"),
    "rect j": (
        lambda: rect_mults_formula(3, 1, 1, 3, 1),
        "fundamental indices must be in 1..2, got (1, 3)",
    ),
    "rect m_j": (lambda: rect_hw_points(3, 1, 1, 2, -1), "multiples must be >= 0, got (1, -1)"),
    "pieri_row k": (lambda: pieri_row(OK, -1), "row length must be >= 0, got (-1,)"),
    "pieri_column j": (lambda: pieri_column(OK, 3), "column index must be in 1..2, got (3,)"),
    "graded degree": (
        lambda: GradedDecomposition(3, {(-1, OK): 1}),
        "degrees must be >= 0, got (-1,)",
    ),
    "graded mult": (
        lambda: GradedDecomposition(3, {(0, OK): 0}),
        "multiplicities must be >= 1, got (0,)",
    ),
}


@pytest.mark.parametrize("call, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_an_integer_out_of_range_raises_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


BOUND = st.none() | st.integers(-4, 4)


@given(st.lists(st.integers(-6, 6), max_size=5), BOUND, BOUND)
def test_exact_ints_accepts_exactly_the_entries_in_range(values, least, most):
    inside = all(
        (least is None or v >= least) and (most is None or v <= most) for v in values
    )
    if inside:
        assert exact_ints(values, "entries", least, most) == tuple(values)
    else:
        with pytest.raises(ValueError, match=r"^entries must be [<>i]"):
            exact_ints(values, "entries", least, most)
