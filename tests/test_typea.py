"""Weight arithmetic, root bookkeeping, orbits, dimensions, multiplicities."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from slnfusion.dyck import BoundVector, LatticePoint
from slnfusion.fusion import GradedDecomposition, peel_character
from slnfusion.tensor import DecompositionMap
from slnfusion.typea import (
    Root,
    Weight,
    dominant_weight_multiplicities,
    pairing,
    positive_root_index,
    positive_roots,
    root_as_weight,
    root_coordinates,
    root_lattice_height,
    simple_root_weight,
    weight_multiplicities,
    weyl_dim,
    weyl_orbit,
)


def dominant_weights(n, coord_max):
    return [
        Weight(n, c) for c in itertools.product(range(coord_max + 1), repeat=n - 1)
    ]


def test_weight_construction_and_validation():
    w = Weight(3, (2, 1))
    assert w.coords == (2, 1)
    with pytest.raises(ValueError):
        Weight(3, (2,))
    with pytest.raises(ValueError):
        Weight(1, ())
    with pytest.raises(ValueError):
        Weight(3, (1, "x"))
    with pytest.raises(ValueError):
        Weight(3, (1.0, 0))
    with pytest.raises(ValueError):
        Weight(3, (Fraction(1), 0))


V11 = Weight(3, (1, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda x: Weight(3, (x, 2)),
        lambda x: Weight.from_parts(3, (x, 1, 0)),
        lambda x: BoundVector(3, (x, 0, 0)),
        lambda x: LatticePoint(3, (x, 0, 0)),
        lambda x: LatticePoint.from_sparse(3, [(1, 1, x)]),
        lambda x: DecompositionMap(3, {V11: x}),
        lambda x: GradedDecomposition(3, V11, V11, {(0, V11): x}),
        lambda x: GradedDecomposition(3, V11, V11, {(x, V11): 1}),
        lambda x: peel_character({Weight.zero(3): x}),
        lambda x: Root(3, x, 2),
        lambda x: Root(3, 1, x),
    ],
    ids=[
        "Weight",
        "Weight.from_parts",
        "BoundVector",
        "LatticePoint",
        "LatticePoint.from_sparse",
        "DecompositionMap",
        "GradedDecomposition",
        "GradedDecomposition degree",
        "peel_character",
        "Root.i",
        "Root.j",
    ],
)
@pytest.mark.parametrize("value", [1.9, 0.5, 2.0, Fraction(3, 2), Fraction(2)])
def test_non_integer_entries_are_rejected_not_truncated(build, value):
    with pytest.raises(ValueError, match="must be integers"):
        build(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: DecompositionMap(n, {}),
        lambda n: BoundVector(n, (1, 1, 1)),
        lambda n: LatticePoint(n, (1, 0, 0)),
        lambda n: GradedDecomposition(n, V11, V11, {(0, V11): 1}),
        Weight.zero,
        Weight.rho,
        lambda n: Weight.from_parts(n, (1, 0, 0)),
        lambda n: LatticePoint.from_sparse(n, [(1, 1, 1)]),
    ],
    ids=[
        "DecompositionMap",
        "BoundVector",
        "LatticePoint",
        "GradedDecomposition",
        "Weight.zero",
        "Weight.rho",
        "Weight.from_parts",
        "LatticePoint.from_sparse",
    ],
)
@pytest.mark.parametrize("rank", [3.0, 3.9, 2.5, Fraction(3), "3"])
def test_non_integer_ranks_are_rejected(build, rank):
    with pytest.raises(ValueError, match="rank must be an integer >= 2"):
        build(rank)


def test_weight_algebra():
    a = Weight(3, (2, 1))
    b = Weight(3, (0, 3))
    assert (a + b).coords == (2, 4)
    assert (a - b).coords == (2, -2)
    assert (2 * a).coords == (4, 2)
    assert (a * 2).coords == (4, 2)
    assert (-a).coords == (-2, -1)
    with pytest.raises(ValueError):
        a + Weight(2, (1,))


@st.composite
def weight_arithmetic(draw):
    # One result of each internal constructor on drawn integer inputs.
    n = draw(st.integers(2, 6))
    ints = st.integers(-5, 5)
    a, b = (Weight(n, draw(st.tuples(*[ints] * (n - 1)))) for _ in range(2))
    k = draw(st.integers(-3, 3) | st.booleans())
    parts = draw(st.tuples(*[ints] * n))
    return [a + b, a - b, -a, k * a, a * k, Weight.from_parts(n, parts)]


@settings(max_examples=60, deadline=None)
@given(weight_arithmetic())
def test_internal_weights_equal_checked_weights(results):
    for w in results:
        checked = Weight(w.n, w.coords)
        assert w == checked and hash(w) == hash(checked)
        assert type(w.n) is int and all(type(c) is int for c in w.coords)


def test_named_weights():
    assert Weight.zero(3).coords == (0, 0)
    assert Weight.fundamental(4, 2).coords == (0, 1, 0)
    assert Weight.rho(4).coords == (1, 1, 1)
    with pytest.raises(ValueError):
        Weight.fundamental(3, 3)


def test_parts_round_trip():
    w = Weight(3, (2, 1))
    assert w.to_parts() == (3, 1, 0)
    assert Weight.from_parts(3, (3, 1, 0)) == w
    # parts are normalized modulo a common shift
    assert Weight.from_parts(3, (4, 2, 1)) == w
    for wrong_length in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="needs length 3"):
            Weight.from_parts(3, wrong_length)
    assert Weight.zero(4).to_parts() == (0, 0, 0, 0)
    for n in (2, 3, 4):
        for w in dominant_weights(n, 2):
            assert Weight.from_parts(n, w.to_parts()) == w


def test_dominance_is_weakly_decreasing_parts():
    for coords in itertools.product(range(-2, 3), repeat=2):
        w = Weight(3, coords)
        parts = w.to_parts()
        expected = all(parts[i] >= parts[i + 1] for i in range(2))
        assert w.is_dominant == expected


def test_positive_roots_order():
    assert [(r.i, r.j) for r in positive_roots(3)] == [(1, 1), (1, 2), (2, 2)]
    assert [(r.i, r.j) for r in positive_roots(4)] == [
        (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
    ]
    for n in (2, 3, 4, 5):
        roots = positive_roots(n)
        assert len(roots) == n * (n - 1) // 2
        for idx, r in enumerate(roots):
            assert positive_root_index(r) == idx


def test_root_validation_and_height():
    r = Root(3, 1, 2)
    assert r.height == 2
    assert not r.is_simple
    assert Root(3, 2, 2).is_simple
    with pytest.raises(ValueError):
        Root(3, 2, 1)
    with pytest.raises(ValueError):
        Root(3, 0, 1)
    with pytest.raises(ValueError):
        Root(3, 1, 3)


def test_pairing_frozen_values():
    lam = Weight(3, (2, 1))
    assert pairing(lam, Root(3, 1, 1)) == 2
    assert pairing(lam, Root(3, 1, 2)) == 3
    assert pairing(lam, Root(3, 2, 2)) == 1
    with pytest.raises(ValueError):
        pairing(Weight(2, (1,)), Root(3, 1, 1))


def test_pairing_of_rho_is_height():
    for n in (2, 3, 4, 5):
        rho = Weight.rho(n)
        for r in positive_roots(n):
            assert pairing(rho, r) == r.height


def test_root_as_weight_frozen():
    assert root_as_weight(Root(2, 1, 1)).coords == (2,)
    assert root_as_weight(Root(3, 1, 1)).coords == (2, -1)
    assert root_as_weight(Root(3, 2, 2)).coords == (-1, 2)
    assert root_as_weight(Root(3, 1, 2)).coords == (1, 1)
    # Cartan matrix relation: pairing of a simple root against itself is 2
    for n in (2, 3, 4):
        for k in range(1, n):
            w = simple_root_weight(n, k)
            assert pairing(w, Root(n, k, k)) == 2


def test_root_as_weight_additivity():
    for n in (3, 4):
        for r in positive_roots(n):
            total = Weight.zero(n)
            for k in range(r.i, r.j + 1):
                total = total + simple_root_weight(n, k)
            assert root_as_weight(r) == total


def test_weyl_orbit_frozen():
    orbit = weyl_orbit(Weight.fundamental(3, 1))
    assert set(w.coords for w in orbit) == {(1, 0), (-1, 1), (0, -1)}
    with pytest.raises(ValueError):
        weyl_orbit(Weight(3, (-1, 0)))


def test_orbit_is_permutation_closed():
    # every permutation of the parts vector appears exactly once
    w = Weight(3, (2, 1))
    orbit_parts = set()
    for v in weyl_orbit(w):
        parts = v.to_parts()
        shift = min(parts)
        orbit_parts.add(tuple(p - shift for p in parts))
    base = w.to_parts()
    expected = set(itertools.permutations(base))
    normalized = set()
    for p in expected:
        shift = min(p)
        normalized.add(tuple(x - shift for x in p))
    assert orbit_parts == normalized


def test_weyl_dim_frozen():
    assert weyl_dim(Weight(2, (0,))) == 1
    assert weyl_dim(Weight(2, (5,))) == 6
    assert weyl_dim(Weight(3, (1, 0))) == 3
    assert weyl_dim(Weight(3, (1, 1))) == 8
    assert weyl_dim(Weight(3, (2, 2))) == 27
    assert weyl_dim(Weight(3, (3, 3))) == 64
    assert weyl_dim(Weight(3, (2, 0))) == 6
    assert weyl_dim(Weight(4, (1, 0, 0))) == 4
    assert weyl_dim(Weight(4, (0, 1, 0))) == 6
    assert weyl_dim(Weight(4, (1, 1, 1))) == 64
    assert weyl_dim(Weight(4, (0, 2, 0))) == 20
    assert weyl_dim(Weight(4, (2, 2, 2))) == 729


def test_root_coordinates():
    # adjoint highest weight is the highest root = alpha_1 + alpha_2
    assert root_coordinates(Weight(3, (1, 1))) == (Fraction(1), Fraction(1))
    assert root_coordinates(root_as_weight(Root(4, 1, 3))) == (
        Fraction(1), Fraction(1), Fraction(1),
    )
    assert root_coordinates(Weight(3, (1, 0))) == (Fraction(2, 3), Fraction(1, 3))


def test_root_lattice_height():
    lam = Weight(3, (1, 1))
    assert root_lattice_height(lam - Weight.zero(3)) == 2
    assert root_lattice_height(lam - lam) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_root_lattice_height_is_sum_of_root_coordinates(n):
    verdicts = set()
    for coords in itertools.product(range(-3, 4), repeat=n - 1):
        w = Weight(n, coords)
        rc = root_coordinates(w)
        integral = all(c.denominator == 1 for c in rc)
        verdicts.add(integral)
        if integral:
            height = root_lattice_height(w)
            assert type(height) is int and height == sum(rc)
        else:
            with pytest.raises(ValueError, match="not in the root lattice"):
                root_lattice_height(w)
    assert verdicts == {True, False}


def test_weight_multiplicities_sl2_strings():
    for m in range(7):
        diagram = weight_multiplicities(Weight(2, (m,)))
        assert diagram == {
            Weight(2, (m - 2 * k,)): 1 for k in range(m + 1)
        }


def test_weight_multiplicities_adjoint():
    diagram = weight_multiplicities(Weight(3, (1, 1)))
    assert diagram[Weight.zero(3)] == 2
    assert sum(diagram.values()) == 8
    for r in positive_roots(3):
        assert diagram[root_as_weight(r)] == 1
        assert diagram[-root_as_weight(r)] == 1
    diagram4 = weight_multiplicities(Weight(4, (1, 0, 1)))
    assert diagram4[Weight.zero(4)] == 3
    assert sum(diagram4.values()) == 15


def test_weight_multiplicities_27_of_sl3():
    diagram = weight_multiplicities(Weight(3, (2, 2)))
    assert diagram[Weight.zero(3)] == 3
    assert diagram[Weight(3, (1, 1))] == 2
    assert diagram[Weight(3, (2, 2))] == 1
    assert sum(diagram.values()) == 27


def test_diagram_total_matches_product_formula():
    # Freudenthal recursion vs the factored dimension formula
    for n in (2, 3, 4):
        for lam in dominant_weights(n, 2):
            diagram = weight_multiplicities(lam)
            assert sum(diagram.values()) == weyl_dim(lam)


def test_diagram_is_weyl_invariant():
    for lam in dominant_weights(3, 2):
        diagram = weight_multiplicities(lam)
        for mu, mult in diagram.items():
            if mu.is_dominant:
                for img in weyl_orbit(mu):
                    assert diagram[img] == mult


def test_dominant_multiplicities_consistency():
    for n in (2, 3, 4):
        for lam in dominant_weights(n, 2):
            dom = dominant_weight_multiplicities(lam)
            assert dom[lam] == 1
            full = weight_multiplicities(lam)
            for mu, mult in dom.items():
                assert mu.is_dominant
                assert full[mu] == mult
                assert all(c.denominator == 1 and c >= 0 for c in root_coordinates(lam - mu))
            assert sum(m * len(weyl_orbit(mu)) for mu, m in dom.items()) == weyl_dim(lam)


def test_weight_json():
    w = Weight(3, (2, 1))
    assert w.to_json() == [2, 1]
    assert Weight(3, tuple(w.to_json())) == w
    assert str(w) == "(2,1)"
