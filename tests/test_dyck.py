"""Dyck paths, the inequality system, and lattice-point enumeration."""

import gc
import hashlib
import itertools
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from slnfusion.dyck import (
    BoundVector,
    DyckPath,
    LatticePoint,
    _root_pairings,
    bounds_from_pair,
    bounds_from_weight,
    dominant_points,
    dyck_paths,
    inequalities,
    lattice_points,
)
from slnfusion.cases import pieri_row, rect_hw_points
from slnfusion.tensor import lr_coefficients
from slnfusion.typea import (
    Root,
    Weight,
    _dominant_parts_below,
    pairing,
    positive_root_index,
    positive_roots,
    root_as_weight,
    weyl_dim,
)


def weight_sum(point):
    """Reference for LatticePoint.wt: sum s_alpha * alpha in Weight arithmetic."""
    acc = Weight.zero(point.n)
    for root, s in zip(positive_roots(point.n), point.exps):
        acc = acc + s * root_as_weight(root)
    return acc


@lru_cache(maxsize=None)
def full_system(n):
    """(coordinate positions, base position) of every path of `dyck_paths`."""
    return tuple(
        ([positive_root_index(r) for r in p.steps], positive_root_index(p.base))
        for p in dyck_paths(n)
    )


def point_satisfies(point, bounds):
    """Membership test against the full system, one inequality per path of
    `dyck_paths`: the reference that `lattice_points` is checked against."""
    if point.n != bounds.n:
        raise ValueError(f"rank mismatch: sl_{point.n} vs sl_{bounds.n}")
    for idxs, base in full_system(point.n):
        if sum(point.exps[k] for k in idxs) > bounds.values[base]:
            return False
    return True


@st.composite
def bound_vectors(draw):
    # sl_5 keeps its entries at most 1 so that its box (2^10 points) stays
    # small enough for the brute-force reference
    n = draw(st.integers(2, 5))
    size = n * (n - 1) // 2
    top = 1 if n == 5 else 3
    values = draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
    return BoundVector(n, values)


@st.composite
def dominant_weights(draw):
    n = draw(st.integers(2, 4))
    coords = draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1))
    return Weight(n, coords)


def test_dyck_paths_sl2():
    paths = dyck_paths(2)
    assert len(paths) == 1
    assert [(r.i, r.j) for r in paths[0].steps] == [(1, 1)]


def test_dyck_paths_sl3_frozen():
    got = [[(r.i, r.j) for r in p.steps] for p in dyck_paths(3)]
    assert got == [
        [(1, 1)],
        [(1, 1), (1, 2)],
        [(1, 1), (1, 2), (2, 2)],
        [(1, 2)],
        [(1, 2), (2, 2)],
        [(2, 2)],
    ]


def test_dyck_paths_sl4_count():
    # starting-point recursion: c(i,j) = 1 + c(i+1,j) + c(i,j+1) gives
    # 8 + 7 + 3 + 3 + 2 + 1 over the six roots
    assert len(dyck_paths(4)) == 24


def test_dyck_path_base_and_validation():
    p = DyckPath((Root(3, 1, 1), Root(3, 1, 2), Root(3, 2, 2)))
    assert (p.base.i, p.base.j) == (1, 2)
    assert len(p) == 3
    with pytest.raises(ValueError):
        DyckPath(())
    with pytest.raises(ValueError):
        DyckPath((Root(3, 1, 1), Root(3, 2, 2)))  # not a successor
    with pytest.raises(ValueError):
        DyckPath((Root(3, 1, 1), Root(4, 1, 2)))


def test_inequalities_sl3():
    system = inequalities(3)
    got = [([(r.i, r.j) for r in p.steps], (p.base.i, p.base.j)) for p in system]
    assert got == [
        ([(1, 1)], (1, 1)),
        ([(1, 1), (1, 2), (2, 2)], (1, 2)),
        ([(2, 2)], (2, 2)),
    ]


def test_inequalities_sl4_pruned_count():
    # base (1,3) keeps its two maximal chains, the other five bases one each
    system = inequalities(4)
    assert len(system) == 7
    by_base = {}
    for ineq in system:
        by_base.setdefault((ineq.base.i, ineq.base.j), []).append(ineq)
    assert sorted(len(v) for v in by_base.values()) == [1, 1, 1, 1, 1, 2]
    assert len(by_base[(1, 3)]) == 2


def maximal_supports(n):
    """Reference for `inequalities`: the paths whose support lies strictly
    inside no other path's support with the same base, by subset search."""
    supports = {}
    for p in dyck_paths(n):
        supports.setdefault(p.base, []).append(set(p.steps))
    return tuple(
        p
        for p in dyck_paths(n)
        if not any(set(p.steps) < other for other in supports[p.base])
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_inequalities_are_the_maximal_supports(n):
    assert inequalities(n) == maximal_supports(n)


def test_pruning_preserves_solution_sets():
    # exhaustively: the enumeration on `inequalities` keeps exactly the points
    # of the box that satisfy every path of `dyck_paths`
    for n in (3, 4):
        size = n * (n - 1) // 2
        for values in itertools.product(range(3), repeat=size):
            bounds = BoundVector(n, values)
            box = itertools.product(*(range(a + 1) for a in values))
            expected = sorted(
                (e for e in box if point_satisfies(LatticePoint(n, e), bounds)),
                key=lambda e: (sum(e), e),
            )
            assert [p.exps for p in lattice_points(bounds)] == expected


@settings(max_examples=60, deadline=None)
@given(bound_vectors())
@example(BoundVector(2, (0,)))
@example(BoundVector(2, (4,)))
def test_lattice_points_match_brute_force(bounds):
    # every point of the box [0, a_alpha] that meets the full system, in
    # (degree, exponents) order
    box = itertools.product(*(range(a + 1) for a in bounds.values))
    expected = sorted(
        (
            exps
            for exps in box
            if point_satisfies(LatticePoint(bounds.n, exps), bounds)
        ),
        key=lambda exps: (sum(exps), exps),
    )
    assert [p.exps for p in lattice_points(bounds)] == expected


@settings(max_examples=60, deadline=None)
@given(bound_vectors())
def test_lattice_points_equal_their_validated_construction(bounds):
    # lattice_points wraps its tuples without the constructor's checks; each
    # point must be exactly what the validating constructor would build
    for p in lattice_points(bounds):
        checked = LatticePoint(p.n, p.exps)
        assert p == checked
        assert hash(p) == hash(checked)
        assert type(p.exps) is tuple
        assert all(type(e) is int for e in p.exps)


def assert_no_garbage_cycle(call):
    # the result must be freed by reference counting once the caller drops
    # it, not kept alive by a cycle until the collector next runs; the first
    # call fills any cache, so only the second is measured
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lattice_points_leave_no_garbage_cycle():
    assert_no_garbage_cycle(lambda: lattice_points(BoundVector(4, (2, 2, 2, 2, 2, 2))))


@pytest.mark.parametrize(
    "call",
    [
        lambda: rect_hw_points(4, 1, 2, 3, 2),
        lambda: pieri_row(Weight(4, (1, 2, 1)), 3),
        lambda: _dominant_parts_below((3, 2, 1, 0)),
    ],
    ids=["rect_hw_points", "pieri_row", "_dominant_parts_below"],
)
def test_enumerators_leave_no_garbage_cycle(call):
    assert_no_garbage_cycle(call)


def lattice_points_digest(n, top):
    """sha256 of the exponent lists of every V(lam) of sl_n with coordinates
    at most `top`, in grid order."""
    h = hashlib.sha256()
    for coords in itertools.product(range(top + 1), repeat=n - 1):
        points = lattice_points(bounds_from_weight(Weight(n, coords)))
        h.update(repr([p.exps for p in points]).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "n, top, expected",
    [
        (5, 2, "dd0869ef1fdd2e1116d607ec48bea1ad0a72f68d9414db91448a758f96ced16f"),
        (4, 3, "ac50fcd7671f1fb949e1aaba1c2287df764ae1c3c836768586f84f9dc8d3d125"),
        # sl_6 has the longest tail of the head/tail split, 7 of its 15
        # coordinates
        (6, 1, "5f74d7312424bc0e3345cd7d5f8b11dd1c5983c19786d7cf6fae2fad80bf5f05"),
    ],
)
def test_lattice_points_pinned_digest(n, top, expected):
    # beyond brute-force reach (sl_5 V(2,2,2,2) alone has 59,049 points): the
    # digest catches a change of order or a duplicated point
    assert lattice_points_digest(n, top) == expected


def pair_points_digest(n, top):
    """sha256 of the exponent lists of the pair polytope bounds_from_pair(lam1,
    lam2) for every ordered pair of weights of sl_n with coordinates at most
    `top`, in grid order."""
    h = hashlib.sha256()
    grid = [Weight(n, c) for c in itertools.product(range(top + 1), repeat=n - 1)]
    for lam1, lam2 in itertools.product(grid, repeat=2):
        points = lattice_points(bounds_from_pair(lam1, lam2))
        h.update(repr([p.exps for p in points]).encode())
    return h.hexdigest()


def test_pair_points_pinned_digest():
    # the 729 ordered pairs of sl_4 with coordinates at most 2; a pair's
    # bounds are the least of two pairing vectors, which in general is the
    # pairing vector of no weight
    assert pair_points_digest(4, 2) == (
        "56d0f6a571c94c79ac00973fecb37cca862ae79727349c32724838614087bb1b"
    )


@settings(max_examples=40, deadline=None)
@given(dominant_weights())
def test_lattice_point_count_is_weyl_dimension(lam):
    assert len(lattice_points(bounds_from_weight(lam))) == weyl_dim(lam)


def test_bound_vector_validation():
    bv = BoundVector(3, (1, 2, 1))
    assert bv.values == (1, 2, 1)
    assert bv.leq(BoundVector(3, (1, 2, 2)))
    assert not BoundVector(3, (2, 2, 1)).leq(bv)
    with pytest.raises(ValueError):
        BoundVector(3, (1, 2))
    with pytest.raises(ValueError):
        BoundVector(3, (1, -1, 0))


def test_bounds_from_pair_frozen():
    got = bounds_from_pair(Weight(3, (1, 0)), Weight(3, (0, 1)))
    assert got.values == (0, 1, 0)
    got = bounds_from_pair(Weight(3, (1, 1)), Weight(3, (1, 1)))
    assert got.values == (1, 2, 1)
    with pytest.raises(ValueError):
        bounds_from_pair(Weight(3, (-1, 0)), Weight(3, (0, 1)))


def test_bounds_from_weight_is_pairing_vector():
    lam = Weight(3, (2, 1))
    assert bounds_from_weight(lam).values == (2, 3, 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_root_pairings_match_pairing(n):
    for coords in itertools.product(range(-3, 4), repeat=n - 1):
        w = Weight(n, coords)
        assert _root_pairings(w) == tuple(pairing(w, r) for r in positive_roots(n))


def test_lattice_point_basics():
    zero = LatticePoint(3, (0, 0, 0))
    assert zero.deg == 0
    assert zero.wt == Weight.zero(3)
    e12 = LatticePoint.from_sparse(3, [(1, 2, 1)])
    assert e12.deg == 1
    assert e12.wt == Weight(3, (1, 1))
    assert e12.exps == (0, 1, 0)
    double = LatticePoint.from_sparse(3, [(1, 2, 1), (1, 2, 1)])
    assert double.exps == (0, 2, 0)
    assert double.deg == 2
    both = LatticePoint.from_sparse(3, [(1, 1, 2), (2, 2, 1)])
    assert both.exps == (2, 0, 1)
    with pytest.raises(ValueError):
        LatticePoint.from_sparse(3, [(1, 3, 1)])


def test_lattice_point_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        LatticePoint(3, (0, -1, 0))
    with pytest.raises(ValueError, match="needs 3 exponents"):
        LatticePoint(3, (1, 1))
    assert LatticePoint(3, [1, 0, 2]).exps == (1, 0, 2)


def test_lattice_point_weight_matches_weight_sum():
    for n, bound in ((2, 4), (3, 2), (4, 1)):
        lam = Weight(n, (bound,) * (n - 1))
        for p in lattice_points(bounds_from_weight(lam)):
            assert p.wt == weight_sum(p)


def test_lattice_point_json():
    p = LatticePoint.from_sparse(3, [(1, 2, 2), (2, 2, 1)])
    assert p.to_json() == {"exps": [[1, 2, 2], [2, 2, 1]]}
    assert LatticePoint(3, (0, 0, 0)).to_json() == {"exps": []}


def test_lattice_points_frozen_small():
    pts = lattice_points(BoundVector(3, (1, 1, 0)))
    assert [p.exps for p in pts] == [(0, 0, 0), (0, 1, 0), (1, 0, 0)]
    pts = lattice_points(BoundVector(3, (1, 2, 1)))
    assert len(pts) == 8


def test_lattice_points_sorted_and_valid():
    bounds = BoundVector(3, (2, 2, 2))
    pts = lattice_points(bounds)
    assert pts == sorted(pts, key=lambda p: (p.deg, p.exps))
    assert len(set(pts)) == len(pts)
    for p in pts:
        assert point_satisfies(p, bounds)


def test_point_satisfies_rejects():
    bounds = BoundVector(3, (0, 5, 5))
    assert not point_satisfies(LatticePoint.from_sparse(3, [(1, 1, 1)]), bounds)
    assert point_satisfies(LatticePoint.from_sparse(3, [(2, 2, 1)]), bounds)


def test_lattice_points_monotone_in_bounds():
    inner = set(lattice_points(BoundVector(3, (1, 1, 1))))
    outer = set(lattice_points(BoundVector(3, (1, 2, 1))))
    assert inner <= outer


def test_ffol_adjoint_count():
    lam = Weight(3, (1, 1))
    assert bounds_from_weight(lam).values == (1, 2, 1)
    assert len(lattice_points(bounds_from_weight(lam))) == 8 == weyl_dim(lam)


def test_dominant_points_frozen():
    got = dominant_points(Weight(3, (1, 0)), Weight(3, (0, 1)))
    assert [(p.exps, tau.coords) for p, tau in got] == [
        ((0, 0, 0), (1, 1)),
        ((0, 1, 0), (0, 0)),
    ]


def test_dominant_points_match_shifted_weight_filter():
    # the filter on Weight arithmetic that the integer shift replaces
    for n, cmax in ((3, 2), (4, 1)):
        grid = [Weight(n, c) for c in itertools.product(range(cmax + 1), repeat=n - 1)]
        for lam1 in grid:
            for lam2 in grid:
                total = lam1 + lam2
                expected = [
                    (p, total - weight_sum(p))
                    for p in lattice_points(bounds_from_pair(lam1, lam2))
                    if (total - weight_sum(p)).is_dominant
                ]
                assert dominant_points(lam1, lam2) == expected


def test_dominant_points_bound_lr_multiplicities():
    for c1 in itertools.product(range(2), repeat=2):
        for c2 in itertools.product(range(2), repeat=2):
            lam1, lam2 = Weight(3, c1), Weight(3, c2)
            counts = {}
            for _, tau in dominant_points(lam1, lam2):
                assert tau.is_dominant
                counts[tau] = counts.get(tau, 0) + 1
            for tau, mult in lr_coefficients(lam1, lam2).entries.items():
                assert counts.get(tau, 0) >= mult
