"""Desk-scale verification sweeps: the ten-criterion acceptance battery.

Each check replays one proved statement (or gathers evidence for one
conjecture) over an explicit finite sweep.  `_check` times each check and
builds its CheckResult; a DimensionCapError raised anywhere in a check fails
that check with the cap message, and every other check still runs.  The
sweeps are fixed here apart from the limits `run_all` takes: `n_max` and
`coord_max` (criteria 5 and 8-10) and `dim_cap` (criteria 1, 6, 7 and 10).
The CLI `verify` subcommand and the acceptance tests are thin wrappers around
these functions.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from .cases import _dominant_range, _points_as_map, proven_regime, verify_case
from .dyck import bounds_from_weight, dominant_points, lattice_points
from .fusion import (
    DEFAULT_DIM_CAP,
    DimensionCapError,
    GradedDecomposition,
    build_irrep,
    fusion_graded,
)
from .poset import maximal_pair, poset_report, weyl_character_prediction
from .tensor import lr_coefficients
from .typea import Weight, _check_limits, weyl_dim

__all__ = [
    "CheckResult",
    "FUSION_SPOT_PAIRS",
    "check_sl2",
    "check_rectangular",
    "check_pieri",
    "check_large",
    "check_ffol",
    "check_fusion",
    "check_poset",
    "check_weyl",
    "run_all",
]

# sl_2 pairs m1 >= m2 swept by criterion 1 and by the fusion sweep
SL2_M_MAX = 6

# heavier sl_3 pairs exercised on top of the dense small sweep; products stay
# under the 10^4 scale ceiling
FUSION_SPOT_PAIRS = (
    ((3, 3), (1, 1)),
    ((2, 2), (3, 3)),
    ((3, 3), (3, 3)),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.elapsed:.1f}s)"


def _check(*names: str):
    """Make a check body into the check for the named criteria.

    The body returns `(summary, failures)`, or a list of such pairs, one per
    name, when it checks several criteria in one pass.  The check times the
    body and returns one CheckResult per name (the result itself for a single
    name): passed with the summary when there are no failures, else failed
    with the failure count and the first three.  A DimensionCapError raised
    anywhere in the body fails every name with the cap message."""

    def wrap(body):
        @functools.wraps(body)
        def check(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                outcomes = body(*args, **kwargs)
            except DimensionCapError as exc:
                verdicts = [(False, f"dimension cap exceeded: {exc}")] * len(names)
            else:
                if len(names) == 1:
                    outcomes = [outcomes]
                verdicts = [
                    (False, f"{len(failures)} failures: {failures[:3]}")
                    if failures
                    else (True, summary)
                    for summary, failures in outcomes
                ]
            elapsed = time.perf_counter() - t0
            results = tuple(
                CheckResult(name, passed, detail, elapsed)
                for name, (passed, detail) in zip(names, verdicts)
            )
            return results[0] if len(names) == 1 else results

        return check

    return wrap


def _weights(n_max: int, coord_max: int) -> list[Weight]:
    """Every dominant weight of sl_2..sl_{n_max} with coordinates up to
    `coord_max`; ValueError for limits that `_check_limits` rejects."""
    _check_limits(n_max=n_max, coord_max=coord_max)
    return [lam for n in range(2, n_max + 1) for lam in _dominant_range(n, coord_max)]


def _sl2_pairs() -> list[tuple[Weight, Weight]]:
    return [
        (Weight(2, (m1,)), Weight(2, (m2,)))
        for m1 in range(SL2_M_MAX + 1)
        for m2 in range(m1 + 1)
    ]


def _fuse(lam1: Weight, lam2: Weight, dim_cap: int) -> GradedDecomposition:
    """Graded fusion of V(lam1) and V(lam2) at the points (0, 1); for two
    factors the grading does not depend on the points (see `fusion`)."""
    return fusion_graded(build_irrep(lam1, dim_cap), 0, build_irrep(lam2, dim_cap), 1)


def _oracle_comparisons(reports):
    """Outcome of the closed forms that `verify_case` sweeps against the
    oracle."""
    return f"{len(reports)} comparisons", [r.to_json() for r in reports if not r.equal]


@_check("sl2-theorem")
def check_sl2(dim_cap: int = DEFAULT_DIM_CAP):
    """Closed form = oracle for all sl_2 pairs m1 >= m2 up to SL2_M_MAX, and
    the graded fusion product holds exactly one V(m1 + m2 - 2l) in each degree
    l = 0..m2 and nothing else."""
    reports = verify_case("sl2", m_max=SL2_M_MAX)
    failures = [r.to_json() for r in reports if not r.equal]
    pairs = _sl2_pairs()
    for lam1, lam2 in pairs:
        (m1,), (m2,) = lam1.coords, lam2.coords
        expected = {(l, Weight(2, (m1 + m2 - 2 * l,))): 1 for l in range(m2 + 1)}
        if _fuse(lam1, lam2, dim_cap).entries != expected:
            failures.append(("fusion", m1, m2))
    return f"{len(reports)} closed-form and {len(pairs)} fusion comparisons", failures


@_check("rectangular-theorem")
def check_rectangular():
    """Rectangular closed form and its lattice-point presentation against the
    oracle."""
    return _oracle_comparisons(verify_case("rectangular", n_values=(3, 4, 5), m_max=3))


@_check("pieri-theorems")
def check_pieri():
    """Row and column product rules against the oracle."""
    return _oracle_comparisons(
        verify_case("pieri-row", n_values=(3, 4), coord_max=3, k_max=4)
        + verify_case("pieri-column", n_values=(3, 4), coord_max=3)
    )


@_check("large-pair-theorem")
def check_large():
    """Dominant-orbit pairs: translated-diagram formula and the dominant
    lattice-point counts against the oracle."""
    return _oracle_comparisons(verify_case("large", n_values=(3, 4), coord_max=3))


@_check("ffol-count")
def check_ffol(*, n_max: int, coord_max: int):
    """Lattice points of the weight's own bound vector count a basis of
    V(lam): |S| = weyl_dim."""
    weights = _weights(n_max, coord_max)
    failures = []
    for lam in weights:
        count = len(lattice_points(bounds_from_weight(lam)))
        if count != weyl_dim(lam):
            failures.append((lam.n, lam.coords, count, weyl_dim(lam)))
    return f"{len(weights)} weights", failures


def _fusion_pairs() -> list[tuple[Weight, Weight]]:
    """The 76 pairs of criteria 6 and 7: the sl_2 pairs of criterion 1, all
    sl_3 pairs with coordinates up to 2, and FUSION_SPOT_PAIRS."""
    grid = _dominant_range(3, 2)
    return (
        _sl2_pairs()
        + [(grid[a], grid[b]) for a in range(len(grid)) for b in range(a + 1)]
        + [(Weight(3, a), Weight(3, b)) for a, b in FUSION_SPOT_PAIRS]
    )


@_check("fusion-oracle", "sandwich")
def check_fusion(dim_cap: int = DEFAULT_DIM_CAP):
    """Criteria 6 and 7 in one pass over the fusion sweep, which fuses each
    pair once; both results report that pass's time.

    - fusion-oracle: the ungraded fusion collapse equals the oracle;
    - sandwich: per-weight dominant lattice-point counts bound the fusion
      multiplicities from above."""
    pairs = _fusion_pairs()
    oracle, sandwich = [], []
    for lam1, lam2 in pairs:
        collapse = _fuse(lam1, lam2, dim_cap).ungraded()
        if collapse != lr_coefficients(lam1, lam2):
            oracle.append((lam1.coords, lam2.coords))
        counts = _points_as_map(lam1.n, dominant_points(lam1, lam2))
        for tau, mult in collapse.items_sorted():
            if counts[tau] < mult:
                sandwich.append((lam1.coords, lam2.coords, tau.coords))
    return [(f"{len(pairs)} pairs", oracle), (f"{len(pairs)} pairs", sandwich)]


@_check("poset-axioms", "schur-positivity")
def check_poset(*, n_max: int, coord_max: int):
    """Criteria 8 and 9 in one pass over the posets of the sweep; both
    results report that pass's time.

    - poset-axioms: on the order matrix that each `poset_report` was built
      from (its entries are `order_leq` of each ordered pair), the order
      is reflexive, antisymmetric and transitive, (lam, 0) is the unique
      minimum, the maximal-pair formula gives the unique maximum, and the
      lattice-point sets of comparable pairs nest (materialized on the
      smaller instances).  A report that raises on its
      extremal elements fails the criterion for that weight.
    - schur-positivity: the Schur product difference (higher minus lower) of
      every cover relation of `poset_report` is nonnegative.  This covers
      every comparable pair: for A < C there is a chain of covers
      A = x0 < x1 < ... < xm = C, and lr(C) - lr(A) is the sum of the
      cover differences lr(x_{i+1}) - lr(x_i).  The two verdicts could
      differ only if antisymmetry failed, which poset-axioms checks.  A
      failure is a negative difference: a research finding, not a bug in
      the check."""
    weights = _weights(n_max, coord_max)
    bad, negative = [], []
    covers = 0
    for lam in weights:
        n = lam.n
        try:
            report = poset_report(lam)
        except AssertionError as exc:  # its extremal elements are wrong
            bad.append(("report", n, lam.coords, str(exc)))
            continue
        nodes, leq = report.nodes, report.leq
        k = len(nodes)
        for a in range(k):
            if not leq[a][a]:
                bad.append(("reflexive", n, lam.coords, a))
        for a in range(k):
            for b in range(k):
                if a != b and leq[a][b] and leq[b][a]:
                    bad.append(("antisymmetric", n, lam.coords, a, b))
                for c in range(k):
                    if leq[a][b] and leq[b][c] and not leq[a][c]:
                        bad.append(("transitive", n, lam.coords, a, b, c))
        mins = [a for a in range(k) if all(leq[a][b] for b in range(k))]
        if len(mins) != 1 or nodes[mins[0]].first != lam:
            bad.append(("minimum", n, lam.coords, mins))
        maxs = [a for a in range(k) if all(leq[b][a] for b in range(k))]
        if len(maxs) != 1 or nodes[maxs[0]] != maximal_pair(lam):
            bad.append(("maximum", n, lam.coords, maxs))
        if n <= 3 or max(lam.coords) <= 2:
            points = [frozenset(lattice_points(p.min_vector)) for p in nodes]
            for a in range(k):
                for b in range(k):
                    if a != b and leq[a][b] and not points[a] <= points[b]:
                        bad.append(("point-nesting", n, lam.coords, a, b))
        covers += len(report.edges)
        for a, b, positive in report.edges:
            if not positive:
                negative.append(
                    ("negative", n, lam.coords, str(report.nodes[a]), str(report.nodes[b]))
                )
    return [
        (f"{len(weights)} posets", bad),
        (f"{covers} cover relations", negative),
    ]


@_check("weyl-prediction")
def check_weyl(*, n_max: int, coord_max: int, dim_cap: int = DEFAULT_DIM_CAP):
    """Where the maximal pair lies in a proven regime, the truncated Weyl
    module prediction must equal the graded fusion collapse at that pair."""
    checked = 0
    bad = []
    for lam in _weights(n_max, coord_max):
        pair = maximal_pair(lam)
        if proven_regime(pair.first, pair.second) is None:
            continue
        collapse = _fuse(pair.first, pair.second, dim_cap).ungraded()
        if collapse != weyl_character_prediction(lam).character:
            bad.append((lam.n, lam.coords))
        checked += 1
    return f"{checked} proven-regime weights", bad


def run_all(
    *,
    n_max: int = 4,
    coord_max: int = 3,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[CheckResult]:
    """The full battery in acceptance order, one result per criterion;
    ValueError before any check for limits that `_check_limits` rejects:
    criteria 5 and 8-10 would sweep no weight, and a cap below 1 admits no
    module."""
    _check_limits(n_max=n_max, coord_max=coord_max, dim_cap=dim_cap)
    return [
        check_sl2(dim_cap=dim_cap),
        check_rectangular(),
        check_pieri(),
        check_large(),
        check_ffol(n_max=n_max, coord_max=coord_max),
        *check_fusion(dim_cap=dim_cap),
        *check_poset(n_max=n_max, coord_max=coord_max),
        check_weyl(n_max=n_max, coord_max=coord_max, dim_cap=dim_cap),
    ]
