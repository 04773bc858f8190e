"""Desk-scale verification sweeps.

Each check replays one proved statement (or gathers evidence for one
conjecture) over an explicit finite sweep and returns a CheckResult.
`run_all` executes the whole battery in order; the CLI `verify` subcommand
and the acceptance tests are both thin wrappers around these functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .cases import _dominant_range, proven_regime, verify_case
from .dyck import bounds_from_weight, dominant_points, lattice_points
from .fusion import build_irrep, fusion_graded
from .poset import (
    enumerate_pairs,
    maximal_pair,
    order_leq,
    schur_monotonicity_check,
    weyl_character_prediction,
)
from .tensor import DecompositionMap, lr_coefficients
from .typea import Weight, weyl_dim

__all__ = [
    "CheckResult",
    "FUSION_SPOT_PAIRS",
    "check_sl2",
    "check_rectangular",
    "check_pieri",
    "check_large",
    "check_ffol",
    "check_fusion",
    "check_sandwich",
    "check_poset",
    "check_schur",
    "check_weyl",
    "run_all",
]

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


def check_sl2(m_max: int = 6) -> CheckResult:
    """Closed form = oracle = graded fusion collapse for all sl_2 pairs, with
    the top filtration degree equal to min(m1, m2)."""
    t0 = time.time()
    reports = verify_case("sl2", m_max=m_max)
    bad = [r for r in reports if not r.equal]
    fusion_checked = 0
    for m1 in range(m_max + 1):
        for m2 in range(m1 + 1):
            lam1, lam2 = Weight(2, (m1,)), Weight(2, (m2,))
            graded = fusion_graded(build_irrep(lam1), 0, build_irrep(lam2), 1)
            if dict(graded.ungraded().entries) != dict(
                lr_coefficients(lam1, lam2).entries
            ):
                bad.append(("fusion", m1, m2))
            if graded.max_degree != min(m1, m2):
                bad.append(("degree", m1, m2))
            fusion_checked += 1
    detail = (
        f"{len(reports)} closed-form and {fusion_checked} fusion comparisons"
        if not bad
        else f"{len(bad)} mismatches: {bad[:3]}"
    )
    return CheckResult("sl2-theorem", not bad, detail, time.time() - t0)


def _case_result(name: str, reports, t0: float) -> CheckResult:
    """Pass when every oracle comparison in `reports` agrees."""
    bad = [r for r in reports if not r.equal]
    detail = (
        f"{len(reports)} comparisons"
        if not bad
        else f"{len(bad)} mismatches, first: {bad[0].to_json()}"
    )
    return CheckResult(name, not bad, detail, time.time() - t0)


def check_rectangular(
    n_values=(3, 4, 5), m_max: int = 3
) -> CheckResult:
    """Rectangular closed form and its lattice-point presentation against the
    oracle."""
    t0 = time.time()
    reports = verify_case("rectangular", m_max=m_max, n_values=n_values)
    return _case_result("rectangular-theorem", reports, t0)


def check_pieri(
    n_values=(3, 4), coord_max: int = 3, k_max: int = 4
) -> CheckResult:
    """Row and column product rules against the oracle."""
    t0 = time.time()
    reports = verify_case(
        "pieri-row", n_values=n_values, coord_max=coord_max, k_max=k_max
    ) + verify_case("pieri-column", n_values=n_values, coord_max=coord_max)
    return _case_result("pieri-theorems", reports, t0)


def check_large(n_values=(3, 4), coord_max: int = 3) -> CheckResult:
    """Dominant-orbit pairs: translated-diagram formula and the dominant
    lattice-point counts against the oracle."""
    t0 = time.time()
    reports = verify_case("large", n_values=n_values, coord_max=coord_max)
    return _case_result("large-pair-theorem", reports, t0)


def check_ffol(n_max: int = 4, coord_max: int = 2) -> CheckResult:
    """Lattice points of the weight's own bound vector count a basis of
    V(lam): |S| = weyl_dim."""
    t0 = time.time()
    checked = 0
    bad = []
    for n in range(2, n_max + 1):
        for lam in _dominant_range(n, coord_max):
            count = len(lattice_points(bounds_from_weight(lam)))
            if count != weyl_dim(lam):
                bad.append((n, lam.coords, count, weyl_dim(lam)))
            checked += 1
    detail = (
        f"{checked} weights" if not bad else f"{len(bad)} mismatches: {bad[:3]}"
    )
    return CheckResult("ffol-count", not bad, detail, time.time() - t0)


def _fusion_sweep_pairs(
    n2_m_max: int, n3_coord_max: int, spots
) -> list[tuple[Weight, Weight]]:
    pairs = []
    for m1 in range(n2_m_max + 1):
        for m2 in range(m1 + 1):
            pairs.append((Weight(2, (m1,)), Weight(2, (m2,))))
    grid = _dominant_range(3, n3_coord_max)
    for a in range(len(grid)):
        for b in range(a + 1):
            pairs.append((grid[a], grid[b]))
    for a, b in spots:
        pairs.append((Weight(3, a), Weight(3, b)))
    return pairs


def check_fusion(
    n2_m_max: int = 6,
    n3_coord_max: int = 2,
    spots=FUSION_SPOT_PAIRS,
    dim_cap: int = 400,
) -> tuple[CheckResult, list[tuple[Weight, Weight, DecompositionMap]]]:
    """Ungraded fusion collapse = oracle for every pair of the sweep, each
    run once at the points (0, 1); the graded result does not depend on the
    points (see `fusion_graded`).  Modules above `dim_cap` raise
    DimensionCapError.  Also returns the per-pair collapse for downstream
    sandwich checks."""
    t0 = time.time()
    bad = []
    collapses = []
    pairs = _fusion_sweep_pairs(n2_m_max, n3_coord_max, spots)
    for lam1, lam2 in pairs:
        graded = fusion_graded(
            build_irrep(lam1, dim_cap), 0, build_irrep(lam2, dim_cap), 1
        )
        collapse = graded.ungraded()
        if dict(collapse.entries) != dict(lr_coefficients(lam1, lam2).entries):
            bad.append(("collapse", lam1.coords, lam2.coords))
        collapses.append((lam1, lam2, collapse))
    detail = (
        f"{len(pairs)} pairs" if not bad else f"{len(bad)} failures: {bad[:3]}"
    )
    return (
        CheckResult("fusion-oracle", not bad, detail, time.time() - t0),
        collapses,
    )


def check_sandwich(
    collapses: list[tuple[Weight, Weight, DecompositionMap]]
) -> CheckResult:
    """Per-weight dominant lattice-point counts bound the fusion
    multiplicities from above."""
    t0 = time.time()
    bad = []
    for lam1, lam2, collapse in collapses:
        counts: dict[Weight, int] = {}
        for _, tau in dominant_points(lam1, lam2):
            counts[tau] = counts.get(tau, 0) + 1
        for tau, mult in collapse.entries.items():
            if counts.get(tau, 0) < mult:
                bad.append((lam1.coords, lam2.coords, tau.coords))
    detail = (
        f"{len(collapses)} pairs"
        if not bad
        else f"{len(bad)} violations: {bad[:3]}"
    )
    return CheckResult("sandwich", not bad, detail, time.time() - t0)


def check_poset(n_max: int = 4, coord_max: int = 3) -> CheckResult:
    """Partial-order axioms, extremal elements, and polytope nesting on every
    poset in the sweep.

    Nesting is certified entrywise on bound vectors for every comparable pair
    (the inequality system is monotone in its right-hand sides), and verified
    on materialized point sets for the smaller instances."""
    t0 = time.time()
    bad = []
    posets = 0
    for n in range(2, n_max + 1):
        for lam in _dominant_range(n, coord_max):
            nodes = enumerate_pairs(lam)
            k = len(nodes)
            posets += 1
            leq = [[order_leq(nodes[a], nodes[b]) for b in range(k)] for a in range(k)]
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
            materialize = n <= 3 or max(lam.coords) <= 2
            point_sets: dict[int, frozenset] = {}

            def points_of(idx: int) -> frozenset:
                if idx not in point_sets:
                    point_sets[idx] = frozenset(
                        lattice_points(nodes[idx].min_vector)
                    )
                return point_sets[idx]

            for a in range(k):
                for b in range(k):
                    if not leq[a][b]:
                        continue
                    if not nodes[a].min_vector.leq(nodes[b].min_vector):
                        bad.append(("bound-nesting", n, lam.coords, a, b))
                    elif materialize and a != b:
                        if not points_of(a) <= points_of(b):
                            bad.append(("point-nesting", n, lam.coords, a, b))
    detail = (
        f"{posets} posets" if not bad else f"{len(bad)} failures: {bad[:3]}"
    )
    return CheckResult("poset-axioms", not bad, detail, time.time() - t0)


def check_schur(n_max: int = 4, coord_max: int = 3) -> CheckResult:
    """Schur-positivity of higher-minus-lower product differences along the
    order, over the same sweep as the poset axioms."""
    t0 = time.time()
    comparisons = 0
    bad = []
    for n in range(2, n_max + 1):
        for lam in _dominant_range(n, coord_max):
            report = schur_monotonicity_check(lam)
            comparisons += len(report.comparisons)
            for c in report.counterexamples():
                bad.append((n, lam.coords, str(c.low), str(c.high)))
    detail = (
        f"{comparisons} comparable pairs"
        if not bad
        else f"{len(bad)} NEGATIVE differences (research finding!): {bad[:3]}"
    )
    return CheckResult("schur-positivity", not bad, detail, time.time() - t0)


def check_weyl(
    n_max: int = 4, coord_max: int = 3, dim_cap: int = 400
) -> CheckResult:
    """Where the maximal pair lies in a proven regime, the truncated Weyl
    module prediction must equal the graded fusion collapse at that pair."""
    t0 = time.time()
    checked = 0
    skipped = 0
    bad = []
    for n in range(2, n_max + 1):
        for lam in _dominant_range(n, coord_max):
            pair = maximal_pair(lam)
            if proven_regime(pair.first, pair.second) is None:
                continue
            if max(weyl_dim(pair.first), weyl_dim(pair.second)) > dim_cap:
                skipped += 1
                continue
            graded = fusion_graded(
                build_irrep(pair.first, dim_cap), 0, build_irrep(pair.second, dim_cap), 1
            )
            prediction = weyl_character_prediction(lam)
            if dict(graded.ungraded().entries) != dict(prediction.character.entries):
                bad.append((n, lam.coords))
            checked += 1
    detail = (
        f"{checked} proven-regime weights ({skipped} above the dimension cap)"
        if not bad
        else f"{len(bad)} mismatches: {bad[:3]}"
    )
    return CheckResult("weyl-prediction", not bad, detail, time.time() - t0)


def run_all(
    *,
    n_max: int = 4,
    coord_max: int = 3,
    dim_cap: int = 400,
) -> list[CheckResult]:
    """The full battery in acceptance order."""
    results = [
        check_sl2(),
        check_rectangular(),
        check_pieri(),
        check_large(),
        check_ffol(n_max=n_max, coord_max=coord_max),
    ]
    fusion_result, collapses = check_fusion(dim_cap=dim_cap)
    results.append(fusion_result)
    results.append(check_sandwich(collapses))
    results.append(check_poset(n_max=n_max, coord_max=coord_max))
    results.append(check_schur(n_max=n_max, coord_max=coord_max))
    results.append(check_weyl(n_max=n_max, coord_max=coord_max, dim_cap=dim_cap))
    return results
