"""Closed-form tensor decompositions in the proven parameter regimes.

Each regime produces its multiset of constituents directly from the stated
combinatorial data (no reflection rule), so every function here doubles as an
independent route that the oracle in `tensor` is checked against:

* sl_2: the classical two-factor decomposition;
* rectangular: both factors are multiples of a single fundamental weight;
* Pieri row / column: one factor is k*omega_1 or omega_j;
* large: one factor dominates the full Weyl orbit of the other, that is
  its least coordinate is at least the coordinate sum of the other.

`verify_case` sweeps a regime over parameter ranges and reports each
comparison as a CaseReport.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .dyck import LatticePoint, dominant_points
from .tensor import DecompositionMap, lr_coefficients
from .typea import Weight, _check_limits, _check_rank, _dominant, exact_ints, weight_multiplicities

__all__ = [
    "sl2_mults",
    "rect_hw_points",
    "rect_mults_formula",
    "pieri_row",
    "pieri_column",
    "is_much_greater",
    "large_case_mults",
    "proven_regime",
    "CaseReport",
    "CASE_RANGES",
    "verify_case",
]


def sl2_mults(m1: int, m2: int) -> DecompositionMap:
    """V(m1 w) (x) V(m2 w) for sl_2: one copy of V((m1+m2-2l) w) for each
    0 <= l <= min(m1, m2)."""
    m1, m2 = exact_ints((m1, m2), "sl_2 coordinates", 0)
    return DecompositionMap(
        2, {Weight(2, (m1 + m2 - 2 * l,)): 1 for l in range(min(m1, m2) + 1)}
    )


def _sorted_rect_params(n: int, i: int, m_i: int, j: int, m_j: int):
    _check_rank(n)
    i, j = exact_ints((i, j), "fundamental indices", 1, n - 1)
    m_i, m_j = exact_ints((m_i, m_j), "multiples", 0)
    if i > j:
        i, m_i, j, m_j = j, m_j, i, m_i
    return i, m_i, j, m_j


def rect_hw_points(
    n: int, i: int, m_i: int, j: int, m_j: int
) -> list[tuple[LatticePoint, Weight]]:
    """Highest-weight points for the pair (m_i w_i, m_j w_j): antidiagonal
    sums a_0 e_{i,j} + a_1 e_{i-1,j+1} + ... with
    min(m_i, m_j) >= a_0 >= a_1 >= ... >= a_p >= 0, p = min(i-1, n-1-j),
    each paired with its (always dominant) shifted weight."""
    i, m_i, j, m_j = _sorted_rect_params(n, i, m_i, j, m_j)
    lam = m_i * Weight.fundamental(n, i) + m_j * Weight.fundamental(n, j)
    p = min(i - 1, n - 1 - j)
    cap = min(m_i, m_j)
    out: list[tuple[LatticePoint, Weight]] = []
    # drawing p + 1 values from cap, cap - 1, ..., 0 in that order gives
    # exactly the non-increasing tuples (a_0, ..., a_p)
    for acc in itertools.combinations_with_replacement(range(cap, -1, -1), p + 1):
        pt = LatticePoint.from_sparse(
            n, [(i - step, j + step, a) for step, a in enumerate(acc)]
        )
        tau = lam - pt.wt
        if not tau.is_dominant:
            raise AssertionError(f"rectangular point {list(acc)} left the dominant chamber")
        out.append((pt, tau))
    out.sort(key=lambda pw: (pw[0].deg, pw[0].exps))
    return out


def rect_mults_formula(n: int, i: int, m_i: int, j: int, m_j: int) -> DecompositionMap:
    """Constituents of V(m_i w_i) (x) V(m_j w_j): over b_1, ..., b_P >= 0 with
    sum <= min(m_i, m_j) and P = min(i, n-j),
    tau = m_i w_i + m_j w_j + sum_q b_q (w_{i-q} + w_{j+q} - w_i - w_j),
    reading w_0 = w_n = 0; each surviving weight once."""
    i, m_i, j, m_j = _sorted_rect_params(n, i, m_i, j, m_j)
    cap = min(m_i, m_j)
    P = min(i, n - j)

    def fund_or_zero(k: int) -> Weight:
        if k in (0, n):
            return Weight.zero(n)
        return Weight.fundamental(n, k)

    lam = m_i * Weight.fundamental(n, i) + m_j * Weight.fundamental(n, j)
    taus: dict[Weight, int] = {}
    for bs in itertools.product(range(cap + 1), repeat=P):
        if sum(bs) > cap:
            continue
        tau = lam
        for q, b in enumerate(bs, start=1):
            if b:
                tau = tau + b * (
                    fund_or_zero(i - q)
                    + fund_or_zero(j + q)
                    - Weight.fundamental(n, i)
                    - Weight.fundamental(n, j)
                )
        taus[tau] = 1  # deduplicate
    return DecompositionMap(n, taus)


def pieri_row(lam: Weight, k: int) -> DecompositionMap:
    """Constituents of V(lam) (x) V(k w_1): add a nonnegative vector
    (b_1, ..., b_n) with sum k and b_j <= m_{j-1} (j >= 2) to the parts of
    lam; multiplicity free."""
    n = _dominant(lam)
    (k,) = exact_ints((k,), "row length", 0)
    parts = lam.to_parts()
    caps = [k] + [lam.coords[j - 2] for j in range(2, n + 1)]
    taus: dict[Weight, int] = {}
    # b_1, ..., b_{n-1} run below their caps; b_n takes what is left of k
    for head in itertools.product(*(range(min(c, k) + 1) for c in caps[:-1])):
        last = k - sum(head)
        if 0 <= last <= caps[-1]:
            b = head + (last,)
            taus[Weight.from_parts(n, tuple(p + x for p, x in zip(parts, b)))] = 1
    return DecompositionMap(n, taus)


def pieri_column(lam: Weight, j: int) -> DecompositionMap:
    """Constituents of V(lam) (x) V(w_j), the vertical strips: add 1 to j
    distinct parts of lam and keep each result whose parts stay weakly
    decreasing; multiplicity free."""
    n = _dominant(lam)
    (j,) = exact_ints((j,), "column index", 1, n - 1)
    parts = lam.to_parts()
    taus: dict[Weight, int] = {}
    for combo in itertools.combinations(range(n), j):
        strip = list(parts)
        for b in combo:
            strip[b] += 1
        if all(x >= y for x, y in zip(strip, strip[1:])):
            taus[Weight.from_parts(n, strip)] = 1
    return DecompositionMap(n, taus)


def is_much_greater(lambda1: Weight, lambda2: Weight) -> bool:
    """True iff lambda1 + w(lambda2) is dominant for every Weyl image w(lambda2),
    that is iff every coordinate of lambda1 is at least lambda2(h_theta), the
    coordinate sum of lambda2 (theta the highest root).

    The k-th coordinate of lambda1 + w(lambda2) is lambda1_k plus the pairing
    of lambda2 with the coroot of w^{-1}(alpha_k).  W permutes the roots and
    every root is some w^{-1}(alpha_k), so over the orbit that pairing runs
    through lambda2(h_beta) for all roots beta.  For dominant lambda2 the
    least of these is -lambda2(h_theta): theta - beta is a nonnegative sum of
    simple roots for every positive root beta."""
    _dominant(lambda1, lambda2)
    return min(lambda1.coords) >= sum(lambda2.coords)


def large_case_mults(lambda1: Weight, lambda2: Weight) -> DecompositionMap:
    """Constituents of V(lambda1) (x) V(lambda2) when lambda1 dominates the
    whole orbit of lambda2: the weight diagram of lambda2 translated by
    lambda1."""
    if not is_much_greater(lambda1, lambda2):
        raise ValueError(
            f"large_case_mults requires the first weight to dominate the orbit "
            f"of the second; got {lambda1}, {lambda2}"
        )
    shifted = {lambda1 + nu: m for nu, m in weight_multiplicities(lambda2).items()}
    return DecompositionMap(lambda1.n, shifted)


def _is_rectangular(w: Weight) -> bool:
    return sum(1 for c in w.coords if c) <= 1


def _is_row_or_column(w: Weight) -> bool:
    # k * omega_1 (k >= 0, as w is dominant) or omega_j
    return not any(w.coords[1:]) or sum(w.coords) == 1


def proven_regime(lambda1: Weight, lambda2: Weight) -> str | None:
    """Name of a proven regime covering the (unordered) pair, or None."""
    _dominant(lambda1, lambda2)
    if lambda1.n == 2:
        return "sl2"
    if _is_rectangular(lambda1) and _is_rectangular(lambda2):
        return "rectangular"
    if _is_row_or_column(lambda1) or _is_row_or_column(lambda2):
        return "pieri"
    if is_much_greater(lambda1, lambda2) or is_much_greater(lambda2, lambda1):
        return "large"
    return None


@dataclass
class CaseReport:
    """Outcome of one closed-form-vs-oracle comparison."""

    case: str
    params: dict
    a_side: DecompositionMap
    c_side: DecompositionMap
    equal: bool = field(init=False)
    mismatches: list[tuple[Weight, int, int]] = field(init=False)

    def __post_init__(self):
        keys = set(self.a_side.entries) | set(self.c_side.entries)
        self.mismatches = sorted(
            (
                (w, self.a_side[w], self.c_side[w])
                for w in keys
                if self.a_side[w] != self.c_side[w]
            ),
            key=lambda t: t[0].to_parts(),
            reverse=True,
        )
        self.equal = not self.mismatches

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "params": self.params,
            "equal": self.equal,
            "a": self.a_side.to_json(),
            "c": self.c_side.to_json(),
            "mismatches": [
                {"tau": w.to_json(), "a": a, "c": c} for w, a, c in self.mismatches
            ],
        }


def _points_as_map(n: int, pts: Iterable[tuple[LatticePoint, Weight]]) -> DecompositionMap:
    acc: dict[Weight, int] = {}
    for _, tau in pts:
        acc[tau] = acc.get(tau, 0) + 1
    return DecompositionMap(n, acc)


def _dominant_range(n: int, coord_max: int) -> list[Weight]:
    return [
        Weight(n, coords)
        for coords in itertools.product(range(coord_max + 1), repeat=n - 1)
    ]


# the ranges each regime's sweep reads
CASE_RANGES = {
    "sl2": ("m_max",),
    "rectangular": ("n_values", "m_max"),
    "pieri-row": ("n_values", "coord_max", "k_max"),
    "pieri-column": ("n_values", "coord_max"),
    "large": ("n_values", "coord_max"),
}


def verify_case(case: str, **ranges) -> list[CaseReport]:
    """Sweep one proven regime against the oracle over the ranges it reads,
    `CASE_RANGES[case]` (m_max 3, n_values (3, 4), coord_max 2 and k_max 3
    unless given), and return one CaseReport per comparison (two per tuple
    for the regimes that also carry a lattice-point presentation).  Any other
    range, and a range out of the bounds of `_check_limits`, raises
    ValueError before the sweep."""
    if case not in CASE_RANGES:
        raise ValueError(f"unknown case tag {case!r}; expected one of {', '.join(CASE_RANGES)}")
    unread = [name for name in ranges if name not in CASE_RANGES[case]]
    if unread:
        reads = ", ".join(CASE_RANGES[case])
        raise ValueError(f"case {case} reads only {reads}, not {', '.join(unread)}")
    _check_limits(**ranges)
    m_max, n_values = ranges.get("m_max", 3), ranges.get("n_values", (3, 4))
    coord_max, k_max = ranges.get("coord_max", 2), ranges.get("k_max", 3)
    reports: list[CaseReport] = []

    def compare(params, formula, first, second, points=None):
        # one oracle call per tuple, shared with its lattice-point presentation
        oracle = lr_coefficients(first, second)
        reports.append(CaseReport(case, params, formula, oracle))
        if points is not None:
            pts = _points_as_map(first.n, points)
            reports.append(CaseReport(f"{case}-points", params, pts, oracle))

    if case == "sl2":
        for m1 in range(m_max + 1):
            for m2 in range(m1 + 1):
                lam1, lam2 = Weight(2, (m1,)), Weight(2, (m2,))
                compare({"m1": m1, "m2": m2}, sl2_mults(m1, m2), lam1, lam2)

    elif case == "rectangular":
        for n in n_values:
            for i in range(1, n):
                for j in range(i, n):
                    for m_i in range(m_max + 1):
                        for m_j in range(m_max + 1):
                            compare(
                                {"n": n, "i": i, "m_i": m_i, "j": j, "m_j": m_j},
                                rect_mults_formula(n, i, m_i, j, m_j),
                                m_i * Weight.fundamental(n, i),
                                m_j * Weight.fundamental(n, j),
                                rect_hw_points(n, i, m_i, j, m_j),
                            )

    elif case == "pieri-row":
        for n in n_values:
            for lam in _dominant_range(n, coord_max):
                for k in range(k_max + 1):
                    params = {"n": n, "lam": lam.to_json(), "k": k}
                    compare(params, pieri_row(lam, k), lam, k * Weight.fundamental(n, 1))

    elif case == "pieri-column":
        for n in n_values:
            for lam in _dominant_range(n, coord_max):
                for j in range(1, n):
                    params = {"n": n, "lam": lam.to_json(), "j": j}
                    compare(params, pieri_column(lam, j), lam, Weight.fundamental(n, j))

    else:  # large
        for n in n_values:
            grid = _dominant_range(n, coord_max)
            for lam1 in grid:
                for lam2 in grid:
                    if is_much_greater(lam1, lam2):
                        params = {"n": n, "lambda1": lam1.to_json(), "lambda2": lam2.to_json()}
                        formula = large_case_mults(lam1, lam2)
                        compare(params, formula, lam1, lam2, dominant_points(lam1, lam2))

    return reports
