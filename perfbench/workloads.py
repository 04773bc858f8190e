"""The benchmark's workloads: fixed operation lists built from a seed.

Each operation calls public functions of the slnfusion layers, checks the
output, and returns it in a canonical text form whose digest is frozen in
`digests.json`.  An operation's key names its inputs and never the seed, so
the frozen digest holds at every seed.  The seed draws the non-integer
evaluation points of the fusion workload and the order of every workload's
operations; the input sizes stay fixed.  Why each workload exists is
recorded in BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, NamedTuple

WORKLOADS = ("fusion", "polytope", "posets")

# Grid limits: "full" is the benchmark, "tiny" a subset for smoke tests whose
# keys all occur in the full lists, so the same frozen digests apply.
SIZES = {
    "full": {
        "fusion_pairs": (
            ((2, 2), (2, 1)),
            ((1, 1), (3, 3)),
            ((1, 1, 1), (1, 0, 1)),
        ),
        "count_sl5_max": 2,
        "points_sl4_max": 3,
        "dominant_sl4_max": 2,
        "poset_sl4_max": 4,
        "weyl_sl5_max": 3,
        "case_tags": ("rectangular", "pieri-row", "pieri-column", "large"),
    },
    "tiny": {
        "fusion_pairs": (((2, 2), (2, 1)),),
        "count_sl5_max": 1,
        "points_sl4_max": 1,
        "dominant_sl4_max": 1,
        "poset_sl4_max": 1,
        "weyl_sl5_max": 1,
        "case_tags": ("pieri-column",),
    },
}


class Op(NamedTuple):
    """One checked operation.  `run` returns (check passed, canonical output)."""

    key: str
    run: Callable[[], tuple[bool, str]]


def build_ops(lib, workload: str, seed: int, size: str = "full") -> list[Op]:
    """The operation list of `workload`, in the order drawn from `seed`.
    `lib` holds the slnfusion layer modules as attributes."""
    rng = random.Random(f"{workload}:{seed}")
    limits = SIZES[size]
    if workload == "fusion":
        ops = _fusion_ops(lib, rng, limits)
    elif workload == "polytope":
        ops = _polytope_ops(lib, limits)
    elif workload == "posets":
        ops = _posets_ops(lib, limits)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def _grid(lib, n: int, coord_max: int):
    return [
        lib.typea.Weight(n, coords)
        for coords in itertools.product(range(coord_max + 1), repeat=n - 1)
    ]


def _pairs(grid):
    return [(grid[a], grid[b]) for a in range(len(grid)) for b in range(a + 1)]


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def _rational_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """Two distinct non-integer rationals with small numerators and
    denominators, so the cost of the rational path varies little by seed."""
    while True:
        c1, c2 = (
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(2, 3))
            for _ in range(2)
        )
        if c1 != c2 and c1.denominator > 1 and c2.denominator > 1:
            return c1, c2


def _fusion_ops(lib, rng, limits) -> list[Op]:
    first_result: dict = {}
    ops = []
    for a, b in limits["fusion_pairs"]:
        lam1 = lib.typea.Weight(len(a) + 1, a)
        lam2 = lib.typea.Weight(len(b) + 1, b)
        key = f"fusion {lam1.n} {a}x{b}"
        for c1, c2 in ((Fraction(0), Fraction(1)), _rational_pair(rng)):
            ops.append(Op(key, _fusion_op(lib, lam1, lam2, c1, c2, first_result)))
    return ops


def _fusion_op(lib, lam1, lam2, c1, c2, first_result):
    def run():
        fusion = lib.fusion
        graded = fusion.fusion_graded(
            fusion.build_irrep(lam1), c1, fusion.build_irrep(lam2), c2
        )
        ok = graded.ungraded() == lib.tensor.lr_coefficients(lam1, lam2)
        # the graded result must not depend on the evaluation points
        ok = ok and graded == first_result.setdefault((lam1, lam2), graded)
        entries = sorted((s, tau.coords, m) for (s, tau), m in graded.entries.items())
        return ok, repr(entries)

    return run


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------


def _polytope_ops(lib, limits) -> list[Op]:
    ops = []
    for lam in _grid(lib, 5, limits["count_sl5_max"]):
        ops.append(Op(f"count {lam.n} {lam.coords}", _count_op(lib, lam)))
    for lam in _grid(lib, 4, limits["points_sl4_max"]):
        ops.append(Op(f"points {lam.n} {lam.coords}", _points_op(lib, lam)))
    for lam1, lam2 in _pairs(_grid(lib, 4, limits["dominant_sl4_max"])):
        ops.append(
            Op(
                f"dominant {lam1.n} {lam1.coords}x{lam2.coords}",
                _dominant_op(lib, lam1, lam2),
            )
        )
    return ops


def _count_op(lib, lam):
    """Count only: |S(lam)| = dim V(lam)."""

    def run():
        count = len(lib.dyck.lattice_points(lib.dyck.bounds_from_weight(lam)))
        return count == lib.typea.weyl_dim(lam), str(count)

    return run


def _points_op(lib, lam):
    """The full point set, in the enumerator's (degree, exponents) order."""

    def run():
        points = lib.dyck.lattice_points(lib.dyck.bounds_from_weight(lam))
        return len(points) == lib.typea.weyl_dim(lam), repr([p.exps for p in points])

    return run


def _dominant_op(lib, lam1, lam2):
    """Dominance filter: the kept points bound every lr multiplicity."""

    def run():
        kept = lib.dyck.dominant_points(lam1, lam2)
        counts: dict = {}
        for _, tau in kept:
            counts[tau] = counts.get(tau, 0) + 1
        lr = lib.tensor.lr_coefficients(lam1, lam2)
        ok = all(counts.get(tau, 0) >= m for tau, m in lr.items_sorted())
        return ok, repr([(p.exps, tau.coords) for p, tau in kept])

    return run


# ---------------------------------------------------------------------------
# posets
# ---------------------------------------------------------------------------


def _posets_ops(lib, limits) -> list[Op]:
    ops = []
    for lam in _grid(lib, 4, limits["poset_sl4_max"]):
        ops.append(Op(f"poset {lam.n} {lam.coords}", _poset_op(lib, lam)))
    for lam in _grid(lib, 5, limits["weyl_sl5_max"]):
        ops.append(Op(f"weyl {lam.n} {lam.coords}", _weyl_op(lib, lam)))
    for tag in limits["case_tags"]:
        ops.append(Op(f"case {tag}", _case_op(lib, tag)))
    return ops


def _poset_op(lib, lam):
    """Every cover of the poset is Schur positive (acceptance criterion 9)."""

    def run():
        report = lib.poset.poset_report(lam)
        return all(pos for _, _, pos in report.edges), repr(report.to_json())

    return run


def _weyl_op(lib, lam):
    def run():
        pred = lib.poset.weyl_character_prediction(lam)
        return pred.character.dimension() == pred.dimension, repr(pred.to_json())

    return run


def _case_op(lib, tag):
    def run():
        reports = lib.cases.verify_case(tag)
        return (
            bool(reports) and all(r.equal for r in reports),
            repr([r.to_json() for r in reports]),
        )

    return run
