"""Dyck paths in the positive roots of sl_n and their lattice polytopes.

A path is a nonempty sequence of positive roots where alpha_{i,j} is followed
by alpha_{i+1,j} or alpha_{i,j+1}; its base root combines the first row index
with the last column index.  A bound vector a = (a_alpha) cuts out the
polytope { x >= 0 : sum_{alpha in p} x_alpha <= a_{base(p)} for every path p },
and the integer points of that polytope are the objects everything downstream
counts.  Enumeration runs on `inequalities`, the paths from a simple root to
a simple root (every other path lies inside one of them with the same base,
so its inequality is implied); `point_satisfies` checks the full system of
`dyck_paths`.

The enumerator works on plain exponent tuples: a depth-first search in root
order emits them in lexicographic order, one stable sort by degree gives the
(degree, exponents) order, and only then is each tuple turned into a
`LatticePoint` through its validating constructor.  Weights of points are
summed in integers from the cached fundamental-weight coordinates of the
positive roots, and a `Weight` is built once per result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable

from .typea import (
    Root,
    Weight,
    _check_rank,
    exact_ints,
    pairing,
    positive_root_index,
    positive_roots,
    root_as_weight,
)

__all__ = [
    "DyckPath",
    "BoundVector",
    "LatticePoint",
    "dyck_paths",
    "inequalities",
    "bounds_from_pair",
    "bounds_from_weight",
    "lattice_points",
    "point_satisfies",
    "dominant_points",
]


@dataclass(frozen=True)
class DyckPath:
    """A successor-rule sequence of positive roots."""

    steps: tuple[Root, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a path needs at least one step")
        n = self.steps[0].n
        for a, b in zip(self.steps, self.steps[1:]):
            if b.n != n:
                raise ValueError("path steps must share one rank")
            if not ((b.i, b.j) == (a.i + 1, a.j) or (b.i, b.j) == (a.i, a.j + 1)):
                raise ValueError(
                    f"illegal step {a} -> {b}: only (i+1,j) or (i,j+1) may follow (i,j)"
                )

    @property
    def n(self) -> int:
        return self.steps[0].n

    @property
    def base(self) -> Root:
        """Root spanning the whole path: first row index, last column index."""
        return Root(self.n, self.steps[0].i, self.steps[-1].j)

    def __len__(self) -> int:
        return len(self.steps)


@lru_cache(maxsize=None)
def dyck_paths(n: int) -> tuple[DyckPath, ...]:
    """Every path in the positive roots of sl_n, in depth-first order from
    each starting root."""
    out: list[DyckPath] = []

    def extend(steps: list[Root]) -> None:
        out.append(DyckPath(tuple(steps)))
        i, j = steps[-1].i, steps[-1].j
        if i + 1 <= j:
            steps.append(Root(n, i + 1, j))
            extend(steps)
            steps.pop()
        if j + 1 <= n - 1:
            steps.append(Root(n, i, j + 1))
            extend(steps)
            steps.pop()

    for start in positive_roots(n):
        extend([start])
    return tuple(out)


@lru_cache(maxsize=None)
def inequalities(n: int) -> tuple[DyckPath, ...]:
    """The inequality system of sl_n: the Dyck paths from a simple root
    alpha_i to a simple root alpha_j, in `dyck_paths` order.

    These are exactly the paths whose support lies strictly inside no other
    path's support with the same base, so they cut out the same polytope as
    the full system for every bound vector (x >= 0, so a larger support gives
    the stronger inequality).  A path with base (i, j) starts at some
    alpha_{i,b} and ends at some alpha_{a,j}; prepending alpha_{i,i}, ...,
    alpha_{i,b-1} and appending alpha_{a+1,j}, ..., alpha_{j,j} gives a path
    from alpha_i to alpha_j with the same base and a strictly larger support,
    unless the path already ran from simple root to simple root.  Every path
    from alpha_i to alpha_j has j - i row steps and j - i column steps, so
    2(j - i) + 1 roots, and no path with base (i, j) has more; so none of
    them lies strictly inside another."""
    return tuple(
        p for p in dyck_paths(n) if p.steps[0].is_simple and p.steps[-1].is_simple
    )


@dataclass(frozen=True)
class BoundVector:
    """Nonnegative bound a_alpha for every positive root, stored in root order."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        _check_rank(self.n)
        values = exact_ints(self.values, "bounds")
        expected = self.n * (self.n - 1) // 2
        if len(values) != expected:
            raise ValueError(
                f"bound vector for sl_{self.n} needs {expected} entries, got {len(values)}"
            )
        if any(v < 0 for v in values):
            raise ValueError("bounds must be nonnegative")
        object.__setattr__(self, "values", values)

    def leq(self, other: "BoundVector") -> bool:
        if self.n != other.n:
            raise ValueError(f"rank mismatch: sl_{self.n} vs sl_{other.n}")
        return all(a <= b for a, b in zip(self.values, other.values))


def bounds_from_pair(lambda1: Weight, lambda2: Weight) -> BoundVector:
    """a_alpha = min(lambda1(h_alpha), lambda2(h_alpha))."""
    lambda1._check_same_rank(lambda2)
    for w in (lambda1, lambda2):
        if not w.is_dominant:
            raise ValueError(f"bounds_from_pair requires dominant weights, got {w}")
    vals = tuple(
        min(pairing(lambda1, r), pairing(lambda2, r)) for r in positive_roots(lambda1.n)
    )
    return BoundVector(lambda1.n, vals)


def bounds_from_weight(weight: Weight) -> BoundVector:
    """a_alpha = weight(h_alpha) for a single dominant weight."""
    if not weight.is_dominant:
        raise ValueError(f"bounds_from_weight requires a dominant weight, got {weight}")
    return BoundVector(weight.n, tuple(pairing(weight, r) for r in positive_roots(weight.n)))


@dataclass(frozen=True)
class LatticePoint:
    """Exponent vector s = (s_alpha), one nonnegative entry per positive root."""

    n: int
    exps: tuple[int, ...]

    def __post_init__(self):
        _check_rank(self.n)
        exps = exact_ints(self.exps, "exponents")
        expected = self.n * (self.n - 1) // 2
        if len(exps) != expected:
            raise ValueError(
                f"lattice point for sl_{self.n} needs {expected} exponents, got {len(exps)}"
            )
        if exps and min(exps) < 0:
            raise ValueError("exponents must be nonnegative")
        object.__setattr__(self, "exps", exps)

    @classmethod
    def from_sparse(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "LatticePoint":
        _check_rank(n)
        exps = [0] * (n * (n - 1) // 2)
        for i, j, s in triples:
            exps[positive_root_index(Root(n, i, j))] += s
        return cls(n, tuple(exps))

    @property
    def deg(self) -> int:
        """Total exponent sum."""
        return sum(self.exps)

    @property
    def wt(self) -> Weight:
        """sum s_alpha * alpha, as a Weight."""
        return Weight(
            self.n, [sum(map(mul, self.exps, col)) for col in _root_weight_columns(self.n)]
        )

    def to_json(self) -> dict:
        trips = [
            [r.i, r.j, s]
            for r, s in zip(positive_roots(self.n), self.exps)
            if s
        ]
        return {"exps": trips}


@lru_cache(maxsize=None)
def _root_weight_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """Fundamental-weight coordinates of the positive roots of sl_n, one
    tuple per coordinate holding that coordinate of every root in root
    order, so a weight sum s_alpha * alpha is one dot product per column."""
    return tuple(zip(*(root_as_weight(r).coords for r in positive_roots(n))))


@lru_cache(maxsize=None)
def _compiled_system(paths: tuple[DyckPath, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    # (coordinate positions, base position) per path
    return tuple(
        (tuple(positive_root_index(r) for r in p.steps), positive_root_index(p.base))
        for p in paths
    )


def lattice_points(bounds: BoundVector) -> list[LatticePoint]:
    """All integer points of the polytope cut out by `bounds`, sorted by
    (degree, exponents).

    A depth-first search in root order keeps the remaining slack of each
    inequality and bounds each coordinate by the least slack among the
    inequalities that touch it; at the last coordinate it emits the whole
    range at once.  The exponent tuples come out in lexicographic order, so
    one stable sort by degree gives the (degree, exponents) order.  Every
    tuple then becomes a `LatticePoint` through the validating constructor,
    in place, so no second list of the same length is built."""
    n = bounds.n
    num = len(bounds.values)
    last = num - 1
    system = _compiled_system(inequalities(n))
    slack = [bounds.values[base] for _, base in system]
    touching: list[list[int]] = [[] for _ in range(num)]
    for s, (idxs, _) in enumerate(system):
        for k in idxs:
            touching[k].append(s)
    acc = [0] * num
    out: list = []

    def rec(k: int) -> None:
        ids = touching[k]
        ub = min(map(slack.__getitem__, ids))
        if k == last:
            head = tuple(acc[:last])
            out.extend([head + (v,) for v in range(ub + 1)])
            return
        for v in range(ub + 1):
            acc[k] = v
            rec(k + 1)
            for s in ids:
                slack[s] -= 1
        for s in ids:
            slack[s] += ub + 1

    rec(0)
    out.sort(key=sum)
    for i, exps in enumerate(out):
        out[i] = LatticePoint(n, exps)
    return out


def point_satisfies(point: LatticePoint, bounds: BoundVector) -> bool:
    """Membership test against the full system, one inequality per path of
    `dyck_paths`: the reference that `lattice_points` is checked against."""
    if point.n != bounds.n:
        raise ValueError(f"rank mismatch: sl_{point.n} vs sl_{bounds.n}")
    for idxs, base in _compiled_system(dyck_paths(point.n)):
        if sum(point.exps[k] for k in idxs) > bounds.values[base]:
            return False
    return True


def dominant_points(
    lambda1: Weight, lambda2: Weight
) -> list[tuple[LatticePoint, Weight]]:
    """Lattice points s of the pair polytope whose shifted weight
    lambda1 + lambda2 - wt(s) is dominant, each with that weight.  These are
    the candidates bounding the highest-weight points from above."""
    total = lambda1 + lambda2
    n = total.n
    cols = tuple(zip(total.coords, _root_weight_columns(n)))
    out = []
    for pt in lattice_points(bounds_from_pair(lambda1, lambda2)):
        exps = pt.exps
        tau = [t - sum(map(mul, exps, col)) for t, col in cols]
        if min(tau) >= 0:
            out.append((pt, Weight(n, tau)))
    return out
