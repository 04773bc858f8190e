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
order emits them in lexicographic order, the last two coordinates in one
block per search leaf, and one stable sort by degree gives the (degree,
exponents) order.  Only then is each tuple wrapped as a `LatticePoint`,
without running the constructor's checks again: every tuple is valid by
construction (see `lattice_points`).  Weights of points are summed in
integers from the cached fundamental-weight coordinates of the positive
roots, and a `Weight` is built once per result.
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


@dataclass(frozen=True, slots=True)
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


@lru_cache(maxsize=None)
def _search_index(
    n: int,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """The index `lattice_points` searches sl_n with, built once per rank:
    the base position of each inequality of `inequalities(n)`; for each
    coordinate, the inequalities that touch it; and the inequalities of the
    last coordinate split into those that also touch the one before it and
    those that touch only the last (both empty for sl_2, which has one
    coordinate; for n >= 3 neither is, by the paths alpha_{n-2} ->
    alpha_{n-2,n-1} -> alpha_{n-1} and alpha_{n-1} alone)."""
    system = _compiled_system(inequalities(n))
    num = n * (n - 1) // 2
    touching = tuple(
        tuple(s for s, (idxs, _) in enumerate(system) if k in idxs) for k in range(num)
    )
    both = only = ()
    if num > 1:
        both = tuple(s for s in touching[-1] if s in touching[-2])
        only = tuple(s for s in touching[-1] if s not in touching[-2])
    return tuple(base for _, base in system), touching, both, only


def lattice_points(bounds: BoundVector) -> list[LatticePoint]:
    """All integer points of the polytope cut out by `bounds`, sorted by
    (degree, exponents).

    A depth-first search in root order keeps the remaining slack of each
    inequality and bounds each coordinate by the least slack among the
    inequalities that touch it.  At the second-to-last coordinate it emits
    the last two coordinates as one block: for value v there, the last
    coordinate runs over 0..min(A - v, B), where A is the least slack among
    the inequalities touching both coordinates and B the least among those
    touching only the last.  sl_2 has one coordinate and one inequality
    x <= a, so its points are 0..a.  The exponent tuples come out in
    lexicographic order, so one stable sort by degree gives the (degree,
    exponents) order.

    The tuples are wrapped as `LatticePoint`s by `_wrap_points`, which skips
    `LatticePoint.__post_init__`: each one already is what that check would
    store.  The rank is `bounds.n`, which `BoundVector` has checked.  Each
    tuple is built by concatenating tuples, one entry per coordinate, so its
    length is n(n-1)/2.  Every entry is an int drawn from a `range(ub + 1)`
    with ub >= 0: the bounds are nonnegative, the search only takes a value
    up to the least slack of the inequalities it touches, so every slack is
    nonnegative whenever it goes one coordinate deeper; and A >= v, since A
    is among the slacks that bound v."""
    n = bounds.n
    bases, touching, both, only = _search_index(n)
    slack = [bounds.values[base] for base in bases]
    if len(touching) == 1:
        out = [(v,) for v in range(slack[0] + 1)]
    else:
        leaf = len(touching) - 2
        acc = [0] * leaf
        out = []

        def rec(k: int) -> None:
            ids = touching[k]
            ub = min(map(slack.__getitem__, ids))
            if k == leaf:
                head = tuple(acc)
                a = min(map(slack.__getitem__, both))
                b = min(map(slack.__getitem__, only))
                for v in range(ub + 1):
                    hv = head + (v,)
                    out.extend([hv + (w,) for w in range(min(a - v, b) + 1)])
                return
            for v in range(ub + 1):
                acc[k] = v
                rec(k + 1)
                for s in ids:
                    slack[s] -= 1
            for s in ids:
                slack[s] += ub + 1

        rec(0)
        # rec holds itself through its closure; dropping it here breaks that
        # cycle, so the points are freed as soon as the caller lets go of them
        del rec
    out.sort(key=sum)
    _wrap_points(n, out)
    return out


_new_object = object.__new__
_set_n = LatticePoint.n.__set__
_set_exps = LatticePoint.exps.__set__


def _wrap_points(n: int, out: list) -> None:
    """Replace each exponent tuple of `out` by the `LatticePoint` (n, exps),
    in place, writing its two slots directly.  Only for tuples that are
    valid by construction, as `lattice_points` proves of its own."""
    for i, exps in enumerate(out):
        point = _new_object(LatticePoint)
        _set_n(point, n)
        _set_exps(point, exps)
        out[i] = point


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
