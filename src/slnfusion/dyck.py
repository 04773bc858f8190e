"""Dyck paths in the positive roots of sl_n and their lattice polytopes.

A path is a nonempty sequence of positive roots where alpha_{i,j} is followed
by alpha_{i+1,j} or alpha_{i,j+1}; its base root combines the first row index
with the last column index.  A bound vector a = (a_alpha) cuts out the
polytope { x >= 0 : sum_{alpha in p} x_alpha <= a_{base(p)} for every path p },
and the integer points of that polytope are the objects everything downstream
counts.  Enumeration runs on `inequalities`, the paths from a simple root to
a simple root: every other path lies inside one of them with the same base,
so its inequality is implied.

The enumerator works on plain exponent tuples.  It splits the coordinates
at a fixed index per rank into a head and a tail.  A depth-first search in
root order runs over the head; each head is followed by its table of tails,
and a tail table depends only on the least remaining slack of each group of
inequalities with one support on the tail, so one dict per call computes
each table once (see `lattice_points`).  The tuples come out in
lexicographic order, and one stable sort by degree gives the (degree,
exponents) order.  Only then is each tuple wrapped as a `LatticePoint`,
without running the constructor's checks again: every tuple is valid by
construction.  Weights of points are summed in integers from the cached
fundamental-weight coordinates of the positive roots, and a `Weight` is
built once per result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Iterable

from .typea import (
    Root,
    Weight,
    _check_rank,
    exact_ints,
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


def _root_pairings(weight: Weight) -> tuple[int, ...]:
    """weight(h_alpha) for every positive root, in root order: with prefix
    sums P_k = m_1 + ... + m_k, the pairing with alpha_{i,j} is P_j - P_{i-1}."""
    n = weight.n
    pref = (0, *accumulate(weight.coords))
    return tuple(pref[j] - pref[i - 1] for i in range(1, n) for j in range(i, n))


def bounds_from_pair(lambda1: Weight, lambda2: Weight) -> BoundVector:
    """a_alpha = min(lambda1(h_alpha), lambda2(h_alpha))."""
    lambda1._check_same_rank(lambda2)
    for w in (lambda1, lambda2):
        if not w.is_dominant:
            raise ValueError(f"bounds_from_pair requires dominant weights, got {w}")
    vals = tuple(map(min, _root_pairings(lambda1), _root_pairings(lambda2)))
    return BoundVector(lambda1.n, vals)


def bounds_from_weight(weight: Weight) -> BoundVector:
    """a_alpha = weight(h_alpha) for a single dominant weight."""
    if not weight.is_dominant:
        raise ValueError(f"bounds_from_weight requires a dominant weight, got {weight}")
    return BoundVector(weight.n, _root_pairings(weight))


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
def _search_index(n: int) -> tuple:
    """The index `lattice_points` searches sl_n (n >= 3) with, built once per
    rank.  The coordinates split at m = min(num // 2 + 1, num - 2), num =
    n(n-1)/2, into a head 0..m-1 of at least one coordinate and a tail
    m..num-1 of at least two.  It returns
    - the base position of each inequality of `inequalities(n)`;
    - for each head coordinate, the inequalities that touch it;
    - the groups: the inequalities with one nonempty support on the tail, a
      group per support;
    - for each tail coordinate, the groups that touch it;
    - the groups of the last coordinate split into those that also touch the
      one before it and those that touch only the last (neither is empty, by
      the paths alpha_{n-2} -> alpha_{n-2,n-1} -> alpha_{n-1} and alpha_{n-1}
      alone, whose supports on the tail differ)."""
    # (coordinate positions, base position) per inequality
    system = [
        (frozenset(map(positive_root_index, p.steps)), positive_root_index(p.base))
        for p in inequalities(n)
    ]
    num = n * (n - 1) // 2
    split = min(num // 2 + 1, num - 2)
    head_touching = tuple(
        tuple(s for s, (idxs, _) in enumerate(system) if k in idxs) for k in range(split)
    )
    members: dict[frozenset[int], list[int]] = {}
    for s, (idxs, _) in enumerate(system):
        support = frozenset(k for k in idxs if k >= split)
        if support:
            members.setdefault(support, []).append(s)
    tail_touching = tuple(
        tuple(g for g, support in enumerate(members) if k in support)
        for k in range(split, num)
    )
    both = tuple(g for g in tail_touching[-1] if g in tail_touching[-2])
    only = tuple(g for g in tail_touching[-1] if g not in tail_touching[-2])
    return (
        tuple(base for _, base in system),
        head_touching,
        tuple(map(tuple, members.values())),
        tail_touching,
        both,
        only,
    )


def lattice_points(bounds: BoundVector) -> list[LatticePoint]:
    """All integer points of the polytope cut out by `bounds`, sorted by
    (degree, exponents).

    sl_2 has one coordinate and one inequality x <= a, so its points are
    0..a.  For n >= 3 the coordinates split into a head and a tail (see
    `_search_index`).  A depth-first search in root order runs over the
    head: it keeps the remaining slack of each inequality and bounds each
    coordinate by the least slack among the inequalities that touch it.  At
    each head it appends the head followed by each point of its tail table.

    The tail table of a head is the list of the tail vectors t that complete
    it to a point of the polytope: those whose sum over each inequality's
    support on the tail is at most that inequality's slack after the head.
    Inequalities with the same support on the tail bound the same sum of t,
    so only the least of their slacks matters; those with an empty support
    there ask only 0 <= slack, which the head search keeps.  So the table
    depends only on the key, the tuple of least slacks per group, and one
    dict per call holds each table, computed once per key by the same
    search over the tail, on the groups and their least slacks.  That
    search emits the last two coordinates as one block: for value v at the
    second-to-last, the last runs over 0..min(A - v, B), where A is the
    least slack among the groups touching both coordinates and B the least
    among those touching only the last.  Heads come out in lexicographic
    order and each table in lexicographic order, so the exponent tuples do
    too, and one stable sort by degree gives the (degree, exponents) order.

    The tuples are wrapped as `LatticePoint`s by `_wrap_points`, which skips
    `LatticePoint.__post_init__`: each one already is what that check would
    store.  The rank is `bounds.n`, which `BoundVector` has checked.  Each
    tuple is built by concatenating tuples, one entry per coordinate, so its
    length is n(n-1)/2.  Every entry is an int drawn from a `range(ub + 1)`
    with ub >= 0: the bounds are nonnegative, the search only takes a value
    up to the least slack of the inequalities (or groups) it touches, so
    every slack is nonnegative whenever it goes one coordinate deeper; and
    A >= v, since A is among the slacks that bound v."""
    n = bounds.n
    if n == 2:
        out = [(v,) for v in range(bounds.values[0] + 1)]
    else:
        bases, head_touching, groups, tail_touching, both, only = _search_index(n)
        slack = [bounds.values[base] for base in bases]
        last = len(head_touching) - 1
        leaf = len(tail_touching) - 2
        acc = [0] * (last + 1)
        tail_acc = [0] * leaf
        tables: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        out = []

        def tail(k: int, free: list[int], table: list) -> None:
            ids = tail_touching[k]
            ub = min(map(free.__getitem__, ids))
            if k == leaf:
                prefix = tuple(tail_acc)
                a = min(map(free.__getitem__, both))
                b = min(map(free.__getitem__, only))
                for v in range(ub + 1):
                    hv = prefix + (v,)
                    table.extend([hv + (w,) for w in range(min(a - v, b) + 1)])
                return
            for v in range(ub + 1):
                tail_acc[k] = v
                tail(k + 1, free, table)
                for g in ids:
                    free[g] -= 1
            for g in ids:
                free[g] += ub + 1

        def rec(k: int) -> None:
            ids = head_touching[k]
            ub = min(map(slack.__getitem__, ids))
            for v in range(ub + 1):
                acc[k] = v
                if k == last:
                    key = tuple([min(map(slack.__getitem__, g)) for g in groups])
                    table = tables.get(key)
                    if table is None:
                        table = tables[key] = []
                        tail(0, list(key), table)
                    head = tuple(acc)
                    out.extend([head + t for t in table])
                else:
                    rec(k + 1)
                for s in ids:
                    slack[s] -= 1
            for s in ids:
                slack[s] += ub + 1

        rec(0)
        # rec and tail hold themselves through their closures; dropping them
        # here breaks those cycles, so the points are freed as soon as the
        # caller lets go of them
        del rec, tail
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
