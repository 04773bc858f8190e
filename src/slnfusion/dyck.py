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
at a fixed index per rank into a head and a tail, and one depth-first search
in root order, `_walk`, runs over each part.  Each head is followed by its
table of tails, and a tail table depends only on the least remaining slack
of each group of inequalities with one support on the tail, so one dict per
call computes each table once (see `lattice_points`).  The tuples come out
in lexicographic order, and one stable sort by degree gives the (degree,
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
    _dominant,
    _expect,
    _new_object,
    _weight,
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
    """A successor-rule sequence of positive roots, stored as a tuple;
    TypeError for a step that is not a Root."""

    steps: tuple[Root, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        _expect(Root, *steps)
        if not steps:
            raise ValueError("a path needs at least one step")
        object.__setattr__(self, "steps", steps)
        n = steps[0].n
        for a, b in zip(steps, steps[1:]):
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
        values = exact_ints(self.values, "bounds", 0)
        expected = self.n * (self.n - 1) // 2
        if len(values) != expected:
            raise ValueError(
                f"bound vector for sl_{self.n} needs {expected} entries, got {len(values)}"
            )
        object.__setattr__(self, "values", values)

    def leq(self, other: "BoundVector") -> bool:
        _expect(BoundVector, other)
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
    n = _dominant(lambda1, lambda2)
    return BoundVector(n, tuple(map(min, _root_pairings(lambda1), _root_pairings(lambda2))))


def bounds_from_weight(weight: Weight) -> BoundVector:
    """a_alpha = weight(h_alpha) for a single dominant weight."""
    return BoundVector(_dominant(weight), _root_pairings(weight))


@dataclass(frozen=True, slots=True)
class LatticePoint:
    """Exponent vector s = (s_alpha), one nonnegative entry per positive root."""

    n: int
    exps: tuple[int, ...]

    def __post_init__(self):
        _check_rank(self.n)
        exps = exact_ints(self.exps, "exponents", 0)
        expected = self.n * (self.n - 1) // 2
        if len(exps) != expected:
            raise ValueError(
                f"lattice point for sl_{self.n} needs {expected} exponents, got {len(exps)}"
            )
        object.__setattr__(self, "exps", exps)

    @classmethod
    def from_sparse(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "LatticePoint":
        _check_rank(n)
        exps = [0] * (n * (n - 1) // 2)
        for i, j, s in triples:
            (s,) = exact_ints((s,), "exponents", 0)
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


def _walk(touching, slack: list[int], acc: list[int], emit, k: int = 0) -> None:
    """Depth-first search in lexicographic order over the vectors x >= 0,
    written into `acc`, whose sum over each inequality's support is at most
    that inequality's slack.  `touching[k]` lists the inequalities whose
    support holds coordinate k.  Coordinate k takes each value from 0 to the
    least slack in `touching[k]` and lowers those slacks for the deeper
    coordinates; `emit()` runs at each complete vector, with `slack` lowered
    by all of it.  Every slack is restored on return."""
    ids = touching[k]
    ub = min(map(slack.__getitem__, ids))
    last = k == len(touching) - 1
    for v in range(ub + 1):
        acc[k] = v
        if last:
            emit()
        else:
            _walk(touching, slack, acc, emit, k + 1)
        for s in ids:
            slack[s] -= 1
    for s in ids:
        slack[s] += ub + 1


@lru_cache(maxsize=None)
def _search_index(n: int) -> tuple:
    """The index `lattice_points` searches sl_n (n >= 3) with, built once per
    rank.  The coordinates split at m = num // 2 + 1, num = n(n-1)/2, into a
    head 0..m-1 and a tail m..num-1, both nonempty since num >= 3.  It
    returns
    - the base position of each inequality of `inequalities(n)`;
    - for each head coordinate, the inequalities that touch it;
    - the groups: the inequalities with one nonempty support on the tail, a
      group per support;
    - for each tail coordinate, the groups that touch it.
    The head and tail lists are the `touching` of a `_walk`; neither has an
    empty entry, since alpha_{i,j} lies on the path alpha_i -> ... ->
    alpha_{i,j} -> ... -> alpha_j."""
    # (coordinate positions, base position) per inequality
    system = [
        (frozenset(map(positive_root_index, p.steps)), positive_root_index(p.base))
        for p in inequalities(n)
    ]
    num = n * (n - 1) // 2
    split = num // 2 + 1
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
    return (
        tuple(base for _, base in system),
        head_touching,
        tuple(map(tuple, members.values())),
        tail_touching,
    )


def lattice_points(bounds: BoundVector) -> list[LatticePoint]:
    """All integer points of the polytope cut out by `bounds`, sorted by
    (degree, exponents).

    sl_2 has one coordinate and one inequality x <= a, so its points are
    0..a.  For n >= 3 the coordinates split into a head and a tail (see
    `_search_index`).  A `_walk` over the head keeps the remaining slack of
    each inequality, and at each head appends the head followed by each
    point of its tail table.

    The tail table of a head is the list of the tail vectors t that complete
    it to a point of the polytope: those whose sum over each inequality's
    support on the tail is at most that inequality's slack after the head.
    Inequalities with the same support on the tail bound the same sum of t,
    so only the least of their slacks matters; those with an empty support
    there ask only 0 <= slack, which the head walk keeps.  So the table
    depends only on the key, the tuple of least slacks per group, and one
    dict per call holds each table, computed once per key by a `_walk` over
    the tail, on the groups and their least slacks.  Both walks run in
    lexicographic order, so the exponent tuples do too, and one stable sort
    by degree gives the (degree, exponents) order.

    The tuples are wrapped as `LatticePoint`s by `_wrap_points`, which skips
    `LatticePoint.__post_init__`: each one already is what that check would
    store.  The rank is `bounds.n`, which `BoundVector` has checked.  Each
    tuple is built by concatenating tuples, one entry per coordinate, so its
    length is n(n-1)/2.  Every entry is an int drawn from a `range(ub + 1)`
    with ub >= 0: the bounds are nonnegative, and a walk only takes a value
    up to the least slack of the inequalities (or groups) it touches, so
    every slack is nonnegative whenever it goes one coordinate deeper."""
    _expect(BoundVector, bounds)
    n = bounds.n
    if n == 2:
        out = [(v,) for v in range(bounds.values[0] + 1)]
    else:
        bases, head_touching, groups, tail_touching = _search_index(n)
        slack = [bounds.values[base] for base in bases]
        acc = [0] * len(head_touching)
        tail_acc = [0] * len(tail_touching)
        tables: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        out = []

        def emit_head() -> None:
            key = tuple([min(map(slack.__getitem__, g)) for g in groups])
            table = tables.get(key)
            if table is None:
                table = tables[key] = []
                _walk(tail_touching, list(key), tail_acc, lambda: table.append(tuple(tail_acc)))
            head = tuple(acc)
            out.extend([head + t for t in table])

        _walk(head_touching, slack, acc, emit_head)
    out.sort(key=sum)
    _wrap_points(n, out)
    return out


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
    bounds = bounds_from_pair(lambda1, lambda2)
    n = bounds.n
    cols = tuple(zip((lambda1 + lambda2).coords, _root_weight_columns(n)))
    out = []
    for pt in lattice_points(bounds):
        exps = pt.exps
        tau = [t - sum(map(mul, exps, col)) for t, col in cols]
        if min(tau) >= 0:
            out.append((pt, _weight(n, tuple(tau))))
    return out
