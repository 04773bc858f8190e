"""The poset of two-part splittings of a dominant weight.

Elements are unordered pairs (mu1, mu2) of dominant weights with
mu1 + mu2 = lam, compared entrywise through their min-vectors: the tuple
min(mu1(h_a), mu2(h_a)) over all positive roots a.  The pair (lam, 0) is the
minimum; an explicit halving formula produces the maximum.  On each cover,
`schur_positive` tests whether the Littlewood-Richardson product of the
lower pair is contained in that of the higher one (Schur-positivity
evidence), and the Littlewood-Richardson expansion at the maximal pair
doubles as a character prediction for the local Weyl module of the current
algebra truncated at t^2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .cases import proven_regime
from .dyck import BoundVector, bounds_from_pair
from .tensor import DecompositionMap, lr_coefficients, schur_positive
from .typea import Weight, weyl_dim

__all__ = [
    "WeightPair",
    "enumerate_pairs",
    "order_leq",
    "maximal_pair",
    "WeylModulePrediction",
    "weyl_character_prediction",
    "PosetReport",
    "poset_report",
]


@dataclass(frozen=True)
class WeightPair:
    """Unordered pair of dominant weights; the representative with the
    lexicographically larger parts vector is stored first."""

    first: Weight
    second: Weight

    def __post_init__(self):
        if self.first.n != self.second.n:
            raise ValueError(
                f"rank mismatch: sl_{self.first.n} vs sl_{self.second.n}"
            )
        for w in (self.first, self.second):
            if not w.is_dominant:
                raise ValueError(f"pair components must be dominant, got {w}")
        if self.second.to_parts() > self.first.to_parts():
            a, b = self.second, self.first
            object.__setattr__(self, "first", a)
            object.__setattr__(self, "second", b)

    @property
    def n(self) -> int:
        return self.first.n

    # Computed once per pair and kept in the instance __dict__; eq, hash and
    # to_json read only the two fields.
    @cached_property
    def total(self) -> Weight:
        return self.first + self.second

    @cached_property
    def min_vector(self) -> BoundVector:
        """Pairwise minimum of coroot pairings over all positive roots."""
        return bounds_from_pair(self.first, self.second)

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"

    def to_json(self) -> dict:
        return {"first": self.first.to_json(), "second": self.second.to_json()}


def enumerate_pairs(lam: Weight) -> list[WeightPair]:
    """All unordered dominant pairs summing to lam, largest first component
    first."""
    if not lam.is_dominant:
        raise ValueError(f"expected a dominant weight, got {lam}")
    seen: set[WeightPair] = set()
    for coords in itertools.product(*(range(m + 1) for m in lam.coords)):
        mu = Weight(lam.n, coords)
        seen.add(WeightPair(mu, lam - mu))
    return sorted(
        seen,
        key=lambda p: ([-x for x in p.first.to_parts()], [-x for x in p.second.to_parts()]),
    )


def order_leq(pair_a: WeightPair, pair_b: WeightPair) -> bool:
    """Entrywise min-vector comparison; only defined within one poset."""
    if pair_a.total != pair_b.total:
        raise ValueError(
            f"pairs decompose different weights: {pair_a.total} vs {pair_b.total}"
        )
    return pair_a.min_vector.leq(pair_b.min_vector)


def maximal_pair(lam: Weight) -> WeightPair:
    """The unique maximal pair: coordinates are halved, with odd coordinates
    rounded down/up alternately along the odd positions."""
    if not lam.is_dominant:
        raise ValueError(f"expected a dominant weight, got {lam}")
    half = []
    odd_seen = 0
    for m in lam.coords:
        if m % 2 == 0:
            half.append(m // 2)
        else:
            odd_seen += 1
            # j-th odd coordinate gets (m + (-1)^j) / 2
            half.append((m + (-1) ** odd_seen) // 2)
    mu = Weight(lam.n, half)
    return WeightPair(mu, lam - mu)


@dataclass(frozen=True)
class WeylModulePrediction:
    """Predicted character of the t^2-truncated local Weyl module at lam:
    the Littlewood-Richardson expansion at the maximal pair.  Exact in the
    proven regimes; conjectural otherwise."""

    lam: Weight
    max_pair: WeightPair
    character: DecompositionMap
    dimension: int
    proven_regime: str | None

    @property
    def conjectural(self) -> bool:
        return self.proven_regime is None

    def to_json(self) -> dict:
        return {
            "n": self.lam.n,
            "lambda": self.lam.to_json(),
            "max_pair": self.max_pair.to_json(),
            "terms": self.character.to_json()["terms"],
            "dim": self.dimension,
            "proven_regime": self.proven_regime,
            "conjectural": self.conjectural,
        }


def weyl_character_prediction(lam: Weight) -> WeylModulePrediction:
    """Character prediction for the truncated local Weyl module at lam."""
    pair = maximal_pair(lam)
    character = lr_coefficients(pair.first, pair.second)
    dim = weyl_dim(pair.first) * weyl_dim(pair.second)
    if character.dimension() != dim:
        raise AssertionError(
            f"character at ({pair.first}, {pair.second}) has dimension "
            f"{character.dimension()}, expected {dim}"
        )
    return WeylModulePrediction(
        lam=lam,
        max_pair=pair,
        character=character,
        dimension=dim,
        proven_regime=proven_regime(pair.first, pair.second),
    )


@dataclass(frozen=True)
class PosetReport:
    """Nodes, transitively reduced order edges (with a Schur-positivity flag
    on each), and the extremal elements of one poset.  `leq` is the order
    matrix the report was built from; it is derived from the nodes, so it is
    neither compared nor serialized."""

    lam: Weight
    nodes: tuple[WeightPair, ...]
    edges: tuple[tuple[int, int, bool], ...]  # (low index, high index, schur_positive)
    min_pair: WeightPair
    max_pair: WeightPair
    leq: tuple[tuple[bool, ...], ...] = field(compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "n": self.lam.n,
            "lambda": self.lam.to_json(),
            "nodes": [p.to_json() for p in self.nodes],
            "edges": [
                {"from": a, "to": b, "schur_positive": pos}
                for a, b, pos in self.edges
            ],
            "min_pair": self.min_pair.to_json(),
            "max_pair": self.max_pair.to_json(),
        }


def poset_report(lam: Weight) -> PosetReport:
    """Full poset snapshot: cover edges only (transitive reduction), each
    cover labeled with its `schur_positive` verdict.

    `order_leq` runs once per ordered pair of nodes; the strict order, the
    covers and the extremal-element assertions all read that one matrix."""
    nodes = enumerate_pairs(lam)
    k = len(nodes)
    leq = tuple(tuple(order_leq(a, b) for b in nodes) for a in nodes)
    below = [[leq[a][b] and not leq[b][a] for b in range(k)] for a in range(k)]
    edges = []
    for a in range(k):
        for b in range(k):
            if not below[a][b]:
                continue
            if any(below[a][c] and below[c][b] for c in range(k)):
                continue
            high, low = nodes[b], nodes[a]
            edges.append(
                (a, b, schur_positive((high.first, high.second), (low.first, low.second)))
            )
    min_pair = WeightPair(lam, Weight.zero(lam.n))
    max_pair = maximal_pair(lam)
    low, top = nodes.index(min_pair), nodes.index(max_pair)
    if not all(leq[low]):
        raise AssertionError(f"({lam}, 0) is not the minimum of the poset of {lam}")
    if not all(row[top] for row in leq):
        raise AssertionError(
            f"({max_pair.first}, {max_pair.second}) is not the maximum "
            f"of the poset of {lam}"
        )
    return PosetReport(
        lam=lam,
        nodes=tuple(nodes),
        edges=tuple(edges),
        min_pair=min_pair,
        max_pair=max_pair,
        leq=leq,
    )
