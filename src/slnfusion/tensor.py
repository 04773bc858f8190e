"""Exact tensor-product decompositions for sl_n.

The workhorse is `lr_coefficients`, computing the multiset of irreducible
constituents of V(lambda1) (x) V(lambda2) by the classical reflection rule:
walk the full weight diagram of one factor, shift by lambda + rho, discard
singular points (repeated epsilon-parts), and fold regular points back into
the dominant chamber with the sign of the sorting permutation.  Everything
stays in integer arithmetic and the final multiplicities are asserted
nonnegative before they are returned.  `schur_positive` compares two such
decompositions of one total weight by multiset containment.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

from .typea import Weight, _check_rank, _diagram_parts, exact_ints, weyl_dim

__all__ = [
    "DecompositionMap",
    "lr_coefficients",
    "schur_positive",
]


def _sorted_items(entries: Mapping[Weight, int]) -> list[tuple[Weight, int]]:
    # Descending lexicographic order on parts refines descending dominance
    # for weights of equal parts-total, so this is the canonical report order.
    return sorted(entries.items(), key=lambda kv: kv[0].to_parts(), reverse=True)


class DecompositionMap:
    """Decomposition of a genuine module: dominant weights with positive
    integer multiplicities (zero entries dropped)."""

    def __init__(self, n: int, entries: Mapping[Weight, int]):
        _check_rank(n)
        self.n = n
        checked: dict[Weight, int] = {}
        for w, m in zip(entries, exact_ints(entries.values(), "multiplicities")):
            if not isinstance(w, Weight) or w.n != self.n:
                raise ValueError(f"entry {w} does not belong to sl_{self.n}")
            if not w.is_dominant:
                raise ValueError(f"entry {w} is not dominant")
            if m == 0:
                continue
            if m < 0:
                raise ValueError(f"negative multiplicity {m} at {w}")
            checked[w] = m
        self._entries = {w: m for w, m in _sorted_items(checked)}

    @property
    def entries(self) -> dict[Weight, int]:
        return dict(self._entries)

    def items_sorted(self) -> list[tuple[Weight, int]]:
        return list(self._entries.items())

    def __getitem__(self, w: Weight) -> int:
        return self._entries.get(w, 0)

    def __contains__(self, w: Weight) -> bool:
        return w in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DecompositionMap)
            and self.n == other.n
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{w}:{m}" for w, m in self._entries.items())
        return f"{type(self).__name__}(n={self.n}, {{{body}}})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"tau": w.to_json(), "mult": m} for w, m in self._entries.items()],
        }

    def dimension(self) -> int:
        return sum(m * weyl_dim(w) for w, m in self._entries.items())


def _sort_sign(parts: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    # Sign of the permutation sorting distinct values into decreasing order.
    seq = list(parts)
    inversions = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] < seq[b]:
                inversions += 1
    return (-1) ** inversions, tuple(sorted(seq, reverse=True))


def _klimyk(lambda1: Weight, lambda2: Weight) -> dict[Weight, int]:
    """Reflection-rule decomposition walking the diagram of the second factor."""
    n = lambda1.n
    rho = Weight.rho(n)
    shift = (lambda1 + rho).to_parts()
    # Keyed by the sorted shifted parts; all share one total, so the key
    # determines the constituent.
    acc: dict[tuple[int, ...], int] = {}
    for nu, mult in _diagram_parts(n, lambda2.to_parts()):
        parts = tuple(s + t for s, t in zip(shift, nu))
        if len(set(parts)) < n:
            continue  # singular: lies on a chamber wall, contributes nothing
        sign, sorted_parts = _sort_sign(parts)
        acc[sorted_parts] = acc.get(sorted_parts, 0) + sign * mult
    out: dict[Weight, int] = {}
    for sorted_parts, mult in acc.items():
        if mult == 0:
            continue
        tau = Weight.from_parts(n, sorted_parts) - rho
        if mult < 0 or not tau.is_dominant:
            raise AssertionError("reflection rule produced an invalid constituent")
        out[tau] = mult
    return out


@lru_cache(maxsize=None)
def _lr_cached(lambda1: Weight, lambda2: Weight) -> DecompositionMap:
    # Walk the diagram of the factor with the smaller module dimension.
    if weyl_dim(lambda2) > weyl_dim(lambda1):
        lambda1, lambda2 = lambda2, lambda1
    return DecompositionMap(lambda1.n, _klimyk(lambda1, lambda2))


def lr_coefficients(lambda1: Weight, lambda2: Weight) -> DecompositionMap:
    """Multiplicities of every irreducible constituent of
    V(lambda1) (x) V(lambda2), as a DecompositionMap."""
    lambda1._check_same_rank(lambda2)
    for w in (lambda1, lambda2):
        if not w.is_dominant:
            raise ValueError(f"tensor factors must be dominant, got {w}")
    return _lr_cached(lambda1, lambda2)


def schur_positive(
    pair_high: tuple[Weight, Weight], pair_low: tuple[Weight, Weight]
) -> bool:
    """Whether lr(pair_low) is contained in lr(pair_high) as a multiset:
    every constituent of V(l1) (x) V(l2) occurs in V(h1) (x) V(h2) at least
    as often.  The two pairs must have the same total weight.

    This is exactly "lr(pair_high) - lr(pair_low) has no negative entry":
    at a key found only in lr(pair_high) the difference is that map's
    multiplicity, which is positive, so a negative difference can only sit
    at a key w of lr(pair_low), where it is lr(pair_high)[w] -
    lr(pair_low)[w]."""
    h1, h2 = pair_high
    l1, l2 = pair_low
    if h1 + h2 != l1 + l2:
        raise ValueError(
            f"pairs must share the same total weight, got {h1 + h2} vs {l1 + l2}"
        )
    high = lr_coefficients(h1, h2)
    return all(high[w] >= m for w, m in lr_coefficients(l1, l2)._entries.items())
