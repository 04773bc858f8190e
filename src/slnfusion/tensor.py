"""Exact tensor-product decompositions for sl_n.

The workhorse is `lr_coefficients`, computing the multiset of irreducible
constituents of V(lambda1) (x) V(lambda2) by the classical reflection rule:
walk the full weight diagram of one factor, shift by lambda + rho, discard
singular points (repeated epsilon-parts), and fold regular points back into
the dominant chamber with the sign of the sorting permutation.  The diagram
is read from `typea`'s cached Weyl orbits (one per dominant weight).  A
shifted point is singular when its parts repeat; a regular point's
inversions are counted only if sorting moves it.  `_lr_cached`, the one LR
cache, holds the fold in plain ints: each constituent's sorted shifted
parts with its positive multiplicity.  It is keyed by the rank and the two
factors' coordinate tuples, larger first, so a pair and its reverse share
one fold; the public callers check the factors before the lookup, so no
failing pair is cached.  `lr_coefficients` builds a fresh DecompositionMap
from the fold on every call, in report order; `schur_positive` compares two
folds of one total by multiset containment and builds no Weight.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations, starmap
from operator import add, lt

from .typea import (
    Weight,
    _check_rank,
    _dominant,
    _dominant_mults_by_parts,
    _orbit_parts,
    _parts,
    _weight,
    _weyl_dim_parts,
    exact_ints,
)

__all__ = [
    "DecompositionMap",
    "lr_coefficients",
    "schur_positive",
]


class DecompositionMap:
    """Decomposition of a genuine module: dominant weights with positive
    integer multiplicities (zero entries dropped)."""

    def __init__(self, n: int, entries: Mapping[Weight, int]):
        _check_rank(n)
        if not isinstance(entries, Mapping):
            raise ValueError(f"entries must be a mapping, got {type(entries).__name__}")
        self.n = n
        checked: dict[Weight, int] = {}
        for w, m in zip(entries, exact_ints(entries.values(), "multiplicities", 0)):
            if not isinstance(w, Weight) or w.n != self.n:
                raise ValueError(f"entry {w} does not belong to sl_{self.n}")
            if not w.is_dominant:
                raise ValueError(f"entry {w} is not dominant")
            if m:
                checked[w] = m
        # Report order: descending lexicographic order on parts, which refines
        # descending dominance for weights of equal parts-total.
        self._entries = dict(
            sorted(checked.items(), key=lambda kv: kv[0].to_parts(), reverse=True)
        )

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

    _dim = None  # set by the first dimension() call; the entries never change

    def dimension(self) -> int:
        if self._dim is None:
            # every entry is dominant, so the cached formula needs no check
            self._dim = sum(
                m * _weyl_dim_parts(w.to_parts()) for w, m in self._entries.items()
            )
        return self._dim


def _klimyk(parts1: tuple[int, ...], parts2: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Reflection-rule decomposition of the dominant weights with these
    parts, walking the diagram of the second: each constituent tau keyed by
    the sorted parts of lambda1 + rho + nu that fold to it (tau + rho,
    shifted by a constant), with its nonzero multiplicity."""
    n = len(parts1)
    shift = [p + n - 1 - k for k, p in enumerate(parts1)]  # lambda1 + rho
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for q, mult in _dominant_mults_by_parts(n, parts2).items():
        for nu in _orbit_parts(q):
            parts = list(map(add, shift, nu))
            if len(set(parts)) < n:
                continue  # on a chamber wall: contributes nothing
            key = sorted(parts, reverse=True)
            # the sign of the sorting permutation: -1 to the inversion count
            sign = mult
            if key != parts and sum(starmap(lt, combinations(parts, 2))) & 1:
                sign = -mult
            key = tuple(key)
            acc[key] = get(key, 0) + sign
    if min(acc.values()) < 0:
        raise AssertionError("reflection rule produced a negative multiplicity")
    return {key: mult for key, mult in acc.items() if mult}


@lru_cache(maxsize=None)
def _lr_cached(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    # Every key's parts sum to |lambda1| + |lambda2| + |rho| whichever factor
    # is walked, so walk the one with the smaller module dimension.
    p, q = _parts(a), _parts(b)
    if _weyl_dim_parts(q) > _weyl_dim_parts(p):
        p, q = q, p
    return _klimyk(p, q)


def _fold(lambda1: Weight, lambda2: Weight) -> dict[tuple[int, ...], int]:
    """The cached fold of two dominant weights of one rank, looked up with
    the larger coordinates first."""
    a, b = lambda1.coords, lambda2.coords
    return _lr_cached(lambda1.n, a, b) if a >= b else _lr_cached(lambda1.n, b, a)


def lr_coefficients(lambda1: Weight, lambda2: Weight) -> DecompositionMap:
    """Multiplicities of every irreducible constituent of
    V(lambda1) (x) V(lambda2), as a DecompositionMap."""
    n = _dominant(lambda1, lambda2)
    raw = _fold(lambda1, lambda2)
    # A constituent's parts are `key - key[-1] - rho`, so sorting by
    # `key - key[-1]` sorts by parts: report order.  Each key is strictly
    # decreasing, so each coordinate is a nonnegative int.
    out = object.__new__(DecompositionMap)
    out.n = n
    out._entries = {
        _weight(n, tuple(a - b - 1 for a, b in zip(key, key[1:]))): raw[key]
        for key in sorted(raw, key=lambda k: [x - k[-1] for x in k], reverse=True)
    }
    return out


def schur_positive(
    pair_high: tuple[Weight, Weight], pair_low: tuple[Weight, Weight]
) -> bool:
    """Whether lr(pair_low) is contained in lr(pair_high) as a multiset:
    every constituent of V(l1) (x) V(l2) occurs in V(h1) (x) V(h2) at least
    as often.  The four weights must share one rank, and the two pairs one
    total weight.

    This is exactly "lr(pair_high) - lr(pair_low) has no negative entry":
    at a key found only in lr(pair_high) the difference is that map's
    multiplicity, which is positive, so a negative difference can only sit
    at a key w of lr(pair_low), where it is lr(pair_high)[w] -
    lr(pair_low)[w].  The cached folds are compared key by key: a key's
    parts sum to |lambda1| + |lambda2| + |rho|, which depends only on
    lambda1 + lambda2, so pairs of one total share one set of keys."""
    h1, h2 = pair_high
    l1, l2 = pair_low
    n = _dominant(h1, h2, l1, l2)
    high = tuple(map(add, h1.coords, h2.coords))
    low = tuple(map(add, l1.coords, l2.coords))
    if high != low:
        raise ValueError(
            "pairs must share the same total weight, "
            f"got {_weight(n, high)} vs {_weight(n, low)}"
        )
    high = _fold(h1, h2).get
    return all(high(key, 0) >= m for key, m in _fold(l1, l2).items())
