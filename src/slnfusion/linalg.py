"""Sparse exact row reduction used by the module builders.

Vectors are dicts {coordinate index: value}.  Two flavors:

* RationalRowBasis keeps the reduced row echelon form of its span over the
  rationals, so its rows depend only on the span, and expresses vectors of
  the span in that basis (needed to extract generator matrices).  Integer
  entries stay Python ints and a Fraction appears only where a division is
  inexact, so the values are those of an all-Fraction reduction;
* IntegerRowSpan grows a span fraction-free (gcd-normalized integer rows)
  and returns each row it stores, which the fusion filtration keeps as the
  rows of its degree; it needs no coordinates and is considerably faster.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = ["RationalRowBasis", "IntegerRowSpan"]


def _exact_div(a, b):
    """a / b exactly: an int when both are ints and b divides a, else a
    Fraction (int / int alone would give a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class RationalRowBasis:
    """Reduced row echelon basis: each row is keyed by its pivot, the lowest
    index where it is nonzero, has entry 1 there and 0 at every other
    pivot.  Insertion order does not matter; the rows are the unique reduced
    echelon basis of the span.  Entries are exact rationals, held as int
    where integral and as Fraction otherwise (int inputs stay int; any other
    input entry is converted with Fraction, exactly)."""

    def __init__(self):
        self._rows: dict[int, dict[int, int | Fraction]] = {}

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def row(self, pivot: int) -> dict[int, int | Fraction]:
        return self._rows[pivot]

    def _reduce(self, vec) -> tuple[dict, dict]:
        """(residue, coefficients): vec minus the combination of rows, keyed
        by pivot, that clears vec at every pivot.  Rows vanish at each
        other's pivots, so each is subtracted once, with vec's entry at its
        pivot as coefficient."""
        residue = {k: v if type(v) is int else Fraction(v) for k, v in vec.items() if v}
        coeffs = {p: c for p, c in residue.items() if p in self._rows}
        for p, c in coeffs.items():
            for k, v in self._rows[p].items():
                val = residue.get(k, 0) - c * v
                if val:
                    residue[k] = val
                else:
                    del residue[k]
        return residue, coeffs

    def insert(self, vec) -> dict[int, int | Fraction] | None:
        """If vec is independent of the rows, add its normalized residue as a
        row, clear the new pivot from the other rows (in place), and return
        the stored row, else return None.  Stored rows keep their identity
        but change under later inserts."""
        residue, _ = self._reduce(vec)
        if not residue:
            return None
        p = min(residue)
        c = residue[p]
        stored = residue if c == 1 else {k: _exact_div(v, c) for k, v in residue.items()}
        for other in self._rows.values():
            coeff = other.get(p)
            if coeff:
                for k, v in stored.items():
                    val = other.get(k, 0) - coeff * v
                    if val:
                        other[k] = val
                    else:
                        del other[k]
        self._rows[p] = stored
        return stored

    def coordinates(self, vec) -> dict[int, int | Fraction]:
        """Coefficients over the stored rows (keyed by pivot); raises
        ValueError if vec is not in the span."""
        residue, coeffs = self._reduce(vec)
        if residue:
            raise ValueError("vector does not lie in the spanned subspace")
        return coeffs


class IntegerRowSpan:
    """Growing integer row space; insert() returns the stored row, or None."""

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def insert(self, vec) -> dict[int, int] | None:
        """Reduce vec against the stored rows; if independent, store it
        divided by its content, leading entry positive, and return the stored
        row, else return None.  Only the stored row is gcd-normalized; vec
        itself is never changed.  Every entry must be an exact integer (it
        has `__index__`): a float or Fraction raises ValueError rather than
        being truncated."""
        try:
            work = {k: v for k, v in zip(vec, map(operator.index, vec.values())) if v}
        except TypeError:
            raise ValueError(f"vector entries must be integers, got {vec!r}") from None
        while work:
            p = min(work)
            row = self._rows.get(p)
            if row is None:
                g = math.gcd(*work.values())
                if work[p] < 0:
                    g = -g
                stored = {k: v // g for k, v in work.items()}
                self._rows[p] = stored
                return stored
            a = row[p]
            b = work[p]
            g = math.gcd(a, b)
            ca = a // g
            cb = b // g
            # work is this call's own copy, so it is scaled and reduced in
            # place; rows hold no zeros, so a zero result was an entry of work
            if ca != 1:
                for k in work:
                    work[k] *= ca
            for k, v in row.items():
                val = work.get(k, 0) - cb * v
                if val:
                    work[k] = val
                else:
                    del work[k]
        return None
