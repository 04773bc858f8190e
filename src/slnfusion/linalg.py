"""Sparse exact row reduction used by the module builders.

Vectors are dicts {coordinate index: value}.  Two flavors:

* RationalRowBasis keeps the reduced row echelon form of its span over
  Fraction, so its rows depend only on the span, and expresses vectors of
  the span in that basis (needed to extract generator matrices);
* IntegerRowSpan only tracks the dimension of a growing span, fraction-free
  (gcd-normalized integer rows), which is all the fusion filtration needs
  and is considerably faster.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["RationalRowBasis", "IntegerRowSpan"]


class RationalRowBasis:
    """Reduced row echelon basis: each row is keyed by its pivot, the lowest
    index where it is nonzero, has entry 1 there and 0 at every other
    pivot.  Insertion order does not matter; the rows are the unique reduced
    echelon basis of the span."""

    def __init__(self):
        self._rows: dict[int, dict[int, Fraction]] = {}

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def row(self, pivot: int) -> dict[int, Fraction]:
        return self._rows[pivot]

    def _reduce(self, vec) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
        """(residue, coefficients): vec minus the combination of rows, keyed
        by pivot, that clears vec at every pivot.  Rows vanish at each
        other's pivots, so each is subtracted once, with vec's entry at its
        pivot as coefficient."""
        residue = {k: Fraction(v) for k, v in vec.items() if v}
        coeffs = {p: c for p, c in residue.items() if p in self._rows}
        for p, c in coeffs.items():
            for k, v in self._rows[p].items():
                val = residue.get(k, 0) - c * v
                if val:
                    residue[k] = val
                else:
                    del residue[k]
        return residue, coeffs

    def insert(self, vec) -> dict[int, Fraction] | None:
        """If vec is independent of the rows, add its normalized residue as a
        row, clear the new pivot from the other rows (in place), and return
        the stored row, else return None.  Stored rows keep their identity
        but change under later inserts."""
        residue, _ = self._reduce(vec)
        if not residue:
            return None
        p = min(residue)
        c = residue[p]
        stored = {k: v / c for k, v in residue.items()}
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

    def coordinates(self, vec) -> dict[int, Fraction]:
        """Coefficients over the stored rows (keyed by pivot); raises
        ValueError if vec is not in the span."""
        residue, coeffs = self._reduce(vec)
        if residue:
            raise ValueError("vector does not lie in the spanned subspace")
        return coeffs


class IntegerRowSpan:
    """Growing integer row space; insert() reports whether the span grew."""

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def insert(self, vec) -> dict[int, int] | None:
        """Reduce vec against the stored rows; if independent, store it
        divided by its content, leading entry positive, and return the stored
        row, else return None.  Only the stored row is gcd-normalized."""
        work = {k: int(v) for k, v in vec.items() if v}
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
            new = {k: ca * v for k, v in work.items()}
            for k, v in row.items():
                val = new.get(k, 0) - cb * v
                if val:
                    new[k] = val
                elif k in new:
                    del new[k]
            work = new
        return None
