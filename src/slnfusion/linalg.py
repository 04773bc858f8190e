"""Sparse exact row reduction used by the module builders.

Vectors are dicts {coordinate index: value}.  Two flavors:

* RationalRowBasis keeps a fully reduced echelon basis over Fraction and can
  express new vectors in that basis (needed to extract generator matrices);
* IntegerRowSpan only tracks the dimension of a growing span, fraction-free
  (gcd-normalized integer rows), which is all the fusion filtration needs
  and is considerably faster.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["RationalRowBasis", "IntegerRowSpan"]


class RationalRowBasis:
    """Reduced row echelon basis; pivot columns are canonical (lowest index)."""

    def __init__(self):
        self._rows: dict[int, dict[int, Fraction]] = {}

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def row(self, pivot: int) -> dict[int, Fraction]:
        return self._rows[pivot]

    def insert(self, vec) -> dict[int, Fraction] | None:
        """Reduce vec against the basis; if independent, normalize, add it,
        and return the stored row, else return None."""
        work = {k: Fraction(v) for k, v in vec.items() if v}
        while work:
            p = min(work)
            row = self._rows.get(p)
            if row is None:
                c = work[p]
                stored = {k: v / c for k, v in work.items()}
                for other in self._rows.values():
                    coeff = other.get(p)
                    if coeff:
                        for k, v in stored.items():
                            val = other.get(k, 0) - coeff * v
                            if val:
                                other[k] = val
                            elif k in other:
                                del other[k]
                self._rows[p] = stored
                return stored
            c = work[p]
            for k, v in row.items():
                val = work.get(k, 0) - c * v
                if val:
                    work[k] = val
                elif k in work:
                    del work[k]
        return None

    def coordinates(self, vec) -> dict[int, Fraction]:
        """Coefficients over the stored rows (keyed by pivot); raises
        ValueError if vec is not in the span."""
        residue = {k: Fraction(v) for k, v in vec.items() if v}
        coeffs: dict[int, Fraction] = {}
        while residue:
            p = min(residue)
            row = self._rows.get(p)
            if row is None:
                raise ValueError("vector does not lie in the spanned subspace")
            c = residue[p]
            coeffs[p] = c
            for k, v in row.items():
                val = residue.get(k, 0) - c * v
                if val:
                    residue[k] = val
                elif k in residue:
                    del residue[k]
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
