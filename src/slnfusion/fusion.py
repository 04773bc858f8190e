"""Explicit sl_n modules and graded fusion products of two factors.

`build_irrep` realizes V(lambda) with exact rational generator matrices, as
the cyclic span of the top vector inside V(omega_k) (x) V(lambda - omega_k),
k the largest index with lambda_k > 0.  V(omega_k) is the k-th exterior
power of the vector representation, with the k-subsets of {1..n} as basis;
V(lambda - omega_k) comes from the same construction.  `_tensor_columns`
is the one action x (x) 1 + 1 (x) x of a generator on a two-factor tensor
product.  `fusion_graded` then filters V(lambda1) (x) V(lambda2),
viewed as a two-point evaluation module over the current algebra at distinct
points c1 and c2, by polynomial degree.  v1 (x) v2 generates it under
U(n^-[t]) and t^2 acts through t and 1, so the degree-s piece is
F_s(mu) = sum_k f_k F_s(mu + alpha_k) + (f_k (x) t) F_{s-1}(mu + alpha_k),
computed for each degree by one pass down the weights in order of height
(`_lowering_pass`, which also builds V(lambda) as such a degree 0).
Modulo F_{s-1}, f_k (x) t acts on F_{s-1} as a nonzero multiple of
1 (x) f_k (see `fusion_graded`), so the filtration does not depend on the
points, and they are only checked to be distinct.
The pass stops at the dominant reach, the largest height of a dominant
tensor weight.  Each F_s is an sl_n-submodule (sl_n (x) 1 has degree 0), so
F_s / F_{s-1} is fixed by its dominant weight spaces; and F_s(mu) reads only
the weights mu + alpha_k, of smaller height, so every weight the pass visits
gets the rows it would get in a pass over all weights.  The rows each degree
adds at the dominant weights, spread over their Weyl orbits, form the
character of F_s / F_{s-1}; `peel_character` decomposes it into
irreducibles, giving the graded decomposition.

Every step of the filtration is a weight-space-local row reduction in plain
integers (the lowering operators are scaled to integer matrices once), which
is what keeps near-10^4-dimensional tensor products tractable here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .linalg import IntegerRowSpan, RationalRowBasis
from .tensor import DecompositionMap
from .typea import (
    Weight,
    _check_rank,
    dominant_weight_multiplicities,
    exact_ints,
    root_lattice_height,
    simple_root_weight,
    weight_multiplicities,
    weyl_dim,
    weyl_orbit,
)

__all__ = [
    "DEFAULT_DIM_CAP",
    "DimensionCapError",
    "ExplicitModule",
    "build_irrep",
    "GradedDecomposition",
    "fusion_graded",
    "peel_character",
]

DEFAULT_DIM_CAP = 400


class DimensionCapError(ValueError):
    """Requested module exceeds the construction dimension cap."""

    def __init__(self, message: str, dim: int, cap: int):
        super().__init__(message)
        self.dim = dim
        self.cap = cap


# ---------------------------------------------------------------------------
# Explicit modules.
# ---------------------------------------------------------------------------


def _apply(cols, vec: Mapping) -> dict:
    """Image of a sparse vector under a matrix stored column-wise: cols[i]
    lists the (row, value) entries of column i.  Zero entries are dropped."""
    out: dict = {}
    for i, v in vec.items():
        for r, c in cols[i]:
            out[r] = out.get(r, 0) + c * v
    return {r: c for r, c in out.items() if c}


def _lowering_pass(order, dims, spaces, maps, rows, prev_rows) -> None:
    """One pass down the weights: for each mu in `order` (by height, so
    every mu + alpha_k comes before mu), insert into spaces[mu] the images
    f_k rows[mu + alpha_k] and t_k prev_rows[mu + alpha_k], for each
    (alpha_k, f_k, t_k) in `maps`, until it has dimension dims[mu].  The
    rows it stores are appended to rows[mu].  Row lists of weights already
    passed are complete, so rows that a later insert at their own weight
    reduces in place still span what was inserted there."""
    for mu in order:
        span = spaces[mu]
        if span.dimension == dims[mu]:
            continue
        fresh = rows.setdefault(mu, [])
        images = (
            _apply(cols, row)
            for alpha, f_cols, t_cols in maps
            for cols, src in (
                (f_cols, rows.get(mu + alpha, ())),
                (t_cols, prev_rows.get(mu + alpha, ())),
            )
            for row in src
        )
        for img in images:
            stored = span.insert(img)
            if stored is not None:
                fresh.append(stored)
                if span.dimension == dims[mu]:
                    break


def _tensor_columns(cols1, cols2, pairs) -> dict:
    """Columns of x (x) 1 + 1 (x) x on V1 (x) V2 (flat index a * d2 + b)
    from the columns of x on V1 and on V2, keyed by flat index, for the
    index pairs (a, b) in `pairs` alone; empty columns for V1 give
    1 (x) x alone."""
    d2 = len(cols2)
    return {
        a * d2 + b: [(r * d2 + b, c) for r, c in cols1[a]]
        + [(a * d2 + r, c) for r, c in cols2[b]]
        for a, b in pairs
    }


def _exterior_power(n: int, k: int):
    """Columns of e_a and f_a (entries 1) on the k-th fundamental module of
    sl_n, with the k-subsets of {1..n} in lexicographic order as basis:
    f_a replaces a by a+1 and e_a replaces a+1 by a.  Index 0 is {1..k}, of
    weight omega_k."""
    subsets = list(itertools.combinations(range(1, n + 1), k))
    index = {s: i for i, s in enumerate(subsets)}

    def moved(old: int, new: int):
        return [
            [(index[tuple(sorted(set(s) - {old} | {new}))], 1)]
            if old in s and new not in s
            else []
            for s in subsets
        ]

    e = tuple(moved(a + 1, a) for a in range(1, n))
    f = tuple(moved(a, a + 1) for a in range(1, n))
    return e, f


@dataclass(eq=False)
class ExplicitModule:
    """An irreducible module with exact sparse generator matrices.

    Basis vectors are grouped by weight (weights[i] is the weight of basis
    vector i; index 0 is the highest-weight vector).  e/f matrices are stored
    column-wise: e[k-1][col] is a tuple of (row, Fraction) entries.  h_k is
    diagonal with integer eigenvalue h[k-1][col]."""

    n: int
    highest: Weight
    weights: tuple[Weight, ...]
    e: tuple
    f: tuple
    h: tuple

    @property
    def dim(self) -> int:
        return len(self.weights)

    def apply(self, which: str, k: int, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """Action of e_k / f_k / h_k on a sparse coordinate vector."""
        if which == "h":
            diag = self.h[k - 1]
            return {i: v * diag[i] for i, v in vec.items() if v and diag[i]}
        return _apply((self.e if which == "e" else self.f)[k - 1], vec)

    def weight_space_dims(self) -> dict[Weight, int]:
        dims: dict[Weight, int] = {}
        for w in self.weights:
            dims[w] = dims.get(w, 0) + 1
        return dims


def build_irrep(lam: Weight, cap: int = DEFAULT_DIM_CAP) -> ExplicitModule:
    """Construct V(lam) explicitly; refuses modules larger than `cap`.
    Modules are cached by `lam` alone, whatever cap admitted them."""
    if not lam.is_dominant:
        raise ValueError(f"build_irrep requires a dominant weight, got {lam}")
    dim = weyl_dim(lam)
    if dim > cap:
        raise DimensionCapError(
            f"V{lam} has dimension {dim}, above the construction cap {cap}",
            dim=dim,
            cap=cap,
        )
    return _build_irrep(lam)


@lru_cache(maxsize=None)
def _build_irrep(lam: Weight) -> ExplicitModule:
    """V(lam) as the cyclic span of the top vector (index 0) of
    V(omega_k) (x) V(lam - omega_k), k the largest index with lam_k > 0.  The
    first factor is `_exterior_power(n, k)`; the second is built the same
    way, down to the line V(0).  The span is degree 0 of the filtration of
    `fusion_graded`: one `_lowering_pass` with f_k alone over the weights of
    V(lam), and the basis is the reduced echelon basis of each weight space.
    With the exterior power leading the flat index, it gives small integral
    generator matrices on every module measured, which keeps the integer
    row reduction of `fusion_graded` cheap.

    The top vector v (x) v' is a highest-weight vector of weight lam in a
    finite-dimensional module, so it generates a copy of V(lam), and lam has
    multiplicity one there.  The Weyl dimension grows with each coordinate,
    so every factor of the recursion is no larger than V(lam), and the cap
    on V(lam) bounds them all."""
    n = lam.n
    nonzero = [k for k in range(1, n) if lam.coords[k - 1]]
    if nonzero:
        k = nonzero[-1]
        rest = _build_irrep(lam - Weight.fundamental(n, k))
        ext_e, ext_f = _exterior_power(n, k)
        pairs = list(itertools.product(range(len(ext_e[0])), range(rest.dim)))
        e_cols = [_tensor_columns(ext_e[a], rest.e[a], pairs) for a in range(n - 1)]
        f_cols = [_tensor_columns(ext_f[a], rest.f[a], pairs) for a in range(n - 1)]
    else:
        e_cols = f_cols = [[()]] * (n - 1)
    alphas = [simple_root_weight(n, k) for k in range(1, n)]

    dims = weight_multiplicities(lam)
    order = sorted(
        dims, key=lambda w: (root_lattice_height(lam - w), [-p for p in w.to_parts()])
    )
    spaces = {w: RationalRowBasis() for w in order}
    rows = {lam: [spaces[lam].insert({0: 1})]}
    maps = [(alphas[k - 1], f_cols[k - 1], ()) for k in range(1, n)]
    _lowering_pass(order, dims, spaces, maps, rows, {})

    dim = weyl_dim(lam)
    total = sum(sp.dimension for sp in spaces.values())
    if total != dim:
        raise AssertionError(
            f"cyclic span of the top vector has dimension {total}, expected {dim}"
        )

    gidx: dict[tuple[Weight, int], int] = {}
    flat: list[tuple[Weight, int]] = []
    for w in order:
        for p in spaces[w].pivots():
            gidx[(w, p)] = len(flat)
            flat.append((w, p))
    weights = tuple(w for w, _ in flat)
    if weights[0] != lam:
        raise AssertionError("highest-weight vector is not basis vector 0")

    def matrix(cols, shift: Weight):
        out = []
        for w, p in flat:
            img = _apply(cols, spaces[w].row(p))
            if not img:
                out.append(())
                continue
            tw = w + shift
            target = spaces.get(tw)
            if target is None:
                raise AssertionError("generator image escaped the module")
            coords = target.coordinates(img)
            out.append(tuple(sorted((gidx[(tw, q)], c) for q, c in coords.items())))
        return tuple(out)

    e = tuple(matrix(e_cols[k - 1], alphas[k - 1]) for k in range(1, n))
    f = tuple(matrix(f_cols[k - 1], -alphas[k - 1]) for k in range(1, n))
    h = tuple(
        tuple(w.coords[k - 1] for w in weights) for k in range(1, n)
    )
    return ExplicitModule(n=n, highest=lam, weights=weights, e=e, f=f, h=h)


# ---------------------------------------------------------------------------
# Character peeling.
# ---------------------------------------------------------------------------


def peel_character(char: Mapping[Weight, int]) -> DecompositionMap:
    """Decompose a Weyl-invariant character (weight -> multiplicity, entries
    nonnegative) into irreducibles; raises ValueError if the input is not a
    genuine module character.

    The input must be Weyl-invariant: the support is a union of complete
    orbits, each with one multiplicity.  An invariant character is fixed by
    its dominant part, so the strip runs there alone: it repeatedly removes
    the dominant weights of V(top), top the maximal dominant support weight,
    and rejects a multiplicity driven negative."""
    left: dict[Weight, int] = {}
    n = None
    for w, m in zip(char, exact_ints(char.values(), "character entries")):
        if m < 0:
            raise ValueError(f"character entries must be nonnegative, got {m} at {w}")
        if m:
            left[w] = m
            n = w.n
    if n is None:
        raise ValueError("cannot peel an empty character")

    dominant = {w: m for w, m in left.items() if w.is_dominant}
    covered = 0
    for dom, m in dominant.items():
        orbit = weyl_orbit(dom)
        if any(left.get(w) != m for w in orbit):
            raise ValueError(
                f"the orbit of {dom} does not carry its multiplicity {m} "
                "throughout; not a module character"
            )
        covered += len(orbit)
    if covered != len(left):
        raise ValueError(
            "some support weight has no dominant weight of its orbit in the "
            "support; not a module character"
        )

    found: dict[Weight, int] = {}
    while dominant:
        top = max(dominant, key=lambda w: w.to_parts())
        mult = dominant[top]
        for nu, m in dominant_weight_multiplicities(top).items():
            val = dominant.get(nu, 0) - mult * m
            if val > 0:
                dominant[nu] = val
            elif val == 0:
                dominant.pop(nu, None)
            else:
                raise ValueError(
                    f"stripping {mult} x V{top} drives the multiplicity of {nu} "
                    "negative; not a module character"
                )
        found[top] = mult
    return DecompositionMap(n, found)


# ---------------------------------------------------------------------------
# Graded fusion product of two explicit modules.
# ---------------------------------------------------------------------------


@dataclass
class GradedDecomposition:
    """Graded constituents of a two-factor fusion product: multiplicity of
    V(tau) in the degree-s slice, keyed by (s, tau)."""

    n: int
    lambda1: Weight
    lambda2: Weight
    entries: dict[tuple[int, Weight], int]

    def __post_init__(self):
        _check_rank(self.n)
        degrees = exact_ints([s for s, _ in self.entries], "degrees")
        mults = exact_ints(self.entries.values(), "multiplicities")
        self.entries = {
            (s, tau): m for s, (_, tau), m in zip(degrees, self.entries, mults)
        }
        for (s, tau), m in self.entries.items():
            if s < 0 or m <= 0 or tau.n != self.n or not tau.is_dominant:
                raise ValueError(f"bad graded entry ({s}, {tau}) -> {m}")

    @property
    def max_degree(self) -> int:
        return max((s for s, _ in self.entries), default=0)

    def slices(self) -> list[tuple[int, DecompositionMap]]:
        by_degree: dict[int, dict[Weight, int]] = {}
        for (s, tau), m in self.entries.items():
            by_degree.setdefault(s, {})[tau] = m
        return [
            (s, DecompositionMap(self.n, terms)) for s, terms in sorted(by_degree.items())
        ]

    def ungraded(self) -> DecompositionMap:
        acc: dict[Weight, int] = {}
        for (_, tau), m in self.entries.items():
            acc[tau] = acc.get(tau, 0) + m
        return DecompositionMap(self.n, acc)

    def dimension(self) -> int:
        return sum(m * weyl_dim(tau) for (_, tau), m in self.entries.items())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lambda1": self.lambda1.to_json(),
            "lambda2": self.lambda2.to_json(),
            "slices": [
                {"degree": s, "terms": dm.to_json()["terms"]} for s, dm in self.slices()
            ],
        }


def _indices_by_weight(m: ExplicitModule) -> dict[Weight, list[int]]:
    """The basis indices of m grouped by weight, weights in basis order."""
    out: dict[Weight, list[int]] = {}
    for i, w in enumerate(m.weights):
        out.setdefault(w, []).append(i)
    return out


def _lowering_maps(m1: ExplicitModule, m2: ExplicitModule, pairs):
    """For each k: alpha_k and plain-int column maps of f_k and 1 (x) f_k on
    m1 (x) m2 (flat index a * m2.dim + b), built at the index pairs (a, b)
    of `pairs` alone.  Both are scaled by the lcm of the denominators of f_k
    on m1 and m2, so spans are unchanged."""
    maps = []
    for k in range(1, m1.n):
        scale = math.lcm(
            *(c.denominator for m in (m1, m2) for col in m.f[k - 1] for _, c in col)
        )
        f1 = [[(r, int(c * scale)) for r, c in col] for col in m1.f[k - 1]]
        f2 = [[(r, int(c * scale)) for r, c in col] for col in m2.f[k - 1]]
        maps.append((
            simple_root_weight(m1.n, k),
            _tensor_columns(f1, f2, pairs),
            _tensor_columns([()] * m1.dim, f2, pairs),
        ))
    return maps


def fusion_graded(
    m1: ExplicitModule, c1, m2: ExplicitModule, c2
) -> GradedDecomposition:
    """Graded decomposition of the fusion product of m1 and m2 placed at the
    distinct evaluation points c1 and c2 (exact rationals).

    The result does not depend on the points.  On V1 (x) V2, f_k (x) t acts
    as c1 (f_k (x) 1) + c2 (1 (x) f_k) = c1 f_k + (c2 - c1)(1 (x) f_k), and
    f_k y already lies in F_{s-1} for every y in F_{s-1}, so
    (f_k (x) t) F_{s-1} = (1 (x) f_k) F_{s-1} modulo F_{s-1} as c2 != c1.
    The filtration is therefore built with 1 (x) f_k in place of f_k (x) t.

    Only the weights mu with height(top - mu) at most the dominant reach are
    visited, and only the dominant part of each degree is peeled:
    - each F_s is sl_n-stable, so the dominant weights of F_s / F_{s-1}
      fix its character, and all of them lie within the reach;
    - F_s(mu) reads only F_s and F_{s-1} at mu + alpha_k, of smaller
      height, so a visited weight gets the same rows as in a full pass."""
    c1 = Fraction(c1)
    c2 = Fraction(c2)
    if c1 == c2:
        raise ValueError(f"evaluation points must be distinct, got {c1} = {c2}")
    if m1.n != m2.n:
        raise ValueError(f"rank mismatch: sl_{m1.n} vs sl_{m2.n}")
    n = m1.n
    full = m1.dim * m2.dim
    top = m1.highest + m2.highest

    # the basis of m1 (x) m2 by weight, one block of index pairs per (w1, w2)
    blocks: dict[Weight, list[tuple[list[int], list[int]]]] = {}
    indices2 = _indices_by_weight(m2).items()
    for w1, block1 in _indices_by_weight(m1).items():
        for w2, block2 in indices2:
            blocks.setdefault(w1 + w2, []).append((block1, block2))
    dims = {w: sum(len(a) * len(b) for a, b in bl) for w, bl in blocks.items()}
    height = {w: root_lattice_height(top - w) for w in dims}
    reach = max(h for w, h in height.items() if w.is_dominant)
    order = sorted((w for w in dims if height[w] <= reach), key=height.__getitem__)
    spaces = {w: IntegerRowSpan() for w in order}
    # a row of weight mu is supported on the basis vectors of weight mu, and
    # the pass reads rows of visited weights alone, so it needs their columns
    maps = _lowering_maps(
        m1,
        m2,
        [pair for w in order for a, b in blocks[w] for pair in itertools.product(a, b)],
    )

    # Rows added in degrees s-1 and s, by weight.  A row gets f_k in the
    # degree it was added and 1 (x) f_k in the next one: f_k F_{s-1} and
    # (1 (x) f_k) F_{s-2} already lie in F_{s-1}.
    prev_rows: dict[Weight, list] = {}
    new_rows = {top: [spaces[top].insert({0: 1})]}
    entries: dict[tuple[int, Weight], int] = {}
    total = 0
    degree = 0
    while total < full:
        _lowering_pass(order, dims, spaces, maps, new_rows, prev_rows)
        # the rows added to mu in this degree s span F_s(mu) modulo F_{s-1}(mu);
        # each dominant count holds on the whole orbit of mu
        char = {
            w: len(rows)
            for mu, rows in new_rows.items()
            if rows and mu.is_dominant
            for w in weyl_orbit(mu)
        }
        if not char:
            raise RuntimeError(
                "degree filtration stalled before exhausting the tensor product"
            )
        for tau, m in peel_character(char).items_sorted():
            entries[(degree, tau)] = m
            total += m * weyl_dim(tau)
        prev_rows, new_rows = new_rows, {}
        degree += 1

    graded = GradedDecomposition(
        n=n, lambda1=m1.highest, lambda2=m2.highest, entries=entries
    )
    if graded.dimension() != full:
        raise AssertionError("graded slices do not add up to the tensor dimension")
    return graded
