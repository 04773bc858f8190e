"""Explicit sl_n modules and graded fusion products of two factors.

`build_irrep` realizes V(lambda) as an `ExplicitModule`: the weights of its
basis (the top vector first) and exact rational matrices of its lowering
operators f_k, nothing else.  It is the cyclic span of the top vector inside
V(omega_k) (x) V(lambda - omega_k), k the largest index with lambda_k > 0.
V(omega_k) is the k-th exterior power of the vector representation, with
the k-subsets of {1..n} as basis; V(lambda - omega_k) comes from the same
construction.  As a module over n^-, V(lambda) is
U(n^-) / sum_k U(n^-) f_k^{lambda_k + 1}, generated by its top vector, and
the filtration below reads only that structure and the weights, so e_k and
h_k are never built.  `_tensor_action` is the one action x (x) 1 + 1 (x) x
of a generator on a two-factor tensor product, read from the columns of x
on the two factors, so no matrix of the product is built.  `fusion_graded` then
filters V(lambda1) (x) V(lambda2), viewed as a two-point evaluation module
over the current algebra at distinct points c1 and c2, by polynomial
degree.  v1 (x) v2 generates it under U(n^-[t]) and t^2 acts through t
and 1, so the degree-s piece is
F_s(mu) = sum_k f_k F_s(mu + alpha_k) + (f_k (x) t) F_{s-1}(mu + alpha_k),
computed for each degree by one pass down the weights in order of height
(`_lowering_pass`, which also builds V(lambda) as such a degree 0).  The
pass reads a filtration as a list of operators (alpha_k, x, lag): x acts on
the rows that degree s - lag added at mu + alpha_k, held in one history
list, history[lag].  Both builders get the pass's steps from `_steps`,
which holds the one orbit stop below.

The filtration does not depend on the points, so they are only checked to
be distinct.  On V1 (x) V2, f_k (x) t acts as
c1 (f_k (x) 1) + c2 (1 (x) f_k) = c1 f_k + (c2 - c1)(1 (x) f_k), and f_k y
already lies in F_{s-1} for every y in F_{s-1}, so
(f_k (x) t) F_{s-1} = (1 (x) f_k) F_{s-1} modulo F_{s-1} as c2 != c1; the
filtration is built with 1 (x) f_k in place of f_k (x) t.

The pass visits the dominant closure: the dominant tensor weights and
every tensor weight reached from one by adding simple roots through tensor
weights.  Each F_s is an sl_n-submodule (sl_n (x) 1 has degree 0), so
F_s / F_{s-1} is fixed by its dominant weight spaces, all in the closure;
and F_s(mu) reads only the weights mu + alpha_k, of smaller height, which
lie in the closure when mu does.  So every weight the pass visits gets the
rows it would get in a pass over all weights, and no weight left out feeds
one visited.  For the same two reasons a weight mu that is not dominant
stops at the dimension that the dominant weight mu+ of its orbit already
has (the orbit stop): dim F_s(mu) = dim F_s(mu+), and mu+ - mu is a
nonzero sum of positive roots, so mu+ has smaller height and, dominant,
lies in the closure: the pass has finished it.  Once mu has that dimension
it holds all of F_s(mu), and every further insert would be rejected.
Dominant weights run to their tensor weight dimension, as the pass has no
smaller bound for them.  The numbers of rows each degree adds at the
dominant weights are the dominant part of the character of F_s / F_{s-1},
the one character format here; `peel_character` decomposes it into
irreducibles, giving the graded decomposition: n and its entries alone.

Every step of the filtration is a weight-space-local row reduction in plain
integers (the lowering operators are scaled to integer matrices once), which
is what keeps tensor products of a few 10^4 dimensions to seconds here.
Both builders key their weight bookkeeping (dimensions, heights, order, row
spans, steps and rows) by the coordinate tuples `Weight.coords`, which hash
and compare in C; heights come from `typea._height`.  `Weight` objects
appear only at the edges: the basis weights of an `ExplicitModule`, the
dominant weights handed to `peel_character` and the graded entries.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .linalg import IntegerRowSpan, RationalRowBasis
from .tensor import DecompositionMap
from .typea import (
    Weight,
    _check_limits,
    _check_rank,
    _expect,
    _height,
    _parts,
    _same_rank,
    _weight,
    dominant_weight_multiplicities,
    exact_ints,
    simple_root_weight,
    weight_multiplicities,
    weyl_dim,
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


def _tensor_action(cols1, cols2, vec: Mapping) -> dict:
    """Image of a sparse vector of V1 (x) V2 (flat index a * d2 + b, d2 =
    len(cols2)) under x (x) 1 + 1 (x) x, read from the columns of x on V1
    and on V2: cols[i] lists the (row, value) entries of column i.  Empty
    columns for V1 give 1 (x) x alone.  Zero entries are dropped."""
    d2 = len(cols2)
    out: dict = {}
    for i, v in vec.items():
        a, b = divmod(i, d2)
        for r, c in cols1[a]:
            j = r * d2 + b
            out[j] = out.get(j, 0) + c * v
        for r, c in cols2[b]:
            j = a * d2 + r
            out[j] = out.get(j, 0) + c * v
    return {j: c for j, c in out.items() if c}


def _steps(order, operators, spaces) -> list:
    """The steps (mu, stop, sources) of `_lowering_pass` over the weights
    `order`, by height: the sources are the (nu, x, lag) for each operator
    (alpha, x, lag) with nu = mu + alpha in `spaces`, and the stop is None
    for a dominant mu, else the dominant weight of mu's orbit (its parts
    sorted, as coordinates), the one stop rule of both builders."""
    steps = []
    for mu in order:
        stop = None
        if min(mu) < 0:
            q = sorted(_parts(mu), reverse=True)
            stop = tuple(map(sub, q, q[1:]))
        sources = [
            (nu, x, lag)
            for alpha, x, lag in operators
            if (nu := tuple(map(add, mu, alpha))) in spaces
        ]
        steps.append((mu, stop, sources))
    return steps


def _lowering_pass(steps, dims, spaces, history) -> None:
    """One pass down the weights: for each (mu, stop, sources) of `_steps`,
    insert into spaces[mu] the images x history[lag][nu] under
    `_tensor_action`, for each (nu, x, lag) in sources (x is a (cols1, cols2)
    pair), until spaces[mu] reaches its target dimension.  history[lag]
    holds the rows, by weight, that degree s - lag added, s the degree of
    the pass, and the rows it stores are appended to history[0][mu].  The
    target is dims[mu] for a dominant mu, else the dimension that
    spaces[stop] has at that point, the orbit stop of the module docstring.
    Row lists of weights already passed are complete, so rows that a later
    insert at their own weight reduces in place still span what was
    inserted there.  Weights here are the coordinate tuples `Weight.coords`
    that key `dims`, `spaces` and the row dicts; the pass only hashes and
    compares them."""
    for mu, stop, sources in steps:
        span = spaces[mu]
        target = dims[mu] if stop is None else spaces[stop].dimension
        if span.dimension == target:
            continue
        fresh = history[0].setdefault(mu, [])
        images = (
            _tensor_action(*x, row)
            for nu, x, lag in sources
            for row in history[lag].get(nu, ())
        )
        for img in images:
            stored = span.insert(img)
            if stored is not None:
                fresh.append(stored)
                if span.dimension == target:
                    break


def _exterior_power(n: int, k: int):
    """Columns of f_a (entries 1) on the k-th fundamental module of sl_n,
    with the k-subsets of {1..n} in lexicographic order as basis: f_a
    replaces a by a+1.  Index 0 is {1..k}, of weight omega_k."""
    subsets = list(itertools.combinations(range(1, n + 1), k))
    index = {s: i for i, s in enumerate(subsets)}
    return tuple(
        [
            [(index[tuple(sorted(set(s) - {a} | {a + 1}))], 1)]
            if a in s and a + 1 not in s
            else []
            for s in subsets
        ]
        for a in range(1, n)
    )


@dataclass(eq=False)
class ExplicitModule:
    """An irreducible module V(highest) given by exact sparse matrices of its
    lowering operators, all that the fusion filtration reads.

    Basis vectors are grouped by weight (weights[i] is the weight of basis
    vector i; index 0 is the highest-weight vector, which generates the
    module under the f_k).  The f matrices are stored column-wise:
    f[k-1][col] is a tuple of (row, int or Fraction) entries.

    The shape is checked (ValueError): weights of one rank with a dominant
    weights[0]; f a tuple or list of one matrix per k, each a tuple or list
    of one column per basis vector; each column a tuple or list of
    (row, value) pairs; each value an exact rational in a row of weight
    weights[col] - alpha_k.  That the f_k present the module is not
    checked."""

    weights: tuple[Weight, ...]
    f: tuple

    def __post_init__(self):
        weights = self.weights
        if not (isinstance(weights, Sequence) and weights) or not all(
            isinstance(w, Weight) for w in weights
        ):
            raise ValueError("a module's basis weights must be a nonempty sequence of Weights")
        n, dim = self.n, self.dim
        if any(w.n != n for w in weights):
            raise ValueError(f"module weights must all belong to sl_{n}")
        if not self.highest.is_dominant:
            raise ValueError(f"basis vector 0 has weight {self.highest}, which is not dominant")
        if not isinstance(self.f, (tuple, list)) or not all(
            isinstance(x, (tuple, list)) for x in self.f
        ):
            raise ValueError(
                "f must be a tuple or list of matrices, each a tuple or list of columns"
            )
        if len(self.f) != n - 1:
            raise ValueError(f"sl_{n} needs {n - 1} lowering matrices, got {len(self.f)}")
        coords = [w.coords for w in self.weights]
        for k, cols in enumerate(self.f, 1):
            if len(cols) != dim:
                raise ValueError(f"f_{k} has {len(cols)} columns for a basis of {dim}")
            alpha = simple_root_weight(n, k).coords
            for col, entries in zip(coords, cols):
                if not isinstance(entries, (tuple, list)) or not all(
                    isinstance(e, (tuple, list)) and len(e) == 2 for e in entries
                ):
                    raise ValueError(f"f_{k} columns must be tuples or lists of (row, value) pairs")
                low = tuple(map(sub, col, alpha))
                for r, c in entries:
                    if not isinstance(c, numbers.Rational):
                        raise ValueError(f"f_{k} entries must be exact rationals, got {c!r}")
                    if not isinstance(r, int) or not 0 <= r < dim or coords[r] != low:
                        raise ValueError(
                            f"f_{k} has an entry in row {r!r}, not a basis vector of weight "
                            f"{_weight(n, low)}"
                        )

    @property
    def highest(self) -> Weight:
        return self.weights[0]

    @property
    def n(self) -> int:
        return self.highest.n

    @property
    def dim(self) -> int:
        return len(self.weights)


def build_irrep(lam: Weight, cap: int = DEFAULT_DIM_CAP) -> ExplicitModule:
    """Construct V(lam) explicitly; refuses modules larger than `cap`.
    Modules are cached by `lam` alone, whatever cap admitted them."""
    _check_limits(cap=cap)
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
    """V(lam), by its lowering operators, as the cyclic span of the top
    vector (index 0) of V(omega_k) (x) V(lam - omega_k), k the largest index
    with lam_k > 0.  The first factor is `_exterior_power(n, k)`; the second
    is built the same way, down to the line V(0), and only its f_k are read.
    The span is degree 0 of the filtration of `fusion_graded`: one
    `_lowering_pass` with f_k alone over the weights of V(lam), on the
    steps of `_steps` (its orbit stop is dim V(lam)_mu = dim V(lam)_mu+),
    and the basis is the reduced echelon basis of each weight space.  Each
    f_k of V(lam) is the tensor f_k restricted to that span, in that basis.
    With the exterior power leading the flat index, it gives small integral
    matrices on every module measured, which keeps the integer row
    reduction of `fusion_graded` cheap; and since `RationalRowBasis` keeps
    integral entries as ints, the build itself runs in int arithmetic there,
    with a Fraction only where a division is inexact.

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
        actions = list(zip(_exterior_power(n, k), rest.f))
    else:
        actions = [([()], [()])] * (n - 1)
    alphas = [simple_root_weight(n, k).coords for k in range(1, n)]

    # weights as coordinate tuples from here on
    top = lam.coords
    dims = {w.coords: m for w, m in weight_multiplicities(lam).items()}
    order = sorted(
        dims,
        key=lambda w: (_height(n, tuple(map(sub, top, w))), [-p for p in _parts(w)]),
    )
    spaces = {w: RationalRowBasis() for w in order}
    # degree 0 alone: each f_k acts at lag 0, on the rows of this pass
    steps = _steps(order, [(alpha, x, 0) for alpha, x in zip(alphas, actions)], spaces)
    _lowering_pass(steps, dims, spaces, [{top: [spaces[top].insert({0: 1})]}])

    dim = weyl_dim(lam)
    total = sum(sp.dimension for sp in spaces.values())
    if total != dim:
        raise AssertionError(
            f"cyclic span of the top vector has dimension {total}, expected {dim}"
        )

    flat = [(w, p) for w in order for p in spaces[w].pivots()]
    gidx = {wp: i for i, wp in enumerate(flat)}
    if flat[0][0] != top:
        raise AssertionError("highest-weight vector is not basis vector 0")

    def matrix(x, alpha):
        out = []
        for w, p in flat:
            img = _tensor_action(*x, spaces[w].row(p))
            if not img:
                out.append(())
                continue
            tw = tuple(map(sub, w, alpha))
            target = spaces.get(tw)
            if target is None:
                raise AssertionError("generator image escaped the module")
            coords = target.coordinates(img)
            out.append(tuple(sorted((gidx[(tw, q)], c) for q, c in coords.items())))
        return tuple(out)

    f = tuple(matrix(x, alpha) for x, alpha in zip(actions, alphas))
    basis = {w: _weight(n, w) for w in order}
    return ExplicitModule(weights=tuple(basis[w] for w, _ in flat), f=f)


# ---------------------------------------------------------------------------
# Character peeling.
# ---------------------------------------------------------------------------


def peel_character(char: Mapping[Weight, int]) -> DecompositionMap:
    """Decompose a module character, given by its dominant part (dominant
    weight -> multiplicity, entries nonnegative), into irreducibles; raises
    ValueError if the input is not the dominant part of a genuine module
    character.

    A Weyl-invariant character is fixed by its dominant part, so no other
    weight is read or accepted: the keys must be dominant Weights of one
    rank, checked as `DecompositionMap` checks its entries.  The strip
    repeatedly removes the dominant weights of V(top), top the first
    remaining weight in report order (the largest parts), and rejects a
    multiplicity driven negative; it adds no key, so the order holds."""
    if not isinstance(char, Mapping):
        raise ValueError(f"a character must be a mapping, got {type(char).__name__}")
    keys = list(char)
    for w in keys:
        if not isinstance(w, Weight):
            raise ValueError(f"character key {w!r} is not a Weight")
    # the dominant part has the shape of a decomposition, and is checked as one
    left = DecompositionMap(keys[0].n, char).entries if keys else {}
    if not left:
        raise ValueError("cannot peel an empty character")

    found: dict[Weight, int] = {}
    while left:
        top = next(iter(left))
        mult = left[top]
        for nu, m in dominant_weight_multiplicities(top).items():
            val = left.get(nu, 0) - mult * m
            if val > 0:
                left[nu] = val
            elif val == 0:
                left.pop(nu, None)
            else:
                raise ValueError(
                    f"stripping {mult} x V{top} drives the multiplicity of {nu} "
                    "negative; not a module character"
                )
        found[top] = mult
    return DecompositionMap(keys[0].n, found)


# ---------------------------------------------------------------------------
# Graded fusion product of two explicit modules.
# ---------------------------------------------------------------------------


@dataclass
class GradedDecomposition:
    """Graded constituents of a filtered module, such as a fusion product:
    multiplicity of V(tau) in the degree-s slice, keyed by (s, tau)."""

    n: int
    entries: dict[tuple[int, Weight], int]

    def __post_init__(self):
        _check_rank(self.n)
        if not isinstance(self.entries, Mapping):
            kind = type(self.entries).__name__
            raise ValueError(f"graded entries must be a mapping, got {kind}")
        for key in self.entries:
            if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], Weight)):
                raise ValueError(
                    f"graded entry {key!r} does not key a Weight: keys are (degree, Weight) pairs"
                )
        degrees = exact_ints([s for s, _ in self.entries], "degrees", 0)
        mults = exact_ints(self.entries.values(), "multiplicities", 1)
        self.entries = {
            (s, tau): m for s, (_, tau), m in zip(degrees, self.entries, mults)
        }
        for (s, tau), m in self.entries.items():
            if tau.n != self.n or not tau.is_dominant:
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
        return sum(dm.dimension() for _, dm in self.slices())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "slices": [
                {"degree": s, "terms": dm.to_json()["terms"]} for s, dm in self.slices()
            ],
        }


def _lowering_maps(m1: ExplicitModule, m2: ExplicitModule):
    """The filtration's operators as (alpha_k, x, lag), alpha_k by its
    coordinates: for each k, the `_tensor_action` pair x of f_k at lag 0
    and of 1 (x) f_k at lag 1 on m1 (x) m2, in plain-int columns of f_k on
    m1 and m2 scaled by the lcm of their denominators, so spans are
    unchanged."""
    maps = []
    for k in range(1, m1.n):
        scale = math.lcm(
            *(c.denominator for m in (m1, m2) for col in m.f[k - 1] for _, c in col)
        )
        f1, f2 = ([[(r, int(c * scale)) for r, c in col] for col in m.f[k - 1]] for m in (m1, m2))
        alpha = simple_root_weight(m1.n, k).coords
        maps += [(alpha, (f1, f2), 0), (alpha, ([()] * m1.dim, f2), 1)]
    return maps


def fusion_graded(
    m1: ExplicitModule, c1, m2: ExplicitModule, c2
) -> GradedDecomposition:
    """Graded decomposition of the fusion product of m1 and m2 placed at the
    distinct evaluation points c1 and c2, exact rationals (any
    numbers.Rational, such as int or Fraction; anything else raises
    ValueError).

    The result does not depend on the points.  Only the weights of the
    dominant closure are visited, only the dominant part of each degree's
    character is peeled, and a weight that is not dominant stops at the
    orbit stop; the module docstring gives the argument for each."""
    _expect(ExplicitModule, m1, m2)
    for c in (c1, c2):
        if not isinstance(c, numbers.Rational):
            raise ValueError(f"evaluation points must be exact rationals, got {c!r}")
    if c1 == c2:
        raise ValueError(f"evaluation points must be distinct, got {c1} = {c2}")
    n = _same_rank(m1.highest, m2.highest)
    full = m1.dim * m2.dim

    # weights as coordinate tuples up to the dominant part handed to peel_character
    top = tuple(map(add, m1.highest.coords, m2.highest.coords))
    dims: dict[tuple[int, ...], int] = {}
    weights2 = Counter(w.coords for w in m2.weights).items()
    for w1, d1 in Counter(w.coords for w in m1.weights).items():
        for w2, d2 in weights2:
            w = tuple(map(add, w1, w2))
            dims[w] = dims.get(w, 0) + d1 * d2
    operators = _lowering_maps(m1, m2)
    alphas = {alpha for alpha, _, _ in operators}
    # visit the dominant closure: no other weight feeds a dominant one
    closure = grown = {w for w in dims if min(w) >= 0}
    while grown:
        grown = {
            nu for mu in grown for alpha in alphas if (nu := tuple(map(add, mu, alpha))) in dims
        } - closure
        closure |= grown
    order = sorted(
        (w for w in dims if w in closure), key=lambda w: _height(n, tuple(map(sub, top, w)))
    )
    spaces = {w: IntegerRowSpan() for w in order}
    steps = _steps(order, operators, spaces)

    # Rows added in degrees s and s-1, by weight.  A row gets f_k in the
    # degree it was added and 1 (x) f_k in the next one: f_k F_{s-1} and
    # (1 (x) f_k) F_{s-2} already lie in F_{s-1}.
    history = [{top: [spaces[top].insert({0: 1})]}, {}]
    entries: dict[tuple[int, Weight], int] = {}
    total = 0
    degree = 0
    while total < full:
        _lowering_pass(steps, dims, spaces, history)
        # the rows added to mu in this degree s span F_s(mu) modulo F_{s-1}(mu)
        char = {
            _weight(n, mu): len(rows) for mu, rows in history[0].items() if rows and min(mu) >= 0
        }
        if not char:
            raise RuntimeError(
                "degree filtration stalled before exhausting the tensor product"
            )
        graded = peel_character(char)
        entries.update(((degree, tau), m) for tau, m in graded.items_sorted())
        total += graded.dimension()
        history = [{}, *history[:-1]]
        degree += 1

    if total != full:
        raise AssertionError("graded slices do not add up to the tensor dimension")
    return GradedDecomposition(n=n, entries=entries)
