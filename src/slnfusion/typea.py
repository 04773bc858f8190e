"""Root and weight arithmetic for the Lie algebra sl_n.

Weights are stored by their integer coefficients (m_1, ..., m_{n-1}) in the
fundamental-weight basis.  The equivalent partition-like form, the "parts"
vector (p_1, ..., p_n) with p_i = m_i + ... + m_{n-1} and p_n = 0, realizes
the same weight in epsilon-coordinates; a weight is dominant iff all coords
are nonnegative, iff its parts are weakly decreasing.  Positive roots
alpha_{i,j} = alpha_i + ... + alpha_j are indexed by 1 <= i <= j <= n-1 and
ordered first by i, then by j.  All arithmetic is exact (int / Fraction);
no floating point anywhere.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Weight",
    "Root",
    "positive_roots",
    "positive_root_index",
    "pairing",
    "root_as_weight",
    "simple_root_weight",
    "weyl_orbit",
    "weyl_dim",
    "weight_multiplicities",
    "dominant_weight_multiplicities",
    "root_coordinates",
    "root_lattice_height",
]


def exact_ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of ints.  Each entry must be an exact integer (it
    has `__index__`): a float, Fraction or string raises ValueError rather
    than being truncated or parsed."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {list(values)!r}") from None


def _check_rank(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"rank must be an integer >= 2, got {n!r}")


@dataclass(frozen=True)
class Weight:
    """Integral sl_n weight in fundamental-weight coordinates."""

    n: int
    coords: tuple[int, ...]

    def __post_init__(self):
        _check_rank(self.n)
        coords = exact_ints(self.coords, "weight coordinates")
        if len(coords) != self.n - 1:
            raise ValueError(
                f"weight for sl_{self.n} needs {self.n - 1} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "coords", coords)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Weight":
        _check_rank(n)
        return cls(n, (0,) * (n - 1))

    @classmethod
    def fundamental(cls, n: int, k: int) -> "Weight":
        """omega_k, 1 <= k <= n-1."""
        _check_rank(n)
        if not 1 <= k <= n - 1:
            raise ValueError(f"fundamental weight index must satisfy 1 <= k <= {n - 1}, got {k}")
        return cls(n, tuple(1 if i == k else 0 for i in range(1, n)))

    @classmethod
    def rho(cls, n: int) -> "Weight":
        """Half-sum of positive roots: all fundamental coordinates 1."""
        _check_rank(n)
        return cls(n, (1,) * (n - 1))

    @classmethod
    def from_parts(cls, n: int, parts) -> "Weight":
        """Weight whose epsilon-coordinate representative is `parts` (length n)."""
        _check_rank(n)
        parts = exact_ints(parts, "parts")
        if len(parts) != n:
            raise ValueError(f"parts vector for sl_{n} needs length {n}, got {len(parts)}")
        return _weight(n, tuple(parts[i] - parts[i + 1] for i in range(n - 1)))

    # -- arithmetic --------------------------------------------------------

    def _check_same_rank(self, other: "Weight") -> None:
        if not isinstance(other, Weight):
            raise TypeError(f"expected a Weight, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"rank mismatch: sl_{self.n} vs sl_{other.n}")

    def __add__(self, other: "Weight") -> "Weight":
        self._check_same_rank(other)
        return _weight(self.n, tuple(map(operator.add, self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_same_rank(other)
        return _weight(self.n, tuple(map(operator.sub, self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return _weight(self.n, tuple(-a for a in self.coords))

    def __mul__(self, k: int) -> "Weight":
        if not isinstance(k, int):
            return NotImplemented
        return _weight(self.n, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    # -- structure ---------------------------------------------------------

    @property
    def is_dominant(self) -> bool:
        return min(self.coords) >= 0

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_parts(self) -> tuple[int, ...]:
        """Epsilon-coordinate representative normalized to last part 0."""
        parts = [0] * self.n
        acc = 0
        for i in range(self.n - 2, -1, -1):
            acc += self.coords[i]
            parts[i] = acc
        return tuple(parts)

    def to_json(self) -> list[int]:
        return list(self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


_new_object = object.__new__
_set_attr = object.__setattr__


def _weight(n: int, coords: tuple[int, ...]) -> Weight:
    """`Weight(n, coords)` without `__post_init__`, for n - 1 ints that it
    would store unchanged.  `+`, `-`, unary `-` and `*` combine checked
    weights of one rank (and an int factor); `from_parts` checks the rank
    and its n int parts before taking their n - 1 differences; the fold in
    `tensor._klimyk` takes differences of n sorted int parts."""
    w = _new_object(Weight)
    _set_attr(w, "n", n)
    _set_attr(w, "coords", coords)
    return w


@dataclass(frozen=True)
class Root:
    """Positive root alpha_{i,j} = alpha_i + ... + alpha_j of sl_n."""

    n: int
    i: int
    j: int

    def __post_init__(self):
        _check_rank(self.n)
        i, j = exact_ints((self.i, self.j), "root indices")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        if not 1 <= i <= j <= self.n - 1:
            raise ValueError(
                f"positive root of sl_{self.n} needs 1 <= i <= j <= {self.n - 1}, "
                f"got (i, j) = ({self.i}, {self.j})"
            )

    @property
    def height(self) -> int:
        return self.j - self.i + 1

    @property
    def is_simple(self) -> bool:
        return self.i == self.j

    def __str__(self) -> str:
        return f"a[{self.i},{self.j}]"


@lru_cache(maxsize=None)
def positive_roots(n: int) -> tuple[Root, ...]:
    """All positive roots of sl_n, ordered by i, then j."""
    _check_rank(n)
    return tuple(Root(n, i, j) for i in range(1, n) for j in range(i, n))


@lru_cache(maxsize=None)
def _root_positions(n: int) -> dict[tuple[int, int], int]:
    return {(r.i, r.j): k for k, r in enumerate(positive_roots(n))}


def positive_root_index(root: Root) -> int:
    """Position of `root` within positive_roots(root.n)."""
    return _root_positions(root.n)[(root.i, root.j)]


def pairing(weight: Weight, root: Root) -> int:
    """Evaluation weight(h_alpha) = m_i + ... + m_j on the coroot of alpha_{i,j}."""
    if weight.n != root.n:
        raise ValueError(f"rank mismatch: weight for sl_{weight.n}, root for sl_{root.n}")
    return sum(weight.coords[root.i - 1 : root.j])


def root_as_weight(root: Root) -> Weight:
    """alpha_{i,j} rewritten in fundamental-weight coordinates."""
    parts = [0] * root.n
    parts[root.i - 1] += 1
    parts[root.j] -= 1
    return Weight.from_parts(root.n, parts)


@lru_cache(maxsize=None)
def simple_root_weight(n: int, k: int) -> Weight:
    """alpha_k as a Weight (cached; used heavily by weight-space walks)."""
    return root_as_weight(Root(n, k, k))


# ---------------------------------------------------------------------------
# Weyl group action.  W = S_n permutes the epsilon-coordinates (parts).
# ---------------------------------------------------------------------------


def _require_dominant(weight: Weight, what: str) -> None:
    if not weight.is_dominant:
        raise ValueError(f"{what} requires a dominant weight, got {weight}")


@lru_cache(maxsize=None)
def _orbit_parts(q: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # The Weyl orbit of dominant parts q: each permutation of q once, in no
    # particular order.  Cached without bound, one entry per dominant q.
    return tuple(set(itertools.permutations(q)))


@lru_cache(maxsize=None)
def _orbit_cached(weight: Weight) -> tuple[Weight, ...]:
    orbit = [Weight.from_parts(weight.n, q) for q in _orbit_parts(weight.to_parts())]
    orbit.sort(key=lambda w: w.to_parts(), reverse=True)
    return tuple(orbit)


def weyl_orbit(weight: Weight) -> tuple[Weight, ...]:
    """Full Weyl orbit of a dominant weight, each element once, sorted
    descending by parts (the dominant element comes first)."""
    _require_dominant(weight, "weyl_orbit")
    return _orbit_cached(weight)


def weyl_dim(weight: Weight) -> int:
    """Dimension of the irreducible module V(weight), by the Weyl formula."""
    _require_dominant(weight, "weyl_dim")
    return _weyl_dim_parts(weight.to_parts())


@lru_cache(maxsize=None)
def _weyl_dim_parts(parts: tuple[int, ...]) -> int:
    """`weyl_dim` of the dominant weight with these parts, cached by them;
    for callers that hold weights already checked dominant."""
    n = len(parts)
    shifted = [p + (n - 1 - k) for k, p in enumerate(parts)]
    num = 1
    den = 1
    for a in range(n):
        for b in range(a + 1, n):
            num *= shifted[a] - shifted[b]
            den *= b - a
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError("Weyl dimension product failed to divide exactly")
    return dim


# ---------------------------------------------------------------------------
# Dominance order bookkeeping.
# ---------------------------------------------------------------------------


def root_coordinates(weight: Weight) -> tuple[Fraction, ...]:
    """Coefficients (c_1, ..., c_{n-1}) expressing the weight over the simple
    roots; rational in general, integral exactly on the root lattice."""
    n = weight.n
    parts = weight.to_parts()
    total = sum(parts)
    coords = []
    pref = 0
    for k in range(1, n):
        pref += parts[k - 1]
        coords.append(Fraction(n * pref - k * total, n))
    return tuple(coords)


def root_lattice_height(weight: Weight) -> int:
    """Sum of simple-root coefficients; the weight must lie in the root lattice.

    Computed in integers: c_k = pref_k - k * total / n (see
    `root_coordinates`), all integral iff n divides total, and their sum is
    the sum of the prefix sums minus (total / n) * n(n-1)/2."""
    n = weight.n
    parts = weight.to_parts()
    q, r = divmod(sum(parts), n)
    if r:
        raise ValueError(f"{weight} is not in the root lattice")
    return sum(itertools.accumulate(parts[:-1])) - q * n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Weight multiplicities via the Freudenthal recursion.  The recursion runs on
# raw parts tuples with an integer-scaled invariant form (n * the standard
# form) to stay in plain int arithmetic.
# ---------------------------------------------------------------------------


def _dominant_parts_below(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    # Weakly decreasing q with sum(q) = sum(p) and prefix sums bounded by p's:
    # exactly the dominant weights of V(lambda), in parts form.
    n = len(p)
    total = sum(p)
    prefixes = list(itertools.accumulate(p))
    found: list[tuple[int, ...]] = []

    def rec(pos: int, used: int, prev: int, acc: tuple[int, ...]) -> None:
        if pos == n - 1:
            last = total - used
            if 0 <= last <= prev:
                found.append(acc + (last,))
            return
        hi = min(prev, prefixes[pos] - used)
        remaining = total - used
        lo = -(-remaining // (n - pos))  # ceil: must leave room for decreasing tail
        for q in range(hi, lo - 1, -1):
            rec(pos + 1, used + q, q, acc + (q,))

    rec(0, 0, total, ())
    del rec  # rec holds itself through its closure; this breaks the cycle
    return found


def _scaled_form(n: int, p: tuple[int, ...], q: tuple[int, ...]) -> int:
    # n * (p, q) for the W-invariant form with (eps_i, eps_j) = delta_ij - 1/n.
    dot = 0
    sp = 0
    sq = 0
    for a, b in zip(p, q):
        dot += a * b
        sp += a
        sq += b
    return n * dot - sp * sq


@lru_cache(maxsize=None)
def _dominant_mults_by_parts(n: int, lam_parts: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    rho = tuple(range(n - 1, -1, -1))
    lam_rho = tuple(a + b for a, b in zip(lam_parts, rho))
    norm_top = _scaled_form(n, lam_rho, lam_rho)
    eps_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]

    dominants = _dominant_parts_below(lam_parts)
    lam_pref = list(itertools.accumulate(lam_parts))

    def level(q: tuple[int, ...]) -> int:
        acc = 0
        pref = 0
        for k in range(n - 1):
            pref += q[k]
            acc += lam_pref[k] - pref
        return acc

    dominants.sort(key=level)
    mults: dict[tuple[int, ...], int] = {lam_parts: 1}

    for q in dominants:
        if q == lam_parts:
            continue
        rhs = 0
        for a, b in eps_pairs:
            nu = list(q)
            while True:
                nu[a] += 1
                nu[b] -= 1
                m = mults.get(tuple(sorted(nu, reverse=True)))
                if m is None:
                    break  # weight strings have no gaps
                rhs += n * (nu[a] - nu[b]) * m
        q_rho = tuple(x + r for x, r in zip(q, rho))
        denom = norm_top - _scaled_form(n, q_rho, q_rho)
        mult, rem = divmod(2 * rhs, denom)
        if rem or mult <= 0:
            raise AssertionError("Freudenthal recursion produced a non-positive multiplicity")
        mults[q] = mult
    return mults


def dominant_weight_multiplicities(weight: Weight) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of V(weight)."""
    _require_dominant(weight, "dominant_weight_multiplicities")
    raw = _dominant_mults_by_parts(weight.n, weight.to_parts())
    return {Weight.from_parts(weight.n, q): m for q, m in raw.items()}


def weight_multiplicities(weight: Weight) -> dict[Weight, int]:
    """The full weight diagram of V(weight): every weight with its exact
    multiplicity, extended over each Weyl orbit."""
    _require_dominant(weight, "weight_multiplicities")
    raw = _dominant_mults_by_parts(weight.n, weight.to_parts())
    return {
        Weight.from_parts(weight.n, perm): m for q, m in raw.items() for perm in _orbit_parts(q)
    }
