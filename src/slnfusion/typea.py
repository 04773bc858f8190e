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


def exact_ints(values, what: str, least=None, most=None) -> tuple[int, ...]:
    """`values` as a tuple of ints.  Each entry must be an exact integer (it
    has `__index__`, and is not a bool): a float, Fraction, string or bool
    raises ValueError rather than being truncated, parsed or read as 0 or 1,
    as does an entry outside `least..most` (a bound left None is not
    checked)."""
    try:
        entries = tuple(values)
        ints = tuple(map(operator.index, entries))
    except TypeError:
        ints = None
    if ints is None or bool in map(type, entries):
        raise ValueError(f"{what} must be integers, got {values!r}")
    if (least is not None and min(ints, default=least) < least) or (
        most is not None and max(ints, default=most) > most
    ):
        bound = (
            f">= {least}" if most is None
            else f"<= {most}" if least is None
            else f"in {least}..{most}"
        )
        raise ValueError(f"{what} must be {bound}, got {ints}")
    return ints


def _check_rank(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"rank must be an integer >= 2, got {n!r}")


def _expect(cls: type, *values) -> None:
    """TypeError naming `cls` and the type of the first value that is not
    an instance of it."""
    for v in values:
        if not isinstance(v, cls):
            name = cls.__name__
            article = "an" if name[0] in "AEIOU" else "a"
            raise TypeError(f"expected {article} {name}, got {type(v).__name__}")


# the least value of each sweep limit and cap (n_values holds ranks)
_LIMIT_LEAST = dict(n_max=2, n_values=2, coord_max=0, m_max=0, k_max=0, cap=1, dim_cap=1)


def _check_limits(**limits) -> None:
    """ValueError unless n_max and each entry of a nonempty n_values are
    integers >= 2, coord_max, m_max and k_max integers >= 0, and the
    dimension caps cap and dim_cap integers >= 1: the bounds the CLI
    enforces as usage errors.  Within them no sweep is empty and a cap
    admits the trivial module."""
    for name, value in limits.items():
        least = _LIMIT_LEAST[name]
        values = value if name == "n_values" else (value,)
        if not (
            isinstance(values, (tuple, list))
            and values
            and all(isinstance(v, int) and not isinstance(v, bool) and v >= least for v in values)
        ):
            what = "a nonempty tuple of integers" if name == "n_values" else "an integer"
            raise ValueError(f"{name} must be {what} >= {least}, got {value!r}")


@dataclass(frozen=True, slots=True)
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
        (k,) = exact_ints((k,), "fundamental weight index", 1, n - 1)
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

    def __add__(self, other: "Weight") -> "Weight":
        _same_rank(self, other)
        return _weight(self.n, tuple(map(operator.add, self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        _same_rank(self, other)
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

    def to_parts(self) -> tuple[int, ...]:
        """Epsilon-coordinate representative normalized to last part 0."""
        return _parts(self.coords)

    def to_json(self) -> list[int]:
        return list(self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def _same_rank(*weights) -> int:
    """The rank n shared by `weights`: TypeError for an argument that is not
    a Weight, ValueError naming n and the first rank that differs from it."""
    _expect(Weight, *weights)
    n = weights[0].n
    for w in weights:
        if w.n != n:
            raise ValueError(f"rank mismatch: sl_{n} vs sl_{w.n}")
    return n


def _dominant(*weights) -> int:
    """The rank n shared by `weights`, as `_same_rank` checks it, once each
    of them is dominant: ValueError naming the first that is not."""
    n = _same_rank(*weights)
    for w in weights:
        if not w.is_dominant:
            raise ValueError(f"expected a dominant weight, got {w}")
    return n


def _parts(coords: tuple[int, ...]) -> tuple[int, ...]:
    """`Weight.to_parts` of a weight given by its fundamental coordinates:
    p_i = m_i + ... + m_{n-1}, and p_n = 0."""
    parts = list(itertools.accumulate(reversed(coords), initial=0))
    parts.reverse()
    return tuple(parts)


_new_object = object.__new__
_set_attr = object.__setattr__


def _weight(n: int, coords: tuple[int, ...]) -> Weight:
    """`Weight(n, coords)` without `__post_init__`, for n - 1 ints that it
    would store unchanged.  `+`, `-`, unary `-` and `*` combine checked
    weights of one rank (and an int factor); `from_parts` checks the rank
    and its n int parts before taking their n - 1 differences;
    `tensor.lr_coefficients` takes differences of n sorted int parts;
    `dyck.dominant_points` subtracts int root columns from a checked weight;
    `fusion` turns the coordinate tuples of its weight bookkeeping, sums
    and differences of checked weights of one rank, back into weights."""
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
    _expect(Root, root)
    return _root_positions(root.n)[(root.i, root.j)]


def pairing(weight: Weight, root: Root) -> int:
    """Evaluation weight(h_alpha) = m_i + ... + m_j on the coroot of alpha_{i,j}."""
    n = _same_rank(weight)
    _expect(Root, root)
    if n != root.n:
        raise ValueError(f"rank mismatch: weight for sl_{weight.n}, root for sl_{root.n}")
    return sum(weight.coords[root.i - 1 : root.j])


def root_as_weight(root: Root) -> Weight:
    """alpha_{i,j} rewritten in fundamental-weight coordinates."""
    _expect(Root, root)
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


@lru_cache(maxsize=None)
def _orbit_parts(q: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # The Weyl orbit of dominant parts q: each permutation of q once, in no
    # particular order.  Cached without bound, one entry per dominant q.
    return tuple(set(itertools.permutations(q)))


def weyl_orbit(weight: Weight) -> tuple[Weight, ...]:
    """Full Weyl orbit of a dominant weight, each element once, sorted
    descending by parts (the dominant element comes first)."""
    n = _dominant(weight)
    orbit = [Weight.from_parts(n, q) for q in _orbit_parts(weight.to_parts())]
    orbit.sort(key=Weight.to_parts, reverse=True)
    return tuple(orbit)


def weyl_dim(weight: Weight) -> int:
    """Dimension of the irreducible module V(weight), by the Weyl formula."""
    _dominant(weight)
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
    n = _same_rank(weight)
    parts = weight.to_parts()
    total = sum(parts)
    coords = []
    pref = 0
    for k in range(1, n):
        pref += parts[k - 1]
        coords.append(Fraction(n * pref - k * total, n))
    return tuple(coords)


@lru_cache(maxsize=None)
def _fundamental_heights2(n: int) -> tuple[int, ...]:
    # twice the height of omega_k, k = 1..n-1: omega_k has simple-root
    # coefficients min(j, k) (n - max(j, k)) / n, summing to k (n - k) / 2
    return tuple(k * (n - k) for k in range(1, n))


def _height(n: int, coords: tuple[int, ...]) -> int:
    """Height (sum of simple-root coefficients) of the sl_n weight with these
    fundamental coordinates, unchecked: the weight must lie in the root
    lattice.  Height is linear and omega_k has height k (n - k) / 2, so this
    is one integer dot product, exactly even on the root lattice."""
    return sum(map(operator.mul, coords, _fundamental_heights2(n))) // 2


def root_lattice_height(weight: Weight) -> int:
    """Sum of simple-root coefficients; the weight must lie in the root lattice.

    The coefficients c_k = pref_k - k * total / n (see `root_coordinates`),
    total the sum of the parts, are all integral iff n divides total =
    sum_k k m_k; the sum itself is `_height`."""
    n = _same_rank(weight)
    coords = weight.coords
    if sum(k * c for k, c in enumerate(coords, 1)) % n:
        raise ValueError(f"{weight} is not in the root lattice")
    return _height(n, coords)


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
    # by the height of lambda - q: a constant minus the sum of q's prefix sums
    dominants.sort(key=lambda q: -sum(itertools.accumulate(q)))
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
    n = _dominant(weight)
    raw = _dominant_mults_by_parts(n, weight.to_parts())
    return {Weight.from_parts(n, q): m for q, m in raw.items()}


def weight_multiplicities(weight: Weight) -> dict[Weight, int]:
    """The full weight diagram of V(weight): every weight with its exact
    multiplicity, extended over each Weyl orbit."""
    n = _dominant(weight)
    raw = _dominant_mults_by_parts(n, weight.to_parts())
    return {Weight.from_parts(n, perm): m for q, m in raw.items() for perm in _orbit_parts(q)}
