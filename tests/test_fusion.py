"""Explicit modules, character peeling, and graded fusion products."""

import dataclasses
import functools
import hashlib
import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from slnfusion import cache_info
from slnfusion.cases import _dominant_range
from slnfusion import fusion
from slnfusion.fusion import (
    DEFAULT_DIM_CAP,
    DimensionCapError,
    ExplicitModule,
    GradedDecomposition,
    _tensor_action,
    build_irrep,
    fusion_graded,
    peel_character,
)
from slnfusion.linalg import RationalRowBasis
from slnfusion.suite import _fusion_pairs
from slnfusion.tensor import DecompositionMap, lr_coefficients
from slnfusion.typea import (
    Weight,
    simple_root_weight,
    weight_multiplicities,
    weyl_dim,
)

SAMPLE_MODULES = [
    Weight(2, (3,)),
    Weight(3, (1, 0)),
    Weight(3, (1, 1)),
    Weight(3, (2, 0)),
    Weight(4, (1, 0, 1)),
    # built two or more levels deep: V(lam - omega_k) is itself a tensor span
    Weight(3, (2, 1)),
    Weight(4, (1, 2, 1)),
    Weight(5, (0, 1, 1, 0)),
]

# As an n^- module, V(lam) = U(n^-) / sum_k U(n^-) f_k^{lam_k + 1}.  So a
# module whose f_k satisfy the Serre relations, whose vector 0 generates it
# and is killed by each f_k^{lam_k + 1}, is a quotient of V(lam) over n^-,
# and V(lam) itself when it has dimension weyl_dim(lam).
# test_weight_spaces_match_freudenthal, test_highest_weight_vector and
# test_serre_relations check these facts and the weights, all that
# fusion_graded reads, on the samples and on every module of dimension
# <= 120 with coordinates up to 5 on sl_2 and up to 2 on sl_3..sl_5 (52
# modules).  A rescaled basis keeps them all true; only
# test_lowering_matrices_pinned catches it.
PRESENTATION_MODULES = sorted(
    set(SAMPLE_MODULES)
    | {
        lam
        for n, coord_max in ((2, 5), (3, 2), (4, 2), (5, 2))
        for lam in _dominant_range(n, coord_max)
        if weyl_dim(lam) <= 120
    },
    key=lambda w: (w.n, w.coords),
)


def _combination(*terms):
    """Sum of c * vec over the (c, vec) terms, zero entries dropped."""
    out = {}
    for c, vec in terms:
        for i, v in vec.items():
            out[i] = out.get(i, 0) + c * v
    return {i: v for i, v in out.items() if v}


def lower(m, k, vec):
    """f_k of the module m on a sparse coordinate vector."""
    return _combination(*((v, dict(m.f[k - 1][i])) for i, v in vec.items()))


def weight_space_dims(m):
    """Number of basis vectors of the module m of each weight."""
    return dict(Counter(m.weights))


def test_build_irrep_sl2_frozen():
    m = build_irrep(Weight(2, (2,)))
    assert m.dim == 3
    assert [w.coords for w in m.weights] == [(2,), (0,), (-2,)]


def test_lowering_matrices_pinned():
    # the weights and every f entry of the sample modules and of the modules
    # the criteria 6-7 sweep builds, pinned by one digest; entries are hashed
    # as str(c), so the digest does not depend on the number type, and any
    # rescaled basis vector changes it
    lams = set(SAMPLE_MODULES) | {lam for pair in _fusion_pairs() for lam in pair}
    digest = hashlib.sha256()
    for lam in sorted(lams, key=lambda w: (w.n, w.coords)):
        m = build_irrep(lam)
        digest.update(repr((lam.coords, [w.coords for w in m.weights])).encode())
        for cols in m.f:
            digest.update(
                repr([[(r, str(c)) for r, c in col] for col in cols]).encode()
            )
    assert digest.hexdigest() == (
        "f73f84b02f8c847a93e280446f9da34568491e0dced997c89d0a20d2f09b1739"
    )


def test_build_irrep_frozen_dims():
    assert build_irrep(Weight(3, (1, 1))).dim == 8
    assert build_irrep(Weight(3, (1, 0))).dim == 3
    assert build_irrep(Weight(3, (0, 0))).dim == 1
    assert build_irrep(Weight(4, (0, 1, 0))).dim == 6


def test_build_irrep_validation():
    with pytest.raises(ValueError):
        build_irrep(Weight(3, (-1, 0)))
    with pytest.raises(DimensionCapError) as exc:
        build_irrep(Weight(3, (4, 4)), 100)
    assert exc.value.dim == 125
    assert exc.value.cap == 100
    assert str(exc.value) == "V(4,4) has dimension 125, above the construction cap 100"


def test_explicit_module_validation():
    m = build_irrep(Weight(3, (1, 1)))
    v = build_irrep(Weight(3, (1, 0)))
    moved = list(m.f[0])
    moved[0] = ((m.dim, 1),)
    misplaced = list(m.f[0])
    misplaced[0] = ((0, 1),)
    inexact = list(m.f[0])
    inexact[0] = ((m.f[0][0][0][0], 1.0),)
    unindexed = list(m.f[0])
    unindexed[0] = ((float(m.f[0][0][0][0]), 1),)
    bad = [
        ((), ()),  # no basis
        (1.5, v.f),  # a number in place of the basis weights
        (v.weights[::-1], v.f),  # basis vector 0 is the lowest weight
        (v.weights, v.f[:1]),  # one lowering matrix short
        (v.weights[:2] + (Weight(4, (0, 0, 1)),), v.f),  # mixed ranks
        (v.weights[:2] + ((0, -1),), v.f),  # a coordinate tuple
        (((1, 0),) + v.weights[1:], v.f),  # a coordinate tuple at the top
        (v.weights, (v.f[0][:2], v.f[1])),  # a column short
        (m.weights, (tuple(moved),) + m.f[1:]),  # a row past the basis
        (m.weights, (tuple(misplaced),) + m.f[1:]),  # a row of the wrong weight
        (m.weights, (tuple(inexact),) + m.f[1:]),  # a float entry
        (m.weights, (tuple(unindexed),) + m.f[1:]),  # a float row index
        (m.weights, m.f[::-1]),  # f_1 and f_2 swapped
        (m.weights[:1] + m.weights[1:][::-1], m.f),  # basis weights reordered
    ]
    for weights, f in bad:
        with pytest.raises(ValueError):
            ExplicitModule(weights, f)
    for weights in (1.5, None):
        with pytest.raises(ValueError, match="must be a nonempty sequence of Weights$"):
            ExplicitModule(weights, v.f)
    with pytest.raises(ValueError, match="not dominant"):
        dataclasses.replace(v, weights=v.weights[::-1])
    with pytest.raises(ValueError, match="needs 2 lowering matrices, got 1"):
        dataclasses.replace(v, f=v.f[:1])
    # every column is a tuple or list of (row, value) pairs; an empty column
    # must be empty, not a falsy number
    for column in (5, 0, ((1,),), ((1, 1, 1),)):
        cols = (column,) + m.f[0][1:]
        with pytest.raises(ValueError, match="tuples or lists of \\(row, value\\) pairs"):
            ExplicitModule(m.weights, (cols,) + m.f[1:])
    # and f is a tuple or list of matrices, each a tuple or list of columns
    for f in (5, (5, v.f[1]), (None, v.f[1])):
        with pytest.raises(ValueError, match="each a tuple or list of columns"):
            ExplicitModule(v.weights, f)
    # a well-formed copy is accepted, by the constructor and by replace
    assert ExplicitModule(m.weights, m.f).f == m.f
    assert dataclasses.replace(m, f=m.f).weights == m.weights


def test_lowering_pass_hashes_no_weight(monkeypatch):
    # the filtration's bookkeeping is keyed by coordinate tuples: a Weight
    # hashed or compared inside a pass fails it
    def refuse(*args):
        raise AssertionError("a Weight was hashed or compared inside _lowering_pass")

    passes = []
    original = fusion._lowering_pass

    def guarded(*args):
        with monkeypatch.context() as patch:
            patch.setattr(Weight, "__hash__", refuse)
            patch.setattr(Weight, "__eq__", refuse)
            original(*args)
        passes.append(args)

    monkeypatch.setattr(fusion, "_lowering_pass", guarded)
    m1 = fusion._build_irrep.__wrapped__(Weight(3, (2, 1)))
    m2 = build_irrep(Weight(3, (1, 1)))
    graded = fusion_graded(m1, 0, m2, 1)
    # the build of V(2,1) (and of any factor it recursed into), then one
    # pass per degree
    assert len(passes) >= 1 + graded.max_degree + 1
    assert all(type(mu) is tuple for mu, _, _ in passes[-1][0])


@pytest.mark.parametrize(
    "lam1, lam2, size",
    [
        (Weight(3, (1, 1)), Weight(3, (1, 1)), 9),
        # the three pairs of the perfbench fusion workload
        (Weight(3, (2, 2)), Weight(3, (2, 1)), 16),
        (Weight(3, (1, 1)), Weight(3, (3, 3)), 25),
        (Weight(4, (1, 1, 1)), Weight(4, (1, 0, 1)), 26),
    ],
    ids=["sl3-(1,1)x(1,1)", "sl3-(2,2)x(2,1)", "sl3-(1,1)x(3,3)", "sl4-(1,1,1)x(1,0,1)"],
)
def test_fusion_visits_the_dominant_closure(monkeypatch, lam1, lam2, size):
    # F_s(mu) reads only the weights mu + alpha_k, so the pass needs exactly
    # the tensor weights from which a dominant weight is reached by
    # subtracting simple roots through tensor weights: found here by a
    # downward search, against the order the pass is handed
    m1, m2 = build_irrep(lam1), build_irrep(lam2)
    orders = []
    original = fusion._steps

    def recording(order, *args):
        orders.append(order)
        return original(order, *args)

    monkeypatch.setattr(fusion, "_steps", recording)
    fusion_graded(m1, 0, m2, 1)
    (order,) = orders

    tensor = {
        tuple(a + b for a, b in zip(w1.coords, w2.coords))
        for w1 in m1.weights
        for w2 in m2.weights
    }
    alphas = [simple_root_weight(lam1.n, k).coords for k in range(1, lam1.n)]

    @functools.cache
    def leads_down(mu):
        return min(mu) >= 0 or any(
            nu in tensor and leads_down(nu)
            for nu in (tuple(a - b for a, b in zip(mu, alpha)) for alpha in alphas)
        )

    assert len(order) == len(set(order)) == size
    assert set(order) == {mu for mu in tensor if leads_down(mu)}


def test_cache_info_counts_a_repeated_build():
    lam = Weight(3, (2, 1))
    build_irrep(lam)
    before = cache_info()
    assert set(before) == {
        "_build_irrep",
        "_lr_cached",
        "_orbit_parts",
        "_weyl_dim_parts",
        "_dominant_mults_by_parts",
    }
    build_irrep(lam)
    after = cache_info()
    assert after["_build_irrep"] == {
        **before["_build_irrep"],
        "hits": before["_build_irrep"]["hits"] + 1,
    }


def test_build_irrep_one_cache_key():
    lam = Weight(3, (2, 1))
    assert build_irrep(lam) is build_irrep(lam, DEFAULT_DIM_CAP)
    assert build_irrep(lam, 10_000) is build_irrep(lam)
    # a cached module is still refused under a cap below its dimension
    with pytest.raises(DimensionCapError) as exc:
        build_irrep(lam, weyl_dim(lam) - 1)
    assert exc.value.dim == weyl_dim(lam)


def test_weight_spaces_match_freudenthal():
    # dimension weyl_dim(lam), the weights of weight_multiplicities(lam), and
    # each f_k lowers a weight by alpha_k
    for lam in PRESENTATION_MODULES:
        m = build_irrep(lam)
        assert m.dim == weyl_dim(lam)
        assert weight_space_dims(m) == weight_multiplicities(lam)
        for k in range(1, lam.n):
            alpha = simple_root_weight(lam.n, k)
            for col, entries in enumerate(m.f[k - 1]):
                for r, _ in entries:
                    assert m.weights[r] == m.weights[col] - alpha, (lam, k, col)


def test_highest_weight_vector():
    # vector 0 has weight lam, f_k^{lam_k + 1} kills it, and it generates
    # the module under the f_k
    for lam in PRESENTATION_MODULES:
        m = build_irrep(lam)
        assert m.weights[0] == lam
        for k in range(1, lam.n):
            v = {0: Fraction(1)}
            for _ in range(lam.coords[k - 1] + 1):
                v = lower(m, k, v)
            assert v == {}, (lam, k)
        basis = RationalRowBasis()
        queue = [{0: Fraction(1)}]
        while queue:
            stored = basis.insert(queue.pop())
            if stored is not None:
                row = dict(stored)  # stored rows change under later inserts
                queue.extend(lower(m, k, row) for k in range(1, lam.n))
        assert basis.dimension == m.dim, lam


def test_serre_relations():
    # f_k^2 f_l - 2 f_k f_l f_k + f_l f_k^2 = 0 for |k - l| = 1, and
    # f_k f_l = f_l f_k for |k - l| >= 2, on every basis vector
    for lam in PRESENTATION_MODULES:
        m = build_irrep(lam)
        n = lam.n

        def word(v, *ks):
            for k in reversed(ks):
                v = lower(m, k, v)
            return v

        for idx in range(m.dim):
            v = {idx: Fraction(1)}
            for k, l in itertools.permutations(range(1, n), 2):
                if abs(k - l) == 1:
                    relation = _combination(
                        (1, word(v, k, k, l)),
                        (-2, word(v, k, l, k)),
                        (1, word(v, l, k, k)),
                    )
                else:
                    relation = _combination((1, word(v, k, l)), (-1, word(v, l, k)))
                assert relation == {}, (lam, k, l, idx)


def test_build_irrep_near_cap():
    # V(6,6) of sl_3 has dimension 343, just under the default cap; every
    # module of its recursion is smaller still
    lam = Weight(3, (6, 6))
    assert weyl_dim(lam) <= DEFAULT_DIM_CAP
    t0 = time.perf_counter()
    m = build_irrep(lam)
    elapsed = time.perf_counter() - t0
    assert weight_space_dims(m) == weight_multiplicities(lam)
    assert elapsed < 10, f"V(6,6) took {elapsed:.1f}s, budget 10s"


def dominant_part(char):
    return {w: m for w, m in char.items() if w.is_dominant}


def test_peel_character_examples():
    doubled = {w: 2 * m for w, m in weight_multiplicities(Weight(3, (1, 0))).items()}
    assert peel_character(dominant_part(doubled)).entries == {Weight(3, (1, 0)): 2}

    conv = {}
    for mu1, k1 in weight_multiplicities(Weight(3, (1, 0))).items():
        for mu2, k2 in weight_multiplicities(Weight(3, (0, 1))).items():
            conv[mu1 + mu2] = conv.get(mu1 + mu2, 0) + k1 * k2
    assert peel_character(dominant_part(conv)).entries == {
        Weight(3, (1, 1)): 1,
        Weight.zero(3): 1,
    }


def test_peel_character_rejects_non_characters():
    with pytest.raises(ValueError):
        peel_character({Weight(3, (1, 0)): -1})
    with pytest.raises(ValueError):
        peel_character({})
    with pytest.raises(ValueError, match="empty"):
        peel_character({Weight(3, (1, 0)): 0})
    # V(1,1) has the zero weight twice: stripping it leaves -2 there
    with pytest.raises(ValueError, match="negative"):
        peel_character({Weight(3, (1, 1)): 1})
    # coordinate tuples in place of Weights, zero entries included
    for char in ({(1, 0): 1}, {Weight(3, (0, 0)): 1, (1, 0): 0}):
        with pytest.raises(ValueError, match="is not a Weight"):
            peel_character(char)
    # not a mapping: a list of (Weight, multiplicity) pairs, or nothing
    for char in ([(Weight(3, (1, 0)), 1)], None):
        with pytest.raises(ValueError, match="must be a mapping"):
            peel_character(char)


def test_peel_character_rejects_mixed_ranks():
    # rejected before the strip, at multiplicity 0 too
    for m in (1, 0):
        with pytest.raises(ValueError, match="does not belong to sl_3"):
            peel_character({Weight(3, (1, 0)): 1, Weight(2, (1,)): m})


def small_weights(n, coord_max=2):
    return st.tuples(*[st.integers(0, coord_max)] * (n - 1)).map(lambda c: Weight(n, c))


@st.composite
def decomposition_maps(draw):
    n = draw(st.integers(2, 4))
    entries = draw(
        st.dictionaries(small_weights(n), st.integers(1, 3), min_size=1, max_size=4)
    )
    return DecompositionMap(n, entries)


def character_of(dm):
    """Weight multiplicities of the module sum of m x V(tau) over dm."""
    char = {}
    for tau, m in dm.items_sorted():
        for w, k in weight_multiplicities(tau).items():
            char[w] = char.get(w, 0) + m * k
    return char


@settings(deadline=None, max_examples=40)
@given(dm=decomposition_maps())
def test_peel_character_round_trip(dm):
    assert peel_character(dominant_part(character_of(dm))) == dm


def test_peel_character_rejects_a_non_dominant_key():
    # the full character of a module is not its dominant part; a
    # non-dominant key is rejected at multiplicity 0 too, and alone
    chars = [weight_multiplicities(lam) for lam in SAMPLE_MODULES]
    chars += [{Weight(3, (1, 0)): 1, Weight(3, (-1, 1)): 0}, {Weight(3, (-1, 1)): 1}]
    for char in chars:
        with pytest.raises(ValueError, match="not dominant"):
            peel_character(char)


def test_fusion_graded_sl2_frozen():
    g = fusion_graded(build_irrep(Weight(2, (2,))), 0, build_irrep(Weight(2, (1,))), 1)
    assert g.entries == {
        (0, Weight(2, (3,))): 1,
        (1, Weight(2, (1,))): 1,
    }
    same = fusion_graded(
        build_irrep(Weight(2, (2,))), 1, build_irrep(Weight(2, (1,))), 3
    )
    assert same == g


def test_fusion_graded_trivial_factor():
    g = fusion_graded(build_irrep(Weight(3, (2, 1))), 0, build_irrep(Weight.zero(3)), 1)
    assert g.entries == {(0, Weight(3, (2, 1))): 1}


def test_fusion_graded_validation():
    m1 = build_irrep(Weight(2, (1,)))
    with pytest.raises(ValueError):
        fusion_graded(m1, 1, m1, 1)
    with pytest.raises(ValueError):
        fusion_graded(m1, 0, build_irrep(Weight(3, (1, 0))), 1)


@pytest.mark.parametrize("bad", ["1/2", " 3 ", None, 0.5])
def test_fusion_graded_points_must_be_rationals(bad):
    m = build_irrep(Weight(2, (1,)))
    for c1, c2 in ((bad, 1), (0, bad)):
        with pytest.raises(ValueError, match="exact rationals"):
            fusion_graded(m, c1, m, c2)


def test_fusion_graded_rational_points():
    g1 = fusion_graded(
        build_irrep(Weight(3, (1, 1))),
        Fraction(1, 2),
        build_irrep(Weight(3, (1, 0))),
        Fraction(-2, 3),
    )
    g2 = fusion_graded(
        build_irrep(Weight(3, (1, 1))), 0, build_irrep(Weight(3, (1, 0))), 1
    )
    assert g1 == g2


def test_fusion_graded_structure_invariants():
    pairs = [
        (Weight(2, (4,)), Weight(2, (3,))),
        (Weight(3, (1, 1)), Weight(3, (1, 1))),
        (Weight(3, (2, 0)), Weight(3, (0, 2))),
        (Weight(3, (2, 1)), Weight(3, (1, 0))),
    ]
    for lam1, lam2 in pairs:
        g = fusion_graded(build_irrep(lam1), 0, build_irrep(lam2), 1)
        # top slice is the Cartan component alone
        degree0 = dict(g.slices()[0][1].entries)
        assert degree0 == {lam1 + lam2: 1}
        # slices exhaust the tensor product
        assert g.dimension() == weyl_dim(lam1) * weyl_dim(lam2)
        # collapse matches the oracle
        assert dict(g.ungraded().entries) == dict(
            lr_coefficients(lam1, lam2).entries
        )


def test_fusion_sl2_max_degree():
    for m1 in range(4):
        for m2 in range(m1 + 1):
            g = fusion_graded(
                build_irrep(Weight(2, (m1,))), 0, build_irrep(Weight(2, (m2,))), 1
            )
            assert g.max_degree == m2


def rescaled(m):
    """m in the basis d_i v_i, d_i = 1 + i mod 3: every f_k becomes
    D^-1 f_k D, so integral matrices get denominators 2 and 3."""
    d = [1 + i % 3 for i in range(m.dim)]

    def conjugate(mats):
        return tuple(
            tuple(
                tuple((r, c * Fraction(d[col], d[r])) for r, c in entries)
                for col, entries in enumerate(cols)
            )
            for cols in mats
        )

    return dataclasses.replace(m, f=conjugate(m.f))


def test_fusion_graded_non_integral_generators_frozen():
    # the rescaled V(1,2,1) of sl_4 has generator matrices with denominators,
    # so the lowering maps must be scaled to integers before the filtration
    m = rescaled(build_irrep(Weight(4, (1, 2, 1))))
    assert any(c.denominator > 1 for cols in m.f for col in cols for _, c in col)
    g = fusion_graded(m, Fraction(1, 2), build_irrep(Weight(4, (0, 1, 0))), 3)
    assert sorted((s, tau.coords, mult) for (s, tau), mult in g.entries.items()) == [
        (0, (1, 3, 1), 1),
        (1, (0, 2, 2), 1),
        (1, (0, 3, 0), 1),
        (1, (2, 1, 2), 1),
        (1, (2, 2, 0), 1),
        (2, (1, 1, 1), 1),
    ]


POINT_INDEPENDENCE_PAIRS = [
    (Weight(2, (3,)), Weight(2, (2,))),
    (Weight(2, (4,)), Weight(2, (1,))),
    (Weight(3, (1, 1)), Weight(3, (1, 0))),
    (Weight(3, (2, 1)), Weight(3, (1, 1))),
]
POINTS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(deadline=None, max_examples=20)
@given(pair=st.sampled_from(POINT_INDEPENDENCE_PAIRS), c1=POINTS, c2=POINTS)
def test_fusion_graded_independent_of_points(pair, c1, c2):
    assume(c1 != c2)
    m1, m2 = build_irrep(pair[0]), build_irrep(pair[1])
    assert fusion_graded(m1, c1, m2, c2) == fusion_graded(m1, 0, m2, 1)


def _tensor_lowering(m1, m2, k, x1, x2, vec):
    """x1 (f_k (x) 1) + x2 (1 (x) f_k) on a sparse vector of m1 (x) m2 (flat
    index a * m2.dim + b), one factor at a time through `lower`."""
    d2 = m2.dim
    out = {}
    for idx, v in vec.items():
        a, b = divmod(idx, d2)
        for r, c in lower(m1, k, {a: v}).items():
            out[r * d2 + b] = out.get(r * d2 + b, 0) + x1 * c
        for r, c in lower(m2, k, {b: v}).items():
            out[a * d2 + r] = out.get(a * d2 + r, 0) + x2 * c
    return {i: c for i, c in out.items() if c}


SAME_RANK_PAIRS = [
    (lam1, lam2) for lam1 in SAMPLE_MODULES for lam2 in SAMPLE_MODULES if lam1.n == lam2.n
]


@settings(deadline=None, max_examples=60)
@given(
    pair=st.sampled_from(SAME_RANK_PAIRS),
    rescale=st.tuples(st.booleans(), st.booleans()),
    data=st.data(),
)
def test_tensor_action_matches_factorwise_lowering(pair, rescale, data):
    # f_k (x) 1 + 1 (x) f_k and 1 (x) f_k read from the factors' columns,
    # against the one-factor-at-a-time reference; a rescaled factor brings
    # Fraction entries
    m1, m2 = (
        rescaled(build_irrep(lam)) if r else build_irrep(lam)
        for lam, r in zip(pair, rescale)
    )
    k = data.draw(st.integers(1, m1.n - 1))
    entries = st.integers(-3, 3).filter(bool) | st.fractions(
        min_value=-3, max_value=3, max_denominator=5
    ).filter(bool)
    vec = data.draw(
        st.dictionaries(st.integers(0, m1.dim * m2.dim - 1), entries, max_size=6)
    )
    f1, f2 = m1.f[k - 1], m2.f[k - 1]
    assert _tensor_action(f1, f2, vec) == _tensor_lowering(m1, m2, k, 1, 1, vec)
    assert _tensor_action([()] * m1.dim, f2, vec) == _tensor_lowering(
        m1, m2, k, 0, 1, vec
    )


def reference_degree_characters(m1, c1, m2, c2):
    """Characters of F_s / F_{s-1} from the definition, in Fraction
    arithmetic: F_0 = U(n^-)(v1 (x) v2) and F_s = U(n^-)(F_{s-1} + sum_k
    (f_k (x) t) F_{s-1}), where f_k (x) t acts as c1 (f_k (x) 1) +
    c2 (1 (x) f_k).  One RationalRowBasis spans F_s in the whole of V1 (x) V2;
    its rows stay weight vectors, so each pivot gives one weight."""
    basis = RationalRowBasis()
    spanning = []

    def close(vectors):
        queue = list(vectors)
        while queue:
            stored = basis.insert(queue.pop())
            if stored is not None:
                row = dict(stored)  # stored rows change under later inserts
                spanning.append(row)
                queue.extend(
                    _tensor_lowering(m1, m2, k, 1, 1, row) for k in range(1, m1.n)
                )

    def character():
        char = {}
        for p in basis.pivots():
            w = m1.weights[p // m2.dim] + m2.weights[p % m2.dim]
            char[w] = char.get(w, 0) + 1
        return char

    close([{0: Fraction(1)}])
    totals = [character()]
    while basis.dimension < m1.dim * m2.dim:
        lower = list(spanning)
        close(
            _tensor_lowering(m1, m2, k, c1, c2, row)
            for row in lower
            for k in range(1, m1.n)
        )
        assert basis.dimension > sum(totals[-1].values()), "filtration stalled"
        totals.append(character())
    previous = {}
    out = {}
    for s, char in enumerate(totals):
        out[s] = {
            w: d - previous.get(w, 0) for w, d in char.items() if d != previous.get(w, 0)
        }
        previous = char
    return out


REFERENCE_PAIRS = [
    (Weight(2, (3,)), Weight(2, (2,))),
    (Weight(3, (1, 1)), Weight(3, (1, 0))),
    (Weight(3, (2, 0)), Weight(3, (1, 1))),
    (Weight(4, (1, 1, 2)), Weight(4, (0, 0, 1))),
]


@pytest.mark.parametrize("pair", REFERENCE_PAIRS, ids=lambda p: f"{p[0]}x{p[1]}")
@settings(deadline=None, max_examples=5)
@given(c1=POINTS, c2=POINTS)
def test_fusion_graded_matches_reference_t_action(pair, c1, c2):
    assume(c1 != c2)
    # the first factor is rescaled, so f has denominators there and the
    # integer scaling of the lowering maps is exercised
    m1, m2 = rescaled(build_irrep(pair[0])), build_irrep(pair[1])
    assert any(c.denominator > 1 for cols in m1.f for col in cols for _, c in col)
    graded = fusion_graded(m1, c1, m2, c2)
    assert {s: character_of(dm) for s, dm in graded.slices()} == (
        reference_degree_characters(m1, Fraction(c1), m2, Fraction(c2))
    )


def sorted_entries(g):
    return sorted((s, tau.coords, m) for (s, tau), m in g.entries.items())


def test_fusion_sweep_entries_pinned():
    # the graded entries of the 76 pairs of criteria 6-7, pinned by one digest
    digest = hashlib.sha256()
    for lam1, lam2 in _fusion_pairs():
        g = fusion_graded(build_irrep(lam1), 0, build_irrep(lam2), 1)
        digest.update(repr((lam1.coords, lam2.coords, sorted_entries(g))).encode())
    assert digest.hexdigest() == (
        "463e794dff853f1087c0028e1f58ef1990e1d3b1d2553c3e1eec84e1417c194b"
    )


@pytest.mark.parametrize(
    "lam1, lam2, cap, expected",
    [
        (
            Weight(3, (4, 4)),
            Weight(3, (4, 4)),
            DEFAULT_DIM_CAP,
            "41bb8e42e32aed2d9e10496601f6b33e193adc9c876d07aabb1743204b2f1d0f",
        ),
        (
            Weight(5, (1, 1, 1, 1)),
            Weight(5, (1, 0, 0, 1)),
            1024,
            "f1409736e8e283ac98d5260b6e554cc56712854c4b6a6ce93a39378987ce3829",
        ),
    ],
    ids=["sl3-(4,4)x(4,4)", "sl5-(1,1,1,1)x(1,0,0,1)"],
)
def test_fusion_frontier_entries_pinned(lam1, lam2, cap, expected):
    # 15,625 and 24,576 dimensions: the pairs where most non-dominant weights
    # stop at their orbit's dimension before their tensor weight dimension
    g = fusion_graded(build_irrep(lam1, cap), 0, build_irrep(lam2, cap), 1)
    assert g.dimension() == weyl_dim(lam1) * weyl_dim(lam2)
    digest = hashlib.sha256(repr(sorted_entries(g)).encode()).hexdigest()
    assert digest == expected


def test_fusion_sl4_frozen():
    g = fusion_graded(
        build_irrep(Weight(4, (1, 1, 1))), 0, build_irrep(Weight(4, (1, 0, 1))), 1
    )
    assert g.dimension() == 960
    assert sorted_entries(g) == [
        (0, (2, 1, 2), 1),
        (1, (0, 2, 2), 1),
        (1, (1, 0, 3), 1),
        (1, (1, 1, 1), 1),
        (1, (2, 2, 0), 1),
        (1, (3, 0, 1), 1),
        (2, (0, 0, 2), 1),
        (2, (0, 1, 0), 1),
        (2, (0, 3, 0), 1),
        (2, (1, 1, 1), 2),
        (2, (2, 0, 0), 1),
    ]


def test_fusion_adjoint_squared_graded_frozen():
    g = fusion_graded(build_irrep(Weight(3, (1, 1))), 0, build_irrep(Weight(3, (1, 1))), 1)
    assert g.entries == {
        (0, Weight(3, (2, 2))): 1,
        (1, Weight(3, (3, 0))): 1,
        (1, Weight(3, (0, 3))): 1,
        (1, Weight(3, (1, 1))): 1,
        (2, Weight(3, (1, 1))): 1,
        (2, Weight.zero(3)): 1,
    }


def test_graded_decomposition_json():
    g = fusion_graded(build_irrep(Weight(3, (1, 1))), 0, build_irrep(Weight(3, (1, 0))), 1)
    payload = g.to_json()
    assert payload["n"] == 3
    # the factors are not part of the graded result; the CLI adds them
    assert list(payload) == ["n", "slices"]
    assert payload["slices"][0]["degree"] == 0


def test_graded_decomposition_validation():
    with pytest.raises(ValueError):
        GradedDecomposition(3, {(0, Weight(3, (1, 1))): 0})
    with pytest.raises(ValueError):
        GradedDecomposition(3, {(-1, Weight(3, (1, 1))): 1})
    with pytest.raises(ValueError):
        GradedDecomposition(3, {(0, Weight(3, (-1, 1))): 1})
    # a coordinate tuple in place of a Weight, as DecompositionMap rejects it
    with pytest.raises(ValueError, match="does not key a Weight"):
        GradedDecomposition(3, {(0, (1, 0)): 1})
    # keys that are not (degree, Weight) pairs
    w = Weight(3, (1, 0))
    for entries in ({5: 1}, {(0, w, 1): 1}, {(w,): 1}, {"ab": 1}, {(0, w): 1, 7: 1}):
        with pytest.raises(ValueError, match="keys are \\(degree, Weight\\) pairs"):
            GradedDecomposition(3, entries)
