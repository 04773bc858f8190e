"""Explicit modules, character peeling, and graded fusion products."""

import dataclasses
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from slnfusion.fusion import (
    DEFAULT_DIM_CAP,
    DimensionCapError,
    GradedDecomposition,
    build_irrep,
    fusion_graded,
    peel_character,
)
from slnfusion.linalg import RationalRowBasis
from slnfusion.tensor import DecompositionMap, lr_coefficients
from slnfusion.typea import Weight, weight_multiplicities, weyl_dim

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


def test_build_irrep_sl2_frozen():
    m = build_irrep(Weight(2, (2,)))
    assert m.dim == 3
    assert [w.coords for w in m.weights] == [(2,), (0,), (-2,)]
    assert m.h[0] == (2, 0, -2)


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


def test_build_irrep_one_cache_key():
    lam = Weight(3, (2, 1))
    assert build_irrep(lam) is build_irrep(lam, DEFAULT_DIM_CAP)
    assert build_irrep(lam, 10_000) is build_irrep(lam)
    # a cached module is still refused under a cap below its dimension
    with pytest.raises(DimensionCapError) as exc:
        build_irrep(lam, weyl_dim(lam) - 1)
    assert exc.value.dim == weyl_dim(lam)


def test_weight_spaces_match_freudenthal():
    for lam in SAMPLE_MODULES:
        m = build_irrep(lam)
        assert m.weight_space_dims() == weight_multiplicities(lam)
        assert m.dim == weyl_dim(lam)


def test_highest_weight_vector():
    for lam in SAMPLE_MODULES:
        m = build_irrep(lam)
        assert m.weights[0] == lam
        for k in range(1, lam.n):
            assert m.apply("e", k, {0: Fraction(1)}) == {}


def test_bracket_identities():
    # [e_k, f_l] = delta_kl h_k and [h_k, e_l] = <alpha_l, k> e_l on every
    # basis vector
    for lam in SAMPLE_MODULES:
        m = build_irrep(lam)
        n = lam.n
        for idx in range(m.dim):
            v = {idx: Fraction(1)}
            for k in range(1, n):
                for l in range(1, n):
                    ef = m.apply("e", k, m.apply("f", l, v))
                    fe = m.apply("f", l, m.apply("e", k, v))
                    bracket = {
                        i: ef.get(i, 0) - fe.get(i, 0)
                        for i in set(ef) | set(fe)
                        if ef.get(i, 0) != fe.get(i, 0)
                    }
                    expected = m.apply("h", k, v) if k == l else {}
                    assert bracket == expected
                for l in range(1, n):
                    he = m.apply("h", k, m.apply("e", l, v))
                    eh = m.apply("e", l, m.apply("h", k, v))
                    diff = {
                        i: he.get(i, 0) - eh.get(i, 0)
                        for i in set(he) | set(eh)
                        if he.get(i, 0) != eh.get(i, 0)
                    }
                    cartan = 2 if k == l else (-1 if abs(k - l) == 1 else 0)
                    ev = m.apply("e", l, v)
                    expected = {i: cartan * c for i, c in ev.items() if cartan * c}
                    assert diff == expected


def _combination(*terms):
    """Sum of c * vec over the (c, vec) terms, zero entries dropped."""
    out = {}
    for c, vec in terms:
        for i, v in vec.items():
            out[i] = out.get(i, 0) + c * v
    return {i: v for i, v in out.items() if v}


def test_serre_relations():
    # x_k^2 x_l - 2 x_k x_l x_k + x_l x_k^2 = 0 for |k - l| = 1, and
    # x_k x_l = x_l x_k for |k - l| >= 2, for x = e and x = f, on every basis
    # vector
    for lam in SAMPLE_MODULES:
        m = build_irrep(lam)
        n = lam.n
        for which in ("e", "f"):

            def word(v, *ks):
                for k in reversed(ks):
                    v = m.apply(which, k, v)
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
                    assert relation == {}, (lam, which, k, l, idx)


def test_build_irrep_near_cap():
    # V(6,6) of sl_3 has dimension 343, just under the default cap; every
    # module of its recursion is smaller still
    lam = Weight(3, (6, 6))
    assert weyl_dim(lam) <= DEFAULT_DIM_CAP
    t0 = time.perf_counter()
    m = build_irrep(lam)
    elapsed = time.perf_counter() - t0
    assert m.weight_space_dims() == weight_multiplicities(lam)
    assert elapsed < 10, f"V(6,6) took {elapsed:.1f}s, budget 10s"


def test_peel_character_examples():
    doubled = {w: 2 * m for w, m in weight_multiplicities(Weight(3, (1, 0))).items()}
    assert peel_character(doubled).entries == {Weight(3, (1, 0)): 2}

    conv = {}
    for mu1, k1 in weight_multiplicities(Weight(3, (1, 0))).items():
        for mu2, k2 in weight_multiplicities(Weight(3, (0, 1))).items():
            conv[mu1 + mu2] = conv.get(mu1 + mu2, 0) + k1 * k2
    assert peel_character(conv).entries == {
        Weight(3, (1, 1)): 1,
        Weight.zero(3): 1,
    }


def test_peel_character_rejects_non_characters():
    with pytest.raises(ValueError):
        peel_character({Weight(3, (1, 0)): -1})
    with pytest.raises(ValueError):
        peel_character({})
    # dominant top but the orbit is missing: subtraction must go negative
    with pytest.raises(ValueError):
        peel_character({Weight(3, (1, 0)): 1, Weight(3, (-1, 1)): 0})
    # maximal support weight not dominant
    with pytest.raises(ValueError):
        peel_character({Weight(3, (-1, 1)): 1})


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
    assert peel_character(character_of(dm)) == dm


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
    """m in the basis d_i v_i, d_i = 1 + i mod 3: every generator x becomes
    D^-1 x D, so integral generator matrices get denominators 2 and 3."""
    d = [1 + i % 3 for i in range(m.dim)]

    def conjugate(mats):
        return tuple(
            tuple(
                tuple((r, c * Fraction(d[col], d[r])) for r, c in entries)
                for col, entries in enumerate(cols)
            )
            for cols in mats
        )

    return dataclasses.replace(m, e=conjugate(m.e), f=conjugate(m.f))


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
    index a * m2.dim + b), one factor at a time through ExplicitModule.apply."""
    d2 = m2.dim
    out = {}
    for idx, v in vec.items():
        a, b = divmod(idx, d2)
        for r, c in m1.apply("f", k, {a: v}).items():
            out[r * d2 + b] = out.get(r * d2 + b, 0) + x1 * c
        for r, c in m2.apply("f", k, {b: v}).items():
            out[a * d2 + r] = out.get(a * d2 + r, 0) + x2 * c
    return {i: c for i, c in out.items() if c}


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
    assert payload["lambda1"] == [1, 1]
    assert payload["slices"][0]["degree"] == 0


def test_graded_decomposition_validation():
    with pytest.raises(ValueError):
        GradedDecomposition(3, Weight(3, (1, 0)), Weight(3, (0, 1)),
                            {(0, Weight(3, (1, 1))): 0})
    with pytest.raises(ValueError):
        GradedDecomposition(3, Weight(3, (1, 0)), Weight(3, (0, 1)),
                            {(-1, Weight(3, (1, 1))): 1})
    with pytest.raises(ValueError):
        GradedDecomposition(3, Weight(3, (1, 0)), Weight(3, (0, 1)),
                            {(0, Weight(3, (-1, 1))): 1})
