"""How `run_all` hands its sweep limits to the checks, and what the checks
catch."""

from slnfusion import suite
from slnfusion.fusion import GradedDecomposition


def test_run_all_forwards_limits(monkeypatch):
    calls = {}

    def recorder(name, results=1):
        def check(*args, **kwargs):
            assert not args
            calls[name] = kwargs
            found = tuple(suite.CheckResult(name, True, "", 0.0) for _ in range(results))
            return found if results > 1 else found[0]

        return check

    for name in suite.__all__:
        if name.startswith("check_"):
            monkeypatch.setattr(suite, name, recorder(name))
    monkeypatch.setattr(suite, "check_fusion", recorder("check_fusion", results=2))
    results = suite.run_all(n_max=3, coord_max=1, dim_cap=50)
    assert len(results) == 10
    assert calls == {
        "check_sl2": {"dim_cap": 50},
        "check_rectangular": {},
        "check_pieri": {},
        "check_large": {},
        "check_ffol": {"n_max": 3, "coord_max": 1},
        "check_fusion": {"dim_cap": 50},
        "check_poset": {"n_max": 3, "coord_max": 1},
        "check_schur": {"n_max": 3, "coord_max": 1},
        "check_weyl": {"n_max": 3, "coord_max": 1, "dim_cap": 50},
    }


def test_check_sl2_compares_full_grading(monkeypatch):
    # swapping degrees 0 and 1 keeps the ungraded collapse and the top degree,
    # so only a comparison of the full graded entries sees it
    real = suite.fusion_graded

    def swapped(*args):
        graded = real(*args)
        if graded.max_degree == 0:
            return graded
        swap = {0: 1, 1: 0}
        return GradedDecomposition(
            n=graded.n,
            lambda1=graded.lambda1,
            lambda2=graded.lambda2,
            entries={(swap.get(s, s), tau): m for (s, tau), m in graded.entries.items()},
        )

    assert suite.check_sl2().passed
    monkeypatch.setattr(suite, "fusion_graded", swapped)
    result = suite.check_sl2()
    assert not result.passed
    # the 21 pairs with m2 >= 1 have a degree 1
    assert result.detail.startswith("21 failures: [('fusion', 1, 1), ")


def test_check_sl2_meets_the_cap():
    # V(6) has dimension 7
    result = suite.check_sl2(dim_cap=6)
    assert not result.passed
    assert result.detail == (
        "dimension cap exceeded: V(6) has dimension 7, above the construction cap 6"
    )
