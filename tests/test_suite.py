"""How `run_all` hands its sweep limits to the checks."""

from slnfusion import suite


def test_run_all_forwards_limits(monkeypatch):
    calls = {}

    def recorder(name):
        def check(*args, **kwargs):
            calls[name] = kwargs
            return suite.CheckResult(name, True, "", 0.0)

        return check

    for name in suite.__all__:
        if name.startswith("check_"):
            monkeypatch.setattr(suite, name, recorder(name))
    fusion_result = suite.CheckResult("fusion-oracle", True, "", 0.0)

    def check_fusion(**kwargs):
        calls["check_fusion"] = kwargs
        return fusion_result, {}

    monkeypatch.setattr(suite, "check_fusion", check_fusion)
    results = suite.run_all(n_max=3, coord_max=1, dim_cap=50)
    assert len(results) == 10
    assert calls["check_fusion"] == {"dim_cap": 50}
    assert calls["check_ffol"] == {"n_max": 3, "coord_max": 1}
    assert calls["check_poset"] == {"n_max": 3, "coord_max": 1}
    assert calls["check_schur"] == {"n_max": 3, "coord_max": 1}
    assert calls["check_weyl"] == {"n_max": 3, "coord_max": 1, "dim_cap": 50}
