"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = [name for name, (unit, _, _) in tracing.PER_LAYER.items() if unit in ("count", "ratio")]


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0,100] has children [10,30], [20,40] (overlapping, as only a
    # synthetic trace can) and [50,60], which has the grandchild [52,58]
    starts = [0, 10, 50, 52, 20]
    ends = [100, 30, 60, 58, 40]
    parents = [-1, 0, 0, 2, 0]
    assert tracing.self_times(starts, ends, parents) == [60, 20, 4, 6, 20]


def test_nested_calls_of_one_name_count_once_in_total_time():
    tracer = tracing.Tracer()
    tracer.names = ["tensor.lr_coefficients", "tensor.lr_coefficients", "typea.weight_multiplicities"]
    tracer.starts = [0, 1_000_000_000, 2_000_000_000]
    tracer.ends = [4_000_000_000, 3_000_000_000, 2_500_000_000]
    tracer.parents = [-1, 0, 1]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["tensor.lr_coefficients.calls"] == (2, "count")
    assert metrics["tensor.lr_coefficients.s"] == (4.0, "s")
    assert metrics["typea.weight_multiplicities.s"] == (0.5, "s")
    assert metrics["fusion.build_irrep.calls"] == (0, "count")


def _bindings() -> dict:
    out = {}
    for mod in tracing.slnfusion_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    linalg = sys.modules["slnfusion.linalg"]
    for cls in (linalg.RationalRowBasis, linalg.IntegerRowSpan):
        for key, value in vars(cls).items():
            out[(cls.__qualname__, key)] = value
    return out


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_traced_pass_restores_every_name_and_untraced_pass_patches_nothing():
    expected = json.loads(run.DIGESTS.read_text())["fusion"]
    lib = run.import_library()
    ops = workloads.build_ops(lib, "fusion", 0, "tiny")
    before = _bindings()
    errors: list = []

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lib.fusion.fusion_graded is not before[("slnfusion.fusion", "fusion_graded")]
        assert run.run_pass(ops, expected, errors)[1] == 0, errors
    finally:
        tracer.uninstall()
    assert _same(_bindings(), before)
    assert set(tracer.names) == {
        f"{module}.{qualname}"
        for module, qualname in tracing.TARGETS
        if module in ("typea", "tensor", "linalg", "fusion")
    }

    assert run.run_pass(ops, expected, errors)[1] == 0, errors
    assert _same(_bindings(), before)


def test_per_layer_table_matches_benchmark_json():
    listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert listed == {name: (unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_in_benchmark_json_is_reported(trace, section):
    record = run.measure("polytope", 0, 0, trace, size="tiny")
    reported = {name: m["unit"] for name, m in record["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    record = run.measure(workload, 3, 0, False, size="tiny")
    assert record["correct"] and record["failed"] == 0, record["errors"]
    assert record["attempted"] >= 1
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_counts_repeat_exactly_at_one_seed():
    first, second = (run.measure("fusion", 5, 0, True, size="tiny") for _ in range(2))
    values = [{name: r["metrics"][name]["value"] for name in COUNTS} for r in (first, second)]
    assert values[0] == values[1]
    assert values[0]["fusion.fusion_graded.calls"] == 2


def test_changed_output_counts_as_a_failed_operation():
    lib = run.import_library()
    ops = workloads.build_ops(lib, "posets", 0, "tiny")
    expected = dict(json.loads(run.DIGESTS.read_text())["posets"])
    expected[ops[0].key] = "0" * 16
    errors: list = []
    assert run.run_pass(ops, expected, errors)[1] == 1
    assert "digest" in errors[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fusion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
