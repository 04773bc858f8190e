"""Command-line surface: output shapes, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slnfusion
from slnfusion.cases import CaseReport
from slnfusion.cli import main
from slnfusion.fusion import GradedDecomposition, build_irrep, fusion_graded
from slnfusion.poset import (
    PosetReport,
    WeylModulePrediction,
    poset_report,
    weyl_character_prediction,
)
from slnfusion.tensor import DecompositionMap, lr_coefficients
from slnfusion.typea import Weight


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_lr_text(capsys):
    code, out = run(capsys, "lr", "--n", "3", "--l", "1,0", "--m", "0,1")
    assert code == 0
    assert "(1,1)" in out
    assert "(0,0)" in out
    assert "total dimension 9" in out


def test_lr_json_round_trip(capsys):
    code, out = run(capsys, "lr", "--n", "3", "--l", "1,0", "--m", "0,1", "--format", "json")
    assert code == 0
    parsed = DecompositionMap.from_json(json.loads(out))
    assert parsed == lr_coefficients(Weight(3, (1, 0)), Weight(3, (0, 1)))


def test_points_count_anchor(capsys):
    code, out = run(capsys, "points", "--n", "3", "--l", "1,1", "--m", "1,1")
    assert code == 0
    assert "8 lattice points" in out


def test_points_with_explicit_bounds(capsys):
    code, out = run(
        capsys, "points", "--n", "3", "--bounds", "1,1,0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["bounds"] == [1, 1, 0]


def test_points_requires_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["points", "--n", "3"])
    assert exc.value.code == 2


def test_dyck_json(capsys):
    code, out = run(capsys, "dyck", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["paths"]) == 6
    assert len(payload["inequalities"]) == 3


def test_dyck_no_prune_lists_every_path(capsys):
    code, out = run(capsys, "dyck", "--n", "4", "--no-prune", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["paths"]) == 24
    assert [ineq["support"] for ineq in payload["inequalities"]] == payload["paths"]
    code, out = run(capsys, "dyck", "--n", "4", "--no-prune")
    assert code == 0
    assert "24 inequalities:" in out
    assert "  x[1,2] <= a[1,2]" in out


def test_closed_stdout_exits_1_without_traceback():
    # about 0.5 MB of output, far more than a pipe buffers, so the command is
    # still writing when the reader closes the pipe after one line
    env = dict(os.environ, PYTHONPATH=str(Path(slnfusion.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "slnfusion", "dyck", "--n", "8", "--no-prune"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"2938 Dyck paths for n=8:\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 1


def test_hw_candidates(capsys):
    code, out = run(capsys, "hw-candidates", "--n", "3", "--l", "1,0", "--m", "0,1")
    assert code == 0
    assert "2 dominant-weight points" in out


def test_case_json_round_trip(capsys):
    code, out = run(
        capsys, "case", "--tag", "sl2", "--m-max", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    reports = [CaseReport.from_json(item) for item in payload]
    assert reports
    assert all(r.equal for r in reports)


def test_fusion_json_round_trip(capsys):
    code, out = run(
        capsys, "fusion", "--n", "3", "--l", "1,1", "--m", "1,0", "--format", "json"
    )
    assert code == 0
    parsed = GradedDecomposition.from_json(json.loads(out))
    expected = fusion_graded(
        build_irrep(Weight(3, (1, 1))), 0, build_irrep(Weight(3, (1, 0))), 1
    )
    assert parsed == expected


def test_fusion_cap_exit(capsys):
    code = main(["fusion", "--n", "3", "--l", "4,4", "--m", "3,3", "--cap", "100"])
    captured = capsys.readouterr()
    assert code == 1
    assert "dimension cap exceeded" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fusion", "--n", "2", "--l", "2", "--m", "1", "--cap", "0"],
         "argument --cap: must be at least 1, got 0"),
        (["verify", "--cap", "-3"], "argument --cap: must be at least 1, got -3"),
        (["lr", "--n", "1", "--l", "1", "--m", "1"],
         "argument --n: must be at least 2, got 1"),
        (["poset", "--n", "0", "--l", "1"], "argument --n: must be at least 2, got 0"),
    ],
    ids=["fusion --cap 0", "verify --cap -3", "lr --n 1", "poset --n 0"],
)
def test_cap_and_rank_below_range_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# every (tag, range flag) pair whose range the tag's sweep does not read
UNREAD_RANGES = [
    ("sl2", "--n-values", "9"),
    ("sl2", "--coord-max", "7"),
    ("sl2", "--k-max", "5"),
    ("rectangular", "--coord-max", "7"),
    ("rectangular", "--k-max", "5"),
    ("pieri-row", "--m-max", "5"),
    ("pieri-column", "--m-max", "5"),
    ("pieri-column", "--k-max", "5"),
    ("large", "--m-max", "5"),
    ("large", "--k-max", "5"),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "1"],
        ["lr", "--n", "3", "--l", "1,0,0", "--m", "0,1"],
        ["points", "--n", "3"],
        ["points", "--n", "3", "--bounds", "1,1,0", "--l", "1,0"],
        ["points", "--n", "3", "--bounds", "1,1,0", "--m", "1,1"],
        *(["case", "--tag", tag, flag, value] for tag, flag, value in UNREAD_RANGES),
    ],
    ids=[
        "verify --n-max 1",
        "lr --l 1,0,0",
        "points without bounds",
        "points --bounds --l",
        "points --bounds --m",
        *(f"case --tag {tag} {flag}" for tag, flag, _ in UNREAD_RANGES),
    ],
)
def test_usage_errors_show_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: slnfusion {argv[0]} ")
    assert f"slnfusion {argv[0]}: error: " in err


def test_verify_cap_reaches_fusion_sweep(capsys):
    # the fusion sweep of criteria 6 and 7 builds sl_3 modules of dimension 27
    # and more; the checks that stay under the cap still pass and print
    cap_detail = (
        "dimension cap exceeded: V(2,2) has dimension 27, above the construction cap 20"
    )
    code, out = run(capsys, "verify", "--cap", "20")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 11 and lines[-1] == "FAILURES PRESENT"
    for number, line in enumerate(lines[:10], start=1):
        if number in (6, 7):
            assert line.startswith("[FAIL] ") and f": {cap_detail} (" in line, line
        else:
            assert line.startswith("[PASS] "), line
    code, out = run(capsys, "verify", "--cap", "20", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert [entry["name"] for entry in payload] == [
        "sl2-theorem",
        "rectangular-theorem",
        "pieri-theorems",
        "large-pair-theorem",
        "ffol-count",
        "fusion-oracle",
        "sandwich",
        "poset-axioms",
        "schur-positivity",
        "weyl-prediction",
    ]
    failed = [entry for entry in payload if not entry["passed"]]
    assert [entry["name"] for entry in failed] == ["fusion-oracle", "sandwich"]
    assert all(entry["detail"] == cap_detail for entry in failed)


def test_fusion_has_no_point_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fusion", "--n", "2", "--l", "2", "--m", "1", "--c1", "1/2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "1"],
        ["verify", "--coord-max", "-1"],
        ["case", "--tag", "rectangular", "--n-values", "3,1"],
        ["case", "--tag", "large", "--coord-max", "-1"],
        ["case", "--tag", "sl2", "--m-max", "-1"],
        ["case", "--tag", "pieri-row", "--k-max", "-1"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]} {argv[-1]}",
)
def test_sweep_limits_that_check_nothing_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_poset_json_round_trip(capsys):
    code, out = run(capsys, "poset", "--n", "2", "--l", "4", "--format", "json")
    assert code == 0
    parsed = PosetReport.from_json(json.loads(out))
    assert parsed == poset_report(Weight(2, (4,)))


def test_weyl_json_round_trip(capsys):
    code, out = run(capsys, "weyl", "--n", "3", "--l", "2,1", "--format", "json")
    assert code == 0
    parsed = WeylModulePrediction.from_json(json.loads(out))
    assert parsed == weyl_character_prediction(Weight(3, (2, 1)))


def test_weight_parse_errors(capsys):
    for argv in (
        ["lr", "--n", "3", "--l", "1,0,0", "--m", "0,1"],
        ["lr", "--n", "3", "--l", "a,b", "--m", "0,1"],
        ["lr", "--n", "3", "--l", "-1,0", "--m", "0,1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
