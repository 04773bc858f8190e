"""Command-line surface: output shapes, exit codes, JSON payloads."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slnfusion
from slnfusion.cases import verify_case
from slnfusion.cli import main
from slnfusion.fusion import build_irrep, fusion_graded
from slnfusion.poset import poset_report, weyl_character_prediction
from slnfusion.tensor import lr_coefficients
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


@pytest.mark.parametrize(
    "argv, result",
    [
        (["lr", "--n", "3", "--l", "1,0", "--m", "0,1"],
         lambda: lr_coefficients(Weight(3, (1, 0)), Weight(3, (0, 1))).to_json()),
        (["case", "--tag", "sl2", "--m-max", "2"],
         lambda: [r.to_json() for r in verify_case("sl2", m_max=2)]),
        (["fusion", "--n", "3", "--l", "1,1", "--m", "1,0"],
         lambda: fusion_graded(
             build_irrep(Weight(3, (1, 1))), 0, build_irrep(Weight(3, (1, 0))), 1
         ).to_json()),
        (["poset", "--n", "2", "--l", "4"],
         lambda: poset_report(Weight(2, (4,))).to_json()),
        (["weyl", "--n", "3", "--l", "2,1"],
         lambda: weyl_character_prediction(Weight(3, (2, 1))).to_json()),
    ],
    ids=["lr", "case", "fusion", "poset", "weyl"],
)
def test_json_output_is_the_library_payload(capsys, argv, result):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == result()


# sha256 of the `--format json` stdout of one small input per subcommand
# (all but `verify`, whose payload carries timings); a change to any payload
# shape or value shows here
JSON_DIGESTS = [
    (["lr", "--n", "3", "--l", "1,0", "--m", "0,1"],
     "f9834f65a929730eaa3307b6a79601c05a8f30fb318260b18f9f8a5d7230ce1e"),
    (["dyck", "--n", "3"],
     "bd5ecc6cc6c1a4206d963de39d8615d85dc428c7b78aee8b6715472b1d6ccec8"),
    (["points", "--n", "3", "--l", "1,1", "--m", "1,0"],
     "ac37f1ec16d05b4d72e08a4ac8ef5c5ae8f2f55b2325427391834022e2232cc9"),
    (["hw-candidates", "--n", "3", "--l", "1,1", "--m", "1,1"],
     "9130bcf41cc4409828efe49e358db891bbef33ceb8cb9634e54b5d54a94cca02"),
    (["case", "--tag", "sl2", "--m-max", "2"],
     "3e24b69d9389ad8465a153e96cf7e0dc05f60d52af446230e1b4115343178662"),
    (["fusion", "--n", "3", "--l", "1,1", "--m", "1,0"],
     "be041d27a9288abeb3b5c4b04ca039bbeab7a3bd67926275b454e8b0d1ca2227"),
    (["poset", "--n", "3", "--l", "1,1"],
     "3893cd163d1f9bacd8b3f42fb5cb82959dca61fd4dd571ca69e97aa5288ccdc7"),
    (["weyl", "--n", "3", "--l", "1,1"],
     "9e4066ad6ef14f0cd3f431b26559e2f0c9b86e70096ffd8b2bbbf910e0332d69"),
]


@pytest.mark.parametrize(
    "argv, digest", JSON_DIGESTS, ids=[argv[0] for argv, _ in JSON_DIGESTS]
)
def test_json_output_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_closed_stdout_exits_1_without_traceback():
    # about 0.3 MB of output, far more than a pipe buffers, so the command is
    # still writing when the reader closes the pipe after one line
    env = dict(os.environ, PYTHONPATH=str(Path(slnfusion.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "slnfusion", "dyck", "--n", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline() == b"2938 Dyck paths for n=8:\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1


def test_hw_candidates(capsys):
    code, out = run(capsys, "hw-candidates", "--n", "3", "--l", "1,0", "--m", "0,1")
    assert code == 0
    assert "2 dominant-weight points" in out


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
