"""Benchmark of the slnfusion layers: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload fusion --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; slnfusion is imported from `src/`.
A pass imports slnfusion afresh (so every cache starts empty, as it does for
a command-line user), builds the workload's inputs, and runs its fixed list
of checked operations.  With `--trace 0` passes repeat until the next one
would overrun `--seconds` (at least one runs), and the end-to-end metrics
are reported: the median pass time `wall_s`, the median set-up time
`setup_s` (import plus input generation, taken at least SETUP_SAMPLES
times), and `peak_rss_mb`.  With `--trace 1` untraced and traced passes
alternate within `--seconds` (at least one of each), and the per-layer
metrics of the traced passes are reported (see tracing.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A full results file, with
the environment and every pass, goes to `.perfbench_out/` in the checkout,
and the spans of the last traced pass beside it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("typea", "tensor", "dyck", "cases", "linalg", "fusion", "poset")
SETUP_SAMPLES = 11


def import_library():
    """Import slnfusion from SRC afresh, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "slnfusion" or n.startswith("slnfusion.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("slnfusion")
    if Path(package.__file__).resolve().parent != SRC / "slnfusion":
        raise ImportError(f"slnfusion was imported from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"slnfusion.{layer}") for layer in LAYERS}
    )


def set_up(workload: str, seed: int, size: str):
    """Fresh import plus input generation; returns (seconds, lib, ops)."""
    t0 = time.perf_counter()
    lib = import_library()
    ops = workloads.build_ops(lib, workload, seed, size)
    return time.perf_counter() - t0, lib, ops


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(ops, expected: dict, errors: list) -> tuple[float, int]:
    """Run every operation, check its output and compare its digest with
    `expected`; returns (seconds, failures)."""
    failed = 0
    t0 = time.perf_counter()
    for op in ops:
        try:
            ok, text = op.run()
            if expected.get(op.key) != digest(text):
                errors.append(f"{op.key}: output digest differs from the frozen one")
                ok = False
            elif not ok:
                errors.append(f"{op.key}: output check failed")
        except Exception:
            errors.append(f"{op.key}: {traceback.format_exc()}")
            ok = False
        failed += not ok
    return time.perf_counter() - t0, failed


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run the workload and return the results record."""
    expected = json.loads(DIGESTS.read_text())[workload]
    errors: list[str] = []
    started = time.perf_counter()
    setups, walls = [], []
    attempted = failed = 0
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "size": size,
                    "trace": int(trace), "environment": environment()}

    def one_pass(tracer=None):
        nonlocal attempted, failed
        setup_s, lib, ops = set_up(workload, seed, size)
        setups.append(setup_s)
        if tracer is not None:
            tracer.install()
        try:
            wall, bad = run_pass(ops, expected, errors)
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls.append(wall)
        attempted += len(ops)
        failed += bad
        del lib, ops
        gc.collect()
        return wall

    def time_left(passes: int) -> bool:
        elapsed = time.perf_counter() - started
        return elapsed + sum(setups[-passes:]) + sum(walls[-passes:]) <= seconds

    if trace:
        # untraced and traced passes alternate; each metric is the (lower)
        # median over the traced passes, and the overhead compares the
        # median traced and untraced pass times
        untraced, traced, per_pass = [], [], []
        while True:
            untraced.append(one_pass())
            tracer = tracing.Tracer()
            traced.append(one_pass(tracer))
            per_pass.append(tracing.layer_metrics(tracer))
            if not time_left(2):
                break
        metrics = {
            name: (statistics.median_low(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{workload}-spans.tsv")
    else:
        while True:
            one_pass()
            if not time_left(1):
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(set_up(workload, seed, size)[0])
            gc.collect()
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    record.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        pass_wall_s=walls,
        setup_samples_s=setups,
        errors=errors[:20],
        metrics={name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slnfusion" / "__init__.py").is_file():
        print(f"error: no slnfusion sources under {SRC}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for err in record["errors"]:
        print(err, file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {record['fail_frac']:.6g} ({record['failed']}/{record['attempted']})")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
