"""Spans around the public functions of the slnfusion layers.

`Tracer.install` replaces each target function, in every loaded slnfusion
module that binds it, with a wrapper that records one span per call (name,
start, end, parent) and a few counts taken from the call's result.  Spans
stay in memory until `write_spans`.  `uninstall` binds every name to its
original function again.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

# (module, qualified name) of every wrapped function; span names are
# "<module>.<qualified name>".
TARGETS = (
    ("typea", "weight_multiplicities"),
    ("tensor", "lr_coefficients"),
    ("dyck", "bounds_from_pair"),
    ("dyck", "lattice_points"),
    ("dyck", "dominant_points"),
    ("cases", "verify_case"),
    ("linalg", "RationalRowBasis.insert"),
    ("linalg", "RationalRowBasis.coordinates"),
    ("linalg", "IntegerRowSpan.insert"),
    ("fusion", "build_irrep"),
    ("fusion", "fusion_graded"),
    ("fusion", "peel_character"),
    ("poset", "order_leq"),
    ("poset", "poset_report"),
    ("poset", "weyl_character_prediction"),
)

# Per-layer metric -> (unit, better, the end-to-end metric and workload it
# should move).
PER_LAYER = {
    "fusion.fusion_graded.self_s": ("s", "lower", "wall_s on fusion"),
    "fusion.fusion_graded.calls": ("count", "lower", "wall_s on fusion"),
    "fusion.stages": ("count", "lower", "wall_s on fusion"),
    "fusion.peel_character.s": ("s", "lower", "wall_s on fusion"),
    "fusion.build_irrep.s": ("s", "lower", "wall_s on fusion"),
    "fusion.build_irrep.calls": ("count", "lower", "wall_s on fusion"),
    "linalg.RationalRowBasis.insert.s": ("s", "lower", "wall_s on fusion"),
    "linalg.RationalRowBasis.coordinates.s": ("s", "lower", "wall_s on fusion"),
    "linalg.IntegerRowSpan.insert.calls": (
        "count", "lower", "wall_s and peak_rss_mb on fusion"),
    "linalg.IntegerRowSpan.insert.s": (
        "s", "lower", "wall_s and peak_rss_mb on fusion"),
    "linalg.IntegerRowSpan.accept_ratio": (
        "ratio", "higher", "wall_s and peak_rss_mb on fusion"),
    "dyck.lattice_points.calls": ("count", "lower", "wall_s on polytope"),
    "dyck.lattice_points.s": ("s", "lower", "wall_s on polytope"),
    "dyck.points_enumerated": ("count", "lower", "wall_s on polytope"),
    "dyck.points_per_s": ("1/s", "higher", "wall_s on polytope"),
    "dyck.dominant_points.s": ("s", "lower", "wall_s on polytope"),
    "dyck.dominant_keep_ratio": ("ratio", "higher", "wall_s on polytope"),
    "dyck.bounds_from_pair.calls": ("count", "lower", "wall_s on posets"),
    "dyck.bounds_from_pair.s": ("s", "lower", "wall_s on posets"),
    "poset.poset_report.self_s": ("s", "lower", "wall_s on posets"),
    "poset.order_leq.calls": ("count", "lower", "wall_s on posets"),
    "poset.weyl_character_prediction.s": ("s", "lower", "wall_s on posets"),
    "tensor.lr_coefficients.calls": (
        "count", "lower", "wall_s and peak_rss_mb on posets"),
    "tensor.lr_coefficients.s": ("s", "lower", "wall_s and peak_rss_mb on posets"),
    "tensor.lr_coefficients.repeat_ratio": (
        "ratio", "higher", "wall_s and peak_rss_mb on posets"),
    "typea.weight_multiplicities.calls": (
        "count", "lower", "wall_s and peak_rss_mb on posets"),
    "typea.weight_multiplicities.s": (
        "s", "lower", "wall_s and peak_rss_mb on posets"),
    "cases.verify_case.self_s": ("s", "lower", "wall_s and peak_rss_mb on posets"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s"),
}


def slnfusion_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "slnfusion" or name.startswith("slnfusion."))
    ]


class Tracer:
    """Records a span per wrapped call; one thread, so spans nest strictly."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._lr_args: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the loaded slnfusion modules."""
        modules = slnfusion_modules()
        for module, qualname in TARGETS:
            mod = sys.modules[f"slnfusion.{module}"]
            owner_name, _, attr = qualname.rpartition(".")
            name = f"{module}.{qualname}"
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                self._bind(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    self._bind(m, key, original, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if observe is not None:
                observe(sid, args, result)
            return result

        return wrapper

    # -- counts taken from results ---------------------------------------

    def _observe_linalg_IntegerRowSpan_insert(self, sid, args, result):
        self.counts["rowspan_stored"] += result is not None

    def _observe_dyck_lattice_points(self, sid, args, result):
        self.counts["points"] += len(result)
        parent = self.parents[sid]
        if parent >= 0 and self.names[parent] == "dyck.dominant_points":
            self.counts["points_under_dominant"] += len(result)

    def _observe_dyck_dominant_points(self, sid, args, result):
        self.counts["points_kept"] += len(result)

    def _observe_tensor_lr_coefficients(self, sid, args, result):
        if args in self._lr_args:
            self.counts["lr_repeats"] += 1
        else:
            self._lr_args.add(args)

    def _observe_fusion_fusion_graded(self, sid, args, result):
        self.counts["fusion_stages"] += result.max_degree + 1

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One line per span: id, parent id (-1 for none), name, start and
        end in ns since the first span started."""
        origin = min(self.starts, default=0)
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, name in enumerate(self.names):
                out.write(
                    f"{sid}\t{self.parents[sid]}\t{name}\t"
                    f"{self.starts[sid] - origin}\t{self.ends[sid] - origin}\n"
                )


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[int]] = {}
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(sid)
    out = []
    for sid in range(len(starts)):
        lo, hi = starts[sid], ends[sid]
        covered = 0
        reach = lo
        for c in sorted(children.get(sid, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric but trace.overhead_s, from the recorded spans
    and counts."""
    calls: Counter = Counter(tracer.names)
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    names, parents = tracer.names, tracer.parents
    for sid, own in enumerate(self_times(tracer.starts, tracer.ends, parents)):
        name = names[sid]
        self_ns[name] += own
        # a call nested in a call of the same name is already counted
        up = parents[sid]
        while up >= 0 and names[up] != name:
            up = parents[up]
        if up < 0:
            total_ns[name] += tracer.ends[sid] - tracer.starts[sid]

    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls[span]
        elif stat == "s":
            values[metric] = total_ns[span] / 1e9
        elif stat == "self_s":
            values[metric] = self_ns[span] / 1e9
    values["fusion.stages"] = counts["fusion_stages"]
    values["linalg.IntegerRowSpan.accept_ratio"] = ratio(
        counts["rowspan_stored"], calls["linalg.IntegerRowSpan.insert"]
    )
    values["dyck.points_enumerated"] = counts["points"]
    values["dyck.points_per_s"] = ratio(counts["points"], values["dyck.lattice_points.s"])
    values["dyck.dominant_keep_ratio"] = ratio(
        counts["points_kept"], counts["points_under_dominant"]
    )
    values["tensor.lr_coefficients.repeat_ratio"] = ratio(
        counts["lr_repeats"], calls["tensor.lr_coefficients"]
    )
    return {m: (values[m], PER_LAYER[m][0]) for m in PER_LAYER if m != "trace.overhead_s"}
