"""Command-line surface.

Weights are given as comma-separated fundamental-weight coordinates (n-1 of
them).  Explicit bound vectors follow the package's positive-root order
(1,1), (1,2), ..., (1,n-1), (2,2), ...  Exit codes: 0 success, 1 verification
mismatch, computational failure or standard output closed early, 2 usage
error.  Range and cap flags have no defaults here: only the flags given reach
the library, whose own defaults apply to the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cases import CASE_RANGES, verify_case
from .dyck import (
    BoundVector,
    bounds_from_pair,
    dominant_points,
    dyck_paths,
    inequalities,
    lattice_points,
)
from .fusion import DEFAULT_DIM_CAP, DimensionCapError, build_irrep, fusion_graded
from .poset import poset_report, weyl_character_prediction
from .suite import run_all
from .tensor import DecompositionMap, lr_coefficients
from .typea import Weight, weyl_dim


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_rank = _int_at_least(2)
_nonnegative = _int_at_least(0)


def _comma_separated(item):
    """argparse type: comma-separated values, each parsed by `item`."""
    return lambda text: tuple(map(item, text.split(",")))


_coords = _comma_separated(_nonnegative)


def _given(args, *names: str) -> dict:
    """The flags among `names` that were given on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _decomposition_lines(dm: DecompositionMap, title: str) -> list[str]:
    lines = [title, f"  {'tau':<16}{'mult':>6}{'dim':>8}"]
    total = 0
    for tau, mult in dm.items_sorted():
        d = weyl_dim(tau)
        total += mult * d
        lines.append(f"  {str(tau):<16}{mult:>6}{d:>8}")
    lines.append(f"  total dimension {total}")
    return lines


def _monomial(point) -> str:
    exps = point.to_json()["exps"]
    if not exps:
        return "1"
    return " ".join(
        f"x[{i},{j}]" + (f"^{s}" if s > 1 else "") for i, j, s in exps
    )


def _root_label(root) -> str:
    return f"({root.i},{root.j})"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slnfusion",
        description="Tensor, lattice-point, fusion, and poset computations for sl_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, weights=None, required=True) -> argparse.ArgumentParser:
        """A subcommand; given `weights` (a tuple of flags), it also takes
        `--n` and those weight flags, which `main` checks against `--n`."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        # errors found after parsing are reported with this subcommand's usage
        p.set_defaults(command_parser=p)
        if weights is not None:
            p.add_argument("--n", type=_rank, required=True)
        for flag in weights or ():
            p.add_argument(
                flag, type=_coords, required=required, help="comma-separated coordinates"
            )
        return p

    def add_cap(p: argparse.ArgumentParser, dest: str) -> None:
        p.add_argument(
            "--cap",
            dest=dest,
            metavar="CAP",
            type=_int_at_least(1),
            help=f"dimension cap on each module built (default {DEFAULT_DIM_CAP})",
        )

    pair = ("--l", "--m")
    add("lr", "tensor product decomposition of V(l) (x) V(m)", pair)

    add("dyck", "Dyck paths and the inequality system (simple root to simple root)", ())

    p = add("points", "lattice points for a weight pair or explicit bounds", pair, required=False)
    p.add_argument(
        "--bounds", type=_coords, help="explicit bound vector, root order, comma-separated"
    )

    add("hw-candidates", "lattice points whose shifted weight is dominant", pair)

    p = add("case", "sweep one proven regime against the oracle")
    p.add_argument("--tag", required=True, choices=CASE_RANGES)
    p.add_argument("--m-max", type=_nonnegative)
    p.add_argument("--n-values", type=_comma_separated(_rank), help="comma-separated ranks")
    p.add_argument("--coord-max", type=_nonnegative)
    p.add_argument("--k-max", type=_nonnegative)

    add_cap(add("fusion", "graded fusion product of V(l) and V(m)", pair), "cap")
    add("poset", "two-part splitting poset of a dominant weight", ("--l",))
    add("weyl", "truncated Weyl module character prediction", ("--l",))

    p = add("verify", "run the full acceptance battery")
    p.add_argument("--n-max", type=_rank)
    p.add_argument("--coord-max", type=_nonnegative)
    add_cap(p, "dim_cap")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    parser = args.command_parser
    for flag in ("l", "m"):
        coords = getattr(args, flag, None)
        if coords is not None:
            if len(coords) != args.n - 1:
                parser.error(
                    f"--{flag}: expected {args.n - 1} coordinates for n={args.n}, "
                    f"got {len(coords)}"
                )
            setattr(args, flag, Weight(args.n, coords))
    try:
        payload, lines, code = _run(parser, args)
        print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`); point it at devnull so that
        # the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DimensionCapError as exc:
        print(f"dimension cap exceeded: {exc} (dim={exc.dim}, cap={exc.cap})", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(parser: argparse.ArgumentParser, args) -> tuple[object, list[str], int]:
    """Run the subcommand; returns its JSON payload, its text lines and the
    exit code."""
    lam, mu = getattr(args, "l", None), getattr(args, "m", None)

    if args.command == "lr":
        dm = lr_coefficients(lam, mu)
        return dm.to_json(), _decomposition_lines(dm, f"V{lam} (x) V{mu} [n={args.n}]"), 0

    if args.command == "dyck":
        paths = dyck_paths(args.n)
        system = inequalities(args.n)
        payload = {
            "n": args.n,
            "paths": [[[r.i, r.j] for r in p.steps] for p in paths],
            "inequalities": [
                {
                    "support": [[r.i, r.j] for r in p.steps],
                    "base": [p.base.i, p.base.j],
                }
                for p in system
            ],
        }
        lines = [f"{len(paths)} Dyck paths for n={args.n}:"]
        lines += [
            "  " + " -> ".join(_root_label(r) for r in p.steps)
            + f"   [base {_root_label(p.base)}]"
            for p in paths
        ]
        lines.append(f"{len(system)} inequalities:")
        lines += [
            "  " + " + ".join(f"x[{r.i},{r.j}]" for r in p.steps)
            + f" <= a[{p.base.i},{p.base.j}]"
            for p in system
        ]
        return payload, lines, 0

    if args.command == "points":
        if args.bounds is None and lam is not None and mu is not None:
            bounds = bounds_from_pair(lam, mu)
        elif args.bounds is not None and lam is None and mu is None:
            try:
                bounds = BoundVector(args.n, args.bounds)
            except ValueError as exc:
                parser.error(f"--bounds: {exc}")
        else:
            parser.error("points takes either --bounds or both --l and --m")
        pts = lattice_points(bounds)
        payload = {
            "n": args.n,
            "bounds": list(bounds.values),
            "count": len(pts),
            "points": [p.to_json() for p in pts],
        }
        lines = [f"bounds {bounds.values}: {len(pts)} lattice points"]
        lines += [f"  {_monomial(p)}   (deg {p.deg})" for p in pts]
        return payload, lines, 0

    if args.command == "hw-candidates":
        pts = dominant_points(lam, mu)
        payload = {
            "n": args.n,
            "lambda1": lam.to_json(),
            "lambda2": mu.to_json(),
            "count": len(pts),
            "points": [{"point": p.to_json(), "tau": tau.to_json()} for p, tau in pts],
        }
        lines = [f"{len(pts)} dominant-weight points for V{lam} (x) V{mu}:"]
        lines += [f"  {_monomial(p):<30} tau {tau}   (deg {p.deg})" for p, tau in pts]
        return payload, lines, 0

    if args.command == "case":
        ranges = _given(args, "m_max", "n_values", "coord_max", "k_max")
        try:
            reports = verify_case(args.tag, **ranges)
        except ValueError as exc:
            # raised before any sweep: a range this regime does not read
            parser.error(str(exc))
        mismatched = [r for r in reports if not r.equal]
        lines = [f"case {args.tag}: {len(reports)} comparisons, {len(mismatched)} mismatches"]
        for r in mismatched:
            lines.append(f"  MISMATCH {r.params}")
            for tau, a, c in r.mismatches:
                lines.append(f"    tau {tau}: formula {a}, oracle {c}")
        return [r.to_json() for r in reports], lines, 1 if mismatched else 0

    if args.command == "fusion":
        # for two factors the grading does not depend on the evaluation points
        cap = _given(args, "cap")
        graded = fusion_graded(build_irrep(lam, **cap), 0, build_irrep(mu, **cap), 1)
        lines = [f"fusion V{lam} (x) V{mu} [n={args.n}]"]
        for s, dm in graded.slices():
            terms = ", ".join(
                (f"{m} x " if m > 1 else "") + f"V{tau}" for tau, m in dm.items_sorted()
            )
            lines.append(f"  degree {s}: {terms}")
        lines.append(f"  total dimension {graded.dimension()}")
        return graded.to_json(), lines, 0

    if args.command == "poset":
        report = poset_report(lam)
        lines = [f"poset of {lam} [n={args.n}]: {len(report.nodes)} elements"]
        for idx, node in enumerate(report.nodes):
            lines.append(f"  [{idx}] {node}   min-vector {node.min_vector.values}")
        lines.append(f"{len(report.edges)} cover relations:")
        for a, b, positive in report.edges:
            lines.append(f"  [{a}] <= [{b}]   schur_positive={positive}")
        lines.append(f"minimum {report.min_pair}")
        lines.append(f"maximum {report.max_pair}")
        return report.to_json(), lines, 0

    if args.command == "weyl":
        prediction = weyl_character_prediction(lam)
        status = (
            "conjectural"
            if prediction.conjectural
            else f"proven regime: {prediction.proven_regime}"
        )
        lines = _decomposition_lines(
            prediction.character,
            f"truncated Weyl module character at {lam} [n={args.n}] ({status})",
        )
        lines.insert(1, f"  maximal pair {prediction.max_pair}")
        return prediction.to_json(), lines, 0

    # verify, the last subcommand
    results = run_all(**_given(args, "n_max", "coord_max", "dim_cap"))
    payload = [
        {"name": r.name, "passed": r.passed, "detail": r.detail, "elapsed": round(r.elapsed, 3)}
        for r in results
    ]
    ok = all(r.passed for r in results)
    lines = [r.line() for r in results]
    lines.append("all checks passed" if ok else "FAILURES PRESENT")
    return payload, lines, 0 if ok else 1
