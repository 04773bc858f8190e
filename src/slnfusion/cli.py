"""Command-line surface.

Weights are given as comma-separated fundamental-weight coordinates (n-1 of
them).  Explicit bound vectors follow the package's positive-root order
(1,1), (1,2), ..., (1,n-1), (2,2), ...  Exit codes: 0 success, 1 verification
mismatch, computational failure or standard output closed early, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cases import verify_case
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


def _ranks(text: str) -> tuple[int, ...]:
    return tuple(_rank(v) for v in text.split(","))


def _parse_weight(parser: argparse.ArgumentParser, n: int, text: str, flag: str) -> Weight:
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError:
        parser.error(f"{flag}: expected comma-separated integers, got {text!r}")
    if len(coords) != n - 1:
        parser.error(f"{flag}: expected {n - 1} coordinates for n={n}, got {len(coords)}")
    if any(c < 0 for c in coords):
        parser.error(f"{flag}: coordinates must be nonnegative, got {text!r}")
    return Weight(n, coords)


def _emit(args, payload, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


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

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text")
        # errors found after parsing are reported with this subcommand's usage
        p.set_defaults(command_parser=p)
        return p

    def add_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cap",
            type=_int_at_least(1),
            default=DEFAULT_DIM_CAP,
            help=f"dimension cap on each module built (default {DEFAULT_DIM_CAP})",
        )

    p = add("lr", "tensor product decomposition of V(l) (x) V(m)")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--l", required=True, help="first weight, comma-separated coordinates")
    p.add_argument("--m", required=True, help="second weight")

    p = add("dyck", "Dyck paths and the inequality system (simple root to simple root)")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--no-prune", action="store_true", help="show one inequality per path")

    p = add("points", "lattice points for a weight pair or explicit bounds")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--l", help="first weight (with --m)")
    p.add_argument("--m", help="second weight (with --l)")
    p.add_argument("--bounds", help="explicit bound vector, root order, comma-separated")

    p = add("hw-candidates", "lattice points whose shifted weight is dominant")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--m", required=True)

    p = add("case", "sweep one proven regime against the oracle")
    p.add_argument(
        "--tag",
        required=True,
        choices=("sl2", "rectangular", "pieri-row", "pieri-column", "large"),
    )
    p.add_argument("--m-max", type=_nonnegative, default=3)
    p.add_argument("--n-values", type=_ranks, default="3,4", help="comma-separated ranks")
    p.add_argument("--coord-max", type=_nonnegative, default=2)
    p.add_argument("--k-max", type=_nonnegative, default=3)

    p = add("fusion", "graded fusion product of V(l) and V(m)")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--m", required=True)
    add_cap(p)

    p = add("poset", "two-part splitting poset of a dominant weight")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--l", required=True)

    p = add("weyl", "truncated Weyl module character prediction")
    p.add_argument("--n", type=_rank, required=True)
    p.add_argument("--l", required=True)

    p = add("verify", "run the full acceptance battery")
    p.add_argument("--n-max", type=_rank, default=4)
    p.add_argument("--coord-max", type=_nonnegative, default=3)
    add_cap(p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _dispatch(args.command_parser, args)
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


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    if args.command == "lr":
        lam = _parse_weight(parser, args.n, args.l, "--l")
        mu = _parse_weight(parser, args.n, args.m, "--m")
        dm = lr_coefficients(lam, mu)
        _emit(args, dm.to_json(), _decomposition_lines(dm, f"V{lam} (x) V{mu} [n={args.n}]"))
        return 0

    if args.command == "dyck":
        paths = dyck_paths(args.n)
        system = paths if args.no_prune else inequalities(args.n)
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
        _emit(args, payload, lines)
        return 0

    if args.command == "points":
        if args.bounds is not None:
            try:
                values = tuple(int(v) for v in args.bounds.split(","))
                bounds = BoundVector(args.n, values)
            except ValueError as exc:
                parser.error(f"--bounds: {exc}")
        elif args.l is not None and args.m is not None:
            lam = _parse_weight(parser, args.n, args.l, "--l")
            mu = _parse_weight(parser, args.n, args.m, "--m")
            bounds = bounds_from_pair(lam, mu)
        else:
            parser.error("points needs either --bounds or both --l and --m")
        pts = lattice_points(bounds)
        payload = {
            "n": args.n,
            "bounds": list(bounds.values),
            "count": len(pts),
            "points": [p.to_json() for p in pts],
        }
        lines = [f"bounds {bounds.values}: {len(pts)} lattice points"]
        lines += [f"  {_monomial(p)}   (deg {p.deg})" for p in pts]
        _emit(args, payload, lines)
        return 0

    if args.command == "hw-candidates":
        lam = _parse_weight(parser, args.n, args.l, "--l")
        mu = _parse_weight(parser, args.n, args.m, "--m")
        pts = dominant_points(lam, mu)
        payload = {
            "n": args.n,
            "lambda1": lam.to_json(),
            "lambda2": mu.to_json(),
            "count": len(pts),
            "points": [
                {"point": p.to_json(), "tau": tau.to_json()} for p, tau in pts
            ],
        }
        lines = [f"{len(pts)} dominant-weight points for V{lam} (x) V{mu}:"]
        lines += [
            f"  {_monomial(p):<30} tau {tau}   (deg {p.deg})" for p, tau in pts
        ]
        _emit(args, payload, lines)
        return 0

    if args.command == "case":
        reports = verify_case(
            args.tag,
            m_max=args.m_max,
            n_values=args.n_values,
            coord_max=args.coord_max,
            k_max=args.k_max,
        )
        mismatched = [r for r in reports if not r.equal]
        payload = [r.to_json() for r in reports]
        lines = [
            f"case {args.tag}: {len(reports)} comparisons, {len(mismatched)} mismatches"
        ]
        for r in mismatched:
            lines.append(f"  MISMATCH {r.params}")
            for tau, a, c in r.mismatches:
                lines.append(f"    tau {tau}: formula {a}, oracle {c}")
        _emit(args, payload, lines)
        return 0 if not mismatched else 1

    if args.command == "fusion":
        lam = _parse_weight(parser, args.n, args.l, "--l")
        mu = _parse_weight(parser, args.n, args.m, "--m")
        # for two factors the grading does not depend on the evaluation points
        graded = fusion_graded(
            build_irrep(lam, args.cap), 0, build_irrep(mu, args.cap), 1
        )
        lines = [f"fusion V{lam} (x) V{mu} [n={args.n}]"]
        for s, dm in graded.slices():
            terms = ", ".join(
                (f"{m} x " if m > 1 else "") + f"V{tau}" for tau, m in dm.items_sorted()
            )
            lines.append(f"  degree {s}: {terms}")
        lines.append(f"  total dimension {graded.dimension()}")
        _emit(args, graded.to_json(), lines)
        return 0

    if args.command == "poset":
        lam = _parse_weight(parser, args.n, args.l, "--l")
        report = poset_report(lam)
        lines = [f"poset of {lam} [n={args.n}]: {len(report.nodes)} elements"]
        for idx, node in enumerate(report.nodes):
            lines.append(f"  [{idx}] {node}   min-vector {node.min_vector.values}")
        lines.append(f"{len(report.edges)} cover relations:")
        for a, b, positive in report.edges:
            lines.append(f"  [{a}] <= [{b}]   schur_positive={positive}")
        lines.append(f"minimum {report.min_pair}")
        lines.append(f"maximum {report.max_pair}")
        _emit(args, report.to_json(), lines)
        return 0

    if args.command == "weyl":
        lam = _parse_weight(parser, args.n, args.l, "--l")
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
        _emit(args, prediction.to_json(), lines)
        return 0

    if args.command == "verify":
        results = run_all(n_max=args.n_max, coord_max=args.coord_max, dim_cap=args.cap)
        payload = [
            {
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "elapsed": round(r.elapsed, 3),
            }
            for r in results
        ]
        lines = [r.line() for r in results]
        ok = all(r.passed for r in results)
        lines.append("all checks passed" if ok else "FAILURES PRESENT")
        _emit(args, payload, lines)
        return 0 if ok else 1

    parser.error(f"unknown command {args.command!r}")
    return 2
