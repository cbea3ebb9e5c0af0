"""Command-line surface: scriptable JSON in, canonical JSON out.

Exit codes: 0 on success with a positive/consistent verdict, 1 when a
negative verdict was found (unstable, not good, not balanced, or campaign
discrepancies), 2 on usage or input errors, 3 when an internal self-check
failed (a bug, reported with the subcommand and its input paths).  All
numeric output is exact rational text.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import jsonio
from .balanced import MultidegreeBundle, balance_report, balanced_stability_bridge
from .errors import NodalPolError
from .goodness import GoodnessStatus, GoodnessVerdict, conjecture_probe, decide
from .pathsys import aj_family, build_path_system
from .polarization import (
    canonical,
    delta_structure_scaled,
    lambda_vector,
    scaled_lambda,
    stability_polytope,
)
from .search import CampaignConfig, run_campaign
from .stability import StabilityVerdict, oc_stability

SUBCURVE_TABLE_LIMIT = 12  # 2^gamma growth; larger curves get a notice


def _stability_obj(verdict: StabilityVerdict) -> dict:
    obj: dict = {"stable": verdict.stable, "semistable": verdict.semistable}
    if verdict.failing_subcurve is not None:
        obj["witness"] = {
            "members": list(verdict.failing_subcurve.member_ids),
            "value": jsonio.format_rational(verdict.failing_value),
        }
    else:
        obj["witness"] = None
    return obj


def _goodness_obj(verdict: GoodnessVerdict) -> dict:
    obj: dict = {"status": verdict.status.value}
    # A base already names the path-window certificate.
    if verdict.certificate_base is not None:
        obj["certificate_base"] = verdict.certificate_base
    elif verdict.certificate_kind is not None:
        obj["certificate_kind"] = verdict.certificate_kind
    if verdict.witness is not None:
        obj["witness"] = jsonio.sheaf_to_obj(verdict.witness)
        obj["witness_delta"] = jsonio.format_rational(verdict.witness_delta)
    return obj


def _print(obj) -> None:
    sys.stdout.write(jsonio.canonical_dumps(obj))


def _cmd_analyze(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    w = jsonio.load_polarization(args.polarization)
    lam = lambda_vector(curve, w)
    scaled = scaled_lambda(curve, w)
    verdict = oc_stability(curve, w, scaled)
    good = decide(curve, w, stability=verdict, scaled=scaled)
    cls = curve.classify()
    report: dict = {
        "arithmetic_genus": curve.arithmetic_genus,
        "euler_characteristic": curve.euler_characteristic,
        "classification": {
            "compact_type": cls.compact_type,
            "stable": cls.stable,
            "semistable": cls.semistable,
            "quasistable": cls.quasistable,
            "cycle_of_rationals": cls.cycle_of_rationals,
        },
        "lambda": [jsonio.format_rational(x) for x in lam],
        "stability": _stability_obj(verdict),
        "goodness": _goodness_obj(good),
    }
    if curve.gamma <= SUBCURVE_TABLE_LIMIT:
        table = []
        for stat in curve.connected_subcurve_stats():
            delta = Fraction(
                delta_structure_scaled(*scaled, stat.members, stat.internal),
                scaled.q,
            )
            table.append(
                {
                    "members": [curve.vertex_ids[k] for k in stat.members],
                    "boundary": stat.boundary,
                    "genus": stat.genus,
                    "delta": jsonio.format_rational(delta),
                }
            )
        report["subcurves"] = table
    else:
        report["subcurves"] = (
            f"suppressed: {curve.gamma} components exceed the table limit "
            f"of {SUBCURVE_TABLE_LIMIT}"
        )
    _print(report)
    negative = not verdict.stable or good.status is GoodnessStatus.NOT_GOOD
    return 1 if negative else 0


def _cmd_canonical(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    _print(jsonio.polarization_to_obj(canonical(curve)))
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    w = jsonio.load_polarization(args.polarization)
    verdict = oc_stability(curve, w)
    _print(_stability_obj(verdict))
    return 0 if verdict.stable else 1


def _cmd_goodness(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    w = jsonio.load_polarization(args.polarization)
    verdict = decide(curve, w)
    _print(_goodness_obj(verdict))
    return 1 if verdict.status is GoodnessStatus.NOT_GOOD else 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    w = jsonio.load_polarization(args.polarization)
    probe = conjecture_probe(curve, w)
    _print(
        {
            "stability": _stability_obj(probe.stability),
            "goodness": _goodness_obj(probe.goodness),
            "discrepancy": probe.discrepancy,
            "description": probe.description,
        }
    )
    return 1 if probe.discrepancy else 0


def _cmd_balanced(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    degrees = _parse_degrees(args.degrees, curve.gamma)
    bundle = MultidegreeBundle(degrees)
    is_bal, is_strict, violations = balance_report(curve, bundle)
    obj = {
        "balanced": is_bal,
        "strict": is_strict,
        "violations": [
            {"kind": v.kind, "members": list(v.member_ids), "detail": v.detail}
            for v in violations
        ],
    }
    bridge = balanced_stability_bridge(curve, bundle)
    if bridge.applicable:
        obj["bridge"] = {
            "strictly_balanced": bridge.strictly_balanced,
            "oc_stable": bridge.oc_stable,
            "equivalent": bridge.equivalent,
        }
        if bridge.goodness_status is not None:
            obj["bridge"]["goodness_status"] = bridge.goodness_status.value
            obj["bridge"]["goodness_equivalent"] = bridge.goodness_equivalent
    else:
        obj["bridge"] = {"applicable": False, "reason": bridge.reason}
    _print(obj)
    return 0 if is_bal else 1


def _cmd_paths(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    ps = build_path_system(curve, args.base)
    obj: dict = {
        "base": ps.base,
        "marking": sorted(ps.marking),
        "tree_edges": sorted(ps.tree_edges),
        "parent": {
            str(v): {"parent": p, "edge": e} for v, (p, e) in sorted(ps.parent.items())
        },
        "depth": {str(v): d for v, d in sorted(ps.depth.items())},
        "orientation": {
            str(e): list(ends) for e, ends in sorted(ps.orientation.items())
        },
    }
    table = []
    if args.polarization is not None:
        w = jsonio.load_polarization(args.polarization)
        fam = aj_family(curve, w, ps)
        for entry in fam.entries:
            table.append(
                {
                    "edge": entry.edge_id,
                    "members": (
                        [] if entry.subcurve is None else list(entry.subcurve.member_ids)
                    ),
                    "boundary": entry.boundary,
                    "delta": (
                        None
                        if entry.delta is None
                        else jsonio.format_rational(entry.delta)
                    ),
                }
            )
    else:
        for geo in ps.aj_geometry:
            members = [curve.vertex_ids[k] for k in geo.members]
            table.append(
                {
                    "edge": geo.edge_id,
                    "members": members,
                    "boundary": geo.boundary if members else None,
                }
            )
    obj["far_side_subcurves"] = table
    _print(obj)
    return 0


def _cmd_polytope(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    polytope = stability_polytope(curve, args.denominator)
    _print(jsonio.polytope_to_obj(polytope))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    cfg = CampaignConfig(
        max_vertices=args.max_vertices,
        max_edges=args.max_edges,
        max_genus=args.max_genus,
        weight_denominator_bound=args.denominator,
        max_rank=args.max_rank,
        seed=args.seed,
        mode=args.mode,
        sample_count=args.samples,
    )
    report = run_campaign(cfg, csv_path=args.csv, summary_path=args.summary)
    _print(report.summary_obj())
    return 0 if report.consistent else 1


def _cmd_export_dot(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    sys.stdout.write(curve.to_dot())
    return 0


def _parse_degrees(text: str, gamma: int) -> tuple[int, ...]:
    try:
        degrees = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise NodalPolError(f"malformed degree list {text!r}") from None
    if len(degrees) != gamma:
        raise NodalPolError(
            f"expected {gamma} comma-separated degrees, got {len(degrees)}"
        )
    return degrees


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodalpol",
        description=(
            "Exact stability and goodness analysis for polarized nodal "
            "curves on genus-decorated dual multigraphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve(p):
        p.add_argument("--curve", required=True, help="curve JSON file")

    def add_polarization(p, required=True):
        p.add_argument(
            "--polarization", required=required, help="polarization JSON file"
        )

    def add_obsolete_max_rank(p):
        p.add_argument(
            "--max-rank",
            type=int,
            default=None,
            help="accepted for compatibility; no longer has an effect",
        )

    p = sub.add_parser("analyze", help="full report for a polarized curve")
    add_curve(p)
    add_polarization(p)
    add_obsolete_max_rank(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("canonical", help="canonical polarization of a stable curve")
    add_curve(p)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("stability", help="w-stability of the structure sheaf")
    add_curve(p)
    add_polarization(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("goodness", help="goodness verdict for a polarization")
    add_curve(p)
    add_polarization(p)
    add_obsolete_max_rank(p)
    p.set_defaults(func=_cmd_goodness)

    p = sub.add_parser(
        "conjecture", help="probe one instance of the stability/goodness equivalence"
    )
    add_curve(p)
    add_polarization(p)
    add_obsolete_max_rank(p)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("balanced", help="balance checks for a multidegree")
    add_curve(p)
    p.add_argument("--degrees", required=True, help="comma-separated multidegree")
    p.set_defaults(func=_cmd_balanced)

    p = sub.add_parser("paths", help="path system rooted at a base component")
    add_curve(p)
    add_polarization(p, required=False)
    p.add_argument("--base", type=int, required=True, help="base vertex id")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("polytope", help="weight windows stabilizing O_C")
    add_curve(p)
    p.add_argument(
        "--denominator",
        type=int,
        default=24,
        help="denominator bound for the witness grid search",
    )
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser(
        "search-conjecture", help="sweep curves and polarizations for discrepancies"
    )
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--denominator", type=int, required=True)
    p.add_argument(
        "--max-rank",
        type=int,
        required=True,
        help="caps the ranks of the identity suite's random data at min(3, this)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--csv", default=None, help="write the per-instance CSV here")
    p.add_argument("--summary", default=None, help="write the JSON summary here")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export-dot", help="deterministic DOT rendering")
    add_curve(p)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NodalPolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        # Unreadable input (missing, a directory, not UTF-8) is bad input,
        # never a negative verdict.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # A self-check failed: a bug, never a verdict or bad input.  Name
        # the instance so that it can be replayed.
        instance = [args.command]
        for name in ("curve", "polarization", "degrees", "base"):
            value = getattr(args, name, None)
            if value is not None:
                instance.append(f"--{name} {value}")
        print(f"internal error in {' '.join(instance)}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
