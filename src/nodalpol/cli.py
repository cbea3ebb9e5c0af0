"""Command-line surface: scriptable JSON in, canonical JSON out.

Exit codes: 0 on success with a positive/consistent verdict, 1 when a
negative verdict was found (unstable, not good, not balanced, an empty
stability polytope, or campaign discrepancies), 2 on usage or input
errors, 3 when an internal self-check failed (a bug, reported with the
subcommand and every option it was given, so that it can be replayed).  All
numeric output is exact rational text.

:func:`main` builds the argument parser once per process, on its first
call, and dispatches a command by name to the ``_cmd_<name>`` function
bound in this module at that moment, so a wrapper or a test double put in
its place takes effect.  ``balanced`` and ``search-conjecture`` import
their modules, :mod:`nodalpol.balanced` and :mod:`nodalpol.search`, when
they run; the other commands never load them.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import jsonio
from .errors import NodalPolError
from .goodness import GoodnessStatus, GoodnessVerdict, conjecture_probe, decide
from .pathsys import aj_defects_scaled, build_path_system
from .polarization import canonical, scaled_lambda, subcurve_defects_scaled
from .stability import StabilityVerdict, oc_stability, stability_polytope

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
    """Curve invariants, lambda, stability, goodness and, up to
    ``SUBCURVE_TABLE_LIMIT`` components, the subcurve table.  The defect of
    every proper connected subcurve is computed once, by
    :func:`subcurve_defects_scaled`, and both the stability verdict and the
    table read that list."""
    curve = jsonio.load_curve(args.curve)
    w = jsonio.load_polarization(args.polarization)
    scaled = scaled_lambda(curve, w)
    lam, q = scaled
    defects = subcurve_defects_scaled(curve, lam, q)
    verdict = oc_stability(curve, w, scaled, defects)
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
        "lambda": [jsonio.format_scaled(x, q) for x in lam],
        "stability": _stability_obj(verdict),
        "goodness": _goodness_obj(good),
    }
    if curve.gamma <= SUBCURVE_TABLE_LIMIT:
        report["subcurves"] = jsonio.subcurve_table(curve, defects, q)
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
    from .balanced import MultidegreeBundle, balance_report, balanced_stability_bridge

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
    bridge = balanced_stability_bridge(curve, bundle, strictly_balanced=is_strict)
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
    defects = None
    if args.polarization is not None:
        lam, q = scaled_lambda(curve, jsonio.load_polarization(args.polarization))
        defects = aj_defects_scaled(ps, lam, q)
    table = []
    for pos, geo in enumerate(ps.aj_geometry):
        row: dict = {
            "edge": geo.edge_id,
            "members": [curve.vertex_ids[k] for k in geo.members],
            "boundary": geo.boundary if geo.mask else None,
        }
        if defects is not None:
            row["delta"] = jsonio.format_scaled(defects[pos], q) if geo.mask else None
        table.append(row)
    obj["far_side_subcurves"] = table
    _print(obj)
    return 0


def _cmd_polytope(args: argparse.Namespace) -> int:
    curve = jsonio.load_curve(args.curve)
    polytope = stability_polytope(curve)
    _print(jsonio.polytope_to_obj(polytope))
    return 1 if polytope.rational_tails else 0


def _cmd_search_conjecture(args: argparse.Namespace) -> int:
    from .search import CampaignConfig, run_campaign

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
        degrees = tuple(jsonio.parse_integer(part) for part in text.split(","))
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

    p = sub.add_parser("canonical", help="canonical polarization of a stable curve")
    add_curve(p)

    p = sub.add_parser("stability", help="w-stability of the structure sheaf")
    add_curve(p)
    add_polarization(p)

    p = sub.add_parser("goodness", help="goodness verdict for a polarization")
    add_curve(p)
    add_polarization(p)
    add_obsolete_max_rank(p)

    p = sub.add_parser(
        "conjecture", help="probe one instance of the stability/goodness equivalence"
    )
    add_curve(p)
    add_polarization(p)
    add_obsolete_max_rank(p)

    p = sub.add_parser("balanced", help="balance checks for a multidegree")
    add_curve(p)
    p.add_argument("--degrees", required=True, help="comma-separated integers -?[0-9]+")

    p = sub.add_parser("paths", help="path system rooted at a base component")
    add_curve(p)
    add_polarization(p, required=False)
    p.add_argument("--base", type=int, required=True, help="base vertex id")

    p = sub.add_parser("polytope", help="weight windows of O_C and a witness or tails")
    add_curve(p)

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
        help="recorded in the summary; no longer has an effect",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--csv", default=None, help="write the per-instance CSV here")
    p.add_argument("--summary", default=None, help="write the JSON summary here")

    p = sub.add_parser("export-dot", help="deterministic DOT rendering")
    add_curve(p)

    return parser


_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up at every call, not kept in the parser: see the module
    # docstring.
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
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
        # the instance, with every option set, so that it can be replayed.
        from shlex import quote

        instance = [args.command]
        for name, value in vars(args).items():
            if name != "command" and value is not None:
                instance.append(f"--{name.replace('_', '-')} {quote(str(value))}")
        print(f"internal error in {' '.join(instance)}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
