"""Balanced and strictly balanced multidegrees, and their stability bridge.

On a quasistable curve of arithmetic genus at least 2, a line bundle of
multidegree ``d`` is *balanced* when it has degree 1 on every exceptional
component and, for every proper subcurve B,

    | deg_B - (d / (2 p_a - 2)) * omega_degree(B) |  <=  delta_B / 2

with ``omega_degree(B) = 2 p_a(B) - 2 + delta_B`` the degree of the
dualizing sheaf on B.  It is *strictly balanced* when the inequality is
strict for every B whose boundary nodes do not all lie on exceptional
components; on a stable curve the exceptional locus is empty, so strict
means strict everywhere.  Only the subcurve degree formula of the
dualizing sheaf is used; the bundle itself is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curve import CurveGraph, Subcurve
from .errors import UnsupportedCurveError
from .goodness import GoodnessStatus, decide
from .polarization import from_multidegree
from .stability import oc_stability


@dataclass(frozen=True)
class MultidegreeBundle:
    """A line bundle seen only through its vector of component degrees."""

    degrees: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.degrees)

    @property
    def is_ample(self) -> bool:
        return all(d >= 1 for d in self.degrees)


def omega_degree(b: Subcurve) -> int:
    """Degree of the dualizing sheaf restricted to a subcurve."""
    return 2 * b.arithmetic_genus - 2 + b.boundary_size


@dataclass(frozen=True)
class BalanceViolation:
    """One failed balance condition, for reporting."""

    kind: str               # "exceptional-degree" or "subcurve-window"
    member_ids: tuple[int, ...]
    detail: str


def _balance_scan(
    curve: CurveGraph, bundle: MultidegreeBundle
) -> tuple[bool, bool, list[BalanceViolation]]:
    cls = curve.classify()
    pa = curve.arithmetic_genus
    if pa < 2 or not cls.quasistable:
        raise UnsupportedCurveError(
            "balance is defined on quasistable curves of arithmetic genus >= 2"
        )
    if len(bundle.degrees) != curve.gamma:
        raise UnsupportedCurveError(
            f"expected {curve.gamma} degrees, got {len(bundle.degrees)}"
        )

    violations: list[BalanceViolation] = []
    balanced = True
    strict = True

    exceptional = set(curve.exceptional_components())
    for k in sorted(exceptional):
        if bundle.degrees[k] != 1:
            balanced = False
            violations.append(
                BalanceViolation(
                    "exceptional-degree",
                    (curve.vertex_ids[k],),
                    f"degree {bundle.degrees[k]} on an exceptional component",
                )
            )

    ratio = Fraction(bundle.total, 2 * pa - 2)
    pairs = curve.edge_index_pairs()
    for mask in curve.proper_masks("the balance check"):
        sub = Subcurve(curve, mask)
        deg_b = sum(bundle.degrees[k] for k in sub.member_indices)
        gap = abs(deg_b - ratio * omega_degree(sub))
        bound = Fraction(sub.boundary_size, 2)
        boundary_on_exceptional = all(
            ia in exceptional or ib in exceptional
            for ia, ib in pairs
            if bool(mask & (1 << ia)) != bool(mask & (1 << ib))
        )
        if gap > bound:
            balanced = False
            violations.append(
                BalanceViolation(
                    "subcurve-window",
                    sub.member_ids,
                    f"|{deg_b} - {ratio} * {omega_degree(sub)}| = {gap} > {bound}",
                )
            )
        elif gap == bound and not boundary_on_exceptional:
            strict = False
            violations.append(
                BalanceViolation(
                    "subcurve-window",
                    sub.member_ids,
                    f"equality {gap} = {bound} off the exceptional locus",
                )
            )
    return balanced, balanced and strict, violations


def is_balanced(curve: CurveGraph, bundle: MultidegreeBundle) -> bool:
    return _balance_scan(curve, bundle)[0]


def is_strictly_balanced(curve: CurveGraph, bundle: MultidegreeBundle) -> bool:
    return _balance_scan(curve, bundle)[1]


def balance_report(
    curve: CurveGraph, bundle: MultidegreeBundle
) -> tuple[bool, bool, list[BalanceViolation]]:
    """(balanced, strictly balanced, violations) in one pass."""
    return _balance_scan(curve, bundle)


@dataclass(frozen=True)
class BridgeReport:
    """Cross-check between strict balance and stability of O_C.

    Applicable to stable curves with an ample multidegree of total
    ``p_a - 1``; there strict balance and w-stability of O_C under the
    induced polarization must coincide, and on compact type both must
    coincide with a certified-good verdict.
    """

    applicable: bool
    reason: str | None
    strictly_balanced: bool | None = None
    oc_stable: bool | None = None
    equivalent: bool | None = None
    goodness_status: GoodnessStatus | None = None
    goodness_equivalent: bool | None = None


def balanced_stability_bridge(
    curve: CurveGraph, bundle: MultidegreeBundle
) -> BridgeReport:
    cls = curve.classify()
    pa = curve.arithmetic_genus
    if not cls.stable:
        return BridgeReport(False, "curve is not stable")
    if not bundle.is_ample:
        return BridgeReport(False, "multidegree is not ample")
    if bundle.total != pa - 1:
        return BridgeReport(
            False,
            f"total degree {bundle.total} differs from p_a - 1 = {pa - 1}",
        )
    strict = is_strictly_balanced(curve, bundle)
    w = from_multidegree(curve, bundle.degrees)
    verdict = oc_stability(curve, w)
    report = BridgeReport(
        applicable=True,
        reason=None,
        strictly_balanced=strict,
        oc_stable=verdict.stable,
        equivalent=strict == verdict.stable,
    )
    if cls.compact_type:
        good = decide(curve, w)
        report = BridgeReport(
            applicable=True,
            reason=None,
            strictly_balanced=strict,
            oc_stable=verdict.stable,
            equivalent=strict == verdict.stable,
            goodness_status=good.status,
            goodness_equivalent=strict
            == (good.status is GoodnessStatus.GOOD_CERTIFIED),
        )
    return report
