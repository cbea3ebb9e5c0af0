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

**Integer form.**  Write ``P = p_a - 1``, ``d`` for the total degree and
``e_B`` for the degree on B.  Times ``2P`` the window reads

    | x_B |  <=  P * delta_B,   x_B = 2P * e_B - d * omega_degree(B).

``omega_degree(B) = sum(2 g_k - 2 + n_k, k in B)``, with ``n_k`` the nodes on
component k, since ``sum(n_k, k in B) = 2 N(B) + delta_B`` for the nodes
N(B) internal to B.  So with ``l_k = d (1 - g_k) + P e_k`` and
``s_B = sum(l_k, k in B) - d * N(B)``, the column that
``polarization.subcurve_defects_scaled(curve, l, d)`` returns,

    x_B = 2 s_B - d * delta_B.

**Additivity.**  Let B be proper with connected pieces B_1, ..., B_m.  No
node joins two pieces, so each node internal to B is internal to one piece
and each boundary node of B is a boundary node of one piece:
``delta_B = sum(delta_(B_i))``, and ``x_B = sum(x_(B_i))`` because ``e`` and
``omega_degree`` are sums over components.  If B breaks its window, then
``sum |x_(B_i)| >= |x_B| > P * sum(delta_(B_i))`` and some piece breaks its
own.  If B meets it with equality and no piece breaks its own, then
``sum |x_(B_i)| >= |x_B| = P * sum(delta_(B_i)) >= sum |x_(B_i)|`` forces
equality on every piece; a boundary node of B off the exceptional locus is
a boundary node of one of them.  Each piece is a proper connected
subcurve.  So both verdicts are read from the connected subcurves alone,
which are the subcurves the violation list names.

**The bridge is an identity.**  On a stable curve with an ample multidegree
of total ``d = P``, let ``w = e / P``.  Then ``lambda_k = 1 - g_k + e_k`` is
``l_k / P``, so ``s_B = P * delta(O_B)`` and ``x_B = P * (2 delta(O_B) -
delta_B)``.  The strict window ``|x_B| < P * delta_B`` is
``0 < delta(O_B) < delta_B``, stability's window on B, and the curve has no
exceptional component.  So strict balance is w-stability of O_C, and
:class:`BridgeReport`'s ``equivalent`` is always true.  ``goodness.decide``
certifies a pair good exactly when O_C is stable, so ``goodness_equivalent``
is always true as well.  The bridge keeps both as self-checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .curve import CurveGraph, Subcurve
from .errors import UnsupportedCurveError
from .goodness import GoodnessStatus, decide
from .polarization import from_multidegree, subcurve_defects_scaled
from .stability import oc_stability


class MultidegreeBundle(NamedTuple):
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


class BalanceViolation(NamedTuple):
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

    exceptional = curve.exceptional_components()
    violations = [
        BalanceViolation(
            "exceptional-degree",
            (curve.vertex_ids[k],),
            f"degree {bundle.degrees[k]} on an exceptional component",
        )
        for k in exceptional
        if bundle.degrees[k] != 1
    ]
    balanced, strict = not violations, True

    # One pass over the connected subcurves, on the integer form of the
    # module docstring; Fractions only spell out a violation.
    d = bundle.total
    P = pa - 1
    lam = [d * (1 - g) + P * e for g, e in zip(curve.genera, bundle.degrees)]
    stats = curve.connected_subcurve_stats()
    defects = subcurve_defects_scaled(curve, lam, d)
    for mask, genus, boundary, s in zip(
        stats.masks, stats.genus, stats.boundary, defects
    ):
        excess = abs(2 * s - d * boundary)
        width = P * boundary
        if excess < width or (excess == width and all(
            ia in exceptional or ib in exceptional
            for ia, ib in curve.edge_index_pairs()
            if (mask >> ia ^ mask >> ib) & 1
        )):
            continue
        sub = Subcurve(curve, mask)
        gap, bound = Fraction(excess, 2 * P), Fraction(boundary, 2)
        if excess > width:
            balanced = False
            deg_b = sum(bundle.degrees[k] for k in sub.member_indices)
            omega = 2 * genus - 2 + boundary
            detail = f"|{deg_b} - {Fraction(d, 2 * P)} * {omega}| = {gap} > {bound}"
        else:
            strict = False
            detail = f"equality {gap} = {bound} off the exceptional locus"
        violations.append(BalanceViolation("subcurve-window", sub.member_ids, detail))
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


class BridgeReport(NamedTuple):
    """Cross-check between strict balance and stability of O_C.

    Applicable to stable curves with an ample multidegree of total
    ``p_a - 1``; there strict balance and w-stability of O_C under the
    induced polarization coincide, and on compact type both coincide with a
    certified-good verdict.  The module docstring proves both, so
    ``equivalent`` and ``goodness_equivalent`` are always true when set:
    they check that the balance pass, ``oc_stability`` and ``decide`` agree.
    """

    applicable: bool
    reason: str | None
    strictly_balanced: bool | None = None
    oc_stable: bool | None = None
    equivalent: bool | None = None
    goodness_status: GoodnessStatus | None = None
    goodness_equivalent: bool | None = None


def balanced_stability_bridge(
    curve: CurveGraph,
    bundle: MultidegreeBundle,
    strictly_balanced: bool | None = None,
) -> BridgeReport:
    """Compare strict balance with stability of O_C (see :class:`BridgeReport`).

    ``strictly_balanced`` is the verdict a caller already holds from
    :func:`balance_report`; when absent, the subcurve scan runs here.
    """
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
    strict = (
        is_strictly_balanced(curve, bundle)
        if strictly_balanced is None
        else strictly_balanced
    )
    w = from_multidegree(curve, bundle.degrees)
    verdict = oc_stability(curve, w)
    goodness_status = goodness_equivalent = None
    if cls.compact_type:
        goodness_status = decide(curve, w, stability=verdict).status
        goodness_equivalent = strict == (
            goodness_status is GoodnessStatus.GOOD_CERTIFIED
        )
    return BridgeReport(
        applicable=True,
        reason=None,
        strictly_balanced=strict,
        oc_stable=verdict.stable,
        equivalent=strict == verdict.stable,
        goodness_status=goodness_status,
        goodness_equivalent=goodness_equivalent,
    )
