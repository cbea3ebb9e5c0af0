"""Slope stability of O_C and of rank-one depth-one sheaves.

O_C is w-stable exactly when ``0 < delta_structure(B) < delta_B`` for every
proper connected subcurve B, w-semistable when the non-strict inequalities
hold.  Two shortcut regimes exist for reducible curves: arithmetic genus 0
forces stability, and arithmetic genus 1 forces semistability with
stability exactly on cycles of rational curves.  Both shortcuts are
recomputed here and checked against the general enumeration on every call.

Strictness at exact rational equality is decided exactly; the
semistable-but-not-stable verdict is reachable and never approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curve import CurveGraph, Subcurve
from .errors import UnsupportedCurveError, UnsupportedRankError
from .polarization import (
    Polarization,
    ScaledLambda,
    delta_structure_scaled,
    scaled_lambda,
)
from .sheafdata import SheafDatum, slope_report, validate_datum


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability check.

    ``failing_subcurve`` is the first subcurve, in ascending bitmask order,
    violating the strict inequalities; it is present exactly when the
    verdict is not stable, and ``failing_value`` carries its defect (for
    O_C) or stability margin (for rank-one data).
    """

    stable: bool
    semistable: bool
    failing_subcurve: Subcurve | None = None
    failing_value: Fraction | None = None


def oc_stability(
    curve: CurveGraph, w: Polarization, scaled: ScaledLambda | None = None
) -> StabilityVerdict:
    """Decide w-stability of the structure sheaf.

    A one-component curve has no proper subcurves, so the verdict there is
    trivially stable.  ``scaled`` is the pair's :func:`scaled_lambda`, when
    the caller has it already.
    """
    if curve.gamma == 1:
        return StabilityVerdict(stable=True, semistable=True)

    lam, q = scaled_lambda(curve, w) if scaled is None else scaled
    stable = True
    semistable = True
    failing_mask: int | None = None
    failing_scaled = 0
    for stat in curve.connected_subcurve_stats():
        s = delta_structure_scaled(lam, q, stat.members, stat.internal)
        hi = q * stat.boundary
        if not 0 < s < hi:
            if stable:
                stable = False
                failing_mask = stat.mask
                failing_scaled = s
            if not 0 <= s <= hi:
                semistable = False
                break

    pa = curve.arithmetic_genus
    if pa == 0 and not stable:
        raise AssertionError("genus-0 shortcut disagrees with enumeration")
    if pa == 1:
        cycle = curve.classify().cycle_of_rationals
        if not semistable or stable != cycle:
            raise AssertionError("genus-1 shortcut disagrees with enumeration")

    if stable:
        return StabilityVerdict(stable=True, semistable=True)
    return StabilityVerdict(
        stable=False,
        semistable=semistable,
        failing_subcurve=Subcurve(curve, failing_mask),  # type: ignore[arg-type]
        failing_value=Fraction(failing_scaled, q),
    )


def star_conditions(
    curve: CurveGraph, w: Polarization
) -> list[tuple[Subcurve, bool]]:
    """The weight-window condition for each proper connected subcurve.

    For arithmetic genus at least 2,
    ``(p_a(B)-1)/(p_a-1) < sum(w_i, i in B) < (p_a(B)-1+delta_B)/(p_a-1)``
    is equivalent to ``0 < delta_structure(B) < delta_B``, so all entries
    are satisfied exactly when O_C is w-stable.
    """
    pa = curve.arithmetic_genus
    if pa < 2:
        raise UnsupportedCurveError(
            "weight-window conditions need arithmetic genus >= 2"
        )
    if w.gamma != curve.gamma:
        raise UnsupportedCurveError("polarization length mismatch")
    P = pa - 1
    out = []
    for stat in curve.connected_subcurve_stats():
        wsum = sum((w.weights[k] for k in stat.members), Fraction(0))
        lower = Fraction(stat.genus - 1, P)
        upper = Fraction(stat.genus - 1 + stat.boundary, P)
        out.append((Subcurve(curve, stat.mask), lower < wsum < upper))
    return out


def rank1_stability(
    curve: CurveGraph, w: Polarization, e: SheafDatum
) -> StabilityVerdict:
    """Decide w-stability of a depth-one datum of rank one on every component.

    Stable when ``wdeg(E_B) > wdeg(E) * wrank(E_B)`` for every proper
    subcurve B (connected or not); semistable with the non-strict
    inequality.  Data with any rank different from one are rejected: the
    subcurve criterion does not cover them.
    """
    validate_datum(curve, e)
    if any(r != 1 for r in e.ranks):
        raise UnsupportedRankError(
            "the subcurve criterion applies to rank-one-everywhere data only"
        )
    if curve.gamma == 1:
        return StabilityVerdict(stable=True, semistable=True)

    lam, q = scaled_lambda(curve, w)
    # Everything scaled by q: wdeg(E_B)*q stays integral because all ranks
    # are one and q is the weights' common denominator.
    wq = w.numerators
    wdeg_total_q = slope_report(curve, w, e).wdeg * q
    assert wdeg_total_q.denominator == 1
    wdeg_total_q = int(wdeg_total_q)

    edge_pairs = curve.edge_index_pairs()
    stalk = e.stalk_free
    stable = True
    semistable = True
    failing_mask: int | None = None
    failing_value: Fraction | None = None
    for mask in curve.proper_masks("rank-one stability"):
        # q*wdeg(E_B) = sum over members of q*(lambda_i + d_i) minus q*s_j
        # over internal nodes; q*wrank(E_B) = sum of scaled weights.
        lhs = 0
        wrank_q = 0
        rest = mask
        while rest:
            low = rest & -rest
            k = low.bit_length() - 1
            lhs += lam[k] + q * e.degrees[k]
            wrank_q += wq[k]
            rest ^= low
        for j, (ia, ib) in enumerate(edge_pairs):
            if mask & (1 << ia) and mask & (1 << ib):
                lhs -= q * stalk[j]
        # margin = wdeg(E_B) - wdeg(E) * wrank(E_B), scaled by q^2
        margin = lhs * q - wdeg_total_q * wrank_q
        if margin <= 0:
            if stable:
                stable = False
                failing_mask = mask
                failing_value = Fraction(margin, q * q)
            if margin < 0:
                semistable = False
                break
    if stable:
        return StabilityVerdict(stable=True, semistable=True)
    return StabilityVerdict(
        stable=False,
        semistable=semistable,
        failing_subcurve=Subcurve(curve, failing_mask),  # type: ignore[arg-type]
        failing_value=failing_value,
    )
