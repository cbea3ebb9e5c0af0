"""Slope stability of O_C and of rank-one depth-one sheaves, and the
weight polytope on which O_C is stable.

O_C is w-stable exactly when ``0 < delta_structure(B) < delta_B`` for every
proper connected subcurve B, w-semistable when the non-strict inequalities
hold.  Two shortcut regimes exist for reducible curves: arithmetic genus 0
forces stability, and arithmetic genus 1 forces semistability with
stability exactly on cycles of rational curves.  Both shortcuts are
recomputed here and checked against the general enumeration on every call.

Strictness at exact rational equality is decided exactly; the
semistable-but-not-stable verdict is reachable and never approximated.

The same windows, read as constraints on the weights, cut out the
stability polytope.  For a connected B of arithmetic genus ``p_a(B)``,

    delta_structure(B) = 1 - p_a(B) + (p_a - 1) * sum(w_i, i in B),

and when ``p_a >= 2`` the condition ``0 < delta_structure(B) < delta_B`` is
the window

    p_a(B) - 1 < (p_a - 1) * sum(w_i, i in B) < p_a(B) - 1 + delta_B.

A point lies inside every open window exactly when
:func:`oc_stability` calls it stable, and inside every closed one exactly
when it calls it semistable, so the polytope has no membership test of its
own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .curve import CurveGraph, Subcurve, mask_members
from .errors import (
    InvalidPolarizationError,
    UnsupportedCurveError,
    UnsupportedRankError,
)
from .polarization import (
    Polarization,
    ScaledLambda,
    canonical,
    enumerate_weight_grid,
    scaled_lambda,
    subcurve_defects_scaled,
)
from .sheafdata import SheafDatum, restrict_scaled, validate_datum


class StabilityVerdict(NamedTuple):
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
    curve: CurveGraph,
    w: Polarization,
    scaled: ScaledLambda | None = None,
    defects: list[int] | None = None,
) -> StabilityVerdict:
    """Decide w-stability of the structure sheaf.

    A one-component curve has no proper subcurves, so the verdict there is
    trivially stable.  ``scaled`` is the pair's :func:`scaled_lambda` and
    ``defects`` its :func:`subcurve_defects_scaled` list, when the caller
    has them already.
    """
    if curve.gamma == 1:
        return StabilityVerdict(stable=True, semistable=True)

    lam, q = scaled_lambda(curve, w) if scaled is None else scaled
    if defects is None:
        defects = subcurve_defects_scaled(curve, lam, q)
    stable = True
    semistable = True
    failing_mask: int | None = None
    failing_scaled = 0
    stats = curve.connected_subcurve_stats()
    for mask, boundary, s in zip(stats.masks, stats.boundary, defects):
        hi = q * boundary
        if not 0 < s < hi:
            if stable:
                stable = False
                failing_mask = mask
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
    # Everything scaled by q.  With every rank one, delta(E) is the node
    # count minus the stalk ranks, so q*wdeg(E) = q*(sum(d) + delta - sum(s)).
    wq = w.numerators
    wdeg_total_q = q * (sum(e.degrees) + curve.delta - sum(e.stalk_free))
    stable = True
    semistable = True
    failing_mask: int | None = None
    failing_value: Fraction | None = None
    for mask in curve.proper_masks("rank-one stability"):
        # q*wdeg(E_B) = q*delta(E_B) + q*sum(d_i, i in B), and
        # q*wrank(E_B) = the sum of the scaled weights over B.
        lhs = restrict_scaled(curve, lam, q, e, mask)
        wrank_q = 0
        for k in mask_members(mask):
            lhs += q * e.degrees[k]
            wrank_q += wq[k]
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


class WeightWindow(NamedTuple):
    """Open interval constraint lower < sum(w_i, i in B) < upper."""

    subcurve: Subcurve
    lower: Fraction
    upper: Fraction


class StabilityPolytope(NamedTuple):
    """H-representation of the weight region where O_C is stable.

    One window per proper connected subcurve, with complementary pairs
    deduplicated.  ``witness`` is an interior rational point when one was
    found; its absence is reported as "no witness found", never as
    emptiness.
    """

    curve: CurveGraph
    windows: tuple[WeightWindow, ...]
    witness: Polarization | None


def stability_polytope(
    curve: CurveGraph, witness_denominator_bound: int = 24
) -> StabilityPolytope:
    """Weight windows equivalent to stability of O_C, plus a witness point.

    Requires arithmetic genus at least 2; smaller genera are handled by the
    direct stability shortcuts instead.  A subcurve whose complement is
    connected and already has a window gets none: ``delta_B - delta(O_B)``
    is the complement's defect, so the two windows are the same constraint.
    The witness is the first point that :func:`oc_stability` calls stable
    (the module docstring says why that is membership): the canonical
    polarization when the curve is stable, then the weight grid with
    denominator up to the bound, in grid order; otherwise it is absent.
    """
    pa = curve.arithmetic_genus
    if pa < 2:
        raise UnsupportedCurveError(
            "the weight-window description needs arithmetic genus >= 2"
        )
    if witness_denominator_bound < 1:
        raise InvalidPolarizationError("grid parameters must be positive")
    P = pa - 1
    windows = []
    seen_masks: set[int] = set()
    full = curve.full_mask
    stats = curve.connected_subcurve_stats()
    for mask, genus, boundary in zip(stats.masks, stats.genus, stats.boundary):
        if (full ^ mask) in seen_masks:
            continue
        seen_masks.add(mask)
        windows.append(
            WeightWindow(
                Subcurve(curve, mask),
                Fraction(genus - 1, P),
                Fraction(genus - 1 + boundary, P),
            )
        )
    candidates = enumerate_weight_grid(curve.gamma, witness_denominator_bound)
    if curve.classify().stable:
        candidates = chain((canonical(curve),), candidates)
    witness = next((w for w in candidates if oc_stability(curve, w).stable), None)
    return StabilityPolytope(curve, tuple(windows), witness)
