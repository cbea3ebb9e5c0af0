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

Whether the polytope is empty is decided in closed form.  Write
``P = p_a - 1 >= 1``.  A *rational tail* is a genus-0 component that meets
the rest of the curve in exactly one node.

Theorem.  Some polarization makes O_C stable exactly when C has no
rational tail.  Then

    w* = (1 - eps) * w_c + eps * (1/gamma, ..., 1/gamma),  eps = 1/(2P + 1),

is such a polarization, where ``w_c,k = (2 g_k - 2 + deg_k) / (2P)``; its
weights are ``((2 g_k - 2 + deg_k) * gamma + 1) / ((2P + 1) * gamma)``.

Proof.  *Only if:* for a tail T, ``p_a(T) = 0`` and ``delta_T = 1``, so
``delta_structure(T) = 1 + P * w_T > 1 = delta_T`` for every positive
weight, and T breaks its upper window.  *If:* with no tail, every
``2 g_k - 2 + deg_k`` is at least 0 (a genus-0 component has at least two
nodes), so ``w_c >= 0`` and ``w*`` is positive; its weights sum to one
because ``sum(2 g_k - 2 + deg_k) = 2P``.  For a connected B,
``p_a(B) = sum(g_k, k in B) + N(B) - |B| + 1`` and
``sum(deg_k, k in B) = 2 N(B) + delta_B``, so at ``w_c``

    delta_structure(B) = 1 - p_a(B) + P * w_c(B) = delta_B / 2.

``delta_structure(B)`` is affine in w with slope P on ``w(B)``, and for a
proper B both ``w_c(B)`` and ``|B| / gamma`` lie in [0, 1], the second
strictly inside, so moving from ``w_c`` to ``w*`` changes it by less than
``P * eps = P / (2P + 1) < 1/2``.  A proper B of a connected curve has
``delta_B >= 1``, so ``1/2 <= delta_B / 2`` and every open window holds at
``w*``.  On a DM-stable curve ``w_c`` is itself positive: it is the
canonical polarization, and it is the witness there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .curve import CurveGraph, Subcurve, mask_members
from .errors import UnsupportedCurveError, UnsupportedRankError
from .polarization import (
    Polarization,
    ScaledLambda,
    canonical,
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
    deduplicated.  The region is empty exactly when ``rational_tails``, the
    ids of the genus-0 components with one node in ascending order, is
    non-empty (the module docstring proves it); ``witness`` is then
    ``None``, and otherwise a point of the region.
    """

    curve: CurveGraph
    windows: tuple[WeightWindow, ...]
    witness: Polarization | None
    rational_tails: tuple[int, ...] = ()


def stability_polytope(curve: CurveGraph) -> StabilityPolytope:
    """Weight windows equivalent to stability of O_C, plus a witness point.

    Requires arithmetic genus at least 2; smaller genera are handled by the
    direct stability shortcuts instead.  A subcurve whose complement is
    connected and already has a window gets none: ``delta_B - delta(O_B)``
    is the complement's defect, so the two windows are the same constraint.
    The witness is the canonical polarization on a DM-stable curve and
    ``w*`` of the module docstring on any other curve without a rational
    tail; :func:`oc_stability` re-checks it.
    """
    pa = curve.arithmetic_genus
    if pa < 2:
        raise UnsupportedCurveError(
            "the weight-window description needs arithmetic genus >= 2"
        )
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
    degrees = curve.vertex_degrees
    ids_genera_degrees = zip(curve.vertex_ids, curve.genera, degrees)
    tails = tuple(vid for vid, g, d in ids_genera_degrees if g == 0 and d == 1)
    if tails:
        return StabilityPolytope(curve, tuple(windows), None, tails)
    if curve.classify().stable:
        witness = canonical(curve)
    else:
        gamma = curve.gamma
        witness = Polarization.from_numerators(
            [(2 * g - 2 + d) * gamma + 1 for g, d in zip(curve.genera, degrees)],
            (2 * P + 1) * gamma,
        )
    if not oc_stability(curve, witness).stable:
        raise AssertionError("the closed-form witness does not stabilize O_C")
    return StabilityPolytope(curve, tuple(windows), witness)
