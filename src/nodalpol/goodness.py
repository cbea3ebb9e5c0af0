"""Deciding goodness of a polarization.

A polarization is *good* when the defect of every depth-one datum is
non-negative, with zero exactly on locally free data.  Two verdicts are
possible:

* ``NOT_GOOD`` -- a concrete witness datum with negative defect, or zero
  defect while not locally free, built constructively from a subcurve on
  which O_C fails to be w-stable and re-checked through all three defect
  formulas.
* ``GOOD_CERTIFIED`` -- O_C is w-stable, with one of two certificates.
  ``path-window`` names a base vertex for which every non-empty far-side
  subcurve satisfies its two-sided defect window; the decomposition
  formula then makes the defect a non-negative combination with positive
  coefficients.  ``level-set`` is the theorem below, which needs no base.

**Level sets.**  Inside the numeric model of a datum (ranks ``r_k``, free
stalk ranks ``s_j``; realizability is assumed, see ``sheafdata``),
goodness is equivalent to w-stability of O_C.  The defect

    delta(r, s) = sum_k r_k * lambda_k - sum_j s_j

decreases in every stalk rank, so for fixed ``r`` it is least at
``s_j = min(r_a, r_b)`` over each node's branches, and any other admissible
choice is strictly larger.  Let ``0 = t_0 < t_1 < ... < t_m`` be the
distinct values of ``r`` together with 0, and ``B_i = {k : r_k >= t_i}``.
Then ``r_k`` and ``min(r_a, r_b)`` are the sums of ``t_i - t_(i-1)`` over
the levels containing ``k``, respectively both of ``a`` and ``b``, so

    delta(r, min) = sum_i (t_i - t_(i-1)) * delta(O_(B_i)),

the Lovasz extension of ``B -> delta(O_B)`` (Lovasz, "Submodular functions
and convexity", 1983).  Three facts about ``delta(O_B) = sum of lambda_k
over B minus the nodes internal to B`` close the argument: it is additive
over the connected pieces of B; ``delta(O_C) = 0``; and
``delta(O_B) + delta(O_(B^c)) = delta_B``, the boundary node count.

* If O_C is stable, ``delta(O_B) > 0`` on every proper non-empty B, since
  each connected piece of B is proper and connected.  So every defect is
  non-negative, and it vanishes only when every ``B_i`` is the whole curve
  and every ``s_j`` is minimal: ``r`` is constant and positive, which is a
  locally free datum.  The polarization is good.
* If O_C is not stable, a proper connected B has ``delta(O_B) <= 0`` or
  ``delta(O_B) >= delta_B``.  Then O_B, or else O_(B^c), is not locally
  free and has defect at most 0: the constructive witness below.

So a witness exists exactly when O_C is unstable, and the campaign's
discrepancy check (:func:`conjecture_probe`) can catch only internal
inconsistencies of this package -- a wrong stability verdict, witness or
kernel -- never a counterexample to the paper's conjecture, which is about
sheaves on actual curves rather than this numeric model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .curve import CurveGraph
from .pathsys import aj_defects_scaled, build_path_system, delta_decomposed_scaled
from .polarization import (
    Polarization,
    ScaledLambda,
    delta_structure_scaled,
    scaled_lambda,
)
from .sheafdata import (
    SheafDatum,
    delta_general_scaled,
    delta_residual_scaled,
    is_locally_free,
    validate_datum,
)
from .stability import StabilityVerdict, oc_stability

PATH_WINDOW = "path-window"
LEVEL_SET = "level-set"


class GoodnessStatus(Enum):
    GOOD_CERTIFIED = "GoodCertified"
    NOT_GOOD = "NotGood"


@dataclass(frozen=True)
class GoodnessVerdict:
    """Verdict plus the object backing it.

    ``certificate_kind`` (``PATH_WINDOW`` or ``LEVEL_SET``) is set for
    ``GOOD_CERTIFIED``, and ``certificate_base`` with ``PATH_WINDOW``;
    ``witness`` and ``witness_delta`` for ``NOT_GOOD``.
    """

    status: GoodnessStatus
    certificate_base: int | None = None
    witness: SheafDatum | None = None
    witness_delta: Fraction | None = None
    certificate_kind: str | None = None


def sufficient_check(
    curve: CurveGraph, w: Polarization, scaled: ScaledLambda | None = None
) -> int | None:
    """First base vertex whose defect windows all hold, if any.

    Bases are tried in ascending id order; satisfaction may depend on the
    base, so all of them are probed before giving up.  ``scaled`` is the
    pair's :func:`scaled_lambda`, when the caller has it already.
    """
    lam, q = scaled_lambda(curve, w) if scaled is None else scaled
    for base in curve.vertex_ids:
        ps = build_path_system(curve, base)
        ok = True
        for geo in ps.aj_geometry:
            if geo.mask == 0:
                continue
            s = delta_structure_scaled(lam, q, geo.members, geo.internal)
            if not q * (geo.boundary - 1) < 2 * s < q * (geo.boundary + 1):
                ok = False
                break
        if ok:
            return base
    return None


def _level_set_certificate(stability: StabilityVerdict) -> GoodnessVerdict:
    """Goodness of a stable pair by the level-set theorem (module docstring)."""
    if not stability.stable:
        raise AssertionError("a level-set certificate needs a stable O_C")
    return GoodnessVerdict(
        status=GoodnessStatus.GOOD_CERTIFIED, certificate_kind=LEVEL_SET
    )


# bench/tracing.py times this stage under its former name.
_scan_rank_vectors = _level_set_certificate


def _witness_from_failing_subcurve(
    curve: CurveGraph,
    w: Polarization,
    verdict: StabilityVerdict,
    scaled: ScaledLambda,
) -> tuple[SheafDatum, Fraction]:
    """Constructive witness behind the necessity direction.

    If the failing subcurve B has non-positive defect, the pushforward of
    O_B is the witness; otherwise the defect is at least the boundary size
    and the complement's structure sheaf has non-positive defect instead.
    """
    b = verdict.failing_subcurve
    assert b is not None and verdict.failing_value is not None
    if verdict.failing_value <= 0:
        chosen = b
    else:
        chosen = b.complement()
    datum = SheafDatum.subcurve_sheaf(chosen)
    lam, q = scaled
    value = delta_general_scaled(curve, lam, q, datum)
    if value > 0 or (value == 0 and is_locally_free(curve, datum)):
        raise AssertionError("constructive witness failed its defect bound")
    return datum, Fraction(value, q)


def _check_witness(
    curve: CurveGraph,
    w: Polarization,
    datum: SheafDatum,
    value: Fraction,
    scaled: ScaledLambda,
) -> None:
    """Re-derive a witness's defect through all three formulas."""
    validate_datum(curve, datum)
    lam, q = scaled
    # Each kernel returns x = scale * delta; x / scale == num / den is
    # checked by cross-multiplying.
    num, den = value.numerator, value.denominator
    if delta_general_scaled(curve, lam, q, datum) * den != num * q:
        raise AssertionError("witness defect disagrees with the lambda formula")
    if delta_residual_scaled(curve, lam, q, datum) * den != num * 2 * q:
        raise AssertionError("witness defect disagrees with the residual formula")
    ps = build_path_system(curve, curve.vertex_ids[0])
    aj = aj_defects_scaled(ps, lam, q)
    if delta_decomposed_scaled(ps, q, aj, datum) * den != num * 2 * q:
        raise AssertionError("witness defect disagrees with the path formula")


def decide(
    curve: CurveGraph,
    w: Polarization,
    stability: StabilityVerdict | None = None,
    scaled: ScaledLambda | None = None,
) -> GoodnessVerdict:
    """Full goodness decision procedure.

    Order: instability yields a constructive ``NOT_GOOD`` witness; then a
    window certificate yields ``GOOD_CERTIFIED`` with its base; otherwise
    the level-set theorem certifies goodness.  A precomputed stability
    verdict and :func:`scaled_lambda` for the same pair may be passed to
    avoid recomputing them.
    """
    if scaled is None:
        scaled = scaled_lambda(curve, w)
    if stability is None:
        stability = oc_stability(curve, w, scaled)
    if not stability.stable:
        datum, value = _witness_from_failing_subcurve(curve, w, stability, scaled)
        _check_witness(curve, w, datum, value, scaled)
        return GoodnessVerdict(
            status=GoodnessStatus.NOT_GOOD, witness=datum, witness_delta=value
        )
    base = sufficient_check(curve, w, scaled)
    if base is not None:
        return GoodnessVerdict(
            status=GoodnessStatus.GOOD_CERTIFIED,
            certificate_base=base,
            certificate_kind=PATH_WINDOW,
        )
    return _level_set_certificate(stability)


@dataclass(frozen=True)
class ProbeReport:
    """Joint stability/goodness outcome for one polarized curve."""

    stability: StabilityVerdict
    goodness: GoodnessVerdict
    discrepancy: bool
    description: str


def conjecture_probe(curve: CurveGraph, w: Polarization) -> ProbeReport:
    """Compare w-stability of O_C with the goodness verdict.

    A stable pair judged ``NOT_GOOD``, or an unstable pair not judged
    ``NOT_GOOD``, is a discrepancy.  By the level-set theorem either one
    means an internal inconsistency, not a counterexample.
    """
    scaled = scaled_lambda(curve, w)
    stability = oc_stability(curve, w, scaled)
    verdict = decide(curve, w, stability=stability, scaled=scaled)
    not_good = verdict.status is GoodnessStatus.NOT_GOOD
    if stability.stable and not_good:
        return ProbeReport(
            stability,
            verdict,
            True,
            "DISCREPANCY: stable structure sheaf but a witness against goodness",
        )
    if not stability.stable and not not_good:
        return ProbeReport(
            stability,
            verdict,
            True,
            "DISCREPANCY: unstable structure sheaf without a goodness witness",
        )
    return ProbeReport(
        stability, verdict, False, f"CONSISTENT ({verdict.status.value})"
    )
