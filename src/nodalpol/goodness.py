"""Deciding or gathering evidence for goodness of a polarization.

A polarization is *good* when the defect of every depth-one datum is
non-negative, with zero exactly on locally free data.  Three verdicts are
possible:

* ``NOT_GOOD`` -- a concrete witness datum with negative defect, or zero
  defect while not locally free, is in hand.  Whenever O_C fails to be
  w-stable such a witness exists and is built constructively from a
  failing subcurve, so an unstable pair can never be good.
* ``GOOD_CERTIFIED`` -- for some base vertex, every non-empty far-side
  subcurve satisfies its two-sided defect window; the decomposition
  formula then makes the defect a non-negative combination with positive
  coefficients, which is a proof of goodness.
* ``EVIDENCE_GOOD`` -- neither of the above: a bounded exhaustive search
  over rank vectors found no witness.  This is deliberately the strongest
  non-certified verdict.  For a fixed rank vector the defect is linear
  decreasing in each stalk rank, so only the minimizing stalk choice
  ``s_j = min`` of the branch ranks needs evaluation, and homogeneity
  suggests small rank vectors decide the matter outright; the search still
  enumerates the whole box precisely because that reduction is the open
  equivalence being stress-tested, not a fact this tool may assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .curve import MAX_RANK_TABLE_ENTRIES, CurveGraph
from .errors import NodalPolError
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


class GoodnessStatus(Enum):
    GOOD_CERTIFIED = "GoodCertified"
    NOT_GOOD = "NotGood"
    EVIDENCE_GOOD = "EvidenceGood"


@dataclass(frozen=True)
class GoodnessVerdict:
    """Verdict plus the object backing it.

    ``certificate_base`` is set for ``GOOD_CERTIFIED``; ``witness`` and
    ``witness_delta`` for ``NOT_GOOD``; ``searched_rank_bound`` (and the
    minimum defect met during the scan) for ``EVIDENCE_GOOD``.
    """

    status: GoodnessStatus
    certificate_base: int | None = None
    witness: SheafDatum | None = None
    witness_delta: Fraction | None = None
    searched_rank_bound: int | None = None
    searched_min_delta: Fraction | None = None


def default_rank_bound(curve: CurveGraph) -> int:
    return 2 * curve.gamma


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


@lru_cache(maxsize=16)
def _rank_vector_table(gamma: int, max_rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-zero rank vectors, ascending by maximum entry then lexicographic,
    and the mask of the rows whose ranks are all at least one.

    Callers keep the table within ``MAX_RANK_TABLE_ENTRIES`` entries.
    """
    grid = np.indices((max_rank + 1,) * gamma).reshape(gamma, -1).T
    grid = grid[1:]  # drop the zero vector
    order = np.argsort(grid.max(axis=1), kind="stable")
    table = np.ascontiguousarray(grid[order], dtype=np.int64)
    return table, (table >= 1).all(axis=1)


# The scan arrays of the latest curve only: a campaign scans all of a
# curve's polarizations before it moves on, and older arrays would only
# hold memory.
_curve_scan: tuple | None = None


def _scan_arrays(
    curve: CurveGraph, max_rank: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(table, stalks, not_free)`` for a curve and rank bound.

    ``stalks`` holds the minimizing stalk sum ``sum_j min(r_a, r_b)`` of
    every table row and ``not_free`` is 1 on the rows that are not locally
    free, 0 on the others; neither depends on the polarization.
    """
    global _curve_scan
    cached = _curve_scan
    if cached is not None and cached[0] is curve and cached[1] == max_rank:
        return cached[2]
    table, positive = _rank_vector_table(curve.gamma, max_rank)
    stalks = np.zeros(len(table), dtype=np.int64)
    free = positive.copy()
    for ia, ib in curve.edge_index_pairs():
        ca, cb = table[:, ia], table[:, ib]
        stalks += np.minimum(ca, cb)
        free &= ca == cb
    arrays = (table, stalks, (~free).astype(np.int8))
    _curve_scan = (curve, max_rank, arrays)
    return arrays


def _scan_rank_vectors(
    curve: CurveGraph,
    w: Polarization,
    max_rank: int,
    scaled: ScaledLambda | None = None,
) -> tuple[SheafDatum | None, Fraction | None]:
    """Exhaustive witness scan over rank vectors in {0..max_rank}^gamma.

    Vectors are visited ascending by maximum entry, then lexicographically,
    each with the defect-minimizing stalk choice.  Returns the first
    witness (negative defect, or zero defect while not locally free) and
    the minimum defect encountered over the whole enumeration.

    Big boxes are evaluated with vectorized int64 arithmetic; magnitudes
    are bounded first, with a fall-back to plain integers when they could
    overflow.  Both paths compute the identical exact predicate.  A box
    of more than ``MAX_RANK_TABLE_ENTRIES`` entries is refused.
    """
    lam, q = scaled_lambda(curve, w) if scaled is None else scaled
    size = (max_rank + 1) ** curve.gamma
    if (size - 1) * curve.gamma > MAX_RANK_TABLE_ENTRIES:
        raise NodalPolError(
            f"the rank scan over {{0..{max_rank}}}^{curve.gamma} would hold "
            f"{(size - 1) * curve.gamma} table entries, more than the limit of "
            f"{MAX_RANK_TABLE_ENTRIES}; pass a smaller rank bound"
        )
    bound = max_rank * (sum(abs(x) for x in lam) + q * curve.delta)
    if size >= 512 and bound < 2**62:
        return _scan_vectorized(curve, lam, q, max_rank)
    return _scan_plain(curve, lam, q, max_rank)


def _scan_plain(
    curve: CurveGraph, lam: tuple[int, ...], q: int, max_rank: int
) -> tuple[SheafDatum | None, Fraction | None]:
    gamma = curve.gamma
    pairs = curve.edge_index_pairs()
    min_scaled: int | None = None
    for top in range(1, max_rank + 1):
        for r in product(range(top + 1), repeat=gamma):
            if max(r) != top:
                continue
            s = 0
            for k in range(gamma):
                s += r[k] * lam[k]
            locally_free = all(x >= 1 for x in r)
            for ia, ib in pairs:
                ra, rb = r[ia], r[ib]
                s -= q * (ra if ra < rb else rb)
                if ra != rb:
                    locally_free = False
            if min_scaled is None or s < min_scaled:
                min_scaled = s
            if s < 0 or (s == 0 and not locally_free):
                datum = SheafDatum.with_minimizing_stalks(curve, r)
                return datum, Fraction(s, q)
    if min_scaled is None:
        return None, None
    return None, Fraction(min_scaled, q)


def _scan_vectorized(
    curve: CurveGraph, lam: tuple[int, ...], q: int, max_rank: int
) -> tuple[SheafDatum | None, Fraction | None]:
    table, stalks, not_free = _scan_arrays(curve, max_rank)
    defects = table @ np.asarray(lam, dtype=np.int64)
    defects -= q * stalks
    # A witness has a negative defect, or a zero one while not locally free.
    hits = defects < not_free
    first = int(np.argmax(hits))
    if hits[first]:
        r = tuple(int(x) for x in table[first])
        return (
            SheafDatum.with_minimizing_stalks(curve, r),
            Fraction(int(defects[first]), q),
        )
    return None, Fraction(int(defects.min()), q)


def witness_search(
    curve: CurveGraph, w: Polarization, max_rank: int
) -> tuple[SheafDatum, Fraction] | None:
    """First witness datum with its defect, or ``None`` when the bounded
    enumeration comes up empty."""
    if max_rank < 1:
        raise ValueError("the rank bound must be positive")
    datum, value = _scan_rank_vectors(curve, w, max_rank)
    if datum is None:
        return None
    return datum, value  # type: ignore[return-value]


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
    max_rank: int | None = None,
    stability: StabilityVerdict | None = None,
    scaled: ScaledLambda | None = None,
) -> GoodnessVerdict:
    """Full goodness decision procedure.

    Order: instability yields a constructive ``NOT_GOOD`` witness; then a
    window certificate yields ``GOOD_CERTIFIED``; then the bounded scan
    either finds a witness or returns ``EVIDENCE_GOOD``.  A precomputed
    stability verdict and :func:`scaled_lambda` for the same pair may be
    passed to avoid recomputing them.
    """
    if max_rank is None:
        max_rank = default_rank_bound(curve)
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
            status=GoodnessStatus.GOOD_CERTIFIED, certificate_base=base
        )
    datum, min_delta = _scan_rank_vectors(curve, w, max_rank, scaled)
    if datum is not None:
        _check_witness(curve, w, datum, min_delta, scaled)  # type: ignore[arg-type]
        return GoodnessVerdict(
            status=GoodnessStatus.NOT_GOOD,
            witness=datum,
            witness_delta=min_delta,
        )
    return GoodnessVerdict(
        status=GoodnessStatus.EVIDENCE_GOOD,
        searched_rank_bound=max_rank,
        searched_min_delta=min_delta,
    )


@dataclass(frozen=True)
class ProbeReport:
    """Joint stability/goodness outcome for one polarized curve."""

    stability: StabilityVerdict
    goodness: GoodnessVerdict
    discrepancy: bool
    description: str


def conjecture_probe(
    curve: CurveGraph, w: Polarization, max_rank: int | None = None
) -> ProbeReport:
    """Compare w-stability of O_C with the goodness verdict.

    A stable pair judged ``NOT_GOOD`` would be a genuine counterexample to
    the conjectured equivalence; an unstable pair not judged ``NOT_GOOD``
    would be an internal consistency failure, since instability always
    produces a constructive witness.
    """
    scaled = scaled_lambda(curve, w)
    stability = oc_stability(curve, w, scaled)
    verdict = decide(curve, w, max_rank, stability=stability, scaled=scaled)
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
