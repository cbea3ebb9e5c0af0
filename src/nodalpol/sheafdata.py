"""Combinatorial data of depth-one sheaves and their defect formulas.

A depth-one (torsion-free) sheaf on a nodal curve is described here purely
numerically: the rank ``r_i`` and degree ``d_i`` of its restriction to each
component (modulo torsion), and the free rank ``s_j`` of its stalk at each
node.  At a node joining components ``i1`` and ``i2`` the stalk splits into
a free part of rank ``s_j`` and branch parts of ranks ``a_{j,i} = r_i - s_j``;
the residual rank is ``t_j = a_{j,i1} + a_{j,i2}``, and the sheaf is
locally free exactly when every residual rank vanishes and the support is
the whole curve.

Realizability of a datum by an actual sheaf is assumed, not verified: the
defect computations only consume these numbers.  Degrees are never read by
the defect; they enter the w-degree only.

The central quantity is the defect

    delta(E) = wdeg(E) - sum(d_i),

computed three independent ways across this module and ``pathsys``; their
exact agreement is the package's primary cross-check.  It is proved once
per curve at the :func:`kronecker_point`, whose docstring says why one
evaluation suffices.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .curve import CurveGraph, Subcurve
from .errors import InvalidSheafError
from .polarization import Polarization, scaled_lambda


class SheafDatum(NamedTuple):
    """Per-component ranks and degrees plus per-node free stalk ranks.

    ``ranks`` and ``degrees`` are indexed like the curve's vertices,
    ``stalk_free`` like its edges.  Degrees must vanish where the rank does.
    """

    ranks: tuple[int, ...]
    degrees: tuple[int, ...]
    stalk_free: tuple[int, ...]

    @classmethod
    def structure_sheaf(cls, curve: CurveGraph) -> "SheafDatum":
        """The datum of O_C: rank one, degree zero, free at every node."""
        return cls(
            ranks=(1,) * curve.gamma,
            degrees=(0,) * curve.gamma,
            stalk_free=(1,) * curve.delta,
        )

    @classmethod
    def line_bundle(cls, curve: CurveGraph, degrees: Sequence[int]) -> "SheafDatum":
        """A line bundle with the given multidegree."""
        if len(degrees) != curve.gamma:
            raise InvalidSheafError(
                f"expected {curve.gamma} degrees, got {len(degrees)}"
            )
        return cls(
            ranks=(1,) * curve.gamma,
            degrees=tuple(int(d) for d in degrees),
            stalk_free=(1,) * curve.delta,
        )

    @classmethod
    def subcurve_sheaf(cls, b: Subcurve) -> "SheafDatum":
        """The datum of O_B pushed forward to the whole curve.

        Rank one on the members of B, zero elsewhere; the stalk is free at
        nodes internal to B and torsion at its boundary nodes.
        """
        curve = b.owner
        ranks = [0] * curve.gamma
        for k in b.member_indices:
            ranks[k] = 1
        stalk = []
        for ia, ib in curve.edge_index_pairs():
            stalk.append(min(ranks[ia], ranks[ib]))
        return cls(
            ranks=tuple(ranks),
            degrees=(0,) * curve.gamma,
            stalk_free=tuple(stalk),
        )

    @classmethod
    def with_minimizing_stalks(
        cls, curve: CurveGraph, ranks: Sequence[int]
    ) -> "SheafDatum":
        """Degree-zero datum with the defect-minimizing stalk choice.

        For a fixed rank vector the defect decreases in every ``s_j``, so
        the minimum is attained at ``s_j = min(r_i1, r_i2)``.
        """
        rs = tuple(int(r) for r in ranks)
        stalk = tuple(
            min(rs[ia], rs[ib]) for ia, ib in curve.edge_index_pairs()
        )
        return cls(ranks=rs, degrees=(0,) * curve.gamma, stalk_free=stalk)


def validate_datum(curve: CurveGraph, e: SheafDatum) -> None:
    """Check the rank/degree/stalk invariants; raise on the first failure."""
    if len(e.ranks) != curve.gamma:
        raise InvalidSheafError(
            f"expected {curve.gamma} ranks, got {len(e.ranks)}"
        )
    if len(e.degrees) != curve.gamma:
        raise InvalidSheafError(
            f"expected {curve.gamma} degrees, got {len(e.degrees)}"
        )
    if len(e.stalk_free) != curve.delta:
        raise InvalidSheafError(
            f"expected {curve.delta} stalk ranks, got {len(e.stalk_free)}"
        )
    for k, r in enumerate(e.ranks):
        if r < 0:
            raise InvalidSheafError(f"rank #{k + 1} is negative: {r}")
        if r == 0 and e.degrees[k] != 0:
            raise InvalidSheafError(
                f"component #{k + 1} has rank 0 but degree {e.degrees[k]}"
            )
    if all(r == 0 for r in e.ranks):
        raise InvalidSheafError("all ranks are zero; the sheaf would vanish")
    for j, (ia, ib) in enumerate(curve.edge_index_pairs()):
        s = e.stalk_free[j]
        if s < 0:
            raise InvalidSheafError(f"stalk rank at node #{j + 1} is negative: {s}")
        cap = min(e.ranks[ia], e.ranks[ib])
        if s > cap:
            raise InvalidSheafError(
                f"stalk rank {s} at node #{j + 1} exceeds the smaller "
                f"branch rank {cap}"
            )


def support_mask(curve: CurveGraph, e: SheafDatum) -> int:
    """Bitmask of components where the rank is positive; may be disconnected."""
    mask = 0
    for k, r in enumerate(e.ranks):
        if r >= 1:
            mask |= 1 << k
    return mask


def residual_ranks(curve: CurveGraph, e: SheafDatum) -> tuple[int, ...]:
    """t_j = r_i1 + r_i2 - 2 s_j for each node."""
    return tuple(
        e.ranks[ia] + e.ranks[ib] - 2 * e.stalk_free[j]
        for j, (ia, ib) in enumerate(curve.edge_index_pairs())
    )


def is_locally_free(curve: CurveGraph, e: SheafDatum) -> bool:
    """True when every residual rank vanishes and every rank is positive.

    Vanishing residual ranks force a constant rank on a connected curve,
    so this is equivalent to being a vector bundle on all of C.
    """
    if any(r < 1 for r in e.ranks):
        return False
    return all(t == 0 for t in residual_ranks(curve, e))


class SheafSlopeReport(NamedTuple):
    """w-rank, Euler characteristic, w-degree and w-slope of a datum."""

    wrank: Fraction
    chi: int
    wdeg: Fraction
    wslope: Fraction | None


def slope_report(
    curve: CurveGraph, w: Polarization, e: SheafDatum
) -> SheafSlopeReport:
    """Numerical slope data of a validated datum.

    chi(E) = sum(d_i + r_i (1 - g_i)) - sum(s_j) and
    wdeg(E) = chi(E) - wrank(E) chi(O_C).
    """
    wrank = sum(
        (r * wi for r, wi in zip(e.ranks, w.weights)), Fraction(0)
    )
    chi = sum(
        d + r * (1 - g) for d, r, g in zip(e.degrees, e.ranks, curve.genera)
    ) - sum(e.stalk_free)
    wdeg = chi - wrank * curve.euler_characteristic
    wslope = Fraction(chi) / wrank if wrank != 0 else None
    return SheafSlopeReport(wrank=wrank, chi=chi, wdeg=wdeg, wslope=wslope)


def delta_general_scaled(
    curve: CurveGraph, lam: Sequence[int], q: int, e: SheafDatum
) -> int:
    """The lambda-formula kernel: ``q * delta(E)``, from ``(lam, q)`` of
    :func:`scaled_lambda`."""
    return sum(r * l for r, l in zip(e.ranks, lam)) - q * sum(e.stalk_free)


def delta_general(curve: CurveGraph, w: Polarization, e: SheafDatum) -> Fraction:
    """Defect via the lambda vector: sum(r_i lambda_i) - sum(s_j).

    Equals ``wdeg(E) - sum(d_i)`` by construction and vanishes on every
    locally free datum, whatever the polarization.
    """
    lam, q = scaled_lambda(curve, w)
    return Fraction(delta_general_scaled(curve, lam, q, e), q)


def delta_residual_scaled(
    curve: CurveGraph, lam: Sequence[int], q: int, e: SheafDatum
) -> int:
    """The residual-formula kernel: ``2q * delta(E)``."""
    total = sum(
        r * (2 * l - q * d)
        for r, l, d in zip(e.ranks, lam, curve.vertex_degrees)
    )
    return total + q * sum(residual_ranks(curve, e))


def delta_residual(curve: CurveGraph, w: Polarization, e: SheafDatum) -> Fraction:
    """Defect via residual ranks: sum(r_i (lambda_i - delta_i/2)) + sum(t_j)/2.

    An independent rearrangement of :func:`delta_general`; the two must
    agree exactly on every valid datum.
    """
    lam, q = scaled_lambda(curve, w)
    return Fraction(delta_residual_scaled(curve, lam, q, e), 2 * q)


def restrict_scaled(
    curve: CurveGraph, lam: Sequence[int], q: int, e: SheafDatum, mask: int
) -> int:
    """The restriction kernel: ``q * delta(E_B)`` for the subcurve ``mask``."""
    total = 0
    for k, l in enumerate(lam):
        if mask >> k & 1:
            total += e.ranks[k] * l
    for j, (ia, ib) in enumerate(curve.edge_index_pairs()):
        if mask >> ia & 1 and mask >> ib & 1:
            total -= q * e.stalk_free[j]
    return total


def restrict(
    curve: CurveGraph, w: Polarization, e: SheafDatum, b: Subcurve
) -> Fraction:
    """Defect of the restriction of the datum to a subcurve, modulo torsion.

    delta(E_B) = sum(r_i lambda_i, i in B) - sum(s_j, j internal to B);
    boundary stalk ranks are not counted.  The numerical formula is used
    directly rather than materializing a restricted datum, which keeps the
    boundary-stalk convention out of the picture.
    """
    lam, q = scaled_lambda(curve, w)
    return Fraction(restrict_scaled(curve, lam, q, e, b.mask), q)


def restricted_wdeg(
    curve: CurveGraph, w: Polarization, e: SheafDatum, b: Subcurve
) -> Fraction:
    """w-degree of the restricted datum: restrict(...) + sum(d_i, i in B)."""
    return restrict(curve, w, e, b) + sum(e.degrees[k] for k in b.member_indices)


def tensor_by_multidegree(e: SheafDatum, line_degrees: Sequence[int]) -> SheafDatum:
    """Twist by a line bundle of the given multidegree.

    Degrees shift by ``r_i * l_i``; ranks and stalk ranks are unchanged, so
    the defect is invariant.
    """
    if len(line_degrees) != len(e.ranks):
        raise InvalidSheafError(
            f"expected {len(e.ranks)} twist degrees, got {len(line_degrees)}"
        )
    return SheafDatum(
        ranks=e.ranks,
        degrees=tuple(
            d + r * int(l) for d, r, l in zip(e.degrees, e.ranks, line_degrees)
        ),
        stalk_free=e.stalk_free,
    )


class KroneckerPoint(NamedTuple):
    """A datum and a scaled lambda vector at which one evaluation of a
    bilinear kernel encodes its whole coefficient table."""

    datum: SheafDatum
    lam: tuple[int, ...]
    q: int


def kronecker_width(delta: int) -> int:
    """The slot width B for a curve with ``delta`` nodes: the least B with
    ``2^(B-3) > 2 * delta``."""
    return (2 * delta).bit_length() + 3


def kronecker_point(curve: CurveGraph) -> KroneckerPoint:
    """The curve's Kronecker point (Kronecker 1882; Schoenhage 1982 for the
    integer form), built once and memoized on the curve.

    Counting nodes and components from 0, the datum puts the stalk of node
    j in slot ``j + 1`` and the rank of component k in slot
    ``delta + 1 + k``, each entry ``2^(B * slot)``, with degrees 0; every
    stalk rank is then below both branch ranks, so the datum is valid.
    Lambda lies on the hyperplane ``sum(lambda) = q * delta``: ``q`` and
    ``lambda_1 .. lambda_(gamma-1)`` are the powers ``2^(S * t)`` for
    ``t = 0 .. gamma-1``, with stride ``S = B * (gamma + delta + 1)``, and
    ``lambda_gamma = q * delta - (the others)``.

    Every defect kernel (lambda, residual, path, restriction) is bilinear:
    linear in the datum and linear in ``(lambda, q)``, so it vanishes when
    either is zero, and degrees never enter.  On the hyperplane it is a form
    ``sum of c(slot, t) * x_slot * y_t`` in the datum slots and the free
    variables ``y = (q, lambda_1, ...)``, and its value here is
    ``sum of c(slot, t) * 2^(B * (slot + (gamma + delta + 1) * t))``: the
    coefficients are the digits of one number in base ``2^B``, each at a
    position of its own.  When every digit is below ``2^(B-1)`` in absolute
    value, the value is zero only if every digit is.  The kernels'
    coefficients stay at or below ``2 * delta``, under ``2^(B-3)`` by the
    choice of B (``tests/test_kernels.py`` recovers them and checks the
    margin ``2^(B-2)``), so the difference of two kernels has digits below
    ``2^(B-1)``: two kernels equal at this point are equal for every datum
    and every lambda on the hyperplane, which holds every polarization of
    the curve.  Linear forms in the datum alone (the path bookkeeping) or
    in lambda alone (a fixed datum) are special cases.
    """
    return curve.memo("point", _kronecker_point)


def _kronecker_point(curve: CurveGraph) -> KroneckerPoint:
    gamma, delta = curve.gamma, curve.delta
    width = kronecker_width(delta)
    stride = width * (gamma + delta + 1)
    datum = SheafDatum(
        ranks=tuple(1 << width * (delta + 1 + k) for k in range(gamma)),
        degrees=(0,) * gamma,
        stalk_free=tuple(1 << width * (j + 1) for j in range(delta)),
    )
    q = 1
    free = [1 << stride * t for t in range(1, gamma)]
    lam = tuple(free) + (q * delta - sum(free),)
    return KroneckerPoint(datum, lam, q)
