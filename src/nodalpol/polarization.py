"""Exact rational polarizations, their lambda vectors and weight grids.

A polarization assigns a positive rational weight to each component, with
the weights summing to one.  Attached to a polarized curve is the lambda
vector ``lambda_i = 1 - g_i - w_i * chi(O_C)``, which drives every other
quantity in the package: the lambda values sum to the number of nodes, and
for a subcurve B the structure-sheaf defect is

    delta_structure(B) = sum(lambda_i for i in B) - N(B),

where N(B) counts the nodes internal to B.  Arithmetic is in integers
over the polarization's common denominator Q: the kernels here and in
``sheafdata``/``pathsys`` take ``Q * lambda`` and return defects scaled by
Q (or 2Q), and ``fractions.Fraction`` appears only at the API edges, where
the public functions divide by the scale.  Every predicate is a sign or
equality test, so the scale never changes an answer, and floating point
never enters one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .curve import CurveGraph, Subcurve
from .errors import (
    CanonicalUndefinedError,
    InvalidPolarizationError,
    NonAmpleMultidegreeError,
)

LambdaVector = tuple[Fraction, ...]


class ScaledLambda(NamedTuple):
    """The lambda vector as integers over the polarization's denominator."""

    values: tuple[int, ...]  # values[k] == q * lambda_k
    q: int  # common denominator of the weights


class Polarization:
    """Vector of exact positive rational weights summing to one.

    For a one-component curve the single weight is exactly 1; otherwise
    every weight lies strictly between 0 and 1.  The state is integer:
    ``numerators`` over :meth:`common_denominator`, the least common
    denominator of the weights, so equal weights give equal integers.
    ``weights`` makes the ``Fraction`` values on first read.  Instances
    are immutable.
    """

    __slots__ = ("_numerators", "_denominator", "_weights")

    def __init__(self, weights: Iterable[object]) -> None:
        ws = tuple(Fraction(w) for w in weights)  # type: ignore[arg-type]
        q = lcm(*(w.denominator for w in ws))
        self._set(tuple(w.numerator * (q // w.denominator) for w in ws), q)
        object.__setattr__(self, "_weights", ws)

    @classmethod
    def from_numerators(
        cls, numerators: Sequence[int], denominator: int
    ) -> "Polarization":
        """The weights ``numerators[k] / denominator``, built and checked
        on the integers; no ``Fraction`` is made."""
        # Dividing by the common factor leaves the least common denominator.
        g = gcd(denominator, *numerators) or 1
        w = cls.__new__(cls)
        w._set(tuple(n // g for n in numerators), denominator // g)
        object.__setattr__(w, "_weights", None)
        return w

    def _set(self, nums: tuple[int, ...], q: int) -> None:
        if not nums:
            raise InvalidPolarizationError("a polarization needs at least one weight")
        if q <= 0:
            raise InvalidPolarizationError(
                f"the common denominator must be positive, got {q}"
            )
        if sum(nums) != q:
            raise InvalidPolarizationError(
                f"weights must sum to 1 exactly, got {Fraction(sum(nums), q)}"
            )
        if len(nums) > 1:
            for k, n in enumerate(nums):
                if not 0 < n < q:
                    raise InvalidPolarizationError(
                        f"weight #{k + 1} = {Fraction(n, q)} is outside the "
                        "open interval (0, 1)"
                    )
        object.__setattr__(self, "_numerators", nums)
        object.__setattr__(self, "_denominator", q)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Polarization is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Polarization is immutable; cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return (Polarization.from_numerators, (self._numerators, self._denominator))

    @classmethod
    def of(cls, values: Iterable[object]) -> "Polarization":
        return cls(values)

    @classmethod
    def uniform(cls, gamma: int) -> "Polarization":
        return cls.from_numerators((1,) * gamma, gamma)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        if self._weights is None:
            q = self._denominator
            object.__setattr__(
                self, "_weights", tuple(Fraction(n, q) for n in self._numerators)
            )
        return self._weights

    @property
    def gamma(self) -> int:
        return len(self._numerators)

    def common_denominator(self) -> int:
        return self._denominator

    @property
    def numerators(self) -> tuple[int, ...]:
        """The weights times :meth:`common_denominator`."""
        return self._numerators

    def __hash__(self) -> int:
        return hash(self.weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polarization):
            return NotImplemented
        return (
            self._denominator == other._denominator
            and self._numerators == other._numerators
        )

    def __repr__(self) -> str:
        return f"Polarization({', '.join(str(w) for w in self.weights)})"


def from_multidegree(curve: CurveGraph, degrees: Sequence[int]) -> Polarization:
    """Polarization induced by an ample multidegree: w_i = d_i / sum(d)."""
    if len(degrees) != curve.gamma:
        raise InvalidPolarizationError(
            f"expected {curve.gamma} degrees, got {len(degrees)}"
        )
    if any(d <= 0 for d in degrees):
        raise NonAmpleMultidegreeError(
            f"every degree must be positive for ampleness, got {tuple(degrees)}"
        )
    return Polarization.from_numerators(degrees, sum(degrees))


def canonical(curve: CurveGraph) -> Polarization:
    """Polarization induced by the dualizing sheaf of a stable curve.

    eta_i = (g_i - 1 + delta_i/2) / (p_a - 1); the resulting lambda vector
    is exactly (delta_1/2, ..., delta_gamma/2).
    """
    if not curve.classify().stable:
        raise CanonicalUndefinedError(
            "the canonical polarization needs a stable curve "
            f"(arithmetic genus {curve.arithmetic_genus})"
        )
    return Polarization.from_numerators(
        [2 * (g - 1) + d for g, d in zip(curve.genera, curve.vertex_degrees)],
        2 * (curve.arithmetic_genus - 1),
    )


def scaled_lambda(curve: CurveGraph, w: Polarization) -> ScaledLambda:
    """The lambda kernel: ``Q * lambda_k = Q(1 - g_k) - n_k * chi(O_C)``.

    ``Q`` is the common denominator of the weights and ``n_k = Q * w_k``,
    so the entries are integers straight from the weight numerators.  The
    campaign computes this once per (curve, polarization) and passes it
    down to every kernel.
    """
    if w.gamma != curve.gamma:
        raise InvalidPolarizationError(
            f"polarization has {w.gamma} weights but the curve has "
            f"{curve.gamma} components"
        )
    q = w.common_denominator()
    chi = curve.euler_characteristic
    lam = tuple(q * (1 - g) - n * chi for g, n in zip(curve.genera, w.numerators))
    if sum(lam) != q * curve.delta:
        raise AssertionError("lambda entries failed to sum to the node count")
    return ScaledLambda(lam, q)


def lambda_vector(curve: CurveGraph, w: Polarization) -> LambdaVector:
    """lambda_i = 1 - g_i - w_i * chi(O_C); the entries sum to delta."""
    lam, q = scaled_lambda(curve, w)
    return tuple(Fraction(x, q) for x in lam)


def delta_structure_scaled(
    lam: Sequence[int], q: int, members: Iterable[int], internal: int
) -> int:
    """The structure-defect kernel: ``q * delta_structure(B)``.

    ``members`` are B's vertex indices and ``internal`` its internal node
    count; ``(lam, q)`` come from :func:`scaled_lambda`.
    """
    return sum(lam[k] for k in members) - q * internal


def subcurve_defects_scaled(curve: CurveGraph, lam: Sequence[int], q: int) -> list[int]:
    """``q * delta_structure(B)`` for every entry of
    ``curve.connected_subcurve_stats()``, in the same order.

    Reads the ``parents``, ``vertices`` and ``internal`` columns.  Each
    subcurve is its parent in the growth tree plus one component, and
    parents come first, so the lambda sum over B takes one addition per
    entry instead of a pass over B's members.
    """
    stats = curve.connected_subcurve_stats()
    sums = [0]  # sums[i + 1] is the lambda sum over entry i
    defects = []
    for parent, vertex, internal in zip(stats.parents, stats.vertices, stats.internal):
        s = sums[parent + 1] + lam[vertex]
        sums.append(s)
        defects.append(s - q * internal)
    return defects


def delta_structure(b: Subcurve, w: Polarization) -> Fraction:
    """Structure-sheaf defect of a subcurve.

    Equals ``sum(lambda_i, i in B) - N(B)``, and also
    ``1 - p_a(B) + (p_a(C) - 1) * sum(w_i, i in B)``; for the full curve it
    is zero.  Valid for disconnected subcurves.
    """
    lam, q = scaled_lambda(b.owner, w)
    internal, _ = b.owner.subset_counts(b.mask)
    return Fraction(delta_structure_scaled(lam, q, b.member_indices, internal), q)


def enumerate_weight_grid(gamma: int, max_denominator: int) -> Iterator[Polarization]:
    """All polarizations with common denominator up to the bound.

    Enumerates positive numerator compositions per denominator, ascending
    denominator then lexicographic, skipping vectors already produced with
    a smaller denominator (those whose numerators share a factor with the
    denominator).  Deterministic.
    """
    if gamma < 1 or max_denominator < 1:
        raise InvalidPolarizationError("grid parameters must be positive")
    for q in range(gamma, max_denominator + 1):
        for parts in _positive_compositions(q, gamma):
            # A common factor g means the same point at denominator q/g,
            # which is at least gamma and so was produced already.
            if gcd(q, *parts) != 1:
                continue
            yield Polarization.from_numerators(parts, q)


def _positive_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest
