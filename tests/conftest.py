"""Shared random generators, hypothesis strategies and Fraction oracles
for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from nodalpol import (
    AjFamily,
    CurveGraph,
    Polarization,
    SheafDatum,
    StabilityPolytope,
    Subcurve,
    enumerate_weight_grid,
    oc_stability,
)


def random_curve(
    rng: random.Random,
    max_gamma: int = 5,
    max_extra_edges: int = 3,
    max_genus: int = 3,
) -> CurveGraph:
    """Random connected decorated multigraph: a spanning tree plus extras."""
    gamma = rng.randint(1, max_gamma)
    edges = []
    for v in range(2, gamma + 1):
        edges.append((rng.randint(1, v - 1), v))
    if gamma >= 2:
        for _ in range(rng.randint(0, max_extra_edges)):
            u = rng.randint(1, gamma)
            v = rng.randint(1, gamma)
            while v == u:
                v = rng.randint(1, gamma)
            edges.append((min(u, v), max(u, v)))
    genera = [rng.randint(0, max_genus) for _ in range(gamma)]
    return CurveGraph.from_genera(genera, edges)


def proper_connected_subcurves(c: CurveGraph) -> list[Subcurve]:
    """Every proper connected subcurve of ``c``, ascending by mask."""
    return [Subcurve(c, mask) for mask in c.connected_subcurve_stats().masks]


def random_polarization(rng: random.Random, gamma: int) -> Polarization:
    nums = [rng.randint(1, 9) for _ in range(gamma)]
    total = sum(nums)
    return Polarization.of([Fraction(n, total) for n in nums])


def random_datum(
    rng: random.Random, curve: CurveGraph, max_rank: int = 3
) -> SheafDatum:
    ranks = [rng.randint(0, max_rank) for _ in range(curve.gamma)]
    if all(r == 0 for r in ranks):
        ranks[rng.randrange(curve.gamma)] = rng.randint(1, max_rank)
    stalk = [
        rng.randint(0, min(ranks[a], ranks[b]))
        for a, b in curve.edge_index_pairs()
    ]
    degrees = [rng.randint(-3, 3) if r else 0 for r in ranks]
    return SheafDatum(tuple(ranks), tuple(degrees), tuple(stalk))


def polytope_accepts(
    polytope: StabilityPolytope, w: Polarization, strict: bool = True
) -> bool:
    """Oracle: ``w`` lies in every window of the polytope, open or closed,
    summed in Fractions over each window's subcurve."""
    for win in polytope.windows:
        total = sum((w.weights[k] for k in win.subcurve.member_indices), Fraction(0))
        inside = (
            win.lower < total < win.upper if strict else win.lower <= total <= win.upper
        )
        if not inside:
            return False
    return True


def grid_witness(curve: CurveGraph, max_denominator: int) -> Polarization | None:
    """Oracle: the first point of the weight grid up to ``max_denominator``,
    in grid order, that :func:`oc_stability` calls stable, or ``None``.
    Its cost grows like C(max_denominator, gamma), so keep the cap small."""
    return next(
        (
            w
            for w in enumerate_weight_grid(curve.gamma, max_denominator)
            if oc_stability(curve, w).stable
        ),
        None,
    )


def star2_conditions(fam: AjFamily) -> list[tuple[int, bool]]:
    """Oracle: the two-sided defect window of each non-empty far-side
    subcurve, ``(boundary - 1)/2 < delta(O_{A_j}) < (boundary + 1)/2``, in
    Fractions."""
    out = []
    for entry in fam.non_empty():
        lo = Fraction(entry.boundary - 1, 2)  # type: ignore[operator]
        hi = Fraction(entry.boundary + 1, 2)  # type: ignore[operator]
        out.append((entry.edge_id, lo < entry.delta < hi))
    return out


@st.composite
def curves(draw, max_gamma: int = 5, max_extra_edges: int = 3, max_genus: int = 3):
    gamma = draw(st.integers(1, max_gamma))
    edges = []
    for v in range(2, gamma + 1):
        edges.append((draw(st.integers(1, v - 1)), v))
    if gamma >= 2:
        extras = draw(
            st.lists(
                st.tuples(st.integers(1, gamma), st.integers(1, gamma)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=max_extra_edges,
            )
        )
        edges.extend((min(u, v), max(u, v)) for u, v in extras)
    genera = draw(st.lists(st.integers(0, max_genus), min_size=gamma, max_size=gamma))
    return CurveGraph.from_genera(genera, edges)


@st.composite
def polarized_curves(draw, **kwargs):
    curve = draw(curves(**kwargs))
    nums = draw(
        st.lists(st.integers(1, 9), min_size=curve.gamma, max_size=curve.gamma)
    )
    total = sum(nums)
    return curve, Polarization.of([Fraction(n, total) for n in nums])


@st.composite
def polarized_data(draw, **kwargs):
    curve, w = draw(polarized_curves(**kwargs))
    ranks = list(
        draw(st.lists(st.integers(0, 3), min_size=curve.gamma, max_size=curve.gamma))
    )
    if all(r == 0 for r in ranks):
        ranks[draw(st.integers(0, curve.gamma - 1))] = draw(st.integers(1, 3))
    stalk = [
        draw(st.integers(0, min(ranks[a], ranks[b])))
        for a, b in curve.edge_index_pairs()
    ]
    degrees = [draw(st.integers(-3, 3)) if r else 0 for r in ranks]
    return curve, w, SheafDatum(tuple(ranks), tuple(degrees), tuple(stalk))
