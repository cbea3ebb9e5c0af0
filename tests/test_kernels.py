"""Differential oracle for the integer kernels.

Each kernel works in integers over the polarization's common denominator
Q and returns a defect scaled by Q or 2Q.  Here every one is compared with
a plain ``Fraction`` recomputation from the formulas in the module
docstrings, on seeded random (curve, polarization, datum) triples.  Part of
the polarizations make the lambda denominators' lcm smaller than Q (for
instance w = (1/2, 1/2) on an even Euler characteristic), where the scale
differs from the reduced one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from conftest import random_curve, random_datum, random_polarization
from nodalpol import (
    CurveGraph,
    Polarization,
    SheafDatum,
    aj_family,
    build_path_system,
    delta_decomposed,
    delta_general,
    delta_residual,
    delta_structure,
    lambda_vector,
    restrict,
)
from nodalpol.pathsys import aj_defects_scaled, delta_decomposed_scaled
from nodalpol.polarization import delta_structure_scaled, scaled_lambda
from nodalpol.sheafdata import delta_general_scaled, delta_residual_scaled, restrict_scaled

F = Fraction


def _cases(seed: int, count: int):
    """(curve, w, datum) triples; every other w is uniform or has an even
    numerator pattern, so that lambda often reduces below the weights'
    denominator."""
    rng = random.Random(seed)
    out = [
        (
            CurveGraph.from_genera([1, 1], [(1, 2), (1, 2)]),
            Polarization.of([F(1, 2), F(1, 2)]),
        )
    ]
    while len(out) < count:
        c = random_curve(rng, max_gamma=5)
        if len(out) % 2:
            w = random_polarization(rng, c.gamma)
        else:
            nums = [2 * rng.randint(1, 4) for _ in range(c.gamma)]
            w = Polarization.of([F(n, sum(nums)) for n in nums])
        out.append((c, w))
    return [(c, w, random_datum(rng, c)) for c, w in out]


def _lambda(c: CurveGraph, w: Polarization) -> list[Fraction]:
    chi = c.euler_characteristic
    return [1 - g - wi * chi for g, wi in zip(c.genera, w.weights)]


def _inside(mask: int, k: int) -> bool:
    return bool(mask >> k & 1)


def _internal_edges(c: CurveGraph, mask: int) -> list[int]:
    return [
        j
        for j, (a, b) in enumerate(c.edge_index_pairs())
        if _inside(mask, a) and _inside(mask, b)
    ]


def _boundary(c: CurveGraph, mask: int) -> int:
    return sum(_inside(mask, a) != _inside(mask, b) for a, b in c.edge_index_pairs())


def _structure(c: CurveGraph, lam, mask: int) -> Fraction:
    return sum(lam[k] for k in range(c.gamma) if _inside(mask, k)) - len(_internal_edges(c, mask))


def _path_formula(c: CurveGraph, lam, ps, e: SheafDatum) -> Fraction:
    """delta(E) from the decomposition in the ``pathsys`` docstring, with
    every far side read off the parent pointers."""
    index = {vid: k for k, vid in enumerate(c.vertex_ids)}
    total = F(0)
    for j, eid in enumerate(c.edge_ids):
        pred, succ = ps.orientation[eid]
        s = e.stalk_free[j]
        a = e.ranks[index[pred]] - s
        b = e.ranks[index[succ]] - s
        if eid in ps.tree_edges:
            mask = 0
            for vid in c.vertex_ids:
                if eid in ps.path_edge_ids(vid):
                    mask |= 1 << index[vid]
            d = _boundary(c, mask)
            delta_a = _structure(c, lam, mask)
            total += a * (F(1 - d, 2) + delta_a) + b * (F(1 + d, 2) - delta_a)
        else:
            total += F(a + b, 2)
    return total


def test_cases_cover_a_reduced_lambda():
    reduced = 0
    for c, w, _ in _cases(1, 200):
        q = scaled_lambda(c, w).q
        reduced += lcm(*(x.denominator for x in _lambda(c, w))) < q
    assert reduced >= 20


def test_lambda_kernel():
    for c, w, _ in _cases(2, 300):
        values, q = scaled_lambda(c, w)
        assert q == lcm(*(x.denominator for x in w.weights))
        assert [F(v, q) for v in values] == _lambda(c, w)
        assert list(lambda_vector(c, w)) == _lambda(c, w)
        assert sum(_lambda(c, w)) == c.delta


def test_structure_kernel():
    for c, w, _ in _cases(3, 200):
        lam = _lambda(c, w)
        values, q = scaled_lambda(c, w)
        for mask in range(1, c.full_mask + 1):
            members = [k for k in range(c.gamma) if _inside(mask, k)]
            internal = len(_internal_edges(c, mask))
            expected = _structure(c, lam, mask)
            assert F(delta_structure_scaled(values, q, members, internal), q) == expected
            assert delta_structure(c.subcurve_from_mask(mask), w) == expected


def test_datum_kernels():
    for c, w, e in _cases(4, 400):
        lam = _lambda(c, w)
        values, q = scaled_lambda(c, w)
        general = sum(r * x for r, x in zip(e.ranks, lam)) - sum(e.stalk_free)
        residual = sum(
            r * (x - F(d, 2)) for r, x, d in zip(e.ranks, lam, c.vertex_degrees)
        ) + F(
            sum(
                e.ranks[a] + e.ranks[b] - 2 * e.stalk_free[j]
                for j, (a, b) in enumerate(c.edge_index_pairs())
            ),
            2,
        )
        assert general == residual
        assert F(delta_general_scaled(c, values, q, e), q) == general
        assert F(delta_residual_scaled(c, values, q, e), 2 * q) == general
        assert delta_general(c, w, e) == general
        assert delta_residual(c, w, e) == general
        for mask in range(1, c.full_mask + 1):
            expected = sum(
                e.ranks[k] * lam[k] for k in range(c.gamma) if _inside(mask, k)
            ) - sum(e.stalk_free[j] for j in _internal_edges(c, mask))
            assert F(restrict_scaled(c, values, q, e, mask), q) == expected
            assert restrict(c, w, e, c.subcurve_from_mask(mask)) == expected


def test_path_kernels():
    for c, w, e in _cases(5, 200):
        lam = _lambda(c, w)
        values, q = scaled_lambda(c, w)
        general = sum(r * x for r, x in zip(e.ranks, lam)) - sum(e.stalk_free)
        for base in c.vertex_ids:
            ps = build_path_system(c, base)
            aj = aj_defects_scaled(ps, values, q)
            for geo, scaled in zip(ps.aj_geometry, aj):
                if geo.mask:
                    assert F(scaled, q) == _structure(c, lam, geo.mask)
            expected = _path_formula(c, lam, ps, e)
            assert expected == general
            assert F(delta_decomposed_scaled(ps, q, aj, e), 2 * q) == expected
            fam = aj_family(c, w, ps)
            assert delta_decomposed(c, w, ps, fam, e) == expected
