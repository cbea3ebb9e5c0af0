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

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curves, random_curve, random_datum, random_polarization
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
from nodalpol.pathsys import aj_defects_scaled, delta_decomposed_scaled, path_rank_sums
from nodalpol.polarization import delta_structure_scaled, scaled_lambda
from nodalpol.sheafdata import (
    delta_general_scaled,
    delta_residual_scaled,
    kronecker_point,
    kronecker_width,
    restrict_scaled,
    validate_datum,
)

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


# -- premises of the Kronecker proofs ------------------------------------
#
# ``sheafdata.kronecker_point`` turns one evaluation of a kernel into a
# proof for every datum and every lambda on the hyperplane
# sum(lambda) = q * delta.  That rests on three properties of the kernels,
# checked here on random curves: each is additive in the datum and in
# (lambda, q) separately, it vanishes when either is zero, and its
# coefficients, recovered by evaluating at unit vectors, stay below
# 2^(B-2) for the slot width B, so that the difference of two kernels has
# digits below 2^(B-1).


def _premise_kernels(c: CurveGraph) -> dict:
    """Every kernel the campaign's proofs compare, at the scale at which
    they are compared: ``name -> K(datum, lam, q)``."""
    out = {
        "lambda": lambda e, lam, q: 2 * delta_general_scaled(c, lam, q, e),
        "residual": lambda e, lam, q: delta_residual_scaled(c, lam, q, e),
    }
    for base in c.vertex_ids:
        ps = build_path_system(c, base)
        out[f"path@{base}"] = lambda e, lam, q, ps=ps: delta_decomposed_scaled(
            ps, q, aj_defects_scaled(ps, lam, q), e
        )
        for v in range(c.gamma):
            out[f"telescoping@{base}/{v}"] = (
                lambda e, lam, q, ps=ps, v=v: path_rank_sums(ps, e.ranks)[v]
            )
    for mask in range(1, c.full_mask + 1):
        out[f"restrict/{mask}"] = (
            lambda e, lam, q, mask=mask: 2 * restrict_scaled(c, lam, q, e, mask)
        )
    return out


def _datum(ranks, stalks) -> SheafDatum:
    return SheafDatum(tuple(ranks), (0,) * len(ranks), tuple(stalks))


def _add(x, y):
    return [a + b for a, b in zip(x, y)]


@st.composite
def _bilinear_cases(draw):
    c = draw(curves())
    ints = st.integers(-50, 50)
    vec = lambda n: st.lists(ints, min_size=n, max_size=n)  # noqa: E731
    data = [(draw(vec(c.gamma)), draw(vec(c.delta))) for _ in range(2)]
    lams = [(draw(vec(c.gamma)), draw(ints)) for _ in range(2)]
    return c, data, lams


@given(_bilinear_cases())
@settings(max_examples=80, deadline=None)
def test_kernels_are_bilinear(case):
    c, ((r1, s1), (r2, s2)), ((l1, q1), (l2, q2)) = case
    e1, e2, e12 = _datum(r1, s1), _datum(r2, s2), _datum(_add(r1, r2), _add(s1, s2))
    zero_e = _datum([0] * c.gamma, [0] * c.delta)
    l12, q12 = _add(l1, l2), q1 + q2
    for name, kernel in _premise_kernels(c).items():
        assert kernel(e12, l1, q1) == kernel(e1, l1, q1) + kernel(e2, l1, q1), name
        assert kernel(zero_e, l1, q1) == 0, name
        if name.startswith("telescoping"):
            # Linear in the datum alone: lambda does not enter.
            assert kernel(e1, l1, q1) == kernel(e1, l2, q2), name
            continue
        assert kernel(e1, l12, q12) == kernel(e1, l1, q1) + kernel(e1, l2, q2), name
        assert kernel(e1, [0] * c.gamma, 0) == 0, name


def _unit_data(c: CurveGraph):
    """(slot, unit datum): stalk j in slot j + 1, rank k in slot delta+1+k."""
    for j in range(c.delta):
        yield j + 1, _datum([0] * c.gamma, [int(i == j) for i in range(c.delta)])
    for k in range(c.gamma):
        yield c.delta + 1 + k, _datum([int(i == k) for i in range(c.gamma)], [0] * c.delta)


def _unit_lambdas(c: CurveGraph):
    """(t, lam, q) for the free variables of the hyperplane: q, then
    lambda_1 .. lambda_(gamma-1), with lambda_gamma = q*delta - the rest."""
    last = c.gamma - 1
    yield 0, [0] * last + [c.delta], 1
    for t in range(1, c.gamma):
        lam = [0] * c.gamma
        lam[t - 1] = 1
        lam[last] -= 1
        yield t, lam, 0


@given(curves())
@settings(max_examples=60, deadline=None)
def test_coefficient_tables_fit_the_kronecker_slots(c):
    point = kronecker_point(c)
    width = kronecker_width(c.delta)
    assert point.q == 1
    assert sum(point.lam) == point.q * c.delta
    validate_datum(c, point.datum)
    stride = width * (c.gamma + c.delta + 1)
    reference = None
    for name, kernel in _premise_kernels(c).items():
        if name.startswith("telescoping"):
            # Linear in the datum alone: one digit per datum slot.
            lams = [(0, point.lam, point.q)]
        else:
            lams = list(_unit_lambdas(c))
        table = {
            (slot, t): kernel(e, lam, q)
            for slot, e in _unit_data(c)
            for t, lam, q in lams
        }
        assert all(abs(x) < 1 << (width - 2) for x in table.values()), name
        # The Kronecker point reads the whole table in one evaluation.
        encoded = sum(x << (width * slot + stride * t) for (slot, t), x in table.items())
        assert kernel(point.datum, point.lam, point.q) == encoded, name
        if name == "lambda":
            reference = table
        elif name == "residual" or name.startswith("path"):
            assert table == reference, name


def test_coefficients_reach_twice_the_node_count():
    # The bound is tight: the coefficient of r_gamma * q in the lambda
    # formula is 2 * delta.
    c = CurveGraph.from_genera([0, 1, 0], [(1, 2), (2, 3), (1, 3), (1, 3)])
    kernel = _premise_kernels(c)["lambda"]
    rank_last = _datum([0, 0, 1], [0] * c.delta)
    assert kernel(rank_last, [0, 0, c.delta], 1) == 2 * c.delta
    assert 2 * c.delta < 1 << (kronecker_width(c.delta) - 3)
