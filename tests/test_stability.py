from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (
    polarized_curves,
    proper_connected_subcurves,
    random_curve,
    random_polarization,
    rank1_oracle,
)
from nodalpol import (
    CurveGraph,
    Polarization,
    SheafDatum,
    canonical,
    delta_structure,
    oc_stability,
    rank1_stability,
)
from nodalpol.curve import Subcurve, mask_members
from nodalpol.errors import UnsupportedCurveError, UnsupportedRankError

F = Fraction


def star_conditions(
    curve: CurveGraph, w: Polarization
) -> list[tuple[Subcurve, bool]]:
    """Fraction oracle: the weight-window condition for each proper
    connected subcurve.

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
    s = curve.connected_subcurve_stats()
    for mask, genus, boundary in zip(s.masks, s.genus, s.boundary):
        wsum = sum((w.weights[k] for k in mask_members(mask)), Fraction(0))
        lower = Fraction(genus - 1, P)
        upper = Fraction(genus - 1 + boundary, P)
        out.append((Subcurve(curve, mask), lower < wsum < upper))
    return out


def two_genus2() -> CurveGraph:
    return CurveGraph.from_genera([2, 2], [(1, 2)])


class TestOcStability:
    def test_skewed_weights_destabilize(self):
        verdict = oc_stability(two_genus2(), Polarization.of([F(1, 6), F(5, 6)]))
        assert not verdict.stable and not verdict.semistable
        assert verdict.failing_subcurve.member_ids == (1,)
        assert verdict.failing_value == F(-1, 2)

    def test_balanced_weights_stabilize(self):
        verdict = oc_stability(two_genus2(), Polarization.of([F(1, 2), F(1, 2)]))
        assert verdict.stable and verdict.failing_subcurve is None

    def test_rational_trees_always_stable(self):
        rng = random.Random(3)
        for _ in range(100):
            gamma = rng.randint(1, 6)
            edges = [(rng.randint(1, v - 1), v) for v in range(2, gamma + 1)]
            c = CurveGraph.from_genera([0] * gamma, edges)
            w = random_polarization(rng, gamma)
            assert oc_stability(c, w).stable

    def test_elliptic_plus_rational_semistable_only(self):
        c = CurveGraph.from_genera([1, 0], [(1, 2)])
        for w1 in (F(1, 3), F(1, 2), F(7, 9)):
            verdict = oc_stability(c, Polarization.of([w1, 1 - w1]))
            assert verdict.semistable and not verdict.stable
            assert verdict.failing_value == 0

    def test_cycles_always_stable(self):
        for gamma in range(2, 6):
            edges = [(v, v + 1) for v in range(1, gamma)] + [(1, gamma)]
            c = CurveGraph.from_genera([0] * gamma, edges)
            for w in (
                Polarization.uniform(gamma),
                random_polarization(random.Random(gamma), gamma),
            ):
                assert oc_stability(c, w).stable

    def test_single_component_trivially_stable(self):
        for g in (0, 1, 5):
            c = CurveGraph.from_genera([g])
            verdict = oc_stability(c, Polarization.of([1]))
            assert verdict.stable and verdict.semistable

    def test_failing_subcurve_is_first_in_mask_order(self):
        # Both singletons fail for strongly skewed weights on a symmetric
        # curve; the witness must be the lower bitmask.
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        verdict = oc_stability(c, Polarization.of([F(1, 6), F(5, 6)]))
        assert verdict.failing_subcurve.mask == 0b01

    @given(polarized_curves())
    @settings(max_examples=80)
    def test_matches_direct_definition(self, cw):
        # Independent oracle: evaluate both strict bounds per connected
        # subcurve with Fraction arithmetic.
        c, w = cw
        expected_stable = True
        expected_semi = True
        for sub in proper_connected_subcurves(c):
            value = delta_structure(sub, w)
            if not 0 < value < sub.boundary_size:
                expected_stable = False
            if not 0 <= value <= sub.boundary_size:
                expected_semi = False
        verdict = oc_stability(c, w)
        assert verdict.stable == expected_stable
        assert verdict.semistable == expected_semi

    @given(polarized_curves())
    @settings(max_examples=60)
    def test_lower_bounds_alone_suffice(self, cw):
        # The upper bound for B is the lower bound for its complement, so
        # scanning lower bounds over every proper connected subcurve gives
        # the same verdict.
        c, w = cw
        if c.gamma < 2:
            return
        lower_only = all(
            delta_structure(sub, w) > 0 for sub in proper_connected_subcurves(c)
        )
        assert lower_only == oc_stability(c, w).stable


class TestStarConditions:
    def test_all_satisfied_iff_stable(self):
        rng = random.Random(5)
        checked = 0
        while checked < 150:
            c = random_curve(rng, max_gamma=4)
            if c.arithmetic_genus < 2:
                continue
            w = random_polarization(rng, c.gamma)
            results = star_conditions(c, w)
            assert all(ok for _, ok in results) == oc_stability(c, w).stable
            checked += 1

    def test_balanced_weights_satisfy_all(self):
        results = star_conditions(two_genus2(), Polarization.of([F(1, 2), F(1, 2)]))
        assert all(ok for _, ok in results)

    def test_skewed_weights_fail_on_first_component(self):
        results = star_conditions(two_genus2(), Polarization.of([F(1, 6), F(5, 6)]))
        failed = [sub.member_ids for sub, ok in results if not ok]
        assert (1,) in failed

    def test_low_genus_rejected(self):
        triangle = CurveGraph.from_genera([0, 0, 0], [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(UnsupportedCurveError):
            star_conditions(triangle, Polarization.uniform(3))


class TestRank1Stability:
    def test_structure_sheaf_matches_oc_stability(self):
        rng = random.Random(17)
        for _ in range(1000):
            c = random_curve(rng, max_gamma=4)
            w = random_polarization(rng, c.gamma)
            e = SheafDatum.structure_sheaf(c)
            verdict = rank1_stability(c, w, e)
            oc = oc_stability(c, w)
            assert verdict.stable == oc.stable
            assert verdict.semistable == oc.semistable

    def test_degree_zero_line_bundle_with_canonical_weights(self):
        c = two_genus2()
        eta = canonical(c)
        e = SheafDatum.line_bundle(c, [0, 0])
        assert rank1_stability(c, eta, e).stable

    def test_degree_zero_line_bundles_stable_under_canonical(self):
        rng = random.Random(23)
        checked = 0
        while checked < 100:
            c = random_curve(rng, max_gamma=4)
            if not c.classify().stable:
                continue
            e = SheafDatum.line_bundle(c, [0] * c.gamma)
            assert rank1_stability(c, canonical(c), e).stable
            checked += 1

    def test_non_rank_one_rejected(self):
        c = two_genus2()
        with pytest.raises(UnsupportedRankError):
            rank1_stability(
                c, Polarization.uniform(2), SheafDatum((2, 1), (0, 0), (1,))
            )
        with pytest.raises(UnsupportedRankError):
            rank1_stability(
                c, Polarization.uniform(2), SheafDatum((1, 0), (0, 0), (0,))
            )

    def test_connected_subcurve_limit(self):
        # Only connected subcurves are scanned: a chain of 19 genus-2
        # components has 189 of them and answers at once, while a star of
        # 25 has 2^24 + 24 and is refused once 2^18 have been grown.
        chain = CurveGraph.from_genera([2] * 19, [(k, k + 1) for k in range(1, 19)])
        started = time.perf_counter()
        verdict = rank1_stability(
            chain, Polarization.uniform(19), SheafDatum.structure_sheaf(chain)
        )
        assert time.perf_counter() - started < 1.0
        assert verdict.stable
        star = CurveGraph.from_genera([2] * 25, [(1, k) for k in range(2, 26)])
        started = time.perf_counter()
        with pytest.raises(UnsupportedCurveError, match="connected subcurves"):
            rank1_stability(
                star, Polarization.uniform(25), SheafDatum.structure_sheaf(star)
            )
        assert time.perf_counter() - started < 5.0

    def test_unbalanced_multidegree_can_destabilize(self):
        c = two_genus2()
        eta = canonical(c)
        e = SheafDatum.line_bundle(c, [5, -5])
        verdict = rank1_stability(c, eta, e)
        assert not verdict.stable

    def test_matches_fraction_definition(self):
        # Direct definition over every proper subcurve, in Fractions: the
        # verdicts, the first failing subset and its margin.  The uniform
        # weights on even Euler characteristic give lambda vectors whose
        # denominators are smaller than the weights' denominator (two
        # elliptic curves meeting twice: w = (1/2, 1/2), lambda = (1, 1)).
        rng = random.Random(31)
        cases = [(CurveGraph.from_genera([1, 1], [(1, 2), (1, 2)]), Polarization.uniform(2))]
        for _ in range(300):
            c = random_curve(rng, max_gamma=4)
            w = Polarization.uniform(c.gamma) if rng.random() < 0.5 else random_polarization(rng, c.gamma)
            cases.append((c, w))
        unstable = 0
        for c, w in cases:
            for _ in range(4):
                degrees = [rng.randint(-3, 3) for _ in range(c.gamma)]
                stalks = [rng.randint(0, 1) for _ in range(c.delta)]
                e = SheafDatum((1,) * c.gamma, tuple(degrees), tuple(stalks))
                stable, semistable, mask, value = rank1_oracle(c, w, e)
                verdict = rank1_stability(c, w, e)
                failing = verdict.failing_subcurve
                assert (
                    verdict.stable,
                    verdict.semistable,
                    None if failing is None else failing.mask,
                    verdict.failing_value,
                ) == (stable, semistable, mask, value), (c, w, e)
                unstable += not stable
        assert unstable > 300
