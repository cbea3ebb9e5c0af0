from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import (
    grid_witness,
    polarized_curves,
    polytope_accepts,
    random_curve,
    random_polarization,
)
from nodalpol import (
    CampaignConfig,
    CurveGraph,
    Polarization,
    canonical,
    delta_structure,
    enumerate_curves,
    enumerate_weight_grid,
    from_multidegree,
    lambda_vector,
    oc_stability,
    stability_polytope,
)
from nodalpol.curve import mask_members
from nodalpol.polarization import (
    delta_structure_scaled,
    scaled_lambda,
    subcurve_defects_scaled,
)
from nodalpol.errors import (
    CanonicalUndefinedError,
    InvalidPolarizationError,
    NonAmpleMultidegreeError,
    UnsupportedCurveError,
)

F = Fraction


def two_genus2() -> CurveGraph:
    return CurveGraph.from_genera([2, 2], [(1, 2)])


def banana3() -> CurveGraph:
    return CurveGraph.from_genera([0, 0], [(1, 2)] * 3)


class TestPolarizationInvariants:
    def test_sum_must_be_one(self):
        with pytest.raises(InvalidPolarizationError, match="sum"):
            Polarization.of([F(1, 2), F(1, 3)])

    def test_weights_must_be_interior(self):
        with pytest.raises(InvalidPolarizationError):
            Polarization.of([F(0), F(1)])
        with pytest.raises(InvalidPolarizationError):
            Polarization.of([F(3, 2), F(-1, 2)])

    def test_single_component_weight_is_one(self):
        assert Polarization.of([1]).weights == (F(1),)
        with pytest.raises(InvalidPolarizationError):
            Polarization.of([F(1, 2)])

    def test_immutable(self):
        w = Polarization.of(["1/3", "2/3"])
        for name in ("_numerators", "_denominator", "_weights", "extra"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(w, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(w, name)
        assert w.numerators == (1, 2) and w.weights == (F(1, 3), F(2, 3))

    def test_equal_polarizations_are_one_key(self):
        a = Polarization.of(["2/4", "1/4", "1/4"])
        b = Polarization((F(1, 2), F(1, 4), F(1, 4)))
        assert a == b and hash(a) == hash(b) == hash(b.weights)
        assert len({a, b, Polarization.uniform(3)}) == 2

    def test_integer_build_matches_fraction_build(self):
        rng = random.Random(47)
        for _ in range(300):
            gamma = rng.randint(1, 6)
            nums = [rng.randint(1, 30) for _ in range(gamma)]
            # An unreduced common denominator: both builds must reduce it.
            scale = rng.randint(1, 4)
            q = sum(nums) * scale
            nums = [n * scale for n in nums]
            _assert_same(
                Polarization.from_numerators(nums, q),
                Polarization(tuple(F(n, q) for n in nums)),
            )

    @pytest.mark.parametrize(
        "nums, q",
        [
            ((), 1),
            ((3, 2), 6),  # sums to 5/6
            ((0, 1), 1),
            ((3, -1), 2),
            ((1,), 2),
            ((4, 2), 3),  # sums to 2
        ],
    )
    def test_integer_build_rejects_as_the_fraction_build(self, nums, q):
        with pytest.raises(InvalidPolarizationError) as by_fractions:
            Polarization(tuple(F(n, q) for n in nums))
        with pytest.raises(InvalidPolarizationError) as by_integers:
            Polarization.from_numerators(nums, q)
        assert str(by_integers.value) == str(by_fractions.value)

    def test_nonpositive_denominator_rejected(self):
        for q in (0, -2):
            with pytest.raises(InvalidPolarizationError, match="positive"):
                Polarization.from_numerators((-1, -1), q)
        with pytest.raises(InvalidPolarizationError, match="at least one"):
            Polarization.uniform(0)


def _assert_same(a: Polarization, b: Polarization) -> None:
    """``a`` and ``b`` agree in every view of their weights."""
    assert a.numerators == b.numerators
    assert a.common_denominator() == b.common_denominator()
    assert a.weights == b.weights
    assert a == b and hash(a) == hash(b) == hash(b.weights)
    assert repr(a) == repr(b)


class TestFromMultidegree:
    def test_symmetric(self):
        assert from_multidegree(two_genus2(), [1, 1]).weights == (F(1, 2), F(1, 2))

    def test_skewed(self):
        assert from_multidegree(two_genus2(), [1, 5]).weights == (F(1, 6), F(5, 6))

    def test_non_ample_rejected(self):
        with pytest.raises(NonAmpleMultidegreeError):
            from_multidegree(two_genus2(), [1, 0])

    def test_scale_invariance(self):
        c = CurveGraph.from_genera([1, 0, 2], [(1, 2), (2, 3), (1, 3)])
        for k in (2, 3, 7):
            assert from_multidegree(c, [2, 1, 4]) == from_multidegree(
                c, [2 * k, k, 4 * k]
            )


class TestCanonical:
    def test_two_genus2(self):
        assert canonical(two_genus2()).weights == (F(1, 2), F(1, 2))

    def test_banana3(self):
        assert canonical(banana3()).weights == (F(1, 2), F(1, 2))

    def test_rational_chain_rejected(self):
        chain = CurveGraph.from_genera([0, 0, 0], [(1, 2), (2, 3)])
        with pytest.raises(CanonicalUndefinedError):
            canonical(chain)

    def test_lambda_is_half_degrees(self):
        for c in (two_genus2(), banana3()):
            lam = lambda_vector(c, canonical(c))
            assert lam == tuple(F(d, 2) for d in c.vertex_degrees)


class TestLambdaVector:
    def test_skewed_weights(self):
        lam = lambda_vector(two_genus2(), Polarization.of([F(1, 6), F(5, 6)]))
        assert lam == (F(-1, 2), F(3, 2))

    def test_balanced_weights(self):
        lam = lambda_vector(two_genus2(), Polarization.of([F(1, 2), F(1, 2)]))
        assert lam == (F(1, 2), F(1, 2))

    @given(polarized_curves())
    @settings(max_examples=80)
    def test_sum_equals_node_count(self, cw):
        c, w = cw
        assert sum(lambda_vector(c, w)) == c.delta

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidPolarizationError):
            lambda_vector(two_genus2(), Polarization.uniform(3))


class TestDeltaStructure:
    def test_skewed_component(self):
        w = Polarization.of([F(1, 6), F(5, 6)])
        assert delta_structure(two_genus2().subcurve([1]), w) == F(-1, 2)

    def test_full_curve_is_zero(self):
        w = Polarization.of([F(1, 6), F(5, 6)])
        full = two_genus2().subcurve([1, 2])
        assert delta_structure(full, w) == 0

    def test_banana_component(self):
        c = banana3()
        for w1 in (F(1, 3), F(2, 5), F(1, 2)):
            w = Polarization.of([w1, 1 - w1])
            assert delta_structure(c.subcurve([1]), w) == 1 + w1

    @given(polarized_curves(max_gamma=5))
    @settings(max_examples=60)
    def test_complement_sums_to_boundary(self, cw):
        c, w = cw
        for mask in range(1, c.full_mask):
            b = c.subcurve_from_mask(mask)
            assert delta_structure(b, w) + delta_structure(b.complement(), w) == (
                b.boundary_size
            )


class TestSubcurveDefects:
    def test_matches_sum_over_members(self):
        rng = random.Random(2020)
        for _ in range(400):
            c = random_curve(rng, max_gamma=8, max_extra_edges=6)
            lam, q = scaled_lambda(c, random_polarization(rng, c.gamma))
            s = c.connected_subcurve_stats()
            expected = [
                delta_structure_scaled(lam, q, mask_members(mask), internal)
                for mask, internal in zip(s.masks, s.internal)
            ]
            assert subcurve_defects_scaled(c, lam, q) == expected, c


def _grid_by_set(gamma: int, bound: int) -> list[tuple[Fraction, ...]]:
    """The weight grid by its definition: every positive composition per
    denominator, ascending, minus the vectors seen at a smaller one."""
    seen: set[tuple[Fraction, ...]] = set()
    out = []
    for q in range(gamma, bound + 1):
        for cuts in combinations(range(1, q), gamma - 1):
            ends = (0,) + cuts + (q,)
            ws = tuple(F(b - a, q) for a, b in zip(ends, ends[1:]))
            if ws not in seen:
                seen.add(ws)
                out.append(ws)
    return out


class TestWeightGrid:
    @pytest.mark.parametrize("gamma", [1, 2, 3, 4, 5])
    def test_matches_set_based_enumeration(self, gamma):
        for bound in range(1, 13):
            grid = list(enumerate_weight_grid(gamma, bound))
            oracle = [Polarization(ws) for ws in _grid_by_set(gamma, bound)]
            assert len(grid) == len(oracle), (gamma, bound)
            for a, b in zip(grid, oracle):
                _assert_same(a, b)

    def test_two_components_bound_three(self):
        grid = [p.weights for p in enumerate_weight_grid(2, 3)]
        assert grid == [
            (F(1, 2), F(1, 2)),
            (F(1, 3), F(2, 3)),
            (F(2, 3), F(1, 3)),
        ]

    def test_all_outputs_valid(self):
        for p in enumerate_weight_grid(3, 6):
            assert sum(p.weights) == 1
            assert all(0 < w < 1 for w in p.weights)

    def test_no_duplicates(self):
        grid = [p.weights for p in enumerate_weight_grid(3, 8)]
        assert len(grid) == len(set(grid))

    def test_deterministic(self):
        a = list(enumerate_weight_grid(4, 7))
        b = list(enumerate_weight_grid(4, 7))
        assert a == b

    def test_single_component(self):
        assert [p.weights for p in enumerate_weight_grid(1, 5)] == [(F(1),)]


class TestStabilityPolytope:
    def test_two_genus2_window(self):
        p = stability_polytope(two_genus2())
        assert len(p.windows) == 1
        win = p.windows[0]
        assert win.subcurve.member_ids == (1,)
        assert (win.lower, win.upper) == (F(1, 3), F(2, 3))

    def test_banana3_no_constraint_beyond_simplex(self):
        p = stability_polytope(banana3())
        assert len(p.windows) == 1
        win = p.windows[0]
        assert win.lower == -1 and win.upper == 2

    def test_canonical_point_is_interior_on_stable_curves(self):
        cfg = CampaignConfig(
            max_vertices=5,
            max_edges=5,
            max_genus=2,
            weight_denominator_bound=4,
            max_rank=1,
        )
        checked = 0
        for c in enumerate_curves(cfg):
            if not c.classify().stable:
                continue
            polytope = stability_polytope(c)
            assert polytope_accepts(polytope, canonical(c), strict=True)
            assert polytope.witness is not None
            checked += 1
        assert checked > 100

    def test_low_genus_rejected(self):
        with pytest.raises(UnsupportedCurveError):
            stability_polytope(CurveGraph.from_genera([0, 0], [(1, 2), (1, 2)]))

    def test_witness_off_the_canonical_point_when_not_stable(self):
        # Semistable but not stable: the genus 1-0-1 chain has an exceptional
        # component, so the witness is w* = (4/9, 1/9, 4/9) of the theorem.
        c = CurveGraph.from_genera([1, 0, 1], [(1, 2), (2, 3)])
        p = stability_polytope(c)
        assert p.witness == Polarization.of([F(4, 9), F(1, 9), F(4, 9)])
        assert p.rational_tails == ()
        assert polytope_accepts(p, p.witness, strict=True)

    def test_membership_is_the_stability_verdict(self):
        # The Fraction windows against oc_stability at every grid point up
        # to denominator 9: open windows are stability, closed ones
        # semistability.  A curve with a rational tail has no accepted grid
        # point and no witness; any other curve has an accepted witness.
        rng = random.Random(71)
        curves = points = stable = unstable = 0
        while curves < 80:
            c = random_curve(rng, max_gamma=5, max_extra_edges=3, max_genus=2)
            if c.arithmetic_genus < 2:
                continue
            p = stability_polytope(c)
            grid = list(enumerate_weight_grid(c.gamma, 9))
            for w in grid:
                verdict = oc_stability(c, w)
                assert polytope_accepts(p, w, strict=True) == verdict.stable
                assert polytope_accepts(p, w, strict=False) == verdict.semistable
                stable += verdict.stable
                unstable += not verdict.stable
            if p.rational_tails:
                assert p.witness is None
                assert not any(polytope_accepts(p, w) for w in grid)
            else:
                assert polytope_accepts(p, p.witness, strict=True)
            curves += 1
            points += len(grid)
        assert points > 3000 and stable > 300 and unstable > 300

    def test_rational_tail_theorem_against_the_grid_walk(self):
        # The closed form against the capped grid walk on seeded curves
        # with many rational components: a curve with a tail has no stable
        # grid point, and any other curve gets a witness that both the
        # windows and oc_stability accept, canonical on DM-stable curves.
        rng = random.Random(19)
        tailed = untailed = dm_stable = 0
        while tailed + untailed < 600:
            graph = random_curve(rng, max_gamma=7, max_extra_edges=3).graph
            if graph.gamma < 2:
                continue
            c = graph.decorate(rng.choice((0, 0, 0, 1, 2)) for _ in range(graph.gamma))
            if c.arithmetic_genus < 2:
                continue
            p = stability_polytope(c)
            tails = tuple(
                vid
                for vid, g, d in zip(c.vertex_ids, c.genera, c.vertex_degrees)
                if g == 0 and d == 1
            )
            assert p.rational_tails == tails
            if tails:
                assert p.witness is None
                assert grid_witness(c, 10 if c.gamma <= 5 else 9) is None
                tailed += 1
                continue
            assert oc_stability(c, p.witness).stable
            assert polytope_accepts(p, p.witness, strict=True)
            if c.classify().stable:
                assert p.witness == canonical(c)
                dm_stable += 1
            untailed += 1
        assert tailed > 200 and untailed > 200 and dm_stable > 60

    def test_thin_polytope_gets_a_witness(self):
        # Genus 30 - rational - genus 30: the bridge's window is
        # (-1/59, 1/59), so no grid point below denominator 60 is inside.
        c = CurveGraph.from_genera([30, 0, 30], [(1, 2), (2, 3)])
        p = stability_polytope(c)
        assert p.witness == Polarization.of([F(178, 357), F(1, 357), F(178, 357)])
        assert oc_stability(c, p.witness).stable
        assert grid_witness(c, 24) is None

    def test_empty_polytope_answers_at_once(self):
        c = CurveGraph.from_genera([2, 2, 2, 2, 0], [(1, 2), (2, 3), (3, 4), (4, 5)])
        started = time.perf_counter()
        p = stability_polytope(c)
        assert time.perf_counter() - started < 0.1
        assert p.witness is None and p.rational_tails == (5,)
