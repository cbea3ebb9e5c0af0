from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from conftest import random_curve, random_datum, random_polarization, star2_conditions
from nodalpol import (
    CurveGraph,
    GoodnessStatus,
    Polarization,
    SheafDatum,
    Subcurve,
    aj_family,
    build_path_system,
    canonical,
    conjecture_probe,
    decide,
    delta_decomposed,
    delta_general,
    delta_residual,
    delta_structure,
    is_locally_free,
    oc_stability,
    sufficient_check,
    validate_datum,
)
from nodalpol.goodness import LEVEL_SET, PATH_WINDOW

F = Fraction


def two_genus2() -> CurveGraph:
    return CurveGraph.from_genera([2, 2], [(1, 2)])


def skew() -> Polarization:
    return Polarization.of([F(1, 6), F(5, 6)])


class TestSufficientCheck:
    def test_canonical_weights_always_certify(self):
        rng = random.Random(61)
        checked = 0
        while checked < 80:
            c = random_curve(rng, max_gamma=5)
            if not c.classify().stable:
                continue
            assert sufficient_check(c, canonical(c)) is not None
            checked += 1

    def test_rational_cycle_certifies_any_weights(self):
        rng = random.Random(67)
        for gamma in range(2, 6):
            edges = [(v, v + 1) for v in range(1, gamma)] + [(1, gamma)]
            c = CurveGraph.from_genera([0] * gamma, edges)
            for _ in range(5):
                assert sufficient_check(c, random_polarization(rng, gamma)) is not None

    def test_skewed_two_component_has_no_certificate(self):
        assert sufficient_check(two_genus2(), skew()) is None

    def test_single_component_certifies_vacuously(self):
        c = CurveGraph.from_genera([3])
        assert sufficient_check(c, Polarization.of([1])) == 1

    def test_first_base_matches_fraction_windows(self):
        # The integer windows of sufficient_check against the Fraction
        # oracle: the first base whose far sides all pass, or none.
        rng = random.Random(73)
        found: Counter = Counter()
        for _ in range(1500):
            c = random_curve(rng, max_gamma=5, max_extra_edges=3, max_genus=2)
            if c.classify().stable and rng.random() < 0.3:
                w = canonical(c)
            else:
                w = random_polarization(rng, c.gamma)
            expected = None
            for base in c.vertex_ids:
                fam = aj_family(c, w, build_path_system(c, base))
                if all(ok for _, ok in star2_conditions(fam)):
                    expected = base
                    break
            assert sufficient_check(c, w) == expected
            if expected is None:
                found["none"] += 1
            else:
                found["first" if expected == c.vertex_ids[0] else "later"] += 1
        assert min(found["none"], found["first"], found["later"]) >= 10, found


def minimal_defect(curve: CurveGraph, w: Polarization, ranks) -> Fraction:
    """sum_k r_k * lambda_k - sum_j min(r_a, r_b), lambda from the weights."""
    chi = curve.gamma - curve.delta - sum(curve.genera)
    lam = [1 - g - x * chi for g, x in zip(curve.genera, w.weights)]
    stalks = sum(min(ranks[a], ranks[b]) for a, b in curve.edge_index_pairs())
    return sum(r * x for r, x in zip(ranks, lam)) - stalks


def rank_box_scan(curve: CurveGraph, w: Polarization, max_rank: int):
    """Brute-force oracle over rank vectors in {0..max_rank}^gamma.

    Vectors go ascending by maximum entry, then lexicographically, each with
    the minimizing stalks s_j = min(r_a, r_b); the defect and local freeness
    are recomputed from their definitions, with lambda from the weights.
    Returns the first witness (negative defect, or zero while not locally
    free) as ``(datum, defect)`` or ``None``, and the minimum over the box.
    """
    pairs = curve.edge_index_pairs()
    first, least = None, None
    for top in range(1, max_rank + 1):
        for r in product(range(top + 1), repeat=curve.gamma):
            if max(r) != top:
                continue
            value = minimal_defect(curve, w, r)
            free = min(r) >= 1 and all(r[a] == r[b] for a, b in pairs)
            least = value if least is None else min(least, value)
            if first is None and (value < 0 or (value == 0 and not free)):
                first = (SheafDatum.with_minimizing_stalks(curve, r), value)
    return first, least


def witness_search(curve: CurveGraph, w: Polarization, max_rank: int):
    return rank_box_scan(curve, w, max_rank)[0]


def level_set_sum(curve: CurveGraph, w: Polarization, ranks) -> Fraction:
    """sum_i (t_i - t_(i-1)) * delta(O_(B_i)) over the level sets of ranks."""
    total, below = F(0), 0
    for t in sorted(set(ranks) - {0}):
        mask = sum(1 << k for k, r in enumerate(ranks) if r >= t)
        total += (t - below) * delta_structure(Subcurve(curve, mask), w)
        below = t
    return total


class TestLevelSets:
    def test_defect_is_the_level_set_sum(self):
        rng = random.Random(107)
        for _ in range(300):
            c = random_curve(rng, max_gamma=5)
            w = random_polarization(rng, c.gamma)
            ranks = tuple(rng.randint(0, 4) for _ in range(c.gamma))
            if not any(ranks):
                continue
            datum = SheafDatum.with_minimizing_stalks(c, ranks)
            expected = level_set_sum(c, w, ranks)
            assert minimal_defect(c, w, ranks) == expected
            assert delta_general(c, w, datum) == expected
            # Any other stalk choice only adds to the defect.
            e = random_datum(rng, c)
            lowered = sum(
                min(e.ranks[a], e.ranks[b]) - s
                for (a, b), s in zip(c.edge_index_pairs(), e.stalk_free)
            )
            assert delta_general(c, w, e) == level_set_sum(c, w, e.ranks) + lowered

    def test_witness_exists_exactly_when_unstable(self):
        rng = random.Random(109)
        seen = {PATH_WINDOW: 0, LEVEL_SET: 0, "unstable": 0}
        for _ in range(400):
            c = random_curve(rng, max_gamma=4)
            w = random_polarization(rng, c.gamma)
            stable = oc_stability(c, w).stable
            verdict = decide(c, w)
            for bound in (1, 2, 3):
                first, least = rank_box_scan(c, w, bound)
                assert (first is None) == stable
                if stable:
                    assert least == 0
                else:
                    # The first witness is a 0/1 vector, the same at every
                    # bound.
                    assert set(first[0].ranks) <= {0, 1}
                    assert first == witness_search(c, w, 1)
                    assert least <= 0
            if stable:
                assert verdict.status is GoodnessStatus.GOOD_CERTIFIED
                assert (verdict.certificate_base is None) == (
                    verdict.certificate_kind == LEVEL_SET
                )
                seen[verdict.certificate_kind] += 1
            else:
                assert verdict.status is GoodnessStatus.NOT_GOOD
                seen["unstable"] += 1
        assert min(seen.values()) >= 20, seen


class TestWitnessSearch:
    """The oracle against ``decide`` on hand-picked curves."""

    def test_finds_one_sided_witness(self):
        found = witness_search(two_genus2(), skew(), max_rank=1)
        assert found is not None
        datum, value = found
        assert datum.ranks == (1, 0)
        assert value == F(-1, 2)
        verdict = decide(two_genus2(), skew())
        assert (verdict.witness, verdict.witness_delta) == found

    def test_rational_trees_have_no_witness(self):
        rng = random.Random(71)
        for _ in range(30):
            gamma = rng.randint(2, 4)
            edges = [(rng.randint(1, v - 1), v) for v in range(2, gamma + 1)]
            c = CurveGraph.from_genera([0] * gamma, edges)
            w = random_polarization(rng, gamma)
            assert witness_search(c, w, max_rank=3) is None
            assert decide(c, w).certificate_kind == PATH_WINDOW

    def test_elliptic_plus_rational_has_witness_for_every_weight(self):
        c = CurveGraph.from_genera([1, 0], [(1, 2)])
        for w1 in (F(1, 5), F(1, 2), F(9, 11)):
            w = Polarization.of([w1, 1 - w1])
            found = witness_search(c, w, max_rank=2)
            assert found is not None
            datum, value = found
            assert value <= 0
            assert not is_locally_free(c, datum)
            verdict = decide(c, w)
            assert verdict.status is GoodnessStatus.NOT_GOOD
            assert verdict.witness_delta <= 0
            assert not is_locally_free(c, verdict.witness)

    def test_monotone_evidence(self):
        # Nothing found at a bound means nothing at any smaller bound.
        rng = random.Random(73)
        checked = 0
        while checked < 40:
            c = random_curve(rng, max_gamma=3)
            w = random_polarization(rng, c.gamma)
            if witness_search(c, w, max_rank=4) is None:
                for smaller in (1, 2, 3):
                    assert witness_search(c, w, max_rank=smaller) is None
                assert decide(c, w).status is GoodnessStatus.GOOD_CERTIFIED
                checked += 1

    def test_first_witness_in_enumeration_order(self):
        # Max entry ascending, then lexicographic: (0, 1) precedes (1, 0).
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        w = Polarization.of([F(5, 6), F(1, 6)])  # now component 2 is starved
        found = witness_search(c, w, max_rank=2)
        assert found is not None
        assert found[0].ranks == (0, 1)
        assert decide(c, w).witness.ranks == (0, 1)


class TestDecide:
    def test_skewed_two_component_not_good(self):
        verdict = decide(two_genus2(), skew())
        assert verdict.status is GoodnessStatus.NOT_GOOD
        assert verdict.witness.ranks == (1, 0)
        assert verdict.witness_delta == F(-1, 2)

    def test_compact_type_stable_weights_certify(self):
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        verdict = decide(c, Polarization.of([F(1, 2), F(1, 2)]))
        assert verdict.status is GoodnessStatus.GOOD_CERTIFIED
        assert verdict.certificate_base == 1

    def test_triangle_always_certified(self):
        t = CurveGraph.from_genera([0, 0, 0], [(1, 2), (2, 3), (1, 3)])
        rng = random.Random(79)
        for _ in range(10):
            verdict = decide(t, random_polarization(rng, 3))
            assert verdict.status is GoodnessStatus.GOOD_CERTIFIED
            assert verdict.certificate_kind == PATH_WINDOW

    def test_single_component_certified(self):
        verdict = decide(CurveGraph.from_genera([2]), Polarization.of([1]))
        assert verdict.status is GoodnessStatus.GOOD_CERTIFIED
        assert verdict.certificate_base == 1

    def test_never_positive_when_unstable(self):
        rng = random.Random(83)
        seen_unstable = 0
        while seen_unstable < 60:
            c = random_curve(rng, max_gamma=4)
            w = random_polarization(rng, c.gamma)
            if oc_stability(c, w).stable:
                continue
            verdict = decide(c, w)
            assert verdict.status is GoodnessStatus.NOT_GOOD
            seen_unstable += 1

    def test_witness_soundness_through_all_formulas(self):
        rng = random.Random(89)
        seen = 0
        while seen < 60:
            c = random_curve(rng, max_gamma=4)
            w = random_polarization(rng, c.gamma)
            verdict = decide(c, w)
            if verdict.status is not GoodnessStatus.NOT_GOOD:
                continue
            datum, value = verdict.witness, verdict.witness_delta
            validate_datum(c, datum)
            assert value < 0 or (value == 0 and not is_locally_free(c, datum))
            assert delta_general(c, w, datum) == value
            assert delta_residual(c, w, datum) == value
            for base in c.vertex_ids:
                ps = build_path_system(c, base)
                fam = aj_family(c, w, ps)
                assert delta_decomposed(c, w, ps, fam, datum) == value
            seen += 1


    def test_witness_must_match_the_stability_verdict(self):
        # The witness defect is tied to the failing value: O_B for the
        # failing subcurve itself, the boundary size minus it for Bc.
        c, w = two_genus2(), skew()
        verdict = oc_stability(c, w)
        assert decide(c, w, stability=verdict).witness_delta == verdict.failing_value
        off = verdict._replace(failing_value=verdict.failing_value - F(1, 7))
        with pytest.raises(AssertionError, match="stability verdict"):
            decide(c, w, stability=off)
        # A verdict failing through the upper window yields the complement.
        c = CurveGraph.from_genera([0, 2], [(1, 2)] * 3)
        w = Polarization.of([F(8, 9), F(1, 9)])
        verdict = oc_stability(c, w)
        assert verdict.failing_value >= verdict.failing_subcurve.boundary_size
        found = decide(c, w, stability=verdict)
        b = verdict.failing_subcurve
        assert found.witness == SheafDatum.subcurve_sheaf(b.complement())
        assert found.witness_delta == b.boundary_size - verdict.failing_value

    def test_witness_proved_once_per_curve_and_subcurve(self, monkeypatch):
        import nodalpol.goodness

        calls = []
        real = nodalpol.goodness.delta_residual_scaled

        def spy(curve, lam, q, e):
            calls.append(e)
            return real(curve, lam, q, e)

        monkeypatch.setattr(nodalpol.goodness, "delta_residual_scaled", spy)
        c = two_genus2()
        skews = [Polarization.of([F(k, 9), F(9 - k, 9)]) for k in (1, 2)]
        for w in skews * 2:
            assert decide(c, w).status is GoodnessStatus.NOT_GOOD
        assert calls == [SheafDatum.subcurve_sheaf(Subcurve(c, 1))]


class TestMinimizingStalks:
    def test_exhaustive_stalk_enumeration(self):
        # The defect is decreasing in each stalk rank, so the minimum over
        # admissible stalk vectors sits at the componentwise maximum.
        rng = random.Random(97)
        for _ in range(40):
            c = random_curve(rng, max_gamma=3, max_extra_edges=2)
            w = random_polarization(rng, c.gamma)
            ranks = tuple(rng.randint(0, 3) for _ in range(c.gamma))
            if all(r == 0 for r in ranks):
                continue
            caps = [
                min(ranks[a], ranks[b]) for a, b in c.edge_index_pairs()
            ]
            best = delta_general(
                c, w, SheafDatum.with_minimizing_stalks(c, ranks)
            )
            values = []
            for stalks in product(*(range(cap + 1) for cap in caps)):
                e = SheafDatum(ranks, (0,) * c.gamma, stalks)
                values.append(delta_general(c, w, e))
            assert min(values) == best


class TestConjectureProbe:
    def test_exhaustive_small_sweep_is_consistent(self):
        from nodalpol import CampaignConfig, enumerate_curves, enumerate_weight_grid

        cfg = CampaignConfig(
            max_vertices=3,
            max_edges=3,
            max_genus=1,
            weight_denominator_bound=5,
            max_rank=3,
        )
        instances = 0
        for c in enumerate_curves(cfg):
            for w in enumerate_weight_grid(c.gamma, 5):
                probe = conjecture_probe(c, w)
                assert not probe.discrepancy, probe.description
                instances += 1
        assert instances > 100

    def test_two_component_instances_consistent(self):
        rng = random.Random(101)
        for delta in range(2, 5):
            c = CurveGraph.from_genera([1, 2], [(1, 2)] * delta)
            for _ in range(10):
                probe = conjecture_probe(c, random_polarization(rng, 2))
                assert not probe.discrepancy

    def test_skewed_pair_reports_consistent_not_good(self):
        probe = conjecture_probe(two_genus2(), skew())
        assert not probe.discrepancy
        assert "NotGood" in probe.description


def test_import_leaves_numpy_out():
    # Every exported name, so that every module that defines one loads.
    code = "import sys; from nodalpol import *; assert 'numpy' not in sys.modules, 'numpy'"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
