from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from nodalpol import (
    CampaignConfig,
    CurveGraph,
    enumerate_curves,
    run_campaign,
    sample_polarizations,
)
from nodalpol.jsonio import canonical_dumps, curve_to_obj
from nodalpol.pathsys import delta_decomposed_scaled
from nodalpol.search import SplitMix64, curve_hash
from nodalpol.sheafdata import residual_ranks

F = Fraction


def cfg(**kwargs) -> CampaignConfig:
    base = dict(
        max_vertices=2,
        max_edges=2,
        max_genus=1,
        weight_denominator_bound=4,
        max_rank=2,
        seed=0,
        mode="exhaustive",
        sample_count=0,
    )
    base.update(kwargs)
    return CampaignConfig(**base)


class TestSplitMix64:
    def test_reference_stream(self):
        # First outputs of the published algorithm for seed 0 and 42.
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535
        assert rng.next_u64() == 7960286522194355700
        rng = SplitMix64(42)
        assert rng.next_u64() == 13679457532755275413

    def test_randrange_bounds_and_determinism(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        va = [a.randrange(7) for _ in range(100)]
        vb = [b.randrange(7) for _ in range(100)]
        assert va == vb
        assert all(0 <= v < 7 for v in va)


class TestEnumerateCurves:
    def test_minimal_corpus(self):
        curves = list(
            enumerate_curves(cfg(max_vertices=2, max_edges=1, max_genus=0))
        )
        assert len(curves) == 2
        assert curves[0] == CurveGraph.from_genera([0])
        assert curves[1] == CurveGraph.from_genera([0, 0], [(1, 2)])

    def test_includes_triple_banana(self):
        curves = list(
            enumerate_curves(cfg(max_vertices=2, max_edges=3, max_genus=0))
        )
        assert CurveGraph.from_genera([0, 0], [(1, 2)] * 3) in curves

    def test_deterministic_order(self):
        config = cfg(max_vertices=3, max_edges=3, max_genus=1)
        assert list(enumerate_curves(config)) == list(enumerate_curves(config))

    def test_no_isomorphic_duplicates(self):
        curves = list(
            enumerate_curves(cfg(max_vertices=4, max_edges=4, max_genus=1))
        )
        # Independent oracle: try every vertex relabeling between curves
        # sharing the same coarse invariants.
        def multiset(c: CurveGraph, perm):
            edges = sorted(
                tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in c.edge_ends
            )
            genera = tuple(c.genera[perm.index(k + 1)] for k in range(c.gamma))
            return genera, tuple(edges)

        def isomorphic(a: CurveGraph, b: CurveGraph) -> bool:
            if (a.gamma, a.delta) != (b.gamma, b.delta):
                return False
            identity = tuple(range(1, a.gamma + 1))
            target = multiset(b, identity)
            return any(
                multiset(a, perm) == target
                for perm in permutations(range(1, a.gamma + 1))
            )

        for i, a in enumerate(curves):
            for b in curves[i + 1 :]:
                assert not isomorphic(a, b), (a, b)

    def test_all_connected_and_within_bounds(self):
        for c in enumerate_curves(cfg(max_vertices=4, max_edges=4, max_genus=2)):
            assert c.gamma <= 4 and c.delta <= 4
            assert all(g <= 2 for g in c.genera)


class TestSamplePolarizations:
    def test_exhaustive_matches_grid(self):
        c = CurveGraph.from_genera([0, 0], [(1, 2)])
        ws = [p.weights for p in sample_polarizations(c, cfg(weight_denominator_bound=3))]
        assert ws == [
            (F(1, 2), F(1, 2)),
            (F(1, 3), F(2, 3)),
            (F(2, 3), F(1, 3)),
        ]

    def test_random_mode_reproducible(self):
        c = CurveGraph.from_genera([0, 1], [(1, 2)])
        config = cfg(mode="random", sample_count=25, seed=99, weight_denominator_bound=9)
        a = [p.weights for p in sample_polarizations(c, config)]
        b = [p.weights for p in sample_polarizations(c, config)]
        assert a == b
        assert len(a) == 25

    def test_random_mode_golden_draws(self):
        c = CurveGraph.from_genera([0, 1, 2], [(1, 2), (2, 3), (1, 3)])
        config = cfg(mode="random", sample_count=5, seed=99, weight_denominator_bound=9)
        got = [tuple(map(str, p.weights)) for p in sample_polarizations(c, config)]
        assert got == [
            ("1/8", "3/4", "1/8"),
            ("3/8", "1/2", "1/8"),
            ("2/7", "2/7", "3/7"),
            ("2/5", "1/5", "2/5"),
            ("3/5", "1/5", "1/5"),
        ]

    def test_random_mode_outputs_valid(self):
        c = CurveGraph.from_genera([0, 0, 0], [(1, 2), (2, 3), (1, 3)])
        config = cfg(mode="random", sample_count=50, seed=5, weight_denominator_bound=8)
        for p in sample_polarizations(c, config):
            assert sum(p.weights) == 1


class TestRunCampaign:
    def test_small_sweep_consistent(self, tmp_path):
        config = cfg(max_vertices=2, max_edges=3, max_genus=1, weight_denominator_bound=5)
        report = run_campaign(
            config,
            csv_path=tmp_path / "rows.csv",
            summary_path=tmp_path / "summary.json",
        )
        assert report.consistent
        assert report.instances_checked > 0
        assert report.curves_enumerated > 0
        csv_text = (tmp_path / "rows.csv").read_text()
        assert csv_text.startswith("index,curve,")
        assert csv_text.count("\n") == report.instances_checked + 1
        summary = (tmp_path / "summary.json").read_text()
        assert '"consistent": true' in summary

    def test_csv_matches_its_hash_and_leaves_no_temporary(self, tmp_path):
        report = run_campaign(
            cfg(), csv_path=tmp_path / "rows.csv", summary_path=tmp_path / "summary.json"
        )
        data = (tmp_path / "rows.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == report.csv_sha256
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "summary.json"]

    def test_failed_campaign_leaves_no_output(self, tmp_path, monkeypatch):
        import nodalpol.search

        real = nodalpol.search.conjecture_probe
        calls = []

        def failing_probe(curve, w):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("probe failed")
            return real(curve, w)

        monkeypatch.setattr(nodalpol.search, "conjecture_probe", failing_probe)
        (tmp_path / "old.csv").write_text("kept\n")
        for name in ("rows.csv", "old.csv"):
            calls.clear()
            with pytest.raises(RuntimeError, match="probe failed"):
                run_campaign(
                    cfg(), csv_path=tmp_path / name, summary_path=tmp_path / "summary.json"
                )
        # Nothing at the new path, the old file untouched, no temporaries.
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]
        assert (tmp_path / "old.csv").read_text() == "kept\n"

    def test_bit_reproducible(self, tmp_path):
        config = cfg(
            max_vertices=3,
            max_edges=3,
            max_genus=1,
            weight_denominator_bound=4,
            seed=1234,
        )
        first = run_campaign(config, summary_path=tmp_path / "a.json")
        second = run_campaign(config, summary_path=tmp_path / "b.json")
        assert first.csv_sha256 == second.csv_sha256
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_random_mode_runs(self):
        config = cfg(
            max_vertices=2,
            max_edges=2,
            max_genus=1,
            weight_denominator_bound=8,
            mode="random",
            sample_count=3,
            seed=7,
        )
        report = run_campaign(config)
        assert report.consistent
        assert report.instances_checked == report.curves_enumerated * 3

    @pytest.mark.parametrize(
        "bounds, instances, sha",
        [
            (
                dict(max_vertices=3, max_edges=4, weight_denominator_bound=6, max_rank=9),
                856,
                "c182f60ebb69dfd5c6053504e132fb3c8610d1c6d805572bf2a325b20d8c000b",
            ),
            (
                dict(
                    max_vertices=4,
                    max_edges=4,
                    weight_denominator_bound=8,
                    max_rank=8,
                    mode="random",
                    sample_count=3,
                ),
                378,
                "f0b998e325a1bff05b3d5d851166307331a4459d79cca0cd512719dbc0acb92c",
            ),
        ],
        ids=["exhaustive", "random"],
    )
    def test_golden_csv(self, bounds, instances, sha):
        report = run_campaign(cfg(max_genus=1, seed=2026, **bounds))
        assert report.instances_checked == instances
        assert report.csv_sha256 == sha

    def test_golden_summary(self, tmp_path):
        # The exhaustive golden campaign's summary file, byte for byte.
        bounds = dict(max_vertices=3, max_edges=4, weight_denominator_bound=6, max_rank=9)
        run_campaign(cfg(max_genus=1, seed=2026, **bounds), summary_path=tmp_path / "s.json")
        data = (tmp_path / "s.json").read_bytes()
        assert (
            hashlib.sha256(data).hexdigest()
            == "fe653a4f44e56adbe281cd3e467a7229d286a04c6467adc10510557801054576"
        )

    def test_curve_hash_stable(self):
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        again = CurveGraph([(2, 2), (1, 2)], [(1, (2, 1))])
        assert curve_hash(c) == curve_hash(again)
        assert len(curve_hash(c)) == 12

    def test_curve_hash_is_that_of_the_canonical_json(self):
        # Every curve of the benchmark's exhaustive and random campaign
        # bounds, one-component curves without a node, and ids that are
        # neither small nor consecutive.
        curves = [
            *enumerate_curves(cfg(max_vertices=4, max_edges=5, max_genus=2)),
            *enumerate_curves(
                cfg(max_vertices=5, max_edges=5, mode="random", sample_count=1)
            ),
            *(CurveGraph([(7, g)], []) for g in range(4)),
            CurveGraph([(30, 1), (12, 0), (5, 11)], [(90, (30, 12)), (4, (5, 30)), (17, (12, 5))]),
        ]
        assert len(curves) == 1201 + 600 + 5
        for c in curves:
            text = canonical_dumps(curve_to_obj(c))
            assert curve_hash(c) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class TestIdentityProofs:
    """The identity suite proves each identity once per curve, base or
    mask, and a fault planted in one kernel shows on every instance whose
    draw reaches it."""

    SMALL = dict(max_vertices=3, max_edges=3, max_genus=1, weight_denominator_bound=4)

    @staticmethod
    def _residual_sign_flipped(curve, lam, q, e):
        total = sum(r * (2 * l - q * d) for r, l, d in zip(e.ranks, lam, curve.vertex_degrees))
        return total - q * sum(residual_ranks(curve, e))

    @staticmethod
    def _path_orientation_swapped(ps, q, aj, e):
        plan = tuple((succ, pred, pos) for pred, succ, pos in ps.edge_plan)
        return delta_decomposed_scaled(ps._replace(edge_plan=plan), q, aj, e)

    @staticmethod
    def _restriction_counts_boundary(curve, lam, q, e, mask):
        total = sum(e.ranks[k] * l for k, l in enumerate(lam) if mask >> k & 1)
        for j, (ia, ib) in enumerate(curve.edge_index_pairs()):
            if mask >> ia & 1 or mask >> ib & 1:
                total -= q * e.stalk_free[j]
        return total

    @pytest.mark.parametrize(
        "name, fault, names",
        [
            ("delta_residual_scaled", "_residual_sign_flipped", "residual formula"),
            ("delta_decomposed_scaled", "_path_orientation_swapped", "at base "),
            ("restrict_scaled", "_restriction_counts_boundary", "for mask "),
        ],
    )
    def test_planted_fault_flags_every_reached_instance(self, monkeypatch, name, fault, names):
        import nodalpol.search

        clean = run_campaign(cfg(**self.SMALL))
        assert clean.consistent
        monkeypatch.setattr(nodalpol.search, name, getattr(self, fault))
        report = run_campaign(cfg(**self.SMALL))
        # The CSV does not depend on the identity suite.
        assert report.csv_sha256 == clean.csv_sha256
        # Every draw on a curve with a node reaches these kernels, and the
        # one-component curves have nothing to check.
        reached = set()
        index = 0
        for curve in enumerate_curves(cfg(**self.SMALL)):
            grid = len(list(sample_polarizations(curve, cfg(**self.SMALL))))
            if curve.delta:
                reached.update(range(index, index + grid))
            index += grid
        assert index == report.instances_checked
        assert {r["index"] for r in report.identity_failures} == reached
        for record in report.identity_failures:
            assert set(record) == {"index", "curve", "curve_json", "weights", "failure"}
            assert names in record["failure"]

    def test_one_proof_per_curve_base_and_mask(self, monkeypatch):
        import nodalpol.search

        counts: dict[str, Counter] = {}

        def counting(name):
            real = getattr(nodalpol.search, name)
            seen = counts.setdefault(name, Counter())

            def spy(curve, *args):
                seen[(curve._key,) + args] += 1
                return real(curve, *args)

            monkeypatch.setattr(nodalpol.search, name, spy)

        for name in ("_prove_residual", "_prove_path", "_prove_restriction"):
            counting(name)
        report = run_campaign(cfg(**{**self.SMALL, "weight_denominator_bound": 6}, seed=5))
        assert report.consistent
        for name, seen in counts.items():
            assert set(seen.values()) == {1}, name
        assert len(counts["_prove_residual"]) == report.curves_enumerated
        # Proofs are shared between instances of a curve.
        for name in ("_prove_path", "_prove_restriction"):
            assert 0 < len(counts[name]) < report.instances_checked / 2, name
