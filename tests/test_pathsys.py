from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

import nodalpol.pathsys
from conftest import (
    polarized_data,
    random_curve,
    random_datum,
    random_polarization,
    star2_conditions,
)
from nodalpol import (
    CampaignConfig,
    CurveGraph,
    Polarization,
    SheafDatum,
    aj_family,
    build_path_system,
    canonical,
    delta_decomposed,
    delta_general,
    delta_structure,
    enumerate_curves,
    run_campaign,
    verify_path_identities,
)
from nodalpol.curve import mask_members
from nodalpol.errors import InvalidCurveError

F = Fraction


def banana3() -> CurveGraph:
    return CurveGraph.from_genera([0, 0], [(1, 2)] * 3)


def triangle() -> CurveGraph:
    # Node p_i sits opposite component C_i.
    return CurveGraph.from_genera([0, 0, 0], [(2, 3), (1, 3), (1, 2)])


class TestBuild:
    def test_banana_marking_and_family(self):
        ps = build_path_system(banana3(), base=2)
        assert ps.marking == {1}
        assert ps.tree_edges == {1}
        assert ps.parent == {1: (2, 1)}
        fam = aj_family(banana3(), Polarization.uniform(2), ps)
        live = fam.non_empty()
        assert len(live) == 1
        assert live[0].edge_id == 1
        assert live[0].subcurve.member_ids == (1,)
        assert live[0].boundary == 3

    def test_triangle_tree_and_family(self):
        t = triangle()
        ps = build_path_system(t, base=3)
        assert ps.marking == {1, 2, 3}
        assert ps.tree_edges == {1, 2}
        assert ps.path_edge_ids(3) == ()
        assert ps.path_edge_ids(1) == (2,)
        assert ps.path_edge_ids(2) == (1,)
        fam = aj_family(t, Polarization.uniform(3), ps)
        by_edge = {e.edge_id: e for e in fam.entries}
        assert by_edge[1].subcurve.member_ids == (2,)
        assert by_edge[2].subcurve.member_ids == (1,)
        assert by_edge[3].subcurve is None
        assert by_edge[1].boundary == by_edge[2].boundary == 2

    def test_tree_curves_use_every_edge(self):
        rng = random.Random(31)
        for _ in range(50):
            gamma = rng.randint(2, 6)
            edges = [(rng.randint(1, v - 1), v) for v in range(2, gamma + 1)]
            c = CurveGraph.from_genera([rng.randint(0, 2) for _ in range(gamma)], edges)
            base = rng.randint(1, gamma)
            ps = build_path_system(c, base)
            assert ps.marking == set(c.edge_ids)
            assert ps.tree_edges == set(c.edge_ids)

    def test_compact_type_boundaries_are_one(self):
        rng = random.Random(37)
        for _ in range(50):
            gamma = rng.randint(2, 6)
            edges = [(rng.randint(1, v - 1), v) for v in range(2, gamma + 1)]
            c = CurveGraph.from_genera([0] * gamma, edges)
            ps = build_path_system(c, rng.randint(1, gamma))
            fam = aj_family(c, Polarization.uniform(gamma), ps)
            live = fam.non_empty()
            assert len(live) == c.delta
            assert all(e.boundary == 1 for e in live)

    def test_unknown_base_rejected(self):
        with pytest.raises(InvalidCurveError):
            build_path_system(banana3(), base=9)

    def test_parallel_edges_share_orientation(self):
        ps = build_path_system(banana3(), base=2)
        assert ps.orientation[1] == ps.orientation[2] == ps.orientation[3]
        # child (deeper endpoint) precedes the base
        assert ps.orientation[1] == (1, 2)

    def test_family_subcurves_and_complements_connected(self):
        rng = random.Random(41)
        for _ in range(80):
            c = random_curve(rng, max_gamma=6)
            if c.gamma < 2:
                continue
            base = rng.randint(1, c.gamma)
            ps = build_path_system(c, base)
            fam = aj_family(c, random_polarization(rng, c.gamma), ps)
            for entry in fam.non_empty():
                assert entry.subcurve.is_connected
                assert entry.subcurve.complement().is_connected

    def test_far_side_counts_match_subset_counts(self):
        # Multigraphs with parallel edges and shuffled vertex and edge ids.
        rng = random.Random(43)
        for _ in range(60):
            gamma = rng.randint(2, 9)
            ids = rng.sample(range(1, 100), gamma)
            ends = [(ids[rng.randrange(v)], ids[v]) for v in range(1, gamma)]
            ends += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 2 * gamma))]
            ends += rng.choices(ends, k=rng.randint(1, 3))
            edges = list(zip(rng.sample(range(1, 200), len(ends)), ends))
            c = CurveGraph([(v, rng.randint(0, 2)) for v in ids], edges)
            for base in ids:
                for geo in build_path_system(c, base).aj_geometry:
                    if geo.mask:
                        counts = c.subset_counts(geo.mask)
                        assert (geo.internal, geo.boundary) == counts
                        assert geo.members == mask_members(geo.mask)


class TestStar2:
    def test_rational_cycles_always_satisfied(self):
        rng = random.Random(43)
        for gamma in range(2, 6):
            edges = [(v, v + 1) for v in range(1, gamma)] + [(1, gamma)]
            c = CurveGraph.from_genera([0] * gamma, edges)
            for base in c.vertex_ids:
                ps = build_path_system(c, base)
                fam = aj_family(c, random_polarization(rng, gamma), ps)
                conditions = star2_conditions(fam)
                assert conditions and all(ok for _, ok in conditions)
                for entry in fam.non_empty():
                    assert entry.delta == 1 and entry.boundary == 2

    def test_canonical_weights_always_satisfied(self):
        rng = random.Random(47)
        checked = 0
        while checked < 60:
            c = random_curve(rng, max_gamma=5)
            if not c.classify().stable:
                continue
            eta = canonical(c)
            for base in c.vertex_ids:
                fam = aj_family(c, eta, build_path_system(c, base))
                assert all(ok for _, ok in star2_conditions(fam))
                for entry in fam.non_empty():
                    assert entry.delta == F(entry.boundary, 2)
            checked += 1

    def test_skewed_two_component_fails_every_base(self):
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        w = Polarization.of([F(1, 6), F(5, 6)])
        for base in (1, 2):
            fam = aj_family(c, w, build_path_system(c, base))
            assert not all(ok for _, ok in star2_conditions(fam))


class TestDeltaDecomposed:
    def test_locally_free_vanishes(self):
        c = banana3()
        w = Polarization.of([F(1, 3), F(2, 3)])
        ps = build_path_system(c, 2)
        fam = aj_family(c, w, ps)
        e = SheafDatum((2, 2), (3, -1), (2, 2, 2))
        assert delta_decomposed(c, w, ps, fam, e) == 0

    def test_one_sided_matches_hand_value(self):
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        w = Polarization.of([F(1, 6), F(5, 6)])
        ps = build_path_system(c, 2)
        fam = aj_family(c, w, ps)
        e = SheafDatum((1, 0), (0, 0), (0,))
        assert delta_decomposed(c, w, ps, fam, e) == F(-1, 2)

    @given(polarized_data())
    @settings(max_examples=100)
    def test_agrees_with_general_formula_for_first_base(self, cwe):
        c, w, e = cwe
        ps = build_path_system(c, c.vertex_ids[0])
        fam = aj_family(c, w, ps)
        assert delta_decomposed(c, w, ps, fam, e) == delta_general(c, w, e)

    def test_agrees_for_every_base_on_random_instances(self):
        rng = random.Random(53)
        for _ in range(200):
            c = random_curve(rng, max_gamma=4)
            w = random_polarization(rng, c.gamma)
            e = random_datum(rng, c)
            expected = delta_general(c, w, e)
            for base in c.vertex_ids:
                ps = build_path_system(c, base)
                fam = aj_family(c, w, ps)
                assert delta_decomposed(c, w, ps, fam, e) == expected


class TestPathIdentities:
    def test_one_sided_telescoping(self):
        c = CurveGraph.from_genera([2, 2], [(1, 2)])
        ps = build_path_system(c, 2)
        e = SheafDatum((1, 0), (0, 0), (0,))
        verify_path_identities(c, ps, e)
        # orientation (1, 2): a = r_1 - s = 1, b = r_2 - s = 0, b - a = -1.
        pred, succ = ps.orientation[1]
        assert (pred, succ) == (1, 2)
        assert e.ranks[1] - e.ranks[0] == -1

    def test_constant_rank_has_symmetric_branches(self):
        c = banana3()
        ps = build_path_system(c, 1)
        e = SheafDatum((2, 2), (0, 0), (1, 2, 0))
        verify_path_identities(c, ps, e)

    def test_parallel_edges_with_distinct_stalks(self):
        c = banana3()
        ps = build_path_system(c, 2)
        e = SheafDatum((2, 1), (0, 0), (0, 1, 1))
        verify_path_identities(c, ps, e)

    def test_random_data_never_violate(self):
        rng = random.Random(59)
        for _ in range(300):
            c = random_curve(rng)
            ps = build_path_system(c, rng.randint(1, c.gamma))
            verify_path_identities(c, ps, random_datum(rng, c))


def _graph_runs(cfg: CampaignConfig) -> list[list[CurveGraph]]:
    """The curves ``enumerate_curves`` yields, in runs of one graph object."""
    runs: list[list[CurveGraph]] = []
    for c in enumerate_curves(cfg):
        if runs and runs[-1][0].graph is c.graph:
            runs[-1].append(c)
        else:
            runs.append([c])
    return runs


def _views(ps):
    return (
        ps.base,
        ps.aj_geometry,
        ps.edge_plan,
        ps.path_edges,
        ps.marking,
        ps.tree_edges,
        ps.parent,
        ps.depth,
        ps.orientation,
        tuple(ps.path_edge_ids(v) for v in ps.graph.vertex_ids),
    )


class TestSharing:
    CFG = CampaignConfig(
        max_vertices=4, max_edges=4, max_genus=2, weight_denominator_bound=3, max_rank=1
    )

    def test_decorations_share_graph_and_path_systems(self):
        runs = _graph_runs(self.CFG)
        graphs = [run[0].graph for run in runs]
        # One graph object per multiplicity vector, its curves back to back.
        assert len(set(graphs)) == len(graphs)
        assert sum(len(run) > 1 for run in runs) > len(runs) // 2
        for run in runs:
            assert len({c.genera for c in run}) == len(run)
            for base in run[0].vertex_ids:
                ps = build_path_system(run[0], base)
                assert ps.graph is run[0].graph
                assert all(build_path_system(c, base) is ps for c in run)

    def test_shared_path_system_matches_a_fresh_build(self):
        for run in _graph_runs(self.CFG):
            c = run[-1]
            fresh = CurveGraph.from_genera([g + 1 for g in c.genera], c.edge_ends)
            assert fresh.graph == c.graph and fresh.graph is not c.graph
            for base in c.vertex_ids:
                shared = build_path_system(c, base)
                own = build_path_system(fresh, base)
                assert own is not shared
                assert _views(own) == _views(shared)

    def test_aj_family_takes_a_siblings_path_system(self):
        rng = random.Random(71)
        runs = [run for run in _graph_runs(self.CFG) if run[0].gamma == 3]
        for run, other in zip(runs, runs[1:]):
            for c in run[:4]:
                w = random_polarization(rng, c.gamma)
                for base in c.vertex_ids:
                    for sibling in run[:4]:
                        fam = aj_family(c, w, build_path_system(sibling, base))
                        for entry in fam.non_empty():
                            assert entry.subcurve.owner is c
                            assert entry.delta == delta_structure(entry.subcurve, w)
                    with pytest.raises(InvalidCurveError, match="dual graph"):
                        aj_family(c, w, build_path_system(other[0], base))

    def test_one_cold_build_per_graph_and_base(self, monkeypatch):
        # The benchmark's campaign_exhaustive bounds: 1,201 curves on 34
        # dual graphs with 113 components between them.
        seen: Counter = Counter()
        construct = nodalpol.pathsys._construct

        def counted(graph, base):
            seen[graph, base] += 1
            return construct(graph, base)

        monkeypatch.setattr(nodalpol.pathsys, "_construct", counted)
        report = run_campaign(
            CampaignConfig(
                max_vertices=4,
                max_edges=5,
                max_genus=2,
                weight_denominator_bound=5,
                max_rank=12,
                seed=1,
            )
        )
        assert report.consistent and report.curves_enumerated == 1201
        assert set(seen.values()) == {1}
        assert len(seen) == 113
        assert len({graph for graph, _ in seen}) == 34
