from __future__ import annotations

import random
from collections import Counter, deque
from itertools import combinations

import pytest
from hypothesis import given, settings

import nodalpol.curve
from conftest import curves, proper_connected_subcurves
from nodalpol import CurveGraph, DualGraph
from nodalpol.curve import MAX_COMPONENTS, lowest_component, mask_members
from nodalpol.errors import InvalidCurveError
from nodalpol.search import CampaignConfig, _connected_multiplicities, _pair_list, run_campaign


def two_genus2() -> CurveGraph:
    return CurveGraph.from_genera([2, 2], [(1, 2)])


def triangle() -> CurveGraph:
    return CurveGraph.from_genera([0, 0, 0], [(2, 3), (1, 3), (1, 2)])


def path3() -> CurveGraph:
    return CurveGraph.from_genera([0, 0, 0], [(1, 2), (2, 3)])


class TestArithmeticGenus:
    def test_smooth_curve(self):
        assert CurveGraph.from_genera([5]).arithmetic_genus == 5

    def test_two_components_one_node(self):
        assert two_genus2().arithmetic_genus == 4
        assert two_genus2().euler_characteristic == -3

    def test_triangle(self):
        assert triangle().arithmetic_genus == 1

    @given(curves())
    @settings(max_examples=60)
    def test_handshake(self, c):
        assert sum(c.vertex_degrees) == 2 * c.delta


class TestSubcurveGenus:
    def test_single_vertex(self):
        c = two_genus2()
        assert c.subcurve([1]).arithmetic_genus == 2

    def test_full_curve(self):
        c = two_genus2()
        assert c.subcurve([1, 2]).arithmetic_genus == 4

    def test_adjacent_pair_of_triangle(self):
        assert triangle().subcurve([1, 2]).arithmetic_genus == 0

    def test_disconnected_subcurve(self):
        # Two far vertices of a length-2 path: chi = 2, genus = -1.
        assert path3().subcurve([1, 3]).arithmetic_genus == -1

    @given(curves(max_gamma=5))
    @settings(max_examples=60)
    def test_complement_identity(self, c):
        # p_a(B) + p_a(B^c) + boundary - 1 == p_a(C) for every proper subset
        for mask in range(1, c.full_mask):
            b = c.subcurve_from_mask(mask)
            bc = b.complement()
            assert (
                b.arithmetic_genus + bc.arithmetic_genus + b.boundary_size - 1
                == c.arithmetic_genus
            )

    def test_empty_subcurve_rejected(self):
        with pytest.raises(InvalidCurveError):
            two_genus2().subcurve_from_mask(0)


class TestClassify:
    def test_banana3_is_stable(self):
        c = CurveGraph.from_genera([0, 0], [(1, 2)] * 3)
        cls = c.classify()
        assert cls.stable and cls.semistable and cls.quasistable
        assert not cls.compact_type and not cls.cycle_of_rationals

    def test_rational_chain_not_semistable(self):
        cls = path3().classify()
        assert cls.compact_type
        assert not cls.semistable and not cls.stable

    def test_triangle_is_cycle(self):
        cls = triangle().classify()
        assert cls.cycle_of_rationals
        assert not cls.stable  # arithmetic genus 1

    def test_two_edge_banana_is_cycle(self):
        c = CurveGraph.from_genera([0, 0], [(1, 2), (1, 2)])
        assert c.classify().cycle_of_rationals

    def test_exceptional_adjacency_breaks_quasistability(self):
        # genus 1 - 0 - 0 - 1 chain: the two middle rational components are
        # exceptional and adjacent.
        c = CurveGraph.from_genera([1, 0, 0, 1], [(1, 2), (2, 3), (3, 4)])
        cls = c.classify()
        assert cls.semistable and not cls.quasistable

    def test_single_exceptional_is_quasistable(self):
        c = CurveGraph.from_genera([1, 0, 1], [(1, 2), (2, 3)])
        cls = c.classify()
        assert cls.quasistable and not cls.stable

    def test_smooth_genus2_vertex(self):
        cls = CurveGraph.from_genera([2]).classify()
        assert cls.stable and cls.compact_type


class TestEnumeration:
    def test_two_components(self):
        subs = proper_connected_subcurves(two_genus2())
        assert [s.member_ids for s in subs] == [(1,), (2,)]

    def test_triangle_count(self):
        subs = proper_connected_subcurves(triangle())
        assert len(subs) == 6

    def test_path3_list(self):
        subs = [s.member_ids for s in proper_connected_subcurves(path3())]
        assert subs == [(1,), (2,), (1, 2), (3,), (2, 3)]

    def test_single_vertex_has_none(self):
        assert proper_connected_subcurves(CurveGraph.from_genera([1])) == []

    @given(curves(max_gamma=6))
    @settings(max_examples=40)
    def test_against_brute_force(self, c):
        # Independent oracle: subsets via itertools, connectivity via dict BFS.
        adjacency: dict[int, set[int]] = {v: set() for v in c.vertex_ids}
        for a, b in c.edge_ends:
            adjacency[a].add(b)
            adjacency[b].add(a)

        def connected(ids: tuple[int, ...]) -> bool:
            todo, seen = [ids[0]], {ids[0]}
            while todo:
                v = todo.pop()
                for u in adjacency[v]:
                    if u in ids and u not in seen:
                        seen.add(u)
                        todo.append(u)
            return len(seen) == len(ids)

        expected = set()
        for size in range(1, c.gamma):
            for ids in combinations(c.vertex_ids, size):
                if connected(ids):
                    expected.add(ids)
        got = {s.member_ids for s in proper_connected_subcurves(c)}
        assert got == expected

    def test_stats_match_mask_filter(self):
        rng = random.Random(2008)
        for _ in range(2000):
            c = _random_multigraph(rng, rng.randint(1, 10))
            s = c.connected_subcurve_stats()
            facts = tuple(
                (mask, mask_members(mask), internal, boundary, genus)
                for mask, internal, boundary, genus in zip(
                    s.masks, s.internal, s.boundary, s.genus
                )
            )
            assert facts == _mask_filter_stats(c), c

    def test_growth_tree(self):
        rng = random.Random(2009)
        for _ in range(500):
            c = _random_multigraph(rng, rng.randint(1, 10))
            s = c.connected_subcurve_stats()
            rows = enumerate(zip(s.masks, s.parents, s.vertices))
            for pos, (mask, parent, vertex) in rows:
                if parent == -1:
                    assert mask == 1 << vertex, c
                    continue
                assert 0 <= parent < pos, c
                parent_mask = s.masks[parent]
                assert not parent_mask >> vertex & 1, c
                assert parent_mask | 1 << vertex == mask, c
                assert c.mask_is_connected(parent_mask), c

    @pytest.mark.parametrize("closed", [False, True], ids=["chain", "cycle"])
    def test_counts_at_component_cap(self, closed):
        n = MAX_COMPONENTS
        edges = [(i, i + 1) for i in range(1, n)] + ([(n, 1)] if closed else [])
        stats = CurveGraph.from_genera([0] * n, edges).connected_subcurve_stats()
        assert len(stats) == (n * (n - 1) if closed else n * (n + 1) // 2 - 1)

    @given(curves())
    @settings(max_examples=40)
    def test_compact_type_iff_tree(self, c):
        cls = c.classify()
        is_tree = c.delta == c.gamma - 1  # connected by construction
        assert cls.compact_type == is_tree == (c.first_betti == 0)

    @given(curves())
    @settings(max_examples=60)
    def test_classification_implications(self, c):
        cls = c.classify()
        if cls.stable:
            assert cls.semistable
        if cls.quasistable:
            assert cls.semistable
        if cls.stable:
            assert cls.quasistable  # no exceptional components at all


GENUS_FREE_COLUMNS = ("masks", "parents", "vertices", "internal", "boundary")


class TestSubcurveSkeleton:
    """The genus-free columns are grown once per dual graph; each curve
    derives only its genus column."""

    def test_one_growth_per_graph_over_a_campaign(self, monkeypatch):
        # The benchmark's campaign_exhaustive bounds: 1,201 curves on 34
        # dual graphs, 33 of them with more than one component.
        seen: Counter = Counter()
        grow = nodalpol.curve._grow_subcurves

        def counted(graph):
            seen[graph] += 1
            return grow(graph)

        monkeypatch.setattr(nodalpol.curve, "_grow_subcurves", counted)
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
        assert set(seen.values()) == {1} and len(seen) == 33
        assert all(type(graph) is DualGraph for graph in seen)

    def test_decorations_share_columns_and_derive_genus(self):
        rng = random.Random(2015)
        for _ in range(300):
            graph = _random_multigraph(rng, rng.randint(1, 9)).graph
            edges = [
                (graph.vertex_ids.index(a) + 1, graph.vertex_ids.index(b) + 1)
                for a, b in graph.edge_ends
            ]
            first = None
            for _ in range(3):
                genera = [rng.randint(0, 3) for _ in range(graph.gamma)]
                stats = graph.decorate(genera).connected_subcurve_stats()
                fresh = CurveGraph.from_genera(genera, edges).connected_subcurve_stats()
                assert stats.genus == fresh.genus, (graph, genera)
                assert len(stats) == len(fresh)
                if first is None:
                    first = stats
                for name in GENUS_FREE_COLUMNS:
                    assert getattr(stats, name) is getattr(first, name)
                    assert getattr(stats, name) == getattr(fresh, name)


def _mask_filter_stats(c: CurveGraph) -> tuple[tuple, ...]:
    """Brute-force oracle: test all 2^gamma masks for connectivity; one
    ``(mask, members, internal, boundary, genus)`` per connected mask."""
    stats = []
    for mask in range(1, c.full_mask):
        if not c.mask_is_connected(mask):
            continue
        members = tuple(k for k in range(c.gamma) if mask & (1 << k))
        internal, boundary = c.subset_counts(mask)
        genus = sum(c.genera[k] for k in members) + internal - len(members) + 1
        stats.append((mask, members, internal, boundary, genus))
    return tuple(stats)


def _random_multigraph(rng: random.Random, gamma: int) -> CurveGraph:
    """Shuffled labels, a random spanning tree, extra and parallel edges."""
    labels = rng.sample(range(1, 3 * gamma + 1), gamma)
    edges = [(labels[rng.randrange(k)], labels[k]) for k in range(1, gamma)]
    if gamma >= 2:
        extra = rng.randint(0, 2 * gamma)
        edges += [tuple(rng.sample(labels, 2)) for _ in range(extra)]
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 3))]
    rng.shuffle(edges)
    return CurveGraph(
        [(v, rng.randint(0, 2)) for v in labels],
        [(j + 1, ends) for j, ends in enumerate(edges)],
    )


def _bfs_component(gamma: int, pairs, mask: int) -> int:
    """Oracle: the vertices of ``mask`` a breadth-first search reaches from
    its lowest vertex over the edges ``pairs`` (vertex-index pairs)."""
    if mask == 0:
        return 0
    neighbours: list[set[int]] = [set() for _ in range(gamma)]
    for a, b in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    start = (mask & -mask).bit_length() - 1
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in neighbours[v]:
            if mask >> u & 1 and u not in seen:
                seen.add(u)
                queue.append(u)
    return sum(1 << v for v in seen)


class TestConnectivity:
    def test_matches_breadth_first_search(self):
        rng = random.Random(61)
        for _ in range(300):
            c = _random_multigraph(rng, rng.randint(1, 12))
            masks = {0, c.full_mask}
            masks |= {rng.randrange(c.full_mask + 1) for _ in range(40)}
            for mask in masks:
                reached = _bfs_component(c.gamma, c.edge_index_pairs(), mask)
                assert lowest_component(c.adjacency_masks(), mask) == reached
                assert c.mask_is_connected(mask) == (mask != 0 and reached == mask)

    def test_long_paths(self):
        # A chain visited from either end needs one step per vertex.
        for n in (3, 7, 62):
            c = CurveGraph.from_genera([0] * n, [(k, k + 1) for k in range(1, n)])
            assert c.mask_is_connected(c.full_mask)
            assert not c.mask_is_connected(c.full_mask ^ (1 << (n // 2)))
            assert lowest_component(c.adjacency_masks(), c.full_mask ^ 1) == c.full_mask ^ 1

    def test_multiplicity_vectors_match_breadth_first_search(self):
        rng = random.Random(67)
        for _ in range(500):
            gamma = rng.randint(2, 6)
            pairs = _pair_list(gamma)
            m = tuple(rng.choice((0, 0, 1, 2)) for _ in pairs)
            edges = [p for p, k in zip(pairs, m) if k]
            full = (1 << gamma) - 1
            expected = _bfs_component(gamma, edges, full) == full
            assert _connected_multiplicities(m, gamma, pairs) == expected, m


class TestDotExport:
    def test_single_vertex(self):
        text = CurveGraph.from_genera([3]).to_dot()
        assert 'v1 [label="C_1 (g=3)"];' in text
        assert "--" not in text

    def test_two_vertices(self):
        text = two_genus2().to_dot()
        assert 'v1 -- v2 [label="p_1"];' in text
        assert text.count("--") == 1

    def test_deterministic(self):
        a = CurveGraph([(2, 1), (1, 2)], [(1, (2, 1))])
        b = CurveGraph([(1, 2), (2, 1)], [(1, (1, 2))])
        assert a.to_dot() == b.to_dot()


class TestValidation:
    def test_loop_rejected(self):
        with pytest.raises(InvalidCurveError, match="loop"):
            CurveGraph.from_genera([1], [(1, 1)])

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidCurveError, match="connected"):
            CurveGraph.from_genera([0, 0])

    def test_duplicate_vertex_id(self):
        with pytest.raises(InvalidCurveError, match="duplicate"):
            CurveGraph([(1, 0), (1, 1)], [])

    def test_negative_genus(self):
        with pytest.raises(InvalidCurveError, match="genus"):
            CurveGraph.from_genera([-1])

    def test_unknown_endpoint(self):
        with pytest.raises(InvalidCurveError, match="unknown"):
            CurveGraph.from_genera([0, 0], [(1, 3)])

    def test_nonpositive_ids(self):
        with pytest.raises(InvalidCurveError, match="positive"):
            CurveGraph([(0, 1)], [])

    def test_component_cap(self):
        n = 63
        edges = [(i, i + 1) for i in range(1, n)]
        with pytest.raises(InvalidCurveError, match="62"):
            CurveGraph.from_genera([0] * n, edges)

    def test_value_equality(self):
        assert two_genus2() == CurveGraph([(2, 2), (1, 2)], [(1, (2, 1))])
        assert two_genus2() != triangle()

    def test_decorate_checks_genera(self):
        graph = triangle().graph
        with pytest.raises(InvalidCurveError, match="genera"):
            graph.decorate([0, 1])
        with pytest.raises(InvalidCurveError, match="genus"):
            graph.decorate([0, -1, 0])

    def test_decoration_shares_the_graph(self):
        graph = DualGraph([3, 1, 2], [(2, (3, 1)), (1, (1, 2)), (3, (2, 3))])
        curve = graph.decorate([1, 0, 2])
        assert curve.graph is graph
        edges = [(1, (1, 2)), (2, (1, 3)), (3, (2, 3))]
        assert curve == CurveGraph([(1, 1), (2, 0), (3, 2)], edges)
        assert curve.vertex_ids is graph.vertex_ids
        assert curve.adjacency_masks() is graph.adjacency_masks()
        # Equal graphs built separately are equal values, not one object.
        assert triangle().graph == triangle().graph
        assert triangle().graph is not triangle().graph
        assert triangle().graph != path3().graph


def test_random_curves_always_valid():
    from conftest import random_curve

    rng = random.Random(7)
    for _ in range(200):
        c = random_curve(rng)
        assert c.gamma >= 1
        assert sum(c.vertex_degrees) == 2 * c.delta
