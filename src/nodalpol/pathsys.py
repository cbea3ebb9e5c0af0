"""Rooted path systems on the dual graph and the defect decomposition.

Fixing a base component, the construction runs as follows.  Parallel edges
(nodes joining the same two components) form classes; the *marking* picks
the lowest-id edge of each class.  On the simple graph spanned by the
marking, a breadth-first shortest-path tree is rooted at the base, with the
parent of each vertex chosen as its smallest-id neighbour of minimal depth.
The tree paths to the base then form a suffix-closed family of minimal
paths: the path of any vertex lying on another vertex's path is a suffix of
it.

Each edge is *oriented* by letting its deeper endpoint precede the
shallower one (ties broken towards the smaller id); parallel edges share
their class's orientation.  For a tree edge, the far-side subtree ``A_j``
collects exactly the vertices whose path uses that edge; non-tree marked
edges get an empty ``A_j``.  Every non-empty ``A_j`` and its complement are
connected, and on trees the boundary of each ``A_j`` is a single node.

Writing ``a_j``/``b_j`` for the branch ranks of a sheaf datum on the
predecessor/successor side of node j, the defect decomposes as

    delta(E) = sum over tree edges of
                 a_j * ((1 - dA_j)/2 + delta(O_{A_j}))
               + b_j * ((1 + dA_j)/2 - delta(O_{A_j}))
             + (1/2) * sum over the remaining edges of (a_j + b_j)

with ``dA_j`` the boundary size of ``A_j`` in the full multigraph.  This
must agree exactly with the other two defect formulas for every datum and
every base.

The construction never reads a genus: a path system is a function of the
curve's :class:`~nodalpol.curve.DualGraph` and the base.  It is built on
that graph and memoized there, so every genus decoration of one graph
object shares one path system per base, and each far-side and
suffix-closure check of the construction runs once per (graph, base).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .curve import CurveGraph, DualGraph, Subcurve, mask_members
from .errors import InvalidCurveError, PathIdentityError
from .polarization import Polarization, delta_structure_scaled, scaled_lambda
from .sheafdata import SheafDatum, validate_datum


class AjGeometry(NamedTuple):
    """Graph-level data of one marked edge's far-side subcurve."""

    edge_id: int
    mask: int        # 0 for non-tree marked edges
    members: tuple[int, ...]
    internal: int
    boundary: int


class PathSystem(NamedTuple):
    """Marking, shortest-path tree and edge orientation for one base choice.

    Only index data are stored: vertices and edges are named by their
    position in the id order of ``graph``, the curve's dual graph.
    ``edge_plan[j]`` is ``(predecessor index, successor index, position in
    aj_geometry)`` of edge j, the position being -1 for edges that are not
    tree edges; ``path_edges[v]`` lists the edge indices on the tree path
    from vertex index v to the base, nearest edge first; ``aj_geometry``
    has one entry per marked edge, ascending by id.  The kernels read these
    directly.

    ``marking``, ``tree_edges``, ``parent``, ``depth`` and ``orientation``
    are views by vertex and edge id, computed on each access from the index
    data: ``parent`` maps every non-base vertex id to ``(parent id, tree
    edge id)``, ``depth`` every vertex id to its tree depth, and
    ``orientation`` each edge id to its ``(predecessor, successor)`` vertex
    ids.  Instances are immutable and cached per dual graph, so every genus
    decoration of one graph object gets the same instance.
    """

    graph: DualGraph
    base: int
    aj_geometry: tuple[AjGeometry, ...]
    edge_plan: tuple[tuple[int, int, int], ...]
    path_edges: tuple[tuple[int, ...], ...]

    @property
    def marking(self) -> frozenset[int]:
        return frozenset(geo.edge_id for geo in self.aj_geometry)

    @property
    def tree_edges(self) -> frozenset[int]:
        return frozenset(geo.edge_id for geo in self.aj_geometry if geo.mask)

    @property
    def parent(self) -> dict[int, tuple[int, int]]:
        ids = self.graph.vertex_ids
        eids = self.graph.edge_ids
        # A tree edge's successor is the shallower end: the parent.
        return {
            ids[v]: (ids[self.edge_plan[path[0]][1]], eids[path[0]])
            for v, path in enumerate(self.path_edges)
            if path
        }

    @property
    def depth(self) -> dict[int, int]:
        ids = self.graph.vertex_ids
        return {ids[v]: len(path) for v, path in enumerate(self.path_edges)}

    @property
    def orientation(self) -> dict[int, tuple[int, int]]:
        ids = self.graph.vertex_ids
        eids = self.graph.edge_ids
        return {
            eids[j]: (ids[pred], ids[succ])
            for j, (pred, succ, _) in enumerate(self.edge_plan)
        }

    def path_edge_ids(self, vertex_id: int) -> tuple[int, ...]:
        """Tree edges on the minimal path from a vertex to the base."""
        eids = self.graph.edge_ids
        return tuple(eids[j] for j in self.path_edges[self.graph.index_of(vertex_id)])


def _simple_graph(
    graph: DualGraph,
) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """The base-independent part of every path system.

    Returns the marked edge indices, ascending (the lowest edge id of each
    parallel class), and per vertex index its neighbours in the simple
    graph they span as ``(vertex index, edge index)``, ascending by vertex.
    """
    class_rep: dict[tuple[int, int], int] = {}
    for j, pair in enumerate(graph.edge_index_pairs()):
        class_rep.setdefault(pair, j)
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(graph.gamma)]
    # Pairs are (smaller, larger) and sorted, so each list comes out
    # ascending: first the smaller neighbours, then the larger ones.
    for (ia, ib), j in sorted(class_rep.items()):
        neighbours[ia].append((ib, j))
        neighbours[ib].append((ia, j))
    return (
        tuple(sorted(class_rep.values())),
        tuple(tuple(row) for row in neighbours),
    )


def build_path_system(curve: CurveGraph, base: int) -> PathSystem:
    """The path system rooted at a base vertex, memoized on the curve's
    dual graph and shared with every curve on that graph object."""
    return curve.graph.memo(("path system", base), _construct, base)


def _construct(graph: DualGraph, base: int) -> PathSystem:
    """Build the path system of ``graph`` rooted at ``base``, checking the
    far sides and suffix closure; :func:`build_path_system` memoizes it."""
    base_idx = graph.index_of(base)
    gamma = graph.gamma
    full = graph.full_mask
    marked, neighbours = graph.memo("simple graph", _simple_graph)

    # Breadth-first depths on the simple graph (vertices, marking); the
    # list of reached vertices is the queue, in non-decreasing depth.
    depth = [-1] * gamma
    depth[base_idx] = 0
    order = [base_idx]
    for v in order:
        below = depth[v] + 1
        for u, _ in neighbours[v]:
            if depth[u] < 0:
                depth[u] = below
                order.append(u)
    if len(order) != gamma:
        raise AssertionError("the marked simple graph is disconnected")

    # Parent = smallest-id neighbour one level up; this makes every tree
    # path minimal and suffix-closed.  Vertex indices follow id order.  A
    # path is its vertex's tree edge in front of its parent's path.
    parent = [-1] * gamma
    child_of: dict[int, int] = {}
    path_edges: list[tuple[int, ...]] = [()] * gamma
    for v in order[1:]:
        up = depth[v] - 1
        for u, j in neighbours[v]:
            if depth[u] == up:
                parent[v] = u
                child_of[j] = v
                path_edges[v] = (j,) + path_edges[u]
                break

    # An edge has exactly one end in the subtree of v when v lies on the
    # tree path from one end up to where the two paths meet, so one walk
    # per edge counts every subtree's boundary.  Degree sums count each
    # internal node twice and each boundary node once.
    boundary = [0] * gamma
    for ia, ib in graph.edge_index_pairs():
        while ia != ib:
            if depth[ia] < depth[ib]:
                ia, ib = ib, ia
            boundary[ia] += 1
            ia = parent[ia]
    subtree = [1 << v for v in range(gamma)]
    degree_sum = list(graph.vertex_degrees)
    for v in reversed(order[1:]):
        u = parent[v]
        subtree[u] |= subtree[v]
        degree_sum[u] += degree_sum[v]

    eids = graph.edge_ids
    geometry = []
    geometry_pos: dict[int, int] = {}
    for j in marked:
        v = child_of.get(j)
        if v is None:
            geometry.append(AjGeometry(eids[j], 0, (), 0, 0))
            continue
        mask = subtree[v]
        if not graph.mask_is_connected(mask):
            raise AssertionError("a far-side subcurve is disconnected")
        if mask != full and not graph.mask_is_connected(full ^ mask):
            raise AssertionError("a far-side complement is disconnected")
        geometry_pos[j] = len(geometry)
        geometry.append(
            AjGeometry(
                eids[j],
                mask,
                mask_members(mask),
                (degree_sum[v] - boundary[v]) // 2,
                boundary[v],
            )
        )

    # Orientation: the deeper endpoint precedes; equal depth breaks towards
    # the smaller id.  Parallel edges share endpoints, hence the class
    # orientation automatically.
    edge_plan = []
    for j, (ia, ib) in enumerate(graph.edge_index_pairs()):
        pred, succ = (ib, ia) if depth[ib] > depth[ia] else (ia, ib)
        edge_plan.append((pred, succ, geometry_pos.get(j, -1)))

    # Parent-pointer paths are suffix-closed and minimal by construction;
    # the checks document both properties and guard future refactors.
    for v in range(gamma):
        path = path_edges[v]
        if len(path) != depth[v]:
            raise AssertionError("tree path length disagrees with depth")
        if v != base_idx and path[1:] != path_edges[parent[v]]:
            raise AssertionError("tree paths are not suffix-closed")

    return PathSystem(
        graph=graph,
        base=base,
        aj_geometry=tuple(geometry),
        edge_plan=tuple(edge_plan),
        path_edges=tuple(path_edges),
    )


class AjEntry(NamedTuple):
    """One marked edge's subcurve with its boundary size and defect."""

    edge_id: int
    subcurve: Subcurve | None
    boundary: int | None
    delta: Fraction | None


class AjFamily(NamedTuple):
    path_system: PathSystem
    entries: tuple[AjEntry, ...]

    def non_empty(self) -> tuple[AjEntry, ...]:
        return tuple(e for e in self.entries if e.subcurve is not None)


def aj_defects_scaled(
    ps: PathSystem, lam: Sequence[int], q: int
) -> tuple[int, ...]:
    """``q * delta(O_{A_j})`` per entry of ``ps.aj_geometry`` (0 where A_j
    is empty), from ``(lam, q)`` of :func:`scaled_lambda`."""
    return tuple(
        delta_structure_scaled(lam, q, geo.members, geo.internal) if geo.mask else 0
        for geo in ps.aj_geometry
    )


def aj_family(
    curve: CurveGraph, w: Polarization, ps: PathSystem
) -> AjFamily:
    """Evaluate the defect of each far-side subcurve under a polarization.

    Boundary sizes are counted in the full multigraph.  Connectivity of
    every non-empty subcurve and of its complement is checked when the
    path system is built.  ``ps`` may come from any curve with the same
    dual graph, since it does not depend on the genera.
    """
    if ps.graph is not curve.graph and ps.graph != curve.graph:
        raise InvalidCurveError("path system belongs to a different dual graph")
    lam, q = scaled_lambda(curve, w)
    entries = []
    for geo, scaled in zip(ps.aj_geometry, aj_defects_scaled(ps, lam, q)):
        if geo.mask == 0:
            entries.append(AjEntry(geo.edge_id, None, None, None))
            continue
        entries.append(
            AjEntry(
                geo.edge_id,
                Subcurve(curve, geo.mask),
                geo.boundary,
                Fraction(scaled, q),
            )
        )
    return AjFamily(path_system=ps, entries=tuple(entries))


def delta_decomposed_scaled(
    ps: PathSystem, q: int, aj: Sequence[int], e: SheafDatum
) -> int:
    """The path-formula kernel: ``2q * delta(E)``.

    ``aj`` holds ``q * delta(O_{A_j})`` per entry of ``ps.aj_geometry``,
    as :func:`aj_defects_scaled` computes it.
    """
    ranks = e.ranks
    geometry = ps.aj_geometry
    total = 0
    for (pred, succ, pos), s in zip(ps.edge_plan, e.stalk_free):
        a = ranks[pred] - s
        b = ranks[succ] - s
        if pos < 0:
            total += q * (a + b)
        else:
            d = geometry[pos].boundary
            dq = aj[pos]
            total += a * (q * (1 - d) + 2 * dq) + b * (q * (1 + d) - 2 * dq)
    return total


def delta_decomposed(
    curve: CurveGraph,
    w: Polarization,
    ps: PathSystem,
    fam: AjFamily,
    e: SheafDatum,
) -> Fraction:
    """Defect via the path-system decomposition.

    Tree edges contribute through their far-side subcurve's defect and
    boundary; every other edge contributes half its residual rank.  Agrees
    exactly with the other two defect formulas.
    """
    validate_datum(curve, e)
    q = scaled_lambda(curve, w).q
    by_edge = {entry.edge_id: entry.delta for entry in fam.entries}
    aj = []
    for geo in ps.aj_geometry:
        if geo.mask == 0:
            aj.append(0)
            continue
        dq = by_edge[geo.edge_id] * q  # type: ignore[operator]
        assert dq.denominator == 1
        aj.append(dq.numerator)
    return Fraction(delta_decomposed_scaled(ps, q, aj, e), 2 * q)


def path_rank_sums(ps: PathSystem, ranks: Sequence[int]) -> tuple[int, ...]:
    """The telescoping kernel: per vertex index v, the sum of ``b_j - a_j
    = r_succ - r_pred`` over the edges of v's tree path to the base."""
    plan = ps.edge_plan
    out = []
    for path in ps.path_edges:
        total = 0
        for j in path:
            pred, succ, _ = plan[j]
            total += ranks[succ] - ranks[pred]
        out.append(total)
    return tuple(out)


def check_path_identities(curve: CurveGraph, ps: PathSystem, e: SheafDatum) -> None:
    """The kernel of :func:`verify_path_identities`, for a datum that has
    been validated already."""
    # b_j - a_j = (r_succ - s_j) - (r_pred - s_j) = r_succ - r_pred
    ranks = e.ranks
    plan = ps.edge_plan
    class_diff: dict[tuple[int, int], tuple[int, int]] = {}
    for j, pair in enumerate(curve.edge_index_pairs()):
        pred, succ, _ = plan[j]
        diff = ranks[succ] - ranks[pred]
        if pair in class_diff:
            j0, d0 = class_diff[pair]
            if diff != d0:
                raise PathIdentityError(
                    f"parallel nodes {curve.edge_ids[j0]} and "
                    f"{curve.edge_ids[j]} disagree: {d0} != {diff}"
                )
        else:
            class_diff[pair] = (j, diff)

    r_base = ranks[curve.index_of(ps.base)]
    for v, total in enumerate(path_rank_sums(ps, ranks)):
        expected = r_base - ranks[v]
        if total != expected:
            raise PathIdentityError(
                f"telescoping failed along the path of vertex "
                f"{curve.vertex_ids[v]}: {total} != {expected}"
            )


def verify_path_identities(
    curve: CurveGraph, ps: PathSystem, e: SheafDatum
) -> None:
    """Check the two bookkeeping identities of the oriented path system.

    (a) ``b_j - a_j`` is constant across each parallel class;
    (b) summing ``b_j - a_j`` along any tree path telescopes to the rank
        difference between the base component and the starting one.
    Violations raise with the offending indices.
    """
    validate_datum(curve, e)
    check_path_identities(curve, ps, e)
