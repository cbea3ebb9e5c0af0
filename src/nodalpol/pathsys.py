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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .curve import CurveGraph, Subcurve
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


@dataclass(frozen=True)
class PathSystem:
    """Marking, shortest-path tree and edge orientation for one base choice.

    ``parent`` maps every non-base vertex id to ``(parent id, tree edge
    id)``; ``orientation`` maps each edge id to its ``(predecessor,
    successor)`` vertex ids.  Instances are immutable and cached per curve.

    The kernels read the same data by position: ``edge_plan[j]`` is
    ``(predecessor index, successor index, position in aj_geometry)`` of
    edge j, the position being -1 off the tree, and ``path_edges[v]``
    lists the edge indices on the path from vertex index v to the base.
    """

    curve: CurveGraph
    base: int
    marking: frozenset[int]
    tree_edges: frozenset[int]
    parent: dict[int, tuple[int, int]]
    depth: dict[int, int]
    orientation: dict[int, tuple[int, int]]
    aj_geometry: tuple[AjGeometry, ...]
    edge_plan: tuple[tuple[int, int, int], ...]
    path_edges: tuple[tuple[int, ...], ...]

    def path_edge_ids(self, vertex_id: int) -> tuple[int, ...]:
        """Tree edges on the minimal path from a vertex to the base."""
        self.curve.index_of(vertex_id)
        out = []
        v = vertex_id
        while v != self.base:
            p, eid = self.parent[v]
            out.append(eid)
            v = p
        return tuple(out)


def build_path_system(curve: CurveGraph, base: int) -> PathSystem:
    """Construct (and memoize) the path system rooted at a base vertex."""
    cache = curve._path_systems
    if base in cache:
        return cache[base]  # type: ignore[return-value]
    base_idx = curve.index_of(base)
    gamma = curve.gamma
    full = curve.full_mask

    # One marked edge per parallel class: the lowest edge id, i.e. the
    # first edge met in id order.
    class_rep: dict[tuple[int, int], int] = {}
    for j, pair in enumerate(curve.edge_index_pairs()):
        class_rep.setdefault(pair, j)
    marked = set(class_rep.values())

    # Breadth-first depths on the simple graph (vertices, marking).
    neighbors: list[list[tuple[int, int]]] = [[] for _ in range(gamma)]
    for (ia, ib), j in sorted(class_rep.items()):
        neighbors[ia].append((ib, j))
        neighbors[ib].append((ia, j))
    depth_idx = [-1] * gamma
    depth_idx[base_idx] = 0
    queue = deque([base_idx])
    while queue:
        v = queue.popleft()
        for u, _ in neighbors[v]:
            if depth_idx[u] < 0:
                depth_idx[u] = depth_idx[v] + 1
                queue.append(u)

    # Parent = smallest-id neighbour one level up; this makes every tree
    # path minimal and suffix-closed.
    parent_idx: dict[int, tuple[int, int]] = {}
    tree_edge_indices: set[int] = set()
    for v in range(gamma):
        if v == base_idx:
            continue
        best: tuple[int, int] | None = None
        for u, j in neighbors[v]:
            if depth_idx[u] == depth_idx[v] - 1 and (best is None or u < best[0]):
                best = (u, j)
        assert best is not None
        parent_idx[v] = best
        tree_edge_indices.add(best[1])

    # Orientation: the deeper endpoint precedes; equal depth breaks towards
    # the smaller id.  Parallel edges share endpoints, hence the class
    # orientation automatically.
    orientation_idx: list[tuple[int, int]] = []
    for ia, ib in curve.edge_index_pairs():
        if depth_idx[ia] > depth_idx[ib]:
            orientation_idx.append((ia, ib))
        elif depth_idx[ib] > depth_idx[ia]:
            orientation_idx.append((ib, ia))
        else:
            orientation_idx.append((ia, ib) if ia < ib else (ib, ia))

    # Far-side subtree of each tree edge, accumulated bottom-up.
    subtree = [1 << v for v in range(gamma)]
    for v in sorted(range(gamma), key=lambda v: -depth_idx[v]):
        if v != base_idx:
            subtree[parent_idx[v][0]] |= subtree[v]
    tree_edge_child = {j: v for v, (_, j) in parent_idx.items()}

    geometry = []
    geometry_pos = {}
    for j in sorted(marked):
        if j in tree_edge_indices:
            mask = subtree[tree_edge_child[j]]
            members = tuple(k for k in range(gamma) if mask & (1 << k))
            internal, boundary = curve.subset_counts(mask)
            if not curve.mask_is_connected(mask):
                raise AssertionError("a far-side subcurve is disconnected")
            if mask != full and not curve.mask_is_connected(full ^ mask):
                raise AssertionError("a far-side complement is disconnected")
            geometry_pos[j] = len(geometry)
        else:
            mask = 0
            members = ()
            internal = boundary = 0
        geometry.append(
            AjGeometry(curve.edge_ids[j], mask, members, internal, boundary)
        )

    path_edges = []
    for v in range(gamma):
        path = []
        while v != base_idx:
            v, j = parent_idx[v]
            path.append(j)
        path_edges.append(tuple(path))

    ids = curve.vertex_ids
    eids = curve.edge_ids
    ps = PathSystem(
        curve=curve,
        base=base,
        marking=frozenset(eids[j] for j in marked),
        tree_edges=frozenset(eids[j] for j in tree_edge_indices),
        parent={
            ids[v]: (ids[p], eids[j]) for v, (p, j) in parent_idx.items()
        },
        depth={ids[v]: depth_idx[v] for v in range(gamma)},
        orientation={
            eids[j]: (ids[pred], ids[succ])
            for j, (pred, succ) in enumerate(orientation_idx)
        },
        aj_geometry=tuple(geometry),
        edge_plan=tuple(
            (pred, succ, geometry_pos.get(j, -1))
            for j, (pred, succ) in enumerate(orientation_idx)
        ),
        path_edges=tuple(path_edges),
    )
    _assert_suffix_closed(ps)
    cache[base] = ps
    return ps


def _assert_suffix_closed(ps: PathSystem) -> None:
    # Parent-pointer paths are suffix-closed by construction; the check
    # documents the property and guards future refactors.
    for vid in ps.curve.vertex_ids:
        path = ps.path_edge_ids(vid)
        if vid != ps.base:
            parent_path = ps.path_edge_ids(ps.parent[vid][0])
            if path[1:] != parent_path:
                raise AssertionError("tree paths are not suffix-closed")
        if len(path) != ps.depth[vid]:
            raise AssertionError("tree path length disagrees with depth")


@dataclass(frozen=True)
class AjEntry:
    """One marked edge's subcurve with its boundary size and defect."""

    edge_id: int
    subcurve: Subcurve | None
    boundary: int | None
    delta: Fraction | None


@dataclass(frozen=True)
class AjFamily:
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
    path system is built.
    """
    if ps.curve is not curve and ps.curve != curve:
        raise InvalidCurveError("path system belongs to a different curve")
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


def star2_conditions(fam: AjFamily) -> list[tuple[int, bool]]:
    """The two-sided defect window for each non-empty far-side subcurve.

    An entry is satisfied when
    ``(boundary - 1)/2 < delta(O_{A_j}) < (boundary + 1)/2``.
    """
    out = []
    for entry in fam.non_empty():
        lo = Fraction(entry.boundary - 1, 2)  # type: ignore[operator]
        hi = Fraction(entry.boundary + 1, 2)  # type: ignore[operator]
        out.append((entry.edge_id, lo < entry.delta < hi))
    return out


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
    for v, path in enumerate(ps.path_edges):
        total = 0
        for j in path:
            pred, succ, _ = plan[j]
            total += ranks[succ] - ranks[pred]
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
