"""Genus-decorated dual multigraphs of nodal curves with smooth components.

A reduced connected nodal curve whose irreducible components are smooth is
encoded by its dual multigraph: one vertex per component, decorated with the
component's genus, and one edge per node.  Loops are rejected at
construction, since a node on such a curve always joins two distinct
components.  Parallel edges are allowed: two components may meet in any
number of nodes.

The genus-free part of a curve is a :class:`DualGraph`: ids, edge ends,
index pairs, adjacency masks and degrees.  A :class:`CurveGraph` is a dual
graph decorated with a genus vector (:meth:`DualGraph.decorate`); every
decoration of one graph object shares that object, its index data and the
genus-free columns of its connected subcurves (``"subcurve skeleton"``).
Graphs are shared only by construction: two curves built separately from
the same ids and edges get two graphs.  Work derived from a graph or a
curve is kept on that object by :meth:`_Multigraph.memo`; no other module
touches a cache slot.

Subcurves (unions of components) are stored as bitmasks over the vertex
positions, ordered by ascending vertex id.  Every quantity computed here is
a small integer, so all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import InvalidCurveError, UnsupportedCurveError

# Subcurves are bitmasks in a Python int.  Enumerating the connected
# subcurves costs time proportional to their number: polynomial on chains
# and cycles up to this bound, still exponential on dense curves and stars.
MAX_COMPONENTS = 62

# The balance check and rank-one stability visit every subset of components,
# the other scans every connected one.  A curve with more of them than this
# is refused with an UnsupportedCurveError, instead of running for minutes
# or hours, so every curve with at most 18 components answers.
MAX_SUBSET_MASKS = 1 << 18


def mask_members(mask: int) -> tuple[int, ...]:
    """The vertex indices in a bitmask, ascending, one step per set bit."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def lowest_component(adjacency: Sequence[int], mask: int) -> int:
    """The vertices of ``mask`` joined to its lowest vertex by paths inside
    ``mask`` (0 for the empty mask).

    ``adjacency[v]`` is the neighbour mask of vertex v.  Each step expands
    only the vertices first reached in the step before, so every
    adjacency mask is read at most once.
    """
    reached = frontier = mask & -mask
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & mask & ~reached
        reached |= frontier
    return reached


class SubcurveColumns:
    """Integer columns over the proper connected subcurves of a curve,
    ascending by bitmask; ``len`` is the number of entries.

    ``masks`` holds the vertex bitmasks, ``internal`` the nodes with both
    branches in the subcurve, ``boundary`` the nodes joining it to its
    complement and ``genus`` its arithmetic genus.  ``parents`` and
    ``vertices`` record the growth tree: entry i is entry ``parents[i]``
    plus the component ``vertices[i]`` (``parents[i] == -1`` for a single
    component).  A parent is connected and comes earlier, since its mask
    is a proper subset.  Every column but ``genus`` is genus-free and
    shared by the decorations of one :class:`DualGraph`.
    """

    __slots__ = ("masks", "parents", "vertices", "internal", "boundary", "genus")

    def __init__(self, skeleton: tuple, genus: tuple[int, ...]) -> None:
        self.masks, self.parents, self.vertices, self.internal, self.boundary = skeleton
        self.genus = genus

    def __len__(self) -> int:
        return len(self.masks)


class CurveClass(NamedTuple):
    """Classification flags of a nodal curve.

    ``stable``/``semistable``/``quasistable`` refer to the curve itself
    (genus-0 components meeting the rest in at least 3/2 nodes, with
    arithmetic genus at least 2), not to sheaf stability.
    """

    compact_type: bool
    stable: bool
    semistable: bool
    quasistable: bool
    cycle_of_rationals: bool


class _Multigraph:
    """Genus-free queries, shared by :class:`DualGraph` and
    :class:`CurveGraph`, which holds its graph's index data.

    Each object's one cache is its :meth:`memo`.  A graph keeps
    ``"simple graph"`` and ``("path system", base id)`` (``pathsys``) and
    ``"subcurve skeleton"`` (:meth:`CurveGraph.connected_subcurve_stats`),
    so every decoration shares one path system per base and one set of
    genus-free subcurve columns.  A curve keeps its
    self-check proofs: ``"point"`` (``sheafdata.kronecker_point``),
    ``("residual",)``, ``("path", base id)`` and ``("restrict", mask)``
    (``search``), and ``("witness", mask)`` (``goodness``).
    """

    __slots__ = (
        "vertex_ids",
        "edge_ids",
        "edge_ends",
        "_index_of_id",
        "_edge_index_pairs",
        "_adjacency_masks",
        "_vertex_degrees",
        "_memo",
        "_key",
    )

    def memo(self, key: object, compute: Callable[..., Any], *args: object) -> Any:
        """``compute(self, *args)``, computed on first use and kept on this
        object under ``key`` for as long as the object lives."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute(self, *args)
        return memo[key]

    @property
    def gamma(self) -> int:
        """Number of irreducible components."""
        return len(self.vertex_ids)

    @property
    def delta(self) -> int:
        """Number of nodes."""
        return len(self.edge_ids)

    @property
    def first_betti(self) -> int:
        """First Betti number of the dual graph; zero exactly for trees."""
        return self.delta - self.gamma + 1

    @property
    def vertex_degrees(self) -> tuple[int, ...]:
        """Number of nodes on each component, in vertex-id order."""
        return self._vertex_degrees

    @property
    def full_mask(self) -> int:
        return (1 << self.gamma) - 1

    def index_of(self, vertex_id: int) -> int:
        try:
            return self._index_of_id[vertex_id]
        except KeyError:
            raise InvalidCurveError(f"unknown vertex id {vertex_id}") from None

    def edge_index_pairs(self) -> tuple[tuple[int, int], ...]:
        """Endpoints of each edge as ordered vertex-index pairs."""
        return self._edge_index_pairs

    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adjacency_masks

    def subset_counts(self, mask: int) -> tuple[int, int]:
        """(internal node count, boundary node count) of a vertex subset."""
        internal = boundary = 0
        for ia, ib in self._edge_index_pairs:
            a_in = bool(mask & (1 << ia))
            b_in = bool(mask & (1 << ib))
            if a_in and b_in:
                internal += 1
            elif a_in or b_in:
                boundary += 1
        return internal, boundary

    def mask_is_connected(self, mask: int) -> bool:
        """Whether the induced subgraph on the masked vertices is connected."""
        return mask != 0 and lowest_component(self._adjacency_masks, mask) == mask


class DualGraph(_Multigraph):
    """Connected loopless multigraph: the genus-free part of a curve.

    ``vertex_ids`` is an iterable of vertex ids and ``edges`` an iterable
    of ``(id, (end_a, end_b))`` with vertex ids as endpoints.  Ids must be
    unique positive integers.  Nothing here reads a genus, so one instance
    serves every genus decoration of the graph (:meth:`decorate`).
    Instances are immutable after construction and safe to share; they
    compare by ids and edge ends.
    """

    __slots__ = ()

    def __init__(
        self,
        vertex_ids: Iterable[int],
        edges: Iterable[tuple[int, tuple[int, int]]],
    ) -> None:
        ids = sorted(int(i) for i in vertex_ids)
        if not ids:
            raise InvalidCurveError("a curve needs at least one component")
        if len(set(ids)) != len(ids):
            raise InvalidCurveError("duplicate vertex id")
        if ids[0] <= 0:
            raise InvalidCurveError(f"vertex ids must be positive, got {ids[0]}")
        if len(ids) > MAX_COMPONENTS:
            raise InvalidCurveError(
                f"at most {MAX_COMPONENTS} components are supported, got {len(ids)}"
            )
        self.vertex_ids: tuple[int, ...] = tuple(ids)
        self._index_of_id = {vid: k for k, vid in enumerate(self.vertex_ids)}

        elist = []
        for eid, ends in edges:
            eid = int(eid)
            a, b = (int(x) for x in ends)
            if a == b:
                raise InvalidCurveError(
                    f"edge {eid} is a loop on vertex {a}; components are smooth, "
                    "so every node joins two distinct components"
                )
            if a not in self._index_of_id or b not in self._index_of_id:
                raise InvalidCurveError(f"edge {eid} references an unknown vertex")
            elist.append((eid, (a, b) if a < b else (b, a)))
        elist.sort()
        eids = [e for e, _ in elist]
        if len(set(eids)) != len(eids):
            raise InvalidCurveError("duplicate edge id")
        if eids and eids[0] <= 0:
            raise InvalidCurveError(f"edge ids must be positive, got {eids[0]}")

        self.edge_ids: tuple[int, ...] = tuple(eids)
        self.edge_ends: tuple[tuple[int, int], ...] = tuple(ends for _, ends in elist)
        pairs = []
        for a, b in self.edge_ends:
            ia, ib = self._index_of_id[a], self._index_of_id[b]
            pairs.append((ia, ib) if ia < ib else (ib, ia))
        self._edge_index_pairs: tuple[tuple[int, int], ...] = tuple(pairs)

        adj = [0] * self.gamma
        deg = [0] * self.gamma
        for ia, ib in self._edge_index_pairs:
            adj[ia] |= 1 << ib
            adj[ib] |= 1 << ia
            deg[ia] += 1
            deg[ib] += 1
        self._adjacency_masks: tuple[int, ...] = tuple(adj)
        self._vertex_degrees: tuple[int, ...] = tuple(deg)

        if not self.mask_is_connected(self.full_mask):
            raise InvalidCurveError("the dual graph must be connected")

        self._memo: dict[object, object] = {}
        self._key = (self.vertex_ids, self.edge_ids, self.edge_ends)

    def decorate(self, genera: Iterable[int]) -> "CurveGraph":
        """The curve with this dual graph and ``genera`` in vertex-id order.

        The curve shares this object and its index data; only the genera
        and the per-curve caches are new.
        """
        curve = CurveGraph.__new__(CurveGraph)
        curve._decorate(self, genera)
        return curve

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DualGraph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


def _grow_subcurves(graph: DualGraph) -> tuple[tuple, tuple[int, ...]]:
    """The genus-free columns of :class:`SubcurveColumns` for ``graph``, and
    a column of the nodes joining each vertex to its parent, less one.

    Connected vertex sets are grown, not filtered out of all 2^gamma
    masks.  Each set is reached exactly once, from its lowest vertex: a
    branch adds one frontier vertex and bans the frontier vertices its
    earlier siblings added.  Node counts are carried forward as vertices
    join, so the cost is proportional to the number of connected
    subcurves: polynomial on chains and cycles, still exponential on dense
    curves and stars.
    """
    gamma = graph.gamma
    adj = graph._adjacency_masks
    deg = graph._vertex_degrees
    # Edge multiplicities as layered masks: layer j of vertex u holds the
    # neighbours joined to u by more than j nodes, so the nodes between u
    # and a set S number sum(|layer & S|) over the layers.  Each node sets
    # its far end in the first layer of each end that lacks it.
    layers: list[list[int]] = [[] for _ in range(gamma)]
    for ia, ib in graph._edge_index_pairs:
        for u, w in ((ia, ib), (ib, ia)):
            row = layers[u]
            bit = 1 << w
            for j, layer in enumerate(row):
                if not layer & bit:
                    row[j] = layer | bit
                    break
            else:
                row.append(bit)
    # Per connected set: its mask, its growth index, its parent's (-1 for a
    # single vertex), the vertex added, internal nodes, boundary nodes, and
    # the nodes joining the vertex to the parent minus one.
    grown = []
    for v in range(gamma):
        low = 1 << v
        # (mask, neighbours of the mask, banned, parent, vertex added,
        # internal, degree sum, joining nodes - 1); the banned set always
        # covers the mask.  An entry's last child is grown in place: it
        # would be the next one popped.
        stack = [(low, adj[v], (low << 1) - 1, -1, v, 0, deg[v], -1)]
        while stack:
            mask, reach, banned, parent, added, internal, dsum, step = stack.pop()
            while True:
                here = len(grown)
                if here == MAX_SUBSET_MASKS:
                    raise UnsupportedCurveError(
                        f"more than {MAX_SUBSET_MASKS} connected subcurves"
                    )
                grown.append(
                    (mask, here, parent, added, internal, dsum - 2 * internal, step)
                )
                frontier = reach & ~banned
                if not frontier:
                    break
                banned |= frontier
                # Every child bans the frontier vertices below its own, so
                # the last (highest) one bans the whole frontier.
                while True:
                    bit = frontier & -frontier
                    frontier ^= bit
                    u = bit.bit_length() - 1
                    joined = 0
                    for layer in layers[u]:
                        joined += (layer & mask).bit_count()
                    if not frontier:
                        break
                    stack.append(
                        (
                            mask | bit,
                            reach | adj[u],
                            banned ^ frontier,
                            here,
                            u,
                            internal + joined,
                            dsum + deg[u],
                            joined - 1,
                        )
                    )
                mask |= bit
                reach |= adj[u]
                parent = here
                added = u
                internal += joined
                dsum += deg[u]
                step = joined - 1
    grown.sort(key=itemgetter(0))  # masks are distinct
    grown.pop()  # the full mask, the largest of all
    columns = tuple(zip(*grown)) or ((),) * 7  # a single component has none
    masks, heres, parents, vertices, internal, boundary, steps = columns
    # Position in mask order per growth index; the extra last slot maps a
    # parent of -1 to -1.  The full mask is nobody's parent.
    position = [-1] * (len(grown) + 2)
    for pos, here in enumerate(heres):
        position[here] = pos
    parents = tuple(map(position.__getitem__, parents))
    return (masks, parents, vertices, internal, boundary), steps


class CurveGraph(_Multigraph):
    """Connected loopless multigraph with a genus attached to each vertex.

    ``vertices`` is an iterable of ``(id, genus)`` pairs and ``edges`` an
    iterable of ``(id, (end_a, end_b))`` with vertex ids as endpoints.  Ids
    must be unique positive integers.  ``graph`` is the curve's
    :class:`DualGraph`; the ids, edge ends and index data are that
    object's.  Instances are immutable after construction and safe to
    share.
    """

    __slots__ = ("graph", "genera", "_connected_stats")

    def __init__(
        self,
        vertices: Iterable[tuple[int, int]],
        edges: Iterable[tuple[int, tuple[int, int]]],
    ) -> None:
        # The ids are checked once, by the dual graph; the genera follow
        # them in id order.
        vlist = sorted(((int(i), g) for i, g in vertices), key=itemgetter(0))
        self._decorate(DualGraph([i for i, _ in vlist], edges), [g for _, g in vlist])

    def _decorate(self, graph: DualGraph, genera: Iterable[int]) -> None:
        """Make this object the curve with ``graph`` and ``genera`` in
        vertex-id order, checking the genera."""
        genera = tuple(int(g) for g in genera)
        if len(genera) != graph.gamma:
            raise InvalidCurveError(
                f"{len(genera)} genera for {graph.gamma} components"
            )
        for vid, g in zip(graph.vertex_ids, genera):
            if g < 0:
                raise InvalidCurveError(f"vertex {vid} has negative genus {g}")
        self.graph = graph
        self.genera: tuple[int, ...] = genera
        self.vertex_ids = graph.vertex_ids
        self.edge_ids = graph.edge_ids
        self.edge_ends = graph.edge_ends
        self._index_of_id = graph._index_of_id
        self._edge_index_pairs = graph._edge_index_pairs
        self._adjacency_masks = graph._adjacency_masks
        self._vertex_degrees = graph._vertex_degrees
        self._connected_stats: SubcurveColumns | None = None
        self._memo: dict[object, object] = {}
        self._key = (self.vertex_ids, genera, self.edge_ids, self.edge_ends)

    @classmethod
    def from_genera(
        cls, genera: Iterable[int], edges: Iterable[tuple[int, int]] = ()
    ) -> "CurveGraph":
        """Build a curve with vertex ids 1..n and edge ids 1..m."""
        vs = [(i + 1, g) for i, g in enumerate(genera)]
        es = [(j + 1, (a, b)) for j, (a, b) in enumerate(edges)]
        return cls(vs, es)

    # -- basic invariants ------------------------------------------------

    @property
    def arithmetic_genus(self) -> int:
        """Sum of component genera plus nodes minus components plus one."""
        return sum(self.genera) + self.delta - self.gamma + 1

    @property
    def euler_characteristic(self) -> int:
        """chi(O_C) = 1 - p_a(C)."""
        return 1 - self.arithmetic_genus

    # -- subcurves -------------------------------------------------------

    def subcurve(self, member_ids: Iterable[int]) -> "Subcurve":
        mask = 0
        for vid in member_ids:
            mask |= 1 << self.index_of(vid)
        return Subcurve(self, mask)

    def subcurve_from_mask(self, mask: int) -> "Subcurve":
        return Subcurve(self, mask)

    def proper_masks(self, scan: str) -> range:
        """Every proper non-empty subset mask, for a ``scan`` that visits
        them all; refused beyond ``MAX_SUBSET_MASKS`` subsets."""
        if 1 << self.gamma > MAX_SUBSET_MASKS:
            raise UnsupportedCurveError(
                f"{scan} visits all 2^{self.gamma} subsets of components, "
                f"more than the limit of {MAX_SUBSET_MASKS}"
            )
        return range(1, self.full_mask)

    def connected_subcurve_stats(self) -> SubcurveColumns:
        """The :class:`SubcurveColumns` of every proper connected subcurve.

        The genus-free columns are grown once per dual graph, kept in its
        memo under ``"subcurve skeleton"`` and shared by its decorations;
        each curve derives its genus column along the growth tree with one
        addition per entry.  Empty for a single component; refused once
        more than ``MAX_SUBSET_MASKS`` subcurves are grown.
        """
        if self._connected_stats is None:
            skeleton, steps = self.graph.memo("subcurve skeleton", _grow_subcurves)
            genera = self.genera
            # Adding a component v met in j nodes adds g_v + j - 1 to the
            # arithmetic genus, starting from p_a = 1 for the empty curve.
            genus = [1]
            for parent, vertex, step in zip(skeleton[1], skeleton[2], steps):
                genus.append(genus[parent + 1] + genera[vertex] + step)
            self._connected_stats = SubcurveColumns(skeleton, tuple(genus[1:]))
        return self._connected_stats

    # -- classification --------------------------------------------------

    def classify(self) -> CurveClass:
        pa = self.arithmetic_genus
        deg = self._vertex_degrees
        rational = [k for k in range(self.gamma) if self.genera[k] == 0]
        stable = pa >= 2 and all(deg[k] >= 3 for k in rational)
        semistable = pa >= 2 and all(deg[k] >= 2 for k in rational)
        exceptional = frozenset(k for k in rational if deg[k] == 2)
        quasistable = semistable and not any(
            ia in exceptional and ib in exceptional
            for ia, ib in self._edge_index_pairs
        )
        cycle = (
            self.gamma >= 2
            and len(rational) == self.gamma
            and all(d == 2 for d in deg)
        )
        return CurveClass(
            compact_type=self.first_betti == 0,
            stable=stable,
            semistable=semistable,
            quasistable=quasistable,
            cycle_of_rationals=cycle,
        )

    def exceptional_components(self) -> tuple[int, ...]:
        """Vertex indices of genus-0 components meeting the rest in 2 nodes."""
        return tuple(
            k
            for k in range(self.gamma)
            if self.genera[k] == 0 and self._vertex_degrees[k] == 2
        )

    # -- export ----------------------------------------------------------

    def to_dot(self) -> str:
        """Deterministic DOT rendering with component and node labels."""
        lines = ["graph nodal_curve {"]
        for vid, g in zip(self.vertex_ids, self.genera):
            lines.append(f'  v{vid} [label="C_{vid} (g={g})"];')
        for eid, (a, b) in zip(self.edge_ids, self.edge_ends):
            u, v = (a, b) if a <= b else (b, a)
            lines.append(f'  v{u} -- v{v} [label="p_{eid}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurveGraph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (
            f"CurveGraph(gamma={self.gamma}, delta={self.delta}, "
            f"genera={self.genera})"
        )


@dataclass(frozen=True)
class Subcurve:
    """A non-empty union of components of a curve, as a vertex bitmask."""

    owner: CurveGraph
    mask: int

    def __post_init__(self) -> None:
        if self.mask == 0:
            raise InvalidCurveError("a subcurve must contain a component")
        if self.mask & ~self.owner.full_mask:
            raise InvalidCurveError("subcurve mask exceeds the vertex set")

    @property
    def member_indices(self) -> tuple[int, ...]:
        return mask_members(self.mask)

    @property
    def member_ids(self) -> tuple[int, ...]:
        return tuple(self.owner.vertex_ids[k] for k in self.member_indices)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_proper(self) -> bool:
        return self.mask != self.owner.full_mask

    @property
    def is_connected(self) -> bool:
        return self.owner.mask_is_connected(self.mask)

    @property
    def boundary_size(self) -> int:
        """Nodes joining the subcurve to its complement."""
        return self.owner.subset_counts(self.mask)[1]

    @property
    def arithmetic_genus(self) -> int:
        """1 - chi(O_B), which for connected B is the usual genus formula.

        The expression ``sum(genus) + internal - size + 1`` is additive in the
        right way over connected pieces, so it is valid for disconnected
        subcurves as well.
        """
        internal, _ = self.owner.subset_counts(self.mask)
        return (
            sum(self.owner.genera[k] for k in self.member_indices)
            + internal
            - self.size
            + 1
        )

    @property
    def euler_characteristic(self) -> int:
        return 1 - self.arithmetic_genus

    def complement(self) -> "Subcurve":
        if not self.is_proper:
            raise InvalidCurveError("the full curve has no complementary curve")
        return Subcurve(self.owner, self.owner.full_mask ^ self.mask)

    def __repr__(self) -> str:
        return f"Subcurve(members={self.member_ids})"
