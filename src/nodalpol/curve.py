"""Genus-decorated dual multigraphs of nodal curves with smooth components.

A reduced connected nodal curve whose irreducible components are smooth is
encoded by its dual multigraph: one vertex per component, decorated with the
component's genus, and one edge per node.  Loops are rejected at
construction, since a node on such a curve always joins two distinct
components.  Parallel edges are allowed: two components may meet in any
number of nodes.

Subcurves (unions of components) are stored as bitmasks over the vertex
positions, ordered by ascending vertex id.  Every quantity computed here is
a small integer, so all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidCurveError, UnsupportedCurveError

# Subcurves are bitmasks in a Python int.  Enumerating the connected
# subcurves costs time proportional to their number: polynomial on chains
# and cycles up to this bound, still exponential on dense curves and stars.
MAX_COMPONENTS = 62

# The balance check and rank-one stability still visit every subset of
# components.  They refuse a curve with more subsets than this (gamma > 18)
# with an UnsupportedCurveError, instead of running for minutes or hours.
MAX_SUBSET_MASKS = 1 << 18


class SubcurveStat(NamedTuple):
    """Precomputed data for one proper connected subcurve."""

    mask: int
    members: tuple[int, ...]  # vertex indices, ascending
    internal: int             # nodes with both branches in the subcurve
    boundary: int             # nodes joining the subcurve to its complement
    genus: int                # arithmetic genus of the subcurve


@dataclass(frozen=True)
class CurveClass:
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


class CurveGraph:
    """Connected loopless multigraph with a genus attached to each vertex.

    ``vertices`` is an iterable of ``(id, genus)`` pairs and ``edges`` an
    iterable of ``(id, (end_a, end_b))`` with vertex ids as endpoints.  Ids
    must be unique positive integers.  Instances are immutable after
    construction and safe to share.
    """

    __slots__ = (
        "vertex_ids",
        "genera",
        "edge_ids",
        "edge_ends",
        "_index_of_id",
        "_edge_index_pairs",
        "_adjacency_masks",
        "_vertex_degrees",
        "_connected_stats",
        "_path_systems",
        "_key",
    )

    def __init__(
        self,
        vertices: Iterable[tuple[int, int]],
        edges: Iterable[tuple[int, tuple[int, int]]],
    ) -> None:
        vlist = [(int(i), int(g)) for i, g in vertices]
        if not vlist:
            raise InvalidCurveError("a curve needs at least one component")
        vlist.sort()
        ids = [i for i, _ in vlist]
        if len(set(ids)) != len(ids):
            raise InvalidCurveError("duplicate vertex id")
        if ids[0] <= 0:
            raise InvalidCurveError(f"vertex ids must be positive, got {ids[0]}")
        if len(ids) > MAX_COMPONENTS:
            raise InvalidCurveError(
                f"at most {MAX_COMPONENTS} components are supported, got {len(ids)}"
            )
        for i, g in vlist:
            if g < 0:
                raise InvalidCurveError(f"vertex {i} has negative genus {g}")

        self.vertex_ids: tuple[int, ...] = tuple(ids)
        self.genera: tuple[int, ...] = tuple(g for _, g in vlist)
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

        self._connected_stats: tuple[SubcurveStat, ...] | None = None
        self._path_systems: dict[int, object] = {}
        self._key = (self.vertex_ids, self.genera, self.edge_ids, self.edge_ends)

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
    def gamma(self) -> int:
        """Number of irreducible components."""
        return len(self.vertex_ids)

    @property
    def delta(self) -> int:
        """Number of nodes."""
        return len(self.edge_ids)

    @property
    def arithmetic_genus(self) -> int:
        """Sum of component genera plus nodes minus components plus one."""
        return sum(self.genera) + self.delta - self.gamma + 1

    @property
    def euler_characteristic(self) -> int:
        """chi(O_C) = 1 - p_a(C)."""
        return 1 - self.arithmetic_genus

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

    def edge_index_of(self, edge_id: int) -> int:
        try:
            return self.edge_ids.index(edge_id)
        except ValueError:
            raise InvalidCurveError(f"unknown edge id {edge_id}") from None

    def edge_index_pairs(self) -> tuple[tuple[int, int], ...]:
        """Endpoints of each edge as ordered vertex-index pairs."""
        return self._edge_index_pairs

    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adjacency_masks

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
        if mask == 0:
            return False
        seed = mask & -mask
        reached = seed
        adj = self._adjacency_masks
        while True:
            grown = reached
            rest = reached
            while rest:
                low = rest & -rest
                grown |= adj[low.bit_length() - 1] & mask
                rest ^= low
            if grown == reached:
                return reached == mask
            reached = grown

    def connected_subcurve_stats(self) -> tuple[SubcurveStat, ...]:
        """Stats for every proper connected subcurve, ascending by bitmask.

        Connected vertex sets are grown, not filtered out of all 2^gamma
        masks.  Each set is reached exactly once, from its lowest vertex:
        a branch adds one frontier vertex and bans the frontier vertices
        its earlier siblings added.  Node counts and genus sums are
        carried forward as vertices join, so the cost is proportional to
        the number of connected subcurves: polynomial on chains and cycles,
        still exponential on dense curves and stars.

        Computed once per curve and reused by the stability and goodness
        checks; empty when the curve has a single component.
        """
        if self._connected_stats is None:
            gamma = self.gamma
            adj = self._adjacency_masks
            deg = self._vertex_degrees
            genera = self.genera
            # Edge multiplicities as layered masks: layer j of vertex u holds
            # the neighbours joined to u by more than j nodes, so the nodes
            # between u and a set S number sum(|layer & S|) over the layers.
            mult = [[0] * gamma for _ in range(gamma)]
            for ia, ib in self._edge_index_pairs:
                mult[ia][ib] += 1
                mult[ib][ia] += 1
            layers = [
                tuple(
                    sum(1 << w for w in range(gamma) if row[w] > j)
                    for j in range(max(row))
                )
                for row in mult
            ]
            # (mask, internal nodes, degree sum, genus sum) per connected set
            grown = []
            for v in range(gamma):
                low = 1 << v
                # (mask, neighbours of the mask, banned, internal, degrees,
                # genera); the banned set always covers the mask.
                stack = [(low, adj[v], (low << 1) - 1, 0, deg[v], genera[v])]
                while stack:
                    mask, reach, banned, internal, dsum, gsum = stack.pop()
                    grown.append((mask, internal, dsum, gsum))
                    frontier = reach & ~banned
                    while frontier:
                        bit = frontier & -frontier
                        frontier ^= bit
                        banned |= bit
                        u = bit.bit_length() - 1
                        joined = internal
                        for layer in layers[u]:
                            joined += (layer & mask).bit_count()
                        stack.append(
                            (
                                mask | bit,
                                reach | adj[u],
                                banned,
                                joined,
                                dsum + deg[u],
                                gsum + genera[u],
                            )
                        )
            grown.sort()
            grown.pop()  # the full mask, the largest of all
            stats = []
            for mask, internal, dsum, gsum in grown:
                members = tuple(k for k in range(gamma) if mask >> k & 1)
                stats.append(
                    SubcurveStat(
                        mask,
                        members,
                        internal,
                        dsum - 2 * internal,
                        gsum + internal - len(members) + 1,
                    )
                )
            self._connected_stats = tuple(stats)
        return self._connected_stats

    def proper_connected_subcurves(self) -> Iterator["Subcurve"]:
        """Every proper connected subcurve exactly once, ascending by mask."""
        for stat in self.connected_subcurve_stats():
            yield Subcurve(self, stat.mask)

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
        return tuple(
            k for k in range(self.owner.gamma) if self.mask & (1 << k)
        )

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
    def internal_node_count(self) -> int:
        """Nodes with both branches inside the subcurve."""
        return self.owner.subset_counts(self.mask)[0]

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
