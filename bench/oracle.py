"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ``nodalpol``.  Curves are plain ``(genera, edges)``
pairs with vertices ``1..n`` and edges as ``(a, b)`` pairs with ``a < b``;
polarizations are tuples of ``Fraction``.  Stability follows the paper's
definition directly: with ``lambda_i = 1 - g_i - w_i * chi(O_C)`` and
``delta(B) = sum(lambda_i, i in B) - N(B)``, O_C is w-stable when
``0 < delta(B) < delta_B`` for every proper connected subcurve B, where
``N(B)`` counts the nodes inside B and ``delta_B`` those on its boundary.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations, product
from math import gcd


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a - 1].add(b - 1)
        adj[b - 1].add(a - 1)
    return adj


def is_connected(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    seen = {0}
    todo = [0]
    while todo:
        for u in adj[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == n


def connected_subsets(n: int, edges) -> list[tuple[frozenset[int], int, int]]:
    """``(members, N(B), delta_B)`` for every proper connected subcurve.

    Grown from single components by adding one neighbour at a time, so
    the work is proportional to the number of connected subsets rather
    than to ``2**n``.
    """
    adj = adjacency(n, edges)
    seen: set[frozenset[int]] = set()
    layer = [frozenset([v]) for v in range(n)]
    seen.update(layer)
    while layer:
        grown = []
        for s in layer:
            for v in s:
                for u in adj[v]:
                    if u not in s:
                        t = s | {u}
                        if t not in seen:
                            seen.add(t)
                            grown.append(t)
        layer = grown
    out = []
    for s in seen:
        if len(s) == n:
            continue
        inside = boundary = 0
        for a, b in edges:
            ina, inb = (a - 1) in s, (b - 1) in s
            if ina and inb:
                inside += 1
            elif ina or inb:
                boundary += 1
        out.append((s, inside, boundary))
    return out


def arithmetic_genus(genera, edges) -> int:
    return sum(genera) + len(edges) - len(genera) + 1


def lambdas(genera, edges, weights) -> tuple[Fraction, ...]:
    chi = 1 - arithmetic_genus(genera, edges)
    return tuple(1 - g - w * chi for g, w in zip(genera, weights))


def oc_stability(genera, edges, weights, subsets=None) -> tuple[bool, bool]:
    """``(stable, semistable)`` of O_C for the polarization ``weights``."""
    lam = lambdas(genera, edges, weights)
    if subsets is None:
        subsets = connected_subsets(len(genera), edges)
    stable = semistable = True
    for members, inside, boundary in subsets:
        d = sum(lam[k] for k in members) - inside
        if not 0 < d < boundary:
            stable = False
            if not 0 <= d <= boundary:
                semistable = False
                break
    return stable, semistable


def curve_is_stable(genera, edges) -> bool:
    """Stable curve: arithmetic genus >= 2 and rational components meet
    the rest in at least three nodes."""
    deg = [0] * len(genera)
    for a, b in edges:
        deg[a - 1] += 1
        deg[b - 1] += 1
    return arithmetic_genus(genera, edges) >= 2 and all(
        d >= 3 for g, d in zip(genera, deg) if g == 0
    )


def canonical_weights(genera, edges) -> tuple[Fraction, ...]:
    """Weights of the dualizing sheaf: (2g_i - 2 + deg_i) / (2p_a - 2)."""
    deg = [0] * len(genera)
    for a, b in edges:
        deg[a - 1] += 1
        deg[b - 1] += 1
    pa = arithmetic_genus(genera, edges)
    return tuple(Fraction(2 * g - 2 + d, 2 * pa - 2) for g, d in zip(genera, deg))


def defect(lam, ranks, stalk_free) -> Fraction:
    """Defect of a depth-one datum: sum(r_i lambda_i) - sum(s_j)."""
    return sum((r * x for r, x in zip(ranks, lam)), Fraction(0)) - sum(stalk_free)


def locally_free(edges, ranks, stalk_free) -> bool:
    if any(r == 0 for r in ranks):
        return False
    return all(
        ranks[a - 1] == s and ranks[b - 1] == s for (a, b), s in zip(edges, stalk_free)
    )


def grid_size(gamma: int, denominator_bound: int) -> int:
    """Polarizations with common denominator at most the bound: positive
    compositions of q <= bound into ``gamma`` parts whose gcd is one."""
    count = 0
    for q in range(gamma, denominator_bound + 1):
        for cut in combinations(range(1, q), gamma - 1):
            parts = [b - a for a, b in zip((0,) + cut, cut + (q,))]
            g = 0
            for p in parts:
                g = gcd(g, p)
            count += g == 1
    return count


def curve_hash(genera, edges) -> str:
    """First 12 hex digits of the SHA-256 of the curve's canonical JSON
    (sorted keys, two-space indent, trailing newline; vertex and edge ids
    numbered from one in order)."""
    obj = {
        "vertices": [{"id": k + 1, "genus": g} for k, g in enumerate(genera)],
        "edges": [{"id": j + 1, "ends": [a, b]} for j, (a, b) in enumerate(edges)],
    }
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def corpus(max_vertices: int, max_edges: int, max_genus: int):
    """Every labelled connected loopless decorated multigraph in the bounds.

    Returns ``(by_hash, classes)``: ``by_hash`` maps the curve hash of each
    labelled object to ``(genera, edges, class_id)``; ``classes`` is the
    number of isomorphism classes.  Classes are orbits under relabelling,
    found by union-find over the images under a transposition and an
    n-cycle, which generate the symmetric group.
    """
    by_hash: dict[str, tuple] = {}
    classes = 0
    for n in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        index: dict[tuple, int] = {}
        objects: list[tuple] = []
        for total in range(n - 1, max_edges + 1 if n > 1 else 1):
            for mult in _weak_compositions(total, len(pairs)):
                edges = [
                    (i + 1, j + 1)
                    for (i, j), m in zip(pairs, mult)
                    for _ in range(m)
                ]
                if not is_connected(n, edges):
                    continue
                for genera in product(range(max_genus + 1), repeat=n):
                    key = (tuple(mult), genera)
                    index[key] = len(objects)
                    objects.append((genera, edges, key))
        parent = list(range(len(objects)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        pair_pos = {p: k for k, p in enumerate(pairs)}
        perms = [tuple(range(n))]
        if n >= 2:
            perms = [(1, 0) + tuple(range(2, n)), tuple((k + 1) % n for k in range(n))]
        for pos, (genera, _, (mult, _)) in enumerate(objects):
            for perm in perms:
                image_mult = [0] * len(pairs)
                for (i, j), m in zip(pairs, mult):
                    a, b = perm[i], perm[j]
                    image_mult[pair_pos[(a, b) if a < b else (b, a)]] = m
                image_genera = [0] * n
                for k, g in enumerate(genera):
                    image_genera[perm[k]] = g
                other = index[(tuple(image_mult), tuple(image_genera))]
                ra, rb = find(pos), find(other)
                if ra != rb:
                    parent[ra] = rb
        roots: dict[int, int] = {}
        for pos, (genera, edges, _) in enumerate(objects):
            root = find(pos)
            if root not in roots:
                roots[root] = classes + len(roots)
            by_hash[curve_hash(genera, edges)] = (genera, edges, roots[root])
        classes += len(roots)
    return by_hash, classes


def _weak_compositions(total: int, parts: int):
    """Tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    bars = total + parts - 1
    for cut in combinations(range(bars), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + cut, cut + (bars,)))
