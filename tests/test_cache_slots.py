"""Caches on curves and dual graphs are reached only through ``memo``.

``curve.py`` declares the cache slots and :meth:`_Multigraph.memo`; every
other module stores derived work with ``memo`` and touches no slot, so
where a cache lives is decided in one place.
"""

from __future__ import annotations

import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nodalpol"
SLOTS = re.compile(r"\._(memo|proofs|path_systems|simple_graph|connected_stats)\b")


def test_no_cache_slot_outside_curve():
    touched = sorted(
        f"{path.name}: {match.group(0)}"
        for path in PACKAGE.glob("*.py")
        if path.name != "curve.py"
        for match in SLOTS.finditer(path.read_text(encoding="utf-8"))
    )
    assert touched == []


def test_memo_computes_once_per_object_and_key():
    from nodalpol import CurveGraph
    from nodalpol.sheafdata import kronecker_point

    calls = []

    def compute(owner, *args):
        calls.append((owner, args))
        return len(calls)

    curve = CurveGraph.from_genera([1, 0, 2], [(1, 2), (2, 3), (1, 3)])
    twin = CurveGraph.from_genera([1, 0, 2], [(1, 2), (2, 3), (1, 3)])
    assert [curve.memo("k", compute, 7) for _ in range(3)] == [1, 1, 1]
    assert curve.memo(("k", 2), compute) == 2
    assert curve.graph.memo("k", compute) == 3
    assert twin == curve and twin.memo("k", compute, 7) == 4
    assert calls == [(curve, (7,)), (curve, ()), (curve.graph, ()), (twin, (7,))]
    assert kronecker_point(curve) is kronecker_point(curve)
    assert kronecker_point(twin) is not kronecker_point(curve)
    assert kronecker_point(twin) == kronecker_point(curve)
