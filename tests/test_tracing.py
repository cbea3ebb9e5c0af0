"""The benchmark's tracer looks up program names with ``getattr``; a
renamed or removed one would break ``bench/run.py --trace 1``."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from collections.abc import Sized
from pathlib import Path

from nodalpol import CurveGraph

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    traced = tracing.SPANS + tracing.GENERATORS
    for modname, attr, *_ in traced:
        module = importlib.import_module("nodalpol." + modname)
        assert callable(getattr(module, attr, None)), f"nodalpol.{modname}.{attr}"
    for modname, attr, *_ in tracing.GENERATORS:
        module = importlib.import_module("nodalpol." + modname)
        assert inspect.isgeneratorfunction(getattr(module, attr)), attr
    assert set(tracing.HOOKS) <= {attr for _, attr, *_ in traced}
    assert set(tracing.CALLS_KEYS) <= {attr for _, attr, *_ in traced}


def test_subcurve_stats_hooks():
    # The tracer counts len(stats) as subcurves: a 3-cycle has 6 proper
    # connected subcurves, a chain of 4 components has 9.
    assert "_connected_stats" in CurveGraph.__slots__
    cycle = CurveGraph.from_genera([1, 0, 2], [(1, 2), (2, 3), (1, 3)])
    chain = CurveGraph.from_genera([0, 1, 1, 0], [(1, 2), (2, 3), (3, 4)])
    for curve, count in ((cycle, 6), (chain, 9)):
        assert curve._connected_stats is None
        stats = curve.connected_subcurve_stats()
        assert isinstance(stats, Sized) and len(stats) == count
        assert curve._connected_stats is not None


def test_emit_signature():
    from nodalpol import search

    assert list(inspect.signature(search._emit).parameters) == ["sink", "digest", "text"]
