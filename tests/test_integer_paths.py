"""The cold parts of an ``analyze`` call stay on integers.

Building a path system counts every far side's nodes in one walk over
the edges, without ``subset_counts``; loading a polarization parses its
weights to integers and makes no ``Fraction``.  Counting spies catch a
fall back to either.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from nodalpol.curve import _Multigraph
from nodalpol.jsonio import load_curve, load_polarization
from nodalpol.pathsys import build_path_system

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CURVES = sorted(p for p in FIXTURES.glob("*.json") if not p.name.startswith("w_"))
POLARIZATIONS = sorted(
    p for p in FIXTURES.glob("w_*.json") if p.name != "w_malformed.json"
)


def test_path_system_build_calls_no_subset_counts(monkeypatch):
    calls = []
    subset_counts = _Multigraph.subset_counts

    def counted(graph, mask):
        calls.append(mask)
        return subset_counts(graph, mask)

    monkeypatch.setattr(_Multigraph, "subset_counts", counted)
    built = 0
    for path in CURVES:
        curve = load_curve(path)
        for base in curve.vertex_ids:
            built += len(build_path_system(curve, base).aj_geometry)
    assert built > 0 and calls == []
    curve.subset_counts(1)
    assert calls == [1]  # the spy sees a call


@pytest.mark.parametrize("path", POLARIZATIONS, ids=lambda p: p.name)
def test_load_polarization_makes_no_fraction(monkeypatch, path):
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    w = load_polarization(path)
    assert made == []
    assert sum(w.weights) == 1 and made  # the spy sees the weights made
