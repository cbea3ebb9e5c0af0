"""Spans and counts recorded around the calls into each ``nodalpol`` layer.

The program is not edited: a :class:`Tracer` replaces each traced function
by a wrapper at every place a module looks it up (``from .x import f``
binds ``f`` in the importing module, so every module's binding is
swapped), and puts the originals back on :meth:`Tracer.uninstall`.
Generators get one span per ``next()``, so the consumer's work between
items is not charged to them.

A span is ``(name, start, end, parent span, instance)``; spans are kept in
flat arrays and written out once the run ends.  A layer's self time is its
spans' durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# (defining module, attribute, span name).  Several attributes may share a
# span name; the span then covers all of them.
SPANS = (
    ("stability", "oc_stability", "stability.oc_stability"),
    ("goodness", "_scan_rank_vectors", "goodness.decide.scan"),
    ("goodness", "_witness_from_failing_subcurve", "goodness.decide.witness"),
    ("goodness", "_check_witness", "goodness.decide.witness"),
    ("goodness", "sufficient_check", "goodness.sufficient_check"),
    ("goodness", "conjecture_probe", "goodness.conjecture_probe"),
    ("polarization", "lambda_vector", "polarization.lambda"),
    ("polarization", "scaled_lambda", "polarization.lambda"),
    ("polarization", "delta_structure", "polarization.delta_structure"),
    ("pathsys", "build_path_system", "pathsys.build_path_system"),
    ("pathsys", "aj_family", "pathsys.aj_family"),
    ("pathsys", "delta_decomposed", "pathsys.delta_decomposed"),
    ("pathsys", "verify_path_identities", "pathsys.verify_path_identities"),
    ("sheafdata", "validate_datum", "sheafdata.validate_datum"),
    ("sheafdata", "delta_general", "sheafdata.delta_general"),
    ("sheafdata", "delta_residual", "sheafdata.delta_residual"),
    ("sheafdata", "restrict", "sheafdata.restrict"),
    ("search", "identity_failures", "search.identity_failures"),
    ("search", "_emit", "search.csv"),
    ("search", "run_campaign", "search.run_campaign"),
    ("jsonio", "load_curve", "jsonio.load"),
    ("jsonio", "load_polarization", "jsonio.load"),
    ("jsonio", "canonical_dumps", "jsonio.canonical_dumps"),
    ("cli", "_cmd_analyze", "cli.analyze"),
)

# Generator functions: (defining module, attribute, span name, item count).
GENERATORS = (
    ("search", "enumerate_curves", "search.enumerate_curves", "curves"),
    ("search", "sample_polarizations", "search.sample_polarizations", "polarizations"),
    (
        "polarization",
        "enumerate_weight_grid",
        "polarization.enumerate_weight_grid",
        "polarizations",
    ),
)

# Extra counts taken around some calls: attribute -> (before(tracer, args),
# after(tracer, result)).  ``conjecture_probe`` starts a new instance.


def _next_instance(tracer, args) -> None:
    tracer.instance += 1


def _lambda_pair(tracer, args) -> None:
    curve, w = args
    tracer._lambda_pairs.add((curve._key, w))


def _csv_bytes(tracer, args) -> None:
    tracer.counts["search.csv.bytes"] += len(args[2].encode("utf-8"))


def _certified(tracer, base) -> None:
    tracer.counts["goodness.sufficient_check.certified"] += base is not None


HOOKS = {
    "conjecture_probe": (_next_instance, None),
    "lambda_vector": (_lambda_pair, None),
    "scaled_lambda": (_lambda_pair, None),
    "_emit": (_csv_bytes, None),
    "sufficient_check": (None, _certified),
}
# Calls are counted as ``<span>.calls`` unless named here.
CALLS_KEYS = {"_witness_from_failing_subcurve": "goodness.decide.witness.built"}

STATS_SPAN = "curve.connected_subcurve_stats"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance_of = array("q")
        self._stack: list[int] = []
        self.instance = -1
        self.counts: Counter[str] = Counter()
        self._lambda_pairs: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance_of.append(self.instance)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def end_round(self) -> None:
        """Close the distinct (curve, polarization) count of one round."""
        self.counts["polarization.lambda.distinct"] += len(self._lambda_pairs)
        self._lambda_pairs.clear()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, attr: str, name: str):
        name_id = self._name_id(name)
        tracer = self
        counts = self.counts
        calls_key = CALLS_KEYS.get(attr, name + ".calls")
        before, after = HOOKS.get(attr, (None, None))

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if before is not None:
                before(tracer, args)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str, item: str):
        name_id = self._name_id(name)
        tracer = self
        counts = self.counts
        item_key = f"{name}.{item}"

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name_id)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                counts[item_key] += 1
                yield value

        return wrapper

    def _wrap_stats(self, method):
        name_id = self._name_id(STATS_SPAN)
        tracer = self
        counts = self.counts

        def connected_subcurve_stats(curve):
            cold = curve._connected_stats is None
            idx = tracer._open(name_id)
            try:
                stats = method(curve)
            finally:
                tracer._close(idx)
            if cold:
                counts[STATS_SPAN + ".cold_calls"] += 1
                counts[STATS_SPAN + ".subcurves"] += len(stats)
            return stats

        return connected_subcurve_stats

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Swap every binding of the traced functions for its wrapper."""
        modules = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == "nodalpol" or key.startswith("nodalpol."))
        ]
        replacements = {}
        for modname, attr, name, *item in SPANS + GENERATORS:
            module = sys.modules.get("nodalpol." + modname)
            if module is None:
                continue
            fn = getattr(module, attr)
            if item:
                wrapper = self._wrap_generator(fn, name, item[0])
            else:
                wrapper = self._wrap(fn, attr, name)
            replacements[id(fn)] = (fn, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])
        graph = sys.modules["nodalpol.curve"].CurveGraph
        method = graph.connected_subcurve_stats
        self._undo.append((graph, "connected_subcurve_stats", method))
        graph.connected_subcurve_stats = self._wrap_stats(method)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[self.name_of[i]] += end[i] - start[i] - child[i]
        return dict(zip(self.names, totals))

    def write(self, path) -> None:
        """Spans as gzip TSV: id, name, start, end, parent id, instance."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tinstance\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.instance_of[i]}\n"
                )
