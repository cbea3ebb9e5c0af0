"""Curve/polarization corpora and reproducible consistency campaigns.

``enumerate_curves`` yields every connected loopless decorated multigraph
within the configured bounds, deduplicated up to decorated-graph
isomorphism by exhaustive vertex-permutation minimization (only up to five
components; beyond that duplicates are tolerated, which costs throughput
but never correctness).  ``run_campaign`` sweeps the corpus, probes the
stability/goodness equivalence on every instance, re-checks the algebraic
identity suite on seeded random sheaf data, and emits a CSV report plus a
JSON summary whose bytes depend only on the configuration.

Randomness comes from SplitMix64, a fixed, documented 64-bit generator, so
campaigns replay identically across platforms and runs.
"""

from __future__ import annotations

import hashlib
import io
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO, TypeVar

from .curve import CurveGraph
from .errors import NodalPolError
from .goodness import GoodnessStatus, conjecture_probe
from .jsonio import canonical_dumps, curve_to_obj, format_rational
from .pathsys import (
    aj_defects_scaled,
    build_path_system,
    check_path_identities,
    delta_decomposed_scaled,
)
from .polarization import Polarization, enumerate_weight_grid, scaled_lambda
from .sheafdata import (
    SheafDatum,
    delta_general_scaled,
    delta_residual_scaled,
    restrict_scaled,
    validate_datum,
)

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


class SplitMix64:
    """SplitMix64: one 64-bit multiply-shift-xor state walk per output.

    Chosen for reproducibility: the algorithm is tiny, published, and has
    no platform-dependent behaviour.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


@dataclass(frozen=True)
class CampaignConfig:
    """Bounds and reproducibility knobs of a sweep.

    ``mode`` is ``"exhaustive"`` (every grid polarization; the seed only
    feeds the identity suite) or ``"random"`` (``sample_count`` seeded grid
    draws per curve).  ``max_rank`` caps the ranks of the identity suite's
    random data at ``min(3, max_rank)``; goodness needs no rank bound.
    """

    max_vertices: int
    max_edges: int
    max_genus: int
    weight_denominator_bound: int
    max_rank: int
    seed: int = 0
    mode: str = "exhaustive"
    sample_count: int = 0

    def __post_init__(self) -> None:
        if min(self.max_vertices, self.max_edges, self.max_genus + 1) < 1:
            raise NodalPolError("campaign bounds must be at least 1 (genus >= 0)")
        if self.weight_denominator_bound < 1 or self.max_rank < 1:
            raise NodalPolError("campaign bounds must be at least 1")
        if self.mode not in ("exhaustive", "random"):
            raise NodalPolError(f"unknown mode {self.mode!r}")
        if self.mode == "random" and self.sample_count < 1:
            raise NodalPolError("random mode needs a positive sample_count")


# -- curve enumeration ----------------------------------------------------


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def _pair_list(gamma: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(gamma) for j in range(i + 1, gamma)]


def _gather(indices: tuple[int, ...]) -> Callable:
    """``v -> tuple(v[i] for i in indices)``, as an itemgetter when that
    returns a tuple (two indices or more)."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    return lambda v: tuple(v[i] for i in indices)


def _relabellings(
    gamma: int, pairs: list[tuple[int, int]]
) -> list[tuple[Callable, Callable]]:
    """Per vertex permutation, two gathers computed once per component count.

    The first maps a multiplicity vector (indexed like ``pairs``) to its
    image under the permutation; the second maps a genus vector to the
    genus vector the permutation puts on each vertex.  An image is then a
    tuple gather, with no dictionary lookups.
    """
    pair_index = {p: k for k, p in enumerate(pairs)}
    out = []
    for perm in permutations(range(gamma)):
        source = [0] * len(pairs)
        for idx, (i, j) in enumerate(pairs):
            a, b = perm[i], perm[j]
            source[pair_index[(a, b) if a < b else (b, a)]] = idx
        inverse = tuple(perm.index(k) for k in range(gamma))
        out.append((_gather(tuple(source)), _gather(inverse)))
    return out


def _stabilizer(m: tuple[int, ...], relabellings) -> list[Callable] | None:
    """The genus relabellings of the permutations fixing ``m``, or ``None``
    when some permutation maps ``m`` to a smaller vector, which makes ``m``
    not canonical."""
    aut = []
    for image_of, genera_of in relabellings:
        image = image_of(m)
        if image < m:
            return None
        if image == m:
            aut.append(genera_of)
    return aut


def _connected_multiplicities(m: tuple[int, ...], gamma: int, pairs) -> bool:
    adj = [0] * gamma
    for idx, (i, j) in enumerate(pairs):
        if m[idx] > 0:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    full = (1 << gamma) - 1
    reached = 1
    while True:
        grown = reached
        rest = reached
        while rest:
            low = rest & -rest
            grown |= adj[low.bit_length() - 1]
            rest ^= low
        if grown == reached:
            return reached == full
        reached = grown


def enumerate_curves(cfg: CampaignConfig) -> Iterator[CurveGraph]:
    """All decorated multigraphs within the bounds, deterministic order.

    Vertices ascending, then edge count, then a canonical multiplicity
    vector, then a canonical genus vector.  Isomorphism classes are
    represented once for up to five vertices.
    """
    for gamma in range(1, cfg.max_vertices + 1):
        pairs = _pair_list(gamma)
        relabellings = _relabellings(gamma, pairs) if gamma <= 5 else None
        min_edges = 0 if gamma == 1 else gamma - 1
        for total in range(min_edges, cfg.max_edges + 1):
            if gamma == 1 and total > 0:
                break
            for m in _weak_compositions(total, len(pairs)):
                if gamma > 1 and not _connected_multiplicities(m, gamma, pairs):
                    continue
                aut: list[Callable] = []
                if relabellings is not None:
                    aut = _stabilizer(m, relabellings)
                    if aut is None:
                        continue
                for genera in product(range(cfg.max_genus + 1), repeat=gamma):
                    # canonical when no relabelling gives a smaller vector
                    if len(aut) > 1 and any(g(genera) < genera for g in aut):
                        continue
                    edges = []
                    eid = 1
                    for idx, (i, j) in enumerate(pairs):
                        for _ in range(m[idx]):
                            edges.append((eid, (i + 1, j + 1)))
                            eid += 1
                    yield CurveGraph(
                        [(k + 1, genera[k]) for k in range(gamma)], edges
                    )


def curve_hash(curve: CurveGraph) -> str:
    """Stable short hash of the canonical JSON encoding of the curve."""
    text = canonical_dumps(curve_to_obj(curve))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# -- polarization sampling ------------------------------------------------


def sample_polarizations(
    curve: CurveGraph, cfg: CampaignConfig
) -> Iterator[Polarization]:
    """Grid polarizations for one curve: the whole grid, or seeded draws.

    Random draws are uniform over the materialized grid, seeded by the
    campaign seed and the curve hash, so the sequence is reproducible and
    distinct curves see different draws.
    """
    if cfg.mode == "exhaustive":
        yield from enumerate_weight_grid(curve.gamma, cfg.weight_denominator_bound)
        return
    grid = list(enumerate_weight_grid(curve.gamma, cfg.weight_denominator_bound))
    yield from _draw_samples(grid, cfg, curve_hash(curve))


def _draw_samples(grid: Sequence[T], cfg: CampaignConfig, chash: str) -> list[T]:
    """The seeded random-mode draws from a curve's grid, for the curve
    with hash ``chash``."""
    rng = SplitMix64(cfg.seed ^ int(chash, 16))
    return [grid[rng.randrange(len(grid))] for _ in range(cfg.sample_count)]


# -- identity suite -------------------------------------------------------


def _random_datum(curve: CurveGraph, rng: SplitMix64, max_rank: int) -> SheafDatum:
    cap = min(3, max_rank)
    ranks = [rng.randint(0, cap) for _ in range(curve.gamma)]
    if all(r == 0 for r in ranks):
        ranks[rng.randrange(curve.gamma)] = rng.randint(1, cap)
    stalk = []
    for ia, ib in curve.edge_index_pairs():
        stalk.append(rng.randint(0, min(ranks[ia], ranks[ib])))
    degrees = [rng.randint(-2, 2) if r > 0 else 0 for r in ranks]
    return SheafDatum(tuple(ranks), tuple(degrees), tuple(stalk))


def identity_failures(
    curve: CurveGraph, w: Polarization, rng: SplitMix64, max_rank: int
) -> list[str]:
    """Run the per-instance identity suite; returns failure descriptions.

    Checks, on one seeded random datum: the lambda entries sum to the node
    count; the three defect formulas agree for a random base; restriction
    over a random proper subcurve is additive up to the boundary stalk
    ranks; and both path bookkeeping identities hold.  The datum is
    validated once, and every formula runs as an integer kernel on the
    same scaled lambda vector.
    """
    failures: list[str] = []
    lam, q = scaled_lambda(curve, w)
    if sum(lam) != q * curve.delta:
        failures.append("lambda sum != node count")
    e = _random_datum(curve, rng, max_rank)
    try:
        validate_datum(curve, e)
    except NodalPolError as exc:
        return [f"random datum invalid: {exc}"]
    base = curve.vertex_ids[rng.randrange(curve.gamma)]
    ps = build_path_system(curve, base)
    # All three scaled by 2q.
    d1 = 2 * delta_general_scaled(curve, lam, q, e)
    d2 = delta_residual_scaled(curve, lam, q, e)
    d3 = delta_decomposed_scaled(ps, q, aj_defects_scaled(ps, lam, q), e)
    if not d1 == d2 == d3:
        failures.append(
            "defect formulas disagree: "
            + ", ".join(str(Fraction(d, 2 * q)) for d in (d1, d2, d3))
        )
    if curve.gamma >= 2:
        mask = 1 + rng.randrange(curve.full_mask - 1)
        boundary_stalks = 0
        for j, (ia, ib) in enumerate(curve.edge_index_pairs()):
            if (mask >> ia & 1) != (mask >> ib & 1):
                boundary_stalks += e.stalk_free[j]
        # Scaled by q.
        lhs = restrict_scaled(curve, lam, q, e, mask) + restrict_scaled(
            curve, lam, q, e, curve.full_mask ^ mask
        )
        if 2 * lhs != d1 + 2 * q * boundary_stalks:
            failures.append("restriction additivity failed")
    try:
        check_path_identities(curve, ps, e)
    except NodalPolError as exc:
        failures.append(f"path identity failed: {exc}")
    return failures


# -- campaign driver ------------------------------------------------------

_CSV_HEADER = (
    "index,curve,gamma,delta,genera,weights,stable,semistable,goodness,delta_min\n"
)


@dataclass
class CampaignReport:
    """Aggregates of one campaign run.

    ``csv_sha256`` fingerprints the full CSV text, so reproducibility can
    be asserted without retaining every row; ``wall_time`` is informative
    only and excluded from the persisted summary.
    """

    config: CampaignConfig
    curves_enumerated: int = 0
    instances_checked: int = 0
    discrepancies: list[dict] = field(default_factory=list)
    identity_failures: list[dict] = field(default_factory=list)
    csv_sha256: str = ""
    wall_time: float = 0.0

    @property
    def consistent(self) -> bool:
        return not self.discrepancies and not self.identity_failures

    def summary_obj(self) -> dict:
        cfg = self.config
        return {
            "config": {
                "max_vertices": cfg.max_vertices,
                "max_edges": cfg.max_edges,
                "max_genus": cfg.max_genus,
                "weight_denominator_bound": cfg.weight_denominator_bound,
                "max_rank": cfg.max_rank,
                "seed": cfg.seed,
                "mode": cfg.mode,
                "sample_count": cfg.sample_count,
            },
            "curves_enumerated": self.curves_enumerated,
            "instances_checked": self.instances_checked,
            "discrepancies": self.discrepancies,
            "identity_failures": self.identity_failures,
            "csv_sha256": self.csv_sha256,
            "consistent": self.consistent,
        }


def run_campaign(
    cfg: CampaignConfig,
    csv_path: str | Path | None = None,
    summary_path: str | Path | None = None,
) -> CampaignReport:
    """Sweep the corpus; nonzero-severity outcomes land in the report.

    The CSV has one row per (curve, polarization) instance.  ``delta_min``
    is the witness defect for a NotGood verdict and empty for GoodCertified.
    The CSV and the summary are each written to a temporary file beside
    their path and renamed into place once complete, so a campaign that
    fails leaves no partial file behind.
    """
    report = CampaignReport(config=cfg)
    started = time.monotonic()
    digest = hashlib.sha256()
    with _atomic_text(csv_path) as sink:
        _emit(sink, digest, _CSV_HEADER)
        index = 0
        # The polarization grid only depends on the component count, so
        # materialize it once per count, in both modes, with each
        # polarization's CSV text.
        grids: dict[int, list[tuple[Polarization, str]]] = {}
        for curve in enumerate_curves(cfg):
            report.curves_enumerated += 1
            chash = curve_hash(curve)
            genera_text = ";".join(str(g) for g in curve.genera)
            if curve.gamma not in grids:
                grids[curve.gamma] = [
                    (w, ";".join(format_rational(x) for x in w.weights))
                    for w in enumerate_weight_grid(
                        curve.gamma, cfg.weight_denominator_bound
                    )
                ]
            polarizations = grids[curve.gamma]
            if cfg.mode == "random":
                polarizations = _draw_samples(polarizations, cfg, chash)
            for w, weights_text in polarizations:
                probe = conjecture_probe(curve, w)
                rng = SplitMix64(cfg.seed ^ (0xA5A5A5A5 + 0x9E3779B9 * index))
                failures = identity_failures(curve, w, rng, cfg.max_rank)
                verdict = probe.goodness
                if verdict.status is GoodnessStatus.NOT_GOOD:
                    delta_min = format_rational(verdict.witness_delta)
                else:
                    delta_min = ""
                row = (
                    f"{index},{chash},{curve.gamma},{curve.delta},"
                    f"{genera_text},{weights_text},"
                    f"{str(probe.stability.stable).lower()},"
                    f"{str(probe.stability.semistable).lower()},"
                    f"{verdict.status.value},{delta_min}\n"
                )
                _emit(sink, digest, row)
                if probe.discrepancy:
                    # Embed the full instance so the record replays through
                    # the CLI without consulting the sweep again.
                    report.discrepancies.append(
                        {
                            "index": index,
                            "curve": chash,
                            "curve_json": curve_to_obj(curve),
                            "weights": weights_text,
                            "stable": probe.stability.stable,
                            "goodness": verdict.status.value,
                            "description": probe.description,
                        }
                    )
                for failure in failures:
                    report.identity_failures.append(
                        {
                            "index": index,
                            "curve": chash,
                            "curve_json": curve_to_obj(curve),
                            "weights": weights_text,
                            "failure": failure,
                        }
                    )
                index += 1
        report.instances_checked = index
    report.csv_sha256 = digest.hexdigest()
    report.wall_time = time.monotonic() - started
    if summary_path is not None:
        with _atomic_text(summary_path) as out:
            out.write(canonical_dumps(report.summary_obj()))
    return report


@contextmanager
def _atomic_text(path: str | Path | None) -> Iterator[TextIO]:
    """A text sink for ``path`` that appears there only when the block
    completes: a temporary file in the same directory, renamed over
    ``path`` at the end and removed on an exception.  Without a path the
    sink is an in-memory buffer."""
    if path is None:
        yield io.StringIO()
        return
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    out = open(tmp, "w", encoding="utf-8")
    try:
        with out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _emit(sink, digest: "hashlib._Hash", text: str) -> None:
    sink.write(text)
    digest.update(text.encode("utf-8"))
