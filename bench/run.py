"""The nodalpol benchmark: one workload per run, outputs checked, metrics as JSON.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats whole rounds of the workload until ``S`` seconds of rounds
have been timed.  It sets the workload up (fresh import of the package
plus input generation) three times before the first round and three times
after every round, and reports the median as ``setup_s``.  A round is one campaign, or one ``analyze`` call per generated
input.  Outputs are checked outside the timed region against the
independent computations in ``oracle.py``.  Every round must produce the
same bytes as the first; the first round's fingerprint is also compared
with earlier runs of the same seed and source.  A failed check counts
every operation it covers as failed.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics.  With ``--trace 1`` untraced and traced rounds
alternate.  The traced rounds give the per-layer metrics, per round, and
the trace is written to ``bench/out``.  The two kinds of rounds together
give the tracing overhead.

The process starts no threads and no other processes, and pins the BLAS
thread pools to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from math import lcm
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(BENCH_DIR))
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-ups timed before the first round, and after every round.  Spreading
# them over the run lets ``setup_s`` see the same host speed as the rounds.
SETUPS_AT_START = 3
SETUPS_PER_ROUND = 3

# Reference bounds of the criterion-7 campaign (<= 4 components, <= 5
# nodes, genus <= 2, rank bound 12) with the weight denominator cut from
# 12 to 5, so that one campaign takes seconds and a run holds several.
EXHAUSTIVE = dict(
    max_vertices=4, max_edges=5, max_genus=2, weight_denominator_bound=5, max_rank=12
)
# Five components make curve enumeration (120-permutation deduplication)
# and per-curve grid materialization the dominant costs.
SAMPLED = dict(
    max_vertices=5,
    max_edges=5,
    max_genus=1,
    weight_denominator_bound=8,
    max_rank=8,
    mode="random",
    sample_count=4,
)
ANALYZE_MAX_RANK = "1"


def _package_modules() -> dict:
    return {m: sys.modules[m] for m in sys.modules if m == "nodalpol" or m.startswith("nodalpol.")}


def _purge_package() -> None:
    for name in _package_modules():
        del sys.modules[name]


def time_setup(workload) -> float:
    """Seconds to import the package afresh and let ``workload`` make its
    inputs."""
    _purge_package()
    t0 = perf_counter()
    workload.prepare()
    return perf_counter() - t0


def time_spare_setup(name: str, seed: int) -> float:
    """``time_setup`` on a spare workload; the running workload keeps its
    own modules, which go back into ``sys.modules`` afterwards."""
    kept = _package_modules()
    seconds = time_setup(make_workload(name, seed))
    _purge_package()
    sys.modules.update(kept)
    gc.collect()
    return seconds


class Round:
    """What one round did: operations, timed seconds, op latencies, a
    fingerprint of its output bytes, and the output to check."""

    def __init__(self, ops, seconds, latencies, fingerprint, result) -> None:
        self.ops = ops
        self.seconds = seconds
        self.latencies = latencies
        self.fingerprint = fingerprint
        self.result = result


# -- campaigns ------------------------------------------------------------


class CampaignWorkload:
    """``run_campaign`` with the CSV written to a file.

    An operation is one campaign instance (one CSV row).  Its latency is
    the interval between consecutive row writes, taken by a time stamp on
    the CSV writer.
    """

    output_bytes = 0

    def __init__(self, name: str, bounds: dict, seed: int) -> None:
        self.name = name
        self.bounds = bounds
        self.seed = seed
        self.csv_path = OUT / f"{name}.csv"
        self.first_csv = OUT / f"{name}.first.csv"

    def prepare(self) -> None:
        import nodalpol.search

        self.search = nodalpol.search
        self.cfg = nodalpol.search.CampaignConfig(seed=self.seed, **self.bounds)

    def write_inputs(self) -> None:
        pass

    def run_round(self, stamp: bool, tracer: Tracer | None = None) -> Round:
        search = self.search
        stamps: list[float] = []
        emit = search._emit
        if stamp:

            def stamped(sink, digest, text):
                emit(sink, digest, text)
                stamps.append(perf_counter())

            search._emit = stamped
        try:
            t0 = perf_counter()
            report = search.run_campaign(self.cfg, csv_path=self.csv_path)
            seconds = perf_counter() - t0
        finally:
            search._emit = emit
        latencies = [b - a for a, b in zip(stamps, stamps[1:])]
        return Round(report.instances_checked, seconds, latencies, report.csv_sha256, report)

    def keep_first(self, first: Round) -> None:
        self.first_report = first.result
        self.csv_path.replace(self.first_csv)

    def check_first(self, first: Round) -> int:
        """Failed operations of the first round, checked in full."""
        data = self.first_csv.read_bytes()
        if hashlib.sha256(data).hexdigest() != first.fingerprint:
            return first.ops
        return _check_campaign(self.bounds, data.decode("utf-8"), self.first_report)


def _check_campaign(bounds: dict, text: str, report) -> int:
    by_hash, classes = oracle.corpus(
        bounds["max_vertices"], bounds["max_edges"], bounds["max_genus"]
    )
    denominator = bounds["weight_denominator_bound"]
    rows = list(csv.reader(io.StringIO(text)))
    header, rows = rows[0], rows[1:]
    if header != [
        "index", "curve", "gamma", "delta", "genera", "weights",
        "stable", "semistable", "goodness", "delta_min",
    ]:
        return max(len(rows), 1)
    bad: set[int] = set()
    per_curve: dict[str, list[tuple]] = {}
    subsets: dict[str, list] = {}
    for pos, row in enumerate(rows):
        try:
            index, chash, gamma, delta, genera_text, weights_text = row[:6]
            stable_text, semistable_text, status, delta_min = row[6:]
            weights = tuple(Fraction(x) for x in weights_text.split(";"))
            if status == "NotGood":
                Fraction(delta_min)
        except ValueError:
            bad.add(pos)
            continue
        if index != str(pos) or chash not in by_hash:
            bad.add(pos)
            continue
        genera, edges, _ = by_hash[chash]
        per_curve.setdefault(chash, []).append(weights)
        if chash not in subsets:
            subsets[chash] = oracle.connected_subsets(len(genera), edges)
        stable, semistable = oracle.oc_stability(genera, edges, weights, subsets[chash])
        ok = (
            int(gamma) == len(genera)
            and int(delta) == len(edges)
            and genera_text == ";".join(map(str, genera))
            and len(weights) == len(genera)
            and all(w > 0 for w in weights)
            and sum(weights) == 1
            and lcm(*(w.denominator for w in weights)) <= denominator
            and stable_text == str(stable).lower()
            and semistable_text == str(semistable).lower()
        )
        if status == "NotGood":
            ok = ok and Fraction(delta_min) <= 0
        elif status == "EvidenceGood":
            ok = ok and stable and delta_min == "0"
        elif status == "GoodCertified":
            ok = ok and stable and delta_min == ""
        else:
            ok = False
        if len(edges) == len(genera) - 1:
            # Compact type: the paper proves stable <=> good.
            ok = ok and stable == (status != "NotGood")
        if not ok:
            bad.add(pos)
    for record in report.discrepancies + report.identity_failures:
        bad.add(record["index"])
    if bounds.get("mode") == "random":
        sizes_ok = all(len(ws) == bounds["sample_count"] for ws in per_curve.values())
    else:
        sizes_ok = all(
            len(set(ws)) == len(ws) == oracle.grid_size(len(ws[0]), denominator)
            for ws in per_curve.values()
        )
    corpus_ok = (
        sizes_ok
        and len(per_curve) == classes == report.curves_enumerated
        and len({by_hash[h][2] for h in per_curve}) == classes
        and len(rows) == report.instances_checked
    )
    return len(bad) if corpus_ok else len(rows)


# -- analyze --------------------------------------------------------------

# (family, components, curve is stable, copies).  Stable curves are analyzed
# under their canonical polarization and a random one, the others under a
# random one, so both verdicts occur.  Large cycles and chains keep the
# 2**gamma subcurve enumeration in the mix at a bounded cost.
ANALYZE_SLOTS = [
    (family, gamma, stable, 2 if gamma <= 10 else 1)
    for gamma in (8, 9, 10, 11, 12)
    for family in ("cycle", "chain", "sparse", "dense")
    for stable in (True, False)
    if not (family == "dense" and not stable)
] + [
    ("cycle", 14, True, 1),
    ("chain", 14, True, 1),
    ("sparse", 14, True, 1),
    ("cycle", 16, True, 1),
    ("chain", 16, True, 1),
    ("cycle", 18, True, 1),
    ("chain", 18, True, 1),
]


def _random_edges(rng: random.Random, family: str, n: int) -> list[tuple[int, int]]:
    label = list(range(1, n + 1))
    rng.shuffle(label)
    if family == "cycle":
        pairs = [(k, (k + 1) % n) for k in range(n)]
    elif family == "chain":
        pairs = [(k, k + 1) for k in range(n - 1)]
    else:
        pairs = [(rng.randrange(k), k) for k in range(1, n)]
        extra = n // 2 if family == "sparse" else 2 * n
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    return sorted(tuple(sorted((label[a], label[b]))) for a, b in pairs)


def _random_curve(rng: random.Random, family: str, n: int, stable: bool):
    while True:
        edges = _random_edges(rng, family, n)
        deg = [0] * n
        for a, b in edges:
            deg[a - 1] += 1
            deg[b - 1] += 1
        if stable:
            genera = [rng.randint(0 if d >= 3 else 1, 2) for d in deg]
        else:
            low = [k for k in range(n) if deg[k] <= 2]
            if not low:
                continue
            genera = [rng.randint(0, 2) for _ in range(n)]
            genera[rng.choice(low)] = 0
        if oracle.curve_is_stable(genera, edges) == stable:
            return genera, edges


def analyze_inputs(seed: int) -> list[tuple]:
    """``(genera, edges, weights)`` per ``analyze`` call, from the seed."""
    rng = random.Random(seed)
    calls = []
    for family, n, stable, copies in ANALYZE_SLOTS:
        for _ in range(copies):
            genera, edges = _random_curve(rng, family, n, stable)
            nums = [rng.randint(1, 20) for _ in range(n)]
            weights = [Fraction(x, sum(nums)) for x in nums]
            if stable:
                calls.append((genera, edges, oracle.canonical_weights(genera, edges)))
            calls.append((genera, edges, tuple(weights)))
    return calls


class AnalyzeWorkload:
    """In-process ``nodalpol analyze`` calls with stdout captured.

    Every call reads its curve and polarization JSON from disk, as a
    command-line call does.  An operation is one call.
    """

    name = "wide_analyze"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.input_dir = OUT / "wide_analyze"
        self.first_out = OUT / "wide_analyze.first.jsonl"

    def prepare(self) -> None:
        import nodalpol.cli

        self.cli = nodalpol.cli
        self.calls = analyze_inputs(self.seed)

    def write_inputs(self) -> None:
        """One curve file per curve and one polarization file per call."""
        self.first_out.unlink(missing_ok=True)
        self.input_dir.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        curve_paths: dict[tuple, Path] = {}
        for k, (genera, edges, weights) in enumerate(self.calls):
            key = (tuple(genera), tuple(edges))
            if key not in curve_paths:
                curve_paths[key] = self.input_dir / f"{len(curve_paths)}.curve.json"
                curve_paths[key].write_text(json.dumps({
                    "vertices": [{"id": v + 1, "genus": g} for v, g in enumerate(genera)],
                    "edges": [{"id": j + 1, "ends": [a, b]} for j, (a, b) in enumerate(edges)],
                }))
            pol_path = self.input_dir / f"{k}.polarization.json"
            pol_path.write_text(json.dumps({"weights": [str(w) for w in weights]}))
            self.argvs.append([
                "analyze", "--curve", str(curve_paths[key]), "--polarization", str(pol_path),
                "--max-rank", ANALYZE_MAX_RANK,
            ])

    def run_round(self, stamp: bool, tracer: Tracer | None = None) -> Round:
        """Outputs are hashed as they come; only the first round also
        writes them out, for the checks after the timed rounds."""
        main = self.cli.main
        latencies = []
        digest = hashlib.sha256()
        self.output_bytes = 0
        keep = None if self.first_out.exists() else open(self.first_out, "w", encoding="utf-8")
        try:
            for k, argv in enumerate(self.argvs):
                if tracer is not None:
                    tracer.instance = k
                buf = io.StringIO()
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        rc = main(argv)
                except Exception:
                    # Recorded as a failed call; the remaining calls still run.
                    rc = None
                    buf.write(traceback.format_exc())
                latencies.append(perf_counter() - t0)
                text = buf.getvalue()
                data = f"{rc}\n{text}".encode("utf-8")
                digest.update(data)
                self.output_bytes += len(data)
                if keep is not None:
                    keep.write(json.dumps([rc, text]) + "\n")
        finally:
            if keep is not None:
                keep.close()
        return Round(len(latencies), sum(latencies), latencies, digest.hexdigest(), None)

    def keep_first(self, first: Round) -> None:
        pass

    def check_first(self, first: Round) -> int:
        with open(self.first_out, encoding="utf-8") as lines:
            results = [json.loads(line) for line in lines]
        if len(results) != first.ops:
            return first.ops
        return sum(
            not _analyze_ok(call, rc, text)
            for call, (rc, text) in zip(self.calls, results)
        )


def _analyze_ok(call, rc: int, text: str) -> bool:
    genera, edges, weights = call
    n = len(genera)
    try:
        obj = json.loads(text)
        lam = oracle.lambdas(genera, edges, weights)
        subsets = oracle.connected_subsets(n, edges)
        stable, semistable = oracle.oc_stability(genera, edges, weights, subsets)
        pa = oracle.arithmetic_genus(genera, edges)
        ok = (
            [Fraction(x) for x in obj["lambda"]] == list(lam)
            and obj["arithmetic_genus"] == pa
            and obj["euler_characteristic"] == 1 - pa
            and obj["classification"]["compact_type"] == (len(edges) == n - 1)
            and obj["classification"]["stable"] == oracle.curve_is_stable(genera, edges)
            and obj["stability"]["stable"] == stable
            and obj["stability"]["semistable"] == semistable
        )
        inside_of = {s: (i, b) for s, i, b in subsets}
        witness = obj["stability"]["witness"]
        if not stable:
            members = frozenset(v - 1 for v in witness["members"])
            inside, boundary = inside_of[members]
            value = sum(lam[k] for k in members) - inside
            ok = ok and value == Fraction(witness["value"]) and not 0 < value < boundary
        good = obj["goodness"]
        status = good["status"]
        negative = not stable or status == "NotGood"
        ok = ok and rc == (1 if negative else 0)
        if status == "NotGood":
            datum = good["witness"]
            value = oracle.defect(lam, datum["ranks"], datum["stalk_free"])
            free = oracle.locally_free(edges, datum["ranks"], datum["stalk_free"])
            ok = ok and value == Fraction(good["witness_delta"])
            ok = ok and (value < 0 or (value == 0 and not free))
        elif status == "GoodCertified":
            ok = ok and stable
        elif status == "EvidenceGood":
            ok = ok and stable and good["searched_min_delta"] == "0"
        else:
            ok = False
        table = obj["subcurves"]
        if n <= 12:
            seen = set()
            for entry in table:
                members = frozenset(v - 1 for v in entry["members"])
                inside, boundary = inside_of[members]
                seen.add(members)
                ok = ok and entry["boundary"] == boundary
                ok = ok and entry["genus"] == sum(genera[k] for k in members) + inside - len(members) + 1
                ok = ok and Fraction(entry["delta"]) == sum(lam[k] for k in members) - inside
            ok = ok and len(seen) == len(table) == len(subsets)
        else:
            ok = ok and isinstance(table, str)
        return bool(ok)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False


# -- entry point ----------------------------------------------------------


def make_workload(name: str, seed: int):
    if name == "campaign_exhaustive":
        return CampaignWorkload(name, EXHAUSTIVE, seed)
    if name == "campaign_sampled":
        return CampaignWorkload(name, SAMPLED, seed)
    if name == "wide_analyze":
        return AnalyzeWorkload(seed)
    raise SystemExit(f"unknown workload {name!r}")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def matches_earlier_runs(key: str, fingerprint: str) -> bool:
    """Record the fingerprint under ``key``; False if an earlier run with
    the same key recorded a different one."""
    store = OUT / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if known.setdefault(key, fingerprint) != fingerprint:
        return False
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return True


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nodalpol" / "__init__.py").is_file():
        print(f"error: no nodalpol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed)

    setups = [time_setup(workload) for _ in range(SETUPS_AT_START)]
    workload.write_inputs()

    tracer = Tracer() if args.trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    timed = 0.0
    while timed < args.seconds or not plain or (tracer is not None and not traced):
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                rnd = workload.run_round(stamp=False, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.end_round()
            traced.append(rnd)
        else:
            rnd = workload.run_round(stamp=True)
            plain.append(rnd)
        timed += rnd.seconds
        if len(plain) + len(traced) == 1:
            workload.keep_first(rnd)
        rnd.result = None
        setups += [time_spare_setup(args.workload, args.seed) for _ in range(SETUPS_PER_ROUND)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = plain[0]
    first_failed = workload.check_first(first)
    key = f"{args.workload}:{args.seed}:{source_digest()}"
    if not matches_earlier_runs(key, first.fingerprint):
        first_failed = first.ops
    rounds = plain + traced
    attempted = sum(r.ops for r in rounds)
    failed = sum(
        (first_failed if r.fingerprint == first.fingerprint else r.ops) for r in rounds
    )

    def rate(rs: list[Round]) -> float:
        return sum(r.ops for r in rs) / sum(r.seconds for r in rs)

    def metric(value: float, unit: str) -> dict:
        return {"value": value, "unit": unit}

    if tracer is None:
        latencies = [x for r in plain for x in r.latencies]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "instances_per_s": metric(rate(plain), "1/s"),
            "op_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
            "op_p90_ms": metric(1000 * quantile(latencies, 90), "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, len(traced), workload)
        metrics["trace.instances_per_s"] = metric(rate(traced), "1/s")
        metrics["trace.overhead_pct"] = metric(100 * (rate(plain) / rate(traced) - 1), "%")
        stem = OUT / f"trace-{args.workload}"
        tracer.write(stem.with_suffix(".tsv.gz"))
        stem.with_suffix(".counts.json").write_text(
            json.dumps(dict(sorted(tracer.counts.items())), indent=1)
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# Per-layer metrics: span self times and counts, each per traced round.
LAYER_SELF = (
    "curve.connected_subcurve_stats",
    "stability.oc_stability",
    "goodness.decide.scan",
    "goodness.decide.witness",
    "goodness.sufficient_check",
    "goodness.conjecture_probe",
    "polarization.lambda",
    "polarization.delta_structure",
    "polarization.enumerate_weight_grid",
    "pathsys.build_path_system",
    "pathsys.aj_family",
    "pathsys.delta_decomposed",
    "pathsys.verify_path_identities",
    "sheafdata.validate_datum",
    "sheafdata.delta_general",
    "sheafdata.delta_residual",
    "sheafdata.restrict",
    "search.identity_failures",
    "search.csv",
    "search.run_campaign",
    "search.enumerate_curves",
    "search.sample_polarizations",
    "jsonio.load",
    "jsonio.canonical_dumps",
    "cli.analyze",
)
LAYER_COUNTS = (
    "curve.connected_subcurve_stats.cold_calls",
    "curve.connected_subcurve_stats.subcurves",
    "stability.oc_stability.calls",
    "goodness.decide.scan.calls",
    "goodness.decide.witness.calls",
    "goodness.sufficient_check.calls",
    "goodness.sufficient_check.certified",
    "polarization.lambda.calls",
    "polarization.lambda.distinct",
    "pathsys.build_path_system.calls",
    "pathsys.aj_family.calls",
    "sheafdata.validate_datum.calls",
    "search.identity_failures.calls",
    "search.csv.bytes",
    "search.enumerate_curves.curves",
    "search.sample_polarizations.polarizations",
    "polarization.enumerate_weight_grid.polarizations",
)


def layer_metrics(tracer: Tracer, rounds: int, workload) -> dict:
    self_times = tracer.self_times()
    out = {}
    for name in LAYER_SELF:
        out[name + ".self_s"] = {"value": self_times.get(name, 0.0) / rounds, "unit": "s/round"}
    for name in LAYER_COUNTS:
        unit = "B/round" if name.endswith("bytes") else "count/round"
        out[name] = {"value": tracer.counts[name] / rounds, "unit": unit}
    out["jsonio.output_bytes"] = {"value": workload.output_bytes, "unit": "B/round"}
    out["trace.spans"] = {"value": len(tracer.start) / rounds, "unit": "count/round"}
    return out


if __name__ == "__main__":
    sys.exit(main())
