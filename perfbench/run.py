#!/usr/bin/env python3
"""The redwords benchmark: one command runs a workload, checks it, prints every metric.

    python3 perfbench/run.py --workload scan-s6 --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
Workloads (README.md says why each exists):

  scan-s6     scan(ScanOptions(n=6, workers=2)): every check, default cap
  closure-s8  scan(ScanOptions(n=8, checks={"weak_order"}, workers=2))
  cli-s6      one redwords.cli.run request per permutation of S_6, seeded mix

Every workload is a closed loop with one client: each call waits for the
previous one.  With --trace 0 the run repeats the workload while --seconds
allows, at least once, and prints the end-to-end metrics as medians over the
repeats.  With --trace 1 it runs the workload once traced, at one worker
(the scans also once untraced at two workers, for the pool efficiency), and
prints the per-layer metrics.  Every output is checked against reference values that do
not come from the code under test.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

import layers
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_S6 = HERE / "reference" / "s6_projection.jsonl"

# sha256 of the record projections (see PROJECTION) of the seed commit's
# scans, cross-checked there against every oracle in oracles.py.  Pinning a
# projection rather than the raw JSONL lets a later schema addition pass.
S6_PROJECTION_SHA256 = "a2c6350fe799ba8bea398ac39d184d9317210b442c9536caa4062932c30cee48"
S8_CLOSURE_PROJECTION_SHA256 = "7f88ba56a91f2204cb633cbd153a27e8ddcb9e164b897b437eb86f74f5f29961"

PROJECTION = (
    "window", "length", "fully_commutative", "single_braid_class",
    "upper_predicate", "lower_predicate", "skipped", "r", "b", "c",
    "achieves_upper", "achieves_lower", "circuit_free",
    "braid_shape_conforming", "width", "support_size", "conjecture_status",
    "violations",
)

# The known finding of the seed: S_6 permutations with a braid class outside
# the 2^x 3^y path-product model.  Reported, not counted as a failure.
S6_BRAID_NONCONFORMING = 190

SETUP_REPEATS = 20
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it


class SetupError(Exception):
    """The benchmark cannot run here; it exits nonzero without a result."""


@dataclass
class Unit:
    """One execution of a workload and the verdict of its correctness gate."""

    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    nonconforming: int | None = None  # the braid-shape finding of a full scan
    output_s: float = 0.0


def projection(record: dict) -> str:
    return json.dumps([record.get(f) for f in PROJECTION], separators=(",", ":"))


def load_package() -> dict:
    """Import redwords afresh from src/; returns the scan and cli modules.

    ``importlib.import_module`` is used because ``redwords.scan`` as a package
    attribute is the scan function, which shadows the module.
    """
    for name in [m for m in sys.modules if m == "redwords" or m.startswith("redwords.")]:
        del sys.modules[name]
    try:
        mods = {name: importlib.import_module(f"redwords.{name}") for name in ("scan", "cli")}
    except ImportError as exc:
        raise SetupError(f"cannot import redwords from {SRC}: {exc}") from exc
    if not Path(mods["scan"].__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"redwords was imported from {mods['scan'].__file__}, not {SRC}")
    return mods


def load_s6_reference() -> dict[tuple[int, ...], str]:
    data = REFERENCE_S6.read_bytes()
    if hashlib.sha256(data).hexdigest() != S6_PROJECTION_SHA256:
        raise SetupError(f"{REFERENCE_S6} does not match its pinned digest")
    lines = data.decode("ascii").splitlines()
    return {tuple(json.loads(line)[0]): line for line in lines}


# --------------------------------------------------------------------------
# Scan workloads


class ScanWorkload:
    """One ``scan()`` of all of S_n into a fresh file, checked record by record.

    The scan covers all of S_n, so the seed changes nothing.
    """

    n: int
    options: dict
    digest: str

    def prepare(self, seed: int) -> None:
        """Reference values, computed outside the timed set-up."""
        self.total = factorial(self.n)
        self.w0 = tuple(range(self.n, 0, -1))

    def make_inputs(self, mods: dict, seed: int) -> None:
        return None

    def run(self, mods: dict, inputs, run_dir: str, workers: int, tracer=None) -> Unit:
        out_dir = tempfile.mkdtemp(dir=run_dir)
        path = os.path.join(out_dir, f"s{self.n}.jsonl")
        if os.path.exists(path):
            # A leftover file would turn the scan into a resume that reuses it.
            raise SetupError(f"scan output {path} exists before the scan")
        scan_mod = mods["scan"]
        options = scan_mod.ScanOptions(
            n=self.n, workers=workers, output_path=path, **self.options
        )
        error = None
        start = time.perf_counter()
        try:
            scan_mod.scan(options)
        except Exception as exc:  # a theorem violation or a crash fails the whole run
            error = exc
        end = time.perf_counter()
        unit = Unit(wall_s=end - start, latencies_s=[end - start], attempted=self.total)
        if tracer is not None and "scan.output" in tracer.stats:
            # ScanReport.jsonl plus the write that follows it inside scan().
            unit.output_s = end - tracer.stats["scan.output"].last_start
        if error is not None:
            unit.failed = self.total
            unit.problems.append(f"scan raised {error!r}")
        else:
            self.check(path, unit)
        shutil.rmtree(out_dir)
        return unit

    def check(self, path: str, unit: Unit) -> None:
        bad: set[tuple[int, ...]] = set()
        digest = hashlib.sha256()
        report: dict = {}
        records = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if obj.get("type") == "report":
                    report = obj
                    continue
                proj = projection(obj)
                digest.update(proj.encode("ascii") + b"\n")
                win = tuple(obj["window"])
                records.append((win, obj.get("r")))
                problem = (f"violations {obj['violations']}" if obj.get("violations")
                           else self.record_problem(win, obj, proj))
                if problem:
                    bad.add(win)
                    unit.problems.append(f"{list(win)}: {problem}")
        problems = []
        if not report.get("total") == len(records) == self.total:
            problems.append(f"total {report.get('total')} / {len(records)} records, expected {self.total}")
        problems += self.extra_problems(records)
        for key, want in self.expected_report().items():
            if report.get(key) != want:
                problems.append(f"report {key} = {report.get(key)!r}, expected {want!r}")
        if digest.hexdigest() != self.digest:
            problems.append("record projection digest differs from the pinned one")
        unit.problems.extend(problems)
        # A report-level problem that no record explains cannot be localised.
        unit.failed = len(bad) if bad or not problems else self.total
        unit.nonconforming = report.get("braid_nonconforming_count")

    def expected_report(self) -> dict:
        return {
            "violation_count": 0,
            "skipped_count": 0,
            "upper_achiever_count": oracles.upper_count(self.n),
            "lower_achiever_count": oracles.lower_count(self.n),
            "closed_form_match": True,
        }

    def extra_problems(self, records: list) -> list[str]:
        return []

    def record_problem(self, win, obj: dict, proj: str) -> str | None:
        raise NotImplementedError


class ScanS6(ScanWorkload):
    n = 6
    options: dict = {}
    digest = S6_PROJECTION_SHA256

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.reference = load_s6_reference()
        self.r = oracles.word_counts(self.n)

    def expected_report(self) -> dict:
        return {
            **super().expected_report(),
            "braid_nonconforming_count": S6_BRAID_NONCONFORMING,
            "conjecture_counterexamples": [],
        }

    def extra_problems(self, records: list) -> list[str]:
        got, want = sum(r or 0 for _, r in records), sum(self.r.values())
        return [] if got == want else [f"sum of r is {got}, expected {want}"]

    def record_problem(self, win, obj: dict, proj: str) -> str | None:
        if obj.get("r") != self.r[win]:
            return f"r = {obj.get('r')}, expected {self.r[win]}"
        if win == self.w0 and obj.get("r") != oracles.hook_length_w0(self.n):
            return "r(w0) differs from the hook-length formula"
        if win == self.w0 and obj.get("c") != oracles.A006245[self.n - 1]:
            return "c(w0) differs from OEIS A006245"
        if proj != self.reference.get(win):
            return "record differs from the reference projection"
        return None


class ClosureS8(ScanWorkload):
    n = 8
    options = {"checks": frozenset(("weak_order",))}
    digest = S8_CLOSURE_PROJECTION_SHA256

    def prepare(self, seed: int) -> None:
        super().prepare(seed)
        self.expected = {
            win: (oracles.inversions(win), oracles.avoids_321(win),
                  oracles.support_size(win), oracles.upper_achiever(win))
            for win in oracles.windows(self.n)
        }

    def record_problem(self, win, obj: dict, proj: str) -> str | None:
        got = (obj.get("length"), obj.get("fully_commutative"),
               obj.get("support_size"), obj.get("upper_predicate"))
        if got != self.expected[win]:
            return f"(length, 321-avoiding, support, upper) = {got}, expected {self.expected[win]}"
        if obj.get("r") is not None:
            return "a closure-only scan enumerated R(w)"
        if not obj.get("width") or (win == self.w0 and obj["width"] != oracles.max_mahonian(self.n)):
            return f"width {obj.get('width')} is wrong"
        return None


# --------------------------------------------------------------------------
# CLI workload

# One stratum of the request mix: an equal share for each subcommand, and
# within classes and graph an equal share for each kind.
MIX = (
    (("words",),) * 4
    + (("classes", "--kind", "braid"),) * 2
    + (("classes", "--kind", "commutation"),) * 2
    + (("table",),) * 4
    + tuple(("graph", "--which", which) for which in ("word", "gc", "gb", "gamma"))
    + (("check",),) * 4
    + (("interval",),) * 4
)
FIRST = ("words",)  # the request pinned to w0


class CliWorkload:
    n = 6

    def prepare(self, seed: int) -> None:
        self.reference = {
            win: json.loads(line) for win, line in load_s6_reference().items()
        }
        self.r = oracles.word_counts(self.n)

    def make_inputs(self, mods: dict, seed: int) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
        return build_requests(self.r, seed)

    def run(self, mods: dict, requests, run_dir: str, workers: int, tracer=None) -> Unit:
        unit = Unit(wall_s=0.0, latencies_s=[], attempted=len(requests))
        for win, variant in requests:
            argv = [variant[0], "[" + "".join(map(str, win)) + "]", *variant[1:], "--format", "json"]
            if tracer is not None:
                tracer.tag = variant[-1]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = mods["cli"].run(argv)
                except Exception as exc:  # a crash is one failed request
                    code = repr(exc)
                elapsed = time.perf_counter() - start
            unit.latencies_s.append(elapsed)
            problem = self.check(win, variant, code, out.getvalue(), err.getvalue())
            if problem:
                unit.failed += 1
                unit.problems.append(f"{' '.join(argv)}: {problem}")
        unit.wall_s = sum(unit.latencies_s)
        return unit

    def check(self, win, variant, code, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        try:
            return self.check_response(win, variant, json.loads(out))
        except json.JSONDecodeError:
            return "response is not one JSON object"
        except (KeyError, TypeError, ValueError) as exc:
            return f"response lacks or mistypes a field: {exc!r}"

    def check_response(self, win, variant, resp: dict) -> str | None:
        ref = dict(zip(PROJECTION, self.reference[win]))
        r, b, c = ref["r"], ref["b"], ref["c"]
        kind = variant[0]
        if tuple(resp.get("window", ())) != win:
            return f"window {resp.get('window')}"
        if kind == "words":
            words = resp["words"]
            ok = (resp["count"] == len(words) == r
                  and all(words[k] < words[k + 1] for k in range(len(words) - 1))
                  and oracles.all_evaluate_to(words, self.n, win))
        elif kind == "classes":
            classes = resp["classes"]
            ok = (len(classes) == (b if variant[-1] == "braid" else c)
                  and sum(map(len, classes)) == r)
        elif kind == "table":
            filled = sum(len(row) - row.count(None) for row in resp["cells"])
            ok = (resp["rows"], resp["cols"], filled, resp["jump_property"]) == (b, c, r, True)
        elif kind == "graph":
            vertices = {"word": r, "gc": c, "gb": b, "gamma": b + c}[variant[-1]]
            ok = len(resp["vertices"]) == vertices and (
                variant[-1] != "gamma" or len(resp["edges"]) == r
            )
        elif kind == "check":
            ok = projection(resp) == json.dumps(self.reference[win], separators=(",", ":"))
        else:
            sizes = resp["rank_sizes"]
            ok = (resp["width"] == ref["width"] == max(sizes)
                  and resp["support_size"] == ref["support_size"]
                  and sizes[0] == 1 and len(sizes) == ref["length"] + 1
                  and sum(sizes) == resp["size"])
        return None if ok else "response disagrees with the reference"


def build_requests(r: dict, seed: int):
    """One request per permutation of S_6, in seeded order, with a seeded mix.

    Permutations are ranked by r(w) and the mix is shuffled per stratum of
    len(MIX) consecutive ranks, so that under every seed each subcommand gets
    a like share of cheap and costly permutations.  The heaviest stratum is
    pinned: w0 always gets ``words``, its cheapest subcommand (the others
    take up to 27 s on w0), and the next ranks get the rest of MIX in order.
    Otherwise the tail percentile would measure whichever subcommands a seed
    happened to give the few permutations with tens of thousands of words.
    720 is 30 strata, so every seed gives the same shares.  The request on w0
    comes first and the rest follow in seeded order: it sets the peak RSS,
    and on a heap that earlier requests have fragmented that peak would move
    with the seed.
    """
    rng = random.Random(seed)
    ranked = sorted(r, key=lambda w: (-r[w], w))
    pinned = list(MIX)
    pinned.remove(FIRST)
    requests = [(ranked[0], FIRST), *zip(ranked[1:len(MIX)], pinned)]
    for i in range(len(MIX), len(ranked), len(MIX)):
        mix = list(MIX)
        rng.shuffle(mix)
        requests += zip(ranked[i:i + len(MIX)], mix)
    first, rest = requests[0], requests[1:]
    rng.shuffle(rest)
    return [first, *rest]


WORKLOADS = {"scan-s6": ScanS6, "closure-s8": ClosureS8, "cli-s6": CliWorkload}


# --------------------------------------------------------------------------
# Metrics


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples above it.

    The value is the Harrell-Davis estimate of that quantile, not the single
    order statistic there.  The heavy requests of cli-s6 fall into clusters of
    like cost, and the 11th largest of 720 sits at the edge of one: a plain
    order statistic jumps by a fifth whenever two requests trade places across
    that edge.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    q = (n - TAIL_BEYOND) / n
    return harrell_davis(ordered, q), 100.0 * q


def harrell_davis(ordered: list[float], q: float, steps: int = 16) -> float:
    """The mean of the order statistics, the i-th weighted by the mass that a
    Beta(q(n+1), (1-q)(n+1)) density puts on [(i-1)/n, i/n] (Simpson's rule)."""
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        f = [density((i * steps + j) * h) for j in range(steps + 1)]
        weights.append((f[0] + f[-1] + 4 * sum(f[1:-1:2]) + 2 * sum(f[2:-1:2])) * h / 3)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(units: list[Unit], setup: list[float], peak_mb: float,
               summary: list[str]) -> dict:
    """Medians over the executions of the workload in the run.

    The latency percentiles are taken within each execution and then their
    median over the executions, so that one slow stretch of the host moves
    one execution's figure, not the run's.  ``peak_mb`` is the high-water
    mark after the first execution: later ones reuse a heap the first has
    fragmented, so the peak would otherwise depend on how many fit in.
    """
    tails = [tail(u.latencies_s) for u in units]
    samples = len(units[0].latencies_s)
    summary.append(
        f"request_tail_ms is p{tails[0][1]:.2f} of {samples} requests "
        f"({min(TAIL_BEYOND, samples - 1)} beyond it), median over {len(units)} execution(s)"
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(u.wall_s for u in units), "s"),
        "perms_per_s": (statistics.median(u.attempted / u.wall_s for u in units), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "request_p50_ms": (statistics.median(statistics.median(u.latencies_s) for u in units) * 1e3, "ms"),
        "request_tail_ms": (statistics.median(value for value, _ in tails) * 1e3, "ms"),
    }


def per_layer(tracer: layers.Tracer, perms: int, pool_wall: float | None,
              overhead_s: float, output_s: float) -> dict:
    stats = tracer.stats

    def st(name: str) -> layers.Stat:
        return stats.get(name) or layers.Stat()

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    count_words = st("reduced_words.count_words")
    enum = st("reduced_words.enumerate_words")
    closure = st("weak_order.interval_by_closure")
    verify = st("scan.verify_permutation")
    out: dict[str, tuple[object, str, str]] = {
        "reduced_words.count_words.calls": (count_words.calls, "count", "reduced_words.count_words"),
        "reduced_words.count_words.busy_s": (count_words.busy_s, "s", "reduced_words.count_words"),
        "reduced_words.count_words.calls_per_perm": (
            ratio(count_words.calls, perms), "calls/perm", "reduced_words.count_words"),
        "reduced_words.enumerate_words.busy_s": (enum.busy_s, "s", "reduced_words.enumerate_words"),
        "reduced_words.enumerate_words.words": (
            enum.counts.get("words", 0), "count", "reduced_words.enumerate_words"),
        "reduced_words.enumerate_words.words_per_s": (
            ratio(enum.counts.get("words", 0), enum.busy_s), "1/s", "reduced_words.enumerate_words"),
        "reduced_words.enumerate_words.calls_per_perm": (
            ratio(enum.calls, perms), "calls/perm", "reduced_words.enumerate_words"),
    }
    for kind in ("braid", "commutation"):
        part = st(f"classes.partition_with_edges.{kind}")
        for quantity, value, unit in (("busy_s", part.busy_s, "s"),
                                      ("edges", part.counts.get("edges", 0), "count"),
                                      ("classes", part.counts.get("classes", 0), "count")):
            out[f"classes.partition_with_edges.{kind}.{quantity}"] = (
                value, unit, "classes.partition_with_edges")
    shape = st("classes.braid_class_shape")
    out["classes.braid_class_shape.calls"] = (shape.calls, "count", "classes.braid_class_shape")
    out["classes.braid_class_shape.busy_s"] = (shape.busy_s, "s", "classes.braid_class_shape")
    out["scan.checks.self_s"] = (verify.self_s, "s", "scan.verify_permutation")
    out["graphs.jump_property.busy_s"] = (st("graphs.jump_property").busy_s, "s", "graphs.jump_property")
    for name in ("build_word_graph", "contract", "build_gamma", "build_table"):
        s = st(f"graphs.{name}")
        out[f"graphs.{name}.calls"] = (s.calls, "count", f"graphs.{name}")
        out[f"graphs.{name}.busy_s"] = (s.busy_s, "s", f"graphs.{name}")
    word_graph = st("graphs.build_word_graph")
    for key in ("class_view_calls", "gamma_calls"):
        out[f"graphs.build_word_graph.{key}"] = (
            word_graph.counts.get(key, 0), "count", "graphs.build_word_graph")
    for name in ("upper_predicate", "lower_predicate_pattern", "lower_pattern_from_words"):
        label = f"characterizations.{name}"
        out[f"{label}.busy_s"] = (st(label).busy_s, "s", label)
    label = "weak_order.interval_by_closure"
    out[f"{label}.calls"] = (closure.calls, "count", label)
    out[f"{label}.busy_s"] = (closure.busy_s, "s", label)
    out[f"{label}.elements"] = (closure.counts.get("elements", 0), "count", label)
    out[f"{label}.calls_per_perm"] = (ratio(closure.calls, perms), "calls/perm", label)
    for name in ("conjecture_predicate", "interval"):
        label = f"weak_order.{name}"
        out[f"{label}.busy_s"] = (st(label).busy_s, "s", label)
    out["scan.output.busy_s"] = (output_s, "s", "scan.output")
    out["scan.output.bytes"] = (st("scan.output").counts.get("bytes", 0), "B", "scan.output")
    # The CLI runs in one process and has no pool: its efficiency reads 0.
    out["scan.pool.efficiency"] = (
        ratio(verify.busy_s, 2 * pool_wall) if pool_wall else 0.0, "ratio", "scan.verify_permutation")
    out["scan.slowest_perm_s"] = (verify.max_s, "s", "scan.verify_permutation")
    runs = {sub: st(f"cli.run.{sub}") for sub in ("words", "classes", "table", "graph", "check", "interval")}
    for sub, s in runs.items():
        out[f"cli.run.{sub}.calls"] = (s.calls, "count", "cli.run")
        out[f"cli.run.{sub}.busy_s"] = (s.busy_s, "s", "cli.run")
    out["cli.format.self_s"] = (sum(s.self_s for s in runs.values()), "s", "cli.run")
    out["tracing.overhead_s"] = (overhead_s, "s", None)
    return {
        name: ("missing" if label in tracer.missing else value, unit)
        for name, (value, unit, label) in out.items()
    }


# --------------------------------------------------------------------------
# Command line


def measure_setup(workload, seed: int) -> tuple[list[float], dict, object]:
    """Import plus input generation, SETUP_REPEATS times; the last one is used.

    Each repeat starts from a collected heap, as an import in a fresh process
    does.  Otherwise the modules a repeat replaces are garbage cycles, and
    whether a full collection of them lands inside a repeat moves its time
    by about as much as the import itself takes.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        mods = load_package()
        inputs = workload.make_inputs(mods, seed)
        times.append(time.perf_counter() - start)
    return times, mods, inputs


def run(args) -> tuple[list[Unit], dict, list[str]]:
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed)
    setup, mods, inputs = measure_setup(workload, args.seed)
    summary: list[str] = []
    WORK.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if not args.trace:
            units: list[Unit] = []
            begin = time.perf_counter()
            while True:
                start = time.perf_counter()
                units.append(workload.run(mods, inputs, run_dir, workers=2))
                if len(units) == 1:
                    peak_mb = peak_rss_mb()
                last = time.perf_counter() - start
                if time.perf_counter() - begin + last > args.seconds:
                    break
            return units, end_to_end(units, setup, peak_mb, summary), summary
        is_scan = isinstance(workload, ScanWorkload)
        pool = workload.run(mods, inputs, run_dir, workers=2) if is_scan else None
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = workload.run(mods, inputs, run_dir, workers=1, tracer=tracer)
        finally:
            tracer.remove()
        units = [u for u in (pool, traced) if u is not None]
        spans = sum(stat.calls for stat in tracer.stats.values())
        span_cost = layers.span_cost_s()
        if tracer.missing:
            summary.append(f"missing layers: {', '.join(sorted(tracer.missing))}")
        summary.append(f"traced wall {traced.wall_s:.3f} s; {spans} spans at "
                       f"{span_cost * 1e6:.3f} us each")
        metrics = per_layer(
            tracer,
            perms=traced.attempted,
            pool_wall=pool.wall_s if pool else None,
            overhead_s=spans * span_cost,
            output_s=traced.output_s,
        )
        return units, metrics, summary
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "redwords" / "__init__.py").is_file():
        print(f"perfbench: no redwords package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        units, metrics, summary = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems = [p for u in units for p in u.problems]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(units)} run(s) of the workload")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    for line in summary:
        print(f"  {line}")
    if units[0].nonconforming:
        print(f"  finding: braid_nonconforming_count = {units[0].nonconforming} "
              "(the 2^x 3^y braid-class model fails from n = 5 on)")
    print(f"  failed_share = {failed / attempted:.6f} ({failed} of {attempted})")
    for problem in problems[:10]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
