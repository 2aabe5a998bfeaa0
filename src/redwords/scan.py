"""Exhaustive per-n verification harness.

For every w in S_n this recomputes the word set, both class partitions, and
every proved statement about them, tallies the bound achievers against the
closed-form counts, and tests the weak-order conjecture.  Output is JSON
Lines: one record per permutation in lexicographic window order, then one
report object.  Records are pure functions of (window, checks, word_cap), so
the output is byte-identical across runs and worker counts.

A violated theorem aborts the scan with a diagnostic after the output is
written; a conjecture mismatch is only collected.  Permutations whose word
set exceeds the cap are recorded as skipped, but the achiever tallies use
the enumeration-free predicates and therefore remain exact.

Braid-class shape conformance (size 2^x 3^y with the matching path-product
edge count) is tallied as a finding rather than enforced: braid moves can
cascade along staircase factors such as 1213243, so from n = 5 on some
classes are longer presentation paths than that model allows.  The scan
reports every nonconforming class; connectivity and bipartiteness of the
classes themselves are still enforced.

The weak-order columns never enumerate R(w).  ``support_size`` is read off
the window.  For n <= WIDTH_PASS_MAX_N every ``width`` comes from one
``interval_widths`` pass up the weak order, made once per scan, in a pool
worker when there is a pool; that worker peaks at 51 MB for n = 8 and
1.77 GB for n = 9.  For n = 10 each width comes from the permutation's own
closure interval.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import permutations as _lex_windows

from .characterizations import (
    count_lower,
    count_upper,
    lower_pattern_from_words,
    lower_predicate_pattern,
    upper_predicate,
)
from .coxeter_moves import BRAID, COMMUTATION
from .errors import InvariantViolation, WordCapExceeded
from .permutation import MAX_N, Permutation, inversion_count
from .reduced_words import DEFAULT_WORD_CAP
from .weak_order import (
    AGREE,
    SKIPPED,
    classify_conjecture,
    interval_by_closure,
    interval_widths,
    predicts_circuit_free,
    support,
)

SCHEMA_VERSION = 1

# Check groups that need R(w) enumerated: "classes" (shape and structure of
# every braid class, cell uniqueness), "graphs" (connectivity, bipartiteness,
# jump property), "bounds" (the two bounds plus all achiever equivalences),
# "conjecture" (circuit-freeness against the weak-order conditions).
# "weak_order" only computes width and support, neither from R(w).
CHECK_GROUPS = ("classes", "graphs", "bounds", "weak_order", "conjecture")
_ENUMERATING = frozenset(("classes", "graphs", "bounds", "conjecture"))
_NEED_WIDTH = frozenset(("weak_order", "conjecture"))

# The largest n whose scan takes every interval width from one
# weak_order.interval_widths pass instead of one closure per permutation.
# The pass holds the bitsets of two adjacent ranks, one bit per permutation
# of S_n.  The pool worker that runs it peaked at 51 MB for n = 8 (1.7 s)
# and 1.77 GB for n = 9 (85 s) on 2 vCPUs; the bitsets of the two largest
# ranks come to 0.03 and 1.70 GB, and for n = 10 they would come to 146 GB,
# so there the scan keeps the closure.
WIDTH_PASS_MAX_N = 9


@dataclass(frozen=True)
class ScanOptions:
    n: int
    word_cap: int = DEFAULT_WORD_CAP
    checks: frozenset[str] = frozenset(CHECK_GROUPS)
    workers: int = 1
    output_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "checks", frozenset(self.checks))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.n > MAX_N:
            raise ValueError(f"n must be at most {MAX_N}")
        if self.word_cap < 1:
            raise ValueError("word_cap must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        unknown = self.checks - set(CHECK_GROUPS)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")


@dataclass(frozen=True)
class ScanRecord:
    n: int
    window: tuple[int, ...]
    length: int
    fully_commutative: bool
    single_braid_class: bool
    upper_predicate: bool
    lower_predicate: bool
    skipped: str | None = None
    r: int | None = None
    b: int | None = None
    c: int | None = None
    achieves_upper: bool | None = None
    achieves_lower: bool | None = None
    circuit_free: bool | None = None
    braid_shape_conforming: bool | None = None
    width: int | None = None
    support_size: int | None = None
    conjecture_status: str | None = None
    violations: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj.update(schema=SCHEMA_VERSION, type="record")
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScanRecord":
        values = {f.name: obj[f.name] for f in fields(cls)}
        values.update(window=tuple(values["window"]), violations=tuple(values["violations"]))
        return cls(**values)


@dataclass(frozen=True)
class ScanReport:
    n: int
    total: int
    checks: tuple[str, ...]
    word_cap: int
    upper_achiever_count: int
    lower_achiever_count: int
    skipped_count: int
    violation_count: int
    braid_nonconforming: tuple[tuple[int, ...], ...]
    conjecture_counterexamples: tuple[tuple[int, ...], ...]
    closed_form_upper: int
    closed_form_lower: int
    closed_form_match: bool
    records: tuple[ScanRecord, ...] = field(repr=False)

    def to_json_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        obj.update(
            schema=SCHEMA_VERSION,
            type="report",
            braid_nonconforming_count=len(self.braid_nonconforming),
        )
        return obj

    def jsonl(self) -> str:
        lines = [_canonical(rec.to_json_obj()) for rec in self.records]
        lines.append(_canonical(self.to_json_obj()))
        return "\n".join(lines) + "\n"


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def verify_permutation(
    w: Permutation,
    checks: frozenset[str] = frozenset(CHECK_GROUPS),
    word_cap: int = DEFAULT_WORD_CAP,
    width: int | None = None,
) -> ScanRecord:
    """Run every selected check on one permutation; violations are recorded.

    ``width`` is the width of [e, w] when the caller already has it;
    otherwise it comes from the closure interval, if a check needs it.
    """
    violations: list[str] = []
    fully_commutative = w.is_321_avoiding()
    single_braid = w.inversions_pairwise_share_letter()
    upper_pred = upper_predicate(w)
    lower_pred = lower_predicate_pattern(w)
    common = dict(
        n=w.n,
        window=w.window,
        length=w.length(),
        fully_commutative=fully_commutative,
        single_braid_class=single_braid,
        upper_predicate=upper_pred,
        lower_predicate=lower_pred,
    )

    if checks & _NEED_WIDTH:
        if width is None:
            width = interval_by_closure(w).width
        support_size = len(support(w))
        common.update(width=width, support_size=support_size)

    if not (checks & _ENUMERATING):
        return ScanRecord(**common)

    # The graph modules load numpy, which an enumeration-free scan never needs.
    from .graphs import analyse

    try:
        an = analyse(w, cap=word_cap)
    except WordCapExceeded:
        return ScanRecord(
            **common,
            skipped="cap",
            conjecture_status=SKIPPED if "conjecture" in checks else None,
        )

    ws = an.word_set
    r, b, c = len(ws), len(an.partition(BRAID)), len(an.partition(COMMUTATION))

    # One word per (braid class, commutation class) pair is the orthogonality
    # theorem; the pair set doubles as the edge set of Gamma(w) and as the
    # filled cells of the intersection table.
    pair_count = len(an.pairs)
    if pair_count != r:
        violations.append(f"some braid and commutation class share {r - pair_count + 1} words")
    gamma_connected = an.gamma_connected
    circuit_free = an.circuit_free

    braid_shape_conforming = None
    if "classes" in checks:
        violations += ["a braid move crossed braid classes"] * an.braid_crossings
        # Shape conformance is a finding, not an invariant: cascading braid
        # moves make some classes longer presentation paths than the
        # 2^x 3^y model from n = 5 on.
        braid_shape_conforming = an.braid_shapes_conform
        for k in an.odd_braid_classes:
            violations.append(f"braid class {k} is not bipartite")

    if "graphs" in checks:
        if not gamma_connected:
            violations.append("Gamma(w) (equivalently G(w)) is disconnected")
        if not an.class_graph_bipartite(COMMUTATION):
            violations.append("G_c(w) is not bipartite")
        if not an.class_graph_bipartite(BRAID):
            violations.append("G_b(w) is not bipartite")
        if not gamma_connected:
            violations.append("the intersection table fails the jump property")

    achieves_upper = r == b * c
    achieves_lower = r == b + c - 1

    if "bounds" in checks:
        if not b + c - 1 <= r <= b * c:
            violations.append(f"bounds failed: b={b} c={c} r={r}")
        if c == 1 and b != r:
            violations.append("c=1 but b != r")
        if b == 1 and c != r:
            violations.append("b=1 but c != r")
        if achieves_upper != (b == 1 or c == 1):
            violations.append("r = b * c does not match b = 1 or c = 1")
        if achieves_upper != upper_pred:
            violations.append("upper achiever does not match the window predicate")
        if fully_commutative != (c == 1):
            violations.append("321-avoidance does not match c = 1")
        if single_braid != (b == 1):
            violations.append("pairwise-sharing inversions does not match b = 1")
        if achieves_lower != circuit_free:
            violations.append("r = b + c - 1 does not match Gamma(w) being a tree")
        if achieves_lower != lower_pred:
            violations.append("lower achiever does not match the template predicate")
        if achieves_lower != lower_pattern_from_words(ws):
            violations.append("lower achiever does not match the word-level templates")
        if achieves_upper and not achieves_lower:
            violations.append("upper achiever fails the lower bound")

    conjecture_status = None
    if "conjecture" in checks:
        conjecture_status = classify_conjecture(
            predicts_circuit_free(w, width, support_size), circuit_free
        )

    return ScanRecord(
        **common,
        r=r,
        b=b,
        c=c,
        achieves_upper=achieves_upper,
        achieves_lower=achieves_lower,
        circuit_free=circuit_free,
        braid_shape_conforming=braid_shape_conforming,
        conjecture_status=conjecture_status,
        violations=tuple(violations),
    )


def _verify_batch(
    checks: frozenset[str], word_cap: int, batch: list[tuple[tuple[int, ...], int | None]]
) -> list[ScanRecord]:
    """Records of (window, width) pairs, every one under the same checks and cap."""
    return [
        verify_permutation(Permutation(window), checks=checks, word_cap=word_cap, width=width)
        for window, width in batch
    ]


def _costliest_first(items: list[tuple], workers: int) -> list[list[tuple]]:
    """Split the work into batches that hand the longest permutations out first.

    r(w) grows steeply with the length of w (w0 of S_6 alone is about a third
    of the scan), so a long permutation left in a late chunk would end the run
    on one worker while the others idle.  Sorting by length, longest first,
    and starting with one permutation per batch lets the pool balance the
    costly ones; the sizes then double, one batch per worker at each size, up
    to 1/(8 * workers) of the permutations.
    """
    order = sorted(items, key=lambda item: -inversion_count(item[0]))
    cap = max(1, len(order) // (workers * 8))
    batches, start, size = [], 0, 1
    while start < len(order):
        for _ in range(workers):
            if start < len(order):
                batches.append(order[start:start + size])
                start += size
        size = min(cap, 2 * size)
    return batches


def scan(options: ScanOptions) -> ScanReport:
    """Scan all of S_n, write JSON Lines if an output path is set, and report.

    Re-running against an existing output file of the same n, checks and
    cap reuses its records (matched by window) instead of recomputing them;
    the file is rewritten whole so that the result is identical to a fresh
    run.  An output path that cannot be written raises OSError before the
    first permutation is computed, not after the last.
    """
    n = options.n
    windows = list(_lex_windows(range(1, n + 1)))
    existing = _load_existing(options)
    if options.output_path:
        open(options.output_path + ".tmp", "w", encoding="utf-8").close()
    todo = [k for k, win in enumerate(windows) if win not in existing]
    width_pass = bool(options.checks & _NEED_WIDTH) and n <= WIDTH_PASS_MAX_N

    # The pool forks all its workers at the first task, and workers beyond
    # the core count add memory but no speed, so at most one per core starts.
    workers = min(options.workers, os.cpu_count() or 1)
    pooled = workers > 1 and len(todo) > 1
    with ProcessPoolExecutor(max_workers=workers) if pooled else nullcontext() as pool:
        mapper = pool.map if pool else map
        # With a pool the pass runs in a worker, so its bitsets never add to
        # the peak of this process, which holds every record.
        widths = next(mapper(interval_widths, [n])) if width_pass and todo else None
        items = [(windows[k], None if widths is None else widths[k]) for k in todo]
        verify = partial(_verify_batch, options.checks, options.word_cap)
        batches = _costliest_first(items, workers)
        computed = [rec for recs in mapper(verify, batches) for rec in recs]

    by_window = dict(existing)
    for rec in computed:
        by_window[rec.window] = rec
    records = tuple(by_window[win] for win in windows)

    counterexamples = tuple(
        rec.window
        for rec in records
        if rec.conjecture_status not in (None, AGREE, SKIPPED)
    )
    upper_count = sum(1 for rec in records if rec.upper_predicate)
    lower_count = sum(1 for rec in records if rec.lower_predicate)
    report = ScanReport(
        n=n,
        total=len(records),
        checks=tuple(sorted(options.checks)),
        word_cap=options.word_cap,
        upper_achiever_count=upper_count,
        lower_achiever_count=lower_count,
        skipped_count=sum(1 for rec in records if rec.skipped),
        violation_count=sum(len(rec.violations) for rec in records),
        braid_nonconforming=tuple(
            rec.window for rec in records if rec.braid_shape_conforming is False
        ),
        conjecture_counterexamples=counterexamples,
        closed_form_upper=count_upper(n),
        closed_form_lower=count_lower(n),
        closed_form_match=upper_count == count_upper(n) and lower_count == count_lower(n),
        records=records,
    )

    if options.output_path:
        tmp = options.output_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(report.jsonl())
        os.replace(tmp, options.output_path)

    if report.violation_count:
        examples = [
            f"{list(rec.window)}: {violation}"
            for rec in records
            for violation in rec.violations
        ]
        raise InvariantViolation(
            f"scan of S_{n} found {report.violation_count} violations of proved "
            "statements, e.g. " + "; ".join(examples[:5])
        )
    return report


def _load_existing(options: ScanOptions) -> dict[tuple[int, ...], ScanRecord]:
    """Records of an earlier run to reuse, keyed by window.

    Records are reused only from a file whose report line names the same n,
    the same checks and the same cap, since a record depends on all three;
    a file without a report line is not reused at all.
    """
    path = options.output_path
    if not path or not os.path.exists(path):
        return {}
    out: dict[tuple[int, ...], ScanRecord] = {}
    same_run = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # a partial final line from an interrupted run
            if obj.get("schema") != SCHEMA_VERSION or obj.get("n") != options.n:
                continue
            if obj.get("type") == "report":
                same_run = (
                    obj.get("checks") == sorted(options.checks)
                    and obj.get("word_cap") == options.word_cap
                )
            elif obj.get("type") == "record":
                try:
                    rec = ScanRecord.from_json_obj(obj)
                except (KeyError, TypeError):
                    continue
                out[rec.window] = rec
    return out if same_run else {}
