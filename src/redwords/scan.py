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
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import permutations as _lex_windows

from .characterizations import (
    count_lower,
    count_upper,
    lower_pattern_from_words,
    lower_predicate_pattern,
    upper_predicate,
)
from .classes import braid_class_shape, odd_components, path_product_edge_count
from .coxeter_moves import BRAID, COMMUTATION
from .errors import InvariantViolation, WordCapExceeded
from .graphs import analyse
from .permutation import Permutation
from .reduced_words import DEFAULT_WORD_CAP, count_words
from .weak_order import AGREE, SKIPPED, classify_conjecture, interval_by_closure

SCHEMA_VERSION = 1

# Check groups that need R(w) enumerated: "classes" (shape and structure of
# every braid class, cell uniqueness), "graphs" (connectivity, bipartiteness,
# jump property), "bounds" (the two bounds plus all achiever equivalences),
# "conjecture" (circuit-freeness against the weak-order conditions).
# "weak_order" only computes width and support, via the closure interval.
CHECK_GROUPS = ("classes", "graphs", "bounds", "weak_order", "conjecture")
_ENUMERATING = frozenset(("classes", "graphs", "bounds", "conjecture"))


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
        obj.update(
            schema=SCHEMA_VERSION,
            type="record",
            window=list(self.window),
            violations=list(self.violations),
        )
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
        return {
            "schema": SCHEMA_VERSION,
            "type": "report",
            "n": self.n,
            "total": self.total,
            "checks": list(self.checks),
            "word_cap": self.word_cap,
            "upper_achiever_count": self.upper_achiever_count,
            "lower_achiever_count": self.lower_achiever_count,
            "skipped_count": self.skipped_count,
            "violation_count": self.violation_count,
            "braid_nonconforming_count": len(self.braid_nonconforming),
            "braid_nonconforming": [list(win) for win in self.braid_nonconforming],
            "conjecture_counterexamples": [
                list(win) for win in self.conjecture_counterexamples
            ],
            "closed_form_upper": self.closed_form_upper,
            "closed_form_lower": self.closed_form_lower,
            "closed_form_match": self.closed_form_match,
        }

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
) -> ScanRecord:
    """Run every selected check on one permutation; violations are recorded."""
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

    iv = None
    if "weak_order" in checks or "conjecture" in checks:
        iv = interval_by_closure(w)
        common.update(width=iv.width, support_size=iv.support_size)

    if not (checks & _ENUMERATING):
        return ScanRecord(**common)

    try:
        an = analyse(w, cap=word_cap)
    except WordCapExceeded:
        return ScanRecord(
            **common,
            skipped="cap",
            conjecture_status=SKIPPED if "conjecture" in checks else None,
        )

    ws = an.word_set
    bp, b_edges = an.partition(BRAID), an.edges(BRAID)
    cp, c_edges = an.partition(COMMUTATION), an.edges(COMMUTATION)
    r, b, c = len(ws), len(bp), len(cp)
    bc = bp.class_of
    cc = cp.class_of

    # One word per (braid class, commutation class) pair is the orthogonality
    # theorem; the pair set doubles as the edge set of Gamma(w) and as the
    # filled cells of the intersection table.
    pairs = an.pairs
    if len(pairs) != r:
        violations.append(f"some braid and commutation class share {r - len(pairs) + 1} words")
    gamma_connected = an.gamma_connected
    circuit_free = an.circuit_free

    braid_shape_conforming = None
    if "classes" in checks:
        ell = w.length()
        class_edge_count = [0] * b
        for u, v in b_edges:
            if bc[u] != bc[v]:
                violations.append("a braid move crossed braid classes")
            class_edge_count[bc[u]] += 1
        # Shape conformance is a finding, not an invariant: cascading braid
        # moves make some classes longer presentation paths than the
        # 2^x 3^y model from n = 5 on.
        braid_shape_conforming = True
        for k in range(b):
            try:
                shape = braid_class_shape(bp.class_words(k), ell)
            except InvariantViolation:
                braid_shape_conforming = False
                continue
            if class_edge_count[k] != path_product_edge_count(shape.x, shape.y):
                braid_shape_conforming = False
        # Braid classes are the components of the braid edges, so each class
        # that is not bipartite is one odd component.
        for root in odd_components(r, b_edges):
            violations.append(f"braid class {bc[root]} is not bipartite")

    if "graphs" in checks:
        if not gamma_connected:
            violations.append("Gamma(w) (equivalently G(w)) is disconnected")
        if odd_components(c, ((cc[u], cc[v]) for u, v in b_edges)):
            violations.append("G_c(w) is not bipartite")
        if odd_components(b, ((bc[u], bc[v]) for u, v in c_edges)):
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
            violations.append("upper bound achieved but neither class count is 1")
        if achieves_upper != upper_pred:
            violations.append("upper achiever does not match the window predicate")
        if fully_commutative != (c == 1):
            violations.append("321-avoidance does not match c = 1")
        if single_braid != (b == 1):
            violations.append("pairwise-sharing inversions does not match b = 1")
        if achieves_lower != circuit_free:
            violations.append("lower bound achieved but Gamma(w) is not a tree")
        if achieves_lower != lower_pred:
            violations.append("lower achiever does not match the template predicate")
        if achieves_lower != lower_pattern_from_words(ws):
            violations.append("lower achiever does not match the word-level templates")
        if achieves_upper and not achieves_lower:
            violations.append("upper achiever fails the lower bound")

    conjecture_status = None
    if "conjecture" in checks:
        conjecture_status = classify_conjecture(iv.predicts_circuit_free, circuit_free)

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


def _verify_window(args: tuple) -> ScanRecord:
    window, checks, word_cap = args
    return verify_permutation(
        Permutation(window), checks=frozenset(checks), word_cap=word_cap
    )


def _verify_batch(batch: list[tuple]) -> list[ScanRecord]:
    return [_verify_window(args) for args in batch]


def _costliest_first(args: list[tuple], workers: int) -> list[list[tuple]]:
    """Split the work into batches that hand the longest permutations out first.

    r(w) grows steeply with the length of w (w0 of S_6 alone is about a third
    of the scan), so a long permutation left in a late chunk would end the run
    on one worker while the others idle.  Sorting by length, longest first,
    and starting with one permutation per batch lets the pool balance the
    costly ones; the sizes then double, one batch per worker at each size, up
    to 1/(8 * workers) of the permutations.
    """
    order = sorted(args, key=lambda a: -Permutation(a[0]).length())
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

    Re-running against an existing output file reuses its records (matched by
    window and n) instead of recomputing them; the file is rewritten whole so
    that the result is identical to a fresh run.
    """
    n = options.n
    windows = list(_lex_windows(range(1, n + 1)))
    existing = _load_existing(options)
    todo = [win for win in windows if win not in existing]

    computed: list[ScanRecord] = []
    if todo:
        args = [(win, tuple(sorted(options.checks)), options.word_cap) for win in todo]
        if options.workers > 1 and len(todo) > 1:
            with ProcessPoolExecutor(max_workers=options.workers) as pool:
                batches = _costliest_first(args, options.workers)
                computed = [
                    rec for recs in pool.map(_verify_batch, batches) for rec in recs
                ]
        else:
            computed = [_verify_window(a) for a in args]

    by_window = dict(existing)
    for rec in computed:
        by_window[rec.window] = rec
    records = tuple(by_window[win] for win in windows)

    counterexamples = tuple(
        rec.window
        for rec in records
        if rec.conjecture_status not in (None, AGREE, SKIPPED)
    )
    report = ScanReport(
        n=n,
        total=len(records),
        checks=tuple(sorted(options.checks)),
        word_cap=options.word_cap,
        upper_achiever_count=sum(1 for rec in records if rec.upper_predicate),
        lower_achiever_count=sum(1 for rec in records if rec.lower_predicate),
        skipped_count=sum(1 for rec in records if rec.skipped),
        violation_count=sum(len(rec.violations) for rec in records),
        braid_nonconforming=tuple(
            rec.window for rec in records if rec.braid_shape_conforming is False
        ),
        conjecture_counterexamples=counterexamples,
        closed_form_upper=count_upper(n),
        closed_form_lower=count_lower(n),
        closed_form_match=(
            sum(1 for rec in records if rec.upper_predicate) == count_upper(n)
            and sum(1 for rec in records if rec.lower_predicate) == count_lower(n)
        ),
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
    path = options.output_path
    if not path or not os.path.exists(path):
        return {}
    out: dict[tuple[int, ...], ScanRecord] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # a partial final line from an interrupted run
            if obj.get("type") == "report":
                continue
            if (
                obj.get("type") == "record"
                and obj.get("schema") == SCHEMA_VERSION
                and obj.get("n") == options.n
            ):
                try:
                    rec = ScanRecord.from_json_obj(obj)
                except (KeyError, TypeError):
                    continue
                out[rec.window] = rec
    # Only reuse records whose field shape matches what the current checks
    # and cap would produce, so a resumed run stays byte-identical to a
    # fresh one.
    wants_enum = bool(options.checks & _ENUMERATING)
    wants_weak = bool(options.checks & {"weak_order", "conjecture"})
    wants_conj = "conjecture" in options.checks
    wants_classes = "classes" in options.checks
    for rec in out.values():
        has_enum = rec.r is not None or rec.skipped == "cap"
        has_weak = rec.width is not None
        has_conj = rec.conjecture_status is not None
        has_classes = rec.braid_shape_conforming is not None
        if has_enum != wants_enum or has_weak != wants_weak or has_conj != wants_conj:
            return {}
        if not rec.skipped and has_classes != wants_classes:
            return {}
        if rec.r is not None and rec.r > options.word_cap:
            return {}  # computed under a larger cap than the current one
        if rec.skipped == "cap" and count_words(Permutation(rec.window)) <= options.word_cap:
            return {}  # skipped under a smaller cap than the current one
    return out
