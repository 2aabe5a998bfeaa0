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

Records travel as their lines.  Each batch of work comes back from the
process that verified it as its records' finished JSON lines, encoded as
``ScanReport.lines`` writes them, and one tally of what the report counts:
the predicate and skip counts, each violation, the braid-nonconforming
windows and the conjecture counterexamples, with windows named by the index
that travels with each work item.  This process puts each line at its
window's index, sums the tallies and writes the lines, so it encodes no
record it computed and holds no ``ScanRecord`` of one;
``ScanReport.records`` decodes the lines on first read.  One worker runs
the same batches in this process.  The weak-order scan of S_9 at 2 workers
on 2 vCPUs takes 11.0-11.8 s, with a peak of 293 MB in this process,
against 13.8-15.2 s and 318-322 MB when this process encoded every record
after the last batch.

Braid-class shape conformance (size 2^x 3^y with the matching path-product
edge count) is tallied as a finding rather than enforced: braid moves can
cascade along staircase factors such as 1213243, so from n = 5 on some
classes are longer presentation paths than that model allows.  The scan
reports every nonconforming class; connectivity and bipartiteness of the
classes themselves are still enforced.

Bipartiteness of G_c(w), of G_b(w) and of every braid class is certified
without a class graph.  A reduced word lists the inversions of w in some
order; p_b and p_c, the parities of the disjoint and of the overlapping
inversion pairs it lists in reverse (``WordSet.parities``), are flipped by
a commutation move and by a braid move respectively and kept by the other.
Each word's bits are the XOR of constants along its letters, so checking
the moves at position 0 of every element of [e, w] checks every move edge
of R(w) (``reduced_words.certify_parities``); no move edge is built for it.
When it holds, p_c 2-colours each braid class, and p_b (p_c), if constant
on each braid (commutation) class, 2-colours G_b (G_c).  Where it fails,
every move edge of the failing kind is tested and the odd components of
the bipartite double cover decide, so each verdict stays exact, and a move
that breaks its parity is a ``graphs`` violation naming its two words.  The
certificate holds on every element of S_1-S_8.  Each process of a scan
keeps the elements it has certified, so it walks each element of S_n at
most once per scan: about 6 ms at n = 6 and 0.4 s at n = 8 when the first
analysed interval is all of S_n.

A pooled scan whose checks enumerate R(w) imports the word engine, and with
it numpy, in this process before the pool forks, so that the workers inherit
it instead of each importing it (0.13-0.17 s apiece).  Only fork hands it
on, so on Linux that pool is pinned to fork whatever the interpreter's
default (forkserver from Python 3.14); elsewhere it keeps the default and
its workers import the engine themselves.  No other scan loads numpy.  The
braid move edges come from the ranks of the enumeration walk
(``classes.move_edges``), and the commutation classes from pointers to
their normal forms (``classes.commutation_partition``), so the scan builds
no commutation move edge.  On 2 vCPUs every check on all of S_7 at 2
workers takes 20-21 s with a peak of 221-228 MB per worker, against 31-34 s
and 431-432 MB when the commutation classes were the components of their
move edges, in alternating runs.

A scan that enumerates R(w) analyses it once per symmetry orbit {w, w^-1,
w0 w w0, w0 w^-1 w0}: 230 orbits for the 720 permutations of S_6, 1,388 for
the 5,040 of S_7.  Word reversal and the letter substitution i -> n-i map
R(w) one-to-one onto R(v) for each v of the orbit, and send braid moves to
braid moves and commutation moves to commutation moves, so the partitions,
their move graphs and Gamma(w) of v are those of w, relabelled.  The fields
read from the one shared analysis are therefore those of every window of
the orbit: ``skipped`` (r is the same), ``r``, ``b``, ``c``,
``achieves_upper``, ``achieves_lower``, ``circuit_free``,
``braid_shape_conforming`` (class sizes and the length are the same) and the
circuit-freeness that ``conjecture_status`` compares with the prediction.
The word-level template test reads the shared words and is the same too,
since it tries the four images of every word.  Every window-level field,
and every bound check that compares one with r, b and c, is computed per
window.  A violation message may name a class id, which depends on the
order of one window's words, so a window to which the shared analysis gives
any violation is verified again with its own: every record is the one that
``verify_permutation(w)`` gives alone.  Scans with ``weak_order`` or no
checks never group windows.

The weak-order columns never enumerate R(w).  ``support_size`` is read off
the window.  Every ``width`` comes from one ``interval_widths`` pass over
S_n, made once per scan, in a pool worker when there is a pool, while this
process orders the permutations.  On 2 vCPUs the pass alone takes 0.5-0.6 s
and 28 MB for n = 8, 6.1-7.2 s and 128 MB for n = 9, and 77-86 s and
1.19 GB for n = 10.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain
from itertools import permutations as _lex_windows
from typing import TYPE_CHECKING, Iterable, Iterator

from .characterizations import (
    count_lower,
    count_upper,
    lower_pattern_from_words,
    lower_predicate_pattern,
    upper_predicate,
)
from .coxeter_moves import BRAID, COMMUTATION
from .errors import InvariantViolation, WordCapExceeded
from .permutation import MAX_N, Permutation, inversion_count, lazy
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

if TYPE_CHECKING:
    from .graphs import Analysis

SCHEMA_VERSION = 1

# Check groups that need R(w) enumerated: "classes" (shape and structure of
# every braid class, cell uniqueness), "graphs" (connectivity, bipartiteness,
# jump property), "bounds" (the two bounds plus all achiever equivalences),
# "conjecture" (circuit-freeness against the weak-order conditions).
# "weak_order" only computes width and support, neither from R(w).
CHECK_GROUPS = ("classes", "graphs", "bounds", "weak_order", "conjecture")
_ENUMERATING = frozenset(("classes", "graphs", "bounds", "conjecture"))
_NEED_WIDTH = frozenset(("weak_order", "conjecture"))


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
        """The record's JSON object, its keys already in canonical order."""
        obj = {**vars(self), "schema": SCHEMA_VERSION, "type": "record"}
        return {key: obj[key] for key in _RECORD_KEYS}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScanRecord":
        values = {f.name: obj[f.name] for f in fields(cls)}
        values.update(window=tuple(values["window"]), violations=tuple(values["violations"]))
        return cls(**values)


_RECORD_KEYS = tuple(sorted([f.name for f in fields(ScanRecord)] + ["schema", "type"]))
# Encodes a record object, whose keys are already sorted, as _canonical does.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


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
    # One encoded line per permutation, in window order, each ending in a
    # newline; ``records`` decodes them.
    record_lines: tuple[str, ...] = field(repr=False)

    @lazy
    def records(self) -> tuple[ScanRecord, ...]:
        """The records, decoded from their lines on first read."""
        return tuple(ScanRecord.from_json_obj(json.loads(line)) for line in self.record_lines)

    def to_json_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "record_lines"}
        obj.update(
            schema=SCHEMA_VERSION,
            type="report",
            braid_nonconforming_count=len(self.braid_nonconforming),
        )
        return obj

    def lines(self) -> Iterator[str]:
        """The JSON Lines output one line at a time, each ending in a newline."""
        yield from self.record_lines
        yield _canonical(self.to_json_obj()) + "\n"

    def jsonl(self) -> str:
        return "".join(self.lines())


def _canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def verify_permutation(
    w: Permutation,
    checks: frozenset[str] = frozenset(CHECK_GROUPS),
    word_cap: int = DEFAULT_WORD_CAP,
    width: int | None = None,
    analysis: Analysis | WordCapExceeded | None = None,
) -> ScanRecord:
    """Run every selected check on one permutation; violations are recorded.

    ``width`` is the width of [e, w] when the caller already has it;
    otherwise it comes from the closure interval, if a check needs it.
    ``analysis`` is the analysis of R(v) for some v in the symmetry orbit of
    w (see ``_verify_orbit``), or the WordCapExceeded that building it
    raised; by default R(w) itself is analysed, if a check needs it.
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

    an = _analyse(w, word_cap) if analysis is None else analysis
    if isinstance(an, WordCapExceeded):
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
        for kind, flips, keeps in ((COMMUTATION, "p_b", "p_c"), (BRAID, "p_c", "p_b")):
            move = an.parity_break(kind)
            if move is not None:
                violations.append(
                    f"the {kind} move {move[0]} - {move[1]} does not flip {flips} and keep {keeps}"
                )
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


def _analyse(
    w: Permutation, word_cap: int, certified: set | None = None
) -> Analysis | WordCapExceeded:
    """The analysis of R(w), or the WordCapExceeded that its size raises;
    ``certified`` as in ``graphs.Analysis``."""
    # The graph modules load numpy, which an enumeration-free scan never needs.
    from .graphs import analyse

    try:
        return analyse(w, cap=word_cap, certified=certified)
    except WordCapExceeded as exc:
        # Without its traceback the exception holds no frame of the count.
        return exc.with_traceback(None)


class _Tally:
    """What the report reads of some records, windows named by their index:
    the predicate and skip counts, each violation, and the windows outside
    the braid-shape model and against the conjecture.  A plain class, since
    a dataclass costs about 0.7 ms of every import of this module."""

    def __init__(self) -> None:
        self.upper = self.lower = self.skipped = 0
        self.violations: list[tuple[int, str]] = []
        self.nonconforming: list[int] = []
        self.counterexamples: list[int] = []

    def add(self, k: int, rec: ScanRecord) -> None:
        self.upper += rec.upper_predicate
        self.lower += rec.lower_predicate
        self.skipped += rec.skipped is not None
        self.violations += [(k, violation) for violation in rec.violations]
        if rec.braid_shape_conforming is False:
            self.nonconforming.append(k)
        if rec.conjecture_status not in (None, AGREE, SKIPPED):
            self.counterexamples.append(k)

    def merge(self, other: _Tally) -> None:
        self.upper += other.upper
        self.lower += other.lower
        self.skipped += other.skipped
        self.violations += other.violations
        self.nonconforming += other.nonconforming
        self.counterexamples += other.counterexamples


def _encoded(indexed: Iterable[tuple[int, ScanRecord]]) -> tuple[list[str], _Tally]:
    """The lines of (window index, record) pairs, in their order, each ending
    in a newline, and their tally.  Every record of the output is encoded
    here, whether computed or resumed."""
    encode = _COMPACT.encode
    lines, tally = [], _Tally()
    for k, rec in indexed:
        lines.append(encode(rec.to_json_obj()) + "\n")
        tally.add(k, rec)
    return lines, tally


def _verify_batch(
    checks: frozenset[str], word_cap: int, batch: list[tuple]
) -> tuple[list[str], _Tally]:
    """The lines of one batch of work, every record under the same checks and
    cap, in the order of its windows, and their tally.

    A work item is an (index, window, width) triple, or, when the checks
    enumerate R(w), the tuple of such triples of one symmetry orbit.  Only
    the lines and the tally travel back to the scan's process, which never
    holds a ``ScanRecord`` of a computed window.
    """
    verify = partial(verify_permutation, checks=checks, word_cap=word_cap)
    if not checks & _ENUMERATING:
        return _encoded(
            (k, verify(Permutation(window), width=width)) for k, window, width in batch
        )
    return _encoded(pair for orbit in batch for pair in _verify_orbit(verify, word_cap, orbit))


# The elements of S_n whose moves this process has certified to keep their
# parities in the current scan (``reduced_words.certify_parities``), so that
# each process walks an element once per scan, not once per interval that
# holds it: set by ``_start_certifying`` in this process and in each pool
# worker when a scan starts, and dropped here when it ends.
_certified: set | None = None


def _start_certifying() -> None:
    global _certified
    _certified = set()


def _verify_orbit(verify, word_cap: int, orbit: tuple) -> Iterator[tuple[int, ScanRecord]]:
    """(index, record) of the (index, window, width) triples of one orbit.

    R(w) is analysed once, for the first window, and every window of the
    orbit is verified against that analysis, which is freed when the last
    record is taken, before the next orbit's is built.  A window to which
    the shared analysis gives any violation is verified again with its own,
    so that its messages, which may name class ids, are those of an
    unreduced scan.
    """
    perms = [Permutation(window) for _, window, _ in orbit]
    shared = _analyse(perms[0], word_cap, _certified)
    for w, (k, _, width) in zip(perms, orbit):
        rec = verify(w, width=width, analysis=shared)
        if rec.violations and w is not perms[0]:
            rec = verify(w, width=width)
        yield k, rec


def _longest_first(windows: list[tuple[int, ...]], todo: list[int]) -> list[int]:
    """The indices in ``todo`` of the windows, the longest permutations first.

    r(w) grows steeply with the length of w (w0 of S_6 alone is about a third
    of the scan), so a long permutation left in a late batch would end the
    run on one worker while the others idle.
    """
    return sorted(todo, key=lambda k: -inversion_count(windows[k]))


def _orbits(windows: list[tuple[int, ...]], order: list[int]) -> list[list[int]]:
    """The indices in ``order`` grouped by symmetry orbit, in ``order``.

    The orbit of w is {w, w^-1, w0 w w0, w0 w^-1 w0}.  Its members have one
    length, so orbits of work in ``_longest_first`` order stay longest first.
    """
    orbits: dict[tuple[int, ...], list[int]] = {}
    for k in order:
        w = Permutation(windows[k])
        v = w.inverse()
        key = min(w.window, v.window, w.complement().window, v.complement().window)
        orbits.setdefault(key, []).append(k)
    return list(orbits.values())


def _costliest_first(order: list, workers: int, total: int | None = None) -> list[list]:
    """Split work items already in ``_longest_first`` order into batches.

    Starting with one item per batch lets the pool balance the costly ones;
    the sizes then double, one batch per worker at each size, up to
    1/(8 * workers) of ``total``, the number of permutations the items hold
    (by default one each).
    """
    cap = max(1, (len(order) if total is None else total) // (workers * 8))
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
    the file is rewritten whole, one line at a time, so that the result is
    identical to a fresh run.  An output path that cannot be written raises
    OSError before the first permutation is computed, not after the last.
    """
    global _certified
    _start_certifying()
    try:
        return _scan(options)
    finally:
        _certified = None


def _scan(options: ScanOptions) -> ScanReport:
    n = options.n
    windows = list(_lex_windows(range(1, n + 1)))
    existing = _load_existing(options)
    if options.output_path:
        open(options.output_path + ".tmp", "w", encoding="utf-8").close()
    # Each line goes to the index of its window; resumed records are encoded
    # here, computed ones in whichever process verifies them.  Each resumed
    # record is dropped once encoded, so the records and their lines are
    # never all held together.
    lines: list[str | None] = [None] * len(windows)
    resumed = [k for k, win in enumerate(windows) if win in existing]
    encoded, tally = _encoded((k, existing.pop(windows[k])) for k in resumed)
    for k, line in zip(resumed, encoded):
        lines[k] = line
    del existing, encoded
    todo = [k for k, line in enumerate(lines) if line is None]

    # The pool forks all its workers at the first task, and workers beyond
    # the core count add memory but no speed, so at most one per core starts.
    workers = min(options.workers, os.cpu_count() or 1)
    pooled = workers > 1 and len(todo) > 1
    context = None
    if pooled and options.checks & _ENUMERATING and sys.platform == "linux":
        # The word engine and numpy, loaded once here, are inherited by every
        # forked worker instead of imported again in each.  Only fork passes
        # them on, and Python 3.14 makes forkserver the default, so the pool
        # is pinned to fork; elsewhere the workers import them as before.
        from . import graphs  # noqa: F401

        context = multiprocessing.get_context("fork")
    pool_context = (
        ProcessPoolExecutor(workers, mp_context=context, initializer=_start_certifying)
        if pooled
        else nullcontext()
    )
    grouped = bool(options.checks & _ENUMERATING)
    with pool_context as pool:
        mapper = pool.map if pool else map
        # With a pool the pass runs in a worker, so its polynomials never add
        # to the peak of this process, which holds every line; pool.map
        # submits it at once, and this process sorts while it runs.
        pending = mapper(interval_widths, [n]) if options.checks & _NEED_WIDTH and todo else None
        order = _longest_first(windows, todo)
        orbits = _orbits(windows, order) if grouped else None
        widths = next(pending) if pending else None

        def item(k: int) -> tuple[int, tuple[int, ...], int | None]:
            return k, windows[k], None if widths is None else widths[k]

        items = [tuple(map(item, orbit)) for orbit in orbits] if grouped else list(map(item, order))
        batches = _costliest_first(items, workers, len(order))
        verify = partial(_verify_batch, options.checks, options.word_cap)
        for batch, (batch_lines, batch_tally) in zip(batches, mapper(verify, batches)):
            triples = chain.from_iterable(batch) if grouped else batch
            for (k, _, _), line in zip(triples, batch_lines):
                lines[k] = line
            tally.merge(batch_tally)

    violations = sorted(tally.violations, key=lambda kv: kv[0])
    report = ScanReport(
        n=n,
        total=len(windows),
        checks=tuple(sorted(options.checks)),
        word_cap=options.word_cap,
        upper_achiever_count=tally.upper,
        lower_achiever_count=tally.lower,
        skipped_count=tally.skipped,
        violation_count=len(violations),
        braid_nonconforming=tuple(windows[k] for k in sorted(tally.nonconforming)),
        conjecture_counterexamples=tuple(windows[k] for k in sorted(tally.counterexamples)),
        closed_form_upper=count_upper(n),
        closed_form_lower=count_lower(n),
        closed_form_match=tally.upper == count_upper(n) and tally.lower == count_lower(n),
        record_lines=tuple(lines),
    )

    if options.output_path:
        tmp = options.output_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(report.lines())
        os.replace(tmp, options.output_path)

    if violations:
        examples = [f"{list(windows[k])}: {violation}" for k, violation in violations[:5]]
        raise InvariantViolation(
            f"scan of S_{n} found {report.violation_count} violations of proved "
            "statements, e.g. " + "; ".join(examples)
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
