import hashlib
import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import redwords.graphs as graphs
from redwords.classes import ClassPartition, IndexPairs
from redwords.errors import InvariantViolation
from redwords.permutation import MAX_N, all_permutations, longest_element, parse_window
from redwords.reduced_words import BRAID, COMMUTATION, word_text
from redwords.scan import (
    ScanOptions,
    ScanRecord,
    scan,
    verify_permutation,
)
from redwords.weak_order import interval_by_closure

from word_moves import neighbors

reduced_words = importlib.import_module("redwords.reduced_words")
scan_module = importlib.import_module("redwords.scan")


def test_options_validation():
    with pytest.raises(ValueError):
        ScanOptions(n=0)
    with pytest.raises(ValueError):
        ScanOptions(n=MAX_N + 1)
    with pytest.raises(ValueError):
        ScanOptions(n=3, word_cap=0)
    with pytest.raises(ValueError):
        ScanOptions(n=3, workers=0)
    with pytest.raises(ValueError):
        ScanOptions(n=3, checks=frozenset({"everything"}))


def test_verify_permutation_25314():
    rec = verify_permutation(parse_window("[25314]"))
    assert (rec.r, rec.b, rec.c) == (6, 4, 2)
    assert rec.violations == ()
    assert rec.achieves_upper is False
    assert rec.achieves_lower is False
    assert rec.circuit_free is False
    assert rec.braid_shape_conforming is True
    assert rec.conjecture_status == "agree"


def test_verify_permutation_identity():
    rec = verify_permutation(parse_window("[123]"))
    assert (rec.r, rec.b, rec.c) == (1, 1, 1)
    assert rec.achieves_upper and rec.achieves_lower
    assert rec.fully_commutative and rec.single_braid_class


def test_verify_permutation_skips_at_cap():
    rec = verify_permutation(longest_element(5), word_cap=100)
    assert rec.skipped == "cap"
    assert rec.r is None
    assert rec.conjecture_status == "skipped"
    # enumeration-free fields are still present
    assert rec.upper_predicate is False
    assert rec.lower_predicate is False
    assert rec.width is not None


def test_longest_s7_is_skipped_at_default_cap():
    from redwords.reduced_words import count_words

    w0 = longest_element(7)
    assert count_words(w0) == 1_100_742_656
    rec = verify_permutation(w0)
    assert rec.skipped == "cap"


def _doctored(kind, class_of=None, edges=None):
    """Change, in every Analysis, the class ids or the move edges of one kind.

    ``class_of`` maps the word indices to the class ids that replace the
    true ones; ``edges`` maps the true move edges to the ones read instead.
    Both are changed at ``Analysis.partition`` and ``Analysis.edges``, which
    every answer reads, whichever route built them.
    """

    def doctor(monkeypatch):
        partition, read_edges = graphs.Analysis.partition, graphs.Analysis.edges

        def doctored_partition(an, k):
            part = partition(an, k)
            if k == kind and class_of is not None:
                part = ClassPartition(k, an.word_set, class_of(np.arange(len(an.word_set))))
            return part

        def doctored_edges(an, k):
            moves = read_edges(an, k)
            return edges(moves) if k == kind and edges is not None else moves

        monkeypatch.setattr(graphs.Analysis, "partition", doctored_partition)
        monkeypatch.setattr(graphs.Analysis, "edges", doctored_edges)

    return doctor


def _uncertified(kind):
    """Make the parity certificate fail for one kind in every Analysis, so
    that the move edges of that kind are tested one by one and the
    bipartite verdicts that read them take the odd-cycle route."""

    def doctor(monkeypatch):
        real = graphs.certify_parities

        def doctored(w, *args):
            return {kind: (w.window, b""), **real(w, *args)}

        monkeypatch.setattr(graphs, "certify_parities", doctored)

    return doctor


def _negated(name):
    """Negate the answer of one predicate that verify_permutation calls."""

    def doctor(monkeypatch):
        real = getattr(scan_module, name)
        monkeypatch.setattr(scan_module, name, lambda *args: not real(*args))

    return doctor


def _with_loop(moves):
    return IndexPairs(np.append(moves.u, 0), np.append(moves.v, 0))


def _with_edge(k, v):
    """Add the move edge (k, v) to the true ones."""
    return lambda moves: IndexPairs(np.append(moves.u, k), np.append(moves.v, v))


def _doctored_flip(window, letter, bits):
    """XOR the flip constants of block ``letter`` of R(u), u the permutation
    with this window, with ``bits``, wherever they are read: in
    ``WordSet.parities`` and in the parity certificate."""

    def doctor(monkeypatch):
        inv = parse_window(window).inverse().window
        real = reduced_words._flips

        def doctored(v):
            flips = real(v)
            if v == inv:
                assert flips[letter - 1] >= 0, "no left descent"
                flips[letter - 1] ^= bits
            return flips

        monkeypatch.setattr(reduced_words, "_flips", doctored)

    return doctor


# [321] has the words 121 and 212: one braid class, two commutation classes.
# [2143] has 13 and 31: two braid classes, one commutation class.  [23541]
# has four words.  [2431] has 1232, 1323 and 3123, the first two in one braid
# class.  Merging or splitting their classes breaks the statements that tie
# the two partitions to each other and to the window; a statement that is an
# equivalence gets one case for each side that can fail alone.
MERGED, SPLIT = (lambda i: i * 0), (lambda i: i)
VIOLATIONS = [
    ("some braid and commutation class share 2 words",
     "[321]", [_doctored(COMMUTATION, class_of=MERGED)]),
    ("a braid move crossed braid classes", "[321]", [_doctored(BRAID, class_of=SPLIT)]),
    ("braid class 0 is not bipartite",
     "[321]", [_doctored(BRAID, edges=_with_loop), _uncertified(BRAID)]),
    ("Gamma(w) (equivalently G(w)) is disconnected",
     "[321]", [_doctored(BRAID, class_of=SPLIT)]),
    ("G_c(w) is not bipartite", "[321]", [_doctored(COMMUTATION, class_of=MERGED)]),
    ("G_b(w) is not bipartite", "[2143]", [_doctored(BRAID, class_of=MERGED)]),
    ("the braid move 1232 - 3123 does not flip p_c and keep p_b",
     "[2431]", [_doctored(BRAID, edges=_with_edge(0, 2)), _uncertified(BRAID)]),
    ("the commutation move 1232 - 1323 does not flip p_b and keep p_c",
     "[2431]", [_doctored(COMMUTATION, edges=_with_edge(0, 1)), _uncertified(COMMUTATION)]),
    # 1232 is 1 followed by 232, the word of block 2 of R([1432]) that the
    # braid move joins to 323; 3123 is block 3 of R([2431]).
    ("the braid move 1232 - 1323 does not flip p_c and keep p_b",
     "[2431]", [_doctored_flip("[1432]", 2, 2)]),
    ("the commutation move 1323 - 3123 does not flip p_b and keep p_c",
     "[2431]", [_doctored_flip("[2431]", 3, 2)]),
    ("the intersection table fails the jump property",
     "[321]", [_doctored(BRAID, class_of=SPLIT)]),
    ("bounds failed: b=1 c=1 r=2", "[321]", [_doctored(COMMUTATION, class_of=MERGED)]),
    ("c=1 but b != r", "[321]", [_doctored(COMMUTATION, class_of=MERGED)]),
    ("b=1 but c != r", "[2143]", [_doctored(BRAID, class_of=MERGED)]),
    ("r = b * c does not match b = 1 or c = 1",
     "[321]", [_doctored(COMMUTATION, class_of=MERGED)]),
    ("r = b * c does not match b = 1 or c = 1", "[23541]", [
        _doctored(BRAID, class_of=lambda i: i // 2),
        _doctored(COMMUTATION, class_of=lambda i: i % 2),
    ]),
    ("upper achiever does not match the window predicate",
     "[321]", [_negated("upper_predicate")]),
    ("321-avoidance does not match c = 1", "[321]", [_doctored(COMMUTATION, class_of=MERGED)]),
    ("pairwise-sharing inversions does not match b = 1",
     "[321]", [_doctored(BRAID, class_of=SPLIT)]),
    ("r = b + c - 1 does not match Gamma(w) being a tree",
     "[321]", [_doctored(COMMUTATION, class_of=MERGED)]),
    ("r = b + c - 1 does not match Gamma(w) being a tree",
     "[2431]", [_doctored(COMMUTATION, class_of=lambda i: i // 2)]),
    ("lower achiever does not match the template predicate",
     "[321]", [_negated("lower_predicate_pattern")]),
    ("lower achiever does not match the word-level templates",
     "[321]", [_negated("lower_pattern_from_words")]),
    ("upper achiever fails the lower bound", "[23541]", [
        _doctored(BRAID, class_of=lambda i: i // 2),
        _doctored(COMMUTATION, class_of=lambda i: i % 2),
    ]),
]


@pytest.mark.parametrize(
    "message,window,doctors", [pytest.param(*case, id=case[0]) for case in VIOLATIONS]
)
def test_every_checked_statement_reports_its_violation(monkeypatch, message, window, doctors):
    w = parse_window(window)
    assert verify_permutation(w).violations == ()
    for doctor in doctors:
        doctor(monkeypatch)
    assert message in verify_permutation(w).violations


def _decoded(blocks, rows, text):
    """The row at the index in R(w) that the letters of ``text`` give by the
    offsets of the walk's blocks, as text."""
    u, k = blocks.root, 0
    for a in map(int, text):
        assert blocks.child[u, a] >= 0, f"{text} is no word of R(w)"
        k += blocks.offset[u, a]
        u = blocks.child[u, a]
    return word_text(rows[k])


@pytest.mark.parametrize("window,element,letter,bits,named", [
    pytest.param("[2431]", "[1432]", 2, 1, {BRAID: "[1432]"}, id="[2431]-doctor0"),
    pytest.param("[2431]", "[1432]", 3, 3, {BRAID: "[1432]", COMMUTATION: "[2431]"},
                 id="[2431]-doctor1"),
    pytest.param("[25314]", "[24315]", 1, 2, {COMMUTATION: "[24315]"}, id="[25314]-doctor"),
])
def test_wrong_parities_leave_the_bipartite_verdicts_exact(
    monkeypatch, window, element, letter, bits, named
):
    # One wrong flip constant at an element of [e, w] breaks the moves at
    # position 0 there, and those at its parents whose paths pass through
    # it: the certificate names the first failing element of each kind,
    # children first.  Each kind that fails is reported as a move of R(w)
    # that breaks its parities, and the three verdicts fall back to the
    # odd-cycle test, which finds nothing wrong.
    w = parse_window(window)
    _doctored_flip(element, letter, bits)(monkeypatch)
    an = graphs.analyse(w)
    assert {kind: u for kind, (u, _) in an.parity_failures.items()} == {
        kind: parse_window(u).window for kind, u in named.items()
    }
    assert an.class_graph_bipartite(BRAID) and an.class_graph_bipartite(COMMUTATION)
    assert an.odd_braid_classes == ()
    violations = verify_permutation(w).violations
    kinds = [kind for kind in (COMMUTATION, BRAID) if kind in named]
    assert len(violations) == len(kinds)
    blocks, rows = an.word_set.blocks, an.word_set.rows
    for kind, violation in zip(kinds, violations):
        flips, keeps = ("p_b", "p_c") if kind == COMMUTATION else ("p_c", "p_b")
        x, y = violation.split()[3:6:2]
        assert violation == f"the {kind} move {x} - {y} does not flip {flips} and keep {keeps}"
        # Two words of R(w), one move of the kind apart.
        assert _decoded(blocks, rows, x) == x and _decoded(blocks, rows, y) == y
        assert (kind, y) in {(move.kind, word_text(v)) for move, v in neighbors(bytes(map(int, x)))}
    # The scan reports it too, with the per-process certificate state.
    with pytest.raises(InvariantViolation, match="does not flip"):
        scan(ScanOptions(n=w.n))


def test_a_scan_builds_no_commutation_edge_while_the_certificate_holds(monkeypatch):
    # The commutation classes come from pointers to their normal forms, and
    # the certificate vouches for every move, so no check reads a
    # commutation move edge.
    kinds = []
    for name in ("move_edges", "partition_with_edges"):
        real = getattr(graphs, name)

        def counting(word_set, kind, real=real):
            kinds.append(kind)
            return real(word_set, kind)

        monkeypatch.setattr(graphs, name, counting)
    rep = scan(ScanOptions(n=5))
    assert rep.violation_count == 0 and rep.skipped_count == 0
    assert COMMUTATION not in kinds and BRAID in kinds


def test_verify_permutation_enumeration_free():
    rec = verify_permutation(parse_window("[25314]"), checks=frozenset())
    assert rec.r is None and rec.skipped is None
    assert rec.width is None
    assert rec.upper_predicate is False
    rec = verify_permutation(parse_window("[25314]"), checks=frozenset({"weak_order"}))
    assert rec.width == 3 and rec.r is None


def test_scan_small_n():
    rep = scan(ScanOptions(n=1))
    assert (rep.upper_achiever_count, rep.lower_achiever_count) == (1, 1)
    rep = scan(ScanOptions(n=4))
    assert rep.total == 24
    assert (rep.upper_achiever_count, rep.lower_achiever_count) == (16, 23)
    assert rep.closed_form_match
    assert rep.violation_count == 0
    assert rep.braid_nonconforming == ()
    assert rep.conjecture_counterexamples == ()


def test_scan_nonconformance_starts_at_n5():
    rep = scan(ScanOptions(n=5))
    assert rep.closed_form_match
    assert rep.violation_count == 0
    assert len(rep.braid_nonconforming) == 11
    assert (3, 4, 5, 2, 1) in rep.braid_nonconforming


def test_scan_records_are_sorted_and_typed():
    rep = scan(ScanOptions(n=3))
    windows = [rec.window for rec in rep.records]
    assert windows == sorted(windows)
    for rec in rep.records:
        assert isinstance(rec, ScanRecord)
        assert rec.n == 3
    obj = json.loads(rep.jsonl().splitlines()[0])
    assert obj["type"] == "record"
    assert obj["schema"] == 1
    last = json.loads(rep.jsonl().splitlines()[-1])
    assert last["type"] == "report"
    assert last["closed_form_match"] is True


def _reference_line(rec):
    """The record's line as the JSON encoder writes its object."""
    obj = {**vars(rec), "schema": 1, "type": "record"}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("cap", [2_000_000, 10])
def test_record_lines_are_those_of_the_json_encoder(scan_s5, cap):
    rep = scan_s5 if cap == 2_000_000 else scan(ScanOptions(n=5, word_cap=cap))
    assert (rep.skipped_count > 0) == (cap == 10)
    for rec, line in zip(rep.records, rep.record_lines):
        assert rec.line() == line == _reference_line(rec)


def test_record_lines_of_doctored_records_are_those_of_the_json_encoder():
    rec = verify_permutation(parse_window("[25314]"))
    strings = ('a "quoted" word', "a back\\slash", "100 % sure", "two\nlines", "\u00e9t\u00e9 \u2713")
    for status in (
        None,
        "agree",
        "skipped",
        "counterexample:predicate_without_lower_bound",
        "counterexample:lower_bound_without_predicate",
    ):
        for violations in ((), strings[:1], strings):
            doctored = ScanRecord(**{
                **vars(rec), "conjecture_status": status, "violations": violations
            })
            assert doctored.line() == _reference_line(doctored)
    unchecked = ScanRecord(**{
        **vars(verify_permutation(parse_window("[21]"), checks=frozenset())),
        "skipped": 'cap "%s"',
    })
    assert unchecked.r is None and unchecked.width is None
    assert unchecked.line() == _reference_line(unchecked)


def test_scan_worker_determinism():
    one = scan(ScanOptions(n=4, workers=1)).jsonl()
    many = scan(ScanOptions(n=4, workers=3)).jsonl()
    assert one == many


def test_scan_starts_at_most_one_worker_per_cpu(monkeypatch):
    # A stand-in pool records its size and runs the work in this process,
    # so no worker is ever forked here.
    started, submitted, contexts = [], [], []

    class SerialPool:
        def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
            started.append(max_workers)
            contexts.append(mp_context)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append((fn, args))
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(scan_module, "ProcessPoolExecutor", SerialPool)
    # The initializer sets the width queue of the process it runs in.
    monkeypatch.setattr(scan_module, "_width_queue", None)
    expected = scan(ScanOptions(n=5, workers=1)).jsonl()
    assert started == []

    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 3)
    assert scan(ScanOptions(n=5, workers=100_000)).jsonl() == expected
    assert started == [3]
    # Every check enumerates R(w), so on Linux the pool is pinned to fork,
    # which alone hands the workers the word engine loaded here.
    if sys.platform == "linux":
        assert contexts[0].get_start_method() == "fork"
    # The width pass of all 120 windows, then the batches, sized for three
    # workers: one orbit each, then two each.
    assert submitted[0] == (scan_module._send_widths, (5, 120))
    assert [len(batch) for _, (batch,) in submitted[1:7]] == [1, 1, 1, 2, 2, 2]

    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: None)
    assert scan(ScanOptions(n=5, workers=100_000)).jsonl() == expected
    assert started == [3]

    # A scan that never enumerates keeps the platform's default start method.
    # Its windows go in order, in even batches of 120 / (8 * 2).
    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 2)
    submitted.clear()
    scan(ScanOptions(n=5, checks=frozenset({"weak_order"}), workers=2))
    assert started == [3, 2] and contexts[-1] is None
    assert submitted[0] == (scan_module._send_widths, (5, 120))
    batches = [[k for k, _, _ in batch] for _, (batch,) in submitted[1:]]
    assert [k for batch in batches for k in batch] == list(range(120))
    assert {len(batch) for batch in batches[:-1]} == {7}


@pytest.mark.parametrize("n,workers", [(4, 3), (6, 2), (8, 2)])
def test_pool_batches_cover_every_permutation_longest_first(n, workers):
    from itertools import permutations

    args = [(win, (), 0) for win in permutations(range(1, n + 1))]
    order = scan_module._longest_first([a[0] for a in args], range(len(args)))
    batches = scan_module._costliest_first([args[k] for k in order], workers)
    flat = [a for batch in batches for a in batch]
    assert sorted(flat) == args
    lengths = [scan_module.Permutation(a[0]).length() for a in flat]
    assert lengths == sorted(lengths, reverse=True)
    assert batches[0] == [(tuple(range(n, 0, -1)), (), 0)]
    cap = len(args) // (workers * 8)
    assert all(1 <= len(batch) <= max(1, cap) for batch in batches)


@pytest.mark.parametrize("n,workers", [(4, 3), (6, 2), (8, 2)])
def test_pool_batches_of_a_scan_that_does_not_enumerate_are_even_and_in_order(n, workers):
    total = len(list(scan_module._lex_windows(range(1, n + 1))))
    todo = list(range(0, total, 3))
    batches = scan_module._even_batches(todo, workers, total)
    assert [k for batch in batches for k in batch] == todo
    size = max(1, total // (workers * 8))
    assert all(len(batch) == size for batch in batches[:-1])
    assert 1 <= len(batches[-1]) <= size


def test_weak_order_scan_is_the_same_by_width_pass_and_by_closure():
    closure_widths = {
        w.window: interval_by_closure(w).width for w in all_permutations(6)
    }
    outputs = []
    for workers in (1, 2):
        rep = scan(ScanOptions(n=6, checks=frozenset({"weak_order"}), workers=workers))
        assert len(rep.records) == 720
        for rec in rep.records:
            assert rec.width == closure_widths[rec.window], rec.window
        outputs.append(rep.jsonl())
    assert outputs[0] == outputs[1]


def test_scan_enumeration_free_mode_counts_exactly():
    rep = scan(ScanOptions(n=5, checks=frozenset()))
    assert rep.upper_achiever_count == 45
    assert rep.lower_achiever_count == 65
    assert rep.closed_form_match
    assert all(rec.r is None for rec in rep.records)


def test_scan_skips_do_not_break_counts():
    rep = scan(ScanOptions(n=4, word_cap=10))
    assert rep.skipped_count > 0
    assert rep.upper_achiever_count == 16
    assert rep.lower_achiever_count == 23
    assert rep.closed_form_match


def test_scan_output_and_resume(tmp_path, monkeypatch):
    computed = []
    real = scan_module.verify_permutation

    def counting(w, **kwargs):
        computed.append(w.window)
        return real(w, **kwargs)

    out = tmp_path / "s4.jsonl"
    rep = scan(ScanOptions(n=4, output_path=str(out)))
    full = out.read_text()
    assert full == rep.jsonl()

    # A file cut short has lost its report line, which alone says under
    # which checks and cap its records were made, so nothing in it is reused
    # and all 24 records are recomputed, to the identical bytes.  An
    # interrupted run resumes only once records stream after such a header
    # (ROADMAP item 1b).
    lines = full.splitlines(keepends=True)
    out.write_text("".join(lines[:10]))
    monkeypatch.setattr(scan_module, "verify_permutation", counting)
    rep2 = scan(ScanOptions(n=4, output_path=str(out)))
    assert len(computed) == 24
    assert out.read_text() == full
    assert rep2.jsonl() == rep.jsonl()

    # records computed under different checks are not reused
    out.write_text("".join(lines[:10]))
    rep3 = scan(ScanOptions(n=4, checks=frozenset({"bounds"}), output_path=str(out)))
    assert rep3.total == 24
    assert all(rec.width is None for rec in rep3.records)


def test_unwritable_output_fails_before_any_permutation(tmp_path, monkeypatch):
    computed = []
    real = scan_module.verify_permutation

    def counting(w, **kwargs):
        computed.append(w.window)
        return real(w, **kwargs)

    monkeypatch.setattr(scan_module, "verify_permutation", counting)
    with pytest.raises(FileNotFoundError):
        scan(ScanOptions(n=4, output_path=str(tmp_path / "missing" / "s4.jsonl")))
    with pytest.raises(IsADirectoryError):
        scan(ScanOptions(n=4, output_path=str(tmp_path)))
    assert computed == []


def test_scan_resume_ignores_records_from_a_different_cap(tmp_path):
    out = tmp_path / "s4.jsonl"
    scan(ScanOptions(n=4, word_cap=10, output_path=str(out)))
    skipped_line = next(
        line for line in out.read_text().splitlines() if '"skipped":"cap"' in line
    )
    fresh = scan(ScanOptions(n=4)).jsonl()

    # a file full of cap-skipped records must not poison an uncapped run
    out.write_text(skipped_line + "\n")
    rep = scan(ScanOptions(n=4, output_path=str(out)))
    assert rep.skipped_count == 0
    assert out.read_text() == fresh

    # and large-cap records must not leak into a small-cap run
    out.write_text(fresh)
    rep2 = scan(ScanOptions(n=4, word_cap=10, output_path=str(out)))
    assert rep2.skipped_count > 0


def test_scan_aborts_on_violation(monkeypatch):
    real = scan_module.verify_permutation

    def broken(w, **kwargs):
        rec = real(w, **kwargs)
        if w.window == (2, 1, 3):
            rec = scan_module.ScanRecord(
                **{**rec.__dict__, "violations": ("deliberately broken",)}
            )
        return rec

    monkeypatch.setattr(scan_module, "verify_permutation", broken)
    with pytest.raises(InvariantViolation, match="deliberately broken"):
        scan_module.scan(ScanOptions(n=3))


def _orbit(w):
    """w, w^-1, w0 w w0 and w0 w^-1 w0, each once, w first."""
    v = w.inverse()
    return list({u.window: u for u in (w, v, w.complement(), v.complement())}.values())


@pytest.mark.parametrize("n", range(1, 7))
def test_an_analysis_shared_across_an_orbit_gives_the_unreduced_records(n):
    # Reversal and w0-conjugation map R(w) one-to-one onto R(v) and moves to
    # moves of the same kind, so every answer the record reads from the
    # analysis of w is the answer for v.  The first read of each answer
    # fills the analysis's cache; the later members of the orbit read it.
    unreduced = {w.window: verify_permutation(w) for w in all_permutations(n)}
    for w in all_permutations(n):
        an = graphs.analyse(w)
        for v in _orbit(w):
            assert verify_permutation(v, analysis=an) == unreduced[v.window], (w, v)


def test_the_reduced_scan_equals_the_unreduced_route_with_cap_skips():
    # Under a cap of 10, whole orbits of S_5 are skipped from one count.
    rep = scan(ScanOptions(n=5, word_cap=10, workers=2))
    unreduced = [verify_permutation(w, word_cap=10) for w in all_permutations(5)]
    assert rep.skipped_count > 0
    assert list(rep.records) == unreduced


def _counting(monkeypatch, module, name):
    """Record the window of every call of ``module.name``."""
    calls, real = [], getattr(module, name)

    def counting(w, **kwargs):
        calls.append(w.window)
        return real(w, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_resume_from_part_of_an_orbit_recomputes_only_the_missing_windows(
    tmp_path, monkeypatch
):
    out = tmp_path / "s4.jsonl"
    scan(ScanOptions(n=4, output_path=str(out)))
    full = out.read_text()
    orbit = [v.window for v in _orbit(parse_window("[1342]"))]
    assert len(orbit) == 4
    missing = sorted(orbit[1::2])
    kept = [line for line in full.splitlines(keepends=True)
            if tuple(json.loads(line).get("window", ())) not in missing]
    out.write_text("".join(kept))

    computed = _counting(monkeypatch, scan_module, "verify_permutation")
    analysed = _counting(monkeypatch, graphs, "analyse")
    scan(ScanOptions(n=4, output_path=str(out)))
    assert sorted(computed) == missing
    assert analysed == [missing[0]]
    assert out.read_text() == full


def test_a_violation_from_a_shared_analysis_is_verified_again(tmp_path, monkeypatch):
    # A braid move from the last word to itself makes the braid class of the
    # last word odd in every analysis.  Its id follows the least word of the
    # class, so orbit members name different classes.
    def with_last_loop(word_set, kind):
        part, moves = real(word_set, kind)
        if kind == BRAID:
            last = len(word_set) - 1
            moves = IndexPairs(np.append(moves.u, last), np.append(moves.v, last))
        return part, moves

    real = graphs.partition_with_edges
    monkeypatch.setattr(graphs, "partition_with_edges", with_last_loop)
    # The loop is no move of R(w), so only the odd-cycle route, which runs
    # when the parity certificate fails, reads it.
    _uncertified(BRAID)(monkeypatch)
    perms = list(all_permutations(4))
    unreduced = {w.window: verify_permutation(w) for w in perms}
    assert all(rec.violations for rec in unreduced.values())
    shared = {
        v.window: verify_permutation(v, analysis=graphs.analyse(w))
        for w in perms for v in _orbit(w)
    }
    assert any(shared[win] != rec for win, rec in unreduced.items())

    computed = _counting(monkeypatch, scan_module, "verify_permutation")
    out = tmp_path / "s4.jsonl"
    with pytest.raises(InvariantViolation, match="is not bipartite"):
        scan(ScanOptions(n=4, output_path=str(out)))
    lines = out.read_text().splitlines()[:-1]
    records = [ScanRecord.from_json_obj(json.loads(line)) for line in lines]
    assert records == [unreduced[w.window] for w in perms]
    # Once per window, and again for each window but the first of its orbit.
    orbits = {min(v.window for v in _orbit(w)) for w in perms}
    assert len(computed) == 2 * len(perms) - len(orbits)


def test_a_pooled_scan_encodes_no_computed_record_in_this_process(tmp_path, monkeypatch):
    # The workers hand back finished lines and a tally, so this process
    # encodes no record that it did not resume.  Each encoding is logged
    # with the id of the process that made it: forked workers inherit the
    # wrapper and log theirs to the same file.
    log = tmp_path / "encoded.log"
    real = ScanRecord.line

    def logged(rec):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {list(rec.window)}\n")
        return real(rec)

    monkeypatch.setattr(ScanRecord, "line", logged)
    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 2)
    pooled = scan(ScanOptions(n=5, workers=2)).jsonl()
    # Workers started by spawn do not inherit the wrapper and log nothing.
    logged_lines = log.read_text().splitlines() if log.exists() else []
    pids = [int(line.split(" ", 1)[0]) for line in logged_lines]
    assert os.getpid() not in pids
    if sys.platform == "linux":
        # The pool is pinned to fork there: every window is encoded once,
        # in a worker.
        assert len(pids) == 120
    log.unlink(missing_ok=True)
    assert pooled == scan(ScanOptions(n=5, workers=1)).jsonl()
    assert _sha256(pooled) == PINNED_JSONL_SHA256[5]


def test_a_violation_reads_the_same_at_one_and_two_workers(tmp_path, monkeypatch):
    # Two violations on each permutation of length at least 4, which the
    # pool computes first: the message lists its first five examples in
    # window order, each record's own violations in their order.
    real = scan_module.verify_permutation

    def broken(w, **kwargs):
        rec = real(w, **kwargs)
        if w.length() >= 4:
            extra = ("deliberately broken", f"broken again at length {w.length()}")
            rec = ScanRecord(**{**vars(rec), "violations": rec.violations + extra})
        return rec

    monkeypatch.setattr(scan_module, "verify_permutation", broken)
    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 2)
    unreduced = [broken(w) for w in all_permutations(4)]
    examples = [
        f"{list(rec.window)}: {violation}" for rec in unreduced for violation in rec.violations
    ]
    assert len(examples) == 18
    messages, reports = [], []
    for workers in (1, 2):
        out = tmp_path / f"s4-{workers}.jsonl"
        with pytest.raises(InvariantViolation) as raised:
            scan(ScanOptions(n=4, workers=workers, output_path=str(out)))
        messages.append(str(raised.value))
        reports.append(json.loads(out.read_text().splitlines()[-1]))
    assert messages[0] == messages[1] == (
        "scan of S_4 found 18 violations of proved statements, e.g. " + "; ".join(examples[:5])
    )
    assert reports[0] == reports[1] and reports[0]["violation_count"] == 18


def test_a_resumed_scan_reads_like_a_fresh_one(tmp_path, monkeypatch):
    # Every other record and the report line are kept: the kept records are
    # encoded again in this process, the others are computed, and the file,
    # the report and its decoded records are those of a fresh run.
    out = tmp_path / "s5.jsonl"
    fresh = scan(ScanOptions(n=5, output_path=str(out)))
    full = out.read_text()
    lines = full.splitlines(keepends=True)
    computed = _counting(monkeypatch, scan_module, "verify_permutation")
    for workers in (1, 2):
        out.write_text("".join(lines[:-1:2]) + lines[-1])
        resumed = scan(ScanOptions(n=5, workers=workers, output_path=str(out)))
        assert out.read_text() == full
        assert resumed == fresh
        assert resumed.records == fresh.records
        assert all(isinstance(rec, ScanRecord) for rec in resumed.records)
    # At one worker the computed windows are counted here: the dropped ones.
    assert sorted(computed) == [w.window for w in all_permutations(5)][1::2]


# sha256 of the full JSON Lines output under the default options, as first
# released; any change to a record, the report or the serialization shows here.
PINNED_JSONL_SHA256 = {
    4: "efd036b8dcd5f40c44644282b49fa8c92a09295fbd07acf219b5a246d9985520",
    5: "6743cfbf3c7668e7946208cc7f1a81fb2866fccfcfd590d4379dad7336828f7d",
    6: "8570f3187e747fdb5079854e47c4c155da06262aa3bbc93700f4f81bf1452caf",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_scan_jsonl_is_pinned_for_s4_and_s5(scan_s5):
    assert _sha256(scan(ScanOptions(n=4)).jsonl()) == PINNED_JSONL_SHA256[4]
    assert _sha256(scan(ScanOptions(n=4, workers=2)).jsonl()) == PINNED_JSONL_SHA256[4]
    assert _sha256(scan_s5.jsonl()) == PINNED_JSONL_SHA256[5]


def test_scan_jsonl_is_pinned_for_s6(scan_s6):
    assert _sha256(scan_s6.report.jsonl()) == PINNED_JSONL_SHA256[6]


def test_a_pool_forked_with_the_word_engine_loaded_writes_the_same_bytes(tmp_path):
    # In a fresh process, with numpy not yet imported, a pooled scan with
    # every check loads the word engine before its workers fork; its file
    # must be byte for byte that of a scan at one worker.
    repo_src = Path(__file__).resolve().parents[1] / "src"
    pooled, serial = tmp_path / "pooled.jsonl", tmp_path / "serial.jsonl"
    code = (
        "import os, sys\n"
        "from redwords.scan import ScanOptions, scan\n"
        "assert 'numpy' not in sys.modules\n"
        f"pooled, serial = {str(pooled)!r}, {str(serial)!r}\n"
        "scan(ScanOptions(n=5, workers=2, output_path=pooled))\n"
        "if (os.cpu_count() or 1) > 1 and sys.platform == 'linux':\n"
        "    assert 'redwords.graphs' in sys.modules, 'not loaded before the fork'\n"
        "scan(ScanOptions(n=5, workers=1, output_path=serial))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert pooled.read_bytes() == serial.read_bytes()
    assert hashlib.sha256(pooled.read_bytes()).hexdigest() == PINNED_JSONL_SHA256[5]


def test_scan_resume_requires_the_same_checks_and_cap(tmp_path, monkeypatch):
    computed = []
    real = scan_module.verify_permutation

    def counting(w, **kwargs):
        computed.append(w.window)
        return real(w, **kwargs)

    monkeypatch.setattr(scan_module, "verify_permutation", counting)
    out = tmp_path / "s4.jsonl"
    scan(ScanOptions(n=4, checks=frozenset({"bounds"}), output_path=str(out)))
    assert len(computed) == 24

    # Records of a "bounds" scan have the same fields as those of a "graphs"
    # scan, but they were not checked for the graph statements.
    computed.clear()
    rep = scan(ScanOptions(n=4, checks=frozenset({"graphs"}), output_path=str(out)))
    assert len(computed) == 24
    assert rep.checks == ("graphs",)
    assert out.read_text() == scan(ScanOptions(n=4, checks=frozenset({"graphs"}))).jsonl()

    # The same checks and cap again: every record is reused.
    computed.clear()
    scan(ScanOptions(n=4, checks=frozenset({"graphs"}), output_path=str(out)))
    assert computed == []
    scan(ScanOptions(n=4, checks=frozenset({"graphs"}), word_cap=100, output_path=str(out)))
    assert len(computed) == 24


def test_a_weak_order_scan_of_s7_is_the_same_at_one_and_two_workers_and_resumed(
    tmp_path, monkeypatch
):
    # Two workers stream the widths from a pool worker, one computes them
    # here.  A file cut off mid-line has no report line and is recomputed
    # whole; one that lost its first 2,520 records (and kept its report)
    # needs only their widths, so the pass stops there.
    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 2)
    options = dict(n=7, checks=frozenset({"weak_order"}))
    fresh = scan(ScanOptions(**options)).jsonl()
    assert _sha256(fresh) == (
        "34b06a0a706a9d5f572e7cbdf08ba0446a57bca44788337e462da14751bf6ea2"
    )
    lines = fresh.splitlines(keepends=True)
    out = tmp_path / "s7.jsonl"
    for workers in (1, 2):
        assert scan(ScanOptions(**options, workers=workers)).jsonl() == fresh
        for kept in ("".join(lines[:2000]) + lines[2000][:40], "".join(lines[2520:])):
            out.write_text(kept)
            scan(ScanOptions(**options, workers=workers, output_path=str(out)))
            assert out.read_text() == fresh


_FAILING_PASS = """
import importlib, itertools, multiprocessing, os, sys, threading
from concurrent.futures.process import BrokenProcessPool

from redwords.scan import ScanOptions
from redwords.weak_order import iter_widths

scan_module = importlib.import_module("redwords.scan")
multiprocessing.set_start_method("fork")
os.cpu_count = lambda: 2
fds = len(os.listdir("/proc/self/fd"))
options = ScanOptions(n=8, checks=frozenset({"weak_order"}), workers=2)
receive_widths = scan_module._receive_widths


def failing(how):
    def widths(n):
        for k, width in enumerate(iter_widths(n)):
            if k == 30_000:
                if how == "raise":
                    raise ArithmeticError("the pass broke")
                os._exit(3)
            yield width
    return widths


def stopping(width_queue, sender, widths, count):
    if count > 5_000:
        raise LookupError("this process stopped")
    receive_widths(width_queue, sender, widths, count)


def run(label, expected=()):
    try:
        outcome = scan_module.scan(options).total
    except expected as exc:
        outcome = type(exc).__name__
    # Counted as soon as the scan is over: nothing may end later.
    print(label, outcome, multiprocessing.active_children(), threading.active_count(),
          len(os.listdir("/proc/self/fd")) - fds)


for how in ("raise", "die"):
    scan_module.iter_widths = failing(how)
    run(how, (ArithmeticError, BrokenProcessPool))
# 40,320 widths of 5 bytes each overfill the pipe once this process stops
# reading them.
scan_module.iter_widths = lambda n: itertools.repeat(100_000)
scan_module._receive_widths = stopping
run("stop", LookupError)
scan_module.iter_widths = iter_widths
scan_module._receive_widths = receive_widths
run("ok")
"""


@pytest.mark.skipif(sys.platform != "linux", reason="forks its pool, reads /proc/self/fd")
def test_a_width_pass_that_fails_in_a_worker_fails_the_scan():
    # The pass raises, and then its worker dies, after sending 30,000 widths;
    # each scan must raise, not wait for the rest.  A scan that raises here
    # while the pass still sends must not wait for it either.  When any of
    # them is over, no worker, thread or pipe is left, as when a scan
    # succeeds.  A hung scan fails the test at the timeout, and its whole
    # process group is killed.
    repo_src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c", _FAILING_PASS],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(repo_src), "PATH": "/usr/bin:/bin"},
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert stdout.splitlines() == [
        "raise ArithmeticError [] 1 0",
        "die BrokenProcessPool [] 1 0",
        "stop LookupError [] 1 0",
        "ok 40320 [] 1 0",
    ]
