import hashlib
import importlib
import json

import numpy as np
import pytest

import redwords.graphs as graphs
from redwords.classes import ClassPartition, IndexPairs
from redwords.coxeter_moves import BRAID, COMMUTATION
from redwords.errors import InvariantViolation
from redwords.permutation import MAX_N, longest_element, parse_window
from redwords.scan import (
    ScanOptions,
    ScanRecord,
    scan,
    verify_permutation,
)

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
    """

    def doctor(monkeypatch):
        real = graphs.partition_with_edges

        def doctored(word_set, k):
            part, moves = real(word_set, k)
            if k == kind and class_of is not None:
                part = ClassPartition(k, word_set, class_of(np.arange(len(word_set))))
            if k == kind and edges is not None:
                moves = edges(moves)
            return part, moves

        monkeypatch.setattr(graphs, "partition_with_edges", doctored)

    return doctor


def _negated(name):
    """Negate the answer of one predicate that verify_permutation calls."""

    def doctor(monkeypatch):
        real = getattr(scan_module, name)
        monkeypatch.setattr(scan_module, name, lambda *args: not real(*args))

    return doctor


def _with_loop(moves):
    return IndexPairs(np.append(moves.u, 0), np.append(moves.v, 0))


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
    ("braid class 0 is not bipartite", "[321]", [_doctored(BRAID, edges=_with_loop)]),
    ("Gamma(w) (equivalently G(w)) is disconnected",
     "[321]", [_doctored(BRAID, class_of=SPLIT)]),
    ("G_c(w) is not bipartite", "[321]", [_doctored(COMMUTATION, class_of=MERGED)]),
    ("G_b(w) is not bipartite", "[2143]", [_doctored(BRAID, class_of=MERGED)]),
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


def test_scan_worker_determinism():
    one = scan(ScanOptions(n=4, workers=1)).jsonl()
    many = scan(ScanOptions(n=4, workers=3)).jsonl()
    assert one == many


def test_scan_starts_at_most_one_worker_per_cpu(monkeypatch):
    # A stand-in pool records its size and runs the work in this process,
    # so no worker is ever forked here.
    started, mapped = [], []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            mapped.append(items)
            return map(fn, items)

    monkeypatch.setattr(scan_module, "ProcessPoolExecutor", SerialPool)
    expected = scan(ScanOptions(n=5, workers=1)).jsonl()
    assert started == []

    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: 3)
    assert scan(ScanOptions(n=5, workers=100_000)).jsonl() == expected
    assert started == [3]
    # The width pass, then the batches, sized for three workers: one
    # permutation each, then two each.
    assert mapped[0] == [5]
    assert [len(batch) for batch in mapped[1][:6]] == [1, 1, 1, 2, 2, 2]

    monkeypatch.setattr(scan_module.os, "cpu_count", lambda: None)
    assert scan(ScanOptions(n=5, workers=100_000)).jsonl() == expected
    assert started == [3]


@pytest.mark.parametrize("n,workers", [(4, 3), (6, 2), (8, 2)])
def test_pool_batches_cover_every_permutation_longest_first(n, workers):
    from itertools import permutations

    args = [(win, (), 0) for win in permutations(range(1, n + 1))]
    batches = scan_module._costliest_first(args, workers)
    flat = [a for batch in batches for a in batch]
    assert sorted(flat) == args
    lengths = [scan_module.Permutation(a[0]).length() for a in flat]
    assert lengths == sorted(lengths, reverse=True)
    assert batches[0] == [(tuple(range(n, 0, -1)), (), 0)]
    cap = len(args) // (workers * 8)
    assert all(1 <= len(batch) <= max(1, cap) for batch in batches)


def test_weak_order_scan_is_the_same_by_width_pass_and_by_closure(monkeypatch):
    closures = []
    real = scan_module.interval_by_closure

    def counting(w):
        closures.append(w)
        return real(w)

    monkeypatch.setattr(scan_module, "interval_by_closure", counting)
    options = ScanOptions(n=6, checks=frozenset({"weak_order"}))
    by_pass = scan(options).jsonl()
    assert closures == []
    monkeypatch.setattr(scan_module, "WIDTH_PASS_MAX_N", 5)
    by_closure = scan(options).jsonl()
    assert len(closures) == 720
    assert by_closure == by_pass
    monkeypatch.undo()
    assert scan(ScanOptions(n=6, checks=options.checks, workers=2)).jsonl() == by_pass


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
