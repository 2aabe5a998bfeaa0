import hashlib
import json

import pytest

from redwords.errors import InvariantViolation
from redwords.permutation import longest_element, parse_window
from redwords.scan import (
    CHECK_GROUPS,
    ScanOptions,
    ScanRecord,
    scan,
    verify_permutation,
)


def test_options_validation():
    with pytest.raises(ValueError):
        ScanOptions(n=0)
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


@pytest.mark.parametrize("n,workers", [(4, 3), (6, 2), (8, 2)])
def test_pool_batches_cover_every_permutation_longest_first(n, workers):
    import importlib
    from itertools import permutations

    scan_module = importlib.import_module("redwords.scan")
    args = [(win, (), 0) for win in permutations(range(1, n + 1))]
    batches = scan_module._costliest_first(args, workers)
    flat = [a for batch in batches for a in batch]
    assert sorted(flat) == args
    lengths = [scan_module.Permutation(a[0]).length() for a in flat]
    assert lengths == sorted(lengths, reverse=True)
    assert batches[0] == [(tuple(range(n, 0, -1)), (), 0)]
    cap = len(args) // (workers * 8)
    assert all(1 <= len(batch) <= max(1, cap) for batch in batches)


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


def test_scan_output_and_resume(tmp_path):
    out = tmp_path / "s4.jsonl"
    rep = scan(ScanOptions(n=4, output_path=str(out)))
    full = out.read_text()
    assert full == rep.jsonl()

    # truncating the file simulates an interrupted run; resuming must
    # reproduce the identical bytes without recomputing the kept records
    lines = full.splitlines(keepends=True)
    out.write_text("".join(lines[:10]))
    rep2 = scan(ScanOptions(n=4, output_path=str(out)))
    assert out.read_text() == full
    assert rep2.jsonl() == rep.jsonl()

    # records computed under different checks are not reused
    out.write_text("".join(lines[:10]))
    rep3 = scan(ScanOptions(n=4, checks=frozenset({"bounds"}), output_path=str(out)))
    assert rep3.total == 24
    assert all(rec.width is None for rec in rep3.records)


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
    import importlib

    scan_module = importlib.import_module("redwords.scan")
    real = scan_module.verify_permutation

    def broken(w, checks=frozenset(CHECK_GROUPS), word_cap=2_000_000):
        rec = real(w, checks=checks, word_cap=word_cap)
        if w.window == (2, 1, 3):
            rec = scan_module.ScanRecord(
                **{**rec.__dict__, "violations": ("deliberately broken",)}
            )
        return rec

    monkeypatch.setattr(scan_module, "verify_permutation", broken)
    monkeypatch.setattr(scan_module, "_verify_window", lambda args: broken(
        scan_module.Permutation(args[0]), checks=frozenset(args[1]), word_cap=args[2]
    ))
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
    assert _sha256(scan_s5.jsonl()) == PINNED_JSONL_SHA256[5]


def test_scan_jsonl_is_pinned_for_s6(scan_s6):
    assert _sha256(scan_s6.report.jsonl()) == PINNED_JSONL_SHA256[6]
