"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Criterion 3 is expected to fail: braid classes are only products of
2- and 3-paths up to n = 4; from n = 5 on, braid moves cascade along
staircase factors and produce longer presentation paths (see the assertion
message for verified witnesses).  The failure is kept honest rather than
hidden; every other criterion passes.
"""

import json
import time
from itertools import product

from redwords.characterizations import count_lower, count_upper
from redwords.classes import braid_class_shape
from redwords.cli import run as cli_run
from redwords.graphs import Analysis, analyse, build_table
from redwords.permutation import all_permutations, parse_window
from redwords.reduced_words import (
    BRAID,
    COMMUTATION,
    enumerate_words,
    evaluate,
    parse_word,
    word_text,
)
from redwords.scan import ScanOptions, scan
from redwords.weak_order import interval, interval_by_closure

from word_moves import (
    apply_braid,
    apply_commutation,
    class_closure,
    verify_braid_class_graph,
)


def report_line(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def check(number: int, name: str, ok: bool, detail: str = "") -> None:
    report_line(number, name, ok)
    assert ok, f"criterion {number} ({name}) failed{': ' + detail if detail else ''}"


def test_criterion_1_worked_example_fidelity(capsys):
    start = time.perf_counter()
    an = analyse(parse_window("[25314]"))
    ws = an.word_set
    cp = an.partition(COMMUTATION)
    bp = an.partition(BRAID)
    table = build_table(an)
    elapsed = time.perf_counter() - start

    ok = [word_text(u) for u in ws.words] == [
        "12432", "14232", "14323", "41232", "41323", "43123",
    ]
    ok &= [[word_text(u) for u in cls] for cls in cp.grouped(ws.words)] == [
        ["12432", "14232", "41232"],
        ["14323", "41323", "43123"],
    ]
    ok &= [[word_text(u) for u in cls] for cls in bp.grouped(ws.words)] == [
        ["12432"], ["14232", "14323"], ["41232", "41323"], ["43123"],
    ]
    ok &= list(table.iter_rows()) == [
        ["12432", None],
        ["14232", "14323"],
        ["41232", "41323"],
        [None, "43123"],
    ]
    ok &= elapsed < 0.1

    # The same three views through the command-line surface.
    ok &= cli_run(["words", "[25314]"]) == 0
    ok &= capsys.readouterr().out.splitlines()[0] == "12432"
    ok &= cli_run(["classes", "--kind", "braid", "[25314]"]) == 0
    ok &= capsys.readouterr().out.splitlines() == [
        "B1: 12432", "B2: 14232 14323", "B3: 41232 41323", "B4: 43123",
    ]
    ok &= cli_run(["table", "[25314]"]) == 0
    ok &= capsys.readouterr().out.splitlines()[1].split() == ["B1", "12432", "-"]

    # [241563] is 321-avoiding, so R is one commutation class; the oracle
    # (every 5-letter sequence over 1..5) fixes its contents to these nine
    # words, of which 34512 is the one a hand enumeration most easily misses.
    w = parse_window("[241563]")
    oracle = sorted(
        bytes(seq)
        for seq in product(range(1, 6), repeat=5)
        if evaluate(bytes(seq), 6).window == w.window
    )
    ws2 = enumerate_words(w)
    cp2 = Analysis(ws2).partition(COMMUTATION)
    ok &= ws2.words == tuple(oracle)
    ok &= len(cp2) == 1
    ok &= [word_text(u) for u in cp2.grouped(ws2.words)[0]] == [
        "13245", "13425", "13452", "31245", "31425", "31452",
        "34125", "34152", "34512",
    ]

    ws3 = enumerate_words(parse_window("[124563]"))
    bp3 = Analysis(ws3).partition(BRAID)
    ok &= [[word_text(u) for u in cls] for cls in bp3.grouped(ws3.words)] == [["345"]]

    check(1, "worked-example fidelity", bool(ok))


def test_criterion_2_move_semantics():
    u = parse_word("14232")
    ok = word_text(apply_braid(u, 4)) == "14323"
    ok &= word_text(apply_commutation(u, 2)) == "12432"
    ok &= apply_braid(u, 2) == u
    ok &= apply_commutation(u, 4) == u
    check(2, "move semantics", bool(ok))


def test_criterion_3_braid_class_structure(scan_s6):
    # The parts that hold: the worked 12-element class, and full conformance
    # of every braid class for n <= 4.
    cls = class_closure(parse_word("12143465676"), BRAID)
    assert len(cls) == 12
    assert braid_class_shape(len(cls), 11) == (2, 1)
    assert verify_braid_class_graph(cls, 11)

    for n in (2, 3, 4):
        for w in all_permutations(n):
            ws = enumerate_words(w)
            bp = Analysis(ws).partition(BRAID)
            for cls in bp.grouped(ws.words):
                assert verify_braid_class_graph(cls, w.length()), (
                    f"nonconforming braid class for {w.window}"
                )

    assert scan_s6.elapsed < 600, "S_6 sweep exceeded ten minutes"
    scan_s5_report = scan(ScanOptions(n=5, workers=1))

    nonconforming = {
        5: sorted(scan_s5_report.braid_nonconforming),
        6: sorted(scan_s6.report.braid_nonconforming),
    }
    ok = not nonconforming[5] and not nonconforming[6]
    report_line(3, "braid-class structure (2^x 3^y path products, n <= 6)", ok)
    assert ok, (
        "braid classes are not always products of 2- and 3-paths: braid moves "
        "cascade along staircase factors, giving presentation paths of any "
        "length.  Verified witnesses: in S_5 the braid class of 1213243 "
        "(permutation [34521]) is the 4-path {1213243, 2123243, 2132343, "
        "2132434} with 3 internal edges where the 2^x 3^y model requires "
        "2^2 with 4 edges; in S_6 the braid class of 121324354 (permutation "
        "[345621]) is a 5-path, and size 5 has a prime factor other than 2 "
        "and 3.  Affected permutations: "
        f"{len(nonconforming[5])} in S_5, {len(nonconforming[6])} in S_6. "
        "Every class is still connected and bipartite, and all other "
        "statements hold (criteria 4-9)."
    )


def test_criterion_4_bounds_and_orthogonality(scan_s5, scan_s6):
    # The scan records violations for: failed bounds, a repeated
    # (braid, commutation) cell, disconnected G(w)/Gamma(w), non-bipartite
    # G_c/G_b, and a failed jump property.  Zero tolerance.
    ok = scan_s5.violation_count == 0
    ok &= scan_s6.report.violation_count == 0
    for n in (1, 2, 3, 4):
        ok &= scan(ScanOptions(n=n)).violation_count == 0
    for rec in scan_s6.report.records:
        ok &= rec.b + rec.c - 1 <= rec.r <= rec.b * rec.c
    check(4, "theorem bounds and partition orthogonality (n <= 6)", bool(ok))


def test_criterion_5_characterization_equivalences(scan_s5, scan_s6):
    # Equivalence mismatches are recorded as violations by the bounds check;
    # re-derive the headline equivalences from the records as well.
    ok = scan_s5.violation_count == 0 and scan_s6.report.violation_count == 0
    for report in (scan_s5, scan_s6.report):
        for rec in getattr(report, "records", report.records):
            ok &= rec.achieves_upper == (rec.b == 1 or rec.c == 1)
            ok &= rec.achieves_upper == rec.upper_predicate
            ok &= rec.achieves_lower == rec.circuit_free
            ok &= rec.achieves_lower == rec.lower_predicate
            ok &= rec.fully_commutative == (rec.c == 1)
            ok &= rec.single_braid_class == (rec.b == 1)
            ok &= (not rec.achieves_upper) or rec.achieves_lower
    check(5, "characterization equivalences (n <= 6)", bool(ok))


def test_criterion_6_enumeration_formulas(scan_s5, scan_s6):
    upper_expected = [1, 2, 6, 16, 45, 136]
    lower_expected = [1, 2, 6, 23, 65, 177]
    ok = True
    for n in (1, 2, 3, 4):
        rep = scan(ScanOptions(n=n))
        ok &= rep.upper_achiever_count == upper_expected[n - 1] == count_upper(n)
        ok &= rep.lower_achiever_count == lower_expected[n - 1] == count_lower(n)
        ok &= rep.closed_form_match
    ok &= scan_s5.upper_achiever_count == 45 and scan_s5.lower_achiever_count == 65
    ok &= scan_s6.report.upper_achiever_count == 136
    ok &= scan_s6.report.lower_achiever_count == 177
    ok &= scan_s5.closed_form_match and scan_s6.report.closed_form_match
    # n = 7: the enumeration-free predicates count exactly, with no word sets
    rep7 = scan(ScanOptions(n=7, checks=frozenset()))
    ok &= rep7.upper_achiever_count == 434 == count_upper(7)
    ok &= rep7.lower_achiever_count == 506 == count_lower(7)
    check(6, "enumeration formulas (n <= 7)", bool(ok))


def test_criterion_7_weak_order():
    cases = [("34532", 6, 3, 4), ("12312", 4, 3, 3), ("2321", 4, 2, 3)]
    ok = True
    for text, n, wid, sup in cases:
        iv = interval(evaluate(parse_word(text), n))
        ok &= (iv.width, iv.support_size) == (wid, sup)
    for n in (1, 2, 3, 4, 5):
        for w in all_permutations(n):
            ok &= interval(w) == interval_by_closure(w)
    check(7, "weak order widths and interval oracle (n <= 5)", bool(ok))


def test_criterion_8_conjecture_harness(scan_s6, capsys):
    code = cli_run(["conjecture", "--n", "5", "--format", "json"])
    out = capsys.readouterr().out
    ok = code == 0
    obj = json.loads(out)
    ok &= obj["total"] == 120 and obj["skipped"] == 0
    ok &= obj["agreements"] + len(obj["counterexamples"]) == 120

    s6 = scan_s6.report
    ok &= s6.skipped_count == 0
    ok &= all(rec.conjecture_status is not None for rec in s6.records)

    # A counterexample would be a legitimate finding, surfaced loudly but not
    # a failure of this harness.
    found = list(obj["counterexamples"]) + [list(w) for w in s6.conjecture_counterexamples]
    if found:
        print("!" * 72)
        print(f"CONJECTURE COUNTEREXAMPLES FOUND: {found}")
        print("!" * 72)
    else:
        print("conjecture: zero counterexamples at n = 5 and n = 6")
    check(8, "conjecture harness (n = 5, 6)", bool(ok))


def test_criterion_9_determinism(tmp_path, capsys):
    a, b = tmp_path / "w1.jsonl", tmp_path / "w8.jsonl"
    assert cli_run(["scan", "--n", "5", "--workers", "1", "--output", str(a)]) == 0
    assert cli_run(["scan", "--n", "5", "--workers", "8", "--output", str(b)]) == 0
    capsys.readouterr()
    ok = a.read_bytes() == b.read_bytes() and len(a.read_bytes()) > 0
    check(9, "byte-identical scans across worker counts", bool(ok))
