import gc
import tracemalloc
from itertools import combinations, product
from math import factorial

import numpy as np
import pytest

from redwords.errors import WordCapExceeded
from redwords.permutation import all_permutations, identity, longest_element, parse_window
import redwords.reduced_words as reduced_words
from redwords.reduced_words import (
    WordSet,
    certify_parities,
    count_words,
    enumerate_words,
    evaluate,
    parse_word,
    word_text,
)


def letter_rows(words):
    """The letter matrix of words of one length, one word per row."""
    return np.frombuffer(b"".join(map(bytes, words)), np.uint8).reshape(len(words), -1)


def naive_word_set(w) -> tuple[bytes, ...]:
    """All length-l(w) letter sequences that evaluate to w: the brute oracle."""
    ell = w.length()
    return tuple(
        sorted(
            bytes(seq)
            for seq in product(range(1, w.n), repeat=ell)
            if evaluate(bytes(seq), w.n).window == w.window
        )
    )


def test_evaluate_examples():
    assert evaluate(parse_word("12432"), 5).window == (2, 5, 3, 1, 4)
    assert evaluate(b"", 4) == identity(4)
    assert evaluate(parse_word("345"), 6).window == (1, 2, 4, 5, 6, 3)
    with pytest.raises(ValueError):
        evaluate(bytes((5,)), 5)
    with pytest.raises(ValueError):
        evaluate(bytes((0,)), 5)


def test_is_reduced():
    # A word is reduced when its product has as many inversions as letters.
    assert evaluate(parse_word("121"), 3).length() == 3
    assert evaluate(parse_word("11"), 3).length() != 2
    assert evaluate(parse_word("12432"), 5).length() == 5
    with pytest.raises(ValueError):
        evaluate(bytes((9,)), 3)


def test_enumerate_25314():
    ws = enumerate_words(parse_window("[25314]"))
    assert [word_text(u) for u in ws.words] == [
        "12432", "14232", "14323", "41232", "41323", "43123",
    ]


def test_enumerate_241563_matches_brute_force():
    # [241563] is 321-avoiding, so R is a single commutation class.  The
    # oracle (every 5-letter sequence over 1..5) finds nine words; 34512 is
    # the one a hand enumeration most easily misses.
    w = parse_window("[241563]")
    ws = enumerate_words(w)
    assert ws.words == naive_word_set(w)
    assert [word_text(u) for u in ws.words] == [
        "13245", "13425", "13452", "31245", "31425", "31452",
        "34125", "34152", "34512",
    ]


def test_enumerate_identity():
    ws = enumerate_words(identity(4))
    assert ws.words == (b"",)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_matches_naive_oracle(n):
    for w in all_permutations(n):
        assert enumerate_words(w).words == naive_word_set(w)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_words_evaluate_to_target_with_full_length(n):
    for w in all_permutations(n):
        ws = enumerate_words(w)
        ell = w.length()
        for u in ws.words:
            assert len(u) == ell
            assert evaluate(u, n) == w


def test_count_examples():
    assert count_words(parse_window("[25314]")) == 6
    assert count_words(evaluate(parse_word("12312"), 4)) == 5  # [3421]
    assert count_words(longest_element(4)) == 16


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_equals_enumeration(n):
    for w in all_permutations(n):
        assert count_words(w) == len(enumerate_words(w))


def _vexillary(win):
    """No 2143 pattern in the window."""
    return not any(
        win[b] < win[a] < win[d] < win[c] for a, b, c, d in combinations(range(len(win)), 4)
    )


def _standard_tableaux(shape):
    """f^shape, the number of standard Young tableaux, by the hook lengths."""
    cols = [sum(part > j for part in shape) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= part - j + cols[j] - i - 1
    return factorial(sum(shape)) // hooks


def _transition_count(win, memo):
    """r(w) from the Stanley symmetric function F_w, with no descent recursion.

    A vexillary w has F_w = s_lambda, lambda its Lehmer code sorted (Stanley
    1984; Edelman-Greene 1987), so r(w) = f^lambda.  Otherwise the
    Lascoux-Schutzenberger transition (Little 2003) writes F_w as a sum over
    children: with r the last descent of w, s the last position after r
    with w(s) < w(r) and v = w t_rs, the children are the v t_ir, i < r,
    with v(i) < v(r) and no value of v between them at a position between
    them; when there is none, F_w = F_(1 x w), w shifted up by a fixed 1.
    """
    got = memo.get(win)
    if got is not None:
        return got
    if _vexillary(win):
        code = [sum(y < x for y in win[i + 1:]) for i, x in enumerate(win)]
        got = _standard_tableaux(sorted((c for c in code if c), reverse=True))
    else:
        n = len(win)
        r = max(i for i in range(n - 1) if win[i] > win[i + 1])
        s = max(j for j in range(r + 1, n) if win[j] < win[r])
        v = list(win)
        v[r], v[s] = v[s], v[r]
        kids = []
        for i in range(r):
            if v[i] < v[r] and not any(v[i] < v[j] < v[r] for j in range(i + 1, r)):
                u = v[:]
                u[i], u[r] = u[r], u[i]
                kids.append(tuple(u))
        if kids:
            got = sum(_transition_count(u, memo) for u in kids)
        else:
            got = _transition_count((1, *(x + 1 for x in win)), memo)
    memo[win] = got
    return got


def test_count_words_equals_the_transition_tree_on_s1_to_s7():
    # An independent route to r(w): the leaves of the transition tree are
    # vexillary, and their f^lambda sum to r(w).
    memo, vexillary = {}, []
    for n in range(1, 8):
        perms = list(all_permutations(n))
        assert [w.window for w in perms if _transition_count(w.window, memo) != count_words(w)] == []
        vexillary.append(sum(map(_vexillary, (w.window for w in perms))))
    assert vexillary == [1, 2, 6, 23, 103, 513, 2761]  # OEIS A005802


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetry_counts(n):
    for w in all_permutations(n):
        c = count_words(w)
        assert count_words(w.inverse()) == c
        assert count_words(w.complement()) == c


@pytest.mark.parametrize("n", [2, 3, 4])
def test_word_level_symmetries(n):
    # Reversing every word of R(w) gives R(w^-1); complementing every letter
    # (i -> n-i) gives R of the conjugate by the longest element.
    for w in all_permutations(n):
        words = set(enumerate_words(w).words)
        reversed_words = {u[::-1] for u in words}
        assert reversed_words == set(enumerate_words(w.inverse()).words)
        complemented = {bytes(n - a for a in u) for u in words}
        assert complemented == set(enumerate_words(w.complement()).words)


def walked_parities(word, n) -> int:
    """p_b | p_c << 1 of one word, from its own inversion sequence.

    Each step swaps the values at two adjacent positions, an inversion of the
    product; the reference order of the value pairs is lexicographic, and
    p_b and p_c count the disjoint and the overlapping pairs listed in
    reverse, mod 2.
    """
    win = list(range(1, n + 1))
    seq = []
    for a in word:
        x, y = win[a - 1], win[a]
        seq.append((min(x, y), max(x, y)))
        win[a - 1], win[a] = y, x
    bits = 0
    for i, s in enumerate(seq):
        for t in seq[i + 1 :]:
            if s > t:
                bits ^= 2 if set(s) & set(t) else 1
    return bits


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_parities_match_the_inversion_order_walk(n):
    # The walk and the recursion may fix the parity of a different reference
    # word, so they must agree up to one XOR per permutation.
    for w in all_permutations(n):
        ws = enumerate_words(w)
        walked = np.array([walked_parities(u, n) for u in ws.words], dtype=np.uint8)
        got = ws.parities
        assert got.dtype == np.uint8 and len(got) == len(ws)
        assert (got ^ walked == got[0] ^ walked[0]).all(), w.window


def test_cap():
    w = parse_window("[25314]")
    with pytest.raises(WordCapExceeded) as exc:
        enumerate_words(w, cap=5)
    assert exc.value.count == 6
    assert exc.value.cap == 5
    with pytest.raises(WordCapExceeded):
        count_words(w, cap=5)
    assert len(enumerate_words(w, cap=6)) == 6
    assert len(enumerate_words(w, cap=None)) == 6


@pytest.mark.parametrize("delta", [{1: 1}, {1: 1, 2: -1}])
def test_a_doctored_walk_size_raises(monkeypatch, delta):
    # The walk writes each block at the sum of the sizes before it.  One
    # word too many in the block of s_1 w0 disagrees with the count; one
    # word moved from the block of s_2 w0 to it leaves a zero row in one
    # block and overwrites a word of the next, which breaks the order.
    w = longest_element(4)
    assert len(enumerate_words(w)) == 16
    top = w.inverse().window
    doctored_size = {reduced_words._swap(top, a - 1): d for a, d in delta.items()}  # s_a w0
    real = reduced_words._walk

    def doctored(inv, memo, *args):
        first = inv not in memo
        u = real(inv, memo, *args)
        if first and inv in doctored_size:
            args[-1][u] += doctored_size[inv]  # its entry of ``sizes``
        return u

    monkeypatch.setattr(reduced_words, "_walk", doctored)
    with pytest.raises(AssertionError):
        enumerate_words(w)


def test_the_walk_holds_no_word_outside_the_matrix():
    # The words are written into the final matrix in place: on 1,998,568
    # words of 16 letters, the traced peak stays within 10 % of the matrix.
    w = parse_window("[57283164]")
    count_words(w)  # imports and caches that are not the fill's
    tracemalloc.start()
    try:
        ws = enumerate_words(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ws) == 1_998_568
    assert peak <= 1.1 * ws.rows.nbytes, (peak, ws.rows.nbytes)


def test_a_word_set_past_int32_indices_raises():
    # w0 of S_8 has about 2.1e13 reduced words: uncapped, it raises before
    # any walk instead of overflowing the int32 word indices.
    with pytest.raises(OverflowError):
        enumerate_words(longest_element(8), cap=None)


def test_count_words_leaves_no_cyclic_garbage():
    # The memo must be freed by reference counting when the call returns, not
    # wait for the cyclic collector.
    w = parse_window("[465312]")
    gc.collect()
    gc.disable()
    try:
        count = count_words(w)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert (count, unreachable) == (2_970, 0)


def test_longest_element_counts():
    # Staircase numbers for the longest elements, here recomputed from the
    # hook-type product (2k choose k-type closed values frozen from it).
    assert count_words(longest_element(3)) == 2
    assert count_words(longest_element(4)) == 16
    assert count_words(longest_element(5)) == 768
    assert count_words(longest_element(6)) == 292864


def test_word_text_forms():
    assert word_text(b"") == "e"
    assert word_text(parse_word("12432")) == "12432"
    assert word_text(bytes((10, 9, 10))) == "10,9,10"
    assert parse_word("e") == b""
    assert parse_word("") == b""
    assert parse_word("10,9,10") == bytes((10, 9, 10))
    assert parse_word("1 2 1") == bytes((1, 2, 1))
    with pytest.raises(ValueError):
        parse_word("1x2")
    with pytest.raises(ValueError):
        parse_word("102")  # a zero letter


def test_word_text_matches_the_joined_letters():
    def reference(word):
        if len(word) == 0:
            return "e"
        return ("" if max(word) <= 9 else ",").join(str(a) for a in word)

    words = [b"\x05", bytes(range(1, 10)), bytes((9, 10)), bytes((0, 3)), bytes((255, 1)),
             [1, 2, 12], (3, 1)]
    for u in words:
        assert word_text(u) == reference(u), u
    assert word_text(letter_rows([b"\x01\x02\x01"])[0]) == "121"


def test_texts_match_word_text():
    # The letter-matrix rendering against the one-word form on all of S_1..S_6.
    for n in range(1, 7):
        for w in all_permutations(n):
            ws = enumerate_words(w)
            assert ws.texts == [word_text(u) for u in ws.words], w.window
    assert enumerate_words(identity(4)).texts == ["e"]
    # A letter above 9 takes the comma form, which the digit rendering lacks.
    ws = WordSet(identity(1), letter_rows([bytes((1, 2, 3)), bytes((10, 9, 10))]))
    assert ws.texts == ["123", "10,9,10"]


def test_word_set_is_sorted_and_typed():
    ws = enumerate_words(parse_window("[3421]"))
    assert isinstance(ws, WordSet)
    assert list(ws.words) == sorted(ws.words)
    assert len(set(ws.words)) == len(ws.words)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_parity_certificate_holds_on_every_element_of_s_n(monkeypatch, n):
    # [e, w0] is all of S_n, so one walk from w0 checks the moves at position
    # 0 of every element, and with them every move edge of every R(w) in
    # S_n; w0 of S_8 takes about 0.4 s.
    monkeypatch.setattr(reduced_words, "_certified", certified := set())
    assert certify_parities(longest_element(n)) == {}
    assert len(certified) == factorial(n)


def test_a_shared_certificate_walks_no_element_twice(monkeypatch):
    monkeypatch.setattr(reduced_words, "_certified", certified := set())
    assert certify_parities(parse_window("[25314]")) == {}
    assert len(certified) == 11  # the elements of [e, w] in the left weak order
    before = set(certified)

    calls = []
    real = reduced_words._flips

    def counting(inv):
        calls.append(inv)
        return real(inv)

    monkeypatch.setattr(reduced_words, "_flips", counting)
    # [15324] = s_1 [25314] is below it: nothing is walked again.
    assert certify_parities(parse_window("[15324]")) == {}
    assert calls == []
    # w0 of S_5 walks the rest of S_5, reading each element's constants once.
    assert certify_parities(longest_element(5)) == {}
    assert len(certified) == 120
    assert len(calls) == len(set(calls)) and set(calls) >= certified - before
