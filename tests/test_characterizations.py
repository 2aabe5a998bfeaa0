import pytest

from redwords.characterizations import (
    _raw_template_words,
    catalan,
    count_lower,
    count_upper,
    lower_pattern_from_words,
    lower_predicate_pattern,
    lower_template_windows,
    upper_predicate,
    word_matches_lower_template,
)
from redwords.graphs import Analysis, analyse
from redwords.permutation import all_permutations, from_window, identity, parse_window
from redwords.reduced_words import BRAID, COMMUTATION, enumerate_words, evaluate, parse_word
from redwords.scan import verify_permutation


def bounds_record(w):
    """The bound fields of w's scan record; the bounds are theorems, so no violation."""
    st = verify_permutation(w, checks=frozenset({"bounds"}))
    assert st.violations == ()
    return st


def test_bound_status_examples():
    st = bounds_record(parse_window("[25314]"))
    assert (st.r, st.b, st.c) == (6, 4, 2)
    assert not st.achieves_lower and not st.achieves_upper

    st = bounds_record(parse_window("[3421]"))
    assert st.r == 5
    assert st.achieves_lower

    w = evaluate(parse_word("34532"), 6)
    assert w.window == (1, 5, 2, 4, 6, 3)
    st = bounds_record(w)
    assert st.r == 6
    assert st.b + st.c - 1 == 5
    assert not st.achieves_lower

    st = bounds_record(identity(5))
    assert (st.r, st.b, st.c) == (1, 1, 1)
    assert st.achieves_lower and st.achieves_upper


def test_upper_predicate_examples():
    assert upper_predicate(parse_window("[241563]"))
    assert upper_predicate(parse_window("[3214]"))  # swaps 1 and 3, fixes the rest
    assert not upper_predicate(parse_window("[25314]"))
    assert upper_predicate(identity(4))
    assert not upper_predicate(parse_window("[3241]"))


def test_lower_predicate_examples():
    assert lower_predicate_pattern(evaluate(parse_word("2321"), 4))  # [4132]
    assert lower_predicate_pattern(evaluate(parse_word("12312"), 4))  # [3421]
    assert not lower_predicate_pattern(evaluate(parse_word("34532"), 6))  # [152463]
    assert lower_predicate_pattern(identity(3))


def test_is_circuit_free_examples():
    assert analyse(parse_window("[3421]")).circuit_free
    assert not analyse(evaluate(parse_word("34532"), 6)).circuit_free
    assert analyse(identity(4)).circuit_free
    assert not analyse(parse_window("[25314]")).circuit_free


def test_word_template_matcher_spot_cases():
    assert word_matches_lower_template(parse_word("2321"), 4)
    # 21232 only matches through its reversal 23212
    assert word_matches_lower_template(parse_word("21232"), 4)
    assert not word_matches_lower_template(parse_word("12345"), 6)
    assert not word_matches_lower_template(parse_word("34532"), 6)


def test_counts_closed_forms():
    assert [catalan(n) for n in range(1, 8)] == [1, 2, 5, 14, 42, 132, 429]
    assert [count_upper(n) for n in range(1, 8)] == [1, 2, 6, 16, 45, 136, 434]
    assert [count_lower(n) for n in range(1, 8)] == [1, 2, 6, 23, 65, 177, 506]
    assert count_upper(5) == 45
    assert count_lower(5) == 65
    assert count_lower(2) == 2
    assert catalan(30) == 3814986502092304
    for bad in (0, -1, 31):
        with pytest.raises(ValueError):
            catalan(bad)
        with pytest.raises(ValueError):
            count_upper(bad)
        with pytest.raises(ValueError):
            count_lower(bad)


def test_template_window_families():
    # The per-family tallies behind the lower-bound count: the family list
    # must be symmetry-closed and duplicate-free.
    for n in range(3, 11):
        wins = lower_template_windows(n)
        expected = (
            2 * (n - 3) * (n - 1) + max(0, n - 3)
            + (n - 2) * (n - 3) * (n - 4) // 3
        )
        assert len(wins) == max(0, expected)
        for win in wins:
            w = from_window(win)
            assert w.inverse().window in wins
            assert w.complement().window in wins
            assert not w.is_321_avoiding()
            assert not w.inversions_pairwise_share_letter()


def test_template_windows_satisfy_the_word_route():
    # The window route generates the raw shapes that the word route
    # recognises; this carries window route => word route past the
    # exhaustive sweep, to S_7 and S_8.
    for n in range(1, 11):
        for word in _raw_template_words(n):
            assert word_matches_lower_template(word, n), (n, word)
    for n in (7, 8):
        for win in lower_template_windows(n):
            assert lower_pattern_from_words(enumerate_words(from_window(win))), win


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_characterization_equivalences_exhaustive(n):
    for w in all_permutations(n):
        ws = enumerate_words(w)
        an = Analysis(ws)
        b = len(an.partition(BRAID))
        c = len(an.partition(COMMUTATION))
        r = len(ws)
        assert b + c - 1 <= r <= b * c
        upper = r == b * c
        lower = r == b + c - 1
        assert upper == (b == 1 or c == 1)
        assert upper == upper_predicate(w)
        assert lower == an.circuit_free
        assert lower == lower_predicate_pattern(w)
        assert lower == lower_pattern_from_words(ws)
        if upper:
            assert lower
        if c == 1:
            assert b == r
        if b == 1:
            assert c == r


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_achiever_counts_match_closed_forms(n):
    uppers = lowers = 0
    for w in all_permutations(n):
        st = bounds_record(w)
        uppers += st.achieves_upper
        lowers += st.achieves_lower
    assert uppers == count_upper(n)
    assert lowers == count_lower(n)
