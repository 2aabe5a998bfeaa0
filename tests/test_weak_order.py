import pytest

from redwords.errors import WordCapExceeded
from redwords.permutation import all_permutations, identity, longest_element, parse_window
from redwords.reduced_words import enumerate_words, evaluate, parse_word
from redwords.scan import verify_permutation
from redwords.weak_order import (
    AGREE,
    conjecture_predicate,
    interval,
    interval_by_closure,
    iter_widths,
    support,
)


def test_interval_width_and_support_examples():
    # the three worked interval examples: (width, support)
    cases = [("34532", 6, 3, 4), ("12312", 4, 3, 3), ("2321", 4, 2, 3)]
    for text, n, wid, sup in cases:
        w = evaluate(parse_word(text), n)
        iv = interval(w)
        assert iv.width == wid
        assert iv.support_size == sup


def test_interval_structure():
    w = parse_window("[3421]")
    iv = interval(w)
    assert iv.rank_sizes[0] == 1
    assert iv.rank_sizes[-1] == 1
    assert iv.ranks[0] == ((1, 2, 3, 4),)
    assert iv.ranks[-1] == ((3, 4, 2, 1),)
    assert iv.size == sum(iv.rank_sizes)
    assert iv.width == max(iv.rank_sizes)
    iv0 = interval(identity(4))
    assert iv0.rank_sizes == (1,)
    assert iv0.support_size == 0


def test_interval_maximal_chains():
    # every word's prefix chain passes through exactly one element per rank
    w = parse_window("[3421]")
    ranks = interval(w).ranks
    for u in enumerate_words(w).words:
        win = list(range(1, 5))
        for k, a in enumerate(u, 1):
            win[a - 1], win[a] = win[a], win[a - 1]
            assert tuple(win) in ranks[k]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_prefix_interval_equals_closure_interval(n):
    for w in all_permutations(n):
        assert interval(w) == interval_by_closure(w)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_support_is_word_independent(n):
    for w in all_permutations(n):
        letter_sets = {frozenset(u) for u in enumerate_words(w).words}
        assert len(letter_sets) == 1
        assert support(w) == letter_sets.pop()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_interval_widths_equal_closure_widths(n):
    # Every window of S_n up to n = 7; every 97th window of S_8, and w0.
    widths = list(iter_widths(n))
    perms = list(all_permutations(n))
    assert len(widths) == len(perms)
    sample = sorted({*range(0, len(perms), 97 if n == 8 else 1), len(perms) - 1})
    assert [widths[k] for k in sample] == [interval_by_closure(perms[k]).width for k in sample]


def _largest_mahonian_number(n):
    """The largest coefficient of prod_{k=1..n} (1 + q + ... + q^(k-1))."""
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs = [sum(coeffs[max(0, d - k + 1):d + 1]) for d in range(len(coeffs) + k - 1)]
    return max(coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_width_of_w0_is_the_largest_mahonian_number(n):
    # [e, w0] is all of S_n, ranked by length; w0 is last in window order
    assert list(iter_widths(n))[-1] == _largest_mahonian_number(n)


def test_interval_cap():
    with pytest.raises(WordCapExceeded):
        interval(longest_element(5), cap=100)
    # the closure route has no cap to hit
    assert interval_by_closure(longest_element(5)).width > 1


def test_conjecture_examples():
    assert conjecture_predicate(evaluate(parse_word("2321"), 4))  # width 2
    assert conjecture_predicate(parse_window("[3421]"))  # width = support = 3
    assert not conjecture_predicate(evaluate(parse_word("34532"), 6))
    assert conjecture_predicate(identity(5))  # fully commutative
    assert verify_permutation(parse_window("[3421]")).conjecture_status == AGREE
    assert verify_permutation(evaluate(parse_word("34532"), 6)).conjecture_status == AGREE
    assert verify_permutation(identity(3)).conjecture_status == AGREE


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_conjecture_agrees_exhaustively(n):
    for w in all_permutations(n):
        assert verify_permutation(w).conjecture_status == AGREE
