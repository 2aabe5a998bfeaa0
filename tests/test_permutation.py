import pickle
from itertools import combinations, permutations

import pytest

from redwords.permutation import (
    Permutation,
    all_permutations,
    from_window,
    identity,
    longest_element,
    parse_window,
    window_text,
)


def brute_force_321_avoiding(w: Permutation) -> bool:
    win = w.window
    n = len(win)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if win[i] > win[j] > win[k]:
                    return False
    return True


def test_identity():
    assert identity(3).window == (1, 2, 3)
    assert identity(1).window == (1,)
    assert identity(5).length() == 0
    with pytest.raises(ValueError):
        identity(0)


def test_from_window_validation():
    assert from_window([2, 5, 3, 1, 4]).length() == 5
    assert from_window([1, 2, 3]) == identity(3)
    with pytest.raises(ValueError):
        from_window([2, 2, 1])
    with pytest.raises(ValueError):
        from_window([1, 2, 4])
    with pytest.raises(ValueError):
        from_window([])
    with pytest.raises(ValueError):
        from_window([0, 1])


def test_length_examples():
    assert from_window([2, 5, 3, 1, 4]).length() == 5
    assert identity(6).length() == 0
    # inversions of [321] by hand: (1,2), (1,3), (2,3)
    assert from_window([3, 2, 1]).length() == 3
    assert longest_element(5).length() == 10


def test_right_descents():
    # [25314] descends at positions 2 (5>3) and 3 (3>1)
    assert from_window([2, 5, 3, 1, 4]).right_descents() == {2, 3}
    assert identity(4).right_descents() == set()
    assert longest_element(4).right_descents() == {1, 2, 3}


def test_multiply_right_length_steps():
    for w in all_permutations(4):
        for i in range(1, 4):
            # w s_i swaps window positions i and i + 1
            win = list(w.window)
            win[i - 1], win[i] = win[i], win[i - 1]
            delta = from_window(win).length() - w.length()
            assert abs(delta) == 1
            assert (delta == -1) == (i in w.right_descents())


def test_is_321_avoiding_examples():
    assert from_window([2, 4, 1, 5, 6, 3]).is_321_avoiding()
    assert not from_window([2, 5, 3, 1, 4]).is_321_avoiding()  # 5 > 3 > 1
    assert identity(6).is_321_avoiding()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_is_321_avoiding_matches_brute_force(n):
    for w in all_permutations(n):
        assert w.is_321_avoiding() == brute_force_321_avoiding(w)


def test_inversions_pairwise_share_letter():
    assert from_window([1, 2, 4, 5, 6, 3]).inversions_pairwise_share_letter()
    assert not from_window([2, 5, 3, 1, 4]).inversions_pairwise_share_letter()
    assert identity(5).inversions_pairwise_share_letter()
    # one inversion: vacuously true
    assert from_window([2, 1, 3]).inversions_pairwise_share_letter()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_inversions_pairwise_share_letter_matches_brute_force(n):
    for w in all_permutations(n):
        win = w.window
        inversions = [
            {win[i], win[j]} for i, j in combinations(range(n), 2) if win[i] > win[j]
        ]
        expected = all(x & y for x, y in combinations(inversions, 2))
        assert w.inversions_pairwise_share_letter() == expected, win


def test_reading_inversions_keeps_equality_hash_and_pickle():
    for window in ((2, 5, 3, 1, 4), (3, 2, 1), (1,)):
        read, fresh = from_window(window), from_window(window)
        assert read.inversions == tuple(
            (a, b) for a, b in combinations(window, 2) if a > b
        )
        assert read == fresh and hash(read) == hash(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(read)) == fresh
        assert "inversions" not in vars(pickle.loads(pickle.dumps(read)))
        # The cached predicates and length() add nothing to the pickle either.
        read.is_321_avoiding()
        read.inversions_pairwise_share_letter()
        read.length()
        assert pickle.dumps(read) == pickle.dumps(from_window(window))
        assert vars(pickle.loads(pickle.dumps(read))) == {"window": window}


def test_complement_and_inverse_are_length_preserving_involutions():
    for w in all_permutations(4):
        for img in (w.complement(), w.inverse()):
            assert img.length() == w.length()
        assert w.complement().complement() == w
        assert w.inverse().inverse() == w
        assert w.complement().inverse() == w.inverse().complement()


def test_complement_is_conjugation_by_longest_element():
    for n in (2, 3, 4):
        w0 = longest_element(n)
        for w in all_permutations(n):
            conj = tuple(w0.window[w.window[w0.window[i - 1] - 1] - 1] for i in range(1, n + 1))
            assert w.complement().window == conj
        assert identity(n).complement() == identity(n)
        assert w0.complement() == w0


def test_parse_window_forms():
    assert parse_window("[25314]").window == (2, 5, 3, 1, 4)
    assert parse_window("2 5 3 1 4").window == (2, 5, 3, 1, 4)
    assert parse_window("2,5,3,1,4").window == (2, 5, 3, 1, 4)
    assert parse_window("[2, 5, 3, 1, 4]").window == (2, 5, 3, 1, 4)
    with pytest.raises(ValueError):
        parse_window("")
    with pytest.raises(ValueError):
        parse_window("[12a3]")
    with pytest.raises(ValueError):
        parse_window("[1231]")


def test_window_text_round_trip():
    for n in (1, 4, 9):
        for win in list(permutations(range(1, n + 1)))[:24]:
            w = Permutation(win)
            assert parse_window(window_text(w)) == w
    big = Permutation(tuple(range(10, 0, -1)))
    assert window_text(big) == "10 9 8 7 6 5 4 3 2 1"
    assert parse_window(window_text(big)) == big


def test_max_n_guard():
    with pytest.raises(ValueError):
        Permutation(tuple(range(1, 13)))
