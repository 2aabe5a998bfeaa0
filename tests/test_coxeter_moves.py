from redwords.permutation import all_permutations
from redwords.reduced_words import BRAID, COMMUTATION, enumerate_words, evaluate, parse_word, word_text

from word_moves import (
    Move,
    apply_braid,
    apply_commutation,
    neighbors,
    supports_braid,
    supports_commutation,
)


def test_braid_move_examples():
    u = parse_word("14232")
    assert supports_braid(u, 4)
    assert word_text(apply_braid(u, 4)) == "14323"
    assert not supports_braid(u, 2)  # the factor 142 supports no braid move
    assert apply_braid(u, 2) == u
    assert word_text(apply_braid(parse_word("121"), 2)) == "212"


def test_commutation_move_examples():
    u = parse_word("14232")
    assert supports_commutation(u, 2)
    assert word_text(apply_commutation(u, 2)) == "12432"
    assert not supports_commutation(u, 4)  # the factor 32 does not commute
    assert apply_commutation(u, 4) == u
    assert word_text(apply_commutation(parse_word("13"), 1)) == "31"


def test_out_of_range_positions_are_unsupported():
    u = parse_word("121")
    for i in (0, 1, 3, 4, 99):
        assert not supports_braid(u, i)
    assert not supports_commutation(u, 0)
    assert not supports_commutation(u, 3)


def test_classify_pair():
    # 1216343 supports braid moves at 2 and 6 and commutations at 3 and 4
    u = parse_word("1216343")
    assert evaluate(u, 7).window == (3, 2, 5, 4, 1, 7, 6)
    assert supports_braid(u, 2) and supports_braid(u, 6)
    assert supports_commutation(u, 3) and supports_commutation(u, 4)
    # the braid moves at 2 and 6 share no letter, so they commute
    assert apply_braid(apply_braid(u, 2), 6) == apply_braid(apply_braid(u, 6), 2)


def test_neighbors_examples():
    assert neighbors(b"") == []
    assert neighbors(parse_word("121")) == [(Move(BRAID, 2), parse_word("212"))]
    # 12432 has exactly one neighbor in G([25314]): a commutation to 14232
    got = neighbors(parse_word("12432"))
    assert got == [(Move(COMMUTATION, 2), parse_word("14232"))]


def exhaustive_words(n_max=5):
    for n in range(2, n_max + 1):
        for w in all_permutations(n):
            for u in enumerate_words(w).words:
                yield n, w, u


def test_moves_preserve_evaluation_and_reducedness():
    for n, w, u in exhaustive_words(5):
        for i in range(1, len(u) + 1):
            for image in (apply_braid(u, i), apply_commutation(u, i)):
                assert evaluate(image, n) == w
                assert len(image) == len(u)


def test_supported_moves_are_involutions():
    for n, w, u in exhaustive_words(5):
        for i in range(1, len(u) + 1):
            if supports_commutation(u, i):
                assert apply_commutation(apply_commutation(u, i), i) == u
            if supports_braid(u, i):
                v = apply_braid(u, i)
                assert v != u
                assert supports_braid(v, i)
                assert apply_braid(v, i) == u


def test_no_adjacent_braid_positions():
    for n, w, u in exhaustive_words(5):
        for i in range(2, len(u) - 1):
            assert not (supports_braid(u, i) and supports_braid(u, i + 1))


def test_commutation_preserves_adjacent_letter_subwords():
    def restricted(u, i):
        return bytes(a for a in u if a in (i, i + 1))

    for n, w, u in exhaustive_words(5):
        for pos in range(1, len(u)):
            if supports_commutation(u, pos):
                v = apply_commutation(u, pos)
                for i in range(1, n - 1):
                    assert restricted(u, i) == restricted(v, i)


def test_neighbor_outputs_are_distinct():
    for n, w, u in exhaustive_words(4):
        got = neighbors(u)
        targets = [v for _, v in got]
        assert len(set(targets)) == len(targets)
        assert u not in targets
