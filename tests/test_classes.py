import random
from itertools import product

import pytest

from redwords.classes import (
    braid_class_shape,
    class_closure,
    partition_with_edges,
    path_product_edge_count,
    verify_braid_class_graph,
)
from redwords.coxeter_moves import BRAID, COMMUTATION, neighbors
from redwords.errors import InvariantViolation
from redwords.graphs import Analysis
from redwords.permutation import all_permutations, identity, parse_window
from redwords.reduced_words import (
    WordSet,
    enumerate_words,
    letter_rows,
    parse_word,
    word_text,
)


def words_of(ws):
    return [[word_text(u) for u in cls] for cls in ws]


def test_partition_25314():
    ws = enumerate_words(parse_window("[25314]"))
    an = Analysis(ws)
    cp = an.partition(COMMUTATION)
    bp = an.partition(BRAID)
    assert words_of(cp.as_word_lists()) == [
        ["12432", "14232", "41232"],
        ["14323", "41323", "43123"],
    ]
    assert words_of(bp.as_word_lists()) == [
        ["12432"],
        ["14232", "14323"],
        ["41232", "41323"],
        ["43123"],
    ]


def test_partition_identity():
    ws = enumerate_words(identity(3))
    for kind in (BRAID, COMMUTATION):
        part = Analysis(ws).partition(kind)
        assert len(part) == 1
        assert part.class_words(0) == [b""]


def test_partition_is_input_order_independent():
    w = parse_window("[25314]")
    ws = enumerate_words(w)
    shuffled = list(ws.words)
    random.Random(7).shuffle(shuffled)
    ws2 = WordSet(target=w, rows=letter_rows(sorted(shuffled)))
    for kind in (BRAID, COMMUTATION):
        assert Analysis(ws).partition(kind) == Analysis(ws2).partition(kind)


def test_partition_classes_cover_word_set():
    for n in (2, 3, 4):
        for w in all_permutations(n):
            ws = enumerate_words(w)
            for kind in (BRAID, COMMUTATION):
                part = Analysis(ws).partition(kind)
                seen = sorted(i for cls in part.classes for i in cls)
                assert seen == list(range(len(ws)))
                reps = [ws.words[cls[0]] for cls in part.classes]
                assert reps == [min(part.class_words(k)) for k in range(len(part))]
                assert reps == sorted(reps)


def test_braid_class_shape_examples():
    # the worked 2^2 * 3^1 class
    cls = class_closure(parse_word("12143465676"), BRAID)
    assert len(cls) == 12
    shape = braid_class_shape(cls, 11)
    assert (shape.x, shape.y) == (2, 1)
    assert shape.size == 12
    # singleton and pair classes from the [25314] example
    single = braid_class_shape([parse_word("12432")], 5)
    assert (single.x, single.y) == (0, 0)
    pair = braid_class_shape([parse_word("14232"), parse_word("14323")], 5)
    assert (pair.x, pair.y) == (1, 0)


def test_braid_class_shape_rejects_other_prime_factors():
    fake = [bytes((1,))] * 5
    with pytest.raises(InvariantViolation):
        braid_class_shape(fake, 30)
    with pytest.raises(InvariantViolation):
        braid_class_shape([bytes((1,))] * 4, 5)  # 3x = 6 > 5 letters
    with pytest.raises(ValueError):
        braid_class_shape([], 4)


def test_path_product_edge_count_against_explicit_product():
    # Independent oracle: build the product of x 2-paths and y 3-paths and
    # count its edges directly.
    def explicit(x, y):
        factors = [2] * x + [3] * y
        vertices = list(product(*[range(k) for k in factors])) or [()]
        edges = 0
        for a in vertices:
            for b in vertices:
                if a < b and sum(abs(p - q) for p, q in zip(a, b)) == 1:
                    edges += 1
        return len(vertices), edges

    for x in range(4):
        for y in range(3):
            vertices, edges = explicit(x, y)
            assert vertices == 2**x * 3**y
            assert path_product_edge_count(x, y) == edges
    assert path_product_edge_count(2, 1) == 20
    assert path_product_edge_count(0, 0) == 0


def test_verify_braid_class_graph():
    cls = class_closure(parse_word("12143465676"), BRAID)
    assert verify_braid_class_graph(cls, 11)
    assert verify_braid_class_graph([parse_word("12432")], 5)
    assert verify_braid_class_graph([parse_word("14232"), parse_word("14323")], 5)
    # an incomplete class: braid moves escape the given set
    assert not verify_braid_class_graph(cls[:6], 11)
    # words of different lengths are not a class
    assert not verify_braid_class_graph([parse_word("121"), parse_word("1213")], 4)


def test_braid_cascades_break_the_path_product_model():
    # Braid moves slide along staircase factors: 1213243 has a single braid
    # factor yet four presentations in a path, so the class conforms in size
    # (4 = 2^2) but not in structure (3 edges instead of 4).
    cls = class_closure(parse_word("1213243"), BRAID)
    assert [word_text(u) for u in cls] == [
        "1213243", "2123243", "2132343", "2132434",
    ]
    assert braid_class_shape(cls, 7).size == 4
    assert not verify_braid_class_graph(cls, 7)
    # One letter more and the size itself leaves the 2^x 3^y family.
    cls5 = class_closure(parse_word("121324354"), BRAID)
    assert len(cls5) == 5
    with pytest.raises(InvariantViolation):
        braid_class_shape(cls5, 9)
    assert not verify_braid_class_graph(cls5, 9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_braid_classes_conform_fully_up_to_n4(n):
    for w in all_permutations(n):
        ws = enumerate_words(w)
        bp = Analysis(ws).partition(BRAID)
        for k in range(len(bp)):
            cls = bp.class_words(k)
            braid_class_shape(cls, w.length())
            assert verify_braid_class_graph(cls, w.length())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_braid_and_commutation_intersections_are_small(n):
    for w in all_permutations(n):
        ws = enumerate_words(w)
        an = Analysis(ws)
        bp = an.partition(BRAID)
        cp = an.partition(COMMUTATION)
        pairs = [(bp.class_of[k], cp.class_of[k]) for k in range(len(ws))]
        assert len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_single_class_characterizations(n):
    for w in all_permutations(n):
        an = Analysis(enumerate_words(w))
        assert (len(an.partition(COMMUTATION)) == 1) == w.is_321_avoiding()
        assert (len(an.partition(BRAID)) == 1) == w.inversions_pairwise_share_letter()


def test_class_closure_matches_partition():
    w = parse_window("[25314]")
    ws = enumerate_words(w)
    for kind in (BRAID, COMMUTATION):
        part = Analysis(ws).partition(kind)
        for k in range(len(part)):
            members = part.class_words(k)
            assert class_closure(members[0], kind) == members


def test_partition_with_edges_counts():
    ws = enumerate_words(parse_window("[25314]"))
    _, b_edges = partition_with_edges(ws, BRAID)
    _, c_edges = partition_with_edges(ws, COMMUTATION)
    assert len(b_edges) == 2
    assert len(c_edges) == 4


@pytest.mark.parametrize("kind", [BRAID, COMMUTATION])
def test_partition_edges_match_word_level_neighbors_on_s5(kind):
    # Independent oracle: the word-level move generator, one word at a time.
    for w in all_permutations(5):
        ws = enumerate_words(w)
        index = {u: k for k, u in enumerate(ws.words)}
        _, edges = partition_with_edges(ws, kind)
        expected = set()
        for k, u in enumerate(ws.words):
            for move, v in neighbors(u):
                if move.kind == kind:
                    expected.add((min(k, index[v]), max(k, index[v])))
        assert len(edges) == len(set(edges))
        assert set(edges) == expected


def _assert_engine_matches_word_level_oracle(ws, kind):
    # Independent oracle: words one move apart by the word-level generator,
    # and each class as the breadth-first closure of its least word.
    index = {u: k for k, u in enumerate(ws.words)}
    part, edges = partition_with_edges(ws, kind)
    expected = {
        (k, index[v])
        for k, u in enumerate(ws.words)
        for move, v in neighbors(u)
        if move.kind == kind and index[v] > k
    }
    assert len(edges) == len(expected) == len(set(edges))
    assert set(edges) == expected
    seen = set()
    for cid, cls in enumerate(part.classes):
        members = [ws.words[i] for i in cls]
        assert class_closure(members[0], kind) == members
        assert all(part.class_of[i] == cid for i in cls)
        seen.update(cls)
    assert seen == set(range(len(ws)))


@pytest.mark.parametrize("kind", [BRAID, COMMUTATION])
def test_partitions_match_class_closure_on_s5(kind):
    for w in all_permutations(5):
        _assert_engine_matches_word_level_oracle(enumerate_words(w), kind)


@pytest.mark.parametrize("window", ["[3,4,5,6,7,8,9,10,1,2]", "[3,4,5,6,7,8,9,10,2,1]"])
@pytest.mark.parametrize("kind", [BRAID, COMMUTATION])
def test_engine_matches_word_level_oracle_on_long_words(window, kind):
    # Letters up to 9 and words of 16 and 17 letters: 1,430 and 4,862 words.
    ws = enumerate_words(parse_window(window))
    assert ws.rows.shape == (len(ws), ws.target.length())
    _assert_engine_matches_word_level_oracle(ws, kind)


def test_a_set_missing_a_smaller_neighbour_is_not_closed():
    # 212 lowers to 121 by a braid move; the engine only looks raising moves
    # up, so the missing 121 shows in the count of lowering moves.
    assert not verify_braid_class_graph([parse_word("212")], 3)
    assert verify_braid_class_graph([parse_word("121"), parse_word("212")], 3)
