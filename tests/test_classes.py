import random
from itertools import product

import pytest

from redwords.classes import (
    braid_class_shape,
    class_closure,
    partition,
    partition_with_edges,
    path_product_edge_count,
    verify_braid_class_graph,
)
from redwords.coxeter_moves import BRAID, COMMUTATION, neighbors
from redwords.errors import InvariantViolation
from redwords.permutation import all_permutations, identity, parse_window
from redwords.reduced_words import WordSet, enumerate_words, parse_word, word_text


def words_of(ws):
    return [[word_text(u) for u in cls] for cls in ws]


def test_partition_25314():
    ws = enumerate_words(parse_window("[25314]"))
    cp = partition(ws, COMMUTATION)
    bp = partition(ws, BRAID)
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
        part = partition(ws, kind)
        assert len(part) == 1
        assert part.class_words(0) == [b""]


def test_partition_is_input_order_independent():
    w = parse_window("[25314]")
    ws = enumerate_words(w)
    shuffled = list(ws.words)
    random.Random(7).shuffle(shuffled)
    ws2 = WordSet(target=w, words=tuple(sorted(shuffled)))
    for kind in (BRAID, COMMUTATION):
        assert partition(ws, kind) == partition(ws2, kind)


def test_partition_classes_cover_word_set():
    for n in (2, 3, 4):
        for w in all_permutations(n):
            ws = enumerate_words(w)
            for kind in (BRAID, COMMUTATION):
                part = partition(ws, kind)
                seen = sorted(i for cls in part.classes for i in cls)
                assert seen == list(range(len(ws)))
                for cid, cls in enumerate(part.classes):
                    assert part.representatives[cid] == ws.words[cls[0]]
                reps = list(part.representatives)
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
        bp = partition(ws, BRAID)
        for k in range(len(bp)):
            cls = bp.class_words(k)
            braid_class_shape(cls, w.length())
            assert verify_braid_class_graph(cls, w.length())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_braid_and_commutation_intersections_are_small(n):
    for w in all_permutations(n):
        ws = enumerate_words(w)
        bp = partition(ws, BRAID)
        cp = partition(ws, COMMUTATION)
        pairs = [(bp.class_of[k], cp.class_of[k]) for k in range(len(ws))]
        assert len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_single_class_characterizations(n):
    for w in all_permutations(n):
        ws = enumerate_words(w)
        assert (len(partition(ws, COMMUTATION)) == 1) == w.is_321_avoiding()
        assert (len(partition(ws, BRAID)) == 1) == w.inversions_pairwise_share_letter()


def test_class_closure_matches_partition():
    w = parse_window("[25314]")
    ws = enumerate_words(w)
    for kind in (BRAID, COMMUTATION):
        part = partition(ws, kind)
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
        index = ws.index()
        _, edges = partition_with_edges(ws, kind)
        expected = set()
        for k, u in enumerate(ws.words):
            for move, v in neighbors(u):
                if move.kind == kind:
                    expected.add((min(k, index[v]), max(k, index[v])))
        assert len(edges) == len(set(edges))
        assert set(edges) == expected
