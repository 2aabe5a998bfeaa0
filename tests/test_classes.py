import random
from itertools import product

import numpy as np
import pytest

from redwords.classes import (
    IndexPairs,
    _lowered,
    braid_class_shape,
    commutation_partition,
    move_edges,
    partition_with_edges,
    path_product_edge_count,
)
from redwords.graphs import Analysis
from redwords.permutation import (
    all_permutations,
    identity,
    longest_element,
    parse_window,
)
from redwords.reduced_words import (
    BRAID,
    COMMUTATION,
    WordSet,
    enumerate_words,
    parse_word,
    row_keys,
    word_text,
)

from word_moves import class_closure, neighbors, verify_braid_class_graph


def letter_rows(words):
    """The letter matrix of words of one length, one word per row."""
    return np.frombuffer(b"".join(map(bytes, words)), np.uint8).reshape(len(words), -1)


def words_of(ws):
    return [[word_text(u) for u in cls] for cls in ws]


def test_partition_25314():
    ws = enumerate_words(parse_window("[25314]"))
    an = Analysis(ws)
    cp = an.partition(COMMUTATION)
    bp = an.partition(BRAID)
    assert words_of(cp.grouped(ws.words)) == [
        ["12432", "14232", "41232"],
        ["14323", "41323", "43123"],
    ]
    assert words_of(bp.grouped(ws.words)) == [
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
        assert part.grouped(ws.words)[0] == [b""]


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
                seen = sorted(i for cls in part.grouped(range(len(ws))) for i in cls)
                assert seen == list(range(len(ws)))
                reps = [ws.words[cls[0]] for cls in part.grouped(range(len(ws)))]
                assert reps == [min(cls) for cls in part.grouped(ws.words)]
                assert reps == sorted(reps)


def test_braid_class_shape_examples():
    # the worked 2^2 * 3^1 class
    cls = class_closure(parse_word("12143465676"), BRAID)
    assert len(cls) == 12
    assert braid_class_shape(len(cls), 11) == (2, 1)
    # singleton and pair classes from the [25314] example
    assert braid_class_shape(1, 5) == (0, 0)
    assert braid_class_shape(2, 5) == (1, 0)


def test_braid_class_shape_rejects_other_prime_factors():
    assert braid_class_shape(5, 30) is None
    assert braid_class_shape(4, 5) is None  # 3x = 6 > 5 letters
    with pytest.raises(ValueError):
        braid_class_shape(0, 4)


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
    # a repeated word is not a class, and neither is no word at all
    assert not verify_braid_class_graph([parse_word("121"), parse_word("121")], 3)
    assert not verify_braid_class_graph([], 3)


def test_braid_cascades_break_the_path_product_model():
    # Braid moves slide along staircase factors: 1213243 has a single braid
    # factor yet four presentations in a path, so the class conforms in size
    # (4 = 2^2) but not in structure (3 edges instead of 4).
    cls = class_closure(parse_word("1213243"), BRAID)
    assert [word_text(u) for u in cls] == [
        "1213243", "2123243", "2132343", "2132434",
    ]
    assert braid_class_shape(len(cls), 7) == (2, 0)
    assert not verify_braid_class_graph(cls, 7)
    # One letter more and the size itself leaves the 2^x 3^y family.
    cls5 = class_closure(parse_word("121324354"), BRAID)
    assert len(cls5) == 5
    assert braid_class_shape(len(cls5), 9) is None
    assert not verify_braid_class_graph(cls5, 9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_braid_classes_conform_fully_up_to_n4(n):
    for w in all_permutations(n):
        ws = enumerate_words(w)
        bp = Analysis(ws).partition(BRAID)
        for cls in bp.grouped(ws.words):
            assert braid_class_shape(len(cls), w.length()) is not None
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
        for members in part.grouped(ws.words):
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
    for cid, cls in enumerate(part.grouped(range(len(ws)))):
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


def search_move_edges(rows, kind):
    """Oracle: the move edges of a sorted letter matrix by binary search.

    Each raising move is applied to a copy of the rows, and one
    ``np.searchsorted`` per position finds the moved words among the rows,
    seen as fixed-width byte strings; a moved word that is missing, or more
    lowering than raising moves, raises KeyError.
    """
    keys = row_keys(rows)
    span = 2 if kind == COMMUTATION else 3
    none = np.empty(0, dtype=np.intp)
    lower, upper, lowering = [none], [none], 0
    for p in range(rows.shape[1] - span + 1):
        a, b = rows[:, p], rows[:, p + 1]
        if kind == COMMUTATION:
            raising = (b > a) & (b - a > 1)
            lowering += np.count_nonzero((a > b) & (a - b > 1))
        else:
            c = rows[:, p + 2]
            raising = (a == c) & (b > a) & (b - a == 1)
            lowering += np.count_nonzero((a == c) & (a > b) & (a - b == 1))
        k = np.flatnonzero(raising)
        moved = rows[k]
        moved[:, p], moved[:, p + 1] = rows[k, p + 1], rows[k, p]
        if kind == BRAID:
            moved[:, p + 2] = moved[:, p]
        wanted = row_keys(moved)
        v = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        if not (keys[v] == wanted).all():
            raise KeyError(f"the words are not closed under {kind} moves")
        lower.append(k)
        upper.append(v)
    edges = IndexPairs(np.concatenate(lower), np.concatenate(upper))
    if lowering != len(edges):
        raise KeyError(f"the words are not closed under {kind} moves")
    return edges


def _ranked_against_search_sets():
    for n in range(1, 6):
        yield from all_permutations(n)
    yield longest_element(6)
    yield parse_window("[465321]")


@pytest.mark.parametrize("kind", [BRAID, COMMUTATION])
def test_ranked_move_edges_equal_the_search(kind):
    # The same pairs in the same order, by position and then by word, with
    # the same index type, on all of S_1-S_5, w0 of S_6 and [465321].
    for w in _ranked_against_search_sets():
        ws = enumerate_words(w)
        got, want = move_edges(ws, kind), search_move_edges(ws.rows, kind)
        assert got.u.dtype == want.u.dtype and got.v.dtype == want.v.dtype, w
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v), w


@pytest.mark.parametrize("kind", [BRAID, COMMUTATION])
def test_rows_that_are_not_the_walks_raise_key_error(kind):
    # A word with a move of the kind, dropped or with one letter changed,
    # leaves its neighbour without it: every such set must raise, never give
    # an edge read at a wrong index.  A letter past the walk's letters must
    # raise too, not index out of range.
    ws = enumerate_words(longest_element(4))
    assert len(move_edges(WordSet(ws.target, ws.rows.copy(), ws.blocks), kind))
    doctored = 0
    for i, word in enumerate(ws.words):
        if not any(move.kind == kind for move, _ in neighbors(word)):
            continue
        squared = ws.rows.copy()
        squared[i, 1] = squared[i, 0]  # a square: no longer a reduced word
        far = ws.rows.copy()
        far[i, -1] = 200
        for rows in (np.delete(ws.rows, i, axis=0), squared, far):
            with pytest.raises(KeyError):
                move_edges(WordSet(ws.target, rows, ws.blocks), kind)
        doctored += 1
    assert doctored >= len(ws) // 2


def _pointer_route_sets():
    for n in range(1, 7):
        yield from all_permutations(n)
    # The largest permutations of S_7 and S_8 under the default cap.
    yield parse_window("[7362541]")
    yield parse_window("[57283164]")


def test_commutation_classes_by_pointers_equal_the_components_of_the_moves():
    # The same ids, numbered by least word, as the components of the move
    # edges, on all of S_1-S_6 and on 1,747,746 and 1,998,568 words.
    for w in _pointer_route_sets():
        ws = enumerate_words(w)
        got = commutation_partition(ws)
        want, _ = partition_with_edges(ws, COMMUTATION)
        assert got.kind == COMMUTATION and got.word_set is ws
        assert got.class_of.dtype == want.class_of.dtype, w
        assert np.array_equal(got.class_of, want.class_of), w


def test_pointers_taken_a_few_rows_at_a_time_are_those_taken_at_once():
    # Each word's pointer reads only its own letters and walk, so the batch
    # size cannot change it; the pointers are int32, the class ids int64.
    ws = enumerate_words(longest_element(5))
    whole = _lowered(ws.rows, ws.blocks)
    assert whole.dtype == np.int32 and len(whole) == len(ws) == 768
    for batch in (1, 7, len(ws) - 1):
        assert np.array_equal(_lowered(ws.rows, ws.blocks, batch), whole), batch
    assert commutation_partition(ws).class_of.dtype == np.int64


def test_rows_that_are_not_the_walks_raise_key_error_from_the_pointers():
    # As for the move edges: a word with a commutation move, dropped, with
    # one letter changed, or with a letter past the walk's letters.
    ws = enumerate_words(longest_element(4))
    assert len(commutation_partition(WordSet(ws.target, ws.rows.copy(), ws.blocks))) == 8
    doctored = 0
    for i, word in enumerate(ws.words):
        if not any(move.kind == COMMUTATION for move, _ in neighbors(word)):
            continue
        squared = ws.rows.copy()
        squared[i, 1] = squared[i, 0]
        far = ws.rows.copy()
        far[i, -1] = 200
        for rows in (np.delete(ws.rows, i, axis=0), squared, far):
            with pytest.raises(KeyError):
                commutation_partition(WordSet(ws.target, rows, ws.blocks))
        doctored += 1
    assert doctored >= len(ws) // 2
