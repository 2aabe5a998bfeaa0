import pytest

from redwords.classes import (
    ClassPartition,
    IndexPairs,
    components,
    odd_components,
)
from redwords.graphs import (
    IndexGraph,
    analyse,
    build_class_graph,
    build_gamma,
    build_table,
    build_word_graph,
    contract,
    dot_lines,
    jump_property,
)
from redwords.permutation import all_permutations, identity, parse_window
from redwords.reduced_words import BRAID, COMMUTATION

from word_moves import verify_braid_class_graph


def braid_graph(labels, *pairs):
    """A graph whose edges, given as (u, v) pairs, are all braid edges."""
    return IndexGraph(tuple(labels), {BRAID: IndexPairs.of(pairs)})


def all_pairs(g):
    return [(u, v) for _, u, v, _ in g.iter_edges()]


def edge_count(g):
    return sum(len(pairs) for pairs in g.edges.values())


def form(g):
    """Labels, the pairs of each kind and the witnesses, as plain lists."""
    return list(g.labels), {kind: list(pairs) for kind, pairs in g.edges.items()}, g.witnesses


def dot_text(g, style="word"):
    return "".join(line + "\n" for line in dot_lines(g, style))


# Graph predicates on a built IndexGraph: the oracles that the views and the
# analysis's own answers are checked against.
def is_connected(g):
    return not components(len(g.labels), all_pairs(g)).any()


def is_bipartite(g):
    return not len(odd_components(len(g.labels), all_pairs(g)))


def is_tree(g):
    return is_connected(g) and edge_count(g) == len(g.labels) - 1


def graph_for(window_text_form):
    an = analyse(parse_window(window_text_form))
    return an, build_word_graph(an)


def edge_set(g, kind):
    return {(g.labels[u], g.labels[v]) for u, v in g.edges[kind]}


def test_word_graph_25314():
    an, g = graph_for("[25314]")
    assert len(g.labels) == 6
    assert len(g.edges[COMMUTATION]) == 4
    assert len(g.edges[BRAID]) == 2
    assert edge_set(g, COMMUTATION) == {
        ("12432", "14232"), ("14232", "41232"), ("14323", "41323"), ("41323", "43123"),
    }
    assert edge_set(g, BRAID) == {("14232", "14323"), ("41232", "41323")}


def test_word_graph_trivial_cases():
    an, g = graph_for("[1234]")
    assert (len(g.labels), edge_count(g)) == (1, 0)
    an, g = graph_for("[321]")
    assert len(g.labels) == 2
    assert edge_set(g, BRAID) == {("121", "212")}


def test_contract_25314():
    an, g = graph_for("[25314]")
    gc = contract(g, COMMUTATION)
    assert gc.labels == ["C1", "C2"]
    assert [(u, v, kind) for kind, u, v, _ in gc.iter_edges()] == [(0, 1, BRAID)]
    gb = contract(g, BRAID)
    assert gb.labels == ["B1", "B2", "B3", "B4"]
    assert all_pairs(gb) == [(0, 1), (1, 2), (2, 3)]  # a path
    edgeless = IndexGraph(labels=("a", "b"), edges={})
    assert contract(edgeless, BRAID).labels == ["B1", "B2"]


def test_predicates():
    an, g = graph_for("[25314]")
    assert is_connected(g)
    assert is_bipartite(contract(g, COMMUTATION))
    assert is_bipartite(contract(g, BRAID))
    single = IndexGraph(labels=("v",), edges={})
    assert is_connected(single) and is_bipartite(single) and is_tree(single)
    triangle = braid_graph("abc", (0, 1), (1, 2), (0, 2))
    assert not is_bipartite(triangle)
    assert not is_tree(triangle)
    disconnected = IndexGraph(labels=("a", "b"), edges={})
    assert not is_connected(disconnected)


def test_is_bipartite_matches_brute_force_two_coloring():
    # Independent oracle: try all 2^V colorings on small random-ish graphs.
    def brute(g):
        v = len(g.labels)
        for bits in range(2**v):
            if all((bits >> u) & 1 != (bits >> w) & 1 for u, w in all_pairs(g)):
                return True
        return v == 0

    samples = [
        braid_graph("abcde", (0, 1), (1, 2)),
        braid_graph("abcde", (0, 1), (1, 2), (2, 0)),
        braid_graph("abcd", (0, 1), (2, 3)),
        braid_graph("abcdef", *((i, (i + 1) % 6) for i in range(6))),
        braid_graph("abcde", *((i, (i + 1) % 5) for i in range(5))),
        # a self-loop is an odd cycle: no 2-coloring exists
        braid_graph("abc", (0, 1), (2, 2)),
    ]
    for g in samples:
        assert is_bipartite(g) == brute(g)


def test_gamma_25314():
    gamma = build_gamma(analyse(parse_window("[25314]")))
    assert gamma.labels == ["B1", "B2", "B3", "B4", "C1", "C2"]
    assert edge_count(gamma) == 6  # one per reduced word
    assert not is_tree(gamma)
    witness = {(gamma.labels[u], gamma.labels[v]): word for _, u, v, word in gamma.iter_edges()}
    assert witness[("B1", "C1")] == "12432"
    assert witness[("B4", "C2")] == "43123"
    assert ("B1", "C2") not in witness
    assert ("B4", "C1") not in witness


def test_gamma_identity_and_tree_case():
    gamma = build_gamma(analyse(identity(4)))
    assert len(gamma.labels) == 2
    assert edge_count(gamma) == 1
    assert is_tree(gamma)
    # [3421] achieves the lower bound: Gamma is a tree with 5 edges
    gamma = build_gamma(analyse(parse_window("[3421]")))
    assert edge_count(gamma) == 5
    assert is_tree(gamma)


def test_table_25314():
    table = build_table(analyse(parse_window("[25314]")))
    assert (table.rows, table.cols) == (4, 2)
    assert len(table.cells) == 6
    assert list(table.iter_rows()) == [
        ["12432", None],
        ["14232", "14323"],
        ["41232", "41323"],
        [None, "43123"],
    ]
    assert jump_property(table.rows, table.cols, table.cells)


@pytest.mark.parametrize(
    "braid_class_of, message",
    [
        # [25314] has the commutation classes 0 0 1 0 1 1 in word order.
        ([0, 0, 0, 0, 0, 0], "cell (0, 0) would hold both 12432 and 14232"),
        # The first word, in word order, whose cell is taken is 41232.
        ([1, 0, 0, 1, 0, 1], "cell (1, 0) would hold both 12432 and 41232"),
    ],
)
def test_table_reports_a_cell_holding_two_words(monkeypatch, braid_class_of, message):
    import numpy as np

    import redwords.graphs as graphs
    from redwords.errors import InvariantViolation

    real = graphs.partition_with_edges

    def forged_braid_classes(word_set, kind):
        part, edges = real(word_set, kind)
        if kind == BRAID:
            part = ClassPartition(BRAID, word_set, np.array(braid_class_of))
        return part, edges

    monkeypatch.setattr(graphs, "partition_with_edges", forged_braid_classes)
    with pytest.raises(InvariantViolation) as excinfo:
        build_table(analyse(parse_window("[25314]")))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_table_cells_are_row_major_and_hold_every_word_once(n):
    for w in all_permutations(n):
        an = analyse(w)
        table = build_table(an)
        cells, words = list(table.cells), table.words.tolist()
        assert all(a < b for a, b in zip(cells, cells[1:])), w.window
        assert sorted(words) == list(range(len(an.word_set)))
        braid_of = an.partition(BRAID).class_of.tolist()
        commutation_of = an.partition(COMMUTATION).class_of.tolist()
        assert cells == [(braid_of[i], commutation_of[i]) for i in words]


def test_table_trivial_cases():
    table = build_table(analyse(identity(3)))
    assert (table.rows, table.cols) == (1, 1)
    assert list(table.iter_rows()) == [["e"]]
    # fully commutative: a single column, every row filled
    an = analyse(parse_window("[241563]"))
    table = build_table(an)
    assert table.cols == 1
    assert table.rows == len(an.word_set)
    assert all(row[0] is not None for row in list(table.iter_rows()))


def test_jump_property_grid_cases():
    # the 7-row by 9-column array with 15 = 7+9-1 filled cells
    filled = {
        (3, 0), (5, 0), (0, 1), (1, 2), (2, 2), (3, 2), (1, 3), (4, 3),
        (3, 4), (2, 5), (4, 6), (6, 6), (0, 7), (2, 7), (0, 8),
    }
    assert len(filled) == 15
    assert jump_property(7, 9, filled)
    # emptying the cell in the fifth row (from the top) and eighth column
    # strands the bottom-right region
    assert not jump_property(7, 9, filled - {(2, 7)})
    assert jump_property(1, 1, {(0, 0)})
    assert not jump_property(2, 2, {(0, 0), (1, 1)})  # no shared row or column
    assert not jump_property(2, 2, {(0, 0), (0, 1)})  # a row left empty
    assert not jump_property(2, 2, set())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_word_graph_invariants_exhaustive(n):
    for w in all_permutations(n):
        an = analyse(w)
        ws = an.word_set
        g = build_word_graph(an)
        bp, cp = an.partition(BRAID), an.partition(COMMUTATION)
        assert is_connected(g)
        gc, gb = contract(g, COMMUTATION), contract(g, BRAID)
        assert len(gc.labels) == len(cp)
        assert len(gb.labels) == len(bp)
        assert is_bipartite(gc) and is_bipartite(gb)
        gamma = build_gamma(an)
        assert edge_count(gamma) == len(ws)
        assert is_connected(gamma)
        table = build_table(an)
        assert len(table.cells) == len(ws)
        assert jump_property(table.rows, table.cols, table.cells)
        assert is_tree(gamma) == (len(ws) == len(bp) + len(cp) - 1)


def test_export_dot():
    an, g = graph_for("[25314]")
    dot = dot_text(g)
    assert dot.startswith("graph {")
    assert dot.count("[style=dashed]") == 2
    assert dot.count("style=solid") == 4
    assert '"12432"' in dot
    assert dot_text(g) == dot  # deterministic
    empty = IndexGraph(labels=(), edges={})
    assert dot_text(empty) == "graph {\n  node [shape=ellipse];\n}\n"
    gamma = build_gamma(an)
    gdot = dot_text(gamma, style="class")
    assert "node [shape=box];" in gdot
    assert 'label="12432"' in gdot
    with pytest.raises(ValueError):
        dot_text(g, style="fancy")


def test_class_graphs_from_the_analysis_match_contraction():
    # Reference: contract G(w) edge by edge.
    for n in (3, 4, 5):
        for w in all_permutations(n):
            an = analyse(w)
            g = build_word_graph(an)
            for kind in (BRAID, COMMUTATION):
                assert form(build_class_graph(an, kind)) == form(contract(g, kind))


def test_views_partition_only_the_kinds_they_read(monkeypatch):
    # G(w) reads only move edges, and G_c(w) only the commutation classes
    # with the braid edges between them.
    import redwords.graphs as graphs

    calls = []
    by_edges, by_pointers = graphs.partition_with_edges, graphs.commutation_partition

    def counting(word_set, kind):
        calls.append(kind)
        return by_edges(word_set, kind)

    def counting_pointers(word_set):
        calls.append(COMMUTATION)
        return by_pointers(word_set)

    monkeypatch.setattr(graphs, "partition_with_edges", counting)
    monkeypatch.setattr(graphs, "commutation_partition", counting_pointers)
    an = analyse(parse_window("[25314]"))
    build_word_graph(an)
    assert calls == []
    build_class_graph(an, COMMUTATION)
    assert calls == [COMMUTATION]


def test_a_commutation_move_inside_a_braid_class_fails_the_gb_check(monkeypatch):
    # [2143] has the words 13 and 31, one commutation move apart, each its own
    # braid class.  Put both in one braid class: the move becomes a loop of G_b.
    import redwords.graphs as graphs
    from redwords.scan import verify_permutation

    real = graphs.partition_with_edges

    def one_braid_class(word_set, kind):
        part, edges = real(word_set, kind)
        if kind == BRAID:
            part = ClassPartition(BRAID, word_set, part.class_of * 0)
        return part, edges

    monkeypatch.setattr(graphs, "partition_with_edges", one_braid_class)
    w = parse_window("[2143]")
    an = analyse(w)
    assert list(an.class_edges(BRAID)) == [(0, 0)]
    assert form(build_class_graph(an, BRAID)) == (["B1"], {COMMUTATION: []}, None)
    assert not an.class_graph_bipartite(BRAID)
    assert an.class_graph_bipartite(COMMUTATION)
    violations = verify_permutation(w, checks=frozenset({"graphs"})).violations
    assert "G_b(w) is not bipartite" in violations
    assert "G_c(w) is not bipartite" not in violations


def test_braid_shape_answer_matches_the_class_by_class_check_on_s5():
    answers = []
    for w in all_permutations(5):
        an = analyse(w)
        bp = an.partition(BRAID)
        expected = all(
            verify_braid_class_graph(cls, w.length()) for cls in bp.grouped(an.word_set.words)
        )
        assert an.braid_shapes_conform == expected, w.window
        answers.append(expected)
    assert answers.count(False) == 11  # criterion 3's witnesses in S_5


def test_parity_certificate_decides_bipartiteness_on_s1_to_s6(monkeypatch):
    # While the certificate holds, neither answer reads the class edges or
    # runs the odd-cycle test; the exact route, run here on its own, must
    # give the same answers.
    import redwords.graphs as graphs

    def refuse(*args):
        raise AssertionError("the exact route ran")

    for n in range(1, 7):
        for w in all_permutations(n):
            an = analyse(w)
            assert an.parity_break(BRAID) is None and an.parity_break(COMMUTATION) is None
            with monkeypatch.context() as m:
                m.setattr(graphs, "odd_components", refuse)
                m.setattr(an, "class_edges", refuse)
                certified = [an.class_graph_bipartite(kind) for kind in (BRAID, COMMUTATION)]
                odd = an.odd_braid_classes
            exact = [
                not len(odd_components(len(an.partition(kind)), an.class_edges(kind)))
                for kind in (BRAID, COMMUTATION)
            ]
            assert certified == exact == [True, True], w.window
            class_of = an.partition(BRAID).class_of
            assert odd == tuple(class_of[odd_components(len(class_of), an.edges(BRAID))]) == ()
            # Every move edge the certificate vouches for, tested one by one.
            par = an.word_set.parities
            for kind, flips in ((COMMUTATION, 1), (BRAID, 2)):
                moves = an.edges(kind)
                assert ((par[moves.u] ^ par[moves.v]) == flips).all(), (w.window, kind)
