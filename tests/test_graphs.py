import pytest

from redwords.classes import partition
from redwords.coxeter_moves import BRAID, COMMUTATION
from redwords.graphs import (
    Edge,
    LabeledGraph,
    build_gamma,
    build_table,
    build_word_graph,
    contract,
    export_dot,
    is_bipartite,
    is_connected,
    is_tree,
    jump_property,
    verify_jump_property,
)
from redwords.permutation import all_permutations, identity, parse_window
from redwords.reduced_words import enumerate_words, word_text


def graph_for(window_text_form):
    ws = enumerate_words(parse_window(window_text_form))
    return ws, build_word_graph(ws)


def edge_set(g, kind):
    return {(g.labels[e.u], g.labels[e.v]) for e in g.edges if e.kind == kind}


def test_word_graph_25314():
    ws, g = graph_for("[25314]")
    assert g.vertex_count == 6
    assert g.kind_count(COMMUTATION) == 4
    assert g.kind_count(BRAID) == 2
    assert edge_set(g, COMMUTATION) == {
        ("12432", "14232"), ("14232", "41232"), ("14323", "41323"), ("41323", "43123"),
    }
    assert edge_set(g, BRAID) == {("14232", "14323"), ("41232", "41323")}


def test_word_graph_trivial_cases():
    ws, g = graph_for("[1234]")
    assert (g.vertex_count, g.edge_count) == (1, 0)
    ws, g = graph_for("[321]")
    assert g.vertex_count == 2
    assert edge_set(g, BRAID) == {("121", "212")}


def test_contract_25314():
    ws, g = graph_for("[25314]")
    gc = contract(g, COMMUTATION)
    assert gc.labels == ("C1", "C2")
    assert [(e.u, e.v, e.kind) for e in gc.edges] == [(0, 1, BRAID)]
    gb = contract(g, BRAID)
    assert gb.labels == ("B1", "B2", "B3", "B4")
    assert [(e.u, e.v) for e in gb.edges] == [(0, 1), (1, 2), (2, 3)]  # a path
    edgeless = LabeledGraph(labels=("a", "b"), edges=())
    assert contract(edgeless, BRAID).labels == ("B1", "B2")


def test_predicates():
    ws, g = graph_for("[25314]")
    assert is_connected(g)
    assert is_bipartite(contract(g, COMMUTATION))
    assert is_bipartite(contract(g, BRAID))
    single = LabeledGraph(labels=("v",), edges=())
    assert is_connected(single) and is_bipartite(single) and is_tree(single)
    triangle = LabeledGraph(
        labels=("a", "b", "c"),
        edges=(Edge(0, 1, BRAID), Edge(1, 2, BRAID), Edge(0, 2, BRAID)),
    )
    assert not is_bipartite(triangle)
    assert not is_tree(triangle)
    disconnected = LabeledGraph(labels=("a", "b"), edges=())
    assert not is_connected(disconnected)


def test_is_bipartite_matches_brute_force_two_coloring():
    # Independent oracle: try all 2^V colorings on small random-ish graphs.
    def brute(g):
        v = g.vertex_count
        for bits in range(2**v):
            if all((bits >> e.u) & 1 != (bits >> e.v) & 1 for e in g.edges):
                return True
        return v == 0

    samples = [
        LabeledGraph(tuple("abcde"), (Edge(0, 1, BRAID), Edge(1, 2, BRAID))),
        LabeledGraph(tuple("abcde"), (Edge(0, 1, BRAID), Edge(1, 2, BRAID), Edge(2, 0, BRAID))),
        LabeledGraph(tuple("abcd"), (Edge(0, 1, BRAID), Edge(2, 3, BRAID))),
        LabeledGraph(
            tuple("abcdef"),
            tuple(Edge(i, (i + 1) % 6, BRAID) for i in range(6)),
        ),
        LabeledGraph(
            tuple("abcde"),
            tuple(Edge(i, (i + 1) % 5, BRAID) for i in range(5)),
        ),
        # a self-loop is an odd cycle: no 2-coloring exists
        LabeledGraph(tuple("abc"), (Edge(0, 1, BRAID), Edge(2, 2, BRAID))),
    ]
    for g in samples:
        assert is_bipartite(g) == brute(g)


def test_gamma_25314():
    ws = enumerate_words(parse_window("[25314]"))
    bp, cp = partition(ws, BRAID), partition(ws, COMMUTATION)
    gamma = build_gamma(bp, cp)
    assert gamma.labels == ("B1", "B2", "B3", "B4", "C1", "C2")
    assert gamma.edge_count == 6  # one per reduced word
    assert not is_tree(gamma)
    witness = {(gamma.labels[e.u], gamma.labels[e.v]): word_text(e.word) for e in gamma.edges}
    assert witness[("B1", "C1")] == "12432"
    assert witness[("B4", "C2")] == "43123"
    assert ("B1", "C2") not in witness
    assert ("B4", "C1") not in witness


def test_gamma_identity_and_tree_case():
    ws = enumerate_words(identity(4))
    gamma = build_gamma(partition(ws, BRAID), partition(ws, COMMUTATION))
    assert gamma.vertex_count == 2
    assert gamma.edge_count == 1
    assert is_tree(gamma)
    # [3421] achieves the lower bound: Gamma is a tree with 5 edges
    ws = enumerate_words(parse_window("[3421]"))
    gamma = build_gamma(partition(ws, BRAID), partition(ws, COMMUTATION))
    assert gamma.edge_count == 5
    assert is_tree(gamma)


def test_gamma_requires_matching_partitions():
    ws = enumerate_words(parse_window("[3421]"))
    other = enumerate_words(parse_window("[4321]"))
    bp = partition(ws, BRAID)
    cp_other = partition(other, COMMUTATION)
    with pytest.raises(ValueError):
        build_gamma(bp, cp_other)
    with pytest.raises(ValueError):
        build_gamma(partition(ws, COMMUTATION), partition(ws, COMMUTATION))


def test_table_25314():
    ws = enumerate_words(parse_window("[25314]"))
    table = build_table(partition(ws, BRAID), partition(ws, COMMUTATION))
    assert (table.rows, table.cols) == (4, 2)
    assert table.nonempty_count() == 6
    assert table.to_rows() == [
        ["12432", None],
        ["14232", "14323"],
        ["41232", "41323"],
        [None, "43123"],
    ]
    assert verify_jump_property(table)


def test_table_trivial_cases():
    ws = enumerate_words(identity(3))
    table = build_table(partition(ws, BRAID), partition(ws, COMMUTATION))
    assert (table.rows, table.cols) == (1, 1)
    assert table.to_rows() == [["e"]]
    # fully commutative: a single column, every row filled
    ws = enumerate_words(parse_window("[241563]"))
    table = build_table(partition(ws, BRAID), partition(ws, COMMUTATION))
    assert table.cols == 1
    assert table.rows == len(ws)
    assert all(row[0] is not None for row in table.to_rows())


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
        ws = enumerate_words(w)
        g = build_word_graph(ws)
        bp, cp = partition(ws, BRAID), partition(ws, COMMUTATION)
        assert is_connected(g)
        gc, gb = contract(g, COMMUTATION), contract(g, BRAID)
        assert gc.vertex_count == len(cp)
        assert gb.vertex_count == len(bp)
        assert is_bipartite(gc) and is_bipartite(gb)
        gamma = build_gamma(bp, cp)
        assert gamma.edge_count == len(ws)
        assert is_connected(gamma)
        table = build_table(bp, cp)
        assert table.nonempty_count() == len(ws)
        assert verify_jump_property(table)
        assert is_tree(gamma) == (len(ws) == len(bp) + len(cp) - 1)


def test_export_dot():
    ws, g = graph_for("[25314]")
    dot = export_dot(g)
    assert dot.startswith("graph {")
    assert dot.count("[style=dashed]") == 2
    assert dot.count("style=solid") == 4
    assert '"12432"' in dot
    assert export_dot(g) == dot  # deterministic
    empty = LabeledGraph(labels=(), edges=())
    assert export_dot(empty) == "graph {\n  node [shape=ellipse];\n}\n"
    gamma = build_gamma(partition(ws, BRAID), partition(ws, COMMUTATION))
    gdot = export_dot(gamma, style="class")
    assert "node [shape=box];" in gdot
    assert 'label="12432"' in gdot
    with pytest.raises(ValueError):
        export_dot(g, style="fancy")
