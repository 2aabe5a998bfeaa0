"""Move graphs on word sets and the derived class-level structures.

G(w) has the reduced words as vertices, with an edge per single supported
move, labeled braid or commutation.  Contracting the commutation edges gives
G_c(w) (vertices are commutation classes); contracting the braid edges gives
G_b(w).  Gamma(w) is the bipartite incidence graph on braid classes and
commutation classes with one edge per reduced word, and the intersection
table arranges the same data as a grid with at most one word per cell.

``analyse(w)`` builds the per-permutation ``Analysis`` that the scan, the
CLI and the views G(w), Gamma(w) and T(w) read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .classes import (
    ClassPartition,
    IndexPairs,
    braid_class_shape,
    components,
    odd_components,
    partition_with_edges,
    path_product_edge_count,
)
from .coxeter_moves import BRAID, COMMUTATION
from .errors import InvariantViolation
from .permutation import Permutation
from .reduced_words import DEFAULT_WORD_CAP, Word, WordSet, enumerate_words, word_text

INCIDENCE = "incidence"


class Edge(NamedTuple):
    u: int
    v: int
    kind: str
    word: Word | None = None  # witness for incidence edges


@dataclass(frozen=True)
class LabeledGraph:
    labels: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_word_graph(an: Analysis) -> LabeledGraph:
    """G(w): one vertex per word, one labeled edge per supported move.

    Commutation edges are listed before braid edges, each by (word, position),
    with every unordered pair recorded once.
    """
    edges = []
    for kind in (COMMUTATION, BRAID):
        found = an.edges(kind)  # by position, then by word
        by_word = np.argsort(found.u, kind="stable")
        edges += (Edge(u, v, kind) for u, v in IndexPairs(found.u[by_word], found.v[by_word]))
    return LabeledGraph(labels=tuple(word_text(u) for u in an.word_set.words), edges=tuple(edges))


def contract(g: LabeledGraph, kind: str) -> LabeledGraph:
    """Contract all edges of one kind; vertices become that kind's classes.

    Contracting commutation edges yields G_c (vertices C1, C2, ...);
    contracting braid edges yields G_b (vertices B1, B2, ...).  Remaining
    edges are deduplicated and self-loops dropped.
    """
    comp = components(g.vertex_count, ((e.u, e.v) for e in g.edges if e.kind == kind)).tolist()
    prefix = "C" if kind == COMMUTATION else "B"
    labels = tuple(f"{prefix}{k + 1}" for k in range(max(comp, default=-1) + 1))
    kept = set()
    for e in g.edges:
        if e.kind != kind:
            cu, cv = comp[e.u], comp[e.v]
            if cu != cv:
                kept.add((min(cu, cv), max(cu, cv), e.kind))
    edges = tuple(Edge(u, v, k) for u, v, k in sorted(kept))
    return LabeledGraph(labels=labels, edges=edges)


def is_connected(g: LabeledGraph) -> bool:
    return not components(g.vertex_count, ((e.u, e.v) for e in g.edges)).any()


def is_bipartite(g: LabeledGraph) -> bool:
    return not len(odd_components(g.vertex_count, ((e.u, e.v) for e in g.edges)))


def is_tree(g: LabeledGraph) -> bool:
    return is_connected(g) and g.edge_count == g.vertex_count - 1


def build_gamma(an: Analysis) -> LabeledGraph:
    """Gamma(w): vertices B1..Bb then C1..Cc, one witness-labeled edge per word.

    The edges are the filled cells of the intersection table, so a duplicate
    (braid class, commutation class) pair raises there.
    """
    table = build_table(an)
    b = table.rows
    labels = tuple(f"B{k + 1}" for k in range(b)) + tuple(
        f"C{k + 1}" for k in range(table.cols)
    )
    edges = tuple(
        Edge(bi, b + ci, INCIDENCE, word) for (bi, ci), word in sorted(table.cells.items())
    )
    return LabeledGraph(labels=labels, edges=edges)


@dataclass(frozen=True)
class IntersectionTable:
    """Rows are braid classes, columns are commutation classes.

    Cells are stored sparsely; each holds the unique word in the row class
    intersected with the column class, when that intersection is nonempty.
    """

    rows: int
    cols: int
    cells: dict[tuple[int, int], Word]

    def iter_rows(self) -> Iterator[list[str | None]]:
        """Dense rows in order, word text or None for empty cells, one at a time."""
        by_row: list[list[tuple[int, Word]]] = [[] for _ in range(self.rows)]
        for (r, c), word in self.cells.items():
            by_row[r].append((c, word))
        for filled in by_row:
            row: list[str | None] = [None] * self.cols
            for c, word in filled:
                row[c] = word_text(word)
            yield row

    def to_rows(self) -> list[list[str | None]]:
        """Dense row-major layout with word text, None for empty cells."""
        return list(self.iter_rows())


def build_table(an: Analysis) -> IntersectionTable:
    """The intersection table T(w) with exactly |R(w)| filled cells."""
    bp, cp = an.partition(BRAID), an.partition(COMMUTATION)
    cells: dict[tuple[int, int], Word] = {}
    for u, key in zip(an.word_set.words, zip(bp.class_of.tolist(), cp.class_of.tolist())):
        if key in cells:
            raise InvariantViolation(
                f"cell {key} would hold both {word_text(cells[key])} and {word_text(u)}"
            )
        cells[key] = u
    return IntersectionTable(rows=len(bp), cols=len(cp), cells=cells)


def jump_property(
    rows: int, cols: int, filled: IndexPairs | Iterable[tuple[int, int]]
) -> bool:
    """The array property behind the lower bound on |R(w)|.

    True iff every row and every column holds a filled cell, the filled cells
    are mutually reachable by in-row / in-column jumps, and there are at
    least rows + cols - 1 of them.
    """
    filled = IndexPairs.of(filled)
    if rows < 1 or cols < 1 or len(filled) < rows + cols - 1:
        return False
    # Cells sharing a row or column are one jump apart, so the cells are
    # mutually reachable exactly when rows and columns, joined by one edge
    # per filled cell, form a connected graph; on two or more vertices that
    # also puts a filled cell in every row and column.
    return not components(rows + cols, IndexPairs(filled.u, rows + filled.v)).any()


class Analysis:
    """One permutation's R(w), read by every caller that needs more than words.

    Each partition, together with the move edges that induce it, is built
    the first time it is asked for, so a caller pays only for what it reads.
    The pair set holds the distinct (braid class, commutation class) pairs
    of the words: the edges of Gamma(w) and the filled cells of T(w).
    """

    def __init__(self, word_set: WordSet):
        self.word_set = word_set
        self._built: dict[str, tuple[ClassPartition, IndexPairs]] = {}

    def _partition_with_edges(self, kind: str):
        got = self._built.get(kind)
        if got is None:
            got = self._built[kind] = partition_with_edges(self.word_set, kind)
        return got

    def partition(self, kind: str) -> ClassPartition:
        """B(w) for kind="braid", C(w) for kind="commutation".

        >>> from .permutation import from_window
        >>> ws = enumerate_words(from_window([2, 5, 3, 1, 4]))
        >>> part = Analysis(ws).partition("commutation")
        >>> [[word_text(u) for u in cls] for cls in part.as_word_lists()]
        [['12432', '14232', '41232'], ['14323', '41323', '43123']]
        """
        return self._partition_with_edges(kind)[0]

    def edges(self, kind: str) -> IndexPairs:
        """Move edges of one kind as (k, v) word-index pairs with k < v."""
        return self._partition_with_edges(kind)[1]

    @cached_property
    def pairs(self) -> IndexPairs:
        bp, cp = self.partition(BRAID), self.partition(COMMUTATION)
        return _distinct_pairs(bp.class_of, cp.class_of)

    def class_edges(self, kind: str) -> IndexPairs:
        """Distinct (k, m), k <= m, for classes of one kind joined by a move of the other.

        A move inside one class is kept as the loop (k, k): a wrong partition.
        """
        class_of = self.partition(kind).class_of
        moves = self.edges(BRAID if kind == COMMUTATION else COMMUTATION)
        lo, hi = class_of[moves.u], class_of[moves.v]
        flip = hi < lo
        lo[flip], hi[flip] = hi[flip], lo[flip]
        return _distinct_pairs(lo, hi)

    def class_graph(self, kind: str) -> LabeledGraph:
        """G_c for kind=COMMUTATION, G_b for kind=BRAID, from the index arrays.

        The same graph as ``contract(build_word_graph(self), kind)``,
        without building G(w): ``class_edges`` without its loops.
        """
        other = BRAID if kind == COMMUTATION else COMMUTATION
        prefix = "C" if kind == COMMUTATION else "B"
        return LabeledGraph(
            labels=tuple(f"{prefix}{k + 1}" for k in range(len(self.partition(kind)))),
            edges=tuple(Edge(u, v, other) for u, v in self.class_edges(kind) if u != v),
        )

    def class_graph_bipartite(self, kind: str) -> bool:
        """G_c (kind=COMMUTATION) or G_b (kind=BRAID) has no odd cycle and no loop."""
        return not len(odd_components(len(self.partition(kind)), self.class_edges(kind)))

    @property
    def braid_crossings(self) -> int:
        """Braid moves between two braid classes: none, as the classes are their components."""
        class_of, moves = self.partition(BRAID).class_of, self.edges(BRAID)
        return int(np.count_nonzero(class_of[moves.u] != class_of[moves.v]))

    @property
    def braid_shapes_conform(self) -> bool:
        """Every braid class has 2^x 3^y words and the path product's braid moves.

        The shape depends on the class size alone, so it is computed once per
        distinct size; range(size) stands in for a class of that size.
        """
        part, moves = self.partition(BRAID), self.edges(BRAID)
        sizes, size_of = np.unique(part.sizes, return_inverse=True)
        shape_edges = []
        for size in sizes.tolist():
            try:
                shape = braid_class_shape(range(size), self.word_set.target.length())
            except InvariantViolation:
                shape_edges.append(-1)  # no edge count matches
                continue
            shape_edges.append(path_product_edge_count(shape.x, shape.y))
        moves_in = np.bincount(part.class_of[moves.u], minlength=len(part))
        return bool((np.array(shape_edges)[size_of] == moves_in).all())

    @property
    def odd_braid_classes(self) -> list[int]:
        """Ids of the braid classes with an odd cycle: each is an odd component
        of the braid edges."""
        class_of = self.partition(BRAID).class_of
        return class_of[odd_components(len(class_of), self.edges(BRAID))].tolist()

    @cached_property
    def gamma_connected(self) -> bool:
        """Gamma(w) is connected, which is also G(w) connected: within a class
        the words are joined by that class's own moves."""
        b, c = len(self.partition(BRAID)), len(self.partition(COMMUTATION))
        return jump_property(b, c, self.pairs)

    @property
    def circuit_free(self) -> bool:
        """Gamma(w) is a tree: connected, with one edge fewer than vertices."""
        b, c = len(self.partition(BRAID)), len(self.partition(COMMUTATION))
        return self.gamma_connected and len(self.pairs) == b + c - 1


def _distinct_pairs(a, b) -> IndexPairs:
    """The distinct pairs (a[j], b[j]) of two id arrays, in increasing order.

    Each pair is coded as one integer; one sort and a mask keep the first of
    each run.  np.unique takes a hash-table route that is about a hundred
    times slower on these arrays (numpy 2.4).
    """
    m = int(b.max()) + 1 if len(b) else 1
    keys = a * m + b
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return IndexPairs(*np.divmod(keys[first], m))


def analyse(w: Permutation, cap: int | None = DEFAULT_WORD_CAP) -> Analysis:
    """Enumerate R(w) under the cap (WordCapExceeded above it) for analysis."""
    return Analysis(enumerate_words(w, cap=cap))


_EDGE_STYLE = {COMMUTATION: "solid", BRAID: "dashed", INCIDENCE: "solid"}


def export_dot(g: LabeledGraph, style: str = "word") -> str:
    """Deterministic undirected DOT output.

    Braid edges are dashed and commutation edges solid, following the figure
    convention; incidence edges carry their witness word as a label.  The
    style picks the node shape: ellipses for word graphs, boxes for class
    graphs.
    """
    if style not in ("word", "class"):
        raise ValueError(f"unknown style {style!r}")
    shape = "ellipse" if style == "word" else "box"
    lines = ["graph {", f"  node [shape={shape}];"]
    for label in g.labels:
        lines.append(f'  "{_dot_escape(label)}";')
    for e in g.edges:
        attrs = [f"style={_EDGE_STYLE[e.kind]}"]
        if e.word is not None:
            attrs.append(f'label="{_dot_escape(word_text(e.word))}"')
        lines.append(
            f'  "{_dot_escape(g.labels[e.u])}" -- "{_dot_escape(g.labels[e.v])}"'
            f' [{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
