"""Move graphs on word sets and the derived class-level structures.

G(w) has the reduced words as vertices, with an edge per single supported
move, labeled braid or commutation.  Contracting the commutation edges gives
G_c(w) (vertices are commutation classes); contracting the braid edges gives
G_b(w).  Gamma(w) is the bipartite incidence graph on braid classes and
commutation classes with one edge per reduced word, and the intersection
table arranges the same data as a grid with at most one word per cell.

``analyse(w)`` builds the per-permutation ``Analysis`` that the scan, the
bound and circuit-freeness functions and the CLI read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .classes import (
    ClassPartition,
    components,
    move_edges,
    odd_components,
    partition_with_edges,
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

    def kind_count(self, kind: str) -> int:
        return sum(1 for e in self.edges if e.kind == kind)


def build_word_graph(word_set: WordSet) -> LabeledGraph:
    """G(w): one vertex per word, one labeled edge per supported move.

    Commutation edges are listed before braid edges, each by (word, position),
    with every unordered pair recorded once.
    """
    words = word_set.words
    index = word_set.index()
    edges = tuple(
        Edge(u, v, kind)
        for kind in (COMMUTATION, BRAID)
        for u, v in move_edges(words, kind, index)
    )
    return LabeledGraph(labels=tuple(word_text(u) for u in words), edges=edges)


def contract(g: LabeledGraph, kind: str) -> LabeledGraph:
    """Contract all edges of one kind; vertices become that kind's classes.

    Contracting commutation edges yields G_c (vertices C1, C2, ...);
    contracting braid edges yields G_b (vertices B1, B2, ...).  Remaining
    edges are deduplicated and self-loops dropped.
    """
    comp = components(g.vertex_count, ((e.u, e.v) for e in g.edges if e.kind == kind))
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
    return not any(components(g.vertex_count, ((e.u, e.v) for e in g.edges)))


def is_bipartite(g: LabeledGraph) -> bool:
    return not odd_components(g.vertex_count, ((e.u, e.v) for e in g.edges))


def is_tree(g: LabeledGraph) -> bool:
    return is_connected(g) and g.edge_count == g.vertex_count - 1


def _check_same_word_set(bp: ClassPartition, cp: ClassPartition) -> None:
    if bp.kind != BRAID or cp.kind != COMMUTATION:
        raise ValueError("expected a braid partition and a commutation partition")
    if bp.word_set is not cp.word_set and bp.word_set != cp.word_set:
        raise ValueError("partitions are over different word sets")


def build_gamma(bp: ClassPartition, cp: ClassPartition) -> LabeledGraph:
    """Gamma(w): vertices B1..Bb then C1..Cc, one witness-labeled edge per word.

    The edges are the filled cells of the intersection table, so a duplicate
    (braid class, commutation class) pair raises there.
    """
    table = build_table(bp, cp)
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

    def cell(self, r: int, c: int) -> Word | None:
        return self.cells.get((r, c))

    def nonempty_count(self) -> int:
        return len(self.cells)

    def to_rows(self) -> list[list[str | None]]:
        """Dense row-major layout with word text, None for empty cells."""
        grid: list[list[str | None]] = [[None] * self.cols for _ in range(self.rows)]
        for (r, c), word in self.cells.items():
            grid[r][c] = word_text(word)
        return grid


def build_table(bp: ClassPartition, cp: ClassPartition) -> IntersectionTable:
    """The intersection table T(w) with exactly |R(w)| filled cells."""
    _check_same_word_set(bp, cp)
    words = bp.word_set.words
    cells: dict[tuple[int, int], Word] = {}
    for k, u in enumerate(words):
        key = (bp.class_of[k], cp.class_of[k])
        if key in cells:
            raise InvariantViolation(
                f"cell {key} would hold both {word_text(cells[key])} and {word_text(u)}"
            )
        cells[key] = u
    return IntersectionTable(rows=len(bp.classes), cols=len(cp.classes), cells=cells)


def jump_property(rows: int, cols: int, filled: set[tuple[int, int]]) -> bool:
    """The array property behind the lower bound on |R(w)|.

    True iff every row and every column holds a filled cell, the filled cells
    are mutually reachable by in-row / in-column jumps, and there are at
    least rows + cols - 1 of them.
    """
    if rows < 1 or cols < 1 or len(filled) < rows + cols - 1:
        return False
    # Cells sharing a row or column are one jump apart, so the cells are
    # mutually reachable exactly when rows and columns, joined by one edge
    # per filled cell, form a connected graph; on two or more vertices that
    # also puts a filled cell in every row and column.
    return not any(components(rows + cols, ((r, rows + c) for r, c in filled)))


def verify_jump_property(table: IntersectionTable) -> bool:
    return jump_property(table.rows, table.cols, set(table.cells))


class Analysis:
    """One permutation's R(w), read by every caller that needs more than words.

    The word index and each partition, together with the move edges that
    induce it, are built the first time they are asked for, so a caller pays
    only for what it reads.  The pair set holds one (braid class, commutation
    class) pair per word: the edges of Gamma(w) and the filled cells of T(w).
    """

    def __init__(self, word_set: WordSet):
        self.word_set = word_set
        self._built: dict[str, tuple[ClassPartition, list[tuple[int, int]]]] = {}

    @cached_property
    def index(self) -> dict[Word, int]:
        return self.word_set.index()

    def _partition_with_edges(self, kind: str):
        got = self._built.get(kind)
        if got is None:
            got = self._built[kind] = partition_with_edges(self.word_set, kind, self.index)
        return got

    def partition(self, kind: str) -> ClassPartition:
        return self._partition_with_edges(kind)[0]

    def edges(self, kind: str) -> list[tuple[int, int]]:
        """Move edges of one kind as (k, v) word-index pairs with k < v."""
        return self._partition_with_edges(kind)[1]

    @cached_property
    def pairs(self) -> set[tuple[int, int]]:
        return set(zip(self.partition(BRAID).class_of, self.partition(COMMUTATION).class_of))

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
