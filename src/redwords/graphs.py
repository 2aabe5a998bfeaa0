"""Move graphs on word sets and the derived class-level structures.

G(w) has the reduced words as vertices, with an edge per single supported
move, labeled braid or commutation.  Contracting the commutation edges gives
G_c(w) (vertices are commutation classes); contracting the braid edges gives
G_b(w).  Gamma(w) is the bipartite incidence graph on braid classes and
commutation classes with one edge per reduced word, and the intersection
table arranges the same data as a grid with at most one word per cell.

``analyse(w)`` builds the per-permutation ``Analysis`` that the scan, the
CLI, the graph views (each an ``IndexGraph``) and T(w) read from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classes import (
    ClassPartition,
    IndexPairs,
    braid_class_shape,
    commutation_partition,
    components,
    move_edges,
    odd_components,
    partition_with_edges,
    path_product_edge_count,
)
from .coxeter_moves import BRAID, COMMUTATION
from .errors import InvariantViolation
from .permutation import Permutation, lazy
from .reduced_words import (
    DEFAULT_WORD_CAP,
    FLIPS,
    WordSet,
    certify_parities,
    enumerate_words,
    word_text,
)

INCIDENCE = "incidence"
EDGE_BLOCK = 4096  # edges read from their arrays at a time


@dataclass(frozen=True, eq=False)
class IndexGraph:
    """Vertex labels and one ``IndexPairs`` per edge kind, in output order;
    ``witnesses`` holds the word text of each edge of Gamma(w), else None."""

    labels: Sequence[str]
    edges: dict[str, IndexPairs]
    witnesses: Sequence[str] | None = None

    def iter_edges(self) -> Iterator[tuple[str, int, int, str | None]]:
        """Each edge as (kind, u, v, witness) in output order, read from the
        arrays ``EDGE_BLOCK`` pairs at a time."""
        witnesses = repeat(None) if self.witnesses is None else iter(self.witnesses)
        for kind, pairs in self.edges.items():
            for at in range(0, len(pairs), EDGE_BLOCK):
                u, v = pairs.u[at:at + EDGE_BLOCK].tolist(), pairs.v[at:at + EDGE_BLOCK].tolist()
                yield from zip(repeat(kind), u, v, witnesses)


def _class_labels(kind: str, count: int) -> list[str]:
    prefix = "C" if kind == COMMUTATION else "B"
    return [f"{prefix}{k + 1}" for k in range(count)]


def build_word_graph(an: Analysis) -> IndexGraph:
    """G(w): one vertex per word, one labeled edge per supported move.

    Commutation edges are listed before braid edges, each by (word, position),
    with every unordered pair recorded once.
    """
    edges = {}
    for kind in (COMMUTATION, BRAID):
        found = an.edges(kind)  # by position, then by word
        by_word = np.argsort(found.u, kind="stable")
        edges[kind] = IndexPairs(found.u[by_word], found.v[by_word])
    return IndexGraph(an.word_set.texts, edges)


def build_class_graph(an: Analysis, kind: str) -> IndexGraph:
    """G_c for kind=COMMUTATION, G_b for kind=BRAID, from the index arrays.

    The same graph as ``contract(build_word_graph(an), kind)``, without
    building G(w): ``Analysis.class_edges`` without its loops.
    """
    found = an.class_edges(kind)
    kept = found.u != found.v
    other = BRAID if kind == COMMUTATION else COMMUTATION
    return IndexGraph(_class_labels(kind, len(an.partition(kind))),
                      {other: IndexPairs(found.u[kept], found.v[kept])})


def contract(g: IndexGraph, kind: str) -> IndexGraph:
    """Contract all edges of one kind; vertices become that kind's classes.

    Contracting commutation edges yields G_c (vertices C1, C2, ...);
    contracting braid edges yields G_b (vertices B1, B2, ...).  Remaining
    edges are deduplicated and self-loops dropped, pair by pair: the tests'
    reference for ``build_class_graph``.
    """
    comp = components(len(g.labels), g.edges.get(kind, ())).tolist()
    edges = {}
    for other, pairs in g.edges.items():
        if other != kind:
            kept = {(min(comp[u], comp[v]), max(comp[u], comp[v])) for u, v in pairs}
            edges[other] = IndexPairs.of(sorted((u, v) for u, v in kept if u != v))
    return IndexGraph(_class_labels(kind, max(comp, default=-1) + 1), edges)


def build_gamma(an: Analysis) -> IndexGraph:
    """Gamma(w): vertices B1..Bb then C1..Cc, one witness-labeled edge per word.

    The edges are the filled cells of the intersection table, so a duplicate
    (braid class, commutation class) pair raises there.
    """
    table = build_table(an)
    texts = an.word_set.texts
    return IndexGraph(
        _class_labels(BRAID, table.rows) + _class_labels(COMMUTATION, table.cols),
        {INCIDENCE: IndexPairs(table.cells.u, table.rows + table.cells.v)},
        [texts[i] for i in table.words.tolist()],
    )


@dataclass(frozen=True, eq=False)
class IntersectionTable:
    """Rows are braid classes, columns are commutation classes.

    Only the filled cells are held, in row-major order: ``cells`` holds the
    (row, col) of each, and ``words`` the index in ``word_set`` of the unique
    word in the row class intersected with the column class.
    """

    rows: int
    cols: int
    cells: IndexPairs
    words: np.ndarray
    word_set: WordSet

    def iter_rows(
        self, empty: str | None = None, quote: str = "", width: int = 0
    ) -> Iterator[list[str | None]]:
        """Dense rows in order, one at a time: each filled cell holds its word's
        text between two ``quote`` strings, left-justified to ``width``, and
        each empty cell ``empty``."""
        texts = self.word_set.texts
        row, at = [empty] * self.cols, 0
        for (r, c), i in zip(self.cells, self.words.tolist()):
            while at < r:
                yield row
                row, at = [empty] * self.cols, at + 1
            row[c] = (quote + texts[i] + quote).ljust(width)
        for _ in range(at, self.rows):
            yield row
            row = [empty] * self.cols


def build_table(an: Analysis) -> IntersectionTable:
    """The intersection table T(w) with exactly |R(w)| filled cells."""
    bp, cp = an.partition(BRAID), an.partition(COMMUTATION)
    ws, cols = an.word_set, len(cp)
    keys = bp.class_of * cols + cp.class_of
    order = np.argsort(keys, kind="stable")  # row-major, then by word
    keys = keys[order]
    same = keys[1:] == keys[:-1]
    if same.any():
        # The first word, in word order, whose cell is already taken.
        j = np.flatnonzero(same)[np.argmin(order[1:][same])]
        raise InvariantViolation(
            f"cell {divmod(int(keys[j]), cols)} would hold both "
            f"{ws.texts[order[j]]} and {ws.texts[order[j + 1]]}"
        )
    cells = IndexPairs(*np.divmod(keys, cols))
    return IntersectionTable(rows=len(bp), cols=cols, cells=cells, words=order, word_set=ws)


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

    Each partition and each kind's move edges are built the first time they
    are asked for, so a caller pays only for what it reads.  The braid
    partition keeps the move edges that induced it; the commutation
    partition comes from pointers to normal forms and builds no edges
    (``commutation_partition``).  The pair set holds the distinct
    (braid class, commutation class) pairs of the words: the edges of
    Gamma(w) and the filled cells of T(w).  Every answer the scan reads is
    kept once computed, so the scan can read one analysis for each window of
    a symmetry orbit.  ``certified`` is the set of elements that
    ``certify_parities`` skips and fills, shared by the analyses of one scan
    worker; by default the walk starts afresh.
    """

    def __init__(self, word_set: WordSet, certified: set | None = None):
        self.word_set = word_set
        self._certified = certified
        self._partitions: dict[str, ClassPartition] = {}
        self._edges: dict[str, IndexPairs] = {}
        self._bipartite: dict[str, bool] = {}
        self._breaks: dict[str, tuple[str, str] | None] = {}

    def partition(self, kind: str) -> ClassPartition:
        """B(w) for kind="braid", C(w) for kind="commutation".

        >>> from .permutation import from_window
        >>> ws = enumerate_words(from_window([2, 5, 3, 1, 4]))
        >>> Analysis(ws).partition("commutation").grouped(ws.texts)
        [['12432', '14232', '41232'], ['14323', '41323', '43123']]
        """
        got = self._partitions.get(kind)
        if got is None:
            if kind == COMMUTATION:
                got = commutation_partition(self.word_set)
            else:
                got, self._edges[kind] = partition_with_edges(self.word_set, kind)
            self._partitions[kind] = got
        return got

    def edges(self, kind: str) -> IndexPairs:
        """Move edges of one kind as (k, v) word-index pairs with k < v."""
        got = self._edges.get(kind)
        if got is None:
            got = self._edges[kind] = move_edges(self.word_set, kind)
        return got

    @lazy
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

    def class_graph_bipartite(self, kind: str) -> bool:
        """G_c (kind=COMMUTATION) or G_b (kind=BRAID) has no odd cycle and no loop.

        Certified without the class edges when every move of the other kind
        flips its parity bit and that bit is constant on each class: the bit
        then 2-colours the class graph.  Otherwise the odd components of the
        class edges decide.
        """
        got = self._bipartite.get(kind)
        if got is None:
            other = BRAID if kind == COMMUTATION else COMMUTATION
            if self.parity_break(other) is None and self._constant_on_classes(kind, FLIPS[other]):
                got = True
            else:
                got = not len(odd_components(len(self.partition(kind)), self.class_edges(kind)))
            self._bipartite[kind] = got
        return got

    @lazy
    def parity_failures(self) -> dict[str, tuple[tuple[int, ...], bytes]]:
        """The first move of each kind, at an element of [e, w], that breaks
        its parities (``certify_parities``); empty when every move edge of
        R(w) is certified to flip its bit and keep the other."""
        return certify_parities(self.word_set.target, self._certified, self.word_set.flips)

    def parity_break(self, kind: str) -> tuple[str, str] | None:
        """The texts of the two words of the first move of one kind that does
        not flip its own parity bit and keep the other, or None.

        A braid move flips p_c and a commutation move p_b (``WordSet.parities``):
        a move that does not is a wrong move edge.  None without a move edge
        when the certificate holds for the kind; otherwise every move edge of
        the kind is tested, by position and then by word.
        """
        if kind not in self._breaks:
            self._breaks[kind] = None
            if kind in self.parity_failures:
                par, moves = self.word_set.parities, self.edges(kind)
                bad = np.flatnonzero((par[moves.u] ^ par[moves.v]) != FLIPS[kind])
                if len(bad):
                    rows = self.word_set.rows
                    k = bad[0]
                    self._breaks[kind] = (
                        word_text(rows[moves.u[k]]), word_text(rows[moves.v[k]])
                    )
        return self._breaks[kind]

    def _constant_on_classes(self, kind: str, mask: int) -> bool:
        """The parity bits under ``mask`` are the same on every word of each
        class of one kind."""
        part, bits = self.partition(kind), self.word_set.parities & mask
        seen = np.zeros(len(part), dtype=bits.dtype)
        seen[part.class_of] = bits
        return bool(np.array_equal(seen[part.class_of], bits))

    @lazy
    def braid_crossings(self) -> int:
        """Braid moves between two braid classes: none, as the classes are their components."""
        class_of, moves = self.partition(BRAID).class_of, self.edges(BRAID)
        return int(np.count_nonzero(class_of[moves.u] != class_of[moves.v]))

    @lazy
    def braid_shapes_conform(self) -> bool:
        """Every braid class has 2^x 3^y words and the path product's braid moves.

        The shape depends on the class size alone, so it is computed once per
        distinct size.  A class outside the model is given -1 edges, which no
        class has.
        """
        part, moves = self.partition(BRAID), self.edges(BRAID)
        sizes, size_of = np.unique(part.sizes, return_inverse=True)
        shape_edges = []
        for size in sizes.tolist():
            shape = braid_class_shape(size, self.word_set.target.length())
            shape_edges.append(-1 if shape is None else path_product_edge_count(*shape))
        moves_in = np.bincount(part.class_of[moves.u], minlength=len(part))
        return bool((np.array(shape_edges)[size_of] == moves_in).all())

    @lazy
    def odd_braid_classes(self) -> tuple[int, ...]:
        """Ids of the braid classes with an odd cycle: each is an odd component
        of the braid edges.  Empty, with no odd-cycle test, when every braid
        move flips p_c, which then 2-colours them."""
        if self.parity_break(BRAID) is None:
            return ()
        class_of = self.partition(BRAID).class_of
        return tuple(class_of[odd_components(len(class_of), self.edges(BRAID))].tolist())

    @lazy
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


def analyse(
    w: Permutation, cap: int | None = DEFAULT_WORD_CAP, certified: set | None = None
) -> Analysis:
    """Enumerate R(w) under the cap (WordCapExceeded above it) for analysis;
    ``certified`` as in ``Analysis``."""
    return Analysis(enumerate_words(w, cap=cap), certified)


_EDGE_STYLE = {COMMUTATION: "solid", BRAID: "dashed", INCIDENCE: "solid"}


def dot_lines(g: IndexGraph, style: str = "word") -> Iterator[str]:
    """Deterministic undirected DOT output, one line at a time, without
    line ends.

    Braid edges are dashed and commutation edges solid, following the figure
    convention; incidence edges carry their witness word as a label.  The
    style picks the node shape: ellipses for word graphs, boxes for class
    graphs.
    """
    if style not in ("word", "class"):
        raise ValueError(f"unknown style {style!r}")
    yield "graph {"
    yield f"  node [shape={'ellipse' if style == 'word' else 'box'}];"
    quoted = [f'"{_dot_escape(label)}"' for label in g.labels]
    yield from (f"  {label};" for label in quoted)
    for kind, u, v, word in g.iter_edges():
        witness = "" if word is None else f', label="{_dot_escape(word)}"'
        yield f"  {quoted[u]} -- {quoted[v]} [style={_EDGE_STYLE[kind]}{witness}];"
    yield "}"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
