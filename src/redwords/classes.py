"""Partition R(w) into braid classes B(w) or commutation classes C(w).

Classes are connected components of the word graph restricted to one move
kind, computed with a union-find over word indices.  Class ids are assigned
by the lexicographic rank of each class's minimal word, so partitions are
deterministic and independent of how the input happened to be produced.

This module holds the package's one copy of each graph primitive: the
index-based move-edge loop ``move_edges``, the union-find ``components`` and
the breadth-first 2-colouring ``odd_components``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .coxeter_moves import BRAID, COMMUTATION
from .errors import InvariantViolation
from .reduced_words import Word, WordSet


@dataclass(frozen=True)
class ClassPartition:
    kind: str  # BRAID or COMMUTATION
    word_set: WordSet
    class_of: tuple[int, ...]  # word index -> class id
    classes: tuple[tuple[int, ...], ...]  # class id -> sorted word indices
    representatives: tuple[Word, ...]  # class id -> lexicographically minimal word

    def __len__(self) -> int:
        return len(self.classes)

    def class_words(self, k: int) -> list[Word]:
        words = self.word_set.words
        return [words[i] for i in self.classes[k]]

    def as_word_lists(self) -> list[list[Word]]:
        return [self.class_words(k) for k in range(len(self.classes))]


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def components(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Component label of each vertex 0..n-1, by union-find over the edges.

    Unions keep the smaller root, so every root is its component's least
    vertex, and components are numbered in the order of their least vertex.
    """
    parent = list(range(n))
    for u, v in edges:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru < rv:
            parent[rv] = ru
        elif rv < ru:
            parent[ru] = rv
    labels = [0] * n
    count = 0
    for x in range(n):
        root = _find(parent, x)
        if root == x:
            labels[x] = count
            count += 1
        else:
            labels[x] = labels[root]
    return labels


def odd_components(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Least vertex of each component of the graph on 0..n-1 with no 2-colouring.

    One breadth-first 2-colouring, started from each uncoloured vertex in
    increasing order; a self-loop fails its component like any odd cycle.
    """
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    colour = [-1] * n
    odd = []
    for start in range(n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        frontier = [start]
        clash = False
        while frontier:
            nxt = []
            for x in frontier:
                for y in adjacency[x]:
                    if colour[y] == -1:
                        colour[y] = colour[x] ^ 1
                        nxt.append(y)
                    elif colour[y] == colour[x]:
                        clash = True
            frontier = nxt
        if clash:
            odd.append(start)
    return odd


def move_edges(
    words: Sequence[Word], kind: str, index: dict[Word, int]
) -> list[tuple[int, int]]:
    """All index pairs (k, v), k < v, of words one move of the given kind apart.

    Listed by word, then by position.  A neighbour missing from ``index``
    raises KeyError: the words are not closed under the moves.
    """
    edges: list[tuple[int, int]] = []
    if kind == COMMUTATION:
        for k, u in enumerate(words):
            for i in range(len(u) - 1):
                a, b = u[i], u[i + 1]
                if abs(a - b) > 1:
                    v = index[u[:i] + bytes((b, a)) + u[i + 2 :]]
                    if v > k:
                        edges.append((k, v))
    elif kind == BRAID:
        for k, u in enumerate(words):
            for i in range(1, len(u) - 1):
                a, b = u[i - 1], u[i]
                if u[i + 1] == a and abs(a - b) == 1:
                    v = index[u[: i - 1] + bytes((b, a, b)) + u[i + 2 :]]
                    if v > k:
                        edges.append((k, v))
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    return edges


def partition_with_edges(
    word_set: WordSet, kind: str, index: dict[Word, int] | None = None
) -> tuple[ClassPartition, list[tuple[int, int]]]:
    """Partition plus the move edges that induced it (useful in bulk checks).

    Pass a prebuilt ``word_set.index()`` to share it between both kinds.
    """
    words = word_set.words
    edges = move_edges(words, kind, word_set.index() if index is None else index)
    # Word indices are in lexicographic order and components are numbered by
    # their least member, so class ids follow the minimal words.
    class_of = components(len(words), edges)
    classes: list[list[int]] = []
    for k, cid in enumerate(class_of):
        if cid == len(classes):
            classes.append([k])
        else:
            classes[cid].append(k)
    part = ClassPartition(
        kind=kind,
        word_set=word_set,
        class_of=tuple(class_of),
        classes=tuple(map(tuple, classes)),
        representatives=tuple(words[cls[0]] for cls in classes),
    )
    return part, edges


def partition(word_set: WordSet, kind: str) -> ClassPartition:
    """B(w) for kind="braid", C(w) for kind="commutation".

    >>> from .permutation import from_window
    >>> from .reduced_words import enumerate_words, word_text
    >>> ws = enumerate_words(from_window([2, 5, 3, 1, 4]))
    >>> [[word_text(u) for u in cls] for cls in partition(ws, "commutation").as_word_lists()]
    [['12432', '14232', '41232'], ['14323', '41323', '43123']]
    """
    part, _ = partition_with_edges(word_set, kind)
    return part


def class_closure(word: Sequence[int], kind: str) -> list[Word]:
    """The full class of a single word under moves of one kind, sorted.

    Breadth-first closure; does not require enumerating all of R(w), so it
    works on words whose permutation has an intractably large word set.
    """
    from .coxeter_moves import neighbors

    start = bytes(word)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for move, v in neighbors(u):
                if move.kind == kind and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen)


@dataclass(frozen=True)
class BraidClassShape:
    """x independent braid factors and y overlapping pairs: size 2^x * 3^y."""

    x: int
    y: int

    @property
    def size(self) -> int:
        return 2**self.x * 3**self.y


def braid_class_shape(class_words: Sequence[Word], length: int) -> BraidClassShape:
    """Factor the class size as 2^x * 3^y and check 3x + 5y <= length.

    Any other prime factor, or a violated letter budget, contradicts the
    structure theorem for braid classes and is reported as a violation.
    """
    size = len(class_words)
    if size < 1:
        raise ValueError("empty class")
    x = y = 0
    m = size
    while m % 2 == 0:
        x += 1
        m //= 2
    while m % 3 == 0:
        y += 1
        m //= 3
    if m != 1:
        raise InvariantViolation(f"braid class size {size} is not of the form 2^x 3^y")
    if 3 * x + 5 * y > length:
        raise InvariantViolation(
            f"braid class shape ({x},{y}) needs {3 * x + 5 * y} letters "
            f"but the word length is only {length}"
        )
    return BraidClassShape(x, y)


def path_product_edge_count(x: int, y: int) -> int:
    """Edges of the product of x two-vertex paths and y three-vertex paths."""
    edges = 0
    if x:
        edges += x * 2 ** (x - 1) * 3**y
    if y:
        edges += 2 * y * 2**x * 3 ** (y - 1)
    return edges


def verify_braid_class_graph(class_words: Sequence[Word], length: int) -> bool:
    """Check a braid class against the path-product structure theorem.

    True iff the class has 2^x * 3^y elements, its internal braid-move graph
    is connected and bipartite, and the edge count matches the product of x
    two-vertex paths with y three-vertex paths.
    """
    try:
        shape = braid_class_shape(class_words, length)
    except InvariantViolation:
        return False
    index = {u: k for k, u in enumerate(class_words)}
    try:
        edges = move_edges(class_words, BRAID, index)
    except KeyError:
        return False  # a braid move escapes the given set: not a class
    if len(edges) != path_product_edge_count(shape.x, shape.y):
        return False
    n = len(class_words)
    return not any(components(n, edges)) and not odd_components(n, edges)
