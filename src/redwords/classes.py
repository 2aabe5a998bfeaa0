"""Partition R(w) into braid classes B(w) or commutation classes C(w).

Classes are connected components of the word graph restricted to one move
kind.  Class ids are assigned by the lexicographic rank of each class's
minimal word, so partitions are deterministic and independent of how the
input happened to be produced.

This module holds the package's one copy of each graph primitive, all on
numpy index arrays: the move-edge generator ``move_edges``, the component
labelling ``components`` and the odd-cycle test ``odd_components``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .coxeter_moves import BRAID, COMMUTATION, neighbors
from .permutation import lazy
from .reduced_words import Word, WordSet, letter_rows, row_keys


class IndexPairs:
    """Pairs (u[j], v[j]) of vertex indices held as two integer arrays.

    Iterates as plain ``(int, int)`` tuples, so it serves wherever a list of
    pairs would; the graph primitives read the arrays.
    """

    def __init__(self, u, v):
        self.u, self.v = u, v

    @classmethod
    def of(cls, pairs: IndexPairs | Iterable[tuple[int, int]]) -> IndexPairs:
        """The pairs as arrays; an ``IndexPairs`` is returned unchanged."""
        if isinstance(pairs, IndexPairs):
            return pairs
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.intp)
        return cls(flat[0::2], flat[1::2])

    def __len__(self) -> int:
        return len(self.u)

    def __iter__(self):
        return zip(self.u.tolist(), self.v.tolist())


def _roots(n: int, lo, hi):
    """The least vertex of each vertex's component, by min-label propagation.

    The edges join lo[j] and hi[j], with lo[j] <= hi[j].  Each round hooks
    every root that shares an edge with a smaller root onto the smallest such
    root, then jumps pointers until every vertex points at a root, and maps
    each edge onto the roots of its ends.  A root only ever hooks onto a
    smaller label, so the least vertex of a component is never hooked and
    ends as its root.  An edge whose ends share a root is done, so it is
    dropped from later rounds.
    """
    root = np.arange(n)
    while True:
        # One array at a time, so that a large edge set is held at most three
        # times over.
        live = hi != lo
        hi = hi[live]
        lo = lo[live]
        if not len(hi):
            return root
        np.minimum.at(root, hi, lo)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        hi = root[hi]
        lo = root[lo]
        flip = hi < lo
        hi[flip], lo[flip] = lo[flip], hi[flip]


def components(n: int, edges: IndexPairs | Iterable[tuple[int, int]]):
    """Component label of each vertex 0..n-1, as an integer array.

    Components are numbered in the order of their least vertex.
    """
    e = IndexPairs.of(edges)
    root = _roots(n, np.minimum(e.u, e.v), np.maximum(e.u, e.v))
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def odd_components(n: int, edges: IndexPairs | Iterable[tuple[int, int]]):
    """Least vertex of each component of the graph on 0..n-1 with no 2-colouring.

    On the bipartite double cover, where vertex x has copies x and n + x and
    each edge (u, v) joins u to n + v and v to n + u, a component has an odd
    cycle exactly when some x and n + x meet.  A self-loop fails its
    component like any odd cycle.  Returned as a sorted integer array.
    """
    e = IndexPairs.of(edges)
    root = _roots(2 * n, np.concatenate((e.u, e.v)), np.concatenate((e.v, e.u)) + n)
    return np.unique(root[:n][root[:n] == root[n:]])


def move_edges(rows, kind: str) -> IndexPairs:
    """All index pairs (k, v), k < v, of rows one move of the given kind apart.

    ``rows`` is a letter matrix with its rows in strictly increasing
    lexicographic order.  A move raises the word exactly when it puts the
    larger letter first, so each edge is found once, from its lower end;
    edges are listed by position, then by word.  A neighbour missing from the
    rows raises KeyError: the rows are not closed under the moves.  Lowering
    moves are only counted: the rows are closed exactly when every raising
    move is found and there are as many lowering moves, since each edge is
    one of each.
    """
    if kind not in (BRAID, COMMUTATION):
        raise ValueError(f"unknown move kind {kind!r}")
    keys = row_keys(rows)
    span = 2 if kind == COMMUTATION else 3
    none = np.empty(0, dtype=np.intp)
    lower, upper, lowering = [none], [none], 0
    for p in range(rows.shape[1] - span + 1):
        a, b = rows[:, p], rows[:, p + 1]
        if kind == COMMUTATION:
            raising = (b > a) & (b - a > 1)  # ab -> ba
            lowering += np.count_nonzero((a > b) & (a - b > 1))
        else:
            c = rows[:, p + 2]
            raising = (a == c) & (b > a) & (b - a == 1)  # a(a+1)a -> (a+1)a(a+1)
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


class ClassPartition:
    """One partition of a word set into classes of one move kind."""

    def __init__(self, kind: str, word_set: WordSet, class_of):
        self.kind = kind  # BRAID or COMMUTATION
        self.word_set = word_set
        self.class_of = class_of  # word index -> class id, an integer array

    @lazy
    def sizes(self):
        """Class id -> number of words, an integer array."""
        return np.bincount(self.class_of)

    def __len__(self) -> int:
        return len(self.sizes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassPartition):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.word_set == other.word_set
            and np.array_equal(self.class_of, other.class_of)
        )

    def grouped(self, values: Sequence) -> list[list]:
        """Class id -> the list of ``values[i]`` over its word indices i, in order.

        The values are put in class order by one numpy take on an object
        array, so the reordering makes no Python int per word.  Made and
        freed between the values, a word set's worth of ints leaves the
        small-object heap fragmented: a process answering one request after
        another then keeps more memory.
        """
        order = np.argsort(self.class_of, kind="stable")
        ordered = np.array(values, dtype=object)[order].tolist()
        ends = np.cumsum(self.sizes).tolist()
        return [ordered[end - size : end] for size, end in zip(self.sizes.tolist(), ends)]


def partition_with_edges(word_set: WordSet, kind: str) -> tuple[ClassPartition, IndexPairs]:
    """Partition plus the move edges that induced it (useful in bulk checks)."""
    edges = move_edges(word_set.rows, kind)
    # Word indices are in lexicographic order and components are numbered by
    # their least member, so class ids follow the minimal words.
    return ClassPartition(kind, word_set, components(len(word_set), edges)), edges


def class_closure(word: Sequence[int], kind: str) -> list[Word]:
    """The full class of a single word under moves of one kind, sorted.

    Breadth-first closure; does not require enumerating all of R(w), so it
    works on words whose permutation has an intractably large word set.
    """
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


def braid_class_shape(size: int, length: int) -> tuple[int, int] | None:
    """The shape (x, y) of a braid class of ``size`` words of ``length`` letters.

    A class of the path-product model has 2^x * 3^y words, with x independent
    braid factors and y overlapping pairs, and needs 3x + 5y <= length
    letters.  None when the size has another prime factor or the letters do
    not suffice: the class is outside the model, as some are from n = 5 on.
    """
    if size < 1:
        raise ValueError("empty class")
    x = y = 0
    while size % 2 == 0:
        x += 1
        size //= 2
    while size % 3 == 0:
        y += 1
        size //= 3
    if size != 1 or 3 * x + 5 * y > length:
        return None
    return x, y


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
    shape = braid_class_shape(len(class_words), length)
    if shape is None:
        return False
    try:
        edges = move_edges(letter_rows(sorted(class_words)), BRAID)
    except ValueError:
        return False  # words of different lengths: not a class
    except KeyError:
        return False  # a braid move escapes the given set: not a class
    if len(edges) != path_product_edge_count(*shape):
        return False
    n = len(class_words)
    return not components(n, edges).any() and not len(odd_components(n, edges))
