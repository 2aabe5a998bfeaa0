"""Partition R(w) into braid classes B(w) or commutation classes C(w).

Classes are connected components of the word graph restricted to one move
kind.  Class ids are assigned by the lexicographic rank of each class's
minimal word, so partitions are deterministic and independent of how the
input happened to be produced.

This module holds the package's one copy of each graph primitive, all on
numpy index arrays: the move-edge generator ``move_edges``, the component
labelling ``components`` and the odd-cycle test ``odd_components``.  The
generator finds the neighbour of a word by rank arithmetic on the blocks of
the enumeration walk (``reduced_words.Blocks``), checked against the rows,
not by a search: on 2 vCPUs (Python 3.11, numpy 2.4) the commutation edges
of w0 of S_6 take 45-56 ms and those of ``[7362541]`` 0.60-0.63 s, against
0.18-0.25 s and 2.0-2.2 s by one ``np.searchsorted`` per position.
``commutation_partition`` labels the commutation classes without their
edges: each word points one move down towards its class's normal form, by
the same rank arithmetic, and the classes of w0 of S_6 take 33-44 ms and
those of ``[7362541]`` 0.25-0.33 s, against 76 ms and 0.66 s for the
components of their edges.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .permutation import lazy
from .reduced_words import BRAID, COMMUTATION, Blocks, WordSet, row_keys


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
        root = _jumped(root)
        hi = root[hi]
        lo = root[lo]
        flip = hi < lo
        hi[flip], lo[flip] = lo[flip], hi[flip]


def _jumped(root):
    """The pointers followed until each vertex points at a vertex that
    points at itself, jumped between ``root`` and one buffer of its size."""
    jumped = np.empty_like(root)
    while True:
        root.take(root, out=jumped, mode="wrap")  # "raise" would buffer it
        if np.array_equal(jumped, root):
            return root
        root, jumped = jumped, root


def _numbered(root):
    """Each vertex's root renumbered 0, 1, ... in the order of the roots."""
    return (np.cumsum(root == np.arange(len(root))) - 1)[root]


def components(n: int, edges: IndexPairs | Iterable[tuple[int, int]]):
    """Component label of each vertex 0..n-1, as an integer array.

    Components are numbered in the order of their least vertex.
    """
    e = IndexPairs.of(edges)
    return _numbered(_roots(n, np.minimum(e.u, e.v), np.maximum(e.u, e.v)))


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


def move_edges(word_set: WordSet, kind: str) -> IndexPairs:
    """All index pairs (k, v), k < v, of words one move of the given kind apart.

    A move raises the word exactly when it puts the larger letter first, so
    each edge is found once, from its lower end; edges are listed by
    position, then by word.  The index v comes from the walk's blocks, not
    from a search: the two words share the prefix before the move, whose
    element u is one gather per position away from the last, and they reach
    the same element after the moved letters, so v - k depends on u and the
    first two moved letters alone (``_jumps``).

    Each index is checked: the row there must be the moved word, so rows
    that are not R(w), with a word missing or changed, raise KeyError and
    never give a wrong edge.  Lowering moves are only counted: the rows are
    closed exactly when every raising move is found and there are as many
    lowering moves, since each edge is one of each.
    """
    if kind not in (BRAID, COMMUTATION):
        raise ValueError(f"unknown move kind {kind!r}")
    rows, blocks = word_set.rows, word_set.blocks
    n, r = blocks.n, len(rows)
    letters = _letters(rows)
    span = 2 if kind == COMMUTATION else 3
    jumps = None
    none = np.empty(0, dtype=np.intp)
    lower, upper, lowering = [none], [none], 0
    for p, cell in _walk(blocks, letters, len(letters) - span + 1):
        a, b = letters[p], letters[p + 1]
        diff = b - a
        if kind == COMMUTATION:
            raising = diff > 1  # ab -> ba
            lowering += np.count_nonzero(diff < -1)
        else:
            equal = letters[p + 2] == a  # first and third letters equal
            raising = equal & (diff == 1)  # a(a+1)a -> (a+1)a(a+1)
            lowering += np.count_nonzero(equal & (diff == -1))
        k = raising.nonzero()[0]
        if len(k):
            if jumps is None:
                jumps = _jumps(blocks, kind)
            v = jumps.take(cell.take(k) * n + b.take(k), mode="wrap")
            v += k
            np.minimum(v, r - 1, out=v)  # jumps are at least 0, so v is an index
            _check_moves(rows, k, v, p, kind)
            lower.append(k)
            upper.append(v)
    edges = IndexPairs(np.concatenate(lower), np.concatenate(upper))
    if lowering != len(edges):
        raise KeyError(f"the words are not closed under {kind} moves")
    return edges


def commutation_partition(word_set: WordSet) -> ClassPartition:
    """C(w), from pointers to each class's normal form instead of move edges.

    Each class has one word with no factor x y, x > y + 1 (Anisimov-Knuth:
    the rewriting x y -> y x lowers a word, and every overlap joins, so by
    Newman's lemma it reaches one normal form), and that word is the least
    of its class, since every other word has a smaller one in it.  So every
    other word points at the word with its first such factor swapped, which
    is one commutation move lower, and pointer jumping takes each word to
    its class's least word: classes are numbered by least word, as
    ``components`` numbers the components of the move edges.

    The pointer is the word's index less the ``_jumps`` entry of the move
    up from the lower word, and each is checked against its row as in
    ``move_edges``.  Rows that are not R(w) raise KeyError: each must be a
    path of left descents down from w, as the walk's last step shows, and
    they must be strictly increasing and as many as the walk's words.

    The words are taken 2^18 at a time (``_lowered``), and their int32
    pointers are jumped in one reused buffer, so one call on the 1,747,746
    words of ``[7362541]`` peaks at 44 MB traced (tracemalloc, letter matrix
    and blocks already built), against 95 MB with all words taken at once.
    The batches make that saving: the numbering sets the peak, and int64
    pointers would reach the same 44 MB.
    """
    rows, blocks = word_set.rows, word_set.blocks
    n, r = blocks.n, len(rows)
    keys = row_keys(rows)
    if r != blocks.size or not (keys[1:] > keys[:-1]).all():
        raise KeyError(f"the {r} rows are not the {blocks.size} words of the walk")
    if rows.size and not 1 <= rows.min() <= rows.max() < n:
        raise KeyError(f"the rows have letters outside 1..{n - 1}")
    # The pointers are widened before the numbering, whose ids are int64, as
    # ``components`` gives them.  Numbered as int32 they trace 7 MB lower on
    # ``[7362541]``, but the w0 worker of a pooled S_6 scan then peaks about
    # 1 MB higher in RSS (64.2 against 63.1 MB), from where the allocator
    # then places the ids.
    root = _jumped(_lowered(rows, blocks)).astype(np.int64)
    return ClassPartition(COMMUTATION, word_set, _numbered(root))


def _lowered(rows, blocks: Blocks, batch: int = 1 << 18):
    """Each word's pointer one commutation move down, at its first factor
    x y with x > y + 1, or at itself for a normal form, as int32 (a word
    set of 2^31 rows would not fit in memory).

    A word's pointer reads only its own letters and walk, so the words are
    taken ``batch`` rows at a time, and only the pointers are held for all.
    """
    n = blocks.n
    root = np.arange(len(rows), dtype=np.int32)
    jumps = None
    for start in range(0, len(rows), batch):
        part = rows[start:start + batch]
        letters = _letters(part)
        first = np.ones(len(part), dtype=bool)
        for p, cell in _walk(blocks, letters, len(letters)):
            if p + 1 == len(letters):
                # A row that takes a step that is no left descent stays at
                # the element -1, which has none, so the last step shows it.
                if (blocks.child.take(cell, mode="wrap") < 0).any():
                    raise KeyError("a row is not a reduced word of w")
                break
            a, b = letters[p], letters[p + 1]
            diff = b - a
            j = (diff < -1).nonzero()[0]  # ab -> ba lowers the word
            j = j[first.take(j)]  # the first such factor of each word
            if len(j):
                first[j] = False
                if jumps is None:
                    jumps = _jumps(blocks, COMMUTATION)
                k = j + start if start else j  # one add less per position
                # The cell of the lower word, which has b at p, is cell + diff.
                v = (cell.take(j) + diff.take(j)) * n
                v += a.take(j)
                v = k - jumps.take(v, mode="wrap")
                np.maximum(v, 0, out=v)
                _check_moves(rows, v, k, p, COMMUTATION)
                root[k] = v
    return root


def _letters(rows):
    """The letter matrix by position, each contiguous, as int8: the
    difference of two letters below 128 does not wrap."""
    return rows.T.astype(np.int8, order="C")


def _walk(blocks: Blocks, letters, positions: int):
    """For each of the first ``positions`` positions p of the words: p, and
    the cell u * n + a of each word, where a is its letter at p and u the
    element that its letters before p lead to from w.

    Element ids are kept times n, so that the cell indexes ``Blocks.child``
    flat.  A cell out of range, which only rows that are not R(w) reach,
    wraps round, and the callers' checks catch whatever is read there.  The
    cells are one array, overwritten at the next position.
    """
    n = blocks.n
    step = (blocks.child * n).ravel().astype(np.int32)
    at = np.full(letters.shape[1], blocks.root * n, dtype=np.int32)
    cell = np.empty_like(at)
    for p in range(positions):
        np.add(at, letters[p], out=cell)
        yield p, cell
        step.take(cell, out=at, mode="wrap")


def _check_moves(rows, k, v, p: int, kind: str) -> None:
    """KeyError unless each row v[j] is row k[j] with the move at position p."""
    moved = rows.take(k, axis=0)
    first = moved[:, p].copy()
    moved[:, p] = moved[:, p + 1]
    moved[:, p + 1] = first
    if kind == BRAID:
        moved[:, p + 2] = moved[:, p]
    if np.bitwise_xor(rows.take(v, axis=0), moved, out=moved).any():
        raise KeyError(f"the words are not closed under {kind} moves")


def _jumps(blocks: Blocks, kind: str):
    """v - k for each raising move from word k to word v, flat at
    (u * n + a) * n + b for the element u before the move and its first two
    letters ab: a commutation ab -> ba, or a braid a(a+1)a -> (a+1)a(a+1).

    The index of a word is the sum of the offsets of its letters' blocks,
    and the two words differ only in those of the moved letters.  Entries
    that are no move of u are never read for the walk's own rows.
    """
    child, offset = blocks.child, blocks.offset
    n = child.shape[1]
    # first[u, x, y]: where the words of R(u) that start xy start; for a
    # braid, those that start xyx.  Row -1 is no element, with no words.
    first = offset.take(child, axis=0)
    first += offset[:, :, None]
    if kind == BRAID:
        third = child.take(child, axis=0) * n  # the cell of x after xy
        third += np.arange(n)[:, None]
        first += offset.take(third)
    # A raising move goes up, so a negative entry is no move; at 0 it leads
    # back to the word itself, which the check rejects.
    return np.maximum(first.transpose(0, 2, 1) - first, 0).ravel()


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
    """Partition plus the move edges that induced it: the braid classes of
    ``graphs.Analysis``, and the tests' route to the commutation classes."""
    edges = move_edges(word_set, kind)
    # Word indices are in lexicographic order and components are numbered by
    # their least member, so class ids follow the minimal words.
    return ClassPartition(kind, word_set, components(len(word_set), edges)), edges


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

