"""The word-level oracle: braid and commutation moves on single words.

The package finds move edges by rank arithmetic on the enumeration walk
(``classes.move_edges``); the tests compare it against these moves, which
read the letters of one word and nothing else.  Positions are 1-based.  The
braid move at position i rewrites the factor in positions i-1, i, i+1 when
it has the form a, a+-1, a; the commutation move at position i swaps
positions i and i+1 when the two letters differ by more than 1.
Unsupported moves return the word unchanged, matching the usual convention;
use the support predicates to tell the cases apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from redwords.classes import (
    braid_class_shape,
    components,
    odd_components,
    path_product_edge_count,
)
from redwords.reduced_words import BRAID, COMMUTATION, Word


@dataclass(frozen=True)
class Move:
    kind: str  # BRAID or COMMUTATION
    position: int  # 1-based


def supports_braid(word: Sequence[int], i: int) -> bool:
    """True iff 2 <= i <= len-1 and the factor at i-1..i+1 is a, a+-1, a."""
    if not 2 <= i <= len(word) - 1:
        return False
    a, b = word[i - 2], word[i - 1]
    return word[i] == a and abs(a - b) == 1


def apply_braid(word: Sequence[int], i: int) -> Word:
    """Rewrite a(a+-1)a -> (a+-1)a(a+-1) at position i, or return word unchanged."""
    u = bytes(word)
    if not supports_braid(u, i):
        return u
    a, b = u[i - 2], u[i - 1]
    return u[: i - 2] + bytes((b, a, b)) + u[i + 1 :]


def supports_commutation(word: Sequence[int], i: int) -> bool:
    """True iff 1 <= i <= len-1 and |u_i - u_{i+1}| > 1."""
    if not 1 <= i <= len(word) - 1:
        return False
    return abs(word[i - 1] - word[i]) > 1


def apply_commutation(word: Sequence[int], i: int) -> Word:
    """Swap positions i and i+1 when their letters commute, else return word unchanged."""
    u = bytes(word)
    if not supports_commutation(u, i):
        return u
    return u[: i - 1] + bytes((u[i], u[i - 1])) + u[i + 1 :]


def neighbors(word: Sequence[int]) -> list[tuple[Move, Word]]:
    """All distinct words one supported move away, commutations first.

    Moves are listed by increasing position within each kind.
    """
    u = bytes(word)
    out = [
        (Move(COMMUTATION, i), apply_commutation(u, i))
        for i in range(1, len(u))
        if supports_commutation(u, i)
    ]
    out += [(Move(BRAID, i), apply_braid(u, i)) for i in range(2, len(u)) if supports_braid(u, i)]
    return out


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


def verify_braid_class_graph(class_words: Sequence[Word], length: int) -> bool:
    """Check a braid class against the path-product structure theorem.

    True iff the class has 2^x * 3^y elements, its internal braid-move graph
    is connected and bipartite, and the edge count matches the product of x
    two-vertex paths with y three-vertex paths.  The words need not be an
    R(w), so their braid moves come from ``neighbors``.  An empty list, a
    repeated word or words of different lengths are no class.
    """
    index = {bytes(u): k for k, u in enumerate(class_words)}
    if not index or len(index) != len(class_words) or len({len(u) for u in index}) != 1:
        return False
    shape = braid_class_shape(len(class_words), length)
    if shape is None:
        return False
    edges = []
    for k, u in enumerate(index):
        for move, v in neighbors(u):
            if move.kind == BRAID:
                if v not in index:
                    return False  # a braid move escapes the given set: not a class
                if index[v] > k:
                    edges.append((k, index[v]))
    if len(edges) != path_product_edge_count(*shape):
        return False
    n = len(class_words)
    return not components(n, edges).any() and not len(odd_components(n, edges))
