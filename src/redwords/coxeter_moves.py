"""The elementary braid move b_i and commutation move c_i on reduced words.

Positions are 1-based.  The braid move at position i rewrites the factor in
positions i-1, i, i+1 when it has the form a, a+-1, a; the commutation move
at position i swaps positions i and i+1 when the two letters differ by more
than 1.  Unsupported moves return the word unchanged, matching the usual
convention; use the support predicates to tell the cases apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .reduced_words import BRAID, COMMUTATION, Word


@dataclass(frozen=True)
class Move:
    kind: str  # BRAID or COMMUTATION
    position: int  # 1-based


def supports_braid(word: Sequence[int], i: int) -> bool:
    """True iff 2 <= i <= len-1 and the factor at i-1..i+1 is a, a+-1, a.

    >>> supports_braid(bytes((1, 4, 2, 3, 2)), 4)
    True
    >>> supports_braid(bytes((1, 4, 2, 3, 2)), 2)
    False
    """
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


OVERLAPPING = "overlapping"
INDEPENDENT = "independent"


def classify_pair(kind: str, i: int, j: int) -> str:
    """Classify two supported moves of the same kind as overlapping or independent.

    Braid moves overlap exactly when |i-j| = 2 (they share one letter);
    commutation moves overlap exactly when |i-j| = 1.  The caller is
    responsible for both positions actually being supported; a reduced word
    can never support braid moves at adjacent positions, which is asserted.
    """
    if i == j:
        raise ValueError("positions must be distinct")
    d = abs(i - j)
    if kind == BRAID:
        assert d != 1, "a reduced word cannot support braid moves at adjacent positions"
        return OVERLAPPING if d == 2 else INDEPENDENT
    if kind == COMMUTATION:
        return OVERLAPPING if d == 1 else INDEPENDENT
    raise ValueError(f"unknown move kind {kind!r}")


def neighbors(word: Sequence[int]) -> list[tuple[Move, Word]]:
    """All distinct words one supported move away, commutations first.

    Moves are enumerated by increasing position within each kind so that graph
    construction downstream is deterministic.

    >>> [(m.kind, m.position) for m, _ in neighbors(bytes((1, 2, 1)))]
    [('braid', 2)]
    """
    u = bytes(word)
    out = [
        (Move(COMMUTATION, i), apply_commutation(u, i))
        for i in range(1, len(u))
        if supports_commutation(u, i)
    ]
    out += [(Move(BRAID, i), apply_braid(u, i)) for i in range(2, len(u)) if supports_braid(u, i)]
    return out
