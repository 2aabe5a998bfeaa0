"""Right weak order intervals [e, w], their rank profile, and the conjecture.

An interval is computed two ways that must agree: by the descent-stripping
closure that never touches R(w), which every caller in the package uses, or
by evaluating every prefix of every reduced word of w (each word is a
maximal chain), which is kept as the independent reference the tests compare
the closure against.  ``interval_widths`` gives the width alone for every w
in S_n at once, in one pass up the weak order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .characterizations import is_circuit_free
from .permutation import Permutation, inversion_count
from .reduced_words import DEFAULT_WORD_CAP, enumerate_words


@dataclass(frozen=True)
class WeakInterval:
    w: Permutation
    ranks: tuple[tuple[tuple[int, ...], ...], ...]  # rank k -> sorted windows
    support_size: int

    @property
    def rank_sizes(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.ranks)

    @property
    def width(self) -> int:
        return max(self.rank_sizes)

    @property
    def size(self) -> int:
        return sum(self.rank_sizes)


def predicts_circuit_free(w: Permutation, width: int, support_size: int) -> bool:
    """The conjectured conditions for Gamma(w) to be a tree: one commutation
    class, one braid class, width 2, or width = support = 3."""
    return (
        w.is_321_avoiding()
        or w.inversions_pairwise_share_letter()
        or width == 2
        or (width == 3 and support_size == 3)
    )


def support(w: Permutation) -> frozenset[int]:
    """Letters appearing in any (equivalently, every) reduced word of w.

    s_i occurs exactly when w does not map {1..i} onto itself, that is when
    max(w(1..i)) > i.
    """
    letters: set[int] = set()
    top = 0
    for i, v in enumerate(w.window[:-1], 1):
        top = max(top, v)
        if top > i:
            letters.add(i)
    return frozenset(letters)


def interval(w: Permutation, cap: int | None = DEFAULT_WORD_CAP) -> WeakInterval:
    """[e, w] from reduced-word prefixes; rank of an element is its length."""
    ws = enumerate_words(w, cap=cap)
    n = w.n
    ranks: list[set[tuple[int, ...]]] = [set() for _ in range(w.length() + 1)]
    ranks[0].add(tuple(range(1, n + 1)))
    for word in ws.words:
        win = list(range(1, n + 1))
        for k, a in enumerate(word, 1):
            win[a - 1], win[a] = win[a], win[a - 1]
            ranks[k].add(tuple(win))
    return WeakInterval(
        w=w,
        ranks=tuple(tuple(sorted(r)) for r in ranks),
        support_size=len(set(ws.words[0])) if ws.words[0] else 0,
    )


def interval_by_closure(w: Permutation) -> WeakInterval:
    """[e, w] by stripping right descents from the top; no enumeration of R(w).

    An element lies in [e, w] exactly when it arises from w by repeatedly
    multiplying away a right descent, so the level sets of this closure are
    the ranks.
    """
    n = w.n
    levels: list[set[tuple[int, ...]]] = [{w.window}]
    for _ in range(w.length()):
        nxt: set[tuple[int, ...]] = set()
        for win in levels[-1]:
            lst = list(win)
            for i in range(n - 1):
                if lst[i] > lst[i + 1]:
                    lst[i], lst[i + 1] = lst[i + 1], lst[i]
                    nxt.add(tuple(lst))
                    lst[i], lst[i + 1] = lst[i + 1], lst[i]
        levels.append(nxt)
    levels.reverse()
    return WeakInterval(
        w=w,
        ranks=tuple(tuple(sorted(r)) for r in levels),
        support_size=len(support(w)),
    )


def interval_widths(n: int) -> list[int]:
    """The width of [e, w] for every w in S_n, in lexicographic window order.

    One pass up the weak order, with no interval held element by element.
    Each permutation gets one bit, numbered in order of length, so each rank
    owns one range of bits.  [e, w] is {w} together with [e, w s_i] for every
    right descent i, so its bitset is w's own bit OR the bitsets of those
    w s_i, all one rank below; only that rank's bitsets are kept.  The size
    of each rank of [e, w] is the popcount of its bitset over that range.
    """
    windows = list(permutations(range(1, n + 1)))
    by_length: list[list[int]] = [[] for _ in range(n * (n - 1) // 2 + 1)]
    for k, win in enumerate(windows):
        by_length[inversion_count(win)].append(k)
    widths = [0] * len(windows)
    ranges: list[tuple[int, int]] = []  # (first bit, mask) of each rank so far
    below: dict[tuple[int, ...], int] = {}
    first = 0
    for rank in by_length:
        ranges.append((first, (1 << len(rank)) - 1))
        here: dict[tuple[int, ...], int] = {}
        for bit, k in enumerate(rank, first):
            win = windows[k]
            bits = 1 << bit
            for i in range(n - 1):
                if win[i] > win[i + 1]:
                    bits |= below[win[:i] + (win[i + 1], win[i]) + win[i + 2:]]
            here[win] = bits
            widths[k] = max((bits >> lo & mask).bit_count() for lo, mask in ranges)
        below = here
        first += len(rank)
    return widths


def conjecture_predicate(w: Permutation) -> bool:
    """One commutation class, one braid class, width 2, or width = support = 3.

    Entirely enumeration-free: the class-count conditions go through their
    window-level characterizations and the width through the closure interval.
    """
    iv = interval_by_closure(w)
    return predicts_circuit_free(w, iv.width, iv.support_size)


AGREE = "agree"
PREDICATE_WITHOUT_LOWER_BOUND = "counterexample:predicate_without_lower_bound"
LOWER_BOUND_WITHOUT_PREDICATE = "counterexample:lower_bound_without_predicate"
SKIPPED = "skipped"  # the scan's status for a permutation skipped at the word cap


def classify_conjecture(predicted: bool, circuit_free: bool) -> str:
    """The status of one permutation: AGREE, or which side the mismatch is on."""
    if predicted == circuit_free:
        return AGREE
    return PREDICATE_WITHOUT_LOWER_BOUND if predicted else LOWER_BOUND_WITHOUT_PREDICATE


def check_conjecture(w: Permutation, cap: int | None = DEFAULT_WORD_CAP) -> str:
    """Compare the conjectured conditions against actual circuit-freeness.

    A mismatch is recorded, not raised: the statement under test is a
    conjecture, and a counterexample would be a finding rather than a bug.
    """
    return classify_conjecture(conjecture_predicate(w), is_circuit_free(w, cap=cap))
