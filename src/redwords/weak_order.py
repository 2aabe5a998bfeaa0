"""Right weak order intervals [e, w], their rank profile, and the conjecture.

An interval is computed two ways that must agree: by evaluating every prefix
of every reduced word of w (each word is a maximal chain), or by the
descent-stripping closure that never touches R(w).  The closure route is the
one used where word sets are large or capped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characterizations import is_circuit_free
from .permutation import Permutation
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

    @property
    def predicts_circuit_free(self) -> bool:
        """The conjectured conditions for Gamma(w) to be a tree: one commutation
        class, one braid class, width 2, or width = support = 3."""
        w, wid = self.w, self.width
        return (
            w.is_321_avoiding()
            or w.inversions_pairwise_share_letter()
            or wid == 2
            or (wid == 3 and self.support_size == 3)
        )


def support(w: Permutation) -> frozenset[int]:
    """Letters appearing in any (equivalently, every) reduced word of w."""
    letters: set[int] = set()
    win = list(w.window)
    while True:
        for i in range(len(win) - 1):
            if win[i] > win[i + 1]:
                letters.add(i + 1)
                win[i], win[i + 1] = win[i + 1], win[i]
                break
        else:
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


def conjecture_predicate(w: Permutation) -> bool:
    """One commutation class, one braid class, width 2, or width = support = 3.

    Entirely enumeration-free: the class-count conditions go through their
    window-level characterizations and the width through the closure interval.
    """
    return interval_by_closure(w).predicts_circuit_free


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
