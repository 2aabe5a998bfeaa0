"""Right weak order intervals [e, w], their rank profile, and the conjecture.

An interval is computed two ways that must agree: by the descent-stripping
closure that never touches R(w), which every caller in the package uses, or
by evaluating every prefix of every reduced word of w (each word is a
maximal chain), which is kept as the independent reference the tests compare
the closure against.  ``iter_widths`` gives the width alone for every w in
S_n, in one pass that builds each rank polynomial from those of smaller
intervals by inclusion-exclusion, and yields each as the pass makes it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import gt, itemgetter
from typing import Iterator

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
    letters = []
    top = 0
    for i, v in enumerate(w.window[:-1], 1):
        if v > top:
            top = v
        if top > i:
            letters.append(i)
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


def iter_widths(n: int) -> Iterator[int]:
    """The width of [e, w] for every w in S_n, in lexicographic window order,
    each yielded as soon as the pass has it.

    One pass that holds the rank polynomial P_w(q) = sum over u in [e, w] of
    q^l(u) for every w, and no interval element by element.  It rests on

        [e, w] = {w} | union over right descents i of [e, w s_i],

    and on the weak order being a lattice: for a nonempty set I of right
    descents of w, the meet of the w s_i (i in I) is w w0(I), where w0(I) is
    the longest element of the parabolic subgroup generated by I, so the
    intersection of their intervals is [e, w w0(I)].  Inclusion-exclusion
    over that union gives

        P_w = q^l(w) + sum over nonempty I of (-1)^(|I|+1) P_(w w0(I)).

    On the window, w w0(I) reverses each maximal block of consecutive
    positions that I covers; each such block of w is decreasing, so w w0(I)
    comes earlier in lexicographic order than w, and one pass in that order
    has every P it needs.  Each P is packed into one int, with rank k in the
    32-bit slot k: the largest coefficient, the width, is at most the
    largest Mahonian number, 250,749 for n = 10, so no slot overflows, and
    only the final value of each sum is ever decoded.

    The first widths come at once, so a consumer can use them while the
    pass goes on; the last, that of w0, comes at the end.  Every polynomial
    is kept until then, since any later w may need it.  On 2 vCPUs (Python
    3.11), a process that runs the whole pass alone takes 0.5-0.6 s and
    peaks at 28 MB for n = 8, 6.1-7.2 s and 128 MB for n = 9, and 77-86 s
    and 1.19 GB for n = 10.
    """
    getters: dict[tuple[bool, ...], tuple[list, list]] = {}
    polys: dict[tuple[int, ...], int] = {}
    lookup = polys.__getitem__
    for win in permutations(range(1, n + 1)):
        descents = tuple(map(gt, win, win[1:]))
        meets = getters.get(descents)
        if meets is None:
            meets = getters[descents] = _meet_getters(descents)
        odd, even = meets
        if not odd:  # the identity
            polys[win] = 1
            yield 1
            continue
        below = [lookup(meet(win)) for meet in odd]
        # P_(w s_i) has its top slot at l(w s_i) = l(w) - 1.
        length = ((below[0].bit_length() - 1) >> 5) + 1
        poly = sum(below) - sum([lookup(meet(win)) for meet in even]) + (1 << 32 * length)
        polys[win] = poly
        slots = memoryview(poly.to_bytes(4 * length + 4, sys.byteorder)).cast("I")
        yield max(slots)


def _meet_getters(descents: tuple[bool, ...]) -> tuple[list[itemgetter], list[itemgetter]]:
    """The maps win -> win of w w0(I), for every nonempty set I of the descents,
    split by |I| odd and even.  The singletons come first, in order."""
    gens = [i for i, d in enumerate(descents) if d]
    odd: list[itemgetter] = []
    even: list[itemgetter] = []
    for size in range(1, len(gens) + 1):
        for chosen in combinations(gens, size):
            positions = list(range(len(descents) + 1))
            start = 0
            for k in range(1, size + 1):
                if k == size or chosen[k] != chosen[k - 1] + 1:
                    lo, hi = chosen[start], chosen[k - 1] + 2
                    positions[lo:hi] = positions[lo:hi][::-1]
                    start = k
            (odd if size % 2 else even).append(itemgetter(*positions))
    return odd, even


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

