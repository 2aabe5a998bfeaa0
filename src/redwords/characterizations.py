"""Closed-form predicates and counts for the bound achievers.

The number of reduced words satisfies b + c - 1 <= r <= b * c, writing r, b,
c for |R(w)|, |B(w)|, |C(w)|.  The upper bound is achieved exactly when
b = 1 or c = 1; the lower bound exactly when the incidence graph Gamma(w)
is a tree, and that in turn has a closed description: either b = 1, or
c = 1, or some reduced word of w (up to the symmetries generated by word
reversal and letter complementation i -> n-i) is a braid factor i(i+1)i
glued to short monotone runs in one of four specific ways.

Both achiever families have exact enumerations per n, cross-checked here as
``count_upper`` and ``count_lower``.

The template predicates come in two routes that are tested against each
other: a window-level route that evaluates every template instance for the
given n once and then answers by set membership (no enumeration of R(w)
needed), and a word-level route that scans an explicit word set.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Sequence

from .permutation import Permutation
from .reduced_words import WordSet, evaluate

# Counts stay below 2^53 (exact in JSON / IEEE doubles) through n = 30.
MAX_COUNT_N = 30


def upper_predicate(w: Permutation) -> bool:
    """Enumeration-free test for r = b * c.

    True iff w is 321-avoiding (fully commutative), or w swaps some i and
    i+2 and fixes everything else (the one permutation shape whose word set
    is exactly an {i(i+1)i, (i+1)i(i+1)} pair).
    """
    if w.is_321_avoiding():
        return True
    win = w.window
    n = w.n
    for i in range(1, n - 1):  # 1-based; needs i+2 <= n
        if win[i - 1] == i + 2 and win[i + 1] == i:
            if all(win[k - 1] == k for k in range(1, n + 1) if k not in (i, i + 2)):
                return True
    return False


def _braid_core(i: int) -> tuple[int, ...]:
    return (i, i + 1, i)


def _lower_template_words(n: int) -> list[tuple[int, ...]]:
    """Every reduced-word template whose permutation achieves the lower bound
    without having b = 1 or c = 1, instantiated for S_n.

    The list covers all images under word reversal and letter complementation
    explicitly, so no symmetry closure is needed afterwards (asserted in
    tests).
    """
    words: list[tuple[int, ...]] = []
    # A braid factor followed by (i-1, i), and its complement-image twin.
    for i in range(2, n - 1):
        words.append(_braid_core(i) + (i - 1, i))
    for i in range(1, n - 2):
        words.append(_braid_core(i) + (i + 2, i + 1))
    # A braid factor against one monotone run, on either side.
    for i in range(2, n - 1):
        for t in range(i - 1):
            run = tuple(range(i - 1, i - 2 - t, -1))  # i-1 down to i-1-t
            words.append(_braid_core(i) + run)
            words.append(run[::-1] + _braid_core(i))
    for i in range(1, n - 2):
        for t in range(n - 2 - i):
            run = tuple(range(i + 2, i + 3 + t))  # i+2 up to i+2+t
            words.append(_braid_core(i) + run)
            words.append(run[::-1] + _braid_core(i))
    # The pinched case (i-1) i(i+1)i (i-1).
    for i in range(2, n - 1):
        words.append((i - 1,) + _braid_core(i) + (i - 1,))
    # Runs on both sides, ascending through the braid factor.
    for i in range(2, n - 2):
        for t in range(i - 1):
            for tp in range(n - 2 - i):
                prefix = tuple(range(i - 1 - t, i))  # i-1-t up to i-1
                suffix = tuple(range(i + 2, i + 3 + tp))  # i+2 up to i+2+t'
                words.append(prefix + _braid_core(i) + suffix)
                words.append(suffix[::-1] + _braid_core(i) + prefix[::-1])
    return words


@lru_cache(maxsize=None)
def lower_template_windows(n: int) -> frozenset[tuple[int, ...]]:
    """Windows of all template permutations for S_n."""
    wins = set()
    for word in _lower_template_words(n):
        wins.add(evaluate(word, n).window)
    return frozenset(wins)


def lower_predicate_pattern(w: Permutation) -> bool:
    """Enumeration-free test for r = b + c - 1."""
    if w.inversions_pairwise_share_letter() or w.is_321_avoiding():
        return True
    return w.window in lower_template_windows(w.n)


def _is_run(seq: Sequence[int], start: int, step: int) -> bool:
    if len(seq) == 0 or seq[0] != start:
        return False
    return all(seq[k + 1] - seq[k] == step for k in range(len(seq) - 1))


def _raw_template_match(word: Sequence[int]) -> bool:
    # Scan for an ascending braid core a, a+1, a and test the surrounding
    # prefix u / suffix v against the four template shapes.
    for p in range(len(word) - 2):
        a = word[p]
        if word[p + 1] != a + 1 or word[p + 2] != a:
            continue
        u = tuple(word[:p])
        v = tuple(word[p + 3 :])
        if not u and v == (a - 1, a):
            return True
        if not u and _is_run(v, a - 1, -1):
            return True
        if u == (a - 1,) and v == (a - 1,):
            return True
        if (
            u
            and v
            and u[-1] == a - 1
            and _is_run(u, u[0], 1)
            and _is_run(v, a + 2, 1)
        ):
            return True
    return False


def word_matches_lower_template(word: Sequence[int], n: int) -> bool:
    """True iff the word, or one of its symmetric images, is a raw template."""
    u = bytes(word)
    comp = bytes(n - a for a in u)
    return any(
        _raw_template_match(x) for x in (u, u[::-1], comp, comp[::-1])
    )


def lower_pattern_from_words(word_set: WordSet) -> bool:
    """The word-level route to the lower-bound characterization.

    Templates never have more than max(n, 5) letters, so long permutations
    are rejected without scanning their word sets.
    """
    w = word_set.target
    if w.inversions_pairwise_share_letter() or w.is_321_avoiding():
        return True
    if w.length() > max(w.n, 5):
        return False
    return any(word_matches_lower_template(u, w.n) for u in word_set.words)


def _check_count_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_COUNT_N:
        raise ValueError(
            f"n={n} would push counts past the 64-bit/JSON-safe integer range"
        )


def catalan(n: int) -> int:
    """binom(2n, n) / (n + 1), exactly.

    >>> [catalan(k) for k in range(1, 8)]
    [1, 2, 5, 14, 42, 132, 429]
    """
    _check_count_n(n)
    num = comb(2 * n, n)
    assert num % (n + 1) == 0
    return num // (n + 1)


def count_upper(n: int) -> int:
    """How many w in S_n achieve r = b * c.

    >>> [count_upper(k) for k in range(1, 8)]
    [1, 2, 6, 16, 45, 136, 434]
    """
    _check_count_n(n)
    if n == 1:
        return 1
    return catalan(n) + n - 2


def count_lower(n: int) -> int:
    """How many w in S_n achieve r = b + c - 1.

    >>> [count_lower(k) for k in range(1, 8)]
    [1, 2, 6, 23, 65, 177, 506]
    """
    _check_count_n(n)
    if n <= 2:
        return n
    cubic = n**3 - 3 * n**2 + 8 * n - 21
    assert cubic % 3 == 0  # (n-1)n(n+1) mod 3 == 0 makes this exact for all n
    return catalan(n) + cubic // 3
