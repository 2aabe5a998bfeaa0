"""Reference values computed without the code under test.

Every function here is written from the mathematics, not from redwords:
the counts of reduced words come from a forward walk up the weak order (the
package counts backwards from w), r(w0) from Stanley's hook-length formula
for the staircase shape, c(w0) from OEIS A006245, the width of [e, w0] from
the Mahonian numbers (OEIS A000140) and the achiever counts from the paper's
closed forms.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial

# OEIS A006245: commutation classes of the longest element of S_n, n = 1..8.
A006245 = (1, 1, 2, 8, 62, 908, 24698, 1232944)


def hook_length_w0(n: int) -> int:
    """r(w0) in S_n: standard Young tableaux of the staircase (n-1, ..., 1)."""
    shape = list(range(n - 1, 0, -1))
    cells = sum(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for k in range(i + 1, len(shape)) if shape[k] > j)
            hooks *= arm + leg + 1
    return factorial(cells) // hooks


def max_mahonian(n: int) -> int:
    """Largest coefficient of prod_{k<=n} (1 + q + ... + q^(k-1)): width of [e, w0]."""
    coeffs = [1]
    for k in range(1, n + 1):
        nxt = [0] * (len(coeffs) + k - 1)
        for i, a in enumerate(coeffs):
            for j in range(k):
                nxt[i + j] += a
        coeffs = nxt
    return max(coeffs)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def upper_count(n: int) -> int:
    """Permutations of S_n with r = b * c (n > 1)."""
    return catalan(n) + n - 2


def lower_count(n: int) -> int:
    """Permutations of S_n with r = b + c - 1 (n > 2)."""
    return catalan(n) + (n**3 - 3 * n**2 + 8 * n - 21) // 3


def word_counts(n: int) -> dict[tuple[int, ...], int]:
    """r(w) for every w in S_n, by counting saturated chains up from e."""
    counts = {tuple(range(1, n + 1)): 1}
    level = [tuple(range(1, n + 1))]
    while level:
        nxt: dict[tuple[int, ...], None] = {}
        for u in level:
            lst = list(u)
            for i in range(n - 1):
                if lst[i] < lst[i + 1]:
                    lst[i], lst[i + 1] = lst[i + 1], lst[i]
                    v = tuple(lst)
                    counts[v] = counts.get(v, 0) + counts[u]
                    nxt[v] = None
                    lst[i], lst[i + 1] = lst[i + 1], lst[i]
        level = list(nxt)
    return counts


def inversions(win: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(win)) for j in range(i + 1, len(win)) if win[i] > win[j])


def avoids_321(win: tuple[int, ...]) -> bool:
    """No i < j < k with win[i] > win[j] > win[k] (fully commutative)."""
    n = len(win)
    for j in range(1, n - 1):
        if any(win[i] > win[j] for i in range(j)) and any(
            win[k] < win[j] for k in range(j + 1, n)
        ):
            return False
    return True


def support_size(win: tuple[int, ...]) -> int:
    """Letters s_i in w's reduced words: i with {w(1..i)} != {1..i}."""
    return sum(1 for i in range(1, len(win)) if max(win[:i]) > i)


def upper_achiever(win: tuple[int, ...]) -> bool:
    """r = b * c: 321-avoiding, or the transposition of i and i+2 alone."""
    if avoids_321(win):
        return True
    moved = [k for k in range(len(win)) if win[k] != k + 1]
    return len(moved) == 2 and moved[1] - moved[0] == 2


def evaluate(word: str, n: int) -> tuple[int, ...]:
    """The window of s_{a1} s_{a2} ... for a digit-string word ("e" is empty)."""
    win = list(range(1, n + 1))
    for ch in "" if word == "e" else word:
        a = int(ch)
        win[a - 1], win[a] = win[a], win[a - 1]
    return tuple(win)


def all_evaluate_to(words: list[str], n: int, target: tuple[int, ...]) -> bool:
    """Whether every word evaluates to ``target``, as ``evaluate`` would say.

    Applying the letters of a suffix moves entries between positions whatever
    they hold, so the window of u + v is the window of u read at the
    positions of the window of v.  A word u + v therefore reaches ``target``
    iff v evaluates to the one window that completes u, and words share few
    distinct halves, so each half is evaluated once.
    """
    completions: dict[str, tuple[int, ...]] = {}  # head -> the tail window it needs
    tails: dict[str, tuple[int, ...]] = {}
    for word in words:
        letters = "" if word == "e" else word
        mid = len(letters) // 2
        head, tail = letters[:mid], letters[mid:]
        need = completions.get(head)
        if need is None:
            where = {v: k for k, v in enumerate(evaluate(head or "e", n), 1)}
            need = completions[head] = tuple(where[v] for v in target)
        got = tails.get(tail)
        if got is None:
            got = tails[tail] = evaluate(tail or "e", n)
        if got != need:
            return False
    return True


def windows(n: int) -> list[tuple[int, ...]]:
    return list(permutations(range(1, n + 1)))
