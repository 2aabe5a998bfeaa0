"""Permutations of S_n in one-line (window) notation.

Everything here is 1-based, matching the usual combinatorial conventions:
the window of w lists the values w(1)..w(n), and the simple transposition
s_i swaps the entries in window positions i and i+1 for 1 <= i <= n-1.

>>> w = from_window([2, 5, 3, 1, 4])
>>> w.length()
5
>>> sorted(w.right_descents())
[2, 3]
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence

# The workloads built on top of this module are factorial in n, so a large
# group is almost certainly a configuration mistake rather than a real
# request.  Raise this deliberately if you know what you are doing.
MAX_N = 10


class lazy:  # noqa: N801 - used as a decorator, like property
    """An attribute computed on its first read and then stored, without a lock.

    It does what ``functools.cached_property`` does, except that on Python
    3.10 and 3.11 that descriptor takes a lock on every first read, which
    about doubles the cost of reading a cheap attribute once.  Every value
    cached with it is a pure function of its instance, so two threads that
    both compute it store equal values.

    The value goes into the instance ``__dict__``, where later reads find it
    before the descriptor, so equality, hashing and pickling that read only
    the declared fields are unchanged.  It lives in this module, which every
    other one imports, so that it costs no import of its own.

    >>> class Square:
    ...     def __init__(self, x):
    ...         self.x = x
    ...     @lazy
    ...     def value(self):
    ...         print("computing")
    ...         return self.x * self.x
    >>> s = Square(3)
    >>> (s.value, s.value)
    computing
    (9, 9)
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Permutation:
    """An element of S_n stored as the window (w(1), ..., w(n))."""

    window: tuple[int, ...]

    def __post_init__(self):
        win = tuple(self.window)
        object.__setattr__(self, "window", win)
        n = len(win)
        if n == 0:
            raise ValueError("empty window")
        if n > MAX_N:
            raise ValueError(f"n={n} exceeds the configured maximum {MAX_N}")
        if sorted(win) != list(range(1, n + 1)):
            raise ValueError(f"window {list(win)} is not a bijection on 1..{n}")

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        """The value w(i), 1-based."""
        return self.window[i - 1]

    def length(self) -> int:
        """Number of inversions, which equals the length of every reduced word.

        >>> from_window([3, 2, 1]).length()
        3
        """
        return len(self.inversions)

    @lazy
    def inversions(self) -> tuple[tuple[int, int], ...]:
        """The inversions of w as value pairs (w(i), w(j)) with i < j, w(i) > w(j).

        Computed once per instance, as are the two predicates below; equality,
        hashing and pickling read only the window.
        """
        w = self.window
        return tuple((a, b) for i, a in enumerate(w) for b in w[i + 1:] if a > b)

    def right_descents(self) -> set[int]:
        """{i : w(i) > w(i+1)}; empty exactly for the identity."""
        w = self.window
        return {i for i in range(1, len(w)) if w[i - 1] > w[i]}

    def multiply_right(self, i: int) -> "Permutation":
        """w * s_i: swap window positions i and i+1. Length changes by exactly 1."""
        w = self.window
        if not 1 <= i <= len(w) - 1:
            raise ValueError(f"generator index {i} out of range 1..{len(w) - 1}")
        win = list(w)
        win[i - 1], win[i] = win[i], win[i - 1]
        return Permutation(tuple(win))

    def inverse(self) -> "Permutation":
        """The group inverse; reverses every reduced word of w."""
        inv = [0] * len(self.window)
        for i, v in enumerate(self.window, 1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def complement(self) -> "Permutation":
        """Conjugate by the longest element: i -> n+1 - w(n+1-i).

        This is the reverse complement of the window.  It preserves length and
        applies the letter substitution i -> n-i to every reduced word of w,
        which is how it enters the symmetry arguments downstream.
        """
        w = self.window
        n = len(w)
        return Permutation(tuple(n + 1 - w[n - 1 - k] for k in range(n)))

    def is_321_avoiding(self) -> bool:
        """True iff no i < j < k has w(i) > w(j) > w(k).

        A 321 pattern c, b, a is exactly a value b that is the smaller entry
        of one inversion (c, b) and the larger entry of another (b, a).

        >>> from_window([2, 4, 1, 5, 6, 3]).is_321_avoiding()
        True
        >>> from_window([2, 5, 3, 1, 4]).is_321_avoiding()
        False
        """
        return self._avoids_321

    @lazy
    def _avoids_321(self) -> bool:
        larger = {c for c, _ in self.inversions}
        return larger.isdisjoint([b for _, b in self.inversions])

    def inversions_pairwise_share_letter(self) -> bool:
        """True iff every two inversions of w, read as value pairs, intersect.

        Vacuously true with at most one inversion.  This is the window-level
        test for a permutation having a single braid class.  Two-element sets
        that pairwise intersect either all share one value or are the three
        sides of a triangle.
        """
        return self._inversions_pairwise_meet

    @lazy
    def _inversions_pairwise_meet(self) -> bool:
        inv = self.inversions
        if len(inv) <= 1 or set(inv[0]).intersection(*inv[1:]):
            return True
        return len(inv) == 3 and len(set().union(*inv)) == 3

    def __reduce__(self):
        return Permutation, (self.window,)

    def __str__(self) -> str:
        return window_text(self)


def inversion_count(window: Sequence[int]) -> int:
    """The length of the permutation with this window, without validating it.

    >>> inversion_count((3, 1, 2))
    2
    """
    return sum(a > b for i, a in enumerate(window) for b in window[i + 1:])


def identity(n: int) -> Permutation:
    """The identity of S_n.

    >>> identity(3).window
    (1, 2, 3)
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return Permutation(tuple(range(1, n + 1)))


def from_window(values: Sequence[int]) -> Permutation:
    """Build a permutation from its window, validating the bijection."""
    return Permutation(tuple(values))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation [n, n-1, ..., 1]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Permutation(tuple(range(n, 0, -1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic window order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    for win in permutations(range(1, n + 1)):
        yield Permutation(win)


def parse_window(text: str) -> Permutation:
    """Parse "[25314]" (single digits, n <= 9) or "2 5 3 1 4" / "2,5,3,1,4".

    >>> parse_window("[25314]").window
    (2, 5, 3, 1, 4)
    """
    s = text.strip()
    if not s:
        raise ValueError("empty window text")
    if s.startswith("[") and s.endswith("]"):
        body = s[1:-1].strip()
        if "," in body or " " in body:
            return from_window(_split_ints(body))
        if not body.isdigit():
            raise ValueError(f"cannot parse window {text!r}")
        return from_window([int(ch) for ch in body])
    return from_window(_split_ints(s))


def _split_ints(body: str) -> list[int]:
    parts = body.replace(",", " ").split()
    if not parts:
        raise ValueError("empty window text")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cannot parse window entry in {body!r}") from None


def window_text(w: Permutation) -> str:
    """Compact bracketed form for n <= 9, space-separated otherwise."""
    if w.n <= 9:
        return "[" + "".join(str(v) for v in w.window) + "]"
    return " ".join(str(v) for v in w.window)
