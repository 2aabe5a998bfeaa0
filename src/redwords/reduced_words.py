"""Exhaustive enumeration of the reduced words R(w).

A reduced word is a sequence of 1-based generator indices, e.g. 12432.  One
word on its own is a ``bytes`` object (``bytes((1, 2, 4, 3, 2))``); a whole
R(w) is held as an (r, l) ``uint8`` letter matrix, one word per row, in
lexicographic order.  Viewed as fixed-width byte strings (``row_keys``) the
rows compare like ``memcmp``, which is lexicographic order for any n and l.
numpy is imported on first use, so the enumeration-free parts of the package
never load it.

Enumeration uses the left-descent recursion: R(e) = {empty} and otherwise
R(w) is the union over left descents a, in increasing order, of the letter a
followed by R(s_a w).  Words starting with different letters come from
different descents, so the rows come out already sorted and duplicate-free;
the element s_a w is memoised over the interval, so each element's words are
built once.  Strict increase is asserted afterwards, and the row count is
checked against the independent count recursion.  The walk also keeps its
blocks (``Blocks``): for each element u of [e, w] and each left descent a,
the element s_a u and the index in R(u) of the first word that starts with
a.  The index of a word is then the sum of those offsets along its
prefixes, which is how the move-edge generator finds a word's neighbours
without a search.  ``WordSet.parities`` runs a third recursion of the same
shape, over inverse windows only, for the two inversion-order parities of
every word, and ``certify_parities`` walks [e, w] once more with the same
flip constants to show that every move edge of R(w) flips the parity of its
kind and keeps the other.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import WordCapExceeded
from .permutation import Permutation, lazy

Word = bytes

BRAID = "braid"
COMMUTATION = "commutation"

# The parity bits of ``WordSet.parities`` that a move of each kind flips.
FLIPS = {COMMUTATION: 1, BRAID: 2}

# The longest element of S_7 has about 1.1e9 reduced words; anything past a
# couple million is out of desk scale, so the default cap skips those.
DEFAULT_WORD_CAP = 2_000_000

# Words per chunk of ``WordSet.text_chunks``.
TEXT_BATCH = 1 << 14


def evaluate(word: Sequence[int], n: int) -> Permutation:
    """The product s_{i_1} s_{i_2} ... s_{i_k}, multiplied left to right.

    >>> evaluate(bytes((1, 2, 4, 3, 2)), 5).window
    (2, 5, 3, 1, 4)
    """
    win = list(range(1, n + 1))
    for a in word:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range 1..{n - 1}")
        win[a - 1], win[a] = win[a], win[a - 1]
    return Permutation(tuple(win))


def is_reduced(word: Sequence[int], n: int) -> bool:
    """True iff the word's product has length equal to the word's length."""
    return evaluate(word, n).length() == len(word)


class WordSet:
    """The complete R(target), sorted lexicographically and duplicate-free.

    ``rows`` is the (r, l) ``uint8`` letter matrix.  ``words`` is the same
    list as a tuple of ``bytes``, and ``texts`` as the list of their
    ``word_text``; each is decoded on first use.  ``text_chunks`` renders
    every text form of the set: the list, the lines and the JSON array.
    ``blocks`` are those of the walk over [e, target], which the move edges
    read: the walk's that built the rows when given, else walked again on
    first use.
    """

    def __init__(self, target: Permutation, rows, blocks: Blocks | None = None):
        self.target = target
        self.rows = rows
        if blocks is not None:
            self.blocks = blocks

    @lazy
    def blocks(self) -> Blocks:
        return enumerate_words(self.target).blocks

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WordSet):
            return NotImplemented
        import numpy as np

        return self.target == other.target and np.array_equal(self.rows, other.rows)

    @lazy
    def words(self) -> tuple[Word, ...]:
        return tuple(row_keys(self.rows).tolist())

    @lazy
    def texts(self) -> list[str]:
        """``word_text(u)`` for every word u, in order.

        >>> from .permutation import from_window
        >>> enumerate_words(from_window([2, 5, 3, 1, 4])).texts[:3]
        ['12432', '14232', '14323']
        """
        texts: list[str] = []
        for chunk in self.text_chunks("\n", ""):
            texts.extend(chunk.split("\n"))
        return texts

    @lazy
    def parities(self):
        """The two inversion-order parities of every word, as a ``uint8`` array:
        bit 0 is p_b and bit 1 is p_c (see ``_parities``).

        A commutation move flips p_b and keeps p_c; a braid move reverses
        three pairwise overlapping inversions, so it flips p_c and keeps p_b.
        The parities come from the interval's windows, not from the words.

        >>> from .permutation import from_window
        >>> enumerate_words(from_window([2, 4, 3, 1])).parities.tolist()
        [0, 2, 3]
        """
        import numpy as np

        r, p_b, p_c = _parities(self.target.inverse().window, {}, self.flips)
        if r != len(self):
            raise AssertionError(f"{r} parities for {len(self)} words")
        size = (r + 7) // 8

        def bits(x: int):
            packed = np.frombuffer(x.to_bytes(size, "little"), dtype=np.uint8)
            return np.unpackbits(packed, count=r, bitorder="little")

        return bits(p_b) | bits(p_c) << 1

    @lazy
    def flips(self) -> dict:
        """The ``_flips`` of the elements of [e, target] read so far, by
        inverse window: filled by ``parities`` and by the certificate of the
        analysis of this set (``certify_parities``), whichever comes first."""
        return {}

    def text_chunks(self, sep: str, quote: str) -> Iterator[str]:
        """The words as text, ``TEXT_BATCH`` rows per chunk: each word is
        ``word_text(u)`` between two ``quote`` strings, and the words of a
        chunk are joined by ``sep`` (ASCII both).

        A chunk is rendered from the letter matrix in one pass: each letter
        becomes its ASCII digit, and the quote and separator bytes fill their
        own columns, so no str or bytes object is made per word.  Chunks
        bound the memory: a buffer as large as the whole set, once freed,
        would make the C allocator keep later allocations of that size on
        its heap instead of returning them.

        >>> from .permutation import from_window
        >>> list(enumerate_words(from_window([3, 2, 1])).text_chunks(",", '"'))
        ['"121","212"']
        """
        import numpy as np

        rows = self.rows
        r, length = rows.shape
        pattern = np.frombuffer((quote + "\0" * length + quote + sep).encode("ascii"), np.uint8)
        at = len(quote)
        for start in range(0, r, TEXT_BATCH):
            part = rows[start : start + TEXT_BATCH]
            if length == 0 or part.max() > 9:  # the empty word, or the comma form
                yield sep.join(f"{quote}{word_text(u)}{quote}" for u in row_keys(part).tolist())
                continue
            text = np.empty((len(part), len(pattern)), dtype=np.uint8)
            text[:] = pattern
            np.add(part, ord("0"), out=text[:, at : at + length])
            yield str(text.ravel().data[: text.size - len(sep)], "ascii")


class Blocks:
    """The blocks of the left-descent walk over [e, w], by element.

    The walk numbers the elements of [e, w] in the order it finishes them,
    so w, ``root``, is the last, with ``size`` words; one more row, -1,
    stands for no element and has no words.  For element u and letter
    a < n, ``child[u, a]`` is s_a u when a is a left descent of u and -1
    otherwise, and ``offset[u, a]`` is the index in R(u) of the first word
    that starts with a (0 when none does).  Both are (elements + 1, n) integer arrays, made from the walk's
    lists on first use.

    The index in R(w) of a word a_1 ... a_l is the sum of offset[u_t, a_t+1]
    over t, where u_0 = w and u_t+1 = child[u_t, a_t+1].

    >>> from .permutation import from_window
    >>> blocks = enumerate_words(from_window([3, 2, 1])).blocks
    >>> blocks.child[blocks.root].tolist(), blocks.offset[blocks.root].tolist()
    ([-1, 2, 4], [0, 0, 1])
    """

    def __init__(self, child: list[int], sizes: list[int], root: int, n: int):
        # Per id: the n entries of its row of ``child``, and |R(u)|; dropped
        # when the arrays are made.
        self._lists = child, sizes
        self.root, self.n = root, n
        self.size = sizes[root]  # |R(w)|

    @lazy
    def child(self):
        return self._arrays()[0]

    @lazy
    def offset(self):
        return self._arrays()[1]

    def _arrays(self):
        import numpy as np

        child, sizes = self._lists
        del self._lists
        self.child = np.array(child + [-1] * self.n, dtype=np.intp).reshape(-1, self.n)
        size = np.array(sizes + [0], dtype=np.intp).take(self.child)
        self.offset = np.cumsum(size, axis=1) - size
        return self.child, self.offset


def row_keys(rows):
    """Each row of a letter matrix as one fixed-width byte string (a view).

    Letters are at least 1, so no row has the trailing zero bytes that numpy
    strips from byte strings, and the keys order like the rows.
    """
    import numpy as np

    if rows.shape[1] == 0:
        return np.zeros(len(rows), dtype="S1")
    return np.ascontiguousarray(rows).view(f"S{rows.shape[1]}").ravel()


def count_words(w: Permutation, cap: int | None = None) -> int:
    """|R(w)| via the memoized descent recursion; never materializes words.

    With ``cap`` set, a result above the cap raises WordCapExceeded so that
    callers can skip the permutation before paying for enumeration.
    """
    total = _count(w.window, {})
    if cap is not None and total > cap:
        raise WordCapExceeded(w.window, total, cap)
    return total


def _count(win: tuple[int, ...], memo: dict[tuple[int, ...], int]) -> int:
    """|R(u)| for the window of u; ``memo`` maps the windows already done."""
    got = memo.get(win)
    if got is not None:
        return got
    total = 0
    lst = list(win)
    for i in range(len(win) - 1):
        if win[i] > win[i + 1]:
            lst[i], lst[i + 1] = lst[i + 1], lst[i]
            total += _count(tuple(lst), memo)
            lst[i], lst[i + 1] = lst[i + 1], lst[i]
    memo[win] = total if total else 1
    return memo[win]


def _parities(inv: tuple[int, ...], memo: dict, flips: dict) -> tuple[int, int, int]:
    """(r, p_b, p_c) of R(u), for the inverse window of u.

    A reduced word lists the inversions of u, as value pairs, in the order
    its steps swap them; against the lexicographic order of the pairs, p_b
    counts the disjoint pairs listed in reverse and p_c the overlapping ones,
    mod 2.  Bit k of the ints p_b and p_c is that parity of the k-th word of
    R(u) in lexicographic order.  The words that start with a left descent a
    are a followed by the words of s_a u, with both parities flipped by the
    constants of ``_flips``.  ``memo`` maps the inverse windows already done,
    and ``flips`` those whose constants were read to them.
    """
    got = memo.get(inv)
    if got is not None:
        return got
    r = p_b = p_c = 0
    lst = list(inv)
    for i, flip in enumerate(_flips_of(inv, flips)):
        if flip < 0:
            continue
        lst[i], lst[i + 1] = lst[i + 1], lst[i]
        m, b, c = _parities(tuple(lst), memo, flips)
        lst[i], lst[i + 1] = lst[i + 1], lst[i]
        ones = (1 << m) - 1
        if flip & 1:
            b ^= ones
        if flip & 2:
            c ^= ones
        p_b |= b << r
        p_c |= c << r
        r += m
    memo[inv] = got = (r, p_b, p_c) if r else (1, 0, 0)
    return got


def _flips(inv: tuple[int, ...]) -> list[int]:
    """For each letter a = i + 1, the parity bits that block a of R(u) flips
    against R(s_a u), for the inverse window of u: bit 0 flips p_b and bit 1
    p_c, as in ``WordSet.parities``; -1 when a is no left descent of u.

    The words of u that start with a are a followed by the words of s_a u,
    whose inversions are those of u but (a, a+1), relabelled by s_a.  With
    p = pos(a) > q = pos(a+1), (a, a+1) is listed first, so it is in reverse
    with the ``below`` inversions (x, y), x < a, of which X_p + X_q overlap
    it: X_p with pos(x) > p and X_q with pos(x) > q.  The relabelling
    reverses X_p overlapping pairs (x, a), (x, a+1), and the A * B pairs
    (a, y), (a+1, y') with y, y' > a+1, pos(y) < q and pos(y') < p, of which
    the A with y = y' overlap.  So the block flips p_b by
    below - X_p - X_q + A (B - 1) and p_c by X_q + A, mod 2.  Each count
    is that of a set of positions, held as the bits of an int.
    """
    flips = []
    below = 0  # the inversions (x, y) of u with x < a
    left = 0  # the positions of the values below a, as bits
    later = (2 << len(inv)) - 2  # those of a and of the values above: 1..n
    for i in range(len(inv) - 1):
        p, q = inv[i], inv[i + 1]  # the positions of a = i + 1 and a + 1
        later ^= 1 << p
        if p > q:
            right = later ^ (1 << q)  # the positions of the values above a + 1
            x_p = (left >> p).bit_count()
            x_q = (left >> q).bit_count()
            y_a = (right & ((1 << q) - 1)).bit_count()  # A
            y_b = (right & ((1 << p) - 1)).bit_count()  # B
            flip_b = (below - x_p - x_q + y_a * (y_b - 1)) & 1
            flips.append(flip_b | ((x_q + y_a) & 1) << 1)
        else:
            flips.append(-1)
        below += (later & ((1 << p) - 1)).bit_count()
        left |= 1 << p
    return flips


def certify_parities(
    w: Permutation, certified: set | None = None, flips: dict | None = None
) -> dict[str, tuple[tuple[int, ...], Word]]:
    """The first move of each kind at position 0 of an element of [e, w] that
    does not flip its parity bit and keep the other (``FLIPS``), as
    {kind: (window of the element, letters of the move)}; empty when none.

    Two words of R(w) one move apart share the prefix up to some element u
    and the suffix after the moved letters, and each word's parity bits are
    the XOR of the ``_flips`` constants along its letters.  So the move flips
    them by the XOR of the constants along the two paths of 2 or 3 steps
    down from u, and when that is right for every move at position 0 of
    every element of [e, w], every move edge of R(w) flips its bit and keeps
    the other.  Since [e, w0] is S_n, one walk at w0 certifies all of S_n.

    ``certified`` holds the inverse windows of elements whose whole lower
    interval an earlier call certified: the walk skips them and adds each
    element it certifies, so calls that share it walk no element twice.
    ``flips`` maps inverse windows to the ``_flips`` already read, as
    ``WordSet.flips`` does.
    """
    failures: dict[str, tuple[tuple[int, ...], Word]] = {}
    done = set() if certified is None else certified
    _certify(w.inverse().window, done, set(), {} if flips is None else flips, failures)
    return failures


def _certify(inv, certified: set, failed: set, flips: dict, failures: dict) -> bool:
    """Whether every move at position 0 of every element of [e, u] keeps the
    parities, for the inverse window of u.  The first failures go to
    ``failures`` as in ``certify_parities``, children first; ``failed``
    holds the elements of this walk that are not certified, and ``flips``
    maps inverse windows to their ``_flips``.
    """
    if inv in certified:
        return True
    if inv in failed:
        return False
    ok = True
    kids = {}  # letter index i -> the inverse window of s_{i+1} u
    here = _flips_of(inv, flips)
    for i, flip in enumerate(here):
        if flip >= 0:
            kids[i] = _swap(inv, i)
            ok &= _certify(kids[i], certified, failed, flips, failures)
    for i, kid in kids.items():
        for j in kids:
            if j > i + 1:  # ab and ba, two letters apart
                kind, letters = COMMUTATION, (i + 1, j + 1)
                turn = here[i] ^ _flips_of(kid, flips)[j] ^ here[j] ^ _flips_of(kids[j], flips)[i]
            elif j == i + 1:  # a(a+1)a and (a+1)a(a+1)
                kind, letters = BRAID, (i + 1, j + 1, i + 1)
                turn = (
                    here[i] ^ _flips_of(kid, flips)[j] ^ _flips_of(_swap(kid, j), flips)[i]
                    ^ here[j] ^ _flips_of(kids[j], flips)[i]
                    ^ _flips_of(_swap(kids[j], i), flips)[j]
                )
            else:
                continue
            if turn != FLIPS[kind]:
                ok = False
                if kind not in failures:
                    failures[kind] = (Permutation(inv).inverse().window, bytes(letters))
    (certified if ok else failed).add(inv)
    return ok


def _flips_of(inv: tuple[int, ...], flips: dict) -> list[int]:
    """``_flips(inv)``, read from ``flips`` or computed and added to it."""
    got = flips.get(inv)
    if got is None:
        got = flips[inv] = _flips(inv)
    return got


def _swap(inv: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The inverse window of s_{i+1} u, for that of u."""
    lst = list(inv)
    lst[i], lst[i + 1] = lst[i + 1], lst[i]
    return tuple(lst)


def _letter_matrix(inv: tuple[int, ...], memo: dict, child: list, sizes: list):
    """The id of u and R(u) as an (r, l) ``uint8`` matrix whose rows are in
    lexicographic order.

    Takes the inverse window of u: a is a left descent of u exactly when the
    inverse has a descent at index a - 1, and s_a u swaps those two entries.
    ``memo`` maps the inverse windows already done to their (id, matrix).
    Each element takes the next id when it is done, and appends its blocks:
    to ``child`` the id of s_a u, or -1, for each letter a < len(inv), and to
    ``sizes`` its number of words.
    """
    import numpy as np

    got = memo.get(inv)
    if got is not None:
        return got
    n = len(inv)
    kids, blocks, total = [-1] * n, [], 0
    lst = list(inv)
    for i in range(n - 1):
        if lst[i] > lst[i + 1]:
            lst[i], lst[i + 1] = lst[i + 1], lst[i]
            kids[i + 1], m = _letter_matrix(tuple(lst), memo, child, sizes)
            blocks.append((i + 1, m))
            total += len(m)
            lst[i], lst[i + 1] = lst[i + 1], lst[i]
    if not blocks:
        matrix = np.empty((1, 0), dtype=np.uint8)
    else:
        matrix = np.empty((total, m.shape[1] + 1), dtype=np.uint8)
        start = 0
        for a, m in blocks:
            matrix[start : start + len(m), 0] = a
            matrix[start : start + len(m), 1:] = m
            start += len(m)
    child += kids
    sizes.append(len(matrix))
    got = memo[inv] = (len(memo), matrix)
    return got


def enumerate_words(w: Permutation, cap: int | None = DEFAULT_WORD_CAP) -> WordSet:
    """Enumerate all of R(w), sorted lexicographically.

    >>> [word_text(u) for u in enumerate_words(evaluate(b"\\x01\\x02", 3)).words]
    ['12']
    """
    expected = count_words(w, cap=cap)
    child: list[int] = []
    sizes: list[int] = []
    root, rows = _letter_matrix(w.inverse().window, {}, child, sizes)
    if len(rows) != expected:
        # The counting recursion and the letter-matrix recursion are
        # independent routes; disagreement means one of them is broken.
        raise AssertionError(
            f"enumeration produced {len(rows)} words but the count recursion "
            f"says {expected} for {list(w.window)}"
        )
    keys = row_keys(rows)
    assert (keys[1:] > keys[:-1]).all(), "duplicate words"
    return WordSet(target=w, rows=rows, blocks=Blocks(child, sizes, root, w.n))


def word_text(word: Sequence[int]) -> str:
    """Digit-string form for letters up to 9, comma-separated otherwise.

    The empty word prints as "e".  Letters are bytes, 0..255, as in a
    ``Word``.  ``WordSet.text_chunks`` renders a whole word set at once.
    """
    if len(word) == 0:
        return "e"
    text = bytes(word).translate(_DIGIT_OF)
    if text.isdigit():
        return text.decode("ascii")
    return ",".join(str(a) for a in word)


# Byte 0..9 -> its ASCII digit; every larger byte -> "," which is no digit.
_DIGIT_OF = bytes(b"0123456789" + b"," * 246)


def parse_word(text: str) -> Word:
    """Inverse of word_text: accepts "", "e", "12432", or "10,9,10"."""
    s = text.strip()
    if s in ("", "e"):
        return b""
    if "," in s or " " in s:
        parts = s.replace(",", " ").split()
        letters = [int(p) for p in parts]
    else:
        if not s.isdigit():
            raise ValueError(f"cannot parse word {text!r}")
        letters = [int(ch) for ch in s]
    if any(a < 1 for a in letters):
        raise ValueError(f"letters must be positive in {text!r}")
    return bytes(letters)
