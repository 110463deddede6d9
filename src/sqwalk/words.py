"""Finite words over integer alphabets and the square-freeness predicates."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Optional


# _BYTES[:n] lists the letters of an alphabet of n <= 256 letters as bytes.
_BYTES = bytes(range(256))
# Letters 0-9 to their ASCII digits and back: the digit format of Word.text.
_DIGITS = bytes.maketrans(_BYTES[:10], b"0123456789")
_UNDIGITS = bytes.maketrans(b"0123456789", _BYTES[:10])
# Letters 0-255 to their decimal names: the comma format of Word.text.
_NAMES = tuple(map(str, range(256)))


@dataclass(frozen=True, init=False, repr=False)
class Word:
    """Immutable word over the alphabet {0, ..., alphabet_size-1}.

    A Word keeps its letters only in packed form, _packed = (width, bytes):
    width bytes per letter, big-endian, width the least that holds its
    largest letter (one byte when every letter is below 256), which is the
    format find_square and the pair checks read.  A bytes object passed as
    the letters is that form for one byte a letter and is kept as it is.
    len, iteration, indexing (a slice gives a tuple), text(), == and hash
    read the packed form: two words are equal when their alphabet sizes,
    widths and bytes are, so equal letter sequences give equal words with
    equal hashes.  letters, the tuple, is built only when it is read, and
    the word does not keep it.  A letter or an alphabet size that is not an
    int raises TypeError.
    """

    alphabet_size: int
    _packed: tuple

    def __init__(self, letters: Iterable[int], alphabet_size: int):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        alphabet = _BYTES[:alphabet_size]  # TypeError unless alphabet_size is an int
        if not isinstance(letters, (bytes, tuple, list)):
            letters = tuple(letters)  # read an iterator or a range once
        try:
            packed = bytes(letters)
        except (TypeError, ValueError):  # a letter past 255, negative or not an int
            for a in letters:
                if not 0 <= a < alphabet_size:
                    raise ValueError(
                        f"letter {a} outside alphabet of size {alphabet_size}") from None
            self._set(alphabet_size, *_pack(letters))  # TypeError on a letter that is not an int
            return
        # Deleting the alphabet's bytes keeps order: the first byte left is
        # the first letter outside the alphabet.
        bad = packed.translate(None, alphabet)
        if bad:
            a = letters[packed.index(bad[0])]
            raise ValueError(f"letter {a} outside alphabet of size {alphabet_size}")
        self._set(alphabet_size, 1, packed)

    def _set(self, alphabet_size: int, width: int, packed: bytes) -> None:
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "_packed", (width, packed))

    @classmethod
    def from_text(cls, text: str, alphabet_size: Optional[int] = None) -> "Word":
        """Parse a word from text.

        Two formats: a run of ASCII digits ("012021"), or comma-separated
        runs of ASCII digits ("0,1,11,3") for alphabets past size 10.
        Given an alphabet past size 10, the text is in the comma format, so
        "12" is one letter; otherwise a comma decides.  Without an alphabet
        size, the alphabet is one more than the largest letter (1 when the
        text is empty).
        """
        text = text.strip()
        if not text or "," not in text and (alphabet_size is None or alphabet_size <= 10):
            digits = text.encode("ascii", "replace")  # a non-ASCII character becomes "?"
            if digits.translate(None, b"0123456789"):
                raise ValueError(f"malformed word {text!r}")
            ls = digits.translate(_UNDIGITS)
            if alphabet_size is None:  # one more than the largest digit present
                alphabet_size = next((a for a in range(9, -1, -1) if a in ls), 0) + 1
        else:
            ls = _comma_letters(text)
            if alphabet_size is None:
                alphabet_size = max(ls) + 1
        return cls(ls, alphabet_size)

    @property
    def letters(self) -> tuple[int, ...]:
        """The letters as a tuple, built from the packed form at each read
        and not kept: a caller that reads them twice keeps its own copy."""
        return _unpack(*self._packed)

    def text(self) -> str:
        """Render: digit string for alphabets up to 10, comma-separated beyond."""
        width, packed = self._packed
        if self.alphabet_size <= 10:
            return packed.translate(_DIGITS).decode()
        return ",".join(map(str, self) if width > 1 else map(_NAMES.__getitem__, packed))

    def __len__(self) -> int:
        width, packed = self._packed
        return len(packed) // width

    def __iter__(self):
        return iter(_word_args(self))

    def __getitem__(self, idx):
        width, packed = self._packed
        if isinstance(idx, slice):
            return _unpack(width, packed)[idx] if width > 1 else tuple(packed[idx])
        if width == 1:
            return packed[idx]
        i = range(len(packed) // width)[idx]  # IndexError past either end
        return int.from_bytes(packed[i * width:(i + 1) * width], "big")

    def __repr__(self) -> str:
        name = type(self).__qualname__
        return f"{name}(letters={self[:]!r}, alphabet_size={self.alphabet_size!r})"

    def __str__(self) -> str:
        return self.text()


def _comma_letters(text: str) -> tuple[int, ...]:
    """The letters of a word in the comma format: comma-separated runs of
    ASCII digits, so "12" is one letter and "12," and ",12" are malformed."""
    parts = text.split(",")
    if not (text.isascii() and all(map(str.isdigit, parts))):
        raise ValueError(f"malformed word {text!r}")
    return tuple(map(int, parts))


def _unpack(width: int, packed) -> tuple[int, ...]:
    """The letters of a word packed at width bytes each, as a tuple."""
    if width == 1:
        return tuple(packed)
    return tuple([int.from_bytes(packed[i:i + width], "big")
                  for i in range(0, len(packed), width)])


def _packing(w) -> tuple[int, bytes]:
    """(width, bytes) of w: a Word's own packed form, a letter sequence packed
    here.  TypeError on a letter that is not an int."""
    return w._packed if isinstance(w, Word) else _pack(w)


def _word_args(w):
    """The letters of w as a sequence of ints: a one-byte-per-letter Word's
    own bytes, so that no tuple is built, else a tuple."""
    if isinstance(w, Word):
        width, packed = w._packed
        return packed if width == 1 else _unpack(width, packed)
    return tuple(w)


def _letter_width(top: int) -> int:
    """Bytes per letter for letters up to top: one, or as many as top needs."""
    return (top.bit_length() + 7) // 8 or 1


def _letter_keys(letters, width: int) -> list[bytes]:
    """Each letter as a width-byte big-endian string: the packed format that
    find_square reads."""
    return [int.to_bytes(a, width, "big") for a in letters]


def _pack(letters) -> tuple[int, bytes]:
    """(width, the letters packed at width bytes each, concatenated)."""
    try:
        return 1, bytes(letters)
    except ValueError:  # a letter past 255
        width = _letter_width(max(letters))
        return width, b"".join(_letter_keys(letters, width))


# Block length of the first block level: half-lengths below 2 * _B0 are left
# to the shift scan alone, so words under 4 * _B0 letters never reach a level.
_B0 = 32


def find_square(w: Word) -> Optional[tuple[int, int]]:
    """Locate a square uu in w: returns (start, len(u)), or None if square-free.

    The square of the smallest half-length is reported, leftmost first.
    Shift scan: w has a square of half-length L ending at letter p exactly
    when w[q] == w[q - L] for the L letters q = p-L+1, ..., p.  The word is
    packed into one integer, width bytes per letter, so one XOR with its own
    shift by L letters compares every letter with the one L places earlier;
    a run of width*L zero bytes that starts on a letter boundary is a square.

    The scan runs for L < 2 * _B0 only.  If none of those has a square, the
    block levels (_least_block_half) name the least longer half-length in
    near-linear time, and one more scan at that L finds the leftmost start.
    """
    # a raw tuple or list is packed here: wrapping it in a Word costs more
    width, packed = _packing(w)
    x = int.from_bytes(packed, "big")
    size = len(packed)
    levels_from = 2 * _B0
    for L in range(1, size // width // 2 + 1):
        if L == levels_from:
            # No square is shorter.  The block levels confirm a square at the
            # least longer half-length, so the scan below returns it.
            L = _least_block_half(packed, width)
            if L is None:
                return None
        run = width * L
        # byte k >= run of diff is packed[k] ^ packed[k - run]
        diff = (x ^ (x >> 8 * run)).to_bytes(size, "big")
        zeros = bytes(run)
        k = diff.find(zeros, run)
        while k != -1:
            if k % width == 0:
                return (k // width - L, L)
            k = diff.find(zeros, k - k % width + width)  # next letter boundary
    return None


def _least_block_half(packed: bytes, width: int) -> Optional[int]:
    """Least half-length L >= 2 * _B0 of a square in a word with no shorter one.

    packed holds the word at width bytes per letter.  Level B = _B0, 2*_B0,
    4*_B0, ... covers L in [2B, 4B), so the levels cover disjoint, growing
    ranges and the first level with a square holds the least half-length.
    The first half of a square of such an L contains a B-aligned block of B
    letters, and the second half its copy L letters later.  So each aligned
    block is searched for (bytes.find) 2B to 4B-1 letters further on, and a
    copy d letters away is a square iff the letters around the two copies
    agree over d - B more letters: forward to the first difference (read off
    the XOR of the two slices as integers), then backward for the rest.  Two
    copies of a block less than B letters apart would overlap in a shorter
    square, so a block has at most a few copies in one level's range.
    """
    n = len(packed) // width
    B = _B0
    while 4 * B <= n:
        best = 4 * B  # least half-length confirmed so far, exclusive bound
        bw = B * width
        for s in range(0, len(packed) - 3 * bw + 1, bw):  # byte offset of a block
            block = packed[s:s + bw]
            end = s + (best - 1) * width + bw  # a copy starts < best letters on
            q = packed.find(block, s + 2 * bw, end)
            while q != -1:
                if q % width == 0:
                    need = q - s - bw  # bytes the run must add to the block
                    a, c = s + bw, q + bw
                    cap = min(need, len(packed) - c)
                    diff = (int.from_bytes(packed[a:a + cap], "big")
                            ^ int.from_bytes(packed[c:c + cap], "big"))
                    forward = cap - (diff.bit_length() + 7) // 8
                    back = need - (forward - forward % width)
                    if back <= s and packed[s - back:s] == packed[q - back:q]:
                        best = (q - s) // width
                        break  # later copies of this block are farther away
                q = packed.find(block, q + 1, end)
        if best < 4 * B:
            return best
        B *= 2
    return None


def is_square_free(w: Word) -> bool:
    """True iff w has no factor uu for nonempty u."""
    return find_square(w) is None


# First rung of the oracle's anchor ladder: half-lengths below _ANCHOR are
# found by one regex pass, longer ones through anchors of _ANCHOR, 4 * _ANCHOR,
# 16 * _ANCHOR, ... letters.  Of 8, 12 and 16, on 18 stream prefixes of
# 1150-1650 letters 12 and 16 ran alike and 8 1.1 times as long; on every
# ternary word of at most 12 letters 8 ran 1.1 times as fast as 12 and 16;
# on p5 prefixes of 5000 and 25000 letters the three ran alike.
_ANCHOR = 12


@lru_cache(maxsize=8)
def _short_square(anchor: int, kind: type):
    """search(s): a match of a square of half-length below anchor in s, a
    bytes or a str as kind says, or None."""
    pattern = "(.{1,%d}?)\\1" % (anchor - 1)
    return re.compile(pattern.encode() if kind is bytes else pattern, re.DOTALL).search


def brute_force_square_check(w: Word) -> bool:
    """Independent square-freeness oracle: test every (start, length) candidate.

    The word becomes one string: a bytes string when every letter is below
    256, else a str with one code point per distinct letter, in order of
    first occurrence.  Both relabellings are injective, so squares are
    unchanged.  Half-lengths L < _ANCHOR are found by one re.search of
    (.{1,_ANCHOR-1}?)\\1 over the whole string.  For longer L, each start i
    climbs a ladder of anchors w[i:i+B], B = _ANCHOR, 4 * _ANCHOR, 16 *
    _ANCHOR, ...: a square w[i:j] == w[j:2j-i] with L = j - i in [B, 4B)
    repeats the anchor at j, so the occurrences of the anchor at j in
    [i+B, i+4B) (str.find / bytes.find) are its only candidates, and
    startswith compares the two halves of each.  Two occurrences of the
    anchor less than B letters apart overlap in a square, so a square-free
    word gives each rung at most three candidates, and each start O(log n)
    of them.
    A word with more than 0x110000 distinct letters has no such str and
    raises ValueError.  Kept deliberately separate from find_square (no
    packing, no XOR, no block levels, no _suffix_check) so the two
    implementations cross-validate each other.
    """
    letters = _word_args(w)
    n = len(letters)
    try:
        s = bytes(letters)
    except ValueError:  # a letter past 255: one code point per distinct letter
        code = {a: chr(i) for i, a in enumerate(dict.fromkeys(letters))}
        s = "".join([code[a] for a in letters])
    A = _ANCHOR
    if A > 1 and _short_square(A, type(s))(s):
        return False
    for i in range(n - 2 * A + 1):
        top = (n - i) // 2  # largest half-length from start i
        B = A
        while B <= top:
            anchor = s[i:i + B]
            # an anchor that starts at j < i + 4B and ends by here has L < 4B, L <= top
            hi = i + (top if top < 4 * B else 4 * B - 1) + B
            j = s.find(anchor, i + B, hi)
            while j != -1:
                if s.startswith(s[i:j], j):
                    return False
                j = s.find(anchor, j + 1, hi)
            B *= 4
    return True


# Half-lengths up to _TAIL are found by a re match, longer ones by a search
# for the newest _TAIL letters.  Of 8, 12, 16 and 24, 8 ran the 5-vertex walk
# sweeps fastest; 24 ran a 3000-letter walk 1.5 times as fast as 8.
_TAIL = 8


# A span check keeps the short-square verdicts of at most _WINDOWS windows.
_WINDOWS = 4096


def _suffix_check(width: int, span: int = 1):
    """check(rev): True iff no square ends in the newest span letters of the
    word that rev holds newest letter first, at width bytes per letter (so,
    if the word without them is square-free, iff the word is).  In rev such a
    square starts at one of the first span letters.

    Span 1: one re match finds any square of half-length up to _TAIL (read
    once, here); a longer one repeats the first _TAIL letters L letters on,
    so bytes.find lists the aligned copies with L in (_TAIL, n // 2] and
    startswith confirms each one.  A wider span takes _span_check, one pass
    over rev for every square that starts in its first span letters: a
    regex match on a window of rev for half-lengths below span + _TAIL,
    its verdict kept in a table of at most _WINDOWS windows, and a ladder
    of anchors just past the span for longer ones.  It needs rev without
    its first span letters to be square-free."""
    letter = b"." if width == 1 else b"(?:.{%d})" % width
    if span > 1:
        return _span_check(width, span, letter)
    tw = _TAIL * width
    w2 = 2 * width
    short = re.compile(b"(%s{1,%d}?)\\1" % (letter, _TAIL), re.DOTALL).match

    def check(rev) -> bool:
        if short(rev):
            return False
        hi = len(rev) // w2 * width + tw  # an occurrence ending here has L = n // 2
        if hi <= 2 * tw:  # no half-length past _TAIL fits
            return True
        head = rev[:tw]
        q = rev.find(head, tw + width, hi)
        while q != -1:
            if q % width == 0 and rev.startswith(rev[:q], q):
                return False
            q = rev.find(head, q - q % width + width, hi)  # next letter boundary
        return True

    return check


def _span_check(width: int, span: int, letter: bytes):
    """_suffix_check for span > 1 newest letters, in one pass over rev, whose
    letters from span on must form a square-free word.

    A square that starts at letter s < span of rev with half-length L < K =
    span + _TAIL ends within the first span - 1 + 2 * (K - 1) letters.  One
    re match of (letter){0,span-1}?(letter{1,K-1}?)\\1 on that window finds
    it, and the verdict, which depends only on the window's bytes, is kept in
    a table of at most _WINDOWS windows (least recently used dropped first).
    The window holds the images of the last few source letters, so a sweep
    meets few distinct ones.

    A longer square holds the anchor rev[span:span+B] in its first half and
    a copy at span + L.  The ladder B = _TAIL, 4 * _TAIL, 16 * _TAIL, ...
    gives rung B the half-lengths [span + B, span + 4B), whose copies
    bytes.find lists; two copies less than B letters apart would overlap in
    a square of rev[span:], so a rung has at most three.  A copy is a square
    iff the letters before the two anchors agree back into the first span
    letters (the trailing zero bytes of the XOR of rev[:span] and the span
    letters before the copy) and the letters after them agree forward to
    the end of the first half (startswith).
    """
    K = span + _TAIL
    sw, tw = span * width, _TAIL * width
    window = (span - 1 + 2 * (K - 1)) * width
    short = re.compile(b"%s{0,%d}?(%s{1,%d}?)\\1" % (letter, span - 1, letter, K - 1),
                       re.DOTALL).match

    @lru_cache(maxsize=_WINDOWS)
    def short_free(win: bytes) -> bool:
        return short(win) is None

    def check(rev) -> bool:
        if not short_free(bytes(rev[:window])):
            return False
        top = len(rev) // (2 * width) * width  # bytes in the longest half that fits
        head = int.from_bytes(rev[:sw], "big")
        B = tw
        while sw + B <= top:
            anchor = rev[sw:sw + B]
            # its copies at sw + L (bytes) for L in [sw + B, sw + 4B), L <= top
            hi = sw + B + min(sw + 4 * B - width, top)
            q = rev.find(anchor, 2 * sw + B, hi)
            while q != -1:
                if q % width == 0:
                    diff = head ^ int.from_bytes(rev[q - sw:q], "big")
                    back = ((diff & -diff).bit_length() - 1) // 8 if diff else sw
                    back -= back % width  # whole letters agree before the anchors
                    if back and rev.startswith(rev[sw + B:q - back], q + B):
                        return False
                q = rev.find(anchor, q + 1, hi)
            B *= 4
        return True

    check.cache_info = short_free.cache_info
    return check


def _backtrack(starts, successors, colour, top: int, cap: int, stop=None):
    """Depth-first backtracking over words with square-free colour words.

    A word is a letter of starts followed by letters of successors(buf), buf
    being the live word; it is a node while its colour word (colour[v] for
    each letter v, none above top) is square-free.  A node's next successor
    is asked for only once the previous child's subtree is done, so a
    successors generator may keep state across its yield.  Returns (nodes,
    words, stopped): at the first node of cap letters, or the first with
    stop(buf) true, stopped is True and words holds that node; otherwise
    words holds the longest nodes in the order met.  Only leaves are copied:
    a node is left after its deeper descendants, so one left at least as deep
    as every node left before it is a leaf.  The colour word is packed newest
    letter first, each colour as it is pushed: no work per alphabet letter.
    """
    width = _letter_width(top)
    cols = bytearray()
    if width == 1:  # a colour is its own byte
        push, drop = partial(cols.insert, 0), partial(cols.pop, 0)
    else:
        push = lambda c: cols.__setitem__(slice(0, 0), c.to_bytes(width, "big"))  # noqa: E731
        drop = partial(cols.__delitem__, slice(0, width))
    check = _suffix_check(width)
    nodes = best = 0
    buf, found = [], []
    stack = [iter(starts)]
    while stack:
        for v in stack[-1]:
            buf.append(v)
            push(colour[v])
            if check(cols):
                nodes += 1
                if len(buf) >= cap or stop is not None and stop(buf):
                    return nodes, [tuple(buf)], True
                stack.append(iter(successors(buf)))
                break
            buf.pop()
            drop()
        else:
            stack.pop()
            if stack:
                if len(buf) >= best:
                    if len(buf) > best:
                        best, found = len(buf), []
                    found.append(tuple(buf))
                buf.pop()
                drop()
    return nodes, found, False


def extends_square_free(w: Word, a: int) -> bool:
    """Given square-free w, decide whether w + [a] is still square-free."""
    if a < 0:
        raise ValueError(f"negative letter {a}")
    width, packed = _packing(w)
    if _letter_width(a) > width:
        return True  # a is larger than every letter of w, so no square ends at it
    return _suffix_check(width)((packed + a.to_bytes(width, "big"))[::-1])


# Alphabets of at most _PAIR_ALPHABET letters code each 2-factor as one byte.
_PAIR_ALPHABET = 16


def _first_pairs(w) -> dict[tuple[int, int], int]:
    """Each 2-factor (a, b) of w, mapped to the position of its first occurrence.

    A Word over n <= 16 letters that is longer than n * n letters takes
    _pairs_by_code, n * n C-level finds over its pair codes.  Shorter words,
    where those finds cost more than the word has letters, wider alphabets
    and sequences that are not Words (so their alphabet is unknown) take
    _pairs_by_scan.
    """
    if isinstance(w, Word) and w.alphabet_size <= _PAIR_ALPHABET:
        packed = w._packed[1]
        if len(packed) > w.alphabet_size ** 2:
            return _pairs_by_code(packed, w.alphabet_size)
    return _pairs_by_scan(_word_args(w))


def _pairs_by_code(packed: bytes, n: int) -> dict[tuple[int, int], int]:
    """_first_pairs of the packed word over n <= 16 letters.

    Byte i of codes is 16 * w[i] + w[i + 1]: shifting the packed word left by
    four bits puts each letter in the high half of its byte and adding the
    word one letter on fills the low halves, with no carry since every letter
    is below 16.  codes.find then gives each pair's first position.
    """
    codes = ((int.from_bytes(packed[:-1], "big") << 4)
             + int.from_bytes(packed[1:], "big")).to_bytes(max(len(packed) - 1, 0), "big")
    return {(a, b): p for a in range(n) for b in range(n)
            if (p := codes.find(16 * a + b)) >= 0}


def _pairs_by_scan(letters) -> dict[tuple[int, int], int]:
    """_first_pairs of a letter sequence: the pairs go in last to first, so
    each keeps its earliest position."""
    return dict(zip(zip(letters[-2::-1], letters[:0:-1]), range(len(letters) - 2, -1, -1)))


def _least_pair(w, positions) -> Optional[tuple[int, tuple[int, int]]]:
    """(p, (w[p], w[p + 1])) for the least p in positions, or None if there is none."""
    p = min(positions, default=None)
    return None if p is None else (p, (w[p], w[p + 1]))


def find_tournament_conflict(w: Word) -> Optional[tuple[int, tuple[int, int]]]:
    """First position p where the pair w[p]w[p+1] reverses an earlier factor.

    Returns (p, (w[p], w[p+1])) or None if w is a tournament word.  The pairs
    ab and ba first conflict at the later of their first occurrences, and the
    least of those over all pairs {a, b} is the first conflict.
    """
    first = _first_pairs(w)
    return _least_pair(w, (max(p, first[b, a]) for (a, b), p in first.items()
                           if a < b and (b, a) in first))


def is_tournament_word(w: Word) -> bool:
    """True iff no unordered letter pair occurs in both orders as a factor."""
    return find_tournament_conflict(w) is None


# Free group on two generators: letters 0, 1 are the generators and
# letters 2, 3 their respective inverses.
_REDUCTION_PAIRS = ((0, 2), (2, 0), (1, 3), (3, 1))


def find_reduction_violation(w: Word) -> Optional[tuple[int, tuple[int, int]]]:
    """First adjacent generator/inverse pair in w, or None if reduced."""
    if w.alphabet_size != 4:
        raise ValueError("reduced-word check requires alphabet_size 4")
    first = _first_pairs(w)
    return _least_pair(w, (first[pair] for pair in _REDUCTION_PAIRS if pair in first))


def is_reduced_free_group_word(w: Word) -> bool:
    """True iff w avoids the factors 02, 20, 13 and 31."""
    return find_reduction_violation(w) is None
