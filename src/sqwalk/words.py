"""Finite words over integer alphabets and the square-freeness predicates."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional


# _BYTES[:n] lists the letters of an alphabet of n <= 256 letters as bytes.
_BYTES = bytes(range(256))
# Letters 0-9 to their ASCII digits and back: the digit format of Word.text.
_DIGITS = bytes.maketrans(_BYTES[:10], b"0123456789")
_UNDIGITS = bytes.maketrans(b"0123456789", _BYTES[:10])


@dataclass(frozen=True)
class Word:
    """Immutable word over the alphabet {0, ..., alphabet_size-1}."""

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        if type(self.letters) is tuple:  # bytes() of an int or a buffer would not list letters
            # Every letter in the alphabet iff deleting the alphabet's bytes
            # leaves nothing; those bytes are then the word's packed form.
            # The loop below decides every other case and names the first
            # bad letter.
            try:
                packed = bytes(self.letters)
                if not packed.translate(None, _BYTES[:self.alphabet_size]):
                    self.__dict__["_packed"] = 1, packed
                    return
            except (TypeError, ValueError):  # a letter past 255, negative or not an int
                pass
        for a in self.letters:
            if not 0 <= a < self.alphabet_size:
                raise ValueError(
                    f"letter {a} outside alphabet of size {self.alphabet_size}")

    @classmethod
    def from_letters(cls, letters: Iterable[int], alphabet_size: Optional[int] = None) -> "Word":
        """Build a word, inferring the alphabet as max(letters)+1 when not given."""
        ls = tuple(letters)
        if alphabet_size is None:
            alphabet_size = max(ls) + 1 if ls else 1
        return cls(ls, alphabet_size)

    @classmethod
    def from_bytes(cls, packed: bytes, alphabet_size: int) -> "Word":
        """The word whose letters are the bytes of packed, which it keeps as
        its packed form: the letters are checked with one bytes.translate and
        never packed again."""
        if alphabet_size < 1 or packed.translate(None, _BYTES[:alphabet_size]):
            return cls(tuple(packed), alphabet_size)  # raises, naming the fault
        w = cls.__new__(cls)
        w.__dict__.update(letters=tuple(packed), alphabet_size=alphabet_size,
                          _packed=(1, packed))
        return w

    @classmethod
    def from_text(cls, text: str, alphabet_size: Optional[int] = None) -> "Word":
        """Parse a word from text.

        Two formats: a run of ASCII digits ("012021"), or comma-separated
        decimal integers ("0,1,11,3") for alphabets past size 10.  The comma
        format is detected by the presence of a comma.
        """
        text = text.strip()
        if not text:
            return cls.from_letters((), alphabet_size)
        if "," not in text:
            digits = text.encode("ascii", "replace")  # a non-ASCII character becomes "?"
            if digits.translate(None, b"0123456789"):
                raise ValueError(f"malformed word {text!r}")
            ls = digits.translate(_UNDIGITS)
            if alphabet_size is None:  # one more than the largest digit present
                alphabet_size = next(a for a in range(9, -1, -1) if a in ls) + 1
            return cls.from_bytes(ls, alphabet_size)
        try:
            ls = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"malformed word {text!r}") from None
        if any(a < 0 for a in ls):
            raise ValueError(f"negative letter in {text!r}")
        return cls.from_letters(ls, alphabet_size)

    @cached_property
    def _packed(self) -> tuple[int, bytes]:
        """(width, bytes): the letters as _pack packs them, packed once per word."""
        return _pack(self.letters)

    def text(self) -> str:
        """Render: digit string for alphabets up to 10, comma-separated beyond."""
        if self.alphabet_size <= 10:
            return self._packed[1].translate(_DIGITS).decode()
        return ",".join(str(a) for a in self.letters)

    def append(self, letter: int) -> "Word":
        return Word(self.letters + (letter,), self.alphabet_size)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, idx):
        return self.letters[idx]

    def __str__(self) -> str:
        return self.text()


def _word_args(w) -> tuple[int, ...]:
    return w.letters if isinstance(w, Word) else tuple(w)


def _letter_width(top: int) -> int:
    """Bytes per letter for letters up to top: one, or as many as top needs."""
    return (top.bit_length() + 7) // 8 or 1


def _letter_keys(letters, width: int) -> list[bytes]:
    """Each letter as a width-byte big-endian string: the packed format that
    find_square and _suffix_square_free read."""
    return [a.to_bytes(width, "big") for a in letters]


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
    width, packed = w._packed if isinstance(w, Word) else _pack(w)
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


# Half-lengths below _ANCHOR are listed by the oracle's one-letter search;
# longer ones by a search for the _ANCHOR letters that start the square.  Of
# 8, 12 and 16, 8 ran slowest and 12 and 16 about the same.
_ANCHOR = 12


def brute_force_square_check(w: Word) -> bool:
    """Independent square-freeness oracle: test every (start, length) candidate.

    For each start i it lists the second-half starts j = i + L at which a
    square w[i:j] == w[j:2j-i] could begin, and compares the two halves
    directly.  The word becomes one string: a bytes string when every letter
    is below 256, else a str with one code point per distinct letter, in
    order of first occurrence.  Both relabellings are injective, so squares
    are unchanged, and str.find / bytes.find list the candidates.  For
    L < _ANCHOR, the j with w[j] == w[i].  For longer L a square repeats the
    anchor w[i:i+_ANCHOR] at j, so the occurrences of the anchor with L in
    [_ANCHOR, (n-i)//2] are the only candidates.  A word with more than
    0x110000 distinct letters has no such str and raises ValueError.  Kept
    deliberately separate from find_square (no packing, no XOR) so the two
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
    for i in range(n - 1):
        top = (n - i) // 2  # largest half-length from start i
        ch = s[i]
        hi = i + (top if top < A else A - 1) + 1
        j = s.find(ch, i + 1, hi)
        while j != -1:
            if s[i:j] == s[j:2 * j - i]:
                return False
            j = s.find(ch, j + 1, hi)
        if top >= A:
            anchor = s[i:i + A]
            hi = i + top + A  # an anchor ending here has L = top
            j = s.find(anchor, i + A, hi)
            while j != -1:
                if s[i:j] == s[j:2 * j - i]:
                    return False
                j = s.find(anchor, j + 1, hi)
    return True


# Half-lengths up to _TAIL are compared directly by the suffix check; longer
# ones are found by searching for the last _TAIL letters.  Of 2 to 16, 8 ran
# the 5-vertex walk sweeps fastest; 12 or 16 ran walks of 2000-3000 letters
# up to 20% faster.
_TAIL = 8


def _suffix_square_free(packed, width: int) -> bool:
    """True iff no square ends at the last letter of packed.

    packed holds a word at width bytes per letter (big-endian).  When the
    word minus its last letter is square-free, this decides whether the
    whole word is: a new square must end at the new letter.  Half-lengths
    L <= _TAIL are compared directly, each after a one-byte guard (the low
    byte of the letter L places back against that of the last letter).  A
    square of a longer half-length L repeats the last _TAIL letters exactly
    L letters earlier, so the aligned occurrences of that tail whose L lies
    in (_TAIL, n // 2] are the only candidates; bytes.find lists them and a
    slice compare confirms each one.
    """
    size = len(packed)
    half = size // width // 2
    low = packed[-1]
    for run in range(width, (half if half < _TAIL else _TAIL) * width + 1, width):
        if packed[-1 - run] == low and packed[size - run:] == packed[size - 2 * run:size - run]:
            return False
    if half <= _TAIL:
        return True
    tw = _TAIL * width
    tail = packed[-tw:]
    hi = size - tw - width  # an occurrence ending here has L = _TAIL + 1
    q = packed.find(tail, size - tw - half * width, hi)
    while q != -1:
        if q % width == 0:
            run = size - tw - q  # width * L
            if packed[size - run:] == packed[size - 2 * run:size - run]:
                return False
        q = packed.find(tail, q - q % width + width, hi)  # next letter boundary
    return True


def _square_free_words(starts, successors, colour, cap: int):
    """Depth-first, lexicographic backtracking over words with square-free colour words.

    A word is a start letter followed by letters drawn from successors(buf),
    and it is kept while its colour word (colour[v] for each letter v) stays
    square-free.  Yields the live buffer at every node, before its children,
    and never extends a word past cap letters; the caller must copy a word it
    keeps.  The next letter of a node's successors is asked for only after
    the previous child's subtree is finished, so a successors generator may
    keep state across its yield.  Iterative: depth is bounded by cap only.
    The colour word is kept packed for _suffix_square_free.
    """
    width = _letter_width(max(colour, default=0))
    keys = _letter_keys(colour, width)
    last = slice(-width, None)  # the last letter's bytes: one slice object for every pop
    for s in starts:
        buf = [s]
        cols = bytearray(keys[s])
        yield buf
        stack = [iter(successors(buf))] if cap > 1 else []
        while stack:
            for v in stack[-1]:
                buf.append(v)
                cols.extend(keys[v])
                if _suffix_square_free(cols, width):
                    yield buf
                    if len(buf) < cap:
                        stack.append(iter(successors(buf)))
                        break
                buf.pop()
                del cols[last]
            else:
                stack.pop()
                if stack:
                    buf.pop()
                    del cols[last]


def extends_square_free(w: Word, a: int) -> bool:
    """Given square-free w, decide whether w + [a] is still square-free."""
    if a < 0:
        raise ValueError(f"negative letter {a}")
    width, packed = w._packed
    if _letter_width(a) > width:
        return True  # a is larger than every letter of w, so no square ends at it
    return _suffix_square_free(packed + a.to_bytes(width, "big"), width)


def has_factor(w: Word, f: Word) -> bool:
    """True iff f occurs contiguously in w (the empty word always does)."""
    fs = _word_args(f)
    if not fs:
        return True
    ws = _word_args(w)
    if len(fs) > len(ws):
        return False
    width, text = w._packed if isinstance(w, Word) else _pack(ws)
    fwidth, needle = f._packed if isinstance(f, Word) else _pack(fs)
    if fwidth > width:
        return False  # f has a letter larger than every letter of w
    if fwidth < width:
        needle = b"".join(_letter_keys(fs, width))
    k = text.find(needle)
    while k != -1:
        if k % width == 0:
            return True
        k = text.find(needle, k - k % width + width)  # next letter boundary
    return False


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
        packed = w._packed[1]  # raises TypeError on a letter that is not an int
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
