"""Morphisms, letter colourings, lazy infinite streams, and preservation tests."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .words import (Word, _backtrack, _comma_letters, _letter_keys, _letter_width, _suffix_check,
                    is_square_free)


@dataclass(frozen=True)
class Morphism:
    """Letter-to-word map, extended to words by concatenation of images."""

    source_alphabet_size: int
    target_alphabet_size: int
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.images) != self.source_alphabet_size:
            raise ValueError("need exactly one image per source letter")
        for a, img in enumerate(self.images):
            if not img:
                raise ValueError(f"image of {a} is empty")
            for x in img:
                if not 0 <= x < self.target_alphabet_size:
                    raise ValueError(
                        f"image of {a} uses letter {x} outside target alphabet")

    @classmethod
    def from_images(cls, images, target_alphabet_size: Optional[int] = None) -> "Morphism":
        imgs = tuple(tuple(img) for img in images)
        if target_alphabet_size is None:
            # an empty image is left for __post_init__ to reject by name
            target_alphabet_size = max((x for img in imgs for x in img), default=0) + 1
        # not cls(...): a Colouring's constructor takes one colour per letter
        return Morphism(len(imgs), target_alphabet_size, imgs)


def parse_morphism(text: str) -> Morphism:
    """Parse the "i -> image" line format, one line per source letter in order.

    i is a run of ASCII digits and the image a word in Word.from_text's
    grammar, except that once any image holds a comma every image is read
    in the comma format, so "0 -> 0,12" and "1 -> 12" give 1 the one letter
    12.  Blank lines and lines starting with "#" are skipped."""
    images = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        left, *right = line.split("->")
        left = left.strip()
        if len(right) != 1 or not (left.isascii() and left.isdigit()):
            raise ValueError(f"malformed morphism line {line!r}")
        if int(left) != len(images):
            raise ValueError(f"source letters must appear in order, got line {line!r}")
        images.append(right[0].strip())
    if not images:
        raise ValueError("empty morphism definition")
    if any("," in image for image in images):
        # an empty image is left for Morphism to reject by name
        return Morphism.from_images(_comma_letters(image) if image else () for image in images)
    return Morphism.from_images(Word.from_text(image).letters for image in images)


def apply(m: Morphism, w: Word) -> Word:
    """Image of w under m: the concatenation of the letter images."""
    top = max(w, default=-1)
    if top >= m.source_alphabet_size:
        raise ValueError(f"letter {top} outside source alphabet")
    return Word(_expand(m.images, w), m.target_alphabet_size)


class Colouring(Morphism):
    """Letter-to-letter morphism: each source letter's image is one colour."""

    def __init__(self, source_alphabet_size: int, target_alphabet_size: int,
                 colours: Iterable[int]):
        super().__init__(source_alphabet_size, target_alphabet_size,
                         tuple((x,) for x in colours))

    @property
    def colours(self) -> tuple[int, ...]:
        """The colour of each source letter, in order."""
        return tuple(img[0] for img in self.images)


# A stream produces blocks of about _BLOCK letters: a fixed point or an image
# stream reads _BLOCK // (its longest image) source letters per block.
_BLOCK = 4096

# A fixed point expands by the least power of its morphism whose longest
# image has at least _MIN_IMAGE letters, so that each letter it reads
# produces a long run of the join.
_MIN_IMAGE = 16


def _expand(images, letters) -> list[int]:
    """The concatenated images of letters.

    One list.extend per source letter: in CPython this beats
    chain.from_iterable, which moves the output one letter at a time."""
    out: list[int] = []
    extend = out.extend
    for a in letters:
        extend(images[a])
    return out


def _code_images(images) -> dict[str, str]:
    """Each letter a, as the code point chr(a), mapped to its image coded the same way."""
    return {chr(a): "".join(map(chr, img)) for a, img in enumerate(images)}


@functools.lru_cache(maxsize=32)
def _power_images(m: Morphism) -> dict[str, str]:
    """The coded images of m^k, for the least k >= 1 whose longest image has
    at least _MIN_IMAGE letters.

    m must map its source alphabet into itself, and some image must be
    longer than one letter and start with its own letter, so that it grows
    with k and the loop ends.  Cached per morphism, so a built-in stream
    composes its images once per process; every caller shares the dict and
    must not change it."""
    images = _code_images(m.images)
    power = images
    while max(map(len, power.values())) < _MIN_IMAGE:
        power = {a: "".join(map(images.__getitem__, img)) for a, img in power.items()}
    return power


class InfiniteWordStream:
    """Lazy, deterministic infinite word, produced a block at a time.

    A block is a str with one code point per letter: letter a is chr(a).
    So the blocks of any alphabet, however wide, are expanded, searched and
    rewritten by str methods in C, and str.find and str.replace only ever
    match on letter boundaries.

    factory(stream) is called once, with the stream itself, and returns an
    iterator of blocks, which the stream keeps in order, one each time it
    needs more letters.  A factory may read the stream's own blocks() (a
    fixed point does), as long as it has produced every letter it reads.

    prefix(n) materializes the first n letters; repeated calls share the
    blocks, so prefix(m) is always a prefix of prefix(n) for m <= n.
    blocks() reads the stream from the start, for a stream built on top of
    this one.  Single consumer: instances are not safe for concurrent use.
    """

    def __init__(self, alphabet_size: int,
                 factory: Callable[[InfiniteWordStream], Iterator[str]]):
        self.alphabet_size = alphabet_size
        self._chunks: list[str] = []  # every block produced so far, in order
        self._length = 0  # the letters in them
        self._gen = factory(self)

    def _more(self) -> None:
        """Produce one more block."""
        chunk = next(self._gen)
        self._chunks.append(chunk)
        self._length += len(chunk)

    def prefix(self, n: int) -> Word:
        """The first n letters as a Word.  When every letter is below 256
        they are encoded straight into its packed form, and no tuple of
        them is built."""
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        while self._length < n:
            self._more()
        s = "".join(self._chunks)
        if len(s) > n:
            s = s[:n]
        try:  # code points below 256: latin-1 is one byte each
            return Word(s.encode("latin-1"), self.alphabet_size)
        except UnicodeEncodeError:  # a letter past 255
            return Word(tuple(map(ord, s)), self.alphabet_size)

    def blocks(self, size: int = _BLOCK) -> Iterator[str]:
        """Successive nonempty slices of at most size letters from the start.

        Each slice lies within one block of the stream; when the reader has
        caught up with the stream, the stream produces one more block first."""
        chunks = self._chunks
        k = 0
        while True:
            if k == len(chunks):
                self._more()
            chunk = chunks[k]
            for i in range(0, len(chunk), size):
                yield chunk[i:i + size]  # the block itself when it fits
            k += 1


def fixed_point_stream(m: Morphism, seed: int) -> InfiniteWordStream:
    """The infinite fixed point of m starting from seed.

    Requires m(seed) to start with seed and have length >= 2 (so iteration is
    prolongable).  The fixed point of m is also that of m^k, so the stream
    expands by the least power whose longest image has _MIN_IMAGE letters
    (_power_images).  The first block is m^k(seed); each later one is the
    images of the next slice of the stream's own blocks, of at most
    _BLOCK // (longest image) letters, so the fixed point reads only its own
    letters and keeps no copy of them.
    """
    if not 0 <= seed < m.source_alphabet_size:
        raise ValueError(f"seed {seed} outside source alphabet")
    if m.target_alphabet_size > m.source_alphabet_size:
        raise ValueError("fixed point needs images over the source alphabet")
    img = m.images[seed]
    if img[0] != seed:
        raise ValueError(f"image of seed {seed} does not start with {seed}")
    if len(img) < 2:
        raise ValueError(f"image of seed {seed} is too short to iterate")
    images = _power_images(m)
    image = images.__getitem__
    first = images[chr(seed)]
    size = max(1, _BLOCK // max(map(len, images.values())))

    def factory(stream: InfiniteWordStream) -> Iterator[str]:
        yield first
        reader = stream.blocks(size)
        # letter 0 is the seed, whose image is the first block itself; every
        # image is nonempty, so the stream stays ahead of its reader
        yield "".join(map(image, next(reader)[1:]))
        for block in reader:
            yield "".join(map(image, block))

    return InfiniteWordStream(m.source_alphabet_size, factory)


def image_stream(m: Morphism, s: InfiniteWordStream) -> InfiniteWordStream:
    """Lazy concatenation of m-images of the letters of s.

    s is read in blocks of _BLOCK // (longest image) letters, so that each
    block of the image holds about _BLOCK letters."""
    image = _code_images(m.images).__getitem__
    size = max(1, _BLOCK // max(map(len, m.images)))

    def factory(stream: InfiniteWordStream) -> Iterator[str]:
        for block in s.blocks(size):
            try:
                out = "".join(map(image, block))
            except KeyError:  # a letter with no image
                raise ValueError(
                    f"letter {ord(max(block))} outside source alphabet") from None
            yield out

    return InfiniteWordStream(m.target_alphabet_size, factory)


def crochemore_uniform_test(m: Morphism) -> bool:
    """Square-freeness certificate for uniform morphisms A* -> B*.

    A uniform morphism is square-free iff it maps every square-free word of
    length 3 (of length 1 over a one-letter alphabet) to a square-free word
    (Crochemore 1982); this checks exactly those images.  The source and
    target alphabets may differ.  Non-uniform input is an error, not a False
    verdict.
    """
    if len(set(map(len, m.images))) != 1:
        raise ValueError("crochemore_uniform_test requires a uniform morphism")
    n = m.source_alphabet_size
    # a word of length 3 is square-free iff no two neighbours are equal; over
    # one letter there is none, and the word checked is 0
    words = [(a, b, c) for a in range(n) for b in range(n) if b != a
             for c in range(n) if c != b] if n > 1 else [(0,)]
    return all(is_square_free(_expand(m.images, v)) for v in words)


def preservation_test(m: Morphism, max_len: int,
                      forbidden: Iterable[Word] = ()) -> Optional[Word]:
    """Search for a square-free word whose image under m is not square-free.

    Enumerates, in lexicographic order, the square-free words over the source
    alphabet of length <= max_len that avoid every factor in `forbidden`.
    Returns the first word whose image contains a square, or None when the
    sweep passes.

    A node's image is checked once, for the squares that end in the newest
    letter's image, since its prefix's image is already square-free: one
    memoized regex match on a window of the last few images finds the short
    ones, and an anchor ladder over the whole image the long ones
    (words._span_check).  Each image length has one check, so its table of
    windows (at most words._WINDOWS) serves the whole sweep.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    forb = [list(f) for f in forbidden]
    if any(not f for f in forb):
        return None  # the empty factor forbids every word
    n = m.source_alphabet_size
    width = _letter_width(m.target_alphabet_size - 1)
    # each image packed newest letter first, with the check of the squares
    # that end in it: the image of a node's prefix is already square-free
    rev_images = [b"".join(_letter_keys(reversed(img), width)) for img in m.images]
    by_span = {span: _suffix_check(width, span) for span in set(map(len, m.images))}
    checks = [by_span[len(img)] for img in m.images]
    # each forbidden factor as the letter it bans after the rest of it
    bans: dict[tuple, set] = {}
    for f in forb:
        bans.setdefault(tuple(f[:-1]), set()).add(f[-1])
    lengths = sorted({len(h) for h in bans})
    letters = range(n)

    def successors(buf):
        k = len(buf)
        if k >= max_len:
            return ()
        banned = set().union(*[bans.get(tuple(buf[k - h:]), ()) for h in lengths if h <= k])
        return [a for a in letters if a not in banned] if banned else letters

    rev = bytearray()  # the image of the node last checked, newest letter first
    sizes = []  # the bytes of each letter's image in rev, oldest letter first

    def square_image(buf):
        # the engine goes depth first, so the node's parent is a prefix of
        # the node last checked: drop the images of the letters past it
        while len(sizes) >= len(buf):
            del rev[:sizes.pop()]
        image = rev_images[buf[-1]]
        rev[:0] = image
        sizes.append(len(image))
        return not checks[buf[-1]](rev)

    # successors stops at max_len, so the engine stops only on a square image
    _, found, stopped = _backtrack(successors([]), successors, range(n), n - 1, max_len + 1,
                                   square_image)
    return Word(found[0], n) if stopped else None


def alignment_test(m: Morphism, letters: Iterable[int]) -> bool:
    """Check that the images of the given letters occur only on image boundaries.

    In every concatenation of images, each occurrence of m(i) must start
    where an image equal to m(i) starts.  A misaligned occurrence starts at
    offset o of some image m(j), with o > 0 or m(j) != m(i), and the images
    after m(j) spell the rest of m(i).  The test follows those partial
    matches, keyed by how many letters of m(i) are matched at an image
    boundary, to every length they reach: it is exact however many images
    an occurrence spans.
    """
    targets = sorted(set(letters))
    for i in targets:
        if not 0 <= i < m.source_alphabet_size:
            raise ValueError(f"letter {i} outside source alphabet")
    images = m.images
    for needle in {images[i] for i in targets}:
        k = len(needle)
        matched = set()  # q: needle[:q] ends on an image boundary, 0 < q < k
        for img in images:
            # an occurrence at offset 0 of an image equal to m(i) is aligned
            for o in range(1 if img == needle else 0, len(img)):
                part = img[o:o + k]
                if part == needle[:len(part)]:
                    if len(part) == k:
                        return False
                    matched.add(len(part))
        todo = list(matched)
        while todo:
            q = todo.pop()
            for img in images:
                r = q + len(img)
                if img[:k - q] == needle[q:r]:
                    if r >= k:
                        return False
                    if r not in matched:
                        matched.add(r)
                        todo.append(r)
    return True


def _w(text: str, alphabet_size: int) -> tuple[int, ...]:
    return Word.from_text(text, alphabet_size).letters


# The classic ternary square-free generator: iterate from 0 to get the
# Thue word 012021012102... (which avoids the factors 010 and 212).
TAU = Morphism(3, 3, (_w("012", 3), _w("02", 3), _w("1", 3)))

# Ternary endomorphism whose image of the Thue word is square-free; image
# lengths 24, 16, 8.  Not square-free on all inputs: it preserves
# square-freeness only on square-free words that avoid both 010 and 212.
# alpha(010) contains a square, and with 010 alone excluded 02120 is a
# counterexample.  The Thue word avoids both factors.
ALPHA_P5 = Morphism(3, 3, (
    _w("201021202101201021012021", 3),
    _w("2010212021012021", 3),
    _w("20102101", 3),
))

# Lift of ALPHA_P5 onto walks on the path 0-1-2-3-4: PHI_P5 composed with
# BETA_P5 reproduces ALPHA_P5 exactly, image for image.
BETA_P5 = Morphism(3, 5, (
    _w("210123212343210123432123", 5),
    _w("2101232123432123", 5),
    _w("21012343", 5),
))

PHI_P5 = Colouring(5, 3, (1, 0, 2, 1, 0))

# Uniform square-free endomorphism of A4 whose images are walks on the
# 4-cycle; certified by crochemore_uniform_test.
ALPHA_C4 = Morphism(4, 4, (
    _w("010301210323", 4),
    _w("010321230323", 4),
    _w("010301232123", 4),
    _w("010321030123", 4),
))

# Uniform morphism producing square-free tournament words over A5: the
# letter 4 ends every image and is preceded by the source letter.
ALPHA_T5 = Morphism(3, 5, (
    _w("0123014", 5),
    _w("0130124", 5),
    _w("0120134", 5),
))

BUILTIN_MORPHISMS: dict[str, Morphism] = {
    "tau": TAU,
    "alpha-p5": ALPHA_P5,
    "beta-p5": BETA_P5,
    "phi-p5": PHI_P5,
    "alpha-c4": ALPHA_C4,
    "alpha-t5": ALPHA_T5,
}
