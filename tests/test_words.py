"""Word predicates, cross-validated against the brute-force oracle."""

import dataclasses
import itertools
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqwalk import morphisms, words
from sqwalk.graphs import claw_graph, cycle_graph
from sqwalk.morphisms import InfiniteWordStream
from sqwalk.walks import (c4_walk_uniform_stream, claw_walk_stream, dean_reduced_stream,
                          cycle_walk_stream, is_g_word, p5_walk_stream, thue_stream,
                          tournament5_stream)
from sqwalk.words import (Word, brute_force_square_check, extends_square_free,
                          find_reduction_violation, find_square, find_tournament_conflict,
                          is_reduced_free_group_word, is_square_free, is_tournament_word)

THUE_27 = "012021012102012021020121012"


def w(text, alphabet_size=None):
    return Word.from_text(text, alphabet_size)


class TestWordType:
    def test_rejects_letters_outside_alphabet(self):
        with pytest.raises(ValueError):
            Word((0, 3), 3)
        with pytest.raises(ValueError):
            Word.from_text("012", alphabet_size=2)

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            Word((), 0)

    def test_digit_format_round_trip(self):
        word = w("012021")
        assert word.alphabet_size == 3
        assert word.text() == "012021"
        assert len(word) == 6

    def test_comma_format(self):
        word = Word.from_text("0,1,11,3")
        assert word.letters == (0, 1, 11, 3)
        assert word.alphabet_size == 12
        assert word.text() == "0,1,11,3"

    def test_empty_word(self):
        assert w("").letters == ()
        assert w("").alphabet_size == 1

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            Word.from_text("01a2")
        with pytest.raises(ValueError):
            Word.from_text("0,x")

    @pytest.mark.parametrize("text", ["0\u00b21", "\u0660\u0661\u0662", "0\t1", "01\x002", "0\ud8001"])
    def test_digit_format_takes_ascii_digits_only(self, text):
        # a superscript two, Arabic-Indic digits, and control characters
        # (tab and NUL are letters 9 and 0 as bytes) are not digits
        with pytest.raises(ValueError) as exc:
            Word.from_text(text)
        assert str(exc.value) == f"malformed word {text!r}"

    @pytest.mark.parametrize("text,size", [
        ("\u0661\u0665", 20), ("1_5", 20), ("+15", 20), ("-1", 20), ("1 5", 20),
        ("\u0661,\u0662", None), ("1,+5", None), ("1,1_5", None), ("1, 5", None),
        ("1 ,5", 20), ("-1,2", None), ("1,,2", None), (",1", None), ("1,", 20)])
    def test_comma_format_takes_ascii_digits_only(self, text, size):
        # each comma-separated letter, and a one-letter word over more than
        # 10 letters, is a non-empty run of ASCII digits, as in the digit format
        with pytest.raises(ValueError) as exc:
            Word.from_text(text, size)
        assert str(exc.value) == f"malformed word {text!r}"

    def test_million_letter_round_trip(self):
        word = thue_stream().prefix(1_000_000)
        text = word.text()
        assert text == "".join(map(str, word.letters))
        assert Word(list(word.letters), 3).text() == text
        assert Word.from_text(text) == word
        assert Word.from_text(text, 5) == Word(word.letters, 5)
        assert Word.from_text("0" * 1000) == Word((0,) * 1000, 1)

    def test_bool_letters_render_as_digits(self):
        assert Word((True, False, True), 2).text() == "101"
        assert Word([True, False, True], 2).text() == "101"
        assert str(Word((False, True), 10)) == "01"


class TestWordValidation:
    """Letters below 256, in bytes, a tuple or a list, are checked by
    deleting the alphabet's bytes; any others by the letter-by-letter loop.
    Both name the first bad letter and give the same verdicts and messages.
    A letter or an alphabet size that is not an int is a TypeError."""

    @pytest.mark.parametrize("letter,size,message", [
        (-1, 3, "letter -1 outside alphabet of size 3"),
        (3, 3, "letter 3 outside alphabet of size 3"),
        (255, 3, "letter 255 outside alphabet of size 3"),
        (255, 255, "letter 255 outside alphabet of size 255"),
        (256, 256, "letter 256 outside alphabet of size 256"),
        (256, 3, "letter 256 outside alphabet of size 3"),
        (2**40, 3, "letter 1099511627776 outside alphabet of size 3"),
        (3.5, 3, "letter 3.5 outside alphabet of size 3"),
        (True, 1, "letter True outside alphabet of size 1"),
        (255, 256, None),
        (256, 257, None),
        (2**40, 2**40 + 1, None),
        (True, 2, None),
        (1.5, 3, TypeError),
        ("a", 3, TypeError),
        (None, 3, TypeError),
        (0, 3.0, TypeError),
    ])
    @pytest.mark.parametrize("container", [tuple, list])
    def test_verdict_and_message(self, letter, size, message, container):
        for letters in ([letter], [0, letter, 0], [0] * 300 + [letter]):
            if message is None:
                # letters is a tuple whatever the container
                assert Word(container(letters), size).letters == tuple(letters)
            elif message is TypeError:  # a letter or an alphabet size that is not an int
                with pytest.raises(TypeError):
                    Word(container(letters), size)
            else:
                with pytest.raises(ValueError) as exc:
                    Word(container(letters), size)
                assert str(exc.value) == message

    @pytest.mark.parametrize("packed,size", [
        (b"\x00\x02\x01", 3), (b"", 1), (bytes(range(256)), 256), (bytes(range(256)), 300),
        (b"\x00\x07\xff\x03", 3), (b"", 0), (b"\x01", 0)])
    def test_from_bytes_is_the_constructor(self, packed, size):
        # Word(bytes, n) takes the bytes as its packed form: the same word,
        # packed form and error message as Word(tuple(packed), size)
        try:
            expected = Word(tuple(packed), size)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Word(packed, size)
            assert str(got.value) == str(exc)
            return
        word = Word(packed, size)
        assert word == expected and hash(word) == hash(expected)
        assert repr(word) == repr(expected)
        assert word._packed == expected._packed == (1, packed)
        assert word._packed[1] is packed  # kept as it is, not copied

    def test_text_reads_back(self):
        # every one-letter word, "12" over 13 letters included, and random words
        for n in range(1, 302):
            for a in range(n):
                word = Word((a,), n)
                assert Word.from_text(word.text(), n) == word
        rng = random.Random(24)
        for n in (1, 10, 11, 13, 256, 257, 300):
            for length in (0, 1, 2, 3, 50):
                for _ in range(20):
                    word = Word([rng.randrange(n) for _ in range(length)], n)
                    assert Word.from_text(word.text(), n) == word

    def test_first_bad_letter_is_named(self):
        with pytest.raises(ValueError, match="^letter 7 outside"):
            Word((0, 7, 300, -1), 3)
        with pytest.raises(ValueError, match="^letter 300 outside"):
            Word((0, 300, 7, -1), 3)
        with pytest.raises(ValueError, match="^letter -1 outside"):
            Word((0, -1, 7, 300), 3)


class TestWordIsItsPackedBytes:
    """A Word stores only its packed bytes: every way of building one gives
    the word built from the tuple of its letters, and the tuple itself is
    built only when letters is read."""

    @staticmethod
    def built_four_ways(letters, size):
        """(how, word) for every constructor that takes these letters."""
        yield "tuple", Word(letters, size)
        if all(a < 256 for a in letters):
            yield "bytes", Word(bytes(letters), size)
        sep = "" if size <= 10 else ","
        yield "from_text", Word.from_text(sep.join(map(str, letters)), size)
        coded = "".join(map(chr, letters))
        half = len(coded) // 2
        stream = InfiniteWordStream(size, lambda _: iter([coded[:half], coded[half:]]))
        yield "prefix", stream.prefix(len(letters))

    @given(st.sampled_from([1, 2, 9, 255, 300, 65535, 70000]).flatmap(
        lambda top: st.lists(st.integers(0, top), max_size=30)), st.integers(1, 3))
    def test_every_constructor_gives_the_tuple_word(self, letters, extra):
        letters = tuple(letters)
        size = max(letters, default=0) + extra
        n = len(letters)
        reference = Word(letters, size)
        text = ("" if size <= 10 else ",").join(map(str, letters))
        for how, word in self.built_four_ways(letters, size):
            assert word == reference and hash(word) == hash(reference), how
            assert len(word) == n and tuple(word) == letters, how
            assert [word[i] for i in range(-n, n)] == list(letters[-n:] + letters), how
            for bad in (n, -n - 1):
                with pytest.raises(IndexError):
                    word[bad]
            for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
                        slice(1, 7, 2), slice(n, None)):
                part = word[cut]
                assert type(part) is tuple and part == letters[cut], (how, cut)
            assert word.text() == text, how
            assert repr(word) == f"Word(letters={letters!r}, alphabet_size={size!r})", how
            assert type(word.letters) is tuple and word.letters == letters, how

    def test_width_is_part_of_the_word(self):
        # both pack to the bytes 01 00: one letter a byte, or one letter of two
        narrow, wide = Word((1, 0), 300), Word((256,), 300)
        assert narrow._packed[1] == wide._packed[1] == b"\x01\x00"
        assert narrow != wide and len({narrow, wide}) == 2
        assert narrow.letters == (1, 0) and wide.letters == (256,)

    @pytest.mark.parametrize("letters", [[0, 1, 0, 1], b"\x00\x01\x00\x01",
                                         (a % 2 for a in range(4))])
    def test_letters_are_a_tuple_whatever_the_container(self, letters):
        word = Word(letters, 2)
        assert type(word.letters) is tuple and word.letters == (0, 1, 0, 1)
        assert word == Word((0, 1, 0, 1), 2) and hash(word) == hash(Word((0, 1, 0, 1), 2))
        assert repr(word) == "Word(letters=(0, 1, 0, 1), alphabet_size=2)"

    def test_a_word_is_immutable(self):
        word = Word((0, 1), 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            word.alphabet_size = 3

    def test_checks_and_text_build_no_letter_tuple(self):
        def holds_letter_tuple(word):
            return "letters" in vars(word) or any(
                isinstance(v, tuple) and len(v) == len(word) for v in vars(word).values())

        for word in (thue_stream().prefix(20_000), tournament5_stream().prefix(20_000),
                     dean_reduced_stream().prefix(20_000), cycle_walk_stream(20).prefix(20_000)):
            assert find_square(word) is None
            is_g_word(cycle_graph(word.alphabet_size), word)
            is_tournament_word(word)
            if word.alphabet_size == 4:
                is_reduced_free_group_word(word)
            word.text()
            assert word[5] == word[:10][5]
            assert not holds_letter_tuple(word)
            assert word.letters == tuple(word)  # built when read, and not kept
            assert not holds_letter_tuple(word)

    def test_million_letter_text_peaks_below_six_megabytes(self):
        thue_stream().prefix(10).text()  # the stream's power images, built once per process
        tracemalloc.start()
        try:
            thue_stream().prefix(10**6).text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000, peak


class TestIsSquareFree:
    def test_thue_prefix(self):
        assert is_square_free(w(THUE_27))

    @pytest.mark.parametrize("text,expected", [
        ("", True),
        ("0", True),
        ("00", False),
        ("0101", False),
        ("010", True),
        ("01201201", False),
    ])
    def test_small_cases(self, text, expected):
        assert is_square_free(w(text)) is expected

    def test_find_square_reports_shortest_then_leftmost(self):
        assert find_square(w("0101")) == (0, 2)
        assert find_square(w("1212")) == (0, 2)
        assert find_square(w("0120012")) == (3, 1)
        assert find_square(w(THUE_27)) is None

    def test_long_thue_prefix_and_spoiled_copy(self):
        prefix = thue_stream().prefix(5000)
        assert is_square_free(prefix)
        spoiled = Word(prefix.letters + (prefix.letters[-1],), 3)
        assert not is_square_free(spoiled)


def naive_find_square(letters):
    """Reference: (start, half) of the square with the least (half, start)."""
    n = len(letters)
    for L in range(1, n // 2 + 1):
        for i in range(n - 2 * L + 1):
            if letters[i] == letters[i + L] and letters[i:i + L] == letters[i + L:i + 2 * L]:
                return (i, L)
    return None


class TestFindSquareAgainstReference:
    def test_random_small_alphabets(self):
        rng = random.Random(20261018)
        for k in (2, 3, 4):
            for _ in range(1500):
                letters = tuple(rng.randrange(k) for _ in range(rng.randrange(80)))
                if letters and rng.random() < 0.5:
                    p = rng.randrange(len(letters))
                    h = rng.randrange(1, len(letters) - p + 1)
                    letters = letters[:p + h] + letters[p:p + h] + letters[p + h:]
                expected = naive_find_square(letters)
                # a tuple Word is packed as it is validated, a list Word on first use
                assert find_square(Word(letters, k)) == expected, letters
                assert find_square(Word(list(letters), k)) == expected, letters

    @pytest.mark.parametrize("top", [300, 70_000])
    def test_multi_byte_letters(self, top):
        rng = random.Random(top)
        for _ in range(1500):
            alphabet = [rng.randrange(top) for _ in range(rng.randrange(2, 5))] + [top - 1]
            letters = tuple(rng.choice(alphabet) for _ in range(rng.randrange(60)))
            expected = naive_find_square(letters)
            assert find_square(Word(letters, top)) == expected, letters
            assert find_square(Word(list(letters), top)) == expected, letters

    @pytest.mark.parametrize("text,expected", [
        ("1,257,256", None),  # at half 1, a zero byte pair straddles letters 1 and 2
        ("256,1,256,1", (0, 2)),
        ("7,65536,7,65536,0", (0, 2)),
    ])
    def test_squares_start_on_letter_boundaries(self, text, expected):
        word = Word.from_text(text)
        assert find_square(word) == naive_find_square(word.letters) == expected


class TestFindSquareBlockLevels:
    """Words of 128+ letters, where half-lengths from 2 * _B0 = 64 on are
    decided by the block levels."""

    STREAMS = (thue_stream, p5_walk_stream, c4_walk_uniform_stream, tournament5_stream)
    # relabellings of the streams' letters 0-4: 1-byte, 2-byte and 3-byte
    # letters, and 2-byte letters that share high and low bytes, so that
    # copies of a block also turn up off letter boundaries
    ALPHABETS = (tuple(range(5)), tuple(300 * a for a in range(5)),
                 tuple(70_000 * a for a in range(5)),
                 (0x0101, 0x0102, 0x0201, 0x0202, 0x0103))

    @pytest.fixture(scope="class")
    def planted(self):
        """Stream factors of 128-1500 letters with a square uu planted at start 0
        or flush with the end, paired with the reference answer.  Planting
        often makes a shorter square where the two copies of u meet, so up to
        100 factors are tried for one whose least square is the planted one."""
        rng = random.Random(64)
        words = []
        for make in self.STREAMS:
            src = make().prefix(3000).letters
            for L in (63, 64, 65, 127, 128, 255, 256, rng.randrange(66, 750)):
                for at_end in (False, True):
                    n = rng.randrange(max(128, 2 * L), 1501)
                    for _ in range(100):
                        f = src[(off := rng.randrange(len(src) - n)):off + n - L]
                        letters = f + f[-L:] if at_end else f[:L] + f
                        expected = naive_find_square(letters)
                        if expected[1] == L:
                            break
                    words.append((letters, expected))
        return words

    def test_planted_squares(self, planted):
        for letters, expected in planted:
            assert find_square(Word(letters, 5)) == expected, expected
            assert find_square(Word(list(letters), 5)) == expected, expected
        # the planted square is the least one in nearly every word, so the
        # block levels (half 64 and up) decide most of them
        assert sum(half >= 64 for _, (_, half) in planted) >= 48

    @pytest.mark.parametrize("alphabet", ALPHABETS[1:])
    def test_planted_squares_multi_byte(self, planted, alphabet):
        # an injective relabelling keeps every square: same reference answer
        for letters, expected in planted:
            word = Word([alphabet[a] for a in letters], max(alphabet) + 1)
            assert find_square(word) == expected, (alphabet, expected)

    def test_square_free_factors(self):
        rng = random.Random(128)
        for make in self.STREAMS:
            src = make().prefix(3000).letters
            for n in (128, 129, 255, 256, 257, 600):
                letters = src[(off := rng.randrange(len(src) - n)):off + n]
                assert naive_find_square(letters) is None
                for alphabet in self.ALPHABETS:
                    assert find_square(Word([alphabet[a] for a in letters], max(alphabet) + 1)) is None

    @pytest.mark.parametrize("b0", [1, 2, 4])
    def test_small_first_block(self, monkeypatch, b0):
        # with B0 this small, words of a few letters already run many levels
        monkeypatch.setattr(words, "_B0", b0)
        for n in range(11):
            for letters in itertools.product(range(3), repeat=n):
                assert find_square(letters) == naive_find_square(letters), letters
        rng = random.Random(b0)
        sources = [make().prefix(1000).letters for make in self.STREAMS]
        for _ in range(1500):
            src = rng.choice(sources)
            n = rng.randrange(200)
            letters = src[(off := rng.randrange(len(src) - n)):off + n]
            if letters and rng.random() < 0.5:
                p = rng.randrange(len(letters))
                h = rng.randrange(1, len(letters) - p + 1)
                letters = letters[:p + h] + letters[p:p + h] + letters[p + h:]
            alphabet = rng.choice(self.ALPHABETS)
            word = Word([alphabet[a] for a in letters], max(alphabet) + 1)
            assert find_square(word) == naive_find_square(letters), (alphabet, letters)


def test_import_loads_no_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import sqwalk; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-I", "-c", code]).returncode == 0


class TestBruteForceOracle:
    @pytest.mark.parametrize("text,expected", [
        ("0102010", True),
        ("1212", False),
        ("012101232101210", True),
    ])
    def test_examples(self, text, expected):
        assert brute_force_square_check(w(text)) is expected

    def test_exhaustive_agreement_ternary(self):
        # acceptance pushes this to length 14; keep the unit sweep quick
        for k in range(12):
            for letters in itertools.product(range(3), repeat=k):
                word = Word(letters, 3)
                assert is_square_free(word) == brute_force_square_check(word), letters

    def test_random_agreement_quaternary(self):
        rng = random.Random(20250810)
        for _ in range(10_000):
            letters = tuple(rng.randrange(4) for _ in range(rng.randrange(61)))
            word = Word(letters, 4)
            assert is_square_free(word) == brute_force_square_check(word), letters

    def test_wide_alphabet_path(self):
        word = Word.from_text("0,300,0,300")
        assert not brute_force_square_check(word)
        assert not is_square_free(word)
        word = Word.from_text("0,300,1")
        assert brute_force_square_check(word)

    @given(st.lists(st.integers(0, 3), max_size=40))
    def test_agreement_property(self, letters):
        word = Word(tuple(letters), 4)
        assert is_square_free(word) == brute_force_square_check(word)

    STREAMS = TestFindSquareBlockLevels.STREAMS + (lambda: claw_walk_stream(claw_graph(), 0),)
    ANCHOR = words._ANCHOR  # read before any test patches it
    # the half-lengths on either side of the first three rungs of the
    # ladder, L in [B, 4B) for B = A, 4A, 16A, and the rungs themselves
    EDGES = tuple(L for B in (ANCHOR, 4 * ANCHOR, 16 * ANCHOR) for L in (B - 1, B, B + 1))

    @pytest.fixture(scope="class")
    def factors(self):
        """Stream factors of 24-3000 letters, each paired with the reference
        answer (start, half) or None: square-free factors up to 1000 letters,
        and factors with a square uu planted at start 0 or flush with the
        end, at the rung edges, 1, 2A, a random half-length and n // 2.
        Planting can make a shorter square where the two copies of u meet,
        so for a rung edge up to 100 factors are tried (by find_square) for
        one whose least square is the planted one.  (The reference's slice
        compares make it cubic on long square-free words.)"""
        rng = random.Random(12)
        a = self.ANCHOR
        out = []
        for make in self.STREAMS:
            src = make().prefix(4000).letters
            for n in (24, 25, rng.randrange(26, 601), rng.randrange(601, 1001), 3000):
                if n <= 1000:
                    f = src[(off := rng.randrange(len(src) - n)):off + n]
                    out.append((f, naive_find_square(f)))
                for L in sorted({1, 2 * a, rng.randrange(1, n // 2 + 1), n // 2, *self.EDGES}):
                    if L <= n // 2:
                        for at_end in (False, True):
                            planted = (n - 2 * L if at_end else 0, L)
                            for _ in range(100 if L in self.EDGES else 1):
                                g = src[(off := rng.randrange(len(src) - n)):off + n - L]
                                letters = g + g[-L:] if at_end else g[:L] + g
                                if find_square(letters) == planted:
                                    break
                            out.append((letters, naive_find_square(letters)))
        return out

    def test_stream_factors(self, factors):
        assert sum(least is None for _, least in factors) == 5 * 4  # the square-free factors
        for letters, least in factors:
            assert brute_force_square_check(letters) is (least is None), letters
            assert find_square(Word(letters, 5)) == least, letters

    def test_stream_factors_wide(self, factors):
        # relabelled by 300 a, the factors take the str path for letters past
        # 255; shifted by 2**40 no letter is a code point itself, so only the
        # first-occurrence relabelling can run them
        for letters, least in factors:
            for wide in (tuple(300 * a for a in letters), tuple(2**40 + a for a in letters)):
                assert brute_force_square_check(wide) is (least is None), letters
            assert find_square(Word([300 * a for a in letters], 1500)) == least, letters

    def test_ladder_edges(self, factors):
        # each rung edge is the least square of a factor planted at start 0
        # and of one planted flush with the end
        hits = {(least[1], least[0] == 0) for letters, least in factors
                if least and least[0] in (0, len(letters) - 2 * least[1])}
        assert {(L, at_start) for L in self.EDGES for at_start in (True, False)} <= hits

    @pytest.mark.parametrize("anchor", [1, 2, 3])
    def test_small_anchor(self, monkeypatch, factors, anchor):
        # the patched anchor bounds the regex pass (none at 1) and starts the
        # ladder, so rungs 1, 4, 16, ... (2, 8, 32, ...; 3, 12, 48, ...) take
        # nearly every half-length
        monkeypatch.setattr(words, "_ANCHOR", anchor)
        for n in range(11):
            for letters in itertools.product(range(3), repeat=n):
                assert brute_force_square_check(letters) is (naive_find_square(letters) is None), letters
        for letters, least in factors:
            assert brute_force_square_check(letters) is (least is None), letters
            assert brute_force_square_check(tuple(300 * a for a in letters)) is (least is None), letters

    def test_independent_of_find_square(self, monkeypatch):
        def banned(*args):
            raise AssertionError("the oracle called a find_square helper")
        # built first: a Word packs its letters when it is made
        thue = thue_stream().prefix(500)
        wide = Word.from_text("0,300,0,300")
        for name in ("find_square", "_pack", "_letter_keys", "_least_block_half",
                     "_suffix_check"):
            monkeypatch.setattr(words, name, banned)
        assert brute_force_square_check(thue)
        assert not brute_force_square_check(wide)


class TestExtendsSquareFree:
    @pytest.mark.parametrize("text,letter,expected", [
        ("01", 0, True),    # 010 is square-free
        ("010", 1, False),  # 0101 = (01)^2
        ("01", 2, True),
    ])
    def test_examples(self, text, letter, expected):
        assert extends_square_free(w(text), letter) is expected

    def test_rejects_a_negative_letter(self):
        with pytest.raises(ValueError):
            extends_square_free(w("01"), -1)

    def test_agrees_with_oracle_on_spec_case(self):
        word = w("0120210121")
        assert extends_square_free(word, 0) == brute_force_square_check(w("01202101210"))

    def test_incremental_soundness_random(self):
        rng = random.Random(7)
        for _ in range(2000):
            # grow a random square-free word, then test a random extension
            word = Word((), 4)
            for _ in range(rng.randrange(30)):
                a = rng.randrange(4)
                if extends_square_free(word, a):
                    word = Word(word[:] + (a,), 4)
            a = rng.randrange(4)
            assert extends_square_free(word, a) == brute_force_square_check(Word(word[:] + (a,), 4))

    def test_letter_wider_than_the_word(self):
        # 300 takes two bytes; these words pack at one
        word = thue_stream().prefix(1000)
        assert word._packed[0] == 1
        assert extends_square_free(word, 300)
        assert extends_square_free(w("0"), 256)
        # and narrow letters after wide words
        assert not extends_square_free(Word((0, 300, 0), 301), 300)   # (0 300)^2
        assert extends_square_free(Word((0, 300, 0), 301), 1)
        assert not extends_square_free(Word((1, 300), 301), 300)      # 300 300

    @given(st.lists(st.sampled_from((0, 1, 255, 256, 300)), max_size=12),
           st.sampled_from((0, 1, 255, 256, 300, 65536)))
    def test_matches_the_oracle_across_widths(self, letters, a):
        word = Word(tuple(letters), 65537)
        if is_square_free(word):
            assert extends_square_free(word, a) == is_square_free(Word(tuple(letters) + (a,), 65537))

    @given(st.lists(st.integers(0, 2), max_size=25), st.integers(0, 2))
    def test_monotonicity(self, letters, a):
        word = Word(tuple(letters), 3)
        if not is_square_free(word):
            assert not is_square_free(Word(tuple(letters) + (a,), 3))


def naive_suffix_square_free(letters):
    """Reference: no square ends at the last letter (a slice compare per half)."""
    n = len(letters)
    return all(letters[n - L:] != letters[n - 2 * L:n - L] for L in range(1, n // 2 + 1))


def packed_suffix_square_free(letters):
    """The engine's check on letters, packed newest letter first as the engine keeps them."""
    width, packed = words._pack(letters[::-1])
    return words._suffix_check(width)(bytearray(packed))


@pytest.fixture(params=[1, 2, words._TAIL], ids=lambda t: f"tail{t}")
def tail(request, monkeypatch):
    """words._TAIL patched to 1, 2 and its own value, so that the regular
    expression's half-lengths stop early and the longer-square paths run."""
    monkeypatch.setattr(words, "_TAIL", request.param)
    return request.param


class TestSuffixSquareCheck:
    """The backtracking engine's packed check, against the slice-per-half
    reference (exact on any word) and, where the word minus its last letter
    is square-free, the oracle.  Letters take 1, 2 or 3 bytes; the half-lengths
    that the regular expression matches stop at 1, 2 or the default _TAIL."""

    STREAMS = TestFindSquareBlockLevels.STREAMS
    # 1-, 2- and 3-byte letters; 2-byte letters whose bytes recur across
    # letter boundaries (tail copies off the boundaries); 2-byte letters that
    # all share one low byte, so every other byte matches across letters
    ALPHABETS = (TestFindSquareBlockLevels.ALPHABETS
                 + (tuple(0x0107 + 0x100 * a for a in range(5)),))

    def check(self, letters, expected=None):
        naive = naive_suffix_square_free(letters)
        if expected is not None:
            assert naive is expected, letters
        for alphabet in self.ALPHABETS:
            relabelled = tuple(alphabet[a] for a in letters)
            assert packed_suffix_square_free(relabelled) is naive, (alphabet, letters)

    def test_wide_square_of_half_length_two(self, tail):
        # 2-byte letters ending in the square (260 139)^2: a search for the
        # last two letters that stops one letter short of their copy misses it
        word = (212, 277, 267, 274, 260, 139, 260, 139)
        assert words._pack(word)[0] == 2
        assert packed_suffix_square_free(word) is False
        assert packed_suffix_square_free(word[:-1]) is True

    def test_all_short_ternary_words(self, tail):
        for n in range(1, 8):
            for letters in itertools.product(range(3), repeat=n):
                self.check(letters)

    def test_random_words_with_planted_squares(self, tail):
        rng = random.Random(1000 + tail)
        for _ in range(400):
            k = rng.randrange(2, 6)
            n = rng.randrange(1, 120)
            letters = tuple(rng.randrange(k) for _ in range(n))
            self.check(letters)
            for L in {1, tail, tail + 1, n // 2}:
                if 1 <= L <= n // 2:
                    u = letters[n - L:]
                    self.check(letters[:n - 2 * L] + u + u, expected=False)

    def test_stream_factors(self, tail):
        # factors of square-free streams: one more letter gives a word whose
        # only squares end at its last letter, so the oracle decides it too
        rng = random.Random(2000 + tail)
        for make in self.STREAMS:
            src = make().prefix(2000).letters
            for m in (1, tail, tail + 1, 2 * tail + 1, 2 * tail + 2, 40, 129, 300):
                f = src[(off := rng.randrange(len(src) - m)):off + m]
                for a in range(5):
                    letters = f + (a,)
                    expected = brute_force_square_check(Word(letters, 5))
                    self.check(letters, expected)
                for L in {1, tail, tail + 1}:
                    if L <= m:
                        self.check(f + f[m - L:], expected=False)
                self.check(f + f, expected=False)  # L = n // 2, n even
                self.check((4,) + f + f, expected=False)  # L = n // 2, n odd


def squares_ending(letters, span):
    """(r, L) for every square of half-length L that ends r < span letters
    before the end of letters."""
    n = len(letters)
    return {(r, L) for r in range(span) for L in range(1, (n - r) // 2 + 1)
            if letters[n - r - L:n - r] == letters[n - r - 2 * L:n - r - L]}


class TestSpanCheck:
    """The one-pass check of the squares that end in the newest span letters,
    which preservation_test runs on each new image, against the per-rest
    reference: naive_suffix_square_free on the word without its last r
    letters, for every r < span.  The letters before the newest span are
    square-free, as in a sweep.  Letters take 1, 2 or 3 bytes; the regex's
    half-lengths stop at span + 1, span + 2 or span + the default _TAIL."""

    STREAMS = (thue_stream, p5_walk_stream)
    # 1-, 2- and 3-byte letters; 2-byte letters that share one low byte; and
    # 2-byte letters where 0, 1 and 2 share the low byte and 0 and 3 the high
    RELABELS = (lambda a: a, lambda a: 300 + a, lambda a: 70_000 * (a + 1),
                lambda a: 0x0107 + 0x100 * a, lambda a: 0x100 * (a % 3 + 1) + a // 3 + 1)

    def check(self, letters, span, expected=None):
        assert is_square_free(Word(letters[:-span], max(letters) + 1))
        n = len(letters)
        want = all(naive_suffix_square_free(letters[:n - r]) for r in range(span))
        if expected is not None:
            assert want is expected, letters
        for relabel in self.RELABELS:
            width, packed = words._pack(tuple(map(relabel, letters))[::-1])
            assert words._suffix_check(width, span)(packed) is want, (span, width, letters)

    @staticmethod
    def half_lengths(span, tail):
        """K - 1, K and K + 1 for K = span + tail, the least half-length the
        ladder takes, and both sides of each rung edge span + B up to 300."""
        ls = {span + tail - 1, span + tail, span + tail + 1}
        B = tail
        while span + B <= 300:
            ls |= {span + B - 1, span + B}
            B *= 4
        return sorted(ls)

    @pytest.mark.parametrize("span", [2, 5, 24])
    def test_planted_squares(self, tail, span):
        # uu for a factor u of L letters, ending r letters before the end: at
        # the newest span's last letter (r = 0) or its first (r = span - 1).
        # Letters 5 and up, each used once, fill the last r places, so no
        # square ends there.  Factors of the 5-letter tournament stream are
        # tried until the planted square is the only one that ends in the
        # newest span and the letters before it are square-free.
        src = tournament5_stream().prefix(1000).letters
        for L in self.half_lengths(span, tail):
            for r in (0, span - 1):
                fresh = tuple(range(5, 5 + r))
                for off in range(300):
                    u = src[off:off + L]
                    letters = u + u + fresh
                    if (is_square_free(Word(letters[:-span], 5 + span))
                            and squares_ending(letters, span) == {(r, L)}):
                        self.check(letters, span, expected=False)
                        break
                else:
                    pytest.fail(f"no factor plants L={L} r={r}")

    @pytest.mark.parametrize("span", [2, 5, 24])
    def test_stream_continuations(self, tail, span):
        # the stream's own next span letters (square-free), and the same with
        # one letter changed; many anchor copies that are not squares
        rng = random.Random(3000 + span + tail)
        for make in self.STREAMS:
            src = make().prefix(1500).letters
            for m in (0, 1, span, tail + span, 3 * (span + tail), 200, 700):
                off = rng.randrange(len(src) - m - span)
                letters = src[off:off + m + span]
                self.check(letters, span, expected=True)
                for _ in range(3):
                    i = rng.randrange(m, m + span)
                    self.check(letters[:i] + (rng.randrange(5),) + letters[i + 1:], span)

    @pytest.mark.parametrize("span", [2, 5, 24])
    def test_halves_that_differ_in_one_byte(self, span):
        # 3 y 0 y 1 with 2-byte letters: the halves 3y and 0y differ only in
        # the low byte of 3 and 0, and 1 before 0y (newest letter first)
        # agrees with 0 in the low byte.  So the bytes from the low byte of 1
        # on form a square off the letter boundaries, which is not a square
        # of letters.  Tournament factors y are tried until no square ends in
        # the newest span and the letters before it are square-free.
        src = tournament5_stream().prefix(1000).letters
        for L in (span + words._TAIL, span + words._TAIL + 1, span + 40, span + 100):
            for off in range(300):
                y = src[off:off + L - 1]
                letters = (3,) + y + (0,) + y + (1,)
                if (is_square_free(Word(letters[:-span], 5))
                        and not squares_ending(letters, span)):
                    self.check(letters, span, expected=True)
                    break
            else:
                pytest.fail(f"no factor gives L={L}")

    def test_window_table_stays_within_its_bound(self, monkeypatch):
        # x -> x3 preserves square-freeness; to length 9 a node's image (at
        # most 18 letters) is all of its window (19 letters at span 2), so no
        # window repeats, and a table of 8 keeps evicting
        monkeypatch.setattr(words, "_WINDOWS", 8)
        built = []

        def suffix_check(width, span=1):
            built.append(words._suffix_check(width, span))
            return built[-1]

        monkeypatch.setattr(morphisms, "_suffix_check", suffix_check)
        m = morphisms.Morphism(3, 4, ((0, 3), (1, 3), (2, 3)))
        assert morphisms.preservation_test(m, 9) is None
        info = built[0].cache_info()
        assert info.maxsize == 8 and info.currsize == 8
        assert info.hits == 0 and info.misses == 357  # the square-free words of length 1-9


class TestBinaryExtremal:
    def test_every_binary_word_of_length_4_has_a_square(self):
        for letters in itertools.product(range(2), repeat=4):
            assert not is_square_free(Word(letters, 2))

    def test_square_free_binary_words_of_length_3_exist(self):
        hits = [letters for letters in itertools.product(range(2), repeat=3)
                if is_square_free(Word(letters, 2))]
        assert hits == [(0, 1, 0), (1, 0, 1)]


class TestHasFactor:
    def test_thue_avoids_010_and_212(self):
        letters = thue_stream().prefix(1000)[:]
        factors = {letters[i:i + 3] for i in range(len(letters) - 2)}
        assert (0, 1, 0) not in factors
        assert (2, 1, 2) not in factors


def naive_tournament_conflict(letters):
    """Reference: the first pair that reverses an earlier one."""
    seen = set()
    for p, (a, b) in enumerate(zip(letters, letters[1:])):
        if a != b and (b, a) in seen:
            return (p, (a, b))
        seen.add((a, b))
    return None


def naive_reduction_violation(letters):
    """Reference: the first pair of a generator and its inverse, which
    differ by 2 mod 4."""
    return next(((p, (a, b)) for p, (a, b) in enumerate(zip(letters, letters[1:]))
                 if (a - b) % 4 == 2), None)


def rotational_tournament_walk(n, length, rng):
    """A random walk on a tournament over n letters, so a tournament word.

    a -> b iff b - a is 1 to (n - 1) // 2 mod n, so every letter has a
    successor; then the letters are shuffled."""
    name = list(range(n))
    rng.shuffle(name)
    v, out = 0, []
    for _ in range(length):
        out.append(name[v])
        v = (v + rng.randint(1, (n - 1) // 2)) % n
    return tuple(out)


class TestPairPredicatesAgainstReference:
    """Alphabets of at most 16 letters code each letter pair as one byte; wider
    ones map tuple pairs to their first positions.  Both must give the
    reference's (position, pair)."""

    @pytest.mark.parametrize("k", [4, 5, 16, 17])
    def test_every_short_word(self, k):
        # every word up to 7 letters over A4 and A5; the empty and one-letter
        # words on both sides of the 16-letter pair-code alphabet
        for n in range(8 if k < 16 else 2):
            for letters in itertools.product(range(k), repeat=n):
                word, listed = Word(letters, k), Word(list(letters), k)
                hit = naive_tournament_conflict(letters)
                assert (find_tournament_conflict(word) == find_tournament_conflict(listed)
                        == find_tournament_conflict(letters) == hit)
                if k == 4:
                    assert (find_reduction_violation(word) == find_reduction_violation(listed)
                            == naive_reduction_violation(letters))

    def test_planted_conflicts_in_long_prefixes(self):
        t5 = tournament5_stream().prefix(100_000).letters
        dean = dean_reduced_stream().prefix(100_000).letters
        n = len(t5)
        assert find_tournament_conflict(Word(t5, 5)) is naive_tournament_conflict(t5) is None
        assert find_reduction_violation(Word(dean, 4)) is naive_reduction_violation(dean) is None
        assert find_tournament_conflict(Word(list(t5), 5)) is None
        assert find_reduction_violation(Word(list(dean), 4)) is None
        for p in (1, n // 2, n - 2):
            # the pair at p reverses the pair at p - 1
            letters = t5[:p + 1] + (t5[p - 1],) + t5[p + 2:]
            hit = (p, (t5[p], t5[p - 1]))
            assert (find_tournament_conflict(Word(letters, 5)) == find_tournament_conflict(Word(list(letters), 5))
                    == naive_tournament_conflict(letters) == hit)
        for p in (0, n // 2, n - 2):
            bad = (dean[p] + 2) % 4
            letters = dean[:p + 1] + (bad,) + dean[p + 2:]
            hit = (p, (dean[p], bad))
            assert (find_reduction_violation(Word(letters, 4)) == find_reduction_violation(Word(list(letters), 4))
                    == naive_reduction_violation(letters) == hit)

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 16])
    def test_both_pair_maps_agree_around_the_cut_over(self, k):
        # _first_pairs codes a word longer than k * k letters and scans a
        # shorter one; both constructions must give the same map either side
        rng = random.Random(k)
        for length in (0, 1, 2, k * k - 1, k * k, k * k + 1, k * k + 2, 3 * k * k):
            for _ in range(30):
                used = rng.sample(range(k), rng.randint(1, k))  # some pairs never occur
                letters = tuple(rng.choice(used) for _ in range(length))
                word = Word(letters, k)
                by_code = words._pairs_by_code(word._packed[1], k)
                assert by_code == words._pairs_by_scan(letters) == words._first_pairs(word)
        # a letter that is not an int is a TypeError when the word is built
        for length in (2, k * k + 2):
            with pytest.raises(TypeError):
                find_tournament_conflict(Word((1.0,) + (0,) * (length - 1), max(k, 2)))

    @pytest.mark.parametrize("n", [16, 17, 300])
    def test_wide_tournaments(self, n):
        rng = random.Random(n)
        for _ in range(40):
            walk = rotational_tournament_walk(n, rng.randrange(2, 3000), rng)
            assert find_tournament_conflict(Word(walk, n)) is None
            for _ in range(5):
                letters = list(walk)
                for _ in range(rng.randint(1, 3)):  # change one to three letters
                    letters[rng.randrange(len(letters))] = rng.randrange(n)
                letters = tuple(letters)
                assert find_tournament_conflict(Word(letters, n)) == naive_tournament_conflict(letters)
            p = rng.randrange(1, len(walk) - 1)
            letters = walk[:p + 1] + (walk[p - 1],) + walk[p + 2:]
            hit = (p, (walk[p], walk[p - 1]))
            assert find_tournament_conflict(Word(letters, n)) == naive_tournament_conflict(letters) == hit
            # both pairs of the conflict occur again later: the first one still counts
            letters += hit[1] + hit[1][::-1]
            assert find_tournament_conflict(Word(letters, n)) == naive_tournament_conflict(letters) == hit


class TestTournamentWords:
    @pytest.mark.parametrize("text,expected", [
        ("01201320120320132032", True),
        ("010", False),
        ("0123014", True),
        ("", True),
        ("00", True),   # equal letters never conflict (but 00 is a square)
    ])
    def test_examples(self, text, expected):
        assert is_tournament_word(w(text)) is expected


class TestReducedFreeGroupWords:
    @pytest.mark.parametrize("text,expected", [
        ("0103", True),
        ("013", False),
        ("", True),
    ])
    def test_examples(self, text, expected):
        assert is_reduced_free_group_word(w(text, 4)) is expected

    def test_rejects_other_alphabets(self):
        with pytest.raises(ValueError):
            is_reduced_free_group_word(w("010", 3))
