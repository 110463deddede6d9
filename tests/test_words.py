"""Word predicates, cross-validated against the brute-force oracle."""

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqwalk import words
from sqwalk.graphs import claw_graph
from sqwalk.walks import (c4_walk_uniform_stream, claw_walk_stream, dean_reduced_stream,
                          p5_walk_stream, thue_stream, tournament5_stream)
from sqwalk.words import (Word, brute_force_square_check, extends_square_free,
                          find_reduction_violation, find_square, find_tournament_conflict,
                          has_factor, is_reduced_free_group_word, is_square_free,
                          is_tournament_word)

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
    """A tuple of letters below 256 is checked by deleting the alphabet's
    bytes; any other tuple, and a list, by the letter-by-letter loop, which
    names the first bad letter.  Both give the same verdicts and messages."""

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
        (1.5, 3, None),
        (True, 2, None),
        (0, 3.0, None),
    ])
    @pytest.mark.parametrize("container", [tuple, list])
    def test_verdict_and_message(self, letter, size, message, container):
        for letters in ([letter], [0, letter, 0], [0] * 300 + [letter]):
            if message is None:
                assert Word(container(letters), size).letters == container(letters)
            else:
                with pytest.raises(ValueError) as exc:
                    Word(container(letters), size)
                assert str(exc.value) == message

    @pytest.mark.parametrize("packed,size", [
        (b"\x00\x02\x01", 3), (b"", 1), (bytes(range(256)), 256), (bytes(range(256)), 300),
        (b"\x00\x07\xff\x03", 3), (b"", 0), (b"\x01", 0)])
    def test_from_bytes_is_the_constructor(self, packed, size):
        # the same word, packed form and error message as Word(tuple(packed), size)
        try:
            expected = Word(tuple(packed), size)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Word.from_bytes(packed, size)
            assert str(got.value) == str(exc)
            return
        word = Word.from_bytes(packed, size)
        assert word == expected and hash(word) == hash(expected)
        assert repr(word) == repr(expected)
        assert word._packed == expected._packed == (1, packed)

    def test_first_bad_letter_is_named(self):
        with pytest.raises(ValueError, match="^letter 7 outside"):
            Word((0, 7, 300, -1), 3)
        with pytest.raises(ValueError, match="^letter 300 outside"):
            Word((0, 300, 7, -1), 3)
        with pytest.raises(ValueError, match="^letter -1 outside"):
            Word((0, -1, 7, 300), 3)


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
            assert find_square(Word.from_letters(letters, top)) == expected, letters
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
            assert find_square(Word.from_letters(letters)) == expected, expected
            assert find_square(Word(list(letters), 5)) == expected, expected
        # the planted square is the least one in nearly every word, so the
        # block levels (half 64 and up) decide most of them
        assert sum(half >= 64 for _, (_, half) in planted) >= 48

    @pytest.mark.parametrize("alphabet", ALPHABETS[1:])
    def test_planted_squares_multi_byte(self, planted, alphabet):
        # an injective relabelling keeps every square: same reference answer
        for letters, expected in planted:
            word = Word.from_letters(tuple(alphabet[a] for a in letters))
            assert find_square(word) == expected, (alphabet, expected)

    def test_square_free_factors(self):
        rng = random.Random(128)
        for make in self.STREAMS:
            src = make().prefix(3000).letters
            for n in (128, 129, 255, 256, 257, 600):
                letters = src[(off := rng.randrange(len(src) - n)):off + n]
                assert naive_find_square(letters) is None
                for alphabet in self.ALPHABETS:
                    assert find_square(Word.from_letters(tuple(alphabet[a] for a in letters))) is None

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
            word = Word.from_letters(tuple(alphabet[a] for a in letters))
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

    @pytest.fixture(scope="class")
    def factors(self):
        """Stream factors of 24-3000 letters, each paired with the reference
        answer: square-free factors up to 1000 letters, and factors with a
        square uu planted at start 0 or flush with the end, at the
        half-lengths on either side of the anchor's length, a random one and
        n // 2.  (The reference's slice compares make it cubic on long
        square-free words.)"""
        rng = random.Random(12)
        a = self.ANCHOR
        out = []
        for make in self.STREAMS:
            src = make().prefix(4000).letters
            for n in (24, 25, rng.randrange(26, 601), rng.randrange(601, 1001), 3000):
                f = src[(off := rng.randrange(len(src) - n)):off + n]
                if n <= 1000:
                    out.append(f)
                for L in {1, a - 1, a, a + 1, 2 * a, rng.randrange(1, n // 2 + 1), n // 2}:
                    if L <= n // 2:
                        g = f[:n - L]
                        out += [g[:L] + g, g + g[-L:]]
        return [(letters, naive_find_square(letters) is None) for letters in out]

    def test_stream_factors(self, factors):
        assert sum(expected for _, expected in factors) == 5 * 4  # the square-free factors
        for letters, expected in factors:
            assert brute_force_square_check(letters) is expected, letters

    def test_stream_factors_wide(self, factors):
        # relabelled by 300 a, the factors take the str path for letters past
        # 255; shifted by 2**40 no letter is a code point itself, so only the
        # first-occurrence relabelling can run them
        for letters, expected in factors:
            for wide in (tuple(300 * a for a in letters), tuple(2**40 + a for a in letters)):
                assert brute_force_square_check(wide) is expected, letters

    @pytest.mark.parametrize("anchor", [1, 2, 3])
    def test_small_anchor(self, monkeypatch, factors, anchor):
        # the anchor search then lists the candidates of nearly every half-length
        monkeypatch.setattr(words, "_ANCHOR", anchor)
        for n in range(11):
            for letters in itertools.product(range(3), repeat=n):
                assert brute_force_square_check(letters) is (naive_find_square(letters) is None), letters
        for letters, expected in factors:
            if not expected and len(letters) <= 1000:
                assert brute_force_square_check(letters) is False, letters

    def test_independent_of_find_square(self, monkeypatch):
        def banned(*args):
            raise AssertionError("the oracle called a find_square helper")
        thue = thue_stream().prefix(500)
        for name in ("find_square", "_pack", "_letter_keys", "_least_block_half",
                     "_suffix_square_free"):
            monkeypatch.setattr(words, name, banned)
        assert brute_force_square_check(thue)
        assert not brute_force_square_check(Word.from_text("0,300,0,300"))


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
                    word = word.append(a)
            a = rng.randrange(4)
            assert extends_square_free(word, a) == brute_force_square_check(word.append(a))

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
            assert extends_square_free(word, a) == is_square_free(word.append(a))

    @given(st.lists(st.integers(0, 2), max_size=25), st.integers(0, 2))
    def test_monotonicity(self, letters, a):
        word = Word(tuple(letters), 3)
        if not is_square_free(word):
            assert not is_square_free(word.append(a))


def naive_suffix_square_free(letters):
    """Reference: no square ends at the last letter (a slice compare per half)."""
    n = len(letters)
    return all(letters[n - L:] != letters[n - 2 * L:n - L] for L in range(1, n // 2 + 1))


def packed_suffix_square_free(letters):
    width, packed = words._pack(letters)
    return words._suffix_square_free(bytearray(packed), width)


class TestSuffixSquareCheck:
    """The backtracking engine's packed check, against the slice-per-half
    reference (exact on any word) and, where the word minus its last letter
    is square-free, the oracle.  Letters take 1, 2 or 3 bytes; the direct
    half-lengths stop at 1, 2 or the default _TAIL."""

    STREAMS = TestFindSquareBlockLevels.STREAMS
    # 1-, 2- and 3-byte letters; 2-byte letters whose bytes recur across
    # letter boundaries (tail copies off the boundaries); 2-byte letters that
    # all share one low byte, so the one-byte guard always passes
    ALPHABETS = (TestFindSquareBlockLevels.ALPHABETS
                 + (tuple(0x0107 + 0x100 * a for a in range(5)),))

    @pytest.fixture(params=[1, 2, words._TAIL], ids=lambda t: f"tail{t}")
    def tail(self, request, monkeypatch):
        monkeypatch.setattr(words, "_TAIL", request.param)
        return request.param

    def check(self, letters, expected=None):
        naive = naive_suffix_square_free(letters)
        if expected is not None:
            assert naive is expected, letters
        for alphabet in self.ALPHABETS:
            relabelled = tuple(alphabet[a] for a in letters)
            assert packed_suffix_square_free(relabelled) is naive, (alphabet, letters)

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
                    expected = brute_force_square_check(Word.from_letters(letters))
                    self.check(letters, expected)
                for L in {1, tail, tail + 1}:
                    if L <= m:
                        self.check(f + f[m - L:], expected=False)
                self.check(f + f, expected=False)  # L = n // 2, n even
                self.check((4,) + f + f, expected=False)  # L = n // 2, n odd


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
        prefix = thue_stream().prefix(1000)
        assert not has_factor(prefix, w("010"))
        assert not has_factor(prefix, w("212"))

    def test_empty_factor(self):
        assert has_factor(w("0120"), w(""))
        assert has_factor(w(""), w(""))

    def test_positive_and_negative(self):
        assert has_factor(w("012021"), w("202"))
        assert not has_factor(w("012021"), w("00"))
        assert not has_factor(w("01"), w("012"))

    def test_unaligned_byte_hit_is_no_factor(self):
        # 1 0 packs to 00 01 00 00, which holds 256 = 01 00 one byte in
        assert not has_factor(Word((1, 0), 257), Word((256,), 257))
        assert has_factor(Word((1, 256, 0), 257), Word((256,), 257))

    def test_wide_factor_in_a_narrow_word(self):
        # the word packs at one byte per letter, the factors at two or three
        word = thue_stream().prefix(1000)
        assert word._packed[0] == 1
        assert not has_factor(word, Word((0, 300), 301))
        assert not has_factor(word, (256,))
        assert not has_factor(w("0120"), (65536, 0))
        # and narrow factors in wide words
        assert has_factor(Word((300, 0, 1), 301), w("01"))
        assert not has_factor(Word((300, 1, 0), 301), w("01"))
        assert has_factor(Word((300, 0, 1), 301), (300, 0))

    @pytest.mark.parametrize("pool", [(0, 1, 2), (0, 1, 256, 257), (1, 256, 65536, 65537, 257)])
    def test_matches_naive_search(self, pool):
        # pools of 1-, 2- and 3-byte letters; 1, 257, 65537 share a low byte
        rng = random.Random(len(pool))
        size = max(pool) + 1
        for _ in range(1500):
            ws = tuple(rng.choice(pool) for _ in range(rng.randint(0, 24)))
            if ws and rng.random() < 0.5:
                i = rng.randrange(len(ws))
                fs = ws[i:i + rng.randint(1, 5)]
            else:
                fs = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
            naive = any(ws[i:i + len(fs)] == fs for i in range(len(ws) - len(fs) + 1))
            assert has_factor(Word(ws, size), Word(fs, size)) == naive, (ws, fs)


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
        # a letter that is not an int is a TypeError on both sides
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
