"""Morphism application, fixed-point streams, and the preservation tests."""

import itertools
import random
from itertools import islice

import pytest

from sqwalk.morphisms import (_BLOCK, ALPHA_C4, ALPHA_P5, ALPHA_T5, BETA_P5, PHI_P5,
                              TAU, Colouring, Morphism, alignment_test, apply,
                              crochemore_uniform_test, fixed_point_stream,
                              image_stream, parse_morphism, preservation_test)
from sqwalk.words import Word, brute_force_square_check, is_square_free

THUE_27 = "012021012102012021020121012"
ALPHA_010_SQUARE = "2120102120210120"
THUE_300 = fixed_point_stream(TAU, 0).prefix(300)
# Leech's uniform square-free morphism of A3
LEECH = Morphism(3, 3, ((0, 1, 2, 1, 0, 2, 1, 2, 0, 1, 2, 1, 0),
                        (1, 2, 0, 2, 1, 0, 2, 0, 1, 2, 0, 2, 1),
                        (2, 0, 1, 0, 2, 1, 0, 1, 2, 0, 1, 0, 2)))
# the claw walk's morphism: letter a to (leaf a + 1, hub 0), from A3 into A4
CLAW = Morphism(3, 4, ((1, 0), (2, 0), (3, 0)))
IDENTITY = Colouring(3, 3, range(3))


# prefix lengths around the block size, for the block streams against their references
LENGTHS = (0, 1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 100_000)


def w(text, alphabet_size=None):
    return Word.from_text(text, alphabet_size)


def take(letters, n):
    return tuple(islice(letters, n))


def reference_fixed_point(m, seed):
    """The letter-at-a-time fixed-point generator, kept as the block streams' reference."""
    buf = list(m.images[seed])
    emit = 0
    expand = 1
    while True:
        while emit < len(buf):
            yield buf[emit]
            emit += 1
        buf.extend(m.images[buf[expand]])
        expand += 1


def reference_image(m, letters):
    """The letter-at-a-time image generator, kept as the block streams' reference."""
    for a in letters:
        yield from m.images[a]


class TestMorphismType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Morphism(2, 2, ((0,),))          # missing image
        with pytest.raises(ValueError):
            Morphism(2, 2, ((0,), ()))       # empty image
        with pytest.raises(ValueError):
            Morphism(2, 2, ((0,), (2,)))     # letter outside target

    def test_identity(self):
        assert apply(IDENTITY, w("0120")).text() == "0120"

    def test_text_round_trip(self):
        assert parse_morphism("0 -> 012\n1 -> 02\n2 -> 1") == TAU

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_morphism("0 012")
        with pytest.raises(ValueError):
            parse_morphism("1 -> 012")  # out of order
        with pytest.raises(ValueError):
            parse_morphism("")

    @pytest.mark.parametrize("text,line", [
        ("a -> 01", "a -> 01"),
        ("\u0660 -> 012", "\u0660 -> 012"),  # an Arabic-Indic zero
        ("0 -> 012\n+1 -> 02", "+1 -> 02"),
        ("0 -> 012\n1_0 -> 02", "1_0 -> 02"),
        (" -> 012", "-> 012"),
        ("0 -> 01 -> 2", "0 -> 01 -> 2"),
    ], ids=["letter", "arabic-indic", "plus", "underscore", "empty", "two-arrows"])
    def test_source_letter_is_ascii_digits(self, text, line):
        with pytest.raises(ValueError) as exc:
            parse_morphism(text)
        assert str(exc.value) == f"malformed morphism line {line!r}"

    def test_image_is_a_word(self):
        assert parse_morphism("0 -> 0,1\n1 -> 1") == Morphism(2, 2, ((0, 1), (1,)))
        with pytest.raises(ValueError, match="malformed word"):
            parse_morphism("0 -> \u0661")

    def test_one_comma_puts_every_image_in_the_comma_format(self):
        assert parse_morphism("0 -> 0,12\n1 -> 12").images == ((0, 12), (12,))
        assert parse_morphism("0 -> 12\n1 -> 0,12").images == ((12,), (0, 12))
        assert parse_morphism("0 -> 012\n1 -> 12").images == ((0, 1, 2), (1, 2))

    @pytest.mark.parametrize("image", ["12,", ",12", "1,,2", "\u0661,2"])
    def test_malformed_comma_image(self, image):
        with pytest.raises(ValueError) as exc:
            parse_morphism(f"0 -> 0,12\n1 -> {image}")
        assert str(exc.value) == f"malformed word {image!r}"


class TestApply:
    def test_tau_examples(self):
        assert apply(TAU, w("0")).text() == "012"
        assert apply(TAU, w("012")).text() == "012021"
        assert apply(TAU, w("", 3)).text() == ""

    def test_rejects_letters_outside_source(self):
        with pytest.raises(ValueError, match="letter 5 outside source alphabet"):
            apply(TAU, Word((0, 3, 5), 6))

    def test_image_lengths(self):
        assert [len(img) for img in ALPHA_P5.images] == [24, 16, 8]
        assert [len(img) for img in BETA_P5.images] == [24, 16, 8]
        assert all(len(img) == 12 for img in ALPHA_C4.images)
        assert all(len(img) == 7 for img in ALPHA_T5.images)


class TestFixedPointStream:
    def test_thue_prefixes(self):
        stream = fixed_point_stream(TAU, 0)
        assert stream.prefix(27).text() == THUE_27
        assert stream.prefix(1).text() == "0"

    def test_prefix_6_is_double_expansion(self):
        stream = fixed_point_stream(TAU, 0)
        assert stream.prefix(6) == apply(TAU, apply(TAU, w("0")))

    def test_prefix_monotonicity(self):
        stream = fixed_point_stream(TAU, 0)
        long = stream.prefix(400)
        assert stream.prefix(150).letters == long.letters[:150]
        fresh = fixed_point_stream(TAU, 0)
        assert fresh.prefix(400) == long

    def test_fixed_point_property(self):
        prefix = fixed_point_stream(TAU, 0).prefix(10_000)
        expanded = apply(TAU, prefix)
        assert expanded.letters[:10_000] == prefix.letters

    def test_rejects_non_prolongable_seeds(self):
        with pytest.raises(ValueError):
            fixed_point_stream(TAU, 1)   # tau(1) = 02 does not start with 1
        with pytest.raises(ValueError):
            fixed_point_stream(Morphism(2, 2, ((0,), (0, 1))), 0)  # too short
        with pytest.raises(ValueError):
            fixed_point_stream(Morphism(2, 3, ((0, 2), (1,))), 0)  # escapes source

    def test_prefix_zero_and_negative(self):
        stream = fixed_point_stream(TAU, 0)
        assert stream.prefix(0).text() == ""
        with pytest.raises(ValueError):
            stream.prefix(-1)


class TestImageStream:
    def test_alpha_p5_of_thue_starts_with_image_of_0(self):
        stream = image_stream(ALPHA_P5, fixed_point_stream(TAU, 0))
        assert stream.prefix(24).text() == "201021202101201021012021"

    def test_identity_reproduces(self):
        thue = fixed_point_stream(TAU, 0)
        mirrored = image_stream(IDENTITY, fixed_point_stream(TAU, 0))
        assert mirrored.prefix(500) == thue.prefix(500)

    def test_tournament_image(self):
        stream = image_stream(ALPHA_T5, fixed_point_stream(TAU, 0))
        assert stream.prefix(7).text() == "0123014"

    def test_stream_images_are_square_free(self):
        thue = fixed_point_stream(TAU, 0)
        for m in (ALPHA_P5, BETA_P5, ALPHA_C4, ALPHA_T5):
            assert is_square_free(image_stream(m, fixed_point_stream(TAU, 0)).prefix(2000))
        assert is_square_free(thue.prefix(2000))


class TestBlockStreamsMatchReference:
    """Block-at-a-time streams give the letters of the letter-at-a-time generators."""

    def test_thue_at_block_lengths(self):
        expected = take(reference_fixed_point(TAU, 0), LENGTHS[-1])
        for n in LENGTHS:
            assert fixed_point_stream(TAU, 0).prefix(n).letters == expected[:n], n

    def test_random_prolongable_morphisms(self):
        rng = random.Random(7)
        for _ in range(200):
            k = rng.randrange(2, 6)
            seed = rng.randrange(k)
            images = [tuple(rng.randrange(k) for _ in range(rng.randrange(1, 7)))
                      for _ in range(k)]
            images[seed] = (seed,) + images[seed]
            m = Morphism(k, k, tuple(images))
            # images up to 30 letters: the source blocks shrink to _BLOCK // 30
            target = rng.randrange(1, 6)
            m2 = Morphism(k, target, tuple(
                tuple(rng.randrange(target) for _ in range(rng.randrange(1, 31)))
                for _ in range(k)))
            n = rng.choice(LENGTHS[:-1])
            assert (fixed_point_stream(m, seed).prefix(n).letters
                    == take(reference_fixed_point(m, seed), n)), (m, seed, n)
            assert (image_stream(m2, fixed_point_stream(m, seed)).prefix(n).letters
                    == take(reference_image(m2, reference_fixed_point(m, seed)), n)), (m, m2, n)

    @pytest.mark.parametrize("images,seed", [
        (((0, 1), (1,)), 0),                   # 0111...: 1 -> 1 grows nothing
        (((1,), (1, 0, 2), (2,)), 1),          # 0 -> 1 and 2 -> 2 shrink or keep
        (((0, 1), (1,), (0,)), 0)])
    def test_letters_that_map_to_themselves(self, images, seed):
        # the power of m that the stream expands by is reached, however
        # slowly the seed's image grows
        m = Morphism(len(images), len(images), images)
        assert all(fixed_point_stream(m, seed).prefix(n).letters
                   == take(reference_fixed_point(m, seed), n) for n in LENGTHS)

    def test_interleaved_prefixes(self):
        for make, ref in [
                (lambda: fixed_point_stream(TAU, 0), lambda: reference_fixed_point(TAU, 0)),
                (lambda: image_stream(ALPHA_P5, fixed_point_stream(TAU, 0)),
                 lambda: reference_image(ALPHA_P5, reference_fixed_point(TAU, 0)))]:
            expected = take(ref(), 100_000)
            stream = make()
            for n in (50_000, 7, 100_000):
                assert stream.prefix(n).letters == expected[:n], n

    def test_two_images_share_one_source(self):
        thue = fixed_point_stream(TAU, 0)
        a, b = image_stream(ALPHA_P5, thue), image_stream(ALPHA_T5, thue)
        expect_a = take(reference_image(ALPHA_P5, reference_fixed_point(TAU, 0)), 100_000)
        expect_b = take(reference_image(ALPHA_T5, reference_fixed_point(TAU, 0)), 100_001)
        assert a.prefix(1000).letters == expect_a[:1000]
        assert b.prefix(50_000).letters == expect_b[:50_000]
        assert a.prefix(100_000).letters == expect_a
        assert b.prefix(100_001).letters == expect_b
        assert thue.prefix(9000).letters == take(reference_fixed_point(TAU, 0), 9000)

    def test_image_rejects_letters_outside_its_source_alphabet(self):
        # BETA_P5's images walk 0..4; ALPHA_P5 maps only 0..2
        stream = image_stream(ALPHA_P5, image_stream(BETA_P5, fixed_point_stream(TAU, 0)))
        with pytest.raises(ValueError, match="outside source alphabet"):
            stream.prefix(100)


class TestBlockBounds:
    """A stream produces about one block of _BLOCK letters beyond what was asked
    (stream._length counts every letter produced so far)."""

    def test_image_of_a_long_source_reads_a_short_block(self):
        thue = fixed_point_stream(TAU, 0)
        thue.prefix(100_000)
        stream = image_stream(BETA_P5, thue)
        stream.prefix(10)
        assert stream._length <= _BLOCK

    def test_fixed_point_expands_at_most_a_block(self):
        stream = fixed_point_stream(TAU, 0)
        stream.prefix(100_000)
        have = stream._length
        stream.prefix(have + 1)
        assert stream._length - have <= 3 * _BLOCK  # TAU's longest image is 3


class TestCrochemore:
    def test_alpha_c4_passes(self):
        assert crochemore_uniform_test(ALPHA_C4) is True

    def test_identity_passes(self):
        assert crochemore_uniform_test(IDENTITY) is True

    def test_square_producing_morphism_fails(self):
        m = Morphism.from_images([(0, 1), (1, 0), (0, 0)], 3)
        assert crochemore_uniform_test(m) is False

    def test_non_uniform_is_an_error_not_false(self):
        with pytest.raises(ValueError):
            crochemore_uniform_test(TAU)

    def test_distinct_alphabets(self):
        # Crochemore's length-3 criterion holds for uniform A* -> B*
        assert crochemore_uniform_test(ALPHA_T5) is True
        assert crochemore_uniform_test(CLAW) is True

    def test_one_letter_alphabet(self):
        # over one letter the only nonempty square-free word is 0
        assert crochemore_uniform_test(Morphism(1, 1, ((0, 0),))) is False
        assert crochemore_uniform_test(Morphism(1, 1, ((0,),))) is True

    def test_agrees_with_preservation_on_random_uniform_morphisms(self):
        rng = random.Random(2011)
        for _ in range(3000):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            m = Morphism(n, n, tuple(tuple(rng.randrange(n) for _ in range(k))
                                     for _ in range(n)))
            assert crochemore_uniform_test(m) == (preservation_test(m, 3) is None), m
        for _ in range(1500):  # distinct source and target alphabets
            n, t, k = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
            m = Morphism(n, t, tuple(tuple(rng.randrange(t) for _ in range(k))
                                     for _ in range(n)))
            assert crochemore_uniform_test(m) == (preservation_test(m, 3) is None), m

    def test_consistency_with_bounded_preservation(self):
        # a positive certificate must agree with a short preservation sweep
        for m in (ALPHA_C4, IDENTITY, ALPHA_T5, CLAW):
            assert crochemore_uniform_test(m) is True
            assert preservation_test(m, 8) is None


class TestPreservation:
    def test_counterexample_without_forbidden_factors(self):
        hit = preservation_test(ALPHA_P5, 3)
        assert hit is not None and hit.text() == "010"
        image = apply(ALPHA_P5, hit)
        square = ALPHA_010_SQUARE + ALPHA_010_SQUARE
        assert square in image.text()

    def test_010_alone_is_not_enough(self):
        # alpha maps the square-free, 010-avoiding word 02120 onto a square
        hit = preservation_test(ALPHA_P5, 5, [w("010")])
        assert hit is not None and hit.text() == "02120"
        assert not is_square_free(apply(ALPHA_P5, hit))

    def test_passes_when_both_thue_gaps_are_excluded(self):
        # the Thue word avoids 010 and 212; on that set alpha preserves
        assert preservation_test(ALPHA_P5, 5, [w("010"), w("212")]) is None
        assert preservation_test(ALPHA_P5, 6, [w("010"), w("212")]) is None

    def test_identity_passes(self):
        assert preservation_test(IDENTITY, 6) is None

    def test_alpha_p5_passes_to_length_100(self):
        # every square-free word of at most 100 letters that avoids 010 and
        # 212 has a square-free image; CI sweeps on to length 200
        assert preservation_test(ALPHA_P5, 100, [w("010"), w("212")]) is None

    def test_rejects_bad_max_len(self):
        with pytest.raises(ValueError):
            preservation_test(ALPHA_P5, 0)

    def test_matches_brute_force_on_random_morphisms(self):
        self.check_random_morphisms(random.Random(2011), 500, lambda x: x)

    def test_long_images_and_deep_sweeps_match_brute_force(self):
        self.check_random_morphisms(random.Random(2013), 400, lambda x: x, 24, 7)

    def test_deep_sweeps_of_long_images_match_brute_force(self):
        # images of up to 24 letters and sweeps to length 9: images long
        # enough for the one-pass check's anchor ladder
        self.check_random_morphisms(random.Random(2016), 400, lambda x: x, 24, 9)

    @pytest.mark.parametrize("relabel", [lambda x: 300 + x, lambda x: 0x0107 + 0x100 * x,
                                         lambda x: 70_000 * (x + 1)],
                             ids=["2byte", "shared-low-byte", "3byte"])
    def test_wide_target_letters_match_brute_force(self, relabel):
        self.check_random_morphisms(random.Random(2012), 150, relabel)
        self.check_random_morphisms(random.Random(2014), 100, relabel, 24, 7)

    @pytest.mark.parametrize("m,max_len,forbid", [
        (ALPHA_P5, 7, ()), (ALPHA_P5, 7, ("010",)), (ALPHA_P5, 7, ("010", "212")),
        (ALPHA_C4, 8, ())], ids=["p5", "p5-010", "p5-010-212", "c4"])
    def test_builtin_sweeps_match_brute_force(self, m, max_len, forbid):
        forbidden = [w(f, m.source_alphabet_size) for f in forbid]
        got = preservation_test(m, max_len, forbidden)
        want = reference_preservation(m, max_len, forbidden)
        assert (got.letters if got else None) == want

    @staticmethod
    def check_random_morphisms(rng, count, relabel, longest_image=5, deepest=5):
        """Images are cut from the images of a square-free morphism (LEECH,
        ALPHA_T5, ALPHA_C4), of ALPHA_P5 or from the Thue word, or are those
        images whole when they fit; letters are renamed, and in half of the
        morphisms one letter is changed.  So the images are not uniform, and
        many sweeps pass or fail deep."""
        sources = [m.images for m in (LEECH, ALPHA_T5, ALPHA_C4, ALPHA_P5)]
        sources.append((THUE_300.letters,))
        for _ in range(count):
            n = rng.choice((1, 2, 3, 3))
            source = rng.choice(sources)
            whole = rng.random() < 0.5
            t = max(map(max, source)) + 1
            rename = rng.sample(range(t + 1), t)  # one letter of t + 1 left unused
            images = []
            for _ in range(n):
                full = rng.choice(source)
                size = len(full)
                if not whole or size > longest_image:
                    size = rng.randint(1, min(longest_image, size))
                start = rng.randrange(len(full) - size + 1)
                images.append([rename[a] for a in full[start:start + size]])
            if rng.random() < 0.5:
                img = rng.choice(images)
                img[rng.randrange(len(img))] = rng.randrange(t + 1)
            m = Morphism(n, relabel(t) + 1, tuple(tuple(map(relabel, img)) for img in images))
            forbidden = [Word(tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))), n)
                         for _ in range(rng.choice((0, 0, 1, 2)))]
            max_len = rng.randint(1, deepest)
            hit = preservation_test(m, max_len, forbidden)
            assert (hit.letters if hit else None) == reference_preservation(m, max_len, forbidden)


def reference_preservation(m, max_len, forbidden):
    """The least counterexample in tuple order, or None: every square-free
    word of at most max_len letters that avoids the forbidden factors, in
    depth-first lexicographic order (a prefix first, so the order of tuples),
    with its whole image rescanned by the oracle."""
    n = m.source_alphabet_size

    def first(word):
        for a in range(n):
            v = Word(word + (a,), n)
            if not brute_force_square_check(v) or any(f.text() in v.text() for f in forbidden):
                continue  # neither v nor any extension of it is swept
            if not brute_force_square_check(apply(m, v)):
                return v.letters
            if len(v) < max_len:
                hit = first(v.letters)
                if hit is not None:
                    return hit
        return None

    return first(())


def reference_alignment(m, letters, window):
    """Alignment by enumerating every concatenation of at most window images.

    Complete when window >= 1 + ceil((len(m(i)) - 1) / shortest image) for
    each letter i: a misaligned occurrence starts in one image and the rest
    of it spans at most that many more."""
    for i in letters:
        needle = m.images[i]
        for k in range(1, window + 1):
            for combo in itertools.product(range(m.source_alphabet_size), repeat=k):
                starts, concat = {}, []
                for j in combo:
                    starts[len(concat)] = j
                    concat.extend(m.images[j])
                for p in range(len(concat) - len(needle) + 1):
                    if (tuple(concat[p:p + len(needle)]) == needle
                            and (p not in starts or m.images[starts[p]] != needle)):
                        return False
    return True


class TestAlignment:
    def test_alpha_p5(self):
        assert alignment_test(ALPHA_P5, {0, 1}) is True
        # the image of 2 recurs inside the image of 0
        assert alignment_test(ALPHA_P5, {2}) is False

    def test_alpha_c4(self):
        assert alignment_test(ALPHA_C4, {0, 1, 2, 3}) is True

    def test_identity_alignment(self):
        assert alignment_test(IDENTITY, {0, 1, 2}) is True

    def test_occurrence_across_more_than_three_images(self):
        # m(1)m(0)m(1)m(0)m(0) = 12122 holds 2122 at position 1, inside m(0)
        m = Morphism(3, 3, ((2,), (1,), (2, 1, 2, 2)))
        assert alignment_test(m, {2}) is False
        assert alignment_test(Morphism(3, 3, ((0,), (1,), (2, 1, 2, 2))), {2}) is True

    def test_matches_enumeration_on_random_morphisms(self):
        rng = random.Random(2011)
        verdicts = set()
        for _ in range(600):
            n, t = rng.randint(2, 3), rng.randint(1, 3)
            m = Morphism(n, t, tuple(tuple(rng.randrange(t) for _ in range(rng.randint(1, 6)))
                                     for _ in range(n)))
            letters = [a for a in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
            shortest = min(map(len, m.images))
            window = max(1 + -(-(len(m.images[i]) - 1) // shortest) for i in letters)
            verdict = alignment_test(m, letters)
            assert verdict == reference_alignment(m, letters, window), (m, letters)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            alignment_test(ALPHA_P5, {3})


class TestColouring:
    def test_validation(self):
        with pytest.raises(ValueError):
            Colouring(2, 2, (0,))
        with pytest.raises(ValueError):
            Colouring(2, 2, (0, 2))

    def test_is_a_morphism_of_one_letter_images(self):
        assert isinstance(PHI_P5, Morphism)
        assert PHI_P5.images == ((1,), (0,), (2,), (1,), (0,))
        assert PHI_P5.colours == (1, 0, 2, 1, 0)
        assert IDENTITY.images == ((0,), (1,), (2,))

    def test_tests_take_a_colouring_as_it_is(self):
        explicit = Morphism(5, 3, ((1,), (0,), (2,), (1,), (0,)))
        for max_len in range(1, 8):
            assert preservation_test(PHI_P5, max_len) == preservation_test(explicit, max_len)
        for r in range(1, 6):
            for letters in itertools.combinations(range(5), r):
                assert alignment_test(PHI_P5, letters) == alignment_test(explicit, letters)

    def test_compose_reproduces_alpha(self):
        # phi(beta(a)) == alpha(a) for every letter a
        for img, want in zip(BETA_P5.images, ALPHA_P5.images, strict=True):
            assert apply(PHI_P5, Word(img, 5)) == Word(want, 3)

    def test_composed_image_of_2_has_length_8(self):
        assert len(apply(PHI_P5, Word(BETA_P5.images[2], 5))) == 8
