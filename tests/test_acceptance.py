"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 checks alpha-p5 preservation in the form the P5 construction
needs: on square-free words avoiding both 010 and 212 (the factors the Thue
word avoids) the sweep passes, while with 010 alone excluded it stops at the
counterexample 02120, whose image contains (021012021201021012010212)^2.
"""

import itertools
import random
import time

import pytest

from sqwalk.cli import main
from sqwalk.graphs import Graph, claw_graph, cycle_graph, path_graph
from sqwalk.morphisms import (ALPHA_C4, ALPHA_P5, BETA_P5, PHI_P5, alignment_test,
                              apply, crochemore_uniform_test, preservation_test)
from sqwalk.search import (longest_square_free_tournament,
                           longest_square_free_walk, verify_gamma_lower_bound)
from sqwalk.walks import (c4_walk_uniform_stream, classify,
                          claw_walk_stream, cycle_walk_stream,
                          dean_reduced_stream, is_g_word, p5_walk_stream,
                          thue_stream, tournament5_stream)
from sqwalk.words import (Word, brute_force_square_check, is_reduced_free_group_word,
                          is_square_free, is_tournament_word)

THUE_27 = "012021012102012021020121012"


def report(number, description, ok, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"CRITERION {number:02d} {description}: {'PASS' if ok else 'FAIL'}{stamp}")
    return ok


def graphs_on(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@pytest.fixture(scope="module")
def n5_sweep():
    """classify + bounded search over every graph on exactly 5 vertices."""
    out = []
    for g in graphs_on(5):
        out.append((g, classify(g), longest_square_free_walk(g, 100)))
    return out


def test_criterion_01_thue_prefix(capsys):
    code = main(["generate", "thue", "--length", "27"])
    out = capsys.readouterr().out
    ok = code == 0 and out == THUE_27 + "\n"
    assert report(1, "generate thue --length 27 exact", ok)


def test_criterion_02_thue_avoidance():
    prefix = thue_stream().prefix(100_000)
    text = prefix.text()
    ok = "010" not in text and "212" not in text
    assert report(2, "Thue prefix 1e5 avoids 010 and 212", ok)


def test_criterion_03_p4_longest_walk():
    t0 = time.time()
    res = longest_square_free_walk(path_graph(4), 20)
    elapsed = time.time() - t0
    ok = (res.outcome == "max_length" and res.length == 15
          and {w.text() for w in res.witnesses}
          == {"012101232101210", "321232101232123"}
          and elapsed < 5)
    assert report(3, "P4 maximum 15 with both witnesses", ok, elapsed)


def test_criterion_04_alpha_preservation():
    hit_at_3 = preservation_test(ALPHA_P5, 3)
    square = "2120102120210120"
    part_b = (hit_at_3 is not None and hit_at_3.text() == "010"
              and (square + square) in apply(ALPHA_P5, hit_at_3).text())
    thue_avoided = [Word.from_text("010"), Word.from_text("212")]
    part_a = preservation_test(ALPHA_P5, 8, thue_avoided) is None
    hit_010_only = preservation_test(ALPHA_P5, 5, [Word.from_text("010")])
    image = apply(ALPHA_P5, hit_010_only) if hit_010_only else None
    half = "021012021201021012010212"
    part_c = (image is not None and hit_010_only.text() == "02120"
              and not brute_force_square_check(image)
              and (half + half) in image.text())
    report(4, "alpha-p5 preservation (010 and 212 excluded, up to 8: pass; "
              "010 alone: counterexample 02120)", part_a and part_b and part_c)
    assert part_b, "max_len 3 sweep must fail exactly on 010 with the displayed square"
    assert part_a, "sweep with 010 and 212 excluded must pass up to length 8"
    assert part_c, (
        "with 010 alone excluded the sweep must stop at 02120, whose image "
        "contains (021012021201021012010212)^2; got "
        f"{hit_010_only.text() if hit_010_only else 'none'}")


def test_criterion_05_alignment():
    ok = (alignment_test(ALPHA_P5, {0, 1}) is True
          and alignment_test(ALPHA_P5, {2}) is False)
    assert report(5, "alpha-p5 aligned on {0,1}, not on {2}", ok)


def test_criterion_06_p5_walk():
    t0 = time.time()
    prefix = p5_walk_stream().prefix(100_000)
    ok_square_free = is_square_free(prefix)
    ok_brute = brute_force_square_check(Word(prefix.letters[:10_000], 5))
    ok_walk = is_g_word(path_graph(5), prefix)
    ok_factorization = all(apply(PHI_P5, Word(img, 5)) == Word(want, 3)
                           for img, want in zip(BETA_P5.images, ALPHA_P5.images, strict=True))
    elapsed = time.time() - t0
    ok = ok_square_free and ok_brute and ok_walk and ok_factorization and elapsed < 10
    assert report(6, "p5 stream square-free P5-word at 1e5, phi∘beta = alpha",
                  ok, elapsed)


def test_criterion_07_claw():
    lower = bool(verify_gamma_lower_bound(claw_graph(), 3, 100))
    prefix = claw_walk_stream(claw_graph(), hub=0).prefix(10_000)
    ok = (lower and is_square_free(prefix)
          and is_g_word(claw_graph(), prefix)
          and len(set(prefix.letters)) == 4)
    assert report(7, "claw needs 4 colours; claw walk square-free at 1e4", ok)


def test_criterion_08_cycles():
    lower = bool(verify_gamma_lower_bound(cycle_graph(4), 3, 100))
    prefix = cycle_walk_stream(4).prefix(10_000)
    c3 = classify(cycle_graph(3))
    c4 = classify(cycle_graph(4))
    ok = (lower and is_square_free(prefix)
          and is_g_word(cycle_graph(4), prefix)
          and (c3.exists, c3.gamma) == (True, 3)
          and (c4.exists, c4.gamma) == (True, 4))
    assert report(8, "C4 needs 4 colours; insertion walk valid; gamma(C3)=3, gamma(C4)=4", ok)


def test_criterion_09_crochemore():
    prefix = c4_walk_uniform_stream().prefix(10_000)
    ok = (crochemore_uniform_test(ALPHA_C4) is True
          and is_square_free(prefix)
          and is_g_word(cycle_graph(4), prefix))
    assert report(9, "alpha-c4 passes Crochemore; uniform C4 walk square-free at 1e4", ok)


def test_criterion_10_dean():
    prefix = dean_reduced_stream().prefix(10_000)
    ok = is_square_free(prefix) and is_reduced_free_group_word(prefix)
    assert report(10, "Dean stream square-free and reduced at 1e4", ok)


def test_criterion_11_tournament():
    t0 = time.time()
    res = longest_square_free_tournament(4, 30)
    base = "01201320120320132032"
    texts = {w.letters for w in res.witnesses}
    # closed by construction (the witnesses are renamings of the 01 subtree's);
    # test_search's recursive reference checks the rebuild independently
    closed = all(tuple(perm[a] for a in word) in texts
                 for word in texts
                 for perm in itertools.permutations(range(4)))
    prefix = tournament5_stream().prefix(10_000)
    elapsed = time.time() - t0
    ok = (res.outcome == "max_length" and res.length == 20
          and tuple(int(c) for c in base) in texts
          and closed
          and is_square_free(prefix) and is_tournament_word(prefix)
          and elapsed < 30)
    assert report(11, "tournament maximum 20 over A4, permutation-closed; "
                      "A5 stream valid at 1e4", ok, elapsed)


def test_criterion_12_classifier_vs_search(n5_sweep):
    t0 = time.time()
    ok = all(c.exists == res.bound_exceeded for _, c, res in n5_sweep)
    rng = random.Random(20260810)
    pairs = list(itertools.combinations(range(6), 2))
    for _ in range(2000):
        mask = rng.getrandbits(15)
        g = Graph(6, [pairs[i] for i in range(15) if mask >> i & 1])
        if classify(g).exists != longest_square_free_walk(g, 100).bound_exceeded:
            ok = False
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    assert report(12, "classifier existence == bounded search, n=5 exhaustive + n=6 sample",
                  ok, elapsed)


def test_criterion_13_gamma_range(n5_sweep):
    ok = True
    for g, c, _ in n5_sweep:
        if len({v for comp in c.components for v in comp.vertices}) != 5:
            ok = False
        if len(c.components) != 1:
            continue  # connected graphs only
        if c.exists and c.gamma not in (3, 4):
            ok = False
        if c.gamma is not None and c.gamma < 3:
            ok = False
    assert report(13, "connected n=5 graphs: gamma in {3,4} when defined", ok)


def test_criterion_14_checker_oracle_equivalence():
    t0 = time.time()
    ok = True
    for k in range(15):
        for letters in itertools.product(range(3), repeat=k):
            if is_square_free(letters) != brute_force_square_check(letters):
                ok = False
                break
        if not ok:
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    assert report(14, "is_square_free == oracle on all ternary words len<=14",
                  ok, elapsed)
