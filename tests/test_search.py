"""Bounded exhaustive searches: extremal values, witnesses, determinism."""

import itertools
import random
import sys
import tracemalloc

import pytest

from sqwalk import search, words
from sqwalk.graphs import Graph, claw_graph, cycle_graph, path_graph
from sqwalk.morphisms import Colouring, apply
from sqwalk.search import (SearchResult, _canonical_colourings,
                           _canonical_key, _coloured_components, _quotient,
                           colouring_class_count,
                           longest_square_free_tournament,
                           longest_square_free_walk, max_coloured_walk,
                           verify_gamma_lower_bound)
from sqwalk.walks import is_g_word
from sqwalk.words import Word, brute_force_square_check, is_tournament_word
from test_words import naive_suffix_square_free

P4_WITNESSES = {"012101232101210", "321232101232123"}
TOURNAMENT_20 = "01201320120320132032"


class TestLongestWalk:
    def test_p4_maximum_is_15(self):
        res = longest_square_free_walk(path_graph(4), 20)
        assert res.outcome == "max_length"
        assert res.length == 15
        assert {w.text() for w in res.witnesses} == P4_WITNESSES

    def test_p4_witnesses_verify(self):
        res = longest_square_free_walk(path_graph(4), 20)
        for word in res.witnesses:
            assert brute_force_square_check(word)
            assert is_g_word(path_graph(4), word)

    def test_p4_node_budget(self):
        res = longest_square_free_walk(path_graph(4), 20)
        assert res.nodes_explored < 1_000_000

    def test_p3_maximum_is_7(self):
        res = longest_square_free_walk(path_graph(3), 20)
        assert res.length == 7
        assert {w.text() for w in res.witnesses} == {
            "0121012", "1012101", "1210121", "2101210"}

    def test_p5_exceeds_bound(self):
        res = longest_square_free_walk(path_graph(5), 200)
        assert res.bound_exceeded
        assert res.length == 200
        assert res.witnesses == ()

    def test_c3_exceeds_bound(self):
        assert longest_square_free_walk(cycle_graph(3), 200).bound_exceeded

    def test_edgeless_graph(self):
        res = longest_square_free_walk(Graph(3, []), 10)
        assert res.length == 1
        assert {w.text() for w in res.witnesses} == {"0", "1", "2"}

    def test_witnesses_sorted(self):
        res = longest_square_free_walk(path_graph(4), 20)
        assert list(res.witnesses) == sorted(res.witnesses, key=lambda w: w.letters)

    def test_deterministic(self):
        a = longest_square_free_walk(path_graph(4), 20)
        b = longest_square_free_walk(path_graph(4), 20)
        assert a == b

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            longest_square_free_walk(path_graph(3), 0)

    def test_render(self):
        # cap 16 is the least cap above the maximum: the search runs the same
        # at any larger cap
        for cap in (16, 20):
            res = longest_square_free_walk(path_graph(4), cap)
            assert res.render().splitlines() == [
                "outcome=max_length 15", "witness=012101232101210",
                "witness=321232101232123", "nodes=158"]

    def test_render_at_the_maximum(self):
        # the search stops at its first walk of cap letters: the 15 prefixes of
        # the witness 012101232101210 and one dead end, 010
        res = longest_square_free_walk(path_graph(4), 15)
        assert res.render().splitlines() == ["outcome=bound_exceeded 15", "nodes=16"]


class TestTournamentSearch:
    def test_a4_maximum_is_20(self):
        res = longest_square_free_tournament(4, 30)
        assert res.outcome == "max_length"
        assert res.length == 20
        assert res.nodes_explored == 2944
        texts = [w.text() for w in res.witnesses]
        assert TOURNAMENT_20 in texts
        assert texts == sorted(texts)  # leaves come out in pre-order, lexicographic here

    def test_a4_searches_only_the_words_that_start_01(self, monkeypatch):
        # the engine exhausts the word 0 and the 01 subtree: 1 + 245 of the
        # 2944 nodes; the other 4 * 3 - 1 subtrees are renamings of it
        engine_nodes = []

        def counting(*args, **kwargs):
            nodes, found, stopped = words._backtrack(*args, **kwargs)
            engine_nodes.append(nodes)
            return nodes, found, stopped

        monkeypatch.setattr(search, "_backtrack", counting)
        res = longest_square_free_tournament(4, 30)
        assert res.nodes_explored == 2944
        assert engine_nodes == [246]

    def test_a4_witness_set_is_the_permutation_orbit(self):
        # holds by construction now that the witnesses are renamings of the
        # 01 subtree's; the recursive reference below is the independent check
        res = longest_square_free_tournament(4, 30)
        base = tuple(int(c) for c in TOURNAMENT_20)
        orbit = set()
        for perm in itertools.permutations(range(4)):
            orbit.add(tuple(perm[a] for a in base))
        assert {w.letters for w in res.witnesses} == orbit
        assert len(res.witnesses) == 24

    def test_a4_witnesses_verify(self):
        res = longest_square_free_tournament(4, 30)
        for word in res.witnesses:
            assert brute_force_square_check(word)
            assert is_tournament_word(word)

    def test_a2_maximum_is_2(self):
        # 010 and 101 are square-free but contain both orders of the pair,
        # so the square-free tournament maximum over two letters is 2
        res = longest_square_free_tournament(2, 10)
        assert res.length == 2
        assert {w.text() for w in res.witnesses} == {"01", "10"}

    def test_a1_maximum_is_1(self):
        res = longest_square_free_tournament(1, 5)
        assert res.length == 1
        assert {w.text() for w in res.witnesses} == {"0"}

    def test_a5_exceeds_bound(self):
        assert longest_square_free_tournament(5, 200).bound_exceeded

    def test_huge_alphabet_costs_nothing_per_letter(self):
        # five nodes over a million letters: no table or pass over the alphabet
        tracemalloc.start()
        try:
            res = longest_square_free_tournament(10**6, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.outcome, res.length, res.nodes_explored) == ("bound_exceeded", 5, 5)
        assert peak < 1_000_000


class TestMaxColouredWalk:
    def test_constant_colouring_stops_at_one(self):
        phi = Colouring(4, 3, (0, 0, 0, 0))
        res = max_coloured_walk(cycle_graph(4), phi, 100)
        assert res.length == 1

    def test_identity_colouring_on_c4_exceeds_bound(self):
        res = max_coloured_walk(cycle_graph(4), Colouring(4, 4, range(4)), 200)
        assert res.bound_exceeded

    def test_witness_colourings_verify(self):
        phi = Colouring(4, 3, (0, 1, 2, 1))
        res = max_coloured_walk(cycle_graph(4), phi, 100)
        assert res.outcome == "max_length"
        for word in res.witnesses:
            assert is_g_word(cycle_graph(4), word)
            assert brute_force_square_check(apply(phi, word))

    def test_rejects_mismatched_colouring(self):
        with pytest.raises(ValueError):
            max_coloured_walk(cycle_graph(4), Colouring(3, 3, range(3)), 10)


class TestGammaLowerBound:
    def test_c4_needs_four_colours(self):
        report = verify_gamma_lower_bound(cycle_graph(4), 3, 100)
        assert bool(report) is True
        # set partitions of 4 vertices into at most 3 colour classes
        assert len(report.entries) == 14
        assert all(outcome == "max_length" for _, outcome, _ in report.entries)
        assert max(length for _, _, length in report.entries) == 15

    def test_claw_needs_four_colours(self):
        assert bool(verify_gamma_lower_bound(claw_graph(), 3, 100)) is True

    def test_c3_does_not_need_four(self):
        report = verify_gamma_lower_bound(cycle_graph(3), 3, 200)
        assert bool(report) is False
        exceeded = [colours for colours, outcome, _ in report.entries
                    if outcome == "bound_exceeded"]
        assert (0, 1, 2) in exceeded

    def test_p5_needs_three_colours(self):
        report = verify_gamma_lower_bound(path_graph(5), 2, 50)
        assert bool(report) is True
        assert max(length for _, _, length in report.entries) == 3

    def test_render(self):
        report = verify_gamma_lower_bound(cycle_graph(4), 3, 100)
        lines = report.render().splitlines()
        assert lines[-1] == "verdict=true"
        assert lines[0].startswith("colouring=0000 outcome=max_length ")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            verify_gamma_lower_bound(cycle_graph(3), 0, 10)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            verify_gamma_lower_bound(cycle_graph(4), 3, 0)


class TestColouringClassCount:
    def test_counts_the_enumerated_classes(self):
        for n in range(9):
            for k in range(1, 10):
                assert colouring_class_count(n, k, 10**9) == len(list(_canonical_colourings(n, k))), (n, k)
        assert colouring_class_count(3, 0, 10) == 0
        assert colouring_class_count(0, 0, 10) == 1

    def test_saturates_past_the_limit(self):
        # S(10, 1) + S(10, 2) + S(10, 3) = 1 + 511 + 9330, the classes of S(4,4)
        assert colouring_class_count(10, 3, 9842) == 9842
        assert colouring_class_count(10, 3, 9841) == 9842
        assert colouring_class_count(15, 3, 10**7) == 2_391_485
        assert colouring_class_count(15, 3, 10**6) == 10**6 + 1

    def test_huge_graphs_count_at_once(self):
        # each call stops within a few dozen rows, whatever n and k are
        for k in (2, 3, 10**9):
            assert colouring_class_count(10**9, k, 10**6) == 10**6 + 1
        assert colouring_class_count(10**9, 1, 10**6) == 1


def double_star(a, b):
    """Two adjacent hubs 0 and 1, with a and b leaves."""
    edges = [(0, 1)] + [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)]
    return Graph(2 + a + b, edges)


def reference_gamma_entries(g, k, cap):
    """One max_coloured_walk per colouring class: the sweep without quotients."""
    entries = []
    for images in _canonical_colourings(g.vertex_count, k):
        res = max_coloured_walk(g, Colouring(g.vertex_count, k, images), cap)
        entries.append((images, res.outcome, res.length))
    return entries


def gamma_graphs():
    yield from [cycle_graph(4), claw_graph(), cycle_graph(5), cycle_graph(6),
                cycle_graph(7), cycle_graph(8), path_graph(7), double_star(2, 2),
                double_star(3, 3)]
    # Components that are one coloured graph under different labels: two
    # P4s on interleaved labels, P3 + C4 + P3, and S(2,2) twice, the second
    # copy relabelled.
    yield Graph(8, [(0, 2), (2, 4), (4, 6), (3, 1), (1, 7), (7, 5)])
    yield Graph(10, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8), (8, 9)])
    sigma = (9, 6, 11, 7, 10, 8)
    edges = double_star(2, 2).edges
    yield Graph(12, list(edges) + [(sigma[v], sigma[w]) for v, w in edges])
    yield Graph(0, [])
    yield Graph(3, [])
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(5, 7)
        yield Graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4])


class TestGammaQuotientsMatchEveryClass:
    # binary square-free words stop at 3 letters, so k = 2 reaches cap 3 only
    @pytest.mark.parametrize("k,cap", [(2, 3), (2, 100), (3, 6), (3, 100)])
    def test_every_class(self, k, cap):
        exceeded = 0
        for g in gamma_graphs():
            if colouring_class_count(g.vertex_count, k, 10_000) > 10_000:
                continue  # one reference search per class would take too long
            report = verify_gamma_lower_bound(g, k, cap)
            expected = reference_gamma_entries(g, k, cap)
            assert list(report.entries) == expected, g
            assert report.verdict == all(o == "max_length" for _, o, _ in expected)
            exceeded += sum(o == "bound_exceeded" for _, o, _ in expected)
        assert exceeded > 0 or cap == 100


def brute_force_form(adjacency, colour):
    """The least (colours renamed by first use, edges) over all vertex orders."""
    n = len(colour)
    pairs = [(v, w) for v in range(n) for w in adjacency[v] if v < w]
    best = None
    for order in itertools.permutations(range(n)):
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        rename = {}
        colours = tuple(rename.setdefault(colour[v], len(rename)) for v in order)
        edges = tuple(sorted((min(pos[v], pos[w]), max(pos[v], pos[w])) for v, w in pairs))
        if best is None or (colours, edges) < best:
            best = (colours, edges)
    return best


def decode(key):
    """The adjacency sets and colours that a component key lists."""
    adjacency = [set() for _ in key]
    for i, (_, _, back) in enumerate(key):
        for j in back:
            adjacency[i].add(j)
            adjacency[j].add(i)
    return adjacency, [c for _, c, _ in key]


def paths_and_cycles():
    for n in range(1, 7):
        path = [{w for w in (v - 1, v + 1) if 0 <= w < n} for v in range(n)]
        shapes = [path] + ([[{(v - 1) % n, (v + 1) % n} for v in range(n)]] if n >= 3 else [])
        for adjacency in shapes:
            for colour in _canonical_colourings(n, 3):
                yield adjacency, list(colour)


def quotients(g, images):
    """Each quotient of a component of g under the colouring images."""
    for component in _coloured_components(g.adjacency, images):
        yield _quotient(*component)


class TestCanonicalKey:
    def test_exact_on_coloured_paths_and_cycles(self):
        """Equal keys exactly when the brute-force forms are equal."""
        keys, forms = {}, {}
        for adjacency, colour in paths_and_cycles():
            key = _canonical_key(colour, adjacency)
            form = brute_force_form(adjacency, colour)
            assert keys.setdefault(key, form) == form
            assert forms.setdefault(form, key) == key
            # the key describes the graph it came from
            assert brute_force_form(*decode(key)) == form
        assert len(keys) == len(forms) > 100

    def test_relabelling_and_recolouring_keep_the_key(self):
        rng = random.Random(3)
        sizes = set()
        for g in gamma_graphs():
            images = tuple(rng.randrange(3) for _ in range(g.vertex_count))
            for colour, adjacency in quotients(g, images):
                key = _canonical_key(colour, adjacency)
                n = len(key)
                sizes.add(n)
                for _ in range(5):
                    sigma = rng.sample(range(n), n)
                    tau = rng.sample(range(3), 3)
                    moved = [()] * n
                    recoloured = [0] * n
                    for v in range(n):
                        moved[sigma[v]] = tuple(sorted(sigma[w] for w in adjacency[v]))
                        recoloured[sigma[v]] = tau[colour[v]]
                    assert _canonical_key(recoloured, moved) == key
        assert max(sizes) >= 5

    def test_a_spent_budget_still_describes_the_component(self, monkeypatch):
        # every order of K6 with six colours ties, so the full key branches 6! ways
        monkeypatch.setattr(search, "_KEY_BUDGET", 3)
        n = 6
        adjacency = [set(range(n)) - {v} for v in range(n)]
        colour = list(range(n))
        key = _canonical_key(colour, adjacency)
        assert brute_force_form(*decode(key)) == brute_force_form(adjacency, colour)


class TestQuotient:
    def test_a_quotient_is_its_own_quotient(self):
        # a quotient is already stable, so refining it again numbers every
        # class as before
        rng = random.Random(25)
        seen = 0
        for _ in range(2000):
            n = rng.randint(1, 9)
            g = Graph(n, [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4])
            images = tuple(rng.randrange(rng.randint(1, 4)) for _ in range(n))
            for q in quotients(g, images):
                assert _quotient(*q) == q
                seen += len(q[0]) > 2
        assert seen > 500

    # the searches each sweep runs: at most one per quotient new up to
    # isomorphism, so a weaker memo or key reads more
    @pytest.mark.parametrize("g,verdict,searches", [
        (cycle_graph(4), True, 4), (claw_graph(), True, 3), (cycle_graph(5), False, 6),
        (cycle_graph(6), False, 10), (cycle_graph(7), False, 19), (cycle_graph(8), False, 36),
        (double_star(4, 4), True, 8)], ids=["c4", "claw", "c5", "c6", "c7", "c8", "s44"])
    def test_searches_per_sweep(self, monkeypatch, g, verdict, searches):
        calls = []
        searcher = search.max_coloured_walk
        monkeypatch.setattr(search, "max_coloured_walk",
                            lambda *args: calls.append(args) or searcher(*args))
        assert verify_gamma_lower_bound(g, 3, 100).verdict == verdict
        assert len(calls) == searches


def reference_search(n, cap, allowed, colour, tournament=False):
    """The recursive depth-first search, kept as the engine's reference."""
    nodes = best = 0
    witnesses = []
    buf, cols, pairs = [], [], set()

    def dfs():
        nonlocal nodes, best, witnesses
        nodes += 1
        d = len(buf)
        if d > best:
            best, witnesses = d, [tuple(buf)]
        elif d == best:
            witnesses.append(tuple(buf))
        if d >= cap:
            return True
        last = buf[-1]
        for a in allowed(last):
            if tournament and (a == last or (a, last) in pairs):
                continue
            added = tournament and (last, a) not in pairs
            if added:
                pairs.add((last, a))
            buf.append(a)
            cols.append(colour[a])
            if naive_suffix_square_free(cols) and dfs():
                return True
            buf.pop()
            cols.pop()
            if added:
                pairs.discard((last, a))
        return False

    for s in range(n):
        buf[:], cols[:] = [s], [colour[s]]
        if dfs():
            return SearchResult("bound_exceeded", cap, (), nodes)
    found = tuple(Word(w, max(n, 1)) for w in sorted(set(witnesses)))
    return SearchResult("max_length", best, found, nodes)


def small_graphs():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    rng = random.Random(6)
    pairs = list(itertools.combinations(range(6), 2))
    for _ in range(300):
        yield Graph(6, [p for p in pairs if rng.random() < 0.5])


class TestMatchesRecursiveReference:
    def test_walks(self):
        for g in small_graphs():
            adj = g.adjacency
            for cap in (1, 2, 3, 16, 100):
                expected = reference_search(g.vertex_count, cap, lambda v: adj[v],
                                            range(g.vertex_count))
                assert longest_square_free_walk(g, cap) == expected, (g.edges, cap)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_tournaments(self, k):
        # every cap: at A4 caps 12-20 the search stops after more nodes than
        # the cap, inside the 01 subtree that it rebuilds the others from
        for cap in range(1, 46):
            expected = reference_search(k, cap, lambda v: range(k), range(k), tournament=True)
            assert longest_square_free_tournament(k, cap) == expected

    @pytest.mark.parametrize("g", [cycle_graph(4), claw_graph(), cycle_graph(5)],
                             ids=["c4", "claw", "c5"])
    def test_coloured_walks(self, g):
        adj = g.adjacency
        for images in _canonical_colourings(g.vertex_count, 3):
            phi = Colouring(g.vertex_count, 3, images)
            expected = reference_search(g.vertex_count, 100, lambda v: adj[v], images)
            assert max_coloured_walk(g, phi, 100) == expected


@pytest.mark.parametrize("tail", [1, 2])
def test_engine_with_short_direct_tail(monkeypatch, tail):
    # half-lengths past 1 or 2 go through the tail search from depth 3 or 5 on
    monkeypatch.setattr(words, "_TAIL", tail)
    for g in (cycle_graph(3), path_graph(4), path_graph(5), claw_graph()):
        adj = g.adjacency
        expected = reference_search(g.vertex_count, 120, lambda v: adj[v], range(g.vertex_count))
        assert longest_square_free_walk(g, 120) == expected
    for k in (3, 4, 5):
        expected = reference_search(k, 60, lambda v: range(k), range(k), tournament=True)
        assert longest_square_free_tournament(k, 60) == expected


class TestWideColours:
    """Colours past 255 take 2 or 3 bytes in the engine's packed colour word."""

    # 2-byte colours, 2-byte colours sharing one low byte, 3-byte colours
    RELABELLINGS = {"2byte": lambda c: 300 + c, "shared-low-byte": lambda c: 0x0107 + 0x100 * c,
                    "3byte": lambda c: 70_000 * (c + 1)}

    @pytest.mark.parametrize("relabel", RELABELLINGS.values(), ids=RELABELLINGS.keys())
    def test_coloured_walks(self, relabel):
        for g in (cycle_graph(4), claw_graph(), cycle_graph(5)):
            adj = g.adjacency
            for images in _canonical_colourings(g.vertex_count, 3):
                wide = tuple(relabel(c) for c in images)
                phi = Colouring(g.vertex_count, max(wide) + 1, wide)
                expected = reference_search(g.vertex_count, 100, lambda v: adj[v], wide)
                assert max_coloured_walk(g, phi, 100) == expected
                # a relabelling of the colours keeps every square
                assert expected == reference_search(g.vertex_count, 100, lambda v: adj[v], images)


class TestDeepCaps:
    # Caps past the interpreter's recursion limit: the search is iterative.
    def test_walk(self):
        cap = sys.getrecursionlimit() + 100
        res = longest_square_free_walk(cycle_graph(3), cap)
        assert res.outcome == "bound_exceeded" and res.length == cap

    def test_coloured_walk(self):
        cap = sys.getrecursionlimit() + 100
        res = max_coloured_walk(cycle_graph(3), Colouring(3, 3, range(3)), cap)
        assert res.outcome == "bound_exceeded" and res.length == cap


def test_canonical_colourings_are_restricted_growth_strings_in_order():
    for n in range(8):
        for k in range(1, 5):
            expected = [v for v in itertools.product(range(k), repeat=n)
                        if all(v[i] <= max(v[:i], default=-1) + 1 for i in range(n))]
            assert list(_canonical_colourings(n, k)) == expected
