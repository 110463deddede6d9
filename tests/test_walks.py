"""G-word validation, the classifier, and the witness walk generators."""

import itertools
import random
import time

import pytest

from sqwalk.graphs import (Graph, claw_graph, components, cycle_graph,
                           find_c4, find_claw, find_p5, find_triangle,
                           induced_subgraph, path_graph)
from sqwalk.morphisms import (_BLOCK, ALPHA_C4, ALPHA_P5, ALPHA_T5, BETA_P5, PHI_P5, TAU,
                              Colouring, Morphism, apply, fixed_point_stream, image_stream)
from sqwalk.search import longest_square_free_walk
from sqwalk.walks import (Classification, ComponentClassification, _p5_or_c4,
                          c4_walk_uniform_stream, classify,
                          claw_walk_stream, cycle_walk_stream,
                          dean_reduced_stream, find_non_edge, is_g_word,
                          p5_walk_stream, render_classification, thue_stream,
                          tournament5_stream)
from sqwalk.words import (Word, is_reduced_free_group_word, is_square_free,
                          is_tournament_word)
from test_morphisms import LENGTHS, reference_fixed_point, reference_image, take


def w(text, alphabet_size=None):
    return Word.from_text(text, alphabet_size)


def reference_thue():
    return reference_fixed_point(TAU, 0)


def reference_claw(g, hub):
    """The letter-at-a-time claw walk, kept as the block stream's reference."""
    targets = g.adjacency[hub][:3]
    for t in reference_thue():
        yield targets[t]
        yield hub


def reference_cycle_level(n, inner):
    """One letter-at-a-time cycle level: n-1 between each 0, n-2 pair of inner."""
    it = iter(inner)
    prev = next(it)
    yield prev
    for x in it:
        if (prev == 0 and x == n - 2) or (prev == n - 2 and x == 0):
            yield n - 1
        yield x
        prev = x


def reference_cycle(n):
    return reference_thue() if n == 3 else reference_cycle_level(n, reference_cycle(n - 1))


class TestIsGWord:
    def test_path_walks(self):
        assert is_g_word(path_graph(5), w("01234"))
        assert not is_g_word(path_graph(5), w("024", 5))
        assert is_g_word(path_graph(4), w("012101232101210"))

    def test_short_words_are_vacuous(self):
        assert is_g_word(path_graph(3), w("", 3))
        assert is_g_word(path_graph(3), w("2", 3))

    def test_alphabet_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            is_g_word(path_graph(4), w("010", 3))

    def test_find_non_edge_matches_pairwise_has_edge(self):
        def naive(g, letters):
            return next(((p, (a, b)) for p, (a, b) in enumerate(zip(letters, letters[1:]))
                         if not g.has_edge(a, b)), None)

        rng = random.Random(6)
        # 1-6 and 15-16 vertices take the pair-code path, 17 and 300 the tuple pairs
        for n in [rng.randrange(1, 7) for _ in range(400)] + [15, 16, 17, 300] * 50:
            if n < 20:
                pairs = list(itertools.combinations(range(n), 2))
                g = Graph(n, [e for e in pairs if rng.random() < 0.6])
            else:
                g = Graph(n, {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)})
            letters = [rng.randrange(n)]
            for _ in range(rng.randrange(40)):
                # mostly walk the graph (both directions of each edge), sometimes
                # repeat a letter (aa) or jump to any vertex
                nbrs, r = g.adjacency[letters[-1]], rng.random()
                if r < 0.05:
                    letters.append(letters[-1])
                elif r < 0.1 or not nbrs:
                    letters.append(rng.randrange(n))
                else:
                    letters.append(rng.choice(nbrs))
            word = Word(tuple(letters), n)
            hit = naive(g, word.letters)
            assert find_non_edge(g, word) == hit, (g, letters)
            if hit is not None:
                # the first non-edge occurs again later: its first position still counts
                word = Word(word.letters + hit[1], n)
                assert find_non_edge(g, word) == naive(g, word.letters) == hit, (g, letters)
        # a long walk whose only non-edge is its first pair, its last pair, or a repeated letter
        for g, walk in [(path_graph(5), p5_walk_stream().prefix(10_000).letters),
                        (cycle_graph(16), cycle_walk_stream(16).prefix(10_000).letters),
                        (cycle_graph(17), cycle_walk_stream(17).prefix(10_000).letters)]:
            n = g.vertex_count
            first, last = (walk[0] + 2) % n, (walk[-1] + 2) % n
            for letters, hit in [((first,) + walk, (0, (first, walk[0]))),
                                 (walk + (last,), (9999, (walk[-1], last))),
                                 (walk[:5000] + walk[4999:], (4999, (walk[4999], walk[4999])))]:
                word = Word(letters, n)
                assert find_non_edge(g, word) == naive(g, letters) == hit
            assert find_non_edge(g, Word(walk, n)) is None
        for n in (4, 16, 17):  # empty and one-letter words on both sides of 16 letters
            for letters in [(), (n - 1,)]:
                assert find_non_edge(cycle_graph(n), Word(letters, n)) is None
        assert find_non_edge(path_graph(3), w("0121", 3)) is None
        assert find_non_edge(path_graph(3), w("0110", 3)) == (1, (1, 1))
        assert find_non_edge(path_graph(3), w("2102", 3)) == (2, (0, 2))

    def test_a_check_on_a_large_graph_builds_no_edge_set(self):
        n = 10**5
        g = path_graph(n)
        assert find_non_edge(g, Word((5, 6, 7), n)) is None
        assert find_non_edge(g, Word((5, 6, 8), n)) == (1, (6, 8))
        assert g._edges is None


class TestApplyColouring:
    def test_phi_p5_on_path_order(self):
        assert apply(PHI_P5, w("01234")).text() == "10210"

    def test_identity(self):
        assert apply(Colouring(4, 4, range(4)), w("0123")).text() == "0123"

    def test_length_preserved(self):
        word = p5_walk_stream().prefix(100)
        assert len(apply(PHI_P5, word)) == 100


class TestClassify:
    @pytest.mark.parametrize("graph,exists,gamma,witness", [
        (path_graph(3), False, None, None),
        (path_graph(4), False, None, None),
        (path_graph(5), True, 3, "P5"),
        (cycle_graph(3), True, 3, "C3"),
        (cycle_graph(4), True, 4, "C4"),
        (cycle_graph(5), True, 3, "P5"),
        (cycle_graph(6), True, 3, "P5"),
        (claw_graph(), True, 4, "K13"),
        (Graph(4, []), False, None, None),
        (Graph(2, [(0, 1)]), False, None, None),
    ])
    def test_table(self, graph, exists, gamma, witness):
        c = classify(graph)
        assert c.exists is exists
        assert c.gamma == gamma
        assert c.witness == witness

    def test_gamma_defined_iff_exists_and_at_least_3(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                c = classify(g)
                if c.exists:
                    assert c.gamma in (3, 4)
                else:
                    assert c.gamma is None and c.witness is None

    def test_component_minimum(self):
        parts = {
            "p3": path_graph(3), "p4": path_graph(4), "p5": path_graph(5),
            "c3": cycle_graph(3), "c4": cycle_graph(4), "claw": claw_graph(),
        }
        gammas = {"p3": None, "p4": None, "p5": 3, "c3": 3, "c4": 4, "claw": 4}
        for (na, ga), (nb, gb) in itertools.product(parts.items(), repeat=2):
            n = ga.vertex_count + gb.vertex_count
            edges = list(ga.edges) + [(i + ga.vertex_count, j + ga.vertex_count)
                                      for i, j in gb.edges]
            union = Graph(n, edges)
            c = classify(union)
            expected = [x for x in (gammas[na], gammas[nb]) if x is not None]
            assert c.exists == bool(expected)
            assert c.gamma == (min(expected) if expected else None)

    def test_connected_graphs_on_five_vertices_always_walk(self):
        # with five vertices, a connected graph has a degree-3 vertex or is
        # a path/cycle on five vertices, so a square-free walk always exists
        pairs = list(itertools.combinations(range(5), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(5, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            c = classify(g)
            if len(c.components) == 1:
                assert c.exists and c.gamma <= 4

    def test_witness_vertices_are_reported_in_original_labels(self):
        # a triangle sitting on relabelled vertices of a larger graph
        g = Graph(6, [(3, 4), (4, 5), (5, 3), (0, 1)])
        c = classify(g)
        assert c.exists and c.gamma == 3 and c.witness == "C3"
        assert set(c.witness_vertices) == {3, 4, 5}

    def test_render(self):
        g = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)])
        assert render_classification(classify(g)).splitlines() == [
            "exists=true gamma=4 witness=C4",
            "component=0 vertices=0,1,2 shape=path(3) exists=false",
            "component=1 vertices=3,4,5,6 shape=cycle(4) exists=true gamma=4 witness=C4",
            "component=2 vertices=7,8 shape=path(2) exists=false",
        ]
        assert render_classification(classify(path_graph(4))).splitlines()[0] == "exists=false"

    def test_agrees_with_bounded_search_small(self):
        # classifier existence == evidence of a 60-letter square-free walk
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                res = longest_square_free_walk(g, 60)
                assert classify(g).exists == res.bound_exceeded


def detector_classify(g):
    """The classifier as a chain of exact detectors, run on each component's
    relabelled induced subgraph: the reference the linear-time one must match."""
    detectors = (("C3", 3, find_triangle), ("P5", 3, find_p5),
                 ("C4", 4, find_c4), ("K13", 4, find_claw))
    reports = []
    for comp in components(g):
        sub, relabel = induced_subgraph(g, comp.vertices)
        back = {new: old for old, new in relabel.items()}
        verdict = (False, None, None, None)
        for name, gamma, find in detectors:
            hit = find(sub)
            if hit is not None:
                verdict = (True, gamma, name, tuple(back[v] for v in hit))
                break
        reports.append(ComponentClassification(comp.vertices, comp.shape, *verdict))
    defined = [c for c in reports if c.exists]
    if not defined:
        return Classification(False, None, None, None, tuple(reports))
    best = min(defined, key=lambda c: c.gamma)
    return Classification(True, best.gamma, best.witness, best.witness_vertices, tuple(reports))


_WITNESS_SIZE = {"C3": 3, "C4": 4, "P5": 5, "K13": 4}


def witness_spans(g, name, vs):
    """vs spans the named subgraph: ring order for C3/C4, path order for P5,
    hub first for K13."""
    if vs is None or len(vs) != _WITNESS_SIZE[name] or len(set(vs)) != len(vs):
        return False
    if name == "K13":
        return all(g.has_edge(vs[0], x) for x in vs[1:])
    pairs = list(zip(vs, vs[1:]))
    if name in ("C3", "C4"):
        pairs.append((vs[-1], vs[0]))
    return all(g.has_edge(a, b) for a, b in pairs)


class TestClassifierMatchesDetectors:
    """The structure-theorem classifier against the detector chain."""

    def assert_agrees(self, g):
        c = classify(g)
        assert render_classification(c) == render_classification(detector_classify(g)), g
        for comp in c.components:
            if comp.exists:
                assert witness_spans(g, comp.witness, comp.witness_vertices), (g, comp)
        if c.exists:
            assert witness_spans(g, c.witness, c.witness_vertices), g

    def test_every_graph_up_to_five_vertices(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                self.assert_agrees(Graph(n, [pairs[i] for i in range(len(pairs))
                                             if mask >> i & 1]))

    def test_random_graphs_on_6_to_12_vertices(self):
        # sparse to dense, and bipartite (triangle-free, often with cycles),
        # so trees, exact 4-cycles and longer triangle-free cycles all occur
        rng = random.Random(20111)
        for k in range(2000):
            n = rng.randint(6, 12)
            p = rng.uniform(0.05, 0.5)
            pairs = itertools.combinations(range(n), 2)
            if k % 3 == 0:
                side = [rng.random() < 0.5 for _ in range(n)]
                pairs = [(i, j) for i, j in pairs if side[i] != side[j]]
            self.assert_agrees(Graph(n, [e for e in pairs if rng.random() < p]))


def relabelled(n, edges, rng):
    """The graph on n vertices with edges under a random relabelling."""
    labels = list(range(n))
    rng.shuffle(labels)
    return Graph(n, [(labels[a], labels[b]) for a, b in edges])


def prufer_tree(seq):
    """The labelled tree on len(seq) + 2 vertices with Prüfer sequence seq."""
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)  # the least leaf
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    edges.append(tuple(v for v in range(n) if degree[v] == 1))
    return Graph(n, edges)


def reference_components(g):
    """(sorted vertices, shape) of each component by a plain BFS from every
    unseen vertex in order, with the shape rule of graphs.components."""
    seen, comps = set(), []
    for s in range(g.vertex_count):
        if s in seen:
            continue
        seen.add(s)
        queue = [s]
        for v in queue:
            for u in g.adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        degrees = [len(g.adjacency[v]) for v in queue]
        n, m = len(queue), sum(degrees) // 2
        shape = "other" if max(degrees) > 2 else f"path({n})" if m == n - 1 else f"cycle({n})"
        comps.append((tuple(sorted(queue)), shape))
    return comps


class TestClassifyShortcuts:
    """The shapes decided without a search: isolated vertices, stars and
    double stars by degree, cycles and the other trees by the P5/C4 rule."""

    assert_agrees = TestClassifierMatchesDetectors.assert_agrees

    def test_every_labelled_tree_on_5_to_7_vertices(self):
        for n in range(5, 8):
            count = 0
            for seq in itertools.product(range(n), repeat=n - 2):
                g = prufer_tree(seq)
                assert len(g.edges) == n - 1 and len(components(g)) == 1
                self.assert_agrees(g)
                count += 1
            assert count == n ** (n - 2)  # Cayley's formula

    def test_stars_and_double_stars_hub_first(self):
        rng = random.Random(2911)
        graphs = [(k + 1, [(0, i) for i in range(1, k + 1)]) for k in range(1, 21)]
        graphs += [(2 + a + b, [(0, 1)] + [(0, 2 + i) for i in range(a)]
                    + [(1, 2 + a + i) for i in range(b)])
                   for a in range(1, 21) for b in range(1, 21)]
        for n, edges in graphs:
            g = relabelled(n, edges, rng)
            c = classify(g)
            assert c == detector_classify(g)  # the same witness vertices too
            hubs = [v for v in range(n) if len(g.adjacency[v]) >= 3]
            if hubs:
                assert (c.witness, c.witness_vertices) == ("K13", (hubs[0],) + g.adjacency[hubs[0]][:3])
            else:  # K1,1, K1,2 and S(1,1) are paths on at most 4 vertices
                assert not c.exists and n <= 4

    def test_spiders_and_caterpillars(self):
        rng = random.Random(2912)
        for k in range(400):
            if k % 2:  # a spider: legs of random lengths from the centre 0
                n, edges = 1, []
                while n < rng.randint(2, 60):
                    prev = 0
                    for _ in range(rng.randint(1, 6)):
                        edges.append((prev, n))
                        prev, n = n, n + 1
            else:  # a caterpillar: a spine 0..s-1, each with some leaves
                s = rng.randint(1, 8)
                edges = [(i, i + 1) for i in range(s - 1)]
                n = s
                for i in range(s):
                    for _ in range(rng.choice([0, 0, 1, 2, 5])):
                        edges.append((i, n))
                        n += 1
                    if n >= 55:
                        break
            assert n <= 60
            self.assert_agrees(relabelled(n, edges, rng))

    def test_cycle_p5_is_five_consecutive_vertices_centred_on_the_least(self):
        rng = random.Random(2913)
        for n in range(5, 201):
            total = n + rng.randrange(4)  # the rest are isolated vertices
            ring = rng.sample(range(total), n)
            g = Graph(total, [(ring[i], ring[(i + 1) % n]) for i in range(n)])
            i = ring.index(min(ring))
            step = 1 if ring[(i + 1) % n] < ring[i - 1] else -1  # towards its smaller neighbour
            expected = tuple(ring[(i + step * k) % n] for k in (2, 1, 0, -1, -2))
            c = classify(g)
            comp = next(comp for comp in c.components if len(comp.vertices) == n)
            assert comp == (tuple(sorted(ring)), f"cycle({n})", True, 3, "P5", expected)
            assert (c.witness, c.witness_vertices) == ("P5", expected)
            self.assert_agrees(g)

    def test_isolated_vertices_interleaved(self):
        rng = random.Random(2914)
        for _ in range(300):
            n = rng.randint(1, 60)
            live = [v for v in range(n) if rng.random() < 0.5]
            pairs = itertools.combinations(live, 2)
            p = rng.uniform(0.02, 0.3)
            g = Graph(n, [e for e in pairs if rng.random() < p])
            assert [(c.vertices, c.shape) for c in components(g)] == reference_components(g)
            self.assert_agrees(g)
        c = classify(Graph(3, []))
        assert c.components == tuple(((v,), "path(1)", False, None, None, None) for v in range(3))

    def test_component_records_are_named_tuples(self):
        comp = classify(cycle_graph(4)).components[0]
        assert isinstance(comp, tuple)
        assert comp == ComponentClassification((0, 1, 2, 3), "cycle(4)", True, 4, "C4", (0, 1, 2, 3))
        assert (comp.vertices, comp.shape_text, comp.witness_vertices) == ((0, 1, 2, 3), "cycle(4)",
                                                                           (0, 1, 2, 3))


# triangle-free "other" components with a cycle, each with _p5_or_c4's P5
# under the labelling given
OTHER_WITH_CYCLES = {
    "K2,3": (5, [(a, b) for a in (0, 1) for b in (2, 3, 4)], (4, 0, 2, 1, 3)),
    "C4_pendant": (5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)], (4, 0, 1, 2, 3)),
    "C6_chord": (6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)], (2, 1, 0, 3, 4)),
    "theta_2_3_3": (7, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 1)],
                    (1, 2, 0, 3, 4)),
    "C4_pendants": (8, [(i, (i + 1) % 4) for i in range(4)] + [(i, i + 4) for i in range(4)],
                    (2, 1, 0, 3, 7)),
    "domino": (6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)], (2, 1, 0, 3, 4)),
    "C4_pendant_2path": (7, [(i, (i + 1) % 4) for i in range(4)] + [(0, 4), (2, 5), (5, 6)],
                         (4, 0, 1, 2, 3)),
}


def other_with_cycle_graphs(name):
    """The named graph as given, then 29 random relabellings of it."""
    n, edges, _ = OTHER_WITH_CYCLES[name]
    rng = random.Random(name)
    return [Graph(n, edges)] + [relabelled(n, edges, rng) for _ in range(29)]


def p5_branch(g, p5):
    """Which branch of _p5_or_c4's rule gave p5, told by where its y lies."""
    adj = g.adjacency
    y = next(v for v in range(g.vertex_count) if sum(len(adj[u]) > 1 for u in adj[v]) > 1)
    where = p5.index(y)
    if where == 2:
        x = p5[1]
        return "first x2" if p5[0] == next(v for v in adj[x] if v != y) else "later x2"
    return {1: "u via y", 3: "u via x2"}[where]


class TestCycleP5:
    @pytest.mark.parametrize("name", list(OTHER_WITH_CYCLES))
    def test_other_components_with_a_cycle(self, name):
        n, edges, pinned = OTHER_WITH_CYCLES[name]
        assert _p5_or_c4(Graph(n, edges).adjacency, tuple(range(n))) == ("P5", pinned)
        for g in other_with_cycle_graphs(name):
            assert find_triangle(g) is None and find_p5(g) is not None
            c = classify(g)
            assert c.components[0].shape_text == "other"
            assert (c.witness, c.witness_vertices) == _p5_or_c4(g.adjacency, tuple(range(n)))
            assert witness_spans(g, "P5", c.witness_vertices), (name, g, c)
            TestClassifierMatchesDetectors().assert_agrees(g)

    def test_relabellings_reach_every_branch(self):
        # the fourth way out, the C4 itself, is pinned on cycle(4) in
        # TestClassifyShortcuts.test_component_records_are_named_tuples
        branches = {p5_branch(g, classify(g).witness_vertices)
                    for name in OTHER_WITH_CYCLES for g in other_with_cycle_graphs(name)}
        assert branches == {"first x2", "later x2", "u via y", "u via x2"}


class TestClassifyScale:
    """Linear time per component: 1e5-vertex graphs classify in seconds."""

    N = 100_000
    FAMILIES = {
        "star": (lambda n: [(0, i) for i in range(1, n)], (True, 4, "K13")),
        "double_star": (lambda n: [(0, 1)] + [(0, i) for i in range(2, n // 2)]
                        + [(1, i) for i in range(n // 2, n)], (True, 4, "K13")),
        "path": (lambda n: [(i, i + 1) for i in range(n - 1)], (True, 3, "P5")),
        "cycle": (lambda n: [(i, (i + 1) % n) for i in range(n)], (True, 3, "P5")),
        "p4_forest": (lambda n: [(i, i + 1) for i in range(n - 1) if i % 4 != 3],
                      (False, None, None)),
        # centre 0 with legs 0-(2i+1)-(2i+2)
        "spider": (lambda n: [(v - 1 if v % 2 == 0 else 0, v) for v in range(1, n)],
                   (True, 3, "P5")),
        "edgeless": (lambda n: [], (False, None, None)),
    }

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_large_graph(self, family):
        edges, verdict = self.FAMILIES[family]
        g = Graph(self.N, edges(self.N))
        t0 = time.perf_counter()
        c = classify(g)
        elapsed = time.perf_counter() - t0
        assert (c.exists, c.gamma, c.witness) == verdict, family
        if c.exists:
            assert witness_spans(g, c.witness, c.witness_vertices), family
        if family == "star":
            assert c.witness_vertices[0] == 0
        assert elapsed < 5.0, f"{family}: {elapsed:.2f} s"


class TestThueStream:
    def test_matches_fixed_point(self):
        assert thue_stream().prefix(27) == fixed_point_stream(TAU, 0).prefix(27)

    def test_avoids_010_and_212(self):
        prefix = thue_stream().prefix(10_000)
        assert "010" not in prefix.text()
        assert "212" not in prefix.text()


class TestP5WalkStream:
    def test_prefix_24_is_the_first_image(self):
        assert p5_walk_stream().prefix(24).text() == "210123212343210123432123"

    def test_is_a_path_walk(self):
        assert is_g_word(path_graph(5), p5_walk_stream().prefix(10_000))

    def test_colouring_projects_onto_alpha_stream(self):
        p5 = p5_walk_stream()
        alpha = image_stream(ALPHA_P5, thue_stream())
        for n in (0, 1, 7, 24, 100, 5000):
            assert apply(PHI_P5, p5.prefix(n)) == alpha.prefix(n)

    def test_colour_stream_is_alpha_stream(self):
        # criterion 06 on streams: PHI_P5 is a morphism, so image_stream takes it
        coloured = image_stream(PHI_P5, p5_walk_stream())
        alpha = image_stream(ALPHA_P5, thue_stream())
        for n in (0, 1, 24, 5000, 100_000):
            assert coloured.prefix(n) == alpha.prefix(n)

    def test_square_free_prefix(self):
        assert is_square_free(p5_walk_stream().prefix(5000))


class TestClawWalkStream:
    def test_prefix_on_standard_claw(self):
        stream = claw_walk_stream(claw_graph(), hub=0)
        assert stream.prefix(6).text() == "102030"

    def test_prefix_with_hub_3(self):
        g = Graph(4, [(0, 3), (1, 3), (2, 3)])
        assert claw_walk_stream(g, hub=3).prefix(6).text() == "031323"

    def test_prefixes_are_square_free_g_words(self):
        stream = claw_walk_stream(claw_graph(), hub=0)
        prefix = stream.prefix(5000)
        assert is_square_free(prefix)
        assert is_g_word(claw_graph(), prefix)
        assert set(prefix.letters) == {0, 1, 2, 3}
        assert all(prefix.letters[i] == 0 for i in range(1, 5000, 2))

    def test_needs_degree_three(self):
        with pytest.raises(ValueError):
            claw_walk_stream(path_graph(4), hub=1)

    def test_picks_three_smallest_neighbours(self):
        g = Graph(6, [(0, 5), (0, 4), (0, 2), (0, 1)])
        assert claw_walk_stream(g, hub=0).prefix(6).text() == "102040"

    @pytest.mark.parametrize("g,hub", [
        (claw_graph(), 0),
        (Graph(9, [(4, 0), (4, 8), (4, 2), (4, 6), (0, 7), (7, 3), (7, 5)]), 4),  # degree 4
    ], ids=["claw", "degree-4-hub"])
    def test_composed_images_give_the_two_letter_image_stream(self, g, hub):
        # the reference: the Thue word's image under a -> (targets[a], hub)
        # itself, two letters an image
        targets = g.adjacency[hub][:3]
        pairs = Morphism(3, g.vertex_count, tuple((t, hub) for t in targets))
        expected = image_stream(pairs, thue_stream()).prefix(100_000)
        assert claw_walk_stream(g, hub).prefix(100_000) == expected


class TestCycleWalkStream:
    def test_base_is_thue(self):
        assert cycle_walk_stream(3).prefix(27).text() == "012021012102012021020121012"

    def test_c4_insertion_separates_0_and_2(self):
        prefix = cycle_walk_stream(4).prefix(10_000)
        assert "02" not in prefix.text()
        assert "20" not in prefix.text()
        # any walk on the 4-cycle keeps generators away from their inverses
        assert is_reduced_free_group_word(prefix)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_square_free_valid_walks(self, n):
        prefix = cycle_walk_stream(n).prefix(3000)
        assert is_square_free(prefix)
        assert is_g_word(cycle_graph(n), prefix)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            cycle_walk_stream(2)


class TestC4UniformStream:
    def test_prefix_12(self):
        assert c4_walk_uniform_stream().prefix(12).text() == "010301210323"

    def test_square_free_c4_walk(self):
        prefix = c4_walk_uniform_stream().prefix(5000)
        assert is_square_free(prefix)
        assert is_g_word(cycle_graph(4), prefix)


class TestDeanStream:
    def test_prefix_12_reduced_and_square_free(self):
        prefix = dean_reduced_stream().prefix(12)
        assert is_reduced_free_group_word(prefix)
        assert is_square_free(prefix)

    def test_longer_prefix(self):
        prefix = dean_reduced_stream().prefix(5000)
        assert is_reduced_free_group_word(prefix)
        assert is_square_free(prefix)

    def test_empty_prefix(self):
        assert is_reduced_free_group_word(dean_reduced_stream().prefix(0))


class TestTournamentStream:
    def test_prefix_7(self):
        assert tournament5_stream().prefix(7).text() == "0123014"

    def test_square_free_tournament_word(self):
        prefix = tournament5_stream().prefix(5000)
        assert is_square_free(prefix)
        assert is_tournament_word(prefix)


class TestStreamScale:
    """Every generator stream stays square-free and graph-valid out to 1e5,
    both checked exactly on the full prefix."""

    @pytest.mark.parametrize("name,make,graph", [
        ("thue", thue_stream, None),
        ("alpha-p5-image", lambda: image_stream(ALPHA_P5, thue_stream()), None),
        ("p5", p5_walk_stream, path_graph(5)),
        ("c4-uniform", c4_walk_uniform_stream, cycle_graph(4)),
        ("cycle4", lambda: cycle_walk_stream(4), cycle_graph(4)),
        ("cycle5", lambda: cycle_walk_stream(5), cycle_graph(5)),
        ("cycle6", lambda: cycle_walk_stream(6), cycle_graph(6)),
        ("cycle7", lambda: cycle_walk_stream(7), cycle_graph(7)),
        ("cycle8", lambda: cycle_walk_stream(8), cycle_graph(8)),
        ("claw", lambda: claw_walk_stream(claw_graph(), 0), claw_graph()),
        ("tournament5", tournament5_stream, None),
    ])
    def test_prefixes_to_1e5(self, name, make, graph):
        prefix = make().prefix(100_000)
        assert is_square_free(prefix), name
        if graph is not None:
            assert is_g_word(graph, prefix), name
        if name == "tournament5":
            assert is_tournament_word(prefix)

    def test_thue_prefix_1e6(self):
        prefix = thue_stream().prefix(1_000_000)
        assert is_square_free(prefix)
        assert not is_square_free(Word(prefix.letters + prefix.letters[-1:], 3))


# every built-in stream next to its letter-at-a-time reference
BUILTIN_STREAMS = {
    "thue": (thue_stream, reference_thue),
    "p5": (p5_walk_stream, lambda: reference_image(BETA_P5, reference_thue())),
    "c4-uniform": (c4_walk_uniform_stream, lambda: reference_image(ALPHA_C4, reference_thue())),
    "dean": (dean_reduced_stream, lambda: reference_image(ALPHA_C4, reference_thue())),
    "tournament5": (tournament5_stream, lambda: reference_image(ALPHA_T5, reference_thue())),
    "claw": (lambda: claw_walk_stream(claw_graph(), 0), lambda: reference_claw(claw_graph(), 0)),
    "cycle4": (lambda: cycle_walk_stream(4), lambda: reference_cycle(4)),
    "cycle12": (lambda: cycle_walk_stream(12), lambda: reference_cycle(12)),
}


def cycle_references(top, n_letters):
    """The first n_letters of each cycle walk for n = 3..top, one level at a time."""
    levels = {3: take(reference_thue(), n_letters)}
    for n in range(4, top + 1):
        # a level only inserts letters, so n_letters of it need at most n_letters below
        levels[n] = take(reference_cycle_level(n, levels[n - 1]), n_letters)
    return levels


class TestBlockStreamsMatchReference:
    """Block-at-a-time streams give the letters of the letter-at-a-time generators."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_STREAMS))
    def test_builtin_stream_at_block_lengths(self, name):
        make, ref = BUILTIN_STREAMS[name]
        expected = take(ref(), LENGTHS[-1])
        for n in LENGTHS:
            assert make().prefix(n).letters == expected[:n], n
        stream = make()
        for n in (50_000, 7, 100_000):
            assert stream.prefix(n).letters == expected[:n], n

    @pytest.mark.parametrize("g,hubs", [
        (claw_graph(), [0]),
        (Graph(6, [(0, v) for v in range(1, 6)]), [0]),                     # K1,5
        (Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]), [0, 1]),
        (Graph(9, [(4, 0), (4, 8), (4, 2), (4, 6), (0, 7), (7, 3), (7, 5)]), [4, 7]),
    ], ids=["claw", "k15", "double-star", "double-star-relabelled"])
    def test_claw_hubs(self, g, hubs):
        for hub in hubs:
            assert (claw_walk_stream(g, hub).prefix(20_000).letters
                    == take(reference_claw(g, hub), 20_000)), hub

    def test_claw_hub_and_leaves_past_255(self):
        g = Graph(400, [(300, 399), (300, 256), (300, 310), (300, 7), (256, 1), (256, 258)])
        for hub in (300, 256):
            prefix = claw_walk_stream(g, hub).prefix(20_000)
            assert prefix.letters == take(reference_claw(g, hub), 20_000), hub
            assert is_square_free(prefix) and is_g_word(g, prefix), hub

    def test_cycle_walks_257_and_300(self):
        # letters past 255 take two bytes each in a packed word, one code point in a block
        level = take(reference_thue(), 20_000)
        for n in range(4, 301):
            level = take(reference_cycle_level(n, level), 20_000)
            if n in (257, 300):
                assert cycle_walk_stream(n).prefix(20_000).letters == level, n

    def test_cycle_walks_3_to_60(self):
        expected = cycle_references(60, 20_000)
        for n in range(3, 61):
            assert cycle_walk_stream(n).prefix(20_000).letters == expected[n], n

    def test_insertions_straddle_block_boundaries(self):
        # Find the cycles whose level reads a block ending in 0 (or n-2) and the
        # next one starting with n-2 (or 0): the letter n-1 is inserted between
        # blocks there, so the level must carry its last letter across them.
        expected = cycle_references(30, 20_000)
        straddled = []
        for n in range(4, 31):
            ends, prev, seen = {0, n - 2}, None, 0
            for block in cycle_walk_stream(n - 1).blocks():
                if prev is not None and {prev, ord(block[0])} == ends:
                    straddled.append(n)
                    break
                prev, seen = ord(block[-1]), seen + len(block)
                if seen >= 20_000:
                    break
        assert straddled
        for n in straddled:
            assert cycle_walk_stream(n).prefix(20_000).letters == expected[n], n


@pytest.mark.parametrize("name,make", [
    *((name, make) for name, (make, _) in sorted(BUILTIN_STREAMS.items())),
    ("cycle300", lambda: cycle_walk_stream(300)),
    ("phi-p5", lambda: image_stream(PHI_P5, p5_walk_stream()))])
def test_prefix_is_the_word_built_from_its_letters(name, make):
    stream = make()
    for n in (0, 1, 5000):
        prefix = stream.prefix(n)
        word = Word(prefix.letters, stream.alphabet_size)
        assert type(prefix.letters) is tuple and all(type(a) is int for a in prefix.letters)
        assert prefix == word and hash(prefix) == hash(word) and repr(prefix) == repr(word)
        assert prefix.text() == word.text() and prefix._packed == word._packed


class TestBlockSizes:
    """A stream produces about one block of _BLOCK letters at a time
    (stream._length counts every letter produced so far), so a short
    `sqwalk generate` stays cheap."""

    STREAMS = [p5_walk_stream, lambda: claw_walk_stream(claw_graph(), 0),
               lambda: cycle_walk_stream(12)]
    IDS = ["p5", "claw", "cycle12"]

    @pytest.mark.parametrize("make", STREAMS, ids=IDS)
    def test_prefix_10(self, make):
        stream = make()
        stream.prefix(10)
        assert stream._length <= _BLOCK

    @pytest.mark.parametrize("make,bound", zip(STREAMS, [_BLOCK, _BLOCK, 2 * _BLOCK]), ids=IDS)
    def test_every_block(self, make, bound):
        # a cycle level inserts at most one letter per letter it reads
        stream = make()
        while stream._length < 200_000:
            have = stream._length
            stream.prefix(have + 1)
            assert stream._length - have <= bound, have
