"""Graph parsing, fixed-pattern detectors vs the injection oracle, components."""

import itertools
import random

import pytest

from sqwalk.graphs import (Graph, claw_graph, components, cycle_graph,
                           find_c4, find_claw, find_p5, find_triangle,
                           induced_subgraph, parse_graph, path_graph,
                           render_graph)

# fixed patterns for the injection oracle
_PATTERNS = {
    "triangle": (3, [(0, 1), (1, 2), (2, 0)]),
    "c4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "p5": (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "claw": (4, [(0, 1), (0, 2), (0, 3)]),
}


def injection_oracle(g, pattern):
    """Subgraph containment by trying every injective vertex map."""
    k, edges = _PATTERNS[pattern]
    if g.vertex_count < k:
        return False
    for image in itertools.permutations(range(g.vertex_count), k):
        if all(g.has_edge(image[i], image[j]) for i, j in edges):
            return True
    return False


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def random_graph(n, rng):
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, [p for p in pairs if rng.random() < 0.5])


def brute_force_shape(g, verts):
    """path(k) iff some order of the k vertices makes the component's edges
    exactly its consecutive pairs; cycle(k) iff k >= 3 and some order does
    with the closing pair added; else other."""
    k = len(verts)
    edges = {e for e in g.edges if e[0] in verts}
    for kind, closed in (("path", False), ("cycle", True)):
        if closed and k < 3:
            break
        for order in itertools.permutations(verts):
            pairs = list(zip(order, order[1:])) + ([(order[-1], order[0])] if closed else [])
            if {(min(p), max(p)) for p in pairs} == edges:
                return f"{kind}({k})"
    return "other"


class TestParsing:
    def test_cycle_text(self):
        g = parse_graph("n=4\n0 1\n1 2\n2 3\n3 0")
        assert g == cycle_graph(4)

    def test_claw_text(self):
        g = parse_graph("n=4\n0 1\n0 2\n0 3")
        assert g == claw_graph()

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_graph("n=3\n0 0")

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside vertex range"):
            parse_graph("n=3\n0 3")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed edge line"):
            parse_graph("n=3\n0 1 2")
        with pytest.raises(ValueError, match="malformed edge line"):
            parse_graph("n=3\n0 x")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="n="):
            parse_graph("0 1")

    def test_comments_blanks_duplicates(self):
        g = parse_graph("n=3\n# a triangle\n\n0 1\n1 0\n1 2\n2 0\n")
        assert g == cycle_graph(3)

    def test_render_round_trip(self):
        g = cycle_graph(5)
        assert parse_graph(render_graph(g)) == g


class TestConstructors:
    def test_path_edges(self):
        assert path_graph(5).edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
        assert path_graph(1).edges == frozenset()

    def test_cycle_edges(self):
        assert len(cycle_graph(3).edges) == 3
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_claw_edges(self):
        assert claw_graph().edges == frozenset({(0, 1), (0, 2), (0, 3)})

    def test_max_degree(self):
        assert max(map(len, claw_graph().adjacency)) == 3
        assert max(map(len, cycle_graph(5).adjacency)) == 2
        assert max(map(len, Graph(4, []).adjacency)) == 0


# each detector decides containment of its pattern: found iff contained
CONTAINMENT = [pytest.param(pattern, find, id=f"{pattern}-contains_{pattern}")
               for pattern, find in (("triangle", find_triangle), ("c4", find_c4),
                                     ("p5", find_p5), ("claw", find_claw))]


class TestDetectors:
    def test_spec_cases(self):
        assert find_p5(cycle_graph(6)) is not None
        assert find_p5(cycle_graph(5)) is not None
        c4 = cycle_graph(4)
        assert find_triangle(c4) is None
        assert find_c4(c4) is not None
        assert find_p5(c4) is None
        p4 = path_graph(4)
        assert all(find(p4) is None for find in (find_triangle, find_c4, find_p5, find_claw))

    def test_claw_is_max_degree_three(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert (find_claw(g) is not None) == (max(map(len, g.adjacency)) >= 3)

    def test_witnesses_are_valid(self):
        g = cycle_graph(6)
        tri = find_triangle(cycle_graph(3))
        assert tri is not None and cycle_graph(3).has_edge(tri[0], tri[1])
        p5 = find_p5(g)
        assert p5 is not None and len(set(p5)) == 5
        assert all(g.has_edge(p5[i], p5[i + 1]) for i in range(4))
        c4 = find_c4(cycle_graph(4))
        assert c4 is not None and len(set(c4)) == 4
        hub, *leaves = find_claw(claw_graph())
        assert hub == 0 and sorted(leaves) == [1, 2, 3]

    @pytest.mark.parametrize("pattern,detector", CONTAINMENT)
    def test_oracle_agreement_exhaustive(self, pattern, detector):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert (detector(g) is not None) == injection_oracle(g, pattern), render_graph(g)

    @pytest.mark.parametrize("pattern,detector", CONTAINMENT)
    def test_oracle_agreement_sampled(self, pattern, detector):
        rng = random.Random(hash(pattern) & 0xFFFF)
        for n in (6, 7):
            for _ in range(150):
                g = random_graph(n, rng)
                assert (detector(g) is not None) == injection_oracle(g, pattern), render_graph(g)


class TestComponents:
    def test_path_and_cycle_union(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
        comps = components(g)
        assert [c.vertices for c in comps] == [(0, 1, 2), (3, 4, 5, 6)]
        assert [c.shape for c in comps] == ["path(3)", "cycle(4)"]

    def test_claw_is_other(self):
        comps = components(claw_graph())
        assert len(comps) == 1
        assert comps[0].shape == "other"

    def test_single_vertex_is_path_1(self):
        comps = components(Graph(1, []))
        assert comps[0].shape == "path(1)"

    def test_partition_and_edge_counts(self):
        rng = random.Random(99)
        for _ in range(100):
            g = random_graph(6, rng)
            comps = components(g)
            seen = sorted(v for c in comps for v in c.vertices)
            assert seen == list(range(6))
            for c in comps:
                sub, _ = induced_subgraph(g, c.vertices)
                if c.shape.startswith("path("):
                    assert len(sub.edges) == len(c.vertices) - 1
                elif c.shape.startswith("cycle("):
                    assert len(sub.edges) == len(c.vertices)
                    assert len(c.vertices) >= 3

    def test_shapes_match_definition_exhaustive(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                for c in components(g):
                    assert c.shape == brute_force_shape(g, c.vertices), render_graph(g)

    def test_induced_subgraph_relabels(self):
        g = Graph(5, [(2, 4), (4, 3)])
        sub, relabel = induced_subgraph(g, [2, 3, 4])
        assert sub.vertex_count == 3
        assert sub.edges == frozenset({(0, 2), (1, 2)})
        assert relabel == {2: 0, 3: 1, 4: 2}
