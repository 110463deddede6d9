"""Graph parsing, fixed-pattern detectors vs the injection oracle, components."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqwalk.graphs import (MAX_VERTICES, Graph, claw_graph, components,
                           cycle_graph, find_c4, find_claw, find_p5,
                           find_triangle, induced_subgraph, parse_graph,
                           path_graph, render_graph)

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


class TestVertexCap:
    def test_huge_vertex_count_refused_before_allocating(self):
        # a neighbour list per vertex would need terabytes; only the refusal runs
        with pytest.raises(ValueError, match=f"vertex count 1000000000000 exceeds the limit of {MAX_VERTICES}"):
            parse_graph("n=1000000000000\n0 1\n")

    def test_line_checks_come_first(self):
        assert outcome(parse_graph, "n=1000000000000\n0 1\n0 x\n") == "malformed edge line '0 x'"
        assert outcome(parse_graph, f"n={MAX_VERTICES + 1}\n0 0\n").startswith("vertex count")


# The line-by-line parser and the per-edge constructor that the bulk build
# replaced: the reference that parse_graph and Graph must match, graph and
# error message alike.
def reference_graph(n, edges):
    """(edges, adjacency) of Graph(n, edges), or its ValueError."""
    if n < 0:
        raise ValueError("vertex_count must be >= 0")
    norm = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge {i} {j} outside vertex range 0..{n - 1}")
        norm.add((min(i, j), max(i, j)))
    adj = [[] for _ in range(n)]
    for i, j in norm:
        adj[i].append(j)
        adj[j].append(i)
    return frozenset(norm), tuple(tuple(sorted(ns)) for ns in adj)


def reference_parse(text):
    """(edges, adjacency) of parse_graph(text), or its ValueError."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        raise ValueError('graph text must start with an "n=<vertex_count>" line')
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"malformed vertex count line {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed edge line {ln!r}") from None
        edges.append((i, j))
    return reference_graph(n, edges)


def outcome(build, *args):
    """(edges, adjacency) of what build returns, or the message it raises."""
    try:
        g = build(*args)
    except ValueError as exc:
        return str(exc)
    return g if isinstance(g, tuple) else (g.edges, g.adjacency)


# every line break str.splitlines knows, and whitespace inside a line,
# Unicode included
_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_PADS = ("", " ", "\t", "  \t", "\x1f", "\xa0", "\u3000")
_TOKENS = st.one_of(st.integers(-1, 7).map(str),
                    st.sampled_from(["+1", "02", "1_0", "\u0663", " 4", "x", "1.0", "#1", "--1", "0x1"]))
_EDGE_LINE = st.tuples(st.sampled_from(_PADS), _TOKENS, st.sampled_from(_PADS[1:]), _TOKENS,
                       st.sampled_from(_PADS)).map("".join)
_BLANK_OR_COMMENT = st.one_of(st.sampled_from(_PADS),
                              st.tuples(st.sampled_from(_PADS), st.text("01 #x\t", max_size=4))
                              .map(lambda p: p[0] + "#" + p[1]))
_ODD_LINE = st.one_of(st.lists(_TOKENS, min_size=1, max_size=3).map(" ".join),
                      _EDGE_LINE.map(lambda ln: ln + " # trailing"))


@st.composite
def edge_list_texts(draw):
    """Header, edge lines with duplicates, self-loops and out-of-range ends,
    blank and comment lines anywhere, odd lines and mixed line breaks."""
    n = draw(st.integers(-1, 7))
    header = draw(st.sampled_from([f"n={n}", f"  n={n}\t", f"n= {n}", f"n=+{n}", "n=x", "n=", "0 1"]))
    lines = draw(st.lists(_BLANK_OR_COMMENT, max_size=2)) + [header]
    lines += draw(st.lists(st.one_of(_EDGE_LINE, _EDGE_LINE, _EDGE_LINE, _BLANK_OR_COMMENT, _ODD_LINE),
                           max_size=12))
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    text = "".join(ln + br for ln, br in zip(lines, breaks))
    return text if draw(st.booleans()) else text[:-len(breaks[-1])]


class TestBulkBuildMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(edge_list_texts())
    def test_parse_graph(self, text):
        assert outcome(parse_graph, text) == outcome(reference_parse, text)

    @settings(max_examples=300, deadline=None)
    @given(st.text("0123 \t\r\n#x+_-\x1c\x85\u2028\u0663", max_size=40))
    def test_parse_graph_any_text_after_a_header(self, body):
        text = "n=4\n" + body
        assert outcome(parse_graph, text) == outcome(reference_parse, text)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-1, 8), st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)), max_size=15))
    def test_graph(self, n, edges):
        assert outcome(Graph, n, edges) == outcome(reference_graph, n, edges)
        assert outcome(Graph, n, iter(edges)) == outcome(reference_graph, n, edges)

    def test_an_edge_that_is_not_a_pair_is_refused(self):
        # the reference unpacks each edge, so it raises too
        for edges in ([(0, 1), (1, 2, 0)], [(0, 1, 2), (1, 2)], [(0,), (1, 2)], [()], [(0, 1, 2)]):
            with pytest.raises(ValueError):
                reference_graph(3, edges)
            for arg in (edges, iter(edges)):
                with pytest.raises(ValueError, match="every edge must be a pair of vertices"):
                    Graph(3, arg)
        assert Graph(3, []) == Graph(3, iter([])) == Graph(3, ())

    def test_first_fault_is_named(self):
        # several faults in one text: the first line or edge in order is named
        text = "n=3\n0 1\n1 1\n0 5\n2 x\n"
        assert outcome(parse_graph, text) == outcome(reference_parse, text) == "malformed edge line '2 x'"
        text = "n=3\n0 1\n0 5\n1 1\n"
        assert outcome(parse_graph, text) == "edge 0 5 outside vertex range 0..2"
        assert outcome(Graph, 3, [(0, 1), (2, 2), (-1, 0)]) == "self-loop at vertex 2"

    def test_edges_are_derived_once(self):
        g = parse_graph("n=4\r\n# ring\r\n0 1\r\n1\t2\r\n2 3\r\n3 0\r\n1 0\r\n")
        assert g == cycle_graph(4) and hash(g) == hash(cycle_graph(4))
        assert g.edges is g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
        assert repr(g) == "Graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])"


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
