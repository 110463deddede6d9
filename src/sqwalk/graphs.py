"""Simple undirected graphs on {0..n-1}: parsing, fixed-pattern detectors, components."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Optional

# parse_graph refuses more vertices than this before allocating one neighbour
# list per vertex: ten times the largest graph the tests and CI classify (a
# 1e5-vertex path).  Graph(n, edges) itself builds any size.
MAX_VERTICES = 10**6


class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1.

    It stores the sorted neighbour tuples only; ``edges`` is derived from them.
    Two graphs are equal when their vertex counts and neighbour tuples are,
    which is when their edge sets are."""

    __slots__ = ("vertex_count", "adjacency", "_edges")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        edges = tuple(edges)
        try:
            us, vs = zip(*edges, strict=True) if edges else ((), ())
        except ValueError:
            raise ValueError("every edge must be a pair of vertices") from None
        self.vertex_count = vertex_count
        self.adjacency = _adjacency(vertex_count, us, vs)
        self._edges = None

    @classmethod
    def _from_columns(cls, vertex_count: int, us, vs) -> Graph:
        """The graph with edges (us[k], vs[k]), as Graph(vertex_count, zip(us, vs))."""
        g = cls.__new__(cls)
        g.vertex_count = vertex_count
        g.adjacency = _adjacency(vertex_count, us, vs)
        g._edges = None
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (i, j) pairs with i < j, built from adjacency on first read."""
        if self._edges is None:
            self._edges = frozenset((i, j) for i, ns in enumerate(self.adjacency)
                                    for j in ns if i < j)
        return self._edges

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.vertex_count == other.vertex_count
                and self.adjacency == other.adjacency)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {sorted(self.edges)})"


def _adjacency(n: int, us, vs) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of the graph on 0..n-1 with edges (us[k], vs[k]).

    Self-loops and vertices out of range are found in bulk; only then are the
    edges walked in order, so that the first faulty one is named.  One set of
    keys over all edges tells whether any edge is repeated; only then are the
    neighbour lists merged through sets.  No graph that the classify, search
    or cli benchmark builds repeats an edge."""
    if n < 0:
        raise ValueError("vertex_count must be >= 0")
    ends = us + vs
    if us and (any(map(operator.eq, us, vs)) or min(ends) < 0 or max(ends) >= n):
        for i, j in zip(us, vs):
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {i} {j} outside vertex range 0..{n - 1}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(us, vs):
        adj[i].append(j)
        adj[j].append(i)
    # {i, j} is the only pair with sum i + j and product i * j < n * n
    keys = map(operator.add, map(operator.mul, map(operator.add, us, vs), repeat(n * n)),
               map(operator.mul, us, vs))
    if len(set(keys)) < len(us):  # a duplicate edge
        return tuple(map(tuple, map(sorted, map(set, adj))))
    for ns in adj:
        ns.sort()
    return tuple(map(tuple, adj))


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: "n=<count>" then one "i j" line per edge.

    Lines are those of str.splitlines.  Blank lines and lines starting with #
    are skipped; duplicate edges are merged.  Malformed lines, out-of-range
    vertices and self-loops are distinct errors, the first in file order
    named, and a vertex count above MAX_VERTICES is refused after the line
    checks, before any neighbour list is allocated.
    """
    n, nums = _plain_layout(text) or _edge_lines(text)
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return Graph._from_columns(n, nums[0::2], nums[1::2])


def _plain_layout(text: str) -> Optional[tuple[int, list[int]]]:
    """(vertex count, edge ends) of a text that, stripped, equals its tokens
    put back as the header and "i j" lines, one space inside and "\n"
    between; None for any other text or a token that is not an int."""
    tokens = text.split()
    if (len(tokens) % 2 and tokens[0][:2] == "n="
            and text.strip() == ("%s" + "\n%s %s" * (len(tokens) // 2)) % tuple(tokens)):
        try:
            return int(tokens[0][2:]), list(map(int, tokens[1:]))
        except ValueError:
            pass  # _edge_lines names the line
    return None


def _edge_lines(text: str) -> tuple[int, list[int]]:
    """The vertex count and the edge ends in order, read line by line as the
    format defines them, or the ValueError naming the first line that is not
    the header or two ints."""
    n = None
    nums: list[int] = []
    for ln in text.splitlines():
        parts = ln.split()
        if not parts or parts[0][0] == "#":  # a blank or comment line
            continue
        if n is None:
            header = ln.strip()
            if not header.startswith("n="):
                break
            try:
                n = int(header[2:])
            except ValueError:
                raise ValueError(f"malformed vertex count line {header!r}") from None
            continue
        try:
            i, j = parts
            nums += int(i), int(j)
        except ValueError:
            raise ValueError(f"malformed edge line {ln.strip()!r}") from None
    if n is None:
        raise ValueError('graph text must start with an "n=<vertex_count>" line')
    return n, nums


def path_graph(n: int) -> Graph:
    """The path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """The cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def claw_graph() -> Graph:
    """The star on four vertices with hub 0 and edges 01, 02, 03."""
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


def find_triangle(g: Graph) -> Optional[tuple[int, int, int]]:
    """A 3-cycle as a vertex triple, or None."""
    for i, j in sorted(g.edges):
        common = set(g.adjacency[i]).intersection(g.adjacency[j])
        if common:
            return (i, j, min(common))
    return None


def find_c4(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """A 4-cycle as a vertex quadruple u-x-v-y, or None.

    Two vertices with two common neighbours span a 4-cycle; edges between
    u and v are irrelevant since subgraphs need not be induced.
    """
    n = g.vertex_count
    for u in range(n):
        nu = set(g.adjacency[u])
        for v in range(u + 1, n):
            common = sorted(nu.intersection(g.adjacency[v]))
            if len(common) >= 2:
                return (u, common[0], v, common[1])
    return None


def find_p5(g: Graph) -> Optional[tuple[int, ...]]:
    """A simple path on five distinct vertices, or None (depth-limited DFS)."""

    def extend(path: list[int]) -> Optional[tuple[int, ...]]:
        if len(path) == 5:
            return tuple(path)
        for u in g.adjacency[path[-1]]:
            if u not in path:
                path.append(u)
                hit = extend(path)
                if hit is not None:
                    return hit
                path.pop()
        return None

    for s in range(g.vertex_count):
        hit = extend([s])
        if hit is not None:
            return hit
    return None


def find_claw(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """A hub with three of its neighbours, or None (exists iff max degree >= 3)."""
    for v in range(g.vertex_count):
        ns = g.adjacency[v]
        if len(ns) >= 3:
            return (v, ns[0], ns[1], ns[2])
    return None


@dataclass(frozen=True)
class Component:
    vertices: tuple[int, ...]
    shape: str  # "path(k)", "cycle(k)" or "other"


def components(g: Graph) -> list[Component]:
    """Connected components with their shape, sorted by least vertex.

    A connected component on n vertices with m edges is "other" when some
    degree exceeds 2; with every degree at most 2 it is path(n) when it is a
    tree (m = n - 1) and cycle(n) otherwise."""
    return [Component(verts, shape) for verts, shape, _ in _component_parts(g.adjacency)]


def _component_parts(adj) -> Iterator[tuple[tuple[int, ...], str, int]]:
    """(sorted vertices, shape, edge count) of each component, by least vertex."""
    seen = [False] * len(adj)
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        verts = [s]
        for v in verts:  # breadth first: verts grows while it is read
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    verts.append(u)
        verts.sort()
        degrees = list(map(len, map(adj.__getitem__, verts)))
        n, m = len(verts), sum(degrees) // 2
        if max(degrees) > 2:
            shape = "other"
        elif m == n - 1:
            shape = f"path({n})"
        else:
            shape = f"cycle({n})"
        yield tuple(verts), shape, m


def induced_subgraph(g: Graph, verts: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """The induced subgraph on verts, relabelled 0..k-1; returns (graph, old->new map)."""
    vs = sorted(set(verts))
    relabel = {v: i for i, v in enumerate(vs)}
    edges = [(relabel[i], relabel[j]) for i, j in g.edges
             if i in relabel and j in relabel]
    return Graph(len(vs), edges), relabel
