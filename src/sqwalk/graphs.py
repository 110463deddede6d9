"""Simple undirected graphs on {0..n-1}: parsing, fixed-pattern detectors, components."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1."""

    __slots__ = ("vertex_count", "edges", "adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        norm = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise ValueError(f"edge {i} {j} outside vertex range 0..{vertex_count - 1}")
            norm.add((min(i, j), max(i, j)))
        self.vertex_count = vertex_count
        self.edges = frozenset(norm)
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for i, j in norm:
            adj[i].append(j)
            adj[j].append(i)
        self.adjacency = tuple(tuple(sorted(ns)) for ns in adj)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {sorted(self.edges)})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: "n=<count>" then one "i j" line per edge.

    Blank lines and lines starting with # are skipped; duplicate edges are
    merged.  Malformed lines, out-of-range vertices and self-loops are
    distinct errors.
    """
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
    return Graph(n, edges)


def render_graph(g: Graph) -> str:
    lines = [f"n={g.vertex_count}"]
    lines.extend(f"{i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines)


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
    adj = g.adjacency
    seen = [False] * g.vertex_count
    out = []
    for s in range(g.vertex_count):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        verts = []
        while stack:
            v = stack.pop()
            verts.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        verts.sort()
        degrees = [len(adj[v]) for v in verts]
        n = len(verts)
        if max(degrees) > 2:
            shape = "other"
        elif sum(degrees) // 2 == n - 1:
            shape = f"path({n})"
        else:
            shape = f"cycle({n})"
        out.append(Component(tuple(verts), shape))
    return out


def induced_subgraph(g: Graph, verts: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """The induced subgraph on verts, relabelled 0..k-1; returns (graph, old->new map)."""
    vs = sorted(set(verts))
    relabel = {v: i for i, v in enumerate(vs)}
    edges = [(relabel[i], relabel[j]) for i, j in g.edges
             if i in relabel and j in relabel]
    return Graph(len(vs), edges), relabel
