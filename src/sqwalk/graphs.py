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

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

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


def max_degree(g: Graph) -> int:
    if g.vertex_count == 0:
        return 0
    return max(len(ns) for ns in g.adjacency)


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


def contains_triangle(g: Graph) -> bool:
    return find_triangle(g) is not None


def contains_c4(g: Graph) -> bool:
    return find_c4(g) is not None


def contains_p5(g: Graph) -> bool:
    return find_p5(g) is not None


def contains_claw(g: Graph) -> bool:
    return find_claw(g) is not None


@dataclass(frozen=True)
class ComponentShape:
    """path(m) / cycle(k) classification of a connected component."""

    kind: str  # "path", "cycle" or "other"
    order: Optional[tuple[int, ...]]  # traversal order for paths and cycles

    def describe(self) -> str:
        if self.kind == "other":
            return "other"
        return f"{self.kind}({len(self.order)})"


@dataclass(frozen=True)
class Component:
    vertices: tuple[int, ...]
    shape: ComponentShape


def _classify_component(g: Graph, verts: list[int]) -> ComponentShape:
    degs = [g.degree(v) for v in verts]
    if any(d > 2 for d in degs):
        return ComponentShape("other", None)
    edge_count = sum(degs) // 2
    if edge_count == len(verts) - 1:
        # connected, max degree <= 2, tree: a path
        ends = [v for v in verts if g.degree(v) <= 1]
        start = min(ends)
        order = [start]
        prev = None
        while len(order) < len(verts):
            nxt = [u for u in g.adjacency[order[-1]] if u != prev]
            prev = order[-1]
            order.append(nxt[0])
        return ComponentShape("path", tuple(order))
    # connected, max degree exactly 2 everywhere: a cycle
    start = min(verts)
    prev = None
    order = [start]
    while len(order) < len(verts):
        nxt = [u for u in g.adjacency[order[-1]] if u != prev]
        prev = order[-1]
        order.append(min(nxt) if len(order) == 1 else nxt[0])
    return ComponentShape("cycle", tuple(order))


def components(g: Graph) -> list[Component]:
    """Connected components with path/cycle/other shape, sorted by least vertex."""
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
            for u in g.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        verts.sort()
        out.append(Component(tuple(verts), _classify_component(g, verts)))
    return out


def induced_subgraph(g: Graph, verts: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """The induced subgraph on verts, relabelled 0..k-1; returns (graph, old->new map)."""
    vs = sorted(set(verts))
    relabel = {v: i for i, v in enumerate(vs)}
    edges = [(relabel[i], relabel[j]) for i, j in g.edges
             if i in relabel and j in relabel]
    return Graph(len(vs), edges), relabel
