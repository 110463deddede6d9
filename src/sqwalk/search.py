"""Bounded exhaustive backtracking searches for extremal square-free words.

Each search either exhausts its space below the cap (outcome max_length, with
every witness of that length) or finds a word of cap length (outcome
bound_exceeded, evidence of an unbounded family).  Reaching the cap is never
conflated with a proven maximum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Graph, components
from .morphisms import Colouring
from .words import Word, _square_free_words


@dataclass(frozen=True)
class SearchResult:
    outcome: str  # "max_length" or "bound_exceeded"
    length: int   # the exact maximum, or the cap that was reached
    witnesses: tuple[Word, ...]  # all words attaining the maximum (max_length only)
    nodes_explored: int

    @property
    def bound_exceeded(self) -> bool:
        return self.outcome == "bound_exceeded"

    def render(self) -> str:
        lines = [f"outcome={self.outcome} {self.length}"]
        lines.extend(f"witness={w.text()}" for w in self.witnesses)
        lines.append(f"nodes={self.nodes_explored}")
        return "\n".join(lines)


def _longest(words, cap: int, alphabet: int) -> SearchResult:
    """Consume a backtracking enumeration: the longest words, or the cap reached.

    The engine yields distinct words, in lexicographic order among words of
    one length, so the witnesses need no sorting."""
    nodes = best = 0
    witnesses: list[tuple[int, ...]] = []
    for buf in words:
        nodes += 1
        d = len(buf)
        if d >= cap:
            return SearchResult("bound_exceeded", cap, (), nodes)
        if d > best:
            best = d
            witnesses = [tuple(buf)]
        elif d == best:
            witnesses.append(tuple(buf))
    found = tuple(Word(w, alphabet) for w in witnesses)
    return SearchResult("max_length", best, found, nodes)


def _walks(g: Graph, colour, cap: int) -> SearchResult:
    """Longest walk of g whose colour word (colour[v] for each vertex v) is
    square-free, up to cap: depth-first from every start vertex, extending
    one vertex at a time and pruning with the incremental suffix-square check."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = g.vertex_count
    adjacency = g.adjacency
    words = _square_free_words(range(n), lambda buf: adjacency[buf[-1]], colour, cap)
    return _longest(words, cap, max(n, 1))


def longest_square_free_walk(g: Graph, cap: int) -> SearchResult:
    """Exhaust all square-free walks of g up to cap letters."""
    return _walks(g, range(g.vertex_count), cap)


def longest_square_free_tournament(alphabet_size: int, cap: int) -> SearchResult:
    """Exhaust all square-free tournament words over A_alphabet_size up to cap.

    The consumed ordered pairs are carried as search state: letter a may
    follow letter b only while the reverse pair ab has not occurred.
    """
    if alphabet_size < 1 or cap < 1:
        raise ValueError("alphabet_size and cap must be >= 1")
    pairs: set[tuple[int, int]] = set()

    def successors(buf):
        last = buf[-1]
        for a in range(alphabet_size):
            if a == last or (a, last) in pairs:
                continue  # an immediate square, or the reverse order is a factor
            new = (last, a)
            if new in pairs:
                yield a
            else:
                pairs.add(new)
                yield a
                pairs.discard(new)

    letters = range(alphabet_size)
    return _longest(_square_free_words(letters, successors, letters, cap), cap, alphabet_size)


def max_coloured_walk(g: Graph, phi: Colouring, cap: int) -> SearchResult:
    """Longest walk of g whose image under phi is square-free, up to cap.

    The square check runs on the colour word; the walk itself may repeat.
    Witnesses are the walks (vertex words), not their colourings.
    """
    if phi.source_alphabet_size != g.vertex_count:
        raise ValueError("colouring must be defined on the graph's vertices")
    return _walks(g, phi.colours, cap)


@dataclass(frozen=True)
class GammaLowerBoundReport:
    """Outcome of sweeping every k-colouring class of a graph.

    Each entry is (colouring, outcome, length).  Classes with the same
    quotient share one search, so entries carry no witnesses or node counts."""

    verdict: bool  # True: every colouring class stays finite below the cap
    colours: int
    cap: int
    entries: tuple[tuple[Colouring, str, int], ...]

    def __bool__(self) -> bool:
        return self.verdict

    def render(self) -> str:
        lines = []
        for phi, outcome, length in self.entries:
            phi_text = Word(phi.colours, phi.target_alphabet_size).text()
            lines.append(f"colouring={phi_text} outcome={outcome} {length}")
        lines.append(f"verdict={'true' if self.verdict else 'false'}")
        return "\n".join(lines)


def _canonical_colourings(n: int, k: int):
    """Colourings of n vertices with up to k colours, one per colour-permutation
    class (restricted growth strings: each new colour is the next unused index),
    in lexicographic order."""
    out = [0] * n
    top = [0] * n  # top[i]: the largest colour among out[:i]
    while True:
        yield tuple(out)
        i = n - 1
        while i > 0 and out[i] >= min(top[i] + 1, k - 1):
            i -= 1
        if i <= 0:
            return
        out[i] += 1
        m = max(top[i], out[i])
        for j in range(i + 1, n):
            out[j] = 0
            top[j] = m


def colouring_class_count(n: int, k: int, limit: int) -> int:
    """How many colourings _canonical_colourings(n, k) yields: the sum of the
    Stirling numbers S(n, j) over j <= k, or limit + 1 once that passes limit.

    Row m of S(m, j) = j * S(m-1, j) + S(m-1, j-1) is built for j <= k, and
    the count stops at the first row whose sum passes limit.  For k >= 2 the
    sums grow at least as S(m, 2) = 2**(m-1) - 1 does, so that takes about
    log2(limit) rows whatever n and k are."""
    if k <= 1:
        return int(k == 1 or n == 0)
    row = [1]  # row[j] = S(m, j) for j <= min(m, k), from m = 0
    for m in range(1, n + 1):
        prev = row + [0]  # S(m-1, m) = 0
        row = [0] + [j * prev[j] + prev[j - 1] for j in range(1, min(m, k) + 1)]
        if sum(row) > limit:
            return limit + 1
    return sum(row)


def _quotient(adjacency, colours):
    """The quotient of a coloured graph that has the same colour words.

    A monochromatic edge is dropped: it would give a square cc.  Then the
    colour classes are split, round by round, until the vertices of each
    class see the same set of classes.  Returns the graph on the classes
    and each class's colour."""
    n = len(colours)
    nbrs = [[w for w in adjacency[v] if colours[w] != colours[v]] for v in range(n)]
    block, count = colours, len(set(colours))
    while True:
        sigs: dict = {}
        new = [sigs.setdefault((block[v], frozenset([block[w] for w in nbrs[v]])), len(sigs))
               for v in range(n)]
        if len(sigs) == count:
            break
        block, count = new, len(sigs)
    colour = [0] * count
    for v in range(n):
        colour[new[v]] = colours[v]
    # each class edge once, from its lower class: the build merges no repeats
    edges = {(new[v], new[w]) for v in range(n) for w in nbrs[v] if new[v] < new[w]}
    return Graph(count, edges), colour


# Branch nodes a canonical key may spend before it settles for the best key
# found so far.
_KEY_BUDGET = 2000


def _canonical_key(adjacency, colour, component):
    """A key of the coloured connected graph on component that is equal for
    two components exactly when they are isomorphic up to renaming colours.

    Vertices are placed in a greedy BFS order.  A vertex's entry is (its
    first placed neighbour, its colour renamed by first use, the sorted
    positions of its placed neighbours), and each step places a vertex with
    the least entry, branching on every tie.  The key is the least entry
    sequence over the vertices of least (degree, colour-class size) as
    starts; a branch whose prefix already exceeds the best is cut.  Past
    _KEY_BUDGET branch nodes the best sequence so far is returned: it still
    describes the component exactly, so it is a safe key, only not shared
    with every isomorphic component."""
    size = len(component)
    if size == 1:
        return ((-1, 0, ()),)
    class_size = Counter(colour[v] for v in component)
    rank = {v: (len(adjacency[v]), class_size[colour[v]]) for v in component}
    low = min(rank.values())
    place: dict[int, int] = {}
    rename: dict[int, int] = {}
    key: list = []
    best: list = []
    nodes = 0

    def visit(v, entry):
        place[v] = len(key)
        key.append(entry)
        fresh = colour[v] not in rename
        if fresh:
            rename[colour[v]] = len(rename)
        extend()
        if fresh:
            del rename[colour[v]]
        key.pop()
        del place[v]

    def extend():
        nonlocal best, nodes
        d = len(key)
        if d == size:
            if not best or key < best:
                best = key.copy()
            return
        nodes += 1
        if best and nodes > _KEY_BUDGET:
            return
        entries = {}
        for u in place:
            for w in adjacency[u]:
                if w not in place and w not in entries:
                    back = tuple(sorted(place[x] for x in adjacency[w] if x in place))
                    entries[w] = (back[0], rename.get(colour[w], len(rename)), back)
        least = min(entries.values())
        if best and key + [least] > best[:d + 1]:
            return
        for w, entry in entries.items():
            if entry == least:
                visit(w, least)

    for v in component:
        if rank[v] == low:
            visit(v, (-1, 0, ()))
    return tuple(best)


def _search_key(key, cap: int) -> tuple[str, int]:
    """(outcome, length) of the coloured-walk search on the graph a key describes."""
    size = len(key)
    g = Graph(size, [(j, i) for i, (_, _, back) in enumerate(key) for j in back])
    colours = [c for _, c, _ in key]
    res = max_coloured_walk(g, Colouring(size, max(colours) + 1, colours), cap)
    return res.outcome, res.length


def verify_gamma_lower_bound(g: Graph, k: int, cap: int) -> GammaLowerBoundReport:
    """Confirm that no k-colouring of g admits a square-free walk of cap length.

    All colourings are enumerated up to permutation of the k colours (the
    square-freeness of a coloured walk is invariant under relabelling the
    colours).  Each colouring is reduced to its quotient (see _quotient),
    whose walks have the same colour words; a walk stays in one component,
    and each distinct component, up to isomorphism and colour renaming, is
    searched once.  Verdict True means every class exhausted below the cap.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    searched: dict[tuple, tuple[str, int]] = {}  # component key -> (outcome, length)
    entries = []
    verdict = True
    for images in _canonical_colourings(g.vertex_count, k):
        outcome, length = "max_length", 0
        quotient, colour = _quotient(g.adjacency, images)
        for component in components(quotient):
            key = _canonical_key(quotient.adjacency, colour, component.vertices)
            found = searched.get(key)
            if found is None:
                found = searched[key] = _search_key(key, cap)
            if found[0] == "bound_exceeded":
                outcome, length = found
                verdict = False
                break
            length = max(length, found[1])
        entries.append((Colouring(g.vertex_count, k, images), outcome, length))
    return GammaLowerBoundReport(verdict, k, cap, tuple(entries))
