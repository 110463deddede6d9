"""Bounded exhaustive backtracking searches for extremal square-free words.

Each search either exhausts its space below the cap (outcome max_length, with
every witness of that length) or finds a word of cap length (outcome
bound_exceeded, evidence of an unbounded family).  Reaching the cap is never
conflated with a proven maximum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graphs import Graph
from .morphisms import Colouring
from .words import Word, _backtrack


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


def _search(starts, successors, colour, top: int, cap: int, alphabet: int) -> SearchResult:
    """Run the backtracking engine: the longest words, or the cap reached."""
    nodes, found, stopped = _backtrack(starts, successors, colour, top, cap)
    if stopped:
        return SearchResult("bound_exceeded", cap, (), nodes)
    witnesses = tuple(Word(w, alphabet) for w in found)
    return SearchResult("max_length", len(found[0]) if found else 0, witnesses, nodes)


def _walks(g: Graph, colour, cap: int) -> SearchResult:
    """Longest walk of g whose colour word (colour[v] for each vertex v) is
    square-free, up to cap: depth-first from every start vertex, extending
    one vertex at a time and pruning with the incremental suffix-square check."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = g.vertex_count
    adjacency = g.adjacency
    return _search(range(n), lambda buf: adjacency[buf[-1]], colour,
                   max(colour, default=0), cap, max(n, 1))


def longest_square_free_walk(g: Graph, cap: int) -> SearchResult:
    """Exhaust all square-free walks of g up to cap letters."""
    return _walks(g, range(g.vertex_count), cap)


def longest_square_free_tournament(alphabet_size: int, cap: int) -> SearchResult:
    """Exhaust all square-free tournament words over A_alphabet_size up to cap.

    The consumed ordered pairs are carried as search state: letter a may
    follow letter b only while the reverse pair ab has not occurred.

    Both conditions survive any renaming of the letters, and renaming 0 -> a,
    1 -> b (the other letters in increasing order) maps the words that start
    01 one-to-one onto those that start ab.  So only the word 0 and the words
    that start 01 are searched, and the result of the search over every word
    is rebuilt from theirs.  Stopped at the cap, it is already that result:
    the full search meets 0 and then the 01 subtree first, and the first cap
    word in the 01 subtree is also the first in the full order.  Exhausted
    with N nodes, the full tree has k * (1 + (k - 1) * (N - 1)) nodes, and
    its witnesses are the renamings of the longest words over every ordered
    pair (a, b), sorted: pre-order with letters in increasing order is
    lexicographic order.
    """
    if alphabet_size < 1 or cap < 1:
        raise ValueError("alphabet_size and cap must be >= 1")
    k = alphabet_size
    pairs: set[tuple[int, int]] = set()
    letters = range(k)
    seconds = letters[1:2]  # the words that start 01 (none when k = 1)

    def successors(buf):
        last = buf[-1]
        for a in letters if len(buf) > 1 else seconds:
            if a == last or (a, last) in pairs:
                continue  # an immediate square, or the reverse order is a factor
            new = (last, a)
            if new in pairs:
                yield a
            else:
                pairs.add(new)
                yield a
                pairs.discard(new)

    result = _search((0,), successors, letters, k - 1, cap, k)
    if result.bound_exceeded or k == 1:
        return result  # k = 1: the word 0 is the whole tree
    witnesses = []
    for a in letters:
        for b in letters:
            if a != b:
                renamed = (a, b, *(c for c in letters if c != a and c != b))
                witnesses.extend(tuple(map(renamed.__getitem__, w.letters))
                                 for w in result.witnesses)
    witnesses.sort()
    return SearchResult(result.outcome, result.length, tuple(Word(w, k) for w in witnesses),
                        k * (1 + (k - 1) * (result.nodes_explored - 1)))


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

    Each entry is (colours, outcome, length), colours[v] the colour of v.
    Classes with the same quotient share one search, so entries carry no
    witnesses or node counts."""

    verdict: bool  # True: every colouring class stays finite below the cap
    colours: int
    cap: int
    entries: tuple[tuple[tuple[int, ...], str, int], ...]

    def __bool__(self) -> bool:
        return self.verdict

    def render(self) -> str:
        lines = []
        for colours, outcome, length in self.entries:
            text = Word(colours, self.colours).text()
            lines.append(f"colouring={text} outcome={outcome} {length}")
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


def _quotient(colours, adjacency):
    """The quotient of a coloured component that has the same colour words.

    The component comes as _coloured_components yields it, so it has no
    monochromatic edge.  Its colour classes are split, round by round, until
    the vertices of each class see the same set of classes.  Returns the
    quotient in the same form: each class's colour and its sorted neighbour
    classes, the classes numbered in order of their first vertex."""
    n = len(colours)
    block, count = colours, len(set(colours))
    while True:
        sigs: dict = {}
        new = [sigs.setdefault((block[v], frozenset([block[w] for w in adjacency[v]])), len(sigs))
               for v in range(n)]
        if len(sigs) == count:
            break
        block, count = new, len(sigs)
    # one vertex of each class, in class order: every vertex of a class sees
    # the same classes, so any one gives the class's neighbours
    members = dict(zip(new, range(n))).values()
    return (tuple([colours[v] for v in members]),
            tuple([tuple(sorted({new[w] for w in adjacency[v]})) for v in members]))


# Branch nodes a canonical key may spend before it settles for the best key
# found so far.
_KEY_BUDGET = 2000


def _canonical_key(colour, adjacency):
    """A key of a connected coloured graph that is equal for two graphs
    exactly when they are isomorphic up to renaming colours.

    Vertices are placed in a greedy BFS order.  A vertex's entry is (its
    first placed neighbour, its colour renamed by first use, the sorted
    positions of its placed neighbours), and each step places a vertex with
    the least entry, branching on every tie.  The key is the least entry
    sequence over the vertices of least (degree, colour-class size) as
    starts; a branch whose prefix already exceeds the best is cut.  Past
    _KEY_BUDGET branch nodes the best sequence so far is returned: it still
    describes the graph exactly, so it is a safe key, only not shared with
    every isomorphic graph."""
    size = len(colour)
    class_size = Counter(colour)
    rank = [(len(ns), class_size[c]) for c, ns in zip(colour, adjacency)]
    low = min(rank)
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

    for v, r in enumerate(rank):
        if r == low:
            visit(v, (-1, 0, ()))
    return tuple(best)


def _search_key(key, cap: int) -> tuple[str, int]:
    """(outcome, length) of the coloured-walk search on the graph a key describes."""
    size = len(key)
    g = Graph(size, [(j, i) for i, (_, _, back) in enumerate(key) for j in back])
    colours = [c for _, c, _ in key]
    res = max_coloured_walk(g, Colouring(size, max(colours) + 1, colours), cap)
    return res.outcome, res.length


# The key of a vertex that no edge of another colour meets.
_POINT = ((0,), ((),))


def _coloured_components(adjacency, images):
    """Each component of the graph left when the colouring images drops its
    monochromatic edges, as a key: the component's colours, renamed by first
    use, and its adjacency in local indices, both over its vertices in
    increasing order.  Two components with equal keys are the same coloured
    graph up to relabelling, so they have the same coloured walks."""
    nbrs = [[w for w in ns if images[w] != c] for ns, c in zip(adjacency, images)]
    seen = [False] * len(images)
    for s, ns in enumerate(nbrs):
        if not ns:
            yield _POINT
            continue
        if seen[s]:
            continue
        seen[s] = True
        verts = [s]
        for v in verts:  # breadth first: verts grows while it is read
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    verts.append(w)
        verts.sort()
        local = dict(zip(verts, range(len(verts))))
        rename: dict[int, int] = {}
        yield (tuple([rename.setdefault(images[v], len(rename)) for v in verts]),
               tuple([tuple(map(local.__getitem__, nbrs[v])) for v in verts]))


def _solve(component, cap: int, solved: dict, searched: dict) -> tuple[str, int]:
    """(outcome, length) of a component key that solved does not hold.

    Its quotient, in the same (colours, adjacency) form, is a coloured graph
    with the same walks, so it is looked up in solved as well, then by its
    canonical key in searched; only a quotient new up to isomorphism is
    searched."""
    quotient = _quotient(*component)
    found = solved.get(quotient)
    if found is None:
        key = _canonical_key(*quotient)
        found = searched.get(key)
        if found is None:
            found = searched[key] = _search_key(key, cap)
        solved[quotient] = found
    return found


def verify_gamma_lower_bound(g: Graph, k: int, cap: int) -> GammaLowerBoundReport:
    """Confirm that no k-colouring of g admits a square-free walk of cap length.

    All colourings are enumerated up to permutation of the k colours (the
    square-freeness of a coloured walk is invariant under relabelling the
    colours).  A walk never takes a monochromatic edge and stays in one
    component of what is left, so each colouring's result is the best over
    those components, and each distinct component (_coloured_components) is
    solved once.  A new one is reduced to its quotient (see _quotient), a
    (colours, adjacency) pair like it whose walks have the same colour words,
    and each distinct quotient, up to isomorphism and colour renaming, is
    searched once.  Refinement never lets
    a vertex's class depend on another component, so a component has the
    quotient it would have inside the whole graph.  Verdict True means every
    class exhausted below the cap.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    solved: dict[tuple, tuple[str, int]] = {}  # (colours, adjacency) -> (outcome, length)
    searched: dict[tuple, tuple[str, int]] = {}  # canonical key -> (outcome, length)
    entries = []
    verdict = True
    for images in _canonical_colourings(g.vertex_count, k):
        outcome, length = "max_length", 0
        for component in _coloured_components(g.adjacency, images):
            found = solved.get(component)
            if found is None:
                found = solved[component] = _solve(component, cap, solved, searched)
            if found[0] == "bound_exceeded":
                outcome, length = found
                verdict = False
                break
            length = max(length, found[1])
        entries.append((images, outcome, length))
    return GammaLowerBoundReport(verdict, k, cap, tuple(entries))
