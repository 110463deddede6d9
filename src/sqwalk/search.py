"""Bounded exhaustive backtracking searches for extremal square-free words.

Each search either exhausts its space below the cap (outcome max_length, with
every witness of that length) or finds a word of cap length (outcome
bound_exceeded, evidence of an unbounded family).  Reaching the cap is never
conflated with a proven maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
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
    """Outcome of sweeping every k-colouring class of a graph."""

    verdict: bool  # True: every colouring class stays finite below the cap
    colours: int
    cap: int
    entries: tuple[tuple[Colouring, SearchResult], ...]

    def __bool__(self) -> bool:
        return self.verdict

    def render(self) -> str:
        lines = []
        for phi, res in self.entries:
            phi_text = Word(phi.colours, phi.target_alphabet_size).text()
            lines.append(f"colouring={phi_text} outcome={res.outcome} {res.length}")
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


def verify_gamma_lower_bound(g: Graph, k: int, cap: int) -> GammaLowerBoundReport:
    """Confirm that no k-colouring of g admits a square-free walk of cap length.

    All colourings are enumerated up to permutation of the k colours (the
    square-freeness of a coloured walk is invariant under relabelling the
    colours).  Verdict True means every class exhausted below the cap.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = []
    verdict = True
    for images in _canonical_colourings(g.vertex_count, k):
        phi = Colouring(g.vertex_count, k, images)
        res = max_coloured_walk(g, phi, cap)
        if res.bound_exceeded:
            verdict = False
        entries.append((phi, res))
    return GammaLowerBoundReport(verdict, k, cap, tuple(entries))
