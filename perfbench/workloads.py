"""Seeded op lists for the four benchmark workloads, with independent answer checks.

A workload is a sequence of rounds.  Every round of a workload has the same
composition: the same slots (op kind, stream or graph family) with sizes on a
fixed log-spaced grid, each jittered by a few percent.  So every round, and
every run whatever its seed, does about the same amount of work, and the
latency percentiles fall on the same slots.  A round holds a number of ops
ending in 5 (25, 35, 45, 55, failed ops included), so that the 50th and 90th
percentile positions fall in the middle of one slot's samples rather than on
the boundary between two slots.  The seed decides the content:
the jitter, planted positions, factors, vertex labels, edge order, random
graphs, CLI words and files.

An op is one user-level call: one stream prefix generated and checked, one
graph classified, one search or sweep, one CLI request.  Ops reach the library
only through ``API`` (and ``sqwalk.cli.main``), so the tracer can rebind those
names for a traced run.  Every op builds its own streams and graphs; inputs
that are data (edge-list texts, planted words, CLI argv) are made before the
round is timed.

Each op's ``check`` compares the result with an answer the benchmark knows
without asking the library: from the theorems (stream prefixes are square-free
and lie on their graph), from construction (planted squares, the exists /
gamma / witness of each graph family) or from the paper (P4 = 15 with 2
witnesses, A4 tournament = 20, the gamma verdicts, the 02120 counterexample).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import sys
import types
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from sqwalk import cli, graphs, morphisms, search, walks, words

WORKLOADS = ("streams", "classify", "search", "cli")


class WrongAnswer(Exception):
    """An op returned a result that contradicts the independently known answer."""


# Every library entry point an op uses.  The tracer rebinds these attributes
# for a traced run; untraced runs call the library functions directly.
API = types.SimpleNamespace(
    Word=words.Word,
    find_square=words.find_square,
    brute_force_square_check=words.brute_force_square_check,
    is_tournament_word=words.is_tournament_word,
    is_reduced_free_group_word=words.is_reduced_free_group_word,
    preservation_test=morphisms.preservation_test,
    crochemore_uniform_test=morphisms.crochemore_uniform_test,
    alignment_test=morphisms.alignment_test,
    Graph=graphs.Graph,
    parse_graph=graphs.parse_graph,
    cycle_graph=graphs.cycle_graph,
    path_graph=graphs.path_graph,
    claw_graph=graphs.claw_graph,
    classify=walks.classify,
    render_classification=walks.render_classification,
    is_g_word=walks.is_g_word,
    thue_stream=walks.thue_stream,
    p5_walk_stream=walks.p5_walk_stream,
    c4_walk_uniform_stream=walks.c4_walk_uniform_stream,
    dean_reduced_stream=walks.dean_reduced_stream,
    tournament5_stream=walks.tournament5_stream,
    claw_walk_stream=walks.claw_walk_stream,
    cycle_walk_stream=walks.cycle_walk_stream,
    longest_square_free_walk=search.longest_square_free_walk,
    longest_square_free_tournament=search.longest_square_free_tournament,
    verify_gamma_lower_bound=search.verify_gamma_lower_bound,
    main=cli.main,
)


@dataclass
class Op:
    kind: str                       # e.g. "generate", "classify", "cli"
    key: tuple                      # the op's inputs, for determinism tests
    run: Callable[[], Any]
    check: Callable[[Any], None]    # raises WrongAnswer
    work: int                       # letters, vertices, searches or requests
    tags: dict = field(default_factory=dict)


# ---------------------------------------------------------------- seeding

def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _grid(lo: float, hi: float, count: int) -> list[float]:
    """count sizes spaced evenly on a log scale strictly inside [lo, hi]."""
    return [lo * (hi / lo) ** ((k + 0.5) / count) for k in range(count)]


def _jitter(size: float, rng: random.Random) -> int:
    return max(1, int(round(size * rng.uniform(0.97, 1.03))))


def _digest(data) -> int:
    """Stable digest of an input, for comparing op lists across processes."""
    if not isinstance(data, str):
        data = ",".join(map(str, data))
    return zlib.crc32(data.encode())


# ------------------------------------------------ independent answer checks

def _require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def is_square_at(letters, p: int, h: int) -> bool:
    return h >= 1 and p >= 0 and p + 2 * h <= len(letters) \
        and tuple(letters[p:p + h]) == tuple(letters[p + h:p + 2 * h])


def first_square(letters, max_half: Optional[int] = None) -> Optional[tuple[int, int]]:
    """Shortest half-length square, leftmost first, with half-length <= max_half."""
    n = len(letters)
    top = n // 2 if max_half is None else min(max_half, n // 2)
    for h in range(1, top + 1):
        for p in range(n - 2 * h + 1):
            if letters[p] == letters[p + h] and letters[p:p + h] == letters[p + h:p + 2 * h]:
                return (p, h)
    return None


def walks_on(letters, edges: set) -> bool:
    return all((a, b) in edges for a, b in zip(letters, letters[1:]))


def tournament_conflict(letters) -> Optional[int]:
    seen = set()
    for p, (a, b) in enumerate(zip(letters, letters[1:])):
        if a != b and (b, a) in seen:
            return p
        seen.add((a, b))
    return None


_REDUCTIONS = {(0, 2), (2, 0), (1, 3), (3, 1)}


def reduction_violation(letters) -> Optional[int]:
    for p, pair in enumerate(zip(letters, letters[1:])):
        if pair in _REDUCTIONS:
            return p
    return None


def _sym(edges) -> set:
    out = set()
    for a, b in edges:
        out.add((a, b))
        out.add((b, a))
    return out


def _cycle_edges(n):
    return _sym((i, (i + 1) % n) for i in range(n))


def _path_edges(n):
    return _sym((i, i + 1) for i in range(n - 1))


_CLAW_EDGES = _sym([(0, 1), (0, 2), (0, 3)])


# ------------------------------------------------------------------ streams

# name -> (constructor, edge set of its graph or None, extra predicates)
def _stream_spec(name: str):
    if name.startswith("cycle:"):
        n = int(name.split(":")[1])
        return (lambda: API.cycle_walk_stream(n)), (lambda: API.cycle_graph(n)), \
            _cycle_edges(n), ()
    return {
        "thue": (lambda: API.thue_stream(), lambda: API.cycle_graph(3), _cycle_edges(3), ()),
        "p5": (lambda: API.p5_walk_stream(), lambda: API.path_graph(5), _path_edges(5), ()),
        "c4-uniform": (lambda: API.c4_walk_uniform_stream(), lambda: API.cycle_graph(4),
                       _cycle_edges(4), ()),
        "dean": (lambda: API.dean_reduced_stream(), lambda: API.cycle_graph(4),
                 _cycle_edges(4), ("reduced",)),
        "tournament5": (lambda: API.tournament5_stream(), None, None, ("tournament",)),
        "claw": (lambda: API.claw_walk_stream(API.claw_graph(), 0), lambda: API.claw_graph(),
                 _CLAW_EDGES, ()),
    }[name]


STREAM_NAMES = ("thue", "p5", "c4-uniform", "dean", "tournament5", "claw")


def _generate_op(name: str, n: int) -> Op:
    build, graph, edges, extra = _stream_spec(name)

    def run():
        w = build().prefix(n)
        verdicts = []
        if graph is not None:
            verdicts.append(API.is_g_word(graph(), w))
        if "tournament" in extra:
            verdicts.append(API.is_tournament_word(w))
        if "reduced" in extra:
            verdicts.append(API.is_reduced_free_group_word(w))
        return w, verdicts

    def check(result):
        w, verdicts = result
        letters = w.letters
        _require(len(letters) == n, f"{name}: prefix length {len(letters)} != {n}")
        _require(all(v is True for v in verdicts), f"{name}: predicate rejected the prefix")
        if edges is not None:
            _require(walks_on(letters, edges), f"{name}: prefix leaves its graph")
        if "tournament" in extra:
            _require(tournament_conflict(letters) is None, f"{name}: not a tournament word")
        if "reduced" in extra:
            _require(reduction_violation(letters) is None, f"{name}: not reduced")

    return Op("generate", ("generate", name, n), run, check, n)


def _verify_op(name: str, n: int, with_oracle: bool) -> Op:
    build = _stream_spec(name)[0]

    def run():
        w = build().prefix(n)
        hit = API.find_square(w)
        oracle = API.brute_force_square_check(w) if with_oracle else True
        return w, hit, oracle

    def check(result):
        w, hit, oracle = result
        _require(len(w) == n, f"{name}: prefix length {len(w)} != {n}")
        _require(hit is None, f"{name}: find_square reported {hit} in a square-free prefix")
        _require(oracle is True, f"{name}: oracle found a square in a square-free prefix")

    return Op("verify", ("verify", name, n, with_oracle), run, check, n)


def plant_square(letters: tuple, p: int, h: int) -> tuple:
    """letters with its factor u = letters[p:p+h] doubled in place: ...uu..."""
    return letters[:p + h] + letters[p:p + h] + letters[p + h:]


def _planted_op(word, h: int, source: str) -> Op:
    letters = word.letters

    def run():
        return API.find_square(word)

    def check(hit):
        _require(hit is not None, f"planted square (half {h}) in {source} not found")
        p, half = hit
        _require(is_square_at(letters, p, half), f"reported {hit} is not a square")
        _require(half <= h, f"reported half-length {half} exceeds the planted {h}")

    return Op("planted", ("planted", source, len(letters), h, _digest(letters)), run, check,
              len(letters))


class PrefixPool:
    """Square-free source words for planted ops, made once before timing."""

    def __init__(self):
        self._words: dict[str, tuple] = {}

    def get(self, name: str, n: int) -> tuple:
        have = self._words.get(name, ())
        if len(have) < n:
            have = _stream_spec(name)[0]().prefix(max(n, 2 * len(have))).letters
            self._words[name] = have
        return have[:n]


_VERIFY_SOURCES = STREAM_NAMES + ("cycle:24",)
_PLANT_SOURCES = STREAM_NAMES + ("cycle:5", "cycle:12", "cycle:30")


def streams_round(seed: int, r: int, pool: PrefixPool) -> list[Op]:
    """Generation (linear), exact verification (quadratic today) and planted squares."""
    rng = _rng("streams", seed, "round", r)
    ops = []
    # every stream, with the sizes rotating over the streams from round to round
    sizes = _grid(1e4, 2e5, len(STREAM_NAMES))
    for k, name in enumerate(STREAM_NAMES):
        ops.append(_generate_op(name, _jitter(sizes[(k + r) % len(sizes)], rng)))
    for n in (6, 16, 36):
        ops.append(_generate_op(f"cycle:{n}", _jitter(2e4, rng)))
    cheap = ("thue", "p5", "c4-uniform", "dean")
    ops.append(_generate_op(cheap[r % len(cheap)], _jitter(9e5, rng)))
    # exact verification from 1e3 to 2.5e4 letters; the two shortest also by the oracle
    for k, size in enumerate(_grid(1e3, 2.5e4, 10)):
        src = _VERIFY_SOURCES[(k + r) % len(_VERIFY_SOURCES)]
        ops.append(_verify_op(src, _jitter(size, rng), k < 2))
    # planted squares: half-lengths from 1 to 2000, three of them past 500
    lengths = _grid(2e3, 2e4, 15)
    for k, half in enumerate(_grid(1, 2000, 15)):
        h = _jitter(half, rng)
        n = max(_jitter(lengths[(k + r) % len(lengths)], rng), 4 * h)
        src = _PLANT_SOURCES[(k + 3 * r) % len(_PLANT_SOURCES)]
        base = pool.get(src, n)
        p = rng.randrange(0, n - h + 1)
        word = API.Word(plant_square(base, p, h), _stream_spec(src)[0]().alphabet_size)
        ops.append(_planted_op(word, h, src))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------- classify

@dataclass
class Part:
    """One connected component before relabelling, with its known verdict."""
    n: int
    edges: list
    exists: bool
    gamma: Optional[int]
    witness: Optional[str]


def star(k: int) -> Part:
    return Part(k + 1, [(0, i) for i in range(1, k + 1)], True, 4, "K13")


def double_star(a: int, b: int) -> Part:
    """Hubs 0-1; hub 0 has a >= 2 leaves, hub 1 has b >= 1: diameter 3."""
    edges = [(0, 1)] + [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)]
    return Part(2 + a + b, edges, True, 4, "K13")


def path_part(m: int) -> Part:
    if m <= 4:
        return Part(m, [(i, i + 1) for i in range(m - 1)], False, None, None)
    return Part(m, [(i, i + 1) for i in range(m - 1)], True, 3, "P5")


def cycle_part(n: int) -> Part:
    verdict = {3: (3, "C3"), 4: (4, "C4")}.get(n, (3, "P5"))
    return Part(n, [(i, (i + 1) % n) for i in range(n)], True, *verdict)


def sparse_part(n: int, rng: random.Random) -> Part:
    """Random tree plus n/4 extra edges and one planted triangle: witness C3."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(n // 4):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    a, b, c = sorted(rng.sample(range(n), 3))
    edges |= {(a, b), (b, c), (a, c)}
    return Part(n, sorted(edges), True, 3, "C3")


def _shape(part: Part) -> str:
    deg = [0] * part.n
    for a, b in part.edges:
        deg[a] += 1
        deg[b] += 1
    if max(deg, default=0) > 2:
        return "other"
    return f"path({part.n})" if len(part.edges) == part.n - 1 else f"cycle({part.n})"


_WITNESS_SIZE = {"C3": 3, "P5": 5, "C4": 4, "K13": 4}


def witness_holds(name: str, vs: tuple, edges: set) -> bool:
    """The witness vertices span the named subgraph (not necessarily induced)."""
    if vs is None or len(vs) != _WITNESS_SIZE[name] or len(set(vs)) != len(vs):
        return False
    if name == "K13":
        return all((vs[0], x) in edges for x in vs[1:])
    ring = list(zip(vs, vs[1:]))
    if name in ("C3", "C4"):
        ring.append((vs[-1], vs[0]))
    return all(pair in edges for pair in ring)


def compose(parts: list[Part], rng: random.Random, comments: bool):
    """Disjoint union under a random relabelling: (text, edges, expected render)."""
    total = sum(p.n for p in parts)
    labels = list(range(total))
    rng.shuffle(labels)
    edges, comps, base = [], [], 0
    for part in parts:
        mine = labels[base:base + part.n]
        edges.extend((mine[a], mine[b]) for a, b in part.edges)
        comps.append((sorted(mine), part))
        base += part.n
    comps.sort(key=lambda c: c[0][0])
    lines = []
    for idx, (vs, part) in enumerate(comps):
        line = f"component={idx} vertices={','.join(map(str, vs))} shape={_shape(part)}"
        if part.exists:
            line += f" exists=true gamma={part.gamma} witness={part.witness}"
        else:
            line += " exists=false"
        lines.append(line)
    found = [part for _, part in comps if part.exists]
    if found:
        g = min(p.gamma for p in found)
        first = next(p for p in found if p.gamma == g)
        head = f"exists=true gamma={g} witness={first.witness}"
    else:
        head = "exists=false"
    rng.shuffle(edges)
    body = [f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}" for a, b in edges]
    if comments:
        body.insert(len(body) // 2, "# edges continue")
        body.insert(0, "")
    text = "\n".join([f"n={total}"] + body) + "\n"
    return text, _sym(edges), "\n".join([head] + lines), total


def _classify_op(family: str, parts: list[Part], rng: random.Random) -> Op:
    text, edges, expected, n = compose(parts, rng, comments=rng.random() < 0.3)

    def run():
        c = API.classify(API.parse_graph(text))
        return c, API.render_classification(c)

    def check(result):
        c, rendered = result
        _require(rendered == expected, f"{family}: rendering differs from the construction")
        if c.exists:
            _require(witness_holds(c.witness, c.witness_vertices, edges),
                     f"{family}: witness {c.witness} {c.witness_vertices} not in the graph")
        for comp in c.components:
            if comp.exists:
                _require(witness_holds(comp.witness, comp.witness_vertices, edges),
                         f"{family}: component witness not in the graph")

    return Op("classify", ("classify", family, n, _digest(text)), run, check, n)


def _forest(comps: int, rng: random.Random) -> list[Part]:
    """comps paths on 1, 2, 3 and 4 vertices in equal numbers, in seeded order."""
    sizes = [1 + i % 4 for i in range(comps)]
    rng.shuffle(sizes)
    return [path_part(m) for m in sizes]


def classify_round(seed: int, r: int) -> list[Op]:
    """Stars, double stars, path forests, cycles, sparse graphs and their unions."""
    rng = _rng("classify", seed, "round", r)
    j = lambda size: _jitter(size, rng)  # noqa: E731
    ops = []
    for size in (20, 150, 600):
        ops.append(_classify_op("star", [star(j(size))], rng))
    for size in (100, 700):
        total = j(size)
        a = max(2, int(total * rng.uniform(0.45, 0.55)))
        ops.append(_classify_op("double_star", [double_star(a, max(1, total - a))], rng))
    for comps in (15, 120, 700):
        ops.append(_classify_op("path_forest", _forest(j(comps), rng), rng))
    for size in (30, 300, 3000):
        ops.append(_classify_op("cycle", [cycle_part(j(size))], rng))
    for size in (50, 400, 3000):
        ops.append(_classify_op("sparse", [sparse_part(j(size), rng)], rng))
    for k, scale in enumerate([30, 150, 500]):
        parts = _forest(j(scale / 3), rng)
        parts += [cycle_part(j(scale / 2)), star(j(scale / 3)), path_part(j(scale / 4))]
        if k != 1:
            parts.append(sparse_part(j(scale / 2), rng))
        rng.shuffle(parts)
        ops.append(_classify_op("union", parts, rng))
    for k in range(8):  # small graphs, the size the CLI usually sees
        parts = [rng.choice([star(rng.randint(3, 8)), cycle_part(rng.randint(3, 12)),
                             path_part(rng.randint(1, 8)), sparse_part(rng.randint(4, 12), rng)])
                 for _ in range(rng.randint(1, 3))]
        ops.append(_classify_op("small", parts, rng))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- search

def _component_paths_only(n: int, edges) -> bool:
    """True iff every component of the graph is a path on at most 4 vertices."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v] - seen:
                seen.add(u)
                stack.append(u)
        m = sum(len(adj[v]) for v in comp) // 2
        if len(comp) > 4 or m != len(comp) - 1 or any(len(adj[v]) > 2 for v in comp):
            return False
    return True


def _check_witnesses(res, length: int, edges: Optional[set], tournament: bool, what: str):
    for w in res.witnesses:
        letters = w.letters
        _require(len(letters) == length, f"{what}: witness of length {len(letters)}")
        _require(first_square(letters) is None, f"{what}: witness {w.text()} has a square")
        if edges is not None:
            _require(walks_on(letters, edges), f"{what}: witness {w.text()} is not a walk")
        if tournament:
            _require(tournament_conflict(letters) is None,
                     f"{what}: witness {w.text()} is not a tournament word")


def _sweep_op(n: int, masks: list[int], label: str) -> Op:
    pairs = list(itertools.combinations(range(n), 2))
    graphs_edges = [[p for k, p in enumerate(pairs) if m >> k & 1] for m in masks]
    expected = [not _component_paths_only(n, e) for e in graphs_edges]

    def run():
        out = []
        for edges in graphs_edges:
            g = API.Graph(n, edges)
            out.append((API.longest_square_free_walk(g, 100), API.classify(g).exists))
        return out

    def check(out):
        for edges, exists, (res, said) in zip(graphs_edges, expected, out):
            _require(said == exists, f"classify({edges}).exists = {said}")
            _require(res.bound_exceeded == exists,
                     f"walk search on {edges}: {res.outcome} {res.length}")
            if not exists:
                _require(res.length < 100, "max_length at the cap")
                _check_witnesses(res, res.length, _sym(edges), False, f"walk on {edges}")

    return Op("sweep", ("sweep", label, n, tuple(masks)), run, check, len(masks))


def _stirling_classes(n: int, k: int) -> int:
    """Colourings of n vertices with at most k colours, up to renaming colours."""
    s = [[0] * (k + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            s[i][j] = j * s[i - 1][j] + s[i - 1][j - 1]
    return sum(s[n][1:])


def search_round(seed: int, r: int) -> list[Op]:
    """The paper's finite results and the n=5 / n=6 walk-search sweeps."""
    rng = _rng("search", seed, "round", r)
    ops = []
    # All 1024 labelled graphs on 5 vertices in the same 16 chunks every round,
    # and 9 chunks of seeded random graphs on 6 vertices, of about equal cost:
    # together they hold the median op.
    for k in range(16):
        ops.append(_sweep_op(5, list(range(64 * k, 64 * k + 64)), f"n5-{k}"))
    for k in range(9):
        ops.append(_sweep_op(6, [rng.getrandbits(15) for _ in range(64)], f"n6-{k}"))

    cap = rng.randint(16, 40)

    def p4_check(res):
        _require(res.outcome == "max_length" and res.length == 15, f"P4: {res.outcome} {res.length}")
        _require(len(res.witnesses) == 2, f"P4: {len(res.witnesses)} witnesses, not 2")
        _check_witnesses(res, 15, _path_edges(4), False, "P4")

    ops.append(Op("walk", ("walk", "p4", cap),
                  lambda: API.longest_square_free_walk(API.path_graph(4), cap), p4_check, 1))

    tcap = rng.randint(21, 40)

    def a4_check(res):
        _require(res.outcome == "max_length" and res.length == 20, f"A4: {res.outcome} {res.length}")
        _require(len(res.witnesses) > 0, "A4: no witnesses")
        _check_witnesses(res, 20, None, True, "A4")

    ops.append(Op("tournament", ("tournament", 4, tcap),
                  lambda: API.longest_square_free_tournament(4, tcap), a4_check, 1))

    gamma_cases = [("c4", 4, True), ("claw", 4, True)] + [(f"c{n}", n, False) for n in range(5, 9)]
    for name, n, verdict in gamma_cases:
        make = (lambda: API.claw_graph()) if name == "claw" else (lambda n=n: API.cycle_graph(n))
        classes = _stirling_classes(n, 3)

        def g_check(rep, name=name, verdict=verdict, classes=classes):
            _require(rep.verdict is verdict, f"gamma-lower {name}: verdict {rep.verdict}")
            _require(len(rep.entries) == classes,
                     f"gamma-lower {name}: {len(rep.entries)} classes, not {classes}")

        ops.append(Op("gamma_lower", ("gamma_lower", name, 3, 100),
                      lambda make=make: API.verify_gamma_lower_bound(make(), 3, 100),
                      g_check, classes))

    def pres_op(m_name, m, max_len, forbid, expected):
        def run():
            return API.preservation_test(m, max_len, [API.Word.from_text(f, 3) for f in forbid])

        def check(hit):
            got = None if hit is None else hit.text()
            _require(got == expected, f"preserve {m_name} {forbid}: {got}, expected {expected}")

        return Op("preserve", ("preserve", m_name, max_len, tuple(forbid)), run, check, 1)

    ops.append(pres_op("alpha-p5", morphisms.ALPHA_P5, 5, ["010", "212"], None))
    ops.append(pres_op("alpha-p5", morphisms.ALPHA_P5, 5, ["010"], "02120"))
    ops.append(pres_op("alpha-c4", morphisms.ALPHA_C4, 7, [], None))

    # (012, 120, 201) maps the square-free word 01 onto 012120 = 0(12)(12)0.
    rotations = morphisms.Morphism(3, 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    for m_name, m, expected in [("alpha-c4", morphisms.ALPHA_C4, True),
                                ("rotations", rotations, False)]:
        ops.append(Op("crochemore", ("crochemore", m_name),
                      lambda m=m: API.crochemore_uniform_test(m),
                      lambda got, e=expected, n=m_name: _require(got is e, f"crochemore {n}: {got}"),
                      1))
    for m_name, m, letters in [("alpha-p5", morphisms.ALPHA_P5, [0, 1]),
                               ("alpha-c4", morphisms.ALPHA_C4, [0, 1, 2, 3])]:
        ops.append(Op("align", ("align", m_name, tuple(letters)),
                      lambda m=m, ls=letters: API.alignment_test(m, ls),
                      lambda got, n=m_name: _require(got is True, f"align {n}: {got}"), 1))

    for name, size in (("c3", 800), ("c4", 800), ("p5", 600), ("claw", 600)):
        cap = _jitter(size, rng)
        make = {"c3": lambda: API.cycle_graph(3), "c4": lambda: API.cycle_graph(4),
                "p5": lambda: API.path_graph(5), "claw": lambda: API.claw_graph()}[name]

        def bx_check(res, cap=cap, name=name):
            _require(res.outcome == "bound_exceeded" and res.length == cap,
                     f"walk {name} cap {cap}: {res.outcome} {res.length}")

        ops.append(Op("walk", ("walk", name, cap),
                      lambda make=make, cap=cap: API.longest_square_free_walk(make(), cap),
                      bx_check, 1))
    # A cap just past the interpreter's recursion limit: the recursive search
    # raises RecursionError here; the op stays and counts as failed until fixed.
    deep = sys.getrecursionlimit() + 100

    def deep_check(res):
        _require(res.outcome == "bound_exceeded" and res.length == deep,
                 f"walk c3 cap {deep}: {res.outcome} {res.length}")

    ops.append(Op("walk", ("walk", "c3", "recursion-limit+100"),
                  lambda: API.longest_square_free_walk(API.cycle_graph(3), deep), deep_check, 1,
                  {"known_defect": "RecursionError in the recursive walk search"}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------- cli

README_CASES = [
    # argv, expected exit code, exact stdout (None: checked by _readme_check)
    (["generate", "thue", "--length", "27"], 0, "012021012102012021020121012\n"),
    (["generate", "p5", "--length", "24"], 0, None),
    (["generate", "cycle:4", "--length", "40"], 0, None),
    (["generate", "c4-uniform", "--length", "12"], 0, "010301210323\n"),
    (["generate", "claw", "--length", "6"], 0, "102030\n"),
    (["generate", "tournament5", "--length", "7"], 0, "0123014\n"),
    (["generate", "dean", "--length", "40"], 0, None),
    (["check", "square-free", "0101"], 1, "square (01)^2 at position 0\n"),
    (["check", "tournament", "010"], 1, None),
    (["check", "reduced", "0103"], 0, ""),
    (["check", "g-word", "01234", "--graph", "p5"], 0, ""),
    (["classify", "--graph", "c4"], 0, None),
    (["classify", "--graph", "p4"], 0, None),
    (["search", "walk", "--graph", "p4", "--cap", "20"], 0, None),
    (["search", "tournament", "--alphabet", "4", "--cap", "30"], 0, None),
    (["search", "gamma-lower", "--graph", "c4", "--colours", "3", "--cap", "100"], 0, None),
    (["morphism", "apply", "tau", "--word", "012"], 0, "012021\n"),
    (["morphism", "crochemore", "alpha-c4"], 0, "pass\n"),
    (["morphism", "preserve", "alpha-p5", "--max-len", "5", "--forbid", "010",
      "--forbid", "212"], 0, "pass\n"),
    (["morphism", "align", "alpha-p5", "--letters", "0,1"], 0, "true\n"),
]

_GENERATED_GRAPHS = {"p5": _path_edges(5), "cycle:4": _cycle_edges(4),
                     "dean": _cycle_edges(4), "c4-uniform": _cycle_edges(4),
                     "thue": _cycle_edges(3), "claw": _CLAW_EDGES}


def _first_line(out: str) -> str:
    return out.split("\n", 1)[0]


def _readme_check(argv, out) -> None:
    """Answers the README states or the theorems imply for each README command."""
    cmd = " ".join(argv)
    if argv[0] == "generate":
        letters = tuple(int(c) for c in out.strip())
        _require(len(letters) == int(argv[3]), f"{cmd}: wrong length")
        _require(first_square(letters) is None, f"{cmd}: output has a square")
        edges = _GENERATED_GRAPHS.get(argv[1])
        if argv[1].startswith("cycle:"):
            edges = _cycle_edges(int(argv[1].split(":")[1]))
        if edges is not None:
            _require(walks_on(letters, edges), f"{cmd}: leaves its graph")
        if argv[1] == "dean":
            _require(reduction_violation(letters) is None, f"{cmd}: not reduced")
    elif argv[:2] == ["check", "tournament"]:
        _require("conflicts with earlier" in out, f"{cmd}: {out!r}")
    elif argv[0] == "classify":
        want = {"c4": "exists=true gamma=4 witness=C4", "p4": "exists=false"}[argv[2]]
        _require(_first_line(out) == want, f"{cmd}: {out!r}")
    elif argv[:2] == ["search", "walk"]:
        lines = out.splitlines()
        _require(lines[0] == "outcome=max_length 15" and
                 sum(ln.startswith("witness=") for ln in lines) == 2, f"{cmd}: {out!r}")
    elif argv[:2] == ["search", "tournament"]:
        _require(_first_line(out) == "outcome=max_length 20", f"{cmd}: {out!r}")
    elif argv[:2] == ["search", "gamma-lower"]:
        _require(out.splitlines()[-1] == "verdict=true", f"{cmd}: {out!r}")


def cli_request(argv: list[str]):
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = API.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(argv: list[str], code: int, check_out: Callable[[str, str], None],
            tags: Optional[dict] = None) -> Op:
    def check(result):
        got, out, err = result
        _require(got == code, f"sqwalk {' '.join(argv)}: exit {got}, expected {code}")
        if code == 2:
            _require(err.startswith("error:") or "usage:" in err,
                     f"sqwalk {' '.join(argv)}: no diagnostic on stderr")
        check_out(out, err)

    return Op("cli", ("cli", tuple(argv), code), lambda: cli_request(argv), check, 1,
              tags or {})


class CliFiles:
    """Edge-list files for the CLI requests, written before timing."""

    def __init__(self, directory: str, seed: int):
        self.dir = directory
        os.makedirs(directory, exist_ok=True)
        rng = _rng("cli", seed, "files")
        self.classify = []
        for k in range(16):
            parts = [rng.choice([star(rng.randint(3, 8)), cycle_part(rng.randint(3, 12)),
                                 path_part(rng.randint(1, 8)), sparse_part(rng.randint(4, 12), rng),
                                 double_star(rng.randint(2, 4), rng.randint(1, 3))])
                     for _ in range(rng.randint(1, 3))]
            text, _, expected, _ = compose(parts, rng, comments=k % 3 == 0)
            self.classify.append((self._write(f"classify{k}.txt", text), expected))
        self.search = []
        pairs = list(itertools.combinations(range(5), 2))
        for k in range(16):
            edges = [p for p in pairs if rng.random() < 0.35]
            text = "\n".join([f"n=5"] + [f"{a} {b}" for a, b in edges]) + "\n"
            self.search.append((self._write(f"search{k}.txt", text),
                                not _component_paths_only(5, edges), _sym(edges)))
        self.bad_graph = self._write("bad.txt", "n=3\n0 1\n1 5\n")

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _square_report_check(letters, planted_half):
    def check(out, _err):
        head = "square ("
        _require(out.startswith(head), f"no square reported: {out!r}")
        u, _, pos = out[len(head):].strip().partition(")^2 at position ")
        p, h = int(pos), len(u)
        _require(is_square_at(letters, p, h), f"reported ({u})^2 at {p} is not a square")
        _require(tuple(int(c) for c in u) == tuple(letters[p:p + h]), "wrong factor printed")
        _require(h <= planted_half and first_square(letters, h - 1) is None and
                 first_square(letters[:p + 2 * h - 1], h) is None,
                 f"({u})^2 at {p} is not the shortest leftmost square")
    return check


def _empty_out(out, _err):
    _require(out == "", f"unexpected output {out!r}")


def cli_round(seed: int, r: int, files: CliFiles, pool: PrefixPool) -> list[Op]:
    """README commands, seeded short words for every check predicate, graph files,
    inputs that must end in exit 2, and one known crash."""
    rng = _rng("cli", seed, "round", r)
    ops = []
    for argv, code, exact in README_CASES:
        def check_out(out, _err, argv=argv, exact=exact):
            if exact is not None:
                _require(out == exact, f"sqwalk {' '.join(argv)}: {out!r}")
            _readme_check(argv, out)
        ops.append(_cli_op(list(argv), code, check_out))

    def factor(name, lo, hi):
        n = rng.randint(lo, hi)
        base = pool.get(name, 4000)
        p = rng.randrange(0, len(base) - n)
        return base[p:p + n]

    text = lambda ls: "".join(map(str, ls))  # noqa: E731
    for k in range(8):  # square-free: factors of square-free streams / planted squares
        letters = factor(rng.choice(["thue", "p5", "c4-uniform", "tournament5"]), 5, 200)
        if k % 2:
            h = rng.randint(1, max(1, min(20, len(letters) // 3)))
            letters = plant_square(letters, rng.randrange(0, len(letters) - h + 1), h)
            ops.append(_cli_op(["check", "square-free", text(letters)], 1,
                               _square_report_check(letters, h)))
        else:
            ops.append(_cli_op(["check", "square-free", text(letters)], 0, _empty_out))
    for k in range(6):  # g-word on a built-in graph
        name, graph = rng.choice([("p5", "p5"), ("c4-uniform", "c4"), ("claw", "claw")])
        letters = list(factor(name, 5, 200))
        edges = _GENERATED_GRAPHS[name]
        want = 0
        if k % 2:
            n_v = 5 if graph == "p5" else 4
            bad = [(a, b) for a in range(n_v) for b in range(n_v) if (a, b) not in edges]
            a, b = rng.choice(bad)
            p = rng.randrange(0, len(letters) - 1)
            letters[p:p + 2] = [a, b]
            want = 1

        def g_out(out, _err, letters=letters, edges=edges, want=want):
            if want == 0:
                _require(out == "", f"unexpected output {out!r}")
                return
            p = next(i for i, pair in enumerate(zip(letters, letters[1:])) if pair not in edges)
            pair = f"{letters[p]}{letters[p + 1]}"
            _require(out == f"non-edge {pair} at position {p}\n", f"g-word: {out!r}")

        ops.append(_cli_op(["check", "g-word", text(letters), "--graph", graph], want, g_out))
    for k in range(4):  # tournament
        letters = list(factor("tournament5", 5, 200))
        if k % 2:
            a, b = letters[0], letters[1]
            letters += [b, a]

        def t_out(out, _err, letters=letters):
            p = tournament_conflict(letters)
            if p is None:
                _require(out == "", f"unexpected output {out!r}")
            else:
                _require(out.startswith(f"pair {letters[p]}{letters[p + 1]} at position {p} "),
                         f"tournament: {out!r}")

        code = 1 if tournament_conflict(letters) is not None else 0
        ops.append(_cli_op(["check", "tournament", text(letters)], code, t_out))
    for k in range(4):  # reduced
        letters = list(factor("dean", 5, 200))
        if k % 2:
            p = rng.randrange(0, len(letters) - 1)
            letters[p:p + 2] = list(rng.choice(sorted(_REDUCTIONS)))

        def r_out(out, _err, letters=letters):
            p = reduction_violation(letters)
            if p is None:
                _require(out == "", f"unexpected output {out!r}")
            else:
                _require(out == f"forbidden factor {letters[p]}{letters[p + 1]} at position {p}\n",
                         f"reduced: {out!r}")

        code = 1 if reduction_violation(letters) is not None else 0
        ops.append(_cli_op(["check", "reduced", text(letters)], code, r_out))
    for k in range(4):  # classify an edge-list file
        path, expected = files.classify[(4 * r + k) % len(files.classify)]
        ops.append(_cli_op(["classify", "--graph", path], 0,
                           lambda out, _err, e=expected: _require(out == e + "\n",
                                                                  f"classify: {out!r}")))
    for k in range(2):  # walk search on an edge-list file
        path, exists, edges = files.search[(2 * r + k) % len(files.search)]
        cap = rng.randint(30, 100)

        def s_out(out, _err, exists=exists, cap=cap, edges=edges):
            first = _first_line(out)
            if exists:
                _require(first == f"outcome=bound_exceeded {cap}", f"search: {out!r}")
                return
            _require(first.startswith("outcome=max_length "), f"search: {out!r}")
            for ln in out.splitlines():
                if ln.startswith("witness="):
                    letters = tuple(int(c) for c in ln[len("witness="):])
                    _require(first_square(letters) is None and walks_on(letters, edges),
                             f"search witness {ln}")

        ops.append(_cli_op(["search", "walk", "--graph", path, "--cap", str(cap)], 0, s_out))
    for k in range(2):  # seeded generate
        name = rng.choice(["thue", "p5", "c4-uniform", "dean", "claw", "cycle:5", "cycle:9"])
        n = rng.randint(10, 300)
        argv = ["generate", name, "--length", str(n)]

        def gen_out(out, _err, argv=argv):
            _readme_check(argv, out)

        ops.append(_cli_op(argv, 0, gen_out))
    for argv in (["check", "square-free", "01a2"],
                 ["generate", "nosuch", "--length", "5"],
                 ["morphism", "apply", "nosuch-morphism", "--word", "01"],
                 ["classify", "--graph", files.bad_graph]):
        ops.append(_cli_op(argv, 2, lambda out, _err: None))
    # The cycle stream nests one generator per vertex: RecursionError today.
    ops.append(_cli_op(["generate", "cycle:2000", "--length", "10"], 0,
                       lambda out, _err: _require(len(out.strip()) == 10, f"cycle:2000 {out!r}"),
                       tags={"known_defect": "RecursionError in cycle_walk_stream"}))
    rng.shuffle(ops)
    return ops


class Workload:
    """Deterministic round builder for one workload and seed."""

    def __init__(self, name: str, seed: int, scratch: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r} (one of {', '.join(WORKLOADS)})")
        self.name, self.seed = name, seed
        self.pool = PrefixPool()
        self.files = CliFiles(scratch, seed) if name == "cli" else None

    def round(self, r: int) -> list[Op]:
        if self.name == "streams":
            return streams_round(self.seed, r, self.pool)
        if self.name == "classify":
            return classify_round(self.seed, r)
        if self.name == "search":
            return search_round(self.seed, r)
        return cli_round(self.seed, r, self.files, self.pool)
