"""Command line front end: generate, check, classify, search, morphism."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from . import search as search_mod
from .graphs import Graph, claw_graph, cycle_graph, parse_graph, path_graph
from .morphisms import (BUILTIN_MORPHISMS, Morphism, alignment_test, apply,
                        crochemore_uniform_test, parse_morphism,
                        preservation_test)
from .walks import (c4_walk_uniform_stream, claw_walk_stream, classify,
                    cycle_walk_stream, dean_reduced_stream, find_non_edge,
                    p5_walk_stream, render_classification, thue_stream,
                    tournament5_stream)
from .words import (Word, find_reduction_violation, find_square,
                    find_tournament_conflict)

_BUILTIN_GRAPHS = {
    "p3": lambda: path_graph(3),
    "p4": lambda: path_graph(4),
    "p5": lambda: path_graph(5),
    "c3": lambda: cycle_graph(3),
    "c4": lambda: cycle_graph(4),
    "c5": lambda: cycle_graph(5),
    "c6": lambda: cycle_graph(6),
    "claw": claw_graph,
}

# search gamma-lower refuses a graph with more colouring classes than this.
# A class takes from about 30 us, where components repeat (the double star
# S(4,4)), to 2 ms, where most classes have a quotient of their own (a random
# 11-vertex graph of edge density 0.3), so a sweep this long takes from half
# a minute to over half an hour.
MAX_GAMMA_LOWER_CLASSES = 10**6

_STREAMS = "thue, p5, cycle:<n>, c4-uniform, claw, tournament5, dean"

_EPILOG = """\
built-in graphs (usable wherever --graph takes a file): p3 p4 p5 c3 c4 c5 c6 claw
built-in morphisms: tau alpha-p5 beta-p5 phi-p5 alpha-c4 alpha-t5
streams: %s
""" % _STREAMS


def _load_graph(spec: str) -> Graph:
    if spec in _BUILTIN_GRAPHS:
        return _BUILTIN_GRAPHS[spec]()
    with open(spec, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _load_morphism(spec: str) -> Morphism:
    if spec in BUILTIN_MORPHISMS:
        return BUILTIN_MORPHISMS[spec]
    if not os.path.exists(spec):
        raise ValueError(f"unknown morphism {spec!r} (not a built-in, not a file)")
    with open(spec, "r", encoding="utf-8") as fh:
        return parse_morphism(fh.read())


def cmd_generate(args) -> int:
    if args.length < 0:
        raise ValueError("--length must be >= 0")
    name = args.stream
    if name.startswith("cycle:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed cycle stream name {name!r}") from None
        stream = cycle_walk_stream(n)
    elif name == "thue":
        stream = thue_stream()
    elif name == "p5":
        stream = p5_walk_stream()
    elif name == "c4-uniform":
        stream = c4_walk_uniform_stream()
    elif name == "dean":
        stream = dean_reduced_stream()
    elif name == "tournament5":
        stream = tournament5_stream()
    elif name == "claw":
        g = _load_graph(args.graph) if args.graph else claw_graph()
        stream = claw_walk_stream(g, args.hub)
    else:
        raise ValueError(f"unknown stream {name!r} (streams: {_STREAMS})")
    print(stream.prefix(args.length).text())
    return 0


def _word_argument(args) -> str:
    if args.word == "-":
        return sys.stdin.read().strip()
    return args.word


def cmd_check(args) -> int:
    if args.predicate == "square-free":
        w = Word.from_text(_word_argument(args))
        hit = find_square(w)
        if hit is None:
            return 0
        p, half = hit
        u = Word(w[p:p + half], w.alphabet_size)
        print(f"square ({u.text()})^2 at position {p}")
        return 1
    if args.predicate == "g-word":
        if not args.graph:
            raise ValueError("g-word check needs --graph")
        g = _load_graph(args.graph)
        w = Word.from_text(_word_argument(args), alphabet_size=g.vertex_count)
        hit = find_non_edge(g, w)
        if hit is None:
            return 0
        p, (a, b) = hit
        print(f"non-edge {Word((a, b), g.vertex_count).text()} at position {p}")
        return 1
    if args.predicate == "tournament":
        w = Word.from_text(_word_argument(args))
        hit = find_tournament_conflict(w)
        if hit is None:
            return 0
        p, (a, b) = hit
        pair = Word((a, b), w.alphabet_size).text()
        rev = Word((b, a), w.alphabet_size).text()
        print(f"pair {pair} at position {p} conflicts with earlier {rev}")
        return 1
    # "reduced": argparse's choices admit no other predicate
    w = Word.from_text(_word_argument(args), alphabet_size=4)
    hit = find_reduction_violation(w)
    if hit is None:
        return 0
    p, (a, b) = hit
    print(f"forbidden factor {Word((a, b), 4).text()} at position {p}")
    return 1


def cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    print(render_classification(classify(g)))
    return 0


def cmd_search(args) -> int:
    if args.kind == "walk":
        if not args.graph:
            raise ValueError("walk search needs --graph")
        cap = args.cap if args.cap is not None else 200
        res = search_mod.longest_square_free_walk(_load_graph(args.graph), cap)
        print(res.render())
        return 0
    if args.kind == "tournament":
        if args.alphabet is None:
            raise ValueError("tournament search needs --alphabet")
        cap = args.cap if args.cap is not None else 200
        res = search_mod.longest_square_free_tournament(args.alphabet, cap)
        print(res.render())
        return 0
    # "gamma-lower": argparse's choices admit no other kind
    if not args.graph:
        raise ValueError("gamma-lower needs --graph")
    if args.colours is None:
        raise ValueError("gamma-lower needs --colours")
    cap = args.cap if args.cap is not None else 100
    g = _load_graph(args.graph)
    limit = MAX_GAMMA_LOWER_CLASSES
    if search_mod.colouring_class_count(g.vertex_count, args.colours, limit) > limit:
        raise ValueError(
            f"gamma-lower on {g.vertex_count} vertices with {args.colours} colours "
            f"would sweep more than {limit} colouring classes")
    report = search_mod.verify_gamma_lower_bound(g, args.colours, cap)
    print(report.render())
    return 0


def cmd_morphism(args) -> int:
    m = _load_morphism(args.name)
    if args.action == "apply":
        if args.word is None:
            raise ValueError("morphism apply needs --word")
        w = Word.from_text(args.word, alphabet_size=m.source_alphabet_size)
        print(apply(m, w).text())
        return 0
    if args.action == "crochemore":
        print("pass" if crochemore_uniform_test(m) else "fail")
        return 0
    if args.action == "preserve":
        forbidden = [Word.from_text(f, alphabet_size=m.source_alphabet_size)
                     for f in (args.forbid or [])]
        hit = preservation_test(m, args.max_len, forbidden)
        if hit is None:
            print("pass")
        else:
            print("fail")
            print(f"counterexample={hit.text()}")
        return 0
    # "align": argparse's choices admit no other action
    if not args.letters:
        raise ValueError("morphism align needs --letters")
    ok = alignment_test(m, Word.from_text(args.letters, m.source_alphabet_size))
    print("true" if ok else "false")
    return 0


@functools.cache  # one parser per process: building it costs more than most commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqwalk",
        description="square-free walks on labelled graphs: generators, checkers, "
                    "classifier and exhaustive searches",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="print a prefix of a built-in walk stream")
    p.add_argument("stream", help=f"one of: {_STREAMS}")
    p.add_argument("--length", type=int, required=True, help="prefix length")
    p.add_argument("--graph", help="graph for the claw stream (built-in name or file)")
    p.add_argument("--hub", type=int, default=0, help="hub vertex for the claw stream")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="test a predicate; exit 0 holds / 1 fails")
    p.add_argument("predicate", choices=["square-free", "g-word", "tournament", "reduced"])
    p.add_argument("word", help='word in digit format, or "-" to read stdin')
    p.add_argument("--graph", help="graph for the g-word predicate")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="existence and colour number of a graph")
    p.add_argument("--graph", required=True, help="built-in name or edge-list file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("search", help="bounded exhaustive searches")
    p.add_argument("kind", choices=["walk", "tournament", "gamma-lower"])
    p.add_argument("--graph", help="built-in name or edge-list file")
    p.add_argument("--alphabet", type=int, help="alphabet size (tournament search)")
    p.add_argument("--colours", type=int, help="number of colours (gamma-lower)")
    p.add_argument("--cap", type=int, help="search cap (default 200; 100 for gamma-lower)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("morphism", help="apply or test a morphism")
    p.add_argument("action", choices=["apply", "crochemore", "preserve", "align"])
    p.add_argument("name", help="built-in morphism name or definition file")
    p.add_argument("--word", help="input word for apply")
    p.add_argument("--max-len", type=int, default=5, help="sweep length for preserve")
    p.add_argument("--forbid", action="append", help="forbidden factor (repeatable)")
    p.add_argument("--letters", help="letters for align, as a word")
    p.set_defaults(func=cmd_morphism)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage message
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
