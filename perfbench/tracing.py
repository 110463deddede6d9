"""Spans and counts around calls into each sqwalk module, for the traced run.

Nothing under src/ is instrumented.  For a traced round the tracer rebinds
names at the layer boundaries and restores them afterwards:

- the benchmark's own calls, through ``workloads.API``;
- calls between modules, in the calling module's namespace: walks -> the
  graphs detectors, verify_gamma_lower_bound -> max_coloured_walk,
  preservation_test and crochemore_uniform_test -> is_square_free, and cli ->
  the library (including ``search_mod.<search>``, looked up on the search
  module);
- ``InfiniteWordStream.prefix`` on the class, since streams are objects.

A span is (name, start, end, parent span, op id).  Spans stay in memory and
are written out when the run ends.  A layer is the first component of a span
name; its self time is its spans' time minus the time of their child spans.
The root span of every op is ``bench.op``, so the ``bench`` layer's self time
is op time spent outside the library.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from sqwalk import cli, morphisms, search, walks

LAYERS = ("words", "morphisms", "graphs", "walks", "search", "cli", "bench")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self._saved: list = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".exceptions"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result, spans[parent][0] if parent >= 0 else None)
            return result

        return traced

    def install(self, api) -> None:
        for name, targets, hook in _plan(api):
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# -------------------------------------------------------------------- hooks

def _square_hook(counts, args, result, parent):
    n = len(args[0])
    counts["words.find_square.letters"] += n
    if parent == "morphisms.preservation_test":
        counts["morphisms.preservation_test.square_checks"] += 1
        counts["morphisms.preservation_test.image_letters_checked"] += n


def _letters_hook(key):
    def hook(counts, args, result, parent):
        counts[key] += len(args[0])
    return hook


def _prefix_hook(counts, args, result, parent):
    counts["morphisms.prefix.letters"] += args[1]


def _edges_hook(counts, args, result, parent):
    counts["graphs.parse_graph.edges"] += len(result.edges)


def _hit_hook(key):
    def hook(counts, args, result, parent):
        counts[key] += result is not None
    return hook


def _nodes_hook(key):
    def hook(counts, args, result, parent):
        counts[key] += result.nodes_explored
    return hook


def _classes_hook(counts, args, result, parent):
    counts["search.gamma_lower.classes"] += len(result.entries)


def _exit_hook(counts, args, result, parent):
    counts[f"cli.exit_code.{result}"] += 1


_STREAMS = ("thue_stream", "p5_walk_stream", "c4_walk_uniform_stream", "dean_reduced_stream",
            "tournament5_stream", "claw_walk_stream", "cycle_walk_stream")


def _plan(api):
    """(span name, [(owner, attribute)], hook) for every traced boundary."""
    plan = [
        ("words.find_square", [(api, "find_square"), (cli, "find_square"),
                               (morphisms, "is_square_free")], _square_hook),
        ("words.oracle", [(api, "brute_force_square_check")],
         _letters_hook("words.oracle.letters")),
        ("words.predicates", [(api, "is_tournament_word"), (api, "is_reduced_free_group_word"),
                              (cli, "find_tournament_conflict"),
                              (cli, "find_reduction_violation")], None),
        ("morphisms.prefix", [(morphisms.InfiniteWordStream, "prefix")], _prefix_hook),
        ("morphisms.preservation_test", [(api, "preservation_test"),
                                         (cli, "preservation_test")], None),
        ("morphisms.crochemore", [(api, "crochemore_uniform_test"),
                                  (cli, "crochemore_uniform_test")], None),
        ("morphisms.alignment", [(api, "alignment_test"), (cli, "alignment_test")], None),
        ("morphisms.apply", [(cli, "apply")], None),
        ("graphs.parse_graph", [(api, "parse_graph"), (cli, "parse_graph")], _edges_hook),
        ("graphs.build", [(api, "Graph")] + [(owner, f) for owner in (api, cli)
                                             for f in ("cycle_graph", "path_graph", "claw_graph")],
         None),
        ("graphs.components", [(walks, "components")], None),
        ("graphs.induced_subgraph", [(walks, "induced_subgraph")], None),
        ("walks.classify", [(api, "classify"), (cli, "classify")], None),
        ("walks.render_classification", [(api, "render_classification"),
                                         (cli, "render_classification")], None),
        ("walks.is_g_word", [(api, "is_g_word"), (cli, "find_non_edge")], None),
        ("walks.stream_build", [(owner, f) for owner in (api, cli) for f in _STREAMS], None),
        ("search.walk", [(api, "longest_square_free_walk"),
                         (search, "longest_square_free_walk")], _nodes_hook("search.walk.nodes")),
        ("search.tournament", [(api, "longest_square_free_tournament"),
                               (search, "longest_square_free_tournament")],
         _nodes_hook("search.tournament.nodes")),
        ("search.coloured", [(search, "max_coloured_walk")], _nodes_hook("search.coloured.nodes")),
        ("search.gamma_lower", [(api, "verify_gamma_lower_bound"),
                                (search, "verify_gamma_lower_bound")], _classes_hook),
        ("cli.main", [(api, "main")], _exit_hook),
    ]
    for det in ("triangle", "p5", "c4", "claw"):
        plan.append((f"graphs.find_{det}", [(walks, f"find_{det}")],
                     _hit_hook(f"graphs.find_{det}.hits")))
    return plan


# ------------------------------------------------------------------ metrics

_DETECTORS = ("triangle", "p5", "c4", "claw")
_SEARCHES = ("walk", "tournament", "coloured")

# (name, unit, better).  Counts and times are per traced round.  What each
# group should move, written down before measuring:
# - words.*: work_per_s (letters_per_s) and op_p90_ms on streams, op_p50_ms on
#   cli.  A faster long-word detector should move streams a lot, cli not at all.
# - morphisms.prefix.*: work_per_s on streams; the nesting depth of cycle:n and
#   the per-letter Word validation show here.
# - morphisms.preservation_test.*, morphisms.crochemore.busy_s: ops_per_s on
#   search.  image_letters_checked over the letters of the final images is the
#   work wasted by re-checking the whole image at every node.
# - graphs.*: work_per_s (vertices_per_s) and op_p90_ms on classify, nothing on
#   streams.
# - walks.classify.*, walks.render_classification.busy_s: classify;
#   walks.is_g_word.busy_s, walks.stream_build.busy_s: streams.
# - search.*: ops_per_s and op_p90_ms on search.  Better pruning moves nodes,
#   a faster engine moves ns_per_node.
# - cli.*: op_p50_ms on cli; cli.main.self_s is mostly the argparse parser
#   rebuilt on every call.
PER_LAYER = (
    [("words.find_square.calls", "count", "lower"),
     ("words.find_square.letters", "count", "lower"),
     ("words.find_square.busy_s", "s", "lower"),
     ("words.oracle.letters", "count", "lower"),
     ("words.oracle.busy_s", "s", "lower"),
     ("words.predicates.busy_s", "s", "lower"),
     ("morphisms.prefix.calls", "count", "lower"),
     ("morphisms.prefix.letters", "count", "lower"),
     ("morphisms.prefix.busy_s", "s", "lower"),
     ("morphisms.preservation_test.busy_s", "s", "lower"),
     ("morphisms.preservation_test.square_checks", "count", "lower"),
     ("morphisms.preservation_test.image_letters_checked", "count", "lower"),
     ("morphisms.crochemore.busy_s", "s", "lower"),
     ("graphs.parse_graph.busy_s", "s", "lower"),
     ("graphs.parse_graph.edges", "count", "lower"),
     ("graphs.components.busy_s", "s", "lower"),
     ("graphs.induced_subgraph.calls", "count", "lower"),
     ("graphs.induced_subgraph.busy_s", "s", "lower")]
    + [(f"graphs.find_{d}.{m}", u, b) for d in _DETECTORS
       for m, u, b in (("calls", "count", "lower"), ("hits", "count", "higher"),
                       ("busy_s", "s", "lower"))]
    + [("graphs.detector_hit_ratio", "ratio", "higher"),
       ("walks.classify.busy_s", "s", "lower"),
       ("walks.classify.self_s", "s", "lower"),
       ("walks.render_classification.busy_s", "s", "lower"),
       ("walks.is_g_word.busy_s", "s", "lower"),
       ("walks.stream_build.busy_s", "s", "lower")]
    + [(f"search.{k}.{m}", u, "lower") for k in _SEARCHES
       for m, u in (("calls", "count"), ("nodes", "count"), ("busy_s", "s"),
                    ("ns_per_node", "ns"))]
    + [("search.gamma_lower.classes", "count", "lower"),
       ("search.gamma_lower.busy_s", "s", "lower"),
       ("cli.main.calls", "count", "lower"),
       ("cli.main.busy_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("cli.exit_code.0", "count", "higher"),
       ("cli.exit_code.1", "count", "lower"),
       ("cli.exit_code.2", "count", "lower"),
       ("cli.exceptions", "count", "lower")]
    + [(f"layer.{layer}.{m}", u, "lower") for layer in LAYERS
       for m, u in (("self_s", "s"), ("share", "ratio"))]
    + [("bench.rounds", "count", "higher"),
       ("bench.ops", "count", "higher"),
       ("bench.error_rate", "ratio", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def span_totals(spans):
    """Per span name: calls, busy time and self time (busy minus direct children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, busy, self_t = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        self_t[name] += end - start - child[i]
    return calls, busy, self_t


def layer_metrics(tracer: Tracer, rounds: int, untraced_s: float, traced_s: float,
                  ops: int, failed: int) -> dict[str, float]:
    calls, busy, self_t = span_totals(tracer.spans)
    counts = tracer.counts
    per = 1.0 / max(rounds, 1)
    m: dict[str, float] = {}

    def put(name, value):
        m[name] = value * per

    for name in ("words.find_square", "morphisms.prefix", "graphs.induced_subgraph", "cli.main"):
        put(name + ".calls", calls[name])
    for name in ("words.find_square", "words.oracle", "words.predicates", "morphisms.prefix",
                 "morphisms.preservation_test", "morphisms.crochemore", "graphs.parse_graph",
                 "graphs.components", "graphs.induced_subgraph", "walks.classify",
                 "walks.render_classification", "walks.is_g_word", "walks.stream_build",
                 "search.gamma_lower", "cli.main"):
        put(name + ".busy_s", busy[name])
    for key in ("words.find_square.letters", "words.oracle.letters", "morphisms.prefix.letters",
                "morphisms.preservation_test.square_checks",
                "morphisms.preservation_test.image_letters_checked",
                "graphs.parse_graph.edges", "search.gamma_lower.classes",
                "cli.exit_code.0", "cli.exit_code.1", "cli.exit_code.2"):
        put(key, counts[key])
    put("cli.exceptions", counts["cli.main.exceptions"])
    put("walks.classify.self_s", self_t["walks.classify"])
    put("cli.main.self_s", self_t["cli.main"])
    for d in _DETECTORS:
        name = f"graphs.find_{d}"
        put(name + ".calls", calls[name])
        put(name + ".hits", counts[name + ".hits"])
        put(name + ".busy_s", busy[name])
    det_calls = sum(calls[f"graphs.find_{d}"] for d in _DETECTORS)
    det_hits = sum(counts[f"graphs.find_{d}.hits"] for d in _DETECTORS)
    m["graphs.detector_hit_ratio"] = det_hits / det_calls if det_calls else 0.0
    for k in _SEARCHES:
        name = f"search.{k}"
        put(name + ".calls", calls[name])
        put(name + ".nodes", counts[name + ".nodes"])
        put(name + ".busy_s", busy[name])
        nodes = counts[name + ".nodes"]
        m[name + ".ns_per_node"] = busy[name] * 1e9 / nodes if nodes else 0.0
    layer_self = layer_self_times(self_t)
    total = busy["bench.op"]
    for layer in LAYERS:
        put(f"layer.{layer}.self_s", layer_self[layer])
        m[f"layer.{layer}.share"] = layer_self[layer] / total if total else 0.0
    m["bench.rounds"] = rounds
    m["bench.ops"] = ops
    m["bench.error_rate"] = failed / ops if ops else 0.0
    put("trace.spans", len(tracer.spans))
    put("trace.overhead_s", traced_s - untraced_s)
    m["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    return m


def layer_self_times(self_t) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, t in self_t.items():
        out[name.split(".", 1)[0]] += t
    return out


def _share(m, *layers):
    return sum(m[f"layer.{layer}.share"] for layer in layers)


# What the workload was built to load, checked against the measured shares.
PREDICTIONS = {
    "streams": [("words + morphisms > 50% of op time",
                 lambda m: _share(m, "words", "morphisms") > 0.5),
                ("graphs + search < 5%", lambda m: _share(m, "graphs", "search") < 0.05)],
    "classify": [("graphs + walks > 50% of op time", lambda m: _share(m, "graphs", "walks") > 0.5),
                 ("words + morphisms < 5%", lambda m: _share(m, "words", "morphisms") < 0.05)],
    "search": [("search + morphisms > 50% of op time",
                lambda m: _share(m, "search", "morphisms") > 0.5)],
    "cli": [("cli self time > 50% of op time", lambda m: m["layer.cli.share"] > 0.5)],
}


def share_table(workload: str, m: dict[str, float]) -> list[str]:
    lines = [f"{workload}: busy-time share per layer (self time per traced round)"]
    for layer in LAYERS:
        lines.append(f"  {layer:<10} {m[f'layer.{layer}.self_s']:10.4f} s "
                     f"{100 * m[f'layer.{layer}.share']:6.1f} %")
    lines.append(f"  tracing overhead {m['trace.overhead_s']:.4f} s per round "
                 f"({100 * m['trace.overhead_ratio']:.1f} % of untraced op time)")
    for text, holds in PREDICTIONS[workload]:
        lines.append(f"  prediction {'holds' if holds(m) else 'FAILS'}: {text}")
    return lines
