"""Square-free walks on labelled graphs.

Generators for infinite square-free walk words, square-freeness checkers with
an independent oracle, a subgraph-based classifier for which graphs admit
infinite square-free walks (and with how many colours), and bounded
exhaustive searches for the extremal finite cases.
"""

from .words import (Word, brute_force_square_check, extends_square_free,
                    find_square, is_reduced_free_group_word, is_square_free,
                    is_tournament_word)
from .morphisms import (ALPHA_C4, ALPHA_P5, ALPHA_T5, BETA_P5, PHI_P5, TAU,
                        Colouring, InfiniteWordStream, Morphism,
                        alignment_test, apply, crochemore_uniform_test,
                        fixed_point_stream, image_stream, parse_morphism,
                        preservation_test)
from .graphs import (Graph, claw_graph, components, cycle_graph, parse_graph,
                     path_graph)
from .walks import (Classification, c4_walk_uniform_stream, classify,
                    claw_walk_stream, cycle_walk_stream, dean_reduced_stream,
                    is_g_word, p5_walk_stream, render_classification,
                    thue_stream, tournament5_stream)
from .search import (GammaLowerBoundReport, SearchResult,
                     longest_square_free_tournament, longest_square_free_walk,
                     max_coloured_walk, verify_gamma_lower_bound)

__version__ = "0.1.0"
