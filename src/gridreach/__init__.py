"""Reachability in directed layered grid graphs in polynomial time and
sublinear tracked space, with a full-memory oracle and instrumentation for
validating the traversal's invariants and both resource recurrences."""

from .auxgraph import AuxParams, is_gridline_vertex
from .engine import (
    Answer,
    EngineConfig,
    marker_dfs,
    base_dfs,
    choose_k,
    reach,
)
from .grid import (
    LayeredGridGraph,
    LggFormatError,
    SplitMix64,
    SubgridView,
    Vertex,
    emit_lgg,
    gen_family,
    gen_random,
    oracle_reach,
    parse_lgg,
)
from .metrics import (
    Bounds,
    Metrics,
    check_bounds,
    predicted_calls,
    predicted_words,
)

__version__ = "0.1.0"

__all__ = [
    "Answer", "AuxParams", "Bounds", "EngineConfig",
    "LayeredGridGraph", "LggFormatError", "Metrics", "SplitMix64",
    "SubgridView", "Vertex", "marker_dfs", "base_dfs", "check_bounds",
    "choose_k", "emit_lgg", "gen_family", "gen_random",
    "is_gridline_vertex", "oracle_reach", "parse_lgg", "predicted_calls",
    "predicted_words", "reach",
]
