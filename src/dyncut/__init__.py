"""Fully dynamic global minimum cut via star contraction and forest packings."""

from .contraction import StarInstance
from .engine import MODE_DIRECT, MODE_PACKED, Engine, EngineConfig
from .forest import UNTOUCHED, DeleteResult, DynamicForest
from .graph_core import (
    DuplicateEdgeError,
    DynamicGraph,
    EdgeKey,
    GraphError,
    MissingEdgeError,
    WeightedGraph,
    WeightError,
    edge_key,
)
from .mincut import BRUTE_FORCE_LIMIT, CutResult, brute_force_mincut, stoer_wagner
from .packing import ForestPacking
from .sampling import StableSampler
from .streams import (
    Event,
    StreamFormatError,
    UpdateStream,
    generate_stream,
    parse_stream,
    render_stream,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "CutResult",
    "DeleteResult",
    "DuplicateEdgeError",
    "DynamicForest",
    "DynamicGraph",
    "EdgeKey",
    "Engine",
    "EngineConfig",
    "Event",
    "ForestPacking",
    "GraphError",
    "MissingEdgeError",
    "MODE_DIRECT",
    "MODE_PACKED",
    "StableSampler",
    "StarInstance",
    "StreamFormatError",
    "UNTOUCHED",
    "UpdateStream",
    "WeightError",
    "WeightedGraph",
    "brute_force_mincut",
    "edge_key",
    "generate_stream",
    "parse_stream",
    "render_stream",
    "stoer_wagner",
]
