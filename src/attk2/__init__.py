"""Compressed in-memory store for labeled, directed, attributed multigraphs.

The static store keeps the adjacency structure and the dense attribute tables
in k²-trees over succinct bitmaps; the dynamic variant swaps in insertable
counterparts, and an append-only type table, so the schema, the data and the
relations can change after construction.
"""

from .bits import BitSequence, DynBitSequence
from .errors import CorruptFileError, InputError, NotFoundError
from .graph import UNDEFINED, AttK2Graph, build_graph
from .k2 import DynK2Tree, K2Tree
from .multiedge import DynMultiEdge, MultiEdgeK2Tree
from .schema import DynTypeTable, TypeTable

__version__ = "0.1.0"

__all__ = [
    "AttK2Graph",
    "BitSequence",
    "CorruptFileError",
    "DynBitSequence",
    "DynK2Tree",
    "DynMultiEdge",
    "DynTypeTable",
    "InputError",
    "K2Tree",
    "MultiEdgeK2Tree",
    "NotFoundError",
    "TypeTable",
    "UNDEFINED",
    "build_graph",
    "__version__",
]
