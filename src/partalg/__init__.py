"""Exact combinatorics of partition-algebra representations.

Diagram bases and products of the tower of partition algebras, the branching
graph with its path combinatorics, the integer alcove geometry controlling
blocks and decomposition numbers, simple and radical dimensions, and
Kronecker coefficients of symmetric groups with their stable limits.

The independent routes production is checked against (content and residue
vectors of paths, residue-vector linkage, the staircase model of the alcove
geometry, the selftest) are imported from partalg.oracles, which this
package root does not load.
"""

from .branching import (Path, Vertex, cell_dimension, check_path,
                        enumerate_paths, format_path, parents, parse_path,
                        path_succ, vertex, vertices_at_level)
from .diagrams import (AlgebraElement, Diagram, compose, dots_for_level,
                       embed_up, enumerate_diagrams, parse_diagram,
                       parse_element)
from .dot import emit_dot
from .errors import InternalCheckError, ResourceLimitError
from .geometry import AlcovePosition, position, reflected_vertex
from .kronecker import (check_monotone, class_size, first_padded_n,
                        kronecker_coefficient, kronecker_sequence,
                        mn_character, pad, padded_kronecker,
                        stable_kronecker)
from .modules import (block_chain, blocks_at_level, decomposition_row,
                      permissible_paths, radical_dimension, restrict_cell,
                      restrict_simple, simple_dimension)
from .partitions import (addable_nodes, dominates, format_partition,
                         node_content, parse_partition, partitions_of,
                         partitions_up_to, removable_nodes)
from .zpoly import ZPoly, parse_zpoly

__version__ = "0.1.0"

__all__ = [
    "AlcovePosition", "AlgebraElement", "Diagram",
    "InternalCheckError", "Path", "ResourceLimitError", "Vertex", "ZPoly",
    "addable_nodes", "block_chain", "blocks_at_level", "cell_dimension",
    "check_monotone", "check_path", "class_size", "compose",
    "decomposition_row", "dominates", "dots_for_level", "embed_up",
    "emit_dot", "enumerate_diagrams", "enumerate_paths", "first_padded_n",
    "format_partition", "format_path", "kronecker_coefficient",
    "kronecker_sequence", "mn_character", "node_content", "pad",
    "padded_kronecker", "parents", "parse_diagram", "parse_element",
    "parse_partition", "parse_path", "parse_zpoly", "partitions_of",
    "partitions_up_to", "path_succ", "permissible_paths", "position",
    "radical_dimension", "reflected_vertex", "removable_nodes",
    "restrict_cell", "restrict_simple", "simple_dimension",
    "stable_kronecker", "vertex", "vertices_at_level",
]
