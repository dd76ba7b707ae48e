"""Exact combinatorics of partition-algebra representations.

Diagram bases and products of the tower of partition algebras, the branching
graph with its path combinatorics, content and residue vectors, the integer
alcove geometry controlling blocks and decomposition numbers, simple and
radical dimensions, and Kronecker coefficients of symmetric groups with
their stable limits.
"""

from .branching import (Path, Vertex, cell_dimension, check_path,
                        dominance_geq, enumerate_paths, format_path,
                        format_paths, is_edge, parents, parse_path, path_succ,
                        truncate, vertex, vertices_at_level)
from .diagrams import (AlgebraElement, Diagram, compose, dots_for_level,
                       embed_up, enumerate_diagrams, format_diagram,
                       identity_diagram, parse_diagram, parse_element)
from .dot import emit_dot
from .errors import InternalCheckError, ResourceLimitError
from .geometry import AlcovePosition, position, reflected_vertex
from .kronecker import (character_degree, check_monotone, class_size,
                        first_padded_n, kronecker_coefficient,
                        kronecker_sequence, mn_character, pad,
                        padded_kronecker, stable_kronecker)
from .modules import (BlockChain, block_chain, blocks_at_level,
                      decomposition_row, permissible_paths,
                      radical_dimension, restrict_cell, restrict_simple,
                      simple_dimension)
from .oracles import (EmbeddedPoint, brute_force_linkage_classes, classify,
                      content_vector, edge_case, embed, embedded_path,
                      first_semisimple_n,
                      geometric_residue_equivalent, is_n_pair,
                      is_permissible, is_semisimple, linkage_classes,
                      npair_reflection_equiv, reflect, residue_equivalent,
                      residue_vector, run_selftest,
                      simple_dimension_by_alternating_sum,
                      simple_dimension_by_paths, step_residues)
from .partitions import (addable_nodes, dominates, format_partition,
                         node_content, parse_partition, partitions_of,
                         partitions_up_to, removable_nodes)
from .zpoly import ZPoly, parse_zpoly

__version__ = "0.1.0"

__all__ = [
    "AlcovePosition", "AlgebraElement", "BlockChain", "Diagram",
    "EmbeddedPoint", "InternalCheckError", "Path",
    "ResourceLimitError", "Vertex", "ZPoly", "addable_nodes",
    "block_chain", "blocks_at_level", "brute_force_linkage_classes",
    "cell_dimension", "character_degree", "check_monotone", "check_path",
    "class_size", "classify", "compose", "content_vector",
    "decomposition_row", "dominance_geq", "dominates", "dots_for_level",
    "edge_case", "embed", "embed_up", "embedded_path", "emit_dot",
    "enumerate_diagrams", "enumerate_paths", "first_padded_n",
    "first_semisimple_n", "format_diagram", "format_partition", "format_path",
    "format_paths",
    "geometric_residue_equivalent", "identity_diagram", "is_edge",
    "is_n_pair", "is_permissible", "is_semisimple", "kronecker_coefficient",
    "kronecker_sequence", "linkage_classes", "mn_character", "node_content",
    "npair_reflection_equiv", "pad", "padded_kronecker", "parents",
    "parse_diagram", "parse_element", "parse_partition", "parse_path",
    "parse_zpoly", "partitions_of", "partitions_up_to", "path_succ",
    "permissible_paths", "position", "radical_dimension", "reflect",
    "reflected_vertex", "removable_nodes", "residue_equivalent",
    "residue_vector", "restrict_cell", "restrict_simple", "run_selftest",
    "simple_dimension",
    "simple_dimension_by_alternating_sum", "simple_dimension_by_paths",
    "stable_kronecker", "step_residues", "truncate", "vertex",
    "vertices_at_level",
]
