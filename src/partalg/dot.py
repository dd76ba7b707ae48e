"""Graphviz rendering of the branching graph with its alcove geometry."""

from __future__ import annotations

from .branching import Vertex, parents, vertices_at_level
from .geometry import position
from .partitions import format_partition

# alcove index -> fill, cycled past the end
PALETTE = ("lightblue", "palegreen", "khaki", "lightpink",
           "plum", "lightsalmon", "paleturquoise")


def _node_id(v: Vertex) -> str:
    inner = "e" if not v.shape else "_".join(str(p) for p in v.shape)
    return f"v{v.level}_{inner}"


def emit_dot(k: int, n: int) -> str:
    """The branching graph on levels 0..k at parameter n.

    Wall vertices are boxed and annotated; alcove vertices are ellipses
    filled by alcove index.  Levels share a rank.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    lines = [
        f"// branching graph, levels 0..{k}, parameter n={n}",
        "digraph branching {",
        "  rankdir = BT;",
        "  node [style = filled];",
    ]
    for level in range(k + 1):
        verts = vertices_at_level(level)
        walls = []
        for v in verts:
            pos = position(v, n)
            label = f"{format_partition(v.shape)}@{level}"
            if pos.kind == "wall":
                shape, extra = "box", f" wall {pos.index}"
                walls.append((v, pos.index))
            else:
                shape, extra = "ellipse", f" alcove {pos.index}"
            fill = PALETTE[(pos.index - 1) % len(PALETTE)]
            lines.append(
                f'  {_node_id(v)} [label="{label}{extra}", shape={shape}, '
                f'fillcolor={fill}];')
        lines.append("  { rank = same; "
                     + " ".join(f"{_node_id(v)};" for v in verts) + " }")
        if walls:
            lines.append("  // ---- level %d walls: %s ----" % (
                level, ", ".join(
                    f"{format_partition(v.shape)} on wall {j}"
                    for v, j in walls)))
    for level in range(1, k + 1):
        for v in vertices_at_level(level):
            for u in parents(v):
                lines.append(f"  {_node_id(u)} -> {_node_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
