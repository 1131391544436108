"""Hasse diagrams of partition lattices: covering relation, DOT and JSON
export, and the two-lattice picture for the double-slit evolution.

In the distinction order a partition covers another exactly when it
splits one block in two, so covers are generated by splitting each block
of each partition in every way.
"""

from __future__ import annotations

from .errors import BoundExceeded, EmptyState
from .partitions import (
    GroundSet,
    Partition,
    enumerate_partitions,
    notation,
    _canon,
)
from .z2dyn import SubsetVector, double_slit_setup, evolve

LATTICE_BOUND = 6


def lattice_nodes(ground: GroundSet) -> list[Partition]:
    if ground.n > LATTICE_BOUND:
        raise BoundExceeded(
            f"lattice rendering limited to n <= {LATTICE_BOUND}, got {ground.n}"
        )
    return list(enumerate_partitions(ground))


def covering_pairs(ground: GroundSet) -> list[tuple[Partition, Partition]]:
    """All (lower, upper) pairs where upper refines lower by splitting
    exactly one block, ordered by the lower partition's rank in
    enumeration order, then by the upper's."""
    nodes = lattice_nodes(ground)
    rank = {pi._block_of: r for r, pi in enumerate(nodes)}
    pairs = []
    for sigma in nodes:
        uppers = []
        for blk in sigma.blocks:
            # the block's least member stays; a non-empty subset of the
            # rest moves to a new block: 2**(len(blk) - 1) - 1 splits
            rest = blk[1:]
            for mask in range(1, 1 << len(rest)):
                labels = list(sigma._block_of)
                for bit, i in enumerate(rest):
                    if mask >> bit & 1:
                        labels[i] = -1
                uppers.append(rank[_canon(labels)])
        pairs.extend((sigma, nodes[r]) for r in sorted(uppers))
    return pairs


def hasse_json(ground: GroundSet) -> dict:
    nodes = lattice_nodes(ground)
    return {
        "ground": list(ground.labels),
        "nodes": [notation(pi) for pi in nodes],
        "edges": [
            [notation(sigma), notation(pi)]
            for sigma, pi in covering_pairs(ground)
        ],
    }


def _cluster_lines(
    ground: GroundSet,
    highlight: frozenset[Partition],
    prefix: str,
) -> list[str]:
    """DOT statements for one lattice; node ids namespaced by prefix,
    ranks grouped by block count so the diagram reads bottom-up."""
    nodes = lattice_nodes(ground)
    ident = {pi: f'"{prefix}{notation(pi)}"' for pi in nodes}
    lines = []
    for pi in nodes:
        style = ' style=filled fillcolor="gold"' if pi in highlight else ""
        lines.append(f'{ident[pi]} [label="{notation(pi)}"{style}];')
    for count in range(1, ground.n + 1):
        rank = [ident[pi] for pi in nodes if pi.num_blocks == count]
        if len(rank) > 1:
            lines.append(f'{{rank=same; {" ".join(rank)}}}')
    for sigma, pi in covering_pairs(ground):
        lines.append(f"{ident[sigma]} -> {ident[pi]} [dir=none];")
    return lines


def hasse_dot(ground: GroundSet, highlight=()) -> str:
    """Hasse diagram as a DOT digraph, bottom partition at the bottom."""
    body = _cluster_lines(ground, frozenset(highlight), prefix="")
    inner = "\n".join(f"  {line}" for line in body)
    return f'digraph "partition lattice" {{\n  rankdir=BT;\n{inner}\n}}\n'


def superposition_partition(s: SubsetVector) -> Partition:
    """Skeleton of a superposition: its support as one block, everything
    else a singleton."""
    if not s.members:
        raise EmptyState("empty subset has no superposition partition")
    blocks = [tuple(sorted(s.members))] + [
        (i,) for i in range(s.ground.n) if i not in s.members
    ]
    return Partition.from_index_blocks(s.ground, blocks)


def double_slit_dot() -> str:
    """The undetected (case 2) evolution drawn on two partition lattices:
    the slit superposition highlighted in the lattice on U, its image
    highlighted in the lattice on the evolved basis U'."""
    ground, dynamics, start = double_slit_setup()
    primed = GroundSet(tuple(lab + "'" for lab in ground.labels))
    # in the evolved basis the superposition keeps its support pattern
    image = SubsetVector(primed, start.members)
    before = superposition_partition(start)
    after = superposition_partition(image)
    evolved_subset = evolve(start, dynamics)
    lines = ['digraph "double slit" {', "  rankdir=BT;"]
    lines.append('  subgraph cluster_before {')
    lines.append('    label="states on {a,b,c}";')
    lines.extend(
        "    " + line
        for line in _cluster_lines(ground, frozenset({before}), prefix="U:")
    )
    lines.append("  }")
    lines.append('  subgraph cluster_after {')
    lines.append('    label="states on {a\',b\',c\'}";')
    lines.extend(
        "    " + line
        for line in _cluster_lines(primed, frozenset({after}), prefix="U1:")
    )
    lines.append("  }")
    lines.append(
        f'  "U:{notation(before)}" -> "U1:{notation(after)}"'
        f' [style=dashed constraint=false'
        f' label="evolve: {start} -> {evolved_subset}"];'
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
