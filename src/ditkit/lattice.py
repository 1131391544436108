"""Hasse diagrams of partition lattices: covering relation, DOT and JSON
export, and the two-lattice picture for the double-slit evolution.

In the distinction order a partition covers another exactly when it
splits one block in two, so covers are generated by merging each pair of
blocks of each partition, which maps its restricted growth string
straight to the canonical one of the partition below.
"""

from __future__ import annotations

from .errors import BoundExceeded, EmptyState
from .partitions import (
    GroundSet,
    Partition,
    enumerate_partitions,
    notation,
    _canon,
    _from_rgs,
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
    """All (lower, upper) pairs where lower merges two blocks of upper,
    that is upper splits one block of lower, ordered by the lower
    partition's rank in enumeration order, then by the upper's."""
    nodes = lattice_nodes(ground)
    return [(nodes[lo], nodes[up]) for lo, up in _covers(nodes)]


def _covers(nodes: list[Partition]) -> list[tuple[int, int]]:
    """The covering relation of an enumerated lattice as sorted
    (lower rank, upper rank) pairs."""
    rank = {pi.rgs: r for r, pi in enumerate(nodes)}
    pairs = []
    for up, pi in enumerate(nodes):
        m = len(pi.blocks)
        for k in range(1, m):
            # merging block k into block j < k: label k becomes j and every
            # label above k drops by one, which keeps the RGS canonical
            relabel = [*range(k), 0, *range(k, m - 1)]
            for j in range(k):
                relabel[k] = j
                pairs.append((rank[tuple(map(relabel.__getitem__, pi.rgs))], up))
    pairs.sort()
    return pairs


def hasse_json(ground: GroundSet) -> dict:
    nodes = lattice_nodes(ground)
    name = [notation(pi) for pi in nodes]
    return {
        "ground": list(ground.labels),
        "nodes": name,
        "edges": [[name[lo], name[up]] for lo, up in _covers(nodes)],
    }


def _cluster_lines(
    ground: GroundSet,
    highlight: frozenset[Partition],
    prefix: str,
) -> list[str]:
    """DOT statements for one lattice; node ids namespaced by prefix,
    ranks grouped by block count so the diagram reads bottom-up."""
    nodes = lattice_nodes(ground)
    name = [notation(pi) for pi in nodes]
    ident = [f'"{prefix}{text}"' for text in name]
    lines = []
    for r, pi in enumerate(nodes):
        style = ' style=filled fillcolor="gold"' if pi in highlight else ""
        lines.append(f'{ident[r]} [label="{name[r]}"{style}];')
    for count in range(1, ground.n + 1):
        rank = [ident[r] for r, pi in enumerate(nodes) if len(pi.blocks) == count]
        if len(rank) > 1:
            lines.append(f'{{rank=same; {" ".join(rank)}}}')
    for lo, up in _covers(nodes):
        lines.append(f"{ident[lo]} -> {ident[up]} [dir=none];")
    return lines


def hasse_dot(ground: GroundSet, highlight=()) -> str:
    """Hasse diagram as a DOT digraph, bottom partition at the bottom."""
    body = _cluster_lines(ground, frozenset(highlight), prefix="")
    inner = "\n".join(f"  {line}" for line in body)
    return f'digraph "partition lattice" {{\n  rankdir=BT;\n{inner}\n}}\n'


def superposition_partition(s: SubsetVector) -> Partition:
    """Skeleton of a superposition: its support as one block, everything
    else a singleton."""
    if not s.mask:
        raise EmptyState("empty subset has no superposition partition")
    rgs = _canon(-1 if s.mask >> i & 1 else i for i in range(s.ground.n))
    return _from_rgs(s.ground, rgs)


def double_slit_dot() -> str:
    """The undetected (case 2) evolution drawn on two partition lattices:
    the slit superposition highlighted in the lattice on U, its image
    highlighted in the lattice on the evolved basis U'."""
    ground, dynamics, start = double_slit_setup()
    primed = GroundSet(tuple(lab + "'" for lab in ground.labels))
    # in the evolved basis the superposition keeps its support pattern
    image = SubsetVector.from_bits(primed, start.mask)
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
