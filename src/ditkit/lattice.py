"""Hasse diagrams of partition lattices: covering relation, DOT and JSON
export, and the two-lattice picture for the double-slit evolution.

In the distinction order a partition covers another exactly when it
splits one block in two, so covers are generated by merging each pair of
blocks of each partition, which maps its restricted growth string
straight to the canonical one of the partition below.

The diagram of Pi(n) depends on n alone, so it is built once per n, as
block tuples and rank pairs (`_hasse`, at most `LATTICE_BOUND` entries),
and each request only names its nodes over the ground's labels.
"""

from __future__ import annotations

import functools

from .errors import BoundExceeded, EmptyState
from .partitions import (
    GroundSet,
    Partition,
    enumerate_partitions,
    notation,
    _as_tuple,
    _canon,
    _from_rgs,
    _iter_rgs,
    _notations,
    _require,
)
from .z2dyn import SubsetVector, double_slit_setup, evolve

LATTICE_BOUND = 6


def _checked(ground: GroundSet) -> int:
    """The size of a ground set a lattice may be drawn on."""
    _require(GroundSet, "ground must be a GroundSet", ground)
    if ground.n > LATTICE_BOUND:
        raise BoundExceeded(
            f"lattice rendering limited to n <= {LATTICE_BOUND}, got {ground.n}"
        )
    return ground.n


def lattice_nodes(ground: GroundSet) -> list[Partition]:
    _checked(ground)
    return list(enumerate_partitions(ground))


def covering_pairs(ground: GroundSet) -> list[tuple[Partition, Partition]]:
    """All (lower, upper) pairs where lower merges two blocks of upper,
    that is upper splits one block of lower, ordered by the lower
    partition's rank in enumeration order, then by the upper's."""
    nodes = lattice_nodes(ground)
    return [(nodes[lo], nodes[up]) for lo, up in _hasse(ground.n)[1]]


@functools.cache
def _hasse(n: int):
    """The Hasse diagram of Pi(n): each node's blocks in enumeration
    order, and the covering relation as sorted (lower rank, upper rank)
    pairs."""
    rgss = tuple(_iter_rgs(n))
    rank = {rgs: r for r, rgs in enumerate(rgss)}
    nodes = []
    pairs = []
    for up, rgs in enumerate(rgss):
        m = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(m)]
        for i, b in enumerate(rgs):
            blocks[b].append(i)
        nodes.append(tuple(map(tuple, blocks)))
        for k in range(1, m):
            # merging block k into block j < k: label k becomes j and every
            # label above k drops by one, which keeps the RGS canonical
            relabel = [*range(k), 0, *range(k, m - 1)]
            for j in range(k):
                relabel[k] = j
                pairs.append((rank[tuple(map(relabel.__getitem__, rgs))], up))
    pairs.sort()
    return tuple(nodes), tuple(pairs)


def hasse_json(ground: GroundSet) -> dict:
    nodes, covers = _hasse(_checked(ground))
    name = _notations(ground.labels, nodes)
    return {
        "ground": list(ground.labels),
        "nodes": name,
        "edges": [[name[lo], name[up]] for lo, up in covers],
    }


def _cluster_lines(
    ground: GroundSet,
    highlight: set[tuple[tuple[int, ...], ...]],
    prefix: str,
) -> list[str]:
    """DOT statements for one lattice; node ids namespaced by prefix,
    ranks grouped by block count so the diagram reads bottom-up.  The
    nodes whose blocks are in `highlight` are filled."""
    nodes, covers = _hasse(_checked(ground))
    name = _notations(ground.labels, nodes)
    ident = [f'"{prefix}{text}"' for text in name]
    lines = []
    for r, blocks in enumerate(nodes):
        style = ' style=filled fillcolor="gold"' if blocks in highlight else ""
        lines.append(f'{ident[r]} [label="{name[r]}"{style}];')
    for count in range(1, ground.n + 1):
        rank = [ident[r] for r, blocks in enumerate(nodes) if len(blocks) == count]
        if len(rank) > 1:
            lines.append(f'{{rank=same; {" ".join(rank)}}}')
    for lo, up in covers:
        lines.append(f"{ident[lo]} -> {ident[up]} [dir=none];")
    return lines


def hasse_dot(ground: GroundSet, highlight=()) -> str:
    """Hasse diagram as a DOT digraph, bottom partition at the bottom.
    The partitions of `highlight` that live on `ground` are filled."""
    _checked(ground)
    highlight = _as_tuple(highlight, "highlight must be an iterable of Partitions")
    for pi in highlight:
        _require(Partition, "highlight entries must be Partitions", pi)
    marked = {pi.blocks for pi in highlight if pi.ground == ground}
    body = _cluster_lines(ground, marked, prefix="")
    inner = "\n".join(f"  {line}" for line in body)
    return f'digraph "partition lattice" {{\n  rankdir=BT;\n{inner}\n}}\n'


def superposition_partition(s: SubsetVector) -> Partition:
    """Skeleton of a superposition: its support as one block, everything
    else a singleton."""
    _require(SubsetVector, "s must be a SubsetVector", s)
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
        for line in _cluster_lines(ground, {before.blocks}, prefix="U:")
    )
    lines.append("  }")
    lines.append('  subgraph cluster_after {')
    lines.append('    label="states on {a\',b\',c\'}";')
    lines.extend(
        "    " + line
        for line in _cluster_lines(primed, {after.blocks}, prefix="U1:")
    )
    lines.append("  }")
    lines.append(
        f'  "U:{notation(before)}" -> "U1:{notation(after)}"'
        f' [style=dashed constraint=false'
        f' label="evolve: {start} -> {evolved_subset}"];'
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
