"""Hasse diagrams of partition lattices: covering relation, DOT and JSON
export, and the two-lattice picture for the double-slit evolution.

In the distinction order a partition covers another exactly when it
splits one block in two, so covers are generated by merging each pair of
canonical blocks of each partition: the merged block takes the place of
the earlier one, which gives the canonical blocks of the partition below.

The diagram of Pi(n) depends on n alone, so it is built once per n
(`_hasse`, at most `LATTICE_BOUND` entries): block tuples, rank pairs,
and every node's notation over the placeholder chr(i) for label i, the
labels of a block joined by "," and the blocks by "|", the nodes by
"||".  A request names its nodes with one `str.translate` of that
template into the ground's labels (dropping "," when every label is one
character) and one split on "||".  This is exact: labels hold neither
"|" nor ",", blocks are non-empty so no notation holds "||", and
`translate` makes one pass, so label text is never substituted again.
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
    _ground_for,
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
    order, the covering relation as sorted (lower rank, upper rank)
    pairs, and the label template of the nodes' names (see `_names`)."""
    nodes = tuple(pi.blocks for pi in enumerate_partitions(_ground_for(n)))
    rank = {blocks: r for r, blocks in enumerate(nodes)}
    # merging block k into block j < k: the merged block starts where block
    # j did, so in block j's place it leaves the blocks canonical
    pairs = sorted(
        (rank[(*b[:j], tuple(sorted(b[j] + b[k])), *b[j + 1:k], *b[k + 1:])], up)
        for up, b in enumerate(nodes)
        for k in range(1, len(b))
        for j in range(k)
    )
    template = "||".join(
        "|".join(",".join(map(chr, blk)) for blk in blocks) for blocks in nodes
    )
    return nodes, tuple(pairs), template


def _names(ground: GroundSet, template: str) -> list[str]:
    """The notation of each node of Pi(n), in enumeration order, over the
    labels of a checked ground of size n."""
    table: dict[int, str | None] = dict(enumerate(ground.labels))
    if max(map(len, ground.labels)) == 1:
        table[ord(",")] = None
    return template.translate(table).split("||")


def hasse_json(ground: GroundSet) -> dict:
    _, covers, template = _hasse(_checked(ground))
    name = _names(ground, template)
    return {
        "ground": list(ground.labels),
        "nodes": name,
        "edges": [[name[lo], name[up]] for lo, up in covers],
    }


def _quoted(text: str) -> str:
    """`text` as a DOT quoted string: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cluster_lines(
    ground: GroundSet,
    highlight: set[tuple[tuple[int, ...], ...]],
    prefix: str,
) -> list[str]:
    """DOT statements for one lattice; node ids namespaced by prefix,
    ranks grouped by block count so the diagram reads bottom-up.  The
    nodes whose blocks are in `highlight` are filled."""
    nodes, covers, template = _hasse(_checked(ground))
    name = _names(ground, template)
    ident = [_quoted(prefix + text) for text in name]
    lines = []
    for r, blocks in enumerate(nodes):
        style = ' style=filled fillcolor="gold"' if blocks in highlight else ""
        lines.append(f"{ident[r]} [label={_quoted(name[r])}{style}];")
    for count in range(1, ground.n + 1):
        rank = [ident[r] for r, blocks in enumerate(nodes) if len(blocks) == count]
        if len(rank) > 1:
            lines.append(f'{{rank=same; {" ".join(rank)}}}')
    for lo, up in covers:
        lines.append(f"{ident[lo]} -> {ident[up]} [dir=none];")
    return lines


def hasse_dot(ground: GroundSet, highlight=()) -> str:
    """Hasse diagram as a DOT digraph, bottom partition at the bottom.
    The partitions of `highlight` that live on `ground` are filled.  Node
    ids and labels are DOT quoted strings, so any label text is kept."""
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
    for name, g, pi, prefix in (
        ("before", ground, before, "U:"),
        ("after", primed, after, "U1:"),
    ):
        lines.append(f"  subgraph cluster_{name} {{")
        lines.append(f'    label="states on {{{",".join(g.labels)}}}";')
        lines.extend(
            "    " + line for line in _cluster_lines(g, {pi.blocks}, prefix=prefix)
        )
        lines.append("  }")
    tail, head = _quoted(f"U:{notation(before)}"), _quoted(f"U1:{notation(after)}")
    lines.append(
        f"  {tail} -> {head}"
        f' [style=dashed constraint=false'
        f' label="evolve: {start} -> {evolved_subset}"];'
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
