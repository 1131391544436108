from __future__ import annotations

import itertools

import pytest

from ditkit import (
    BoundExceeded,
    EmptyState,
    GroundSet,
    SubsetVector,
    covering_pairs,
    double_slit_dot,
    enumerate_partitions,
    hasse_dot,
    hasse_json,
    lattice_nodes,
    make_partition,
    notation,
    refines,
    superposition_partition,
)

from oracles import covers_by_filter

U3 = GroundSet(("a", "b", "c"))
U4 = GroundSet(("a", "b", "c", "d"))


def test_lattice_nodes_and_bound():
    assert len(lattice_nodes(U3)) == 5
    assert len(lattice_nodes(U4)) == 15
    with pytest.raises(BoundExceeded):
        lattice_nodes(GroundSet(tuple("abcdefg")))


def test_covering_counts():
    assert len(covering_pairs(GroundSet(("a",)))) == 0
    assert len(covering_pairs(GroundSet(("a", "b")))) == 1
    # 3 elements: bottom is covered by the three two-block partitions,
    # each of which is covered by the top
    assert len(covering_pairs(U3)) == 6


def test_covering_matches_no_intermediate_definition():
    for n in range(1, 5):
        ground = GroundSet(tuple("abcd"[:n]))
        nodes = list(enumerate_partitions(ground))
        covers = set()
        for sigma, pi in itertools.product(nodes, repeat=2):
            if sigma == pi or not refines(sigma, pi):
                continue
            between = any(
                tau != sigma
                and tau != pi
                and refines(sigma, tau)
                and refines(tau, pi)
                for tau in nodes
            )
            if not between:
                covers.add((sigma, pi))
        assert covers == set(covering_pairs(ground))


def test_covering_pairs_match_filter_oracle_in_order():
    for n in range(1, 7):
        got = covering_pairs(GroundSet(tuple("abcdef"[:n])))
        assert [(s.blocks, p.blocks) for s, p in got] == covers_by_filter(n)


def test_hasse_json_shape():
    data = hasse_json(U3)
    assert data["ground"] == ["a", "b", "c"]
    assert len(data["nodes"]) == 5
    assert data["nodes"][0] == "abc"
    assert data["nodes"][-1] == "a|b|c"
    assert ["abc", "ab|c"] in data["edges"]
    assert len(data["edges"]) == 6


def test_hasse_dot_content():
    dot = hasse_dot(U3)
    assert dot.startswith('digraph "partition lattice" {')
    assert "rankdir=BT;" in dot
    assert '"abc" [label="abc"];' in dot
    assert '"abc" -> "ab|c" [dir=none];' in dot
    assert "{rank=same;" in dot
    assert "fillcolor" not in dot
    assert dot.endswith("}\n")


def test_hasse_dot_highlight():
    pi = make_partition(U3, [["a", "c"], ["b"]])
    dot = hasse_dot(U3, highlight=[pi])
    assert '"ac|b" [label="ac|b" style=filled fillcolor="gold"];' in dot
    assert dot.count("fillcolor") == 1


def test_superposition_partition():
    s = SubsetVector.from_labels(U3, "ac")
    assert superposition_partition(s) == make_partition(U3, [["a", "c"], ["b"]])
    full = SubsetVector.from_labels(U3, "abc")
    assert superposition_partition(full).num_blocks == 1
    single = SubsetVector.from_labels(U3, "b")
    assert superposition_partition(single).is_discrete()
    with pytest.raises(EmptyState):
        superposition_partition(SubsetVector.empty(U3))


def test_double_slit_dot_structure():
    dot = double_slit_dot()
    assert "subgraph cluster_before" in dot
    assert "subgraph cluster_after" in dot
    # the superposition ac|b is highlighted on both sides; primed labels
    # are multi-character so their notation is comma separated
    assert '"U:ac|b" [label="ac|b" style=filled fillcolor="gold"];' in dot
    assert "\"U1:a',c'|b'\" [label=\"a',c'|b'\" style=filled fillcolor=\"gold\"];" in dot
    assert '"U:ac|b" -> "U1:a\',c\'|b\'"' in dot
    assert "style=dashed" in dot
    assert 'label="evolve: {a,c} -> {a,c}"' in dot
    # both five-node lattices are present
    assert dot.count("[label=") == 10
