from __future__ import annotations

import contextlib
import io
import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from ditkit import (
    BoundExceeded,
    EmptyState,
    GroundSet,
    InvalidValue,
    Partition,
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
from ditkit import lattice
from ditkit.cli import main

import oracles
from oracles import covers_by_filter, hasse_name

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


def test_hasse_edges_match_filter_oracle_in_order():
    for n in range(1, 7):
        covers = covers_by_filter(n)
        for labels in ("abcdef"[:n], tuple(f"u{i}" for i in range(1, n + 1))):
            names = [
                [hasse_name(lo, labels), hasse_name(up, labels)]
                for lo, up in covers
            ]
            ground = GroundSet(tuple(labels))
            assert hasse_json(ground)["edges"] == names
            lines = hasse_dot(ground).splitlines()
            assert [line for line in lines if " -> " in line] == [
                f'  "{lo}" -> "{up}" [dir=none];' for lo, up in names
            ]


def _grounds(n: int) -> list[GroundSet]:
    return [
        GroundSet(tuple("abcdef"[:n])),
        GroundSet(tuple(f"u{i}" for i in range(1, n + 1))),
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_hasse_json_and_dot_match_per_partition_oracle(n):
    for ground in _grounds(n):
        assert hasse_json(ground) == oracles.hasse_json(ground)
        assert hasse_dot(ground) == oracles.hasse_dot(ground)
        if n > 4:
            continue
        for pi in enumerate_partitions(ground):
            assert hasse_dot(ground, [pi]) == oracles.hasse_dot(ground, [pi])


@pytest.mark.parametrize("n", range(1, 5))
def test_hasse_dot_ignores_highlights_on_other_grounds(n):
    ground, other = _grounds(n)
    wider = GroundSet(tuple("abcdefg"[: n + 1]))
    mine = make_partition(ground, [ground.labels])
    strangers = [
        make_partition(other, [other.labels]),
        make_partition(wider, [wider.labels]),
    ]
    assert hasse_dot(ground, strangers) == hasse_dot(ground)
    for highlight in (strangers + [mine], [mine, *strangers, mine]):
        dot = hasse_dot(ground, iter(highlight))
        assert dot == oracles.hasse_dot(ground, highlight)
        assert dot.count("fillcolor") == 1


# one-character labels, among them the template's placeholders chr(0) to
# chr(5), quotes, backslashes, non-ASCII and astral characters
_CHARS = st.sampled_from(
    [*map(chr, range(6)), '"', "\\", "a", "b", "é", "ß", "\U0001F600", "\U00010348"]
)


@st.composite
def _odd_grounds(draw):
    n = draw(st.integers(1, 6))
    label = _CHARS
    if draw(st.booleans()):
        label = st.lists(_CHARS, min_size=1, max_size=3).map("".join)
    return GroundSet(tuple(draw(st.lists(label, min_size=n, max_size=n, unique=True))))


@settings(max_examples=40, deadline=None)
@given(_odd_grounds())
def test_label_template_matches_the_oracle_on_odd_labels(ground):
    expected = oracles.hasse_json(ground)
    assert hasse_json(ground) == expected
    assert hasse_dot(ground) == oracles.hasse_dot(ground)
    labels = ground.labels
    if len(labels) == 1 and len(labels[0]) > 1:
        return  # one multi-character label has no --ground spelling
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["lattice", "--ground", ",".join(labels), "--format", "json"])
    assert (code, out.getvalue()) == (0, json.dumps(expected) + "\n")


# a DOT quoted string, an arrow, a keyword, one punctuation mark or a space
_DOT_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|->|[A-Za-z]+|[{}\[\];=]| ')


def _dot_tokens(line: str) -> list[str]:
    """The tokens of one DOT line, spaces dropped; fails on a character
    that starts no token."""
    tokens, at = [], 0
    while at < len(line):
        token = _DOT_TOKEN.match(line, at)
        assert token, (line, at)
        tokens.append(token.group())
        at = token.end()
    return [t for t in tokens if t != " "]


def _unquoted(token: str) -> str:
    assert token[0] == token[-1] == '"', token
    return re.sub(r"\\(.)", r"\1", token[1:-1])


@settings(max_examples=40, deadline=None)
@given(_odd_grounds())
def test_dot_quotes_every_label(ground):
    # labels may hold '"' and '\', which must not end or escape a string
    nodes, edges = [], []
    for line in hasse_dot(ground).splitlines():
        match _dot_tokens(line):
            case [ident, "[", "label", "=", label, "]", ";"]:
                assert _unquoted(ident) == _unquoted(label)
                nodes.append(_unquoted(label))
            case [lo, "->", up, "[", "dir", "=", "none", "]", ";"]:
                edges.append([_unquoted(lo), _unquoted(up)])
    expected = hasse_json(ground)
    assert (nodes, edges) == (expected["nodes"], expected["edges"])


def test_cached_diagrams_are_not_shared_with_callers():
    first = hasse_json(U4)
    expected = oracles.hasse_json(U4)
    first["ground"].clear()
    first["nodes"].append("x")
    first["edges"][0].append("x")
    first["edges"].clear()
    assert hasse_json(U4) == hasse_json(U4) == expected
    assert hasse_dot(U4) == hasse_dot(U4)
    assert covering_pairs(U4) == covering_pairs(U4)


def test_bound_is_checked_before_the_cache():
    big = GroundSet(tuple("abcdefg"))
    before = lattice._hasse.cache_info()
    for draw in (hasse_json, hasse_dot, covering_pairs, lattice_nodes):
        with pytest.raises(BoundExceeded):
            draw(big)
    assert lattice._hasse.cache_info() == before


@pytest.mark.parametrize(
    "draw, args",
    [
        (hasse_json, ("abc",)),
        (hasse_json, (None,)),
        (hasse_dot, (("a", "b"),)),
        (lattice_nodes, (None,)),
        (covering_pairs, (3,)),
        (hasse_dot, (U3, 5)),
        (hasse_dot, (U3, make_partition(U3, [["a", "c"], ["b"]]))),
        (hasse_dot, (U3, ["ac|b"])),
        (hasse_dot, (U3, [None])),
        (superposition_partition, (None,)),
    ],
    ids=[
        "json-str", "json-none", "dot-tuple", "nodes-none", "covers-int",
        "highlight-int", "highlight-partition", "highlight-str", "highlight-none",
        "superposition-none",
    ],
)
def test_bad_lattice_input_raises_invalid_value(draw, args):
    before = lattice._hasse.cache_info()
    with pytest.raises(InvalidValue):
        draw(*args)
    assert lattice._hasse.cache_info() == before


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
    for n in range(1, 6):
        ground = GroundSet(tuple("abcde"[:n]))
        for mask in range(1, 1 << n):
            s = SubsetVector.from_bits(ground, mask)
            rest = [(i,) for i in range(n) if i not in s.members]
            expected = Partition(ground, [s.members, *rest])
            assert superposition_partition(s) == expected


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
