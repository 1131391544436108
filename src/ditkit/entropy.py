"""Logical and Shannon entropy of partitions.

Logical entropy is the two-draw probability of drawing a distinction.
It is exact: summed in integers on the grid of the `ProbGroundSet`
(weights over a common denominator D), from each partition's restricted
growth string, and returned as a `Fraction` over D².  Shannon entropy
needs logarithms, so it lives in floats, summed on the same grid.  The
one check that compares floats, `dit_to_bit_check`, compares it with `==`
to the same sum over `Fraction` block probabilities: the terms agree
because both round W/D and D/W correctly, not because they are shared.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .partitions import (
    Partition,
    ProbGroundSet,
    _require_on,
    ditset,
    join,
)

def block_probs(
    pi: Partition, probs: ProbGroundSet
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Per-block probability masses, in canonical block order."""
    _require_on(ProbGroundSet, "probs must be a ProbGroundSet", probs, pi)
    w, d = probs.weights, probs.denominator
    return [(blk, Fraction(sum(map(w.__getitem__, blk)), d)) for blk in pi.blocks]


def _square_mass(rgs: tuple[int, ...], weights: tuple[int, ...]) -> int:
    """Sum of W_B^2 over the blocks B of the partition with RGS `rgs`,
    where W_B sums `weights` over B.  A label is below len(rgs), and an
    unused one adds 0."""
    mass = [0] * len(rgs)
    for b, w in zip(rgs, weights):
        mass[b] += w
    return sum(map(mul, mass, mass))


def logical_entropy(pi: Partition, probs: ProbGroundSet) -> Fraction:
    """1 - sum of squared block probabilities, exactly: on the grid of
    `probs` that is (D^2 - sum of W_B^2) / D^2, with W_B a block's
    integer weight and D the common denominator."""
    _require_on(ProbGroundSet, "probs must be a ProbGroundSet", probs, pi)
    square = probs.denominator**2
    return Fraction(square - _square_mass(pi.rgs, probs.weights), square)


def logical_entropy_ditsum(pi: Partition, probs: ProbGroundSet) -> Fraction:
    """Same quantity summed pair by pair over the dit-set: the product
    measure p x p of the set of distinctions."""
    _require_on(ProbGroundSet, "probs must be a ProbGroundSet", probs, pi)
    return sum(
        (probs.p[i] * probs.p[k] for (i, k) in ditset(pi).pairs),
        Fraction(0),
    )


class CompoundLogical(NamedTuple):
    joint: Fraction
    conditional_pi_given_sigma: Fraction
    conditional_sigma_given_pi: Fraction
    mutual: Fraction


def compound_logical(
    pi: Partition, sigma: Partition, probs: ProbGroundSet
) -> CompoundLogical:
    """Joint, conditional, and mutual logical entropy.  These satisfy the
    Venn relations exactly: the joint is the entropy of the join, and the
    mutual information is the p x p mass of the common dits.  With S the
    squared-mass sum of a partition, each entropy is (D^2 - S) / D^2, so
    all four are integer differences over D^2.  One pass sums the block
    masses of pi, of sigma and of their join, whose blocks are the
    classes of equal label pairs (a, b), keyed by a * n + b in a dict
    that holds only the pairs that occur, at most n."""
    _require_on(ProbGroundSet, "probs must be a ProbGroundSet", probs, pi)
    _require_on(ProbGroundSet, "probs must be a ProbGroundSet", probs, sigma)
    n = len(pi.rgs)
    m_pi, m_sigma, m_join = [0] * n, [0] * n, {}
    for a, b, x in zip(pi.rgs, sigma.rgs, probs.weights):
        m_pi[a] += x
        m_sigma[b] += x
        key = a * n + b
        m_join[key] = m_join.get(key, 0) + x
    s_pi = sum(map(mul, m_pi, m_pi))
    s_sigma = sum(map(mul, m_sigma, m_sigma))
    masses = m_join.values()
    s_join = sum(map(mul, masses, masses))
    square = probs.denominator**2
    return CompoundLogical(
        joint=Fraction(square - s_join, square),
        conditional_pi_given_sigma=Fraction(s_sigma - s_join, square),
        conditional_sigma_given_pi=Fraction(s_pi - s_join, square),
        mutual=Fraction(square - s_pi - s_sigma + s_join, square),
    )


def shannon_entropy(pi: Partition, probs: ProbGroundSet) -> float:
    """Block entropy in bits, (W/D) * log2(D/W) summed over block weights W."""
    _require_on(ProbGroundSet, "probs must be a ProbGroundSet", probs, pi)
    w, d = probs.weights, probs.denominator
    masses = (sum(map(w.__getitem__, blk)) for blk in pi.blocks)
    return sum(m / d * math.log2(d / m) for m in masses)


class CompoundShannon(NamedTuple):
    joint: float
    conditional_pi_given_sigma: float
    conditional_sigma_given_pi: float
    mutual: float


def compound_shannon(
    pi: Partition, sigma: Partition, probs: ProbGroundSet
) -> CompoundShannon:
    h_pi = shannon_entropy(pi, probs)
    h_sigma = shannon_entropy(sigma, probs)
    h_join = shannon_entropy(join(pi, sigma), probs)
    return CompoundShannon(
        joint=h_join,
        conditional_pi_given_sigma=h_join - h_sigma,
        conditional_sigma_given_pi=h_join - h_pi,
        mutual=h_pi + h_sigma - h_join,
    )


def dit_to_bit_check(pi: Partition, probs: ProbGroundSet) -> bool:
    """Verify the monotone dit-to-bit transform on this input: in the
    block-sum form h = sum Pr(B) * (1 - Pr(B)), replacing each factor
    (1 - Pr(B)) by log2(1/Pr(B)) must reproduce the Shannon entropy.

    It holds for every input by construction, as `set_spectral_check`
    does: sum Pr(B) * (1 - Pr(B)) is the logical entropy, exactly, and
    the transformed float sum adds the terms of `shannon_entropy` in its
    order: float(Pr(B)) and log2(1/Pr(B)) round W/D and D/W correctly,
    as its int divisions do.  The check is a worked statement of the
    transform, not a test that can fail."""
    terms = [(pr, 1 - pr) for _, pr in block_probs(pi, probs)]
    if sum((pr * dit_factor for pr, dit_factor in terms), Fraction(0)) \
            != logical_entropy(pi, probs):
        return False
    transformed = sum(
        float(pr) * math.log2(1 / pr) for pr, _ in terms
    )
    return transformed == shannon_entropy(pi, probs)
