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
from typing import NamedTuple

from .partitions import (
    Partition,
    ProbGroundSet,
    _join_rgs,
    _require_probs,
    _require_same_ground,
    ditset,
    join,
)

def block_probs(
    pi: Partition, probs: ProbGroundSet
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Per-block probability masses, in canonical block order."""
    _require_probs(pi, probs)
    return [(blk, probs.prob(blk)) for blk in pi.blocks]


def _square_mass(rgs: tuple[int, ...], weights: tuple[int, ...]) -> int:
    """Sum of W_B^2 over the blocks B of the partition with RGS `rgs`,
    where W_B sums `weights` over B."""
    mass = [0] * (max(rgs) + 1)
    for b, w in zip(rgs, weights):
        mass[b] += w
    return sum(m * m for m in mass)


def logical_entropy(pi: Partition, probs: ProbGroundSet) -> Fraction:
    """1 - sum of squared block probabilities, exactly: on the grid of
    `probs` that is (D^2 - sum of W_B^2) / D^2, with W_B a block's
    integer weight and D the common denominator."""
    _require_probs(pi, probs)
    square = probs.denominator**2
    return Fraction(square - _square_mass(pi.rgs, probs.weights), square)


def logical_entropy_ditsum(pi: Partition, probs: ProbGroundSet) -> Fraction:
    """Same quantity summed pair by pair over the dit-set: the product
    measure p x p of the set of distinctions."""
    _require_probs(pi, probs)
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
    all four are integer differences over D^2."""
    _require_same_ground(pi, sigma)
    _require_probs(pi, probs)
    w = probs.weights
    s_pi = _square_mass(pi.rgs, w)
    s_sigma = _square_mass(sigma.rgs, w)
    s_join = _square_mass(_join_rgs(pi.rgs, sigma.rgs), w)
    square = probs.denominator**2
    return CompoundLogical(
        joint=Fraction(square - s_join, square),
        conditional_pi_given_sigma=Fraction(s_sigma - s_join, square),
        conditional_sigma_given_pi=Fraction(s_pi - s_join, square),
        mutual=Fraction(square - s_pi - s_sigma + s_join, square),
    )


def shannon_entropy(pi: Partition, probs: ProbGroundSet) -> float:
    """Block entropy in bits, (W/D) * log2(D/W) summed over block weights W."""
    _require_probs(pi, probs)
    d = probs.denominator
    return sum(m / d * math.log2(d / m) for m in map(probs.weight, pi.blocks))


class CompoundShannon(NamedTuple):
    joint: float
    conditional_pi_given_sigma: float
    conditional_sigma_given_pi: float
    mutual: float


def compound_shannon(
    pi: Partition, sigma: Partition, probs: ProbGroundSet
) -> CompoundShannon:
    _require_same_ground(pi, sigma)
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
