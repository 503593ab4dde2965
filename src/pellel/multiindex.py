"""Combinatorics of strictly increasing multiindices and permutation signs.

A degree-p multiindex is a strictly increasing tuple of p integers in
1..N.  Antisymmetric coefficient access for an arbitrary index sequence
goes through the sign of the permutation that sorts it; a repeated entry
annihilates the coefficient (sign 0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import ValidationError


class MultiIndex(tuple):
    """Strictly increasing tuple of distinct integers in 1..N."""

    def __new__(cls, entries, n=None):
        t = tuple(int(e) for e in entries)
        for a, b in zip(t, t[1:]):
            if a >= b:
                raise ValidationError(f"multiindex {t} is not strictly increasing")
        if t and (t[0] < 1 or (n is not None and t[-1] > n)):
            raise ValidationError(f"multiindex {t} has entries outside 1..{n}")
        return super().__new__(cls, t)

    @property
    def degree(self) -> int:
        return len(self)


EMPTY = MultiIndex(())


@dataclass(frozen=True)
class SignedIndex:
    """A sorted multiindex together with the sign of the sorting permutation.

    sign is 0 exactly when the source sequence had a repeated entry.
    """

    index: MultiIndex
    sign: int


def sort_signature(seq, n=None) -> SignedIndex:
    """Sort an index sequence, returning the increasing tuple and the sign.

    The sign is (-1)**(number of inversions); it is 0 if any entry repeats.
    Entries must lie in 1..n when n is given.
    """
    seq = tuple(int(e) for e in seq)
    for e in seq:
        if e < 1 or (n is not None and e > n):
            raise ValidationError(f"index {e} outside 1..{n}")
    if len(set(seq)) != len(seq):
        return SignedIndex(EMPTY, 0)
    inversions = sum(
        1 for a, b in itertools.combinations(seq, 2) if a > b
    )
    return SignedIndex(MultiIndex(sorted(seq)), -1 if inversions % 2 else 1)


@lru_cache(maxsize=None)
def increasing_indices(n: int, p: int) -> tuple[MultiIndex, ...]:
    """All degree-p increasing multiindices over 1..n, lexicographic."""
    if p < 0:
        raise ValidationError("degree must be nonnegative")
    return tuple(MultiIndex(c) for c in itertools.combinations(range(1, n + 1), p))


@lru_cache(maxsize=None)
def index_positions(n: int, p: int) -> dict[MultiIndex, int]:
    """Lexicographic position of each degree-p multiindex; the canonical
    coefficient-vector layout used by every module."""
    return {idx: k for k, idx in enumerate(increasing_indices(n, p))}


def num_indices(n: int, p: int) -> int:
    return comb(n, p) if 0 <= p <= n else 0
