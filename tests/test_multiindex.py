import itertools
from math import comb

import numpy as np
import pytest

from pellel.calculus import d_terms
from pellel.errors import ValidationError
from pellel.multiindex import (MultiIndex, increasing_indices, index_positions,
                               num_indices, sort_signature)
from pellel.verify import _d_matrix, _jet_matrix


def test_sort_signature_examples():
    assert sort_signature((2, 1)) == sort_signature((2, 1))
    s = sort_signature((2, 1))
    assert tuple(s.index) == (1, 2) and s.sign == -1
    s = sort_signature((1, 1))
    assert tuple(s.index) == () and s.sign == 0
    s = sort_signature((3, 1, 2))
    assert tuple(s.index) == (1, 2, 3) and s.sign == 1


def test_sort_signature_range_check():
    with pytest.raises(ValidationError):
        sort_signature((0, 1), n=3)
    with pytest.raises(ValidationError):
        sort_signature((4,), n=3)


def brute_sign(seq):
    # count inversions directly
    inv = sum(1 for i, j in itertools.combinations(range(len(seq)), 2)
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def test_sort_signature_matches_brute_force(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        seq = tuple(rng.permutation(n)[:k] + 1)
        s = sort_signature(seq, n)
        assert tuple(s.index) == tuple(sorted(seq))
        assert s.sign == brute_sign(seq)


def _d_table(n, p):
    """d's terms from the definition: dx_j ^ dx_I = brute_sign((j,) + I)
    dx_J, J the sorted (j,) + I, for every increasing I and every j not
    in I; each term is (pos(J), pos(I), sign, j - 1)."""
    pos_out = index_positions(n, p + 1)
    return tuple((pos_out[MultiIndex(sorted((j,) + I))], i, float(brute_sign((j,) + I)), j - 1)
                 for i, I in enumerate(increasing_indices(n, p))
                 for j in range(1, n + 1) if j not in I)


def test_d_sign_table_matches_definition():
    for n in range(1, 7):
        for p in range(0, n + 1):
            assert d_terms(n, p) == _d_table(n, p)
    for n in range(1, 6):
        for p in range(0, n + 1):
            d_mat = np.zeros((num_indices(n, p + 1), num_indices(n, p) * (n + 1)))
            for o, i, s, ax in _d_table(n, p):
                d_mat[o, i * (n + 1) + ax + 1] = s
            assert np.array_equal(_d_matrix(n, p), d_mat)
            if p:
                jet_mat = np.zeros((num_indices(n, p - 1) * n, num_indices(n, p)))
                for o, i, s, ax in _d_table(n, p - 1):
                    jet_mat[i * n + ax, o] = s
                assert np.array_equal(_jet_matrix(n, p), jet_mat)


def test_enumeration_cardinality_and_order():
    for n in range(1, 6):
        for p in range(0, n + 1):
            idxs = increasing_indices(n, p)
            assert len(idxs) == comb(n, p) == num_indices(n, p)
            assert list(idxs) == sorted(idxs)
            pos = index_positions(n, p)
            assert [pos[i] for i in idxs] == list(range(len(idxs)))


def test_multiindex_validation():
    with pytest.raises(ValidationError):
        MultiIndex((2, 1))
    with pytest.raises(ValidationError):
        MultiIndex((1, 1))
    with pytest.raises(ValidationError):
        MultiIndex((0, 1))
    assert MultiIndex(()).degree == 0
