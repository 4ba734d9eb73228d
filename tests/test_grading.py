import itertools

import pytest
from hypothesis import given, strategies as st

from superbv.grading import reorder_sign
from oracles import BiDegree, commute_sign


def apply_permutation(sequence, permutation):
    """Reorder ``sequence`` so that item ``i`` of the result is ``sequence[permutation[i]]``."""
    return [sequence[p] for p in permutation]


bidegrees = st.builds(BiDegree, st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=1))


def test_commute_sign_examples():
    assert commute_sign(BiDegree(0, 0), BiDegree(3, 1)) == 1
    assert commute_sign(BiDegree(1, 0), BiDegree(1, 0)) == -1
    assert commute_sign(BiDegree(1, 1), BiDegree(1, 1)) == 1


@given(bidegrees, bidegrees)
def test_commute_sign_symmetric(a, b):
    assert commute_sign(a, b) == commute_sign(b, a)


def test_reorder_sign_examples():
    assert reorder_sign([1, 1], [1, 0]) == -1
    assert reorder_sign([1, 0], [1, 0]) == 1
    assert reorder_sign([0, 1], [1, 0]) == 1
    # rotation of three odd generators composes two adjacent odd swaps
    assert reorder_sign([1, 1, 1], [2, 0, 1]) == 1


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=6))
def test_reorder_sign_identity(parities):
    assert reorder_sign(parities, range(len(parities))) == 1


@given(st.permutations(range(5)), st.permutations(range(5)),
       st.lists(st.integers(min_value=0, max_value=1), min_size=5, max_size=5))
def test_reorder_sign_multiplicative(sigma, tau, parities):
    composed = [sigma[t] for t in tau]
    lhs = reorder_sign(parities, composed)
    rhs = reorder_sign(parities, sigma) * reorder_sign(apply_permutation(parities, sigma), tau)
    assert lhs == rhs


def test_reorder_sign_brute_force_transpositions():
    # decompose each permutation of 4 into adjacent swaps and compare
    parities = [1, 0, 1, 1]
    for perm in itertools.permutations(range(4)):
        work = list(perm)
        sign = 1
        for i in range(len(work)):
            for j in range(len(work) - 1):
                if work[j] > work[j + 1]:
                    if parities[work[j]] == 1 and parities[work[j + 1]] == 1:
                        sign = -sign
                    work[j], work[j + 1] = work[j + 1], work[j]
        assert reorder_sign(parities, perm) == sign


def test_reorder_sign_rejects_malformed():
    with pytest.raises(ValueError):
        reorder_sign([1, 1], [0, 0])
    with pytest.raises(ValueError):
        reorder_sign([1, 1], [0])


def test_bidegree_validation():
    with pytest.raises(ValueError):
        BiDegree(-1, 0)
    with pytest.raises(ValueError):
        BiDegree(0, 2)
