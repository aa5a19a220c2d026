"""The vector representation of the Drinfeld generators."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from qav.liedata import AlgebraData
from qav.scalars import Scalar
from qav.tensor import SparseMat
from qav.vecrep import (
    VecRepError,
    a_gen,
    check_drinfeld_window,
    k_cartan,
    psi_phi_modes,
    serre_sum,
    x_minus,
    x_plus,
)

from conftest import all_pass


@pytest.mark.parametrize(
    "type_,rank", [("B", 1), ("B", 2), ("B", 4), ("D", 2), ("D", 3), ("D", 5)]
)
def test_k_cartan_inverse_pairs(type_, rank):
    alg = AlgebraData(type_, rank)
    for i in range(1, alg.n + 1):
        assert k_cartan(alg, i) * k_cartan(alg, i, inv=True) == SparseMat.identity(
            alg.N
        )


@pytest.mark.parametrize(
    "type_,rank", [("B", 1), ("B", 2), ("B", 4), ("D", 2), ("D", 3), ("D", 5)]
)
def test_cartan_conjugation_weights(type_, rank):
    """k_i x+-_{j,m} k_i^-1 = q_i^(+-A_ij) x+-_{j,m}: an independent spot
    recomputation of the weight grading."""
    alg = AlgebraData(type_, rank)
    for i in range(1, alg.n + 1):
        ki = k_cartan(alg, i)
        kinv = k_cartan(alg, i, inv=True)
        for j in range(1, alg.n + 1):
            aij = int(alg.A[i - 1][j - 1])
            for m in (-1, 0, 2):
                for sgn, x in ((1, x_plus(alg, j, m)), (-1, x_minus(alg, j, m))):
                    got = ki * x * kinv
                    want = x.scale(alg.qi[i - 1] ** (sgn * aij))
                    assert got == want, (i, j, m, sgn)


def test_mode_dependence_is_geometric():
    """x_{i,k} differs from x_{i,0} by entrywise powers of a fixed q-shift,
    so x_{i,k+1} entries are x_{i,k} entries times the same ratio."""
    alg = AlgebraData("B", 2)
    for i in (1, 2):
        base = {(-1, r, c): v for r, c, v in x_plus(alg, i, -1).entries()}
        zero = {(r, c): v for r, c, v in x_plus(alg, i, 0).entries()}
        one = {(r, c): v for r, c, v in x_plus(alg, i, 1).entries()}
        for (r, c), v in zero.items():
            left = one[(r, c)] * v.inverse()
            right = v * base[(-1, r, c)].inverse()
            assert (left - right).is_zero()


def test_index_validation():
    alg = AlgebraData("D", 2)
    with pytest.raises(VecRepError):
        x_plus(alg, 0, 1)
    with pytest.raises(VecRepError):
        x_minus(alg, 3, 1)
    with pytest.raises(VecRepError):
        a_gen(alg, 1, 0)


# entries a * q^e with small integers a and e, zero included
_entries = st.builds(
    lambda a, e: Scalar.from_int(a) * Scalar.q_pow(e),
    st.integers(-2, 2),
    st.integers(-1, 1),
)


@st.composite
def _square_mats(draw, dim):
    return SparseMat.from_entries(
        dim, dim, [(i, j, draw(_entries)) for i in range(dim) for j in range(dim)]
    )


@pytest.mark.parametrize("r", [1, 2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_serre_sum_is_the_folded_sum(r, data):
    """serre_sum equals the left fold over the orderings of xs and the
    insertion positions of y."""
    dim = data.draw(st.integers(1, 3))
    xs = [data.draw(_square_mats(dim)) for _ in range(r)]
    y = data.draw(_square_mats(dim))
    coefs = [data.draw(_entries) for _ in range(r + 1)]
    acc = SparseMat.zeros(dim, dim)
    for perm in permutations(range(r)):
        for l in range(r + 1):
            mats = [xs[p] for p in perm]
            mats.insert(l, y)
            prod = mats[0]
            for m in mats[1:]:
                prod = prod * m
            acc = acc + prod.scale(coefs[l])
    assert serre_sum(xs, y, coefs) == acc


def test_psi_phi_zero_modes_are_cartan():
    alg = AlgebraData("D", 2)
    for i in (1, 2):
        psi, phi = psi_phi_modes(alg, i, 2)
        assert psi[0] == k_cartan(alg, i)
        assert phi[0] == k_cartan(alg, i, inv=True)


@pytest.mark.parametrize("type_,rank", [("B", 1), ("B", 2), ("D", 2)])
def test_drinfeld_relations_window2(type_, rank):
    alg = AlgebraData(type_, rank)
    checks = check_drinfeld_window(alg, window=2)
    assert all_pass(checks)
    assert any("Serre" in c["name"] for c in checks)


def test_window_validation():
    with pytest.raises(VecRepError):
        check_drinfeld_window(AlgebraData("B", 1), window=0)
