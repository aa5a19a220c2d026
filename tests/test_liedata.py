"""Root data, barred weights, and the q-deformed Gram matrix."""

from fractions import Fraction

import pytest

import qav.liedata as liedata
from qav.liedata import (
    AlgebraData,
    LieDataError,
    bq_matrix,
    btilde_q,
    btilde_q_closed_form,
    check_cartan,
)
from qav.scalars import Scalar, qint

from conftest import all_pass


def test_constructor_rejects_bad_input():
    with pytest.raises(LieDataError):
        AlgebraData("A", 2)
    with pytest.raises(LieDataError):
        AlgebraData("B", 0)
    with pytest.raises(LieDataError):
        AlgebraData("D", 1)


def test_frozen_dimensions_and_xi():
    b2 = AlgebraData("B", 2)
    d3 = AlgebraData("D", 3)
    assert (b2.N, d3.N) == (5, 6)
    assert b2.xi == Scalar.q_pow(-3)
    assert d3.xi == Scalar.q_pow(-4)


@pytest.mark.parametrize(
    "type_, n", [("B", n) for n in range(1, 8)] + [("D", n) for n in range(2, 8)]
)
def test_module_functions_reproduce_algebra_data(type_, n):
    alg = AlgebraData(type_, n)
    assert liedata.dimension_of(type_, n) == alg.N
    assert liedata.bars_of(type_, n) == alg.bars
    assert liedata.xi_of(type_, n) == alg.xi


def test_frozen_reduced_rank_bars_and_xi():
    """The barred weights and xi at the ranks m the main structure theorem's
    reductions read, D_1 included: bars [0, 0] and xi = 1."""
    h = Fraction(1, 2)
    frozen = {
        ("B", 1): ([h, 0, -h], -1),
        ("B", 2): ([3 * h, h, 0, -h, -3 * h], -3),
        ("B", 3): ([5 * h, 3 * h, h, 0, -h, -3 * h, -5 * h], -5),
        ("D", 1): ([0, 0], 0),
        ("D", 2): ([1, 0, 0, -1], -2),
        ("D", 3): ([2, 1, 0, 0, -1, -2], -4),
        ("D", 4): ([3, 2, 1, 0, 0, -1, -2, -3], -6),
    }
    for (type_, m), (bars, xi_exp) in frozen.items():
        assert liedata.bars_of(type_, m) == bars
        assert liedata.dimension_of(type_, m) == len(bars)
        assert liedata.xi_of(type_, m) == Scalar.q_pow(xi_exp)
    assert liedata.xi_of("D", 1).is_one()


def test_frozen_cartan_data_b2():
    alg = AlgebraData("B", 2)
    assert alg.A == [[2, -1], [-2, 2]]
    assert alg.Bmat == [[2, -1], [-1, 1]]
    assert alg.r == [Fraction(1), Fraction(1, 2)]
    assert alg.qi == [Scalar.q_pow(1), Scalar.q_pow(Fraction(1, 2))]


def test_frozen_cartan_data_d3():
    alg = AlgebraData("D", 3)
    assert alg.A == [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]]
    assert alg.r == [Fraction(1)] * 3


def test_frozen_bars():
    assert AlgebraData("B", 2).bars == [
        Fraction(3, 2),
        Fraction(1, 2),
        Fraction(0),
        Fraction(-1, 2),
        Fraction(-3, 2),
    ]
    assert AlgebraData("D", 3).bars == [
        Fraction(2),
        Fraction(1),
        Fraction(0),
        Fraction(0),
        Fraction(-1),
        Fraction(-2),
    ]


def test_prime_involution_and_bars():
    for t, r in [("B", 3), ("D", 4)]:
        alg = AlgebraData(t, r)
        for i in range(1, alg.N + 1):
            assert alg.prime(alg.prime(i)) == i
            assert alg.bar(i) + alg.bar(alg.prime(i)) == 0
            assert alg.q_bar_diff(i, i).is_one()


@pytest.mark.parametrize(
    "type_, n", [("B", n) for n in range(1, 9)] + [("D", n) for n in range(2, 9)]
)
def test_node_pair_spans_the_simple_root(type_, n):
    """wt(a) - wt(b) = alpha_i for the pair (a, b) of every node, with
    wt(j) = e_j for j <= n, -e_j' for j' <= n and 0 at the middle index;
    b is the middle index exactly at the last node of type B."""
    alg = AlgebraData(type_, n)
    zero = (Fraction(0),) * n

    def wt(j):
        if j <= n:
            return alg.epsilon[j - 1]
        if alg.prime(j) <= n:
            return tuple(-x for x in alg.epsilon[alg.prime(j) - 1])
        return zero

    for i in range(1, n + 1):
        a, b = alg.node_pair(i)
        assert a < b
        assert tuple(x - y for x, y in zip(wt(a), wt(b))) == alg.roots[i - 1]
        assert alg.is_middle(b) == (type_ == "B" and i == n)


@pytest.mark.parametrize(
    "type_,rank",
    [("B", 1), ("B", 2), ("B", 3), ("B", 4), ("D", 2), ("D", 3), ("D", 4)],
)
def test_check_cartan_passes(type_, rank):
    assert all_pass(check_cartan(AlgebraData(type_, rank)))


@pytest.mark.parametrize(
    "type_,rank",
    [("B", 1), ("B", 2), ("B", 3), ("B", 4), ("D", 2), ("D", 3), ("D", 4)],
)
def test_btilde_q_inverts_bq(type_, rank):
    """The closed-form table really is the two-sided inverse of B(q)."""
    alg = AlgebraData(type_, rank)
    bq = bq_matrix(alg)
    closed = btilde_q_closed_form(alg)
    n = alg.n
    for i in range(n):
        for j in range(n):
            prod = sum(
                (bq[i][k] * closed[k][j] for k in range(n)), Scalar.from_int(0)
            )
            want = Scalar.from_int(int(i == j))
            assert (prod - want).is_zero(), (i, j)
    # and btilde_q cross-checks the Gauss-Jordan inverse against the table
    inv = btilde_q(alg)
    assert all(
        (inv[i][j] - closed[i][j]).is_zero() for i in range(n) for j in range(n)
    )


def test_btilde_q_frozen_rank1():
    # B1: B(q) = ([1]_q) = (1), so the inverse is the 1x1 identity
    inv = btilde_q(AlgebraData("B", 1))
    assert inv[0][0].is_one()


def test_bq_matrix_uses_q_integers():
    bq = bq_matrix(AlgebraData("B", 2))
    assert (bq[0][0] - qint(2)).is_zero()
    assert (bq[0][1] + qint(1)).is_zero()
    assert (bq[1][1] - qint(1)).is_zero()


def test_large_algebra_data_does_not_invert_b(monkeypatch):
    """B~ is computed on first use, so a rank that a resource bound refuses
    never pays the cubic elimination."""

    def refuse(*args):
        raise AssertionError("ring_inverse called")

    monkeypatch.setattr(liedata, "ring_inverse", refuse)
    alg = AlgebraData("B", 80)
    assert alg.N == 161
    with pytest.raises(AssertionError):
        alg.Btilde


def test_btilde_is_computed_once():
    alg = AlgebraData("D", 3)
    assert alg.Btilde is alg.Btilde
    assert alg.Btilde[0][0] == Scalar.from_int(1)
