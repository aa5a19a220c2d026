"""Quasideterminants and noncommutative Gauss decomposition.

The commutative oracle: over a field, |A|_ij = (-1)^(i+j) det(A) / det(A^ij),
computed here with an independent cofactor-expansion determinant over exact
rationals.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qav.quasidet import (
    GaussFactors,
    QuasidetError,
    _cross_check,
    gauss_decompose,
    mat_mul,
    psi_image,
    quasideterminant,
    ring_inverse,
)
from qav.scalars import Scalar, ONE, ZERO


def det(rows):
    """Cofactor-expansion determinant over Fractions."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        acc += (-1) ** j * rows[0][j] * det(minor)
    return acc


def to_scalars(rows):
    return [[Scalar.fraction(x.numerator, x.denominator) for x in row] for row in rows]


_mat3 = st.lists(
    st.lists(st.integers(-4, 4).map(Fraction), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)


@settings(max_examples=50, deadline=None)
@given(_mat3, st.integers(0, 2), st.integers(0, 2))
def test_quasideterminant_matches_determinant_ratio(rows, i, j):
    minor = [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]
    if det(minor) == 0:
        return  # quasideterminant undefined; nothing to compare
    A = to_scalars(rows)
    try:
        qd = quasideterminant(A, i, j, ONE)
    except QuasidetError:
        # a non-invertible pivot inside the minor inverse; the generic
        # formula still holds whenever the computation goes through
        return
    want = Fraction((-1) ** (i + j)) * det(rows) / det(minor)
    assert (qd - Scalar.fraction(want.numerator, want.denominator)).is_zero()


@settings(max_examples=40, deadline=None)
@given(_mat3)
def test_ring_inverse_roundtrip(rows):
    if det(rows) == 0:
        return
    A = to_scalars(rows)
    try:
        inv = ring_inverse(A, ONE)
    except QuasidetError:
        return  # pivot ordering failed; acceptable for the dense eliminator
    prod = mat_mul(A, inv)
    for i in range(3):
        for j in range(3):
            want = ONE if i == j else ZERO
            assert (prod[i][j] - want).is_zero()


def _generic4():
    """A fixed generic invertible 4x4 over the rationals (all leading
    principal minors nonzero)."""
    rows = [
        [Fraction(2), Fraction(1), Fraction(-1), Fraction(3)],
        [Fraction(1), Fraction(3), Fraction(2), Fraction(-1)],
        [Fraction(-2), Fraction(1), Fraction(4), Fraction(1)],
        [Fraction(3), Fraction(-1), Fraction(1), Fraction(5)],
    ]
    for k in range(1, 5):
        assert det([r[:k] for r in rows[:k]]) != 0
    return to_scalars(rows)


def test_gauss_decompose_reassembles_and_cross_checks():
    L = _generic4()
    g = gauss_decompose(L, ONE)
    assert all(d.is_zero() for _, d in _cross_check(g))
    prod = g.product()
    for i in range(4):
        for j in range(4):
            assert (prod[i][j] - L[i][j]).is_zero()
    # F lower unitriangular, E upper unitriangular
    for i in range(4):
        assert (g.F[i][i] - ONE).is_zero()
        assert (g.E[i][i] - ONE).is_zero()
        for j in range(i + 1, 4):
            assert g.F[i][j].is_zero()
            assert g.E[j][i].is_zero()


@pytest.mark.parametrize(
    "factor,i,j,labels",
    [
        ("H", 1, 1, {"generator": "h", "entry": [2]}),
        ("E", 1, 3, {"generator": "e", "entry": [2, 4]}),
        ("F", 3, 1, {"generator": "f", "entry": [4, 2]}),
    ],
)
def test_cross_check_labels_the_bumped_generator(factor, i, j, labels):
    """The cross path reads only L, so one bumped h, e or f entry of the
    factors is its first nonzero difference, labelled with that generator."""
    g = gauss_decompose(_generic4(), ONE)
    if factor == "H":
        g.H[i] += ONE
    else:
        getattr(g, factor)[i][j] += ONE
    assert next(lab for lab, d in _cross_check(g) if not d.is_zero()) == labels


def test_gauss_accessors_are_one_based():
    g = gauss_decompose(_generic4(), ONE)
    assert (g.h(1) - g.H[0]).is_zero()
    assert (g.e(1, 3) - g.E[0][2]).is_zero()
    assert (g.f(3, 1) - g.F[2][0]).is_zero()
    with pytest.raises(QuasidetError):
        g.e(2, 2)
    with pytest.raises(QuasidetError):
        g.f(1, 3)


def test_gauss_diagonal_is_quasideterminant_of_leading_block():
    """h_i equals the (i,i) quasideterminant of the i-th leading block; in the
    commutative case that is det(L_i)/det(L_{i-1})."""
    rows = [
        [Fraction(2), Fraction(1), Fraction(-1), Fraction(3)],
        [Fraction(1), Fraction(3), Fraction(2), Fraction(-1)],
        [Fraction(-2), Fraction(1), Fraction(4), Fraction(1)],
        [Fraction(3), Fraction(-1), Fraction(1), Fraction(5)],
    ]
    g = gauss_decompose(to_scalars(rows), ONE)
    prev = Fraction(1)
    for i in range(1, 5):
        cur = det([r[:i] for r in rows[:i]])
        want = cur / prev
        assert (g.h(i) - Scalar.fraction(want.numerator, want.denominator)).is_zero()
        prev = cur


def test_psi_image_two_paths_agree():
    g = gauss_decompose(_generic4(), ONE)
    for m in (1, 2):
        for i in range(m + 1, 5):
            for j in range(m + 1, 5):
                value, reduced, ok = psi_image(g, m, i, j)
                assert ok, (m, i, j)
                assert reduced == g.reduced_product(m)[i - 1 - m][j - 1 - m]
    with pytest.raises(QuasidetError):
        psi_image(g, 2, 2, 3)


def test_singular_leading_block_raises():
    L = to_scalars(
        [
            [Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(0)],
        ]
    )
    with pytest.raises(QuasidetError):
        gauss_decompose(L, ONE)
