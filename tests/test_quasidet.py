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
    quasideterminant,
    ring_inverse,
    schur_complement,
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
    """The images psi_m(l_ij) on the central block m..n-m-1: the Schur
    complement of the leading m x m block of L equals the central block
    product of F, H and E, and, commutatively, the determinant ratio of the
    bordered minor over the leading block."""
    rows = [
        [Fraction(2), Fraction(1), Fraction(-1), Fraction(3), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(2), Fraction(-1), Fraction(2)],
        [Fraction(-2), Fraction(1), Fraction(4), Fraction(1), Fraction(-3)],
        [Fraction(3), Fraction(-1), Fraction(1), Fraction(5), Fraction(1)],
        [Fraction(1), Fraction(2), Fraction(-1), Fraction(2), Fraction(4)],
    ]
    for k in range(1, 6):
        assert det([r[:k] for r in rows[:k]]) != 0
    L = to_scalars(rows)
    g = gauss_decompose(L, ONE)
    for m in (1, 2):
        block = range(m, 5 - m)
        images = schur_complement(L, m, block, block, ONE)
        reduced = g.product(m)
        assert len(images) == len(reduced) == 5 - 2 * m
        lead = det([r[:m] for r in rows[:m]])
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                assert (images[a][b] - reduced[a][b]).is_zero(), (m, i, j)
                minor = [rows[r][:m] + [rows[r][j]] for r in [*range(m), i]]
                want = det(minor) / lead
                assert images[a][b] == Scalar.fraction(want.numerator, want.denominator)


def test_schur_complement_reuses_a_given_inverse_in_either_order():
    """Rows x cols of the complement agree in both product orders, and an
    inverse that is passed in is the one used."""
    L = _generic4()
    inv = ring_inverse([r[:2] for r in L[:2]], ONE)
    tall = schur_complement(L, 2, [2, 3], [3], ONE)  # R (A^-1 C)
    wide = schur_complement(L, 2, [2, 3], [2, 3], ONE, inv)  # (R A^-1) C
    assert [x for (x,) in tall] == [row[1] for row in wide]
    bumped = [row[:] for row in inv]
    bumped[0][0] += ONE
    ((x,),) = schur_complement(L, 2, [3], [3], ONE, bumped)
    assert not (x - wide[1][1]).is_zero()


def test_singular_leading_block_raises():
    L = to_scalars(
        [
            [Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(0)],
        ]
    )
    with pytest.raises(QuasidetError):
        gauss_decompose(L, ONE)
