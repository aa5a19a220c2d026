"""Sparse exact matrices, Kronecker embedding, the transposition t and the
crossing map."""

import pytest
from hypothesis import given, settings, strategies as st

from qav.scalars import Scalar, ONE, ZERO
from qav.liedata import AlgebraData
from qav.quasidet import SingularPivotError
from qav.tensor import (
    MatrixError,
    SparseMat,
    crossed,
    embed_leg,
    transpose_t,
)

from conftest import det

# -- dense reference implementation ------------------------------------------


def dense(m: SparseMat):
    return [[m.get(i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def dense_mul(a, b):
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def dense_kron(a, b):
    ra, ca, rb, cb = len(a), len(a[0]), len(b), len(b[0])
    return [
        [a[i // rb][j // cb] * b[i % rb][j % cb] for j in range(ca * cb)]
        for i in range(ra * rb)
    ]


def from_dense(rows):
    return SparseMat.from_entries(
        len(rows),
        len(rows[0]),
        [(i, j, x) for i, r in enumerate(rows) for j, x in enumerate(r)],
    )


@st.composite
def small_mats(draw, n=None):
    dim = n if n is not None else draw(st.integers(2, 3))
    rows = [
        [Scalar.from_int(draw(st.integers(-3, 3))) for _ in range(dim)]
        for _ in range(dim)
    ]
    return from_dense(rows)


# -- arithmetic against the dense oracle --------------------------------------


@settings(max_examples=50, deadline=None)
@given(small_mats(n=3), small_mats(n=3))
def test_matrix_product_matches_dense(a, b):
    assert dense(a * b) == dense_mul(dense(a), dense(b))


@settings(max_examples=50, deadline=None)
@given(small_mats(n=2), small_mats(n=3))
def test_kron_matches_dense(a, b):
    assert dense(a.kron(b)) == dense_kron(dense(a), dense(b))


@settings(max_examples=50, deadline=None)
@given(small_mats(n=2), small_mats(n=2), small_mats(n=2), small_mats(n=2))
def test_kron_mixed_product_rule(a, b, c, d):
    assert (a.kron(b)) * (c.kron(d)) == (a * c).kron(b * d)


_int3 = st.lists(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3
)


@settings(max_examples=50, deadline=None)
@given(_int3)
def test_inverse_roundtrip(rows):
    """Over Q, a matrix is inverted exactly when its determinant is nonzero,
    and SingularPivotError is raised otherwise."""
    m = from_dense([[Scalar.from_int(x) for x in r] for r in rows])
    if det(rows) == 0:
        with pytest.raises(SingularPivotError):
            m.inverse()
        return
    inv = m.inverse()
    assert m * inv == SparseMat.identity(3)
    assert inv * m == SparseMat.identity(3)


def test_inverse_of_singular_matrix_raises():
    m = from_dense([[ONE, ONE], [ONE, ONE]])
    with pytest.raises(SingularPivotError) as exc:
        m.inverse()
    assert exc.value.col == 1


def test_from_entries_sums_collisions():
    m = SparseMat.from_entries(2, 2, [(0, 1, ONE), (0, 1, ONE), (1, 0, -ONE)])
    assert m.get(0, 1) == Scalar.from_int(2)
    assert m.get(1, 0) == -ONE
    assert m.get(0, 0).is_zero()
    assert m.nnz() == 2


@st.composite
def tensor_terms(draw):
    """Leg sizes N and M and terms (i, j, k, l, x), 1-based, with repeats."""
    N, M = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    term = st.tuples(
        st.integers(1, N),
        st.integers(1, N),
        st.integers(1, M),
        st.integers(1, M),
        st.integers(-2, 2).map(Scalar.from_int),
    )
    terms = draw(st.lists(term, max_size=6))
    if terms:
        terms += draw(st.lists(st.sampled_from(terms), max_size=3))
    return N, M, terms


@settings(max_examples=50, deadline=None)
@given(tensor_terms())
def test_from_terms_is_the_sum_of_unit_krons(case):
    """Each term (i, j, k, l, x) is x e_ij (x) e_kl as kron packs it, and
    colliding terms are summed."""
    N, M, terms = case
    want = SparseMat.zeros(N * M, N * M)
    for i, j, k, l, x in terms:
        unit = SparseMat.unit(N, i - 1, j - 1).kron(SparseMat.unit(M, k - 1, l - 1))
        want += unit.scale(x)
    got = SparseMat.from_terms(N, M, terms)
    assert (got.nrows, got.ncols) == (N * M, N * M)
    assert list(got.entries()) == list(want.entries())


def test_from_terms_sums_a_repeated_term():
    two = Scalar.from_int(2)
    m = SparseMat.from_terms(2, 3, [(2, 1, 3, 2, ONE), (2, 1, 3, 2, ONE)])
    assert list(m.entries()) == [(5, 1, two)]


@settings(max_examples=50, deadline=None)
@given(small_mats(n=2), small_mats())
def test_blocks_undo_kron(a, b):
    """Block (i, j) of A.kron(B) is A_ij B."""
    grid = a.kron(b).blocks(2)
    assert [len(line) for line in grid] == [2, 2]
    for i in range(2):
        for j in range(2):
            block = grid[i][j]
            assert (block.nrows, block.ncols) == (b.nrows, b.ncols)
            assert list(block.entries()) == list(b.scale(a.get(i, j)).entries())


@st.composite
def block_grids(draw):
    """Leg sizes N and M (1 to 3 each) and an NM x NM matrix."""
    N, M = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return N, draw(small_mats(n=N * M))


@settings(max_examples=50, deadline=None)
@given(block_grids())
def test_from_blocks_and_blocks_undo_each_other(case):
    N, m = case
    grid = m.blocks(N)
    back = SparseMat.from_blocks(grid)
    assert (back.nrows, back.ncols) == (m.nrows, m.ncols)
    assert back.rows == m.rows
    assert [[b.rows for b in line] for line in back.blocks(N)] == [
        [b.rows for b in line] for line in grid
    ]


def test_blocks_reject_a_size_the_legs_do_not_divide():
    with pytest.raises(MatrixError):
        SparseMat.identity(6).blocks(4)
    with pytest.raises(MatrixError):
        SparseMat.zeros(4, 6).blocks(2)


def test_shape_errors():
    a = SparseMat.identity(2)
    b = SparseMat.identity(3)
    with pytest.raises(MatrixError):
        a + b
    with pytest.raises(MatrixError):
        a * b
    with pytest.raises(MatrixError):
        SparseMat.zeros(2, 3).inverse()


# -- tensor-leg embedding ------------------------------------------------------


def test_embed_leg_12_is_kron_with_identity():
    N = 2
    a = from_dense([[ONE, Scalar.s_pow(1)], [ZERO, -ONE]])
    b = from_dense([[Scalar.from_int(2), ZERO], [ONE, ONE]])
    op = a.kron(b)
    assert embed_leg(op, (1, 2), N) == op.kron(SparseMat.identity(N))
    assert embed_leg(op, (2, 3), N) == SparseMat.identity(N).kron(op)


def test_embed_leg_is_multiplicative():
    N = 2
    x = from_dense([[ONE, Scalar.w()], [ZERO, ONE]]).kron(
        from_dense([[ONE, ZERO], [Scalar.s_pow(-1), -ONE]])
    )
    y = from_dense([[ZERO, ONE], [ONE, ZERO]]).kron(
        from_dense([[ONE, ONE], [ZERO, ONE]])
    )
    for legs in ((1, 2), (1, 3), (2, 3)):
        assert embed_leg(x, legs, N) * embed_leg(y, legs, N) == embed_leg(
            x * y, legs, N
        )


def test_embed_leg_disjoint_factors_commute():
    N = 2
    a = from_dense([[ONE, Scalar.s_pow(2)], [ONE, -ONE]])
    b = from_dense([[ZERO, ONE], [ONE, ONE]])
    m1 = embed_leg(a.kron(SparseMat.identity(N)), (1, 2), N)
    m23 = embed_leg(SparseMat.identity(N).kron(b), (2, 3), N)
    assert m1 * m23 == m23 * m1


def test_embed_leg_rejects_bad_legs():
    op = SparseMat.identity(4)
    with pytest.raises(MatrixError):
        embed_leg(op, (1, 1), 2)
    with pytest.raises(MatrixError):
        embed_leg(op, (0, 2), 2)


# -- the transposition t and the crossing map ----------------------------------


@pytest.mark.parametrize("type_,rank", [("B", 1), ("D", 2)])
def test_transpose_t_is_an_involutive_antihomomorphism(type_, rank):
    alg = AlgebraData(type_, rank)
    N = alg.N
    a = SparseMat.from_entries(
        N, N, [(i, j, Scalar.from_int(3 * i - j + 1)) for i in range(N) for j in range(N)]
    )
    b = SparseMat.from_entries(
        N, N, [(i, j, Scalar.s_pow((i + j) % 3 - 1)) for i in range(N) for j in range(N)]
    )
    assert transpose_t(transpose_t(a, alg), alg) == a
    assert transpose_t(a * b, alg) == transpose_t(b, alg) * transpose_t(a, alg)


def test_transpose_t_moves_units_to_primed_slots():
    alg = AlgebraData("B", 2)
    N = alg.N
    # e_ij -> e_{j'i'} with i' = N+1-i (1-based)
    for i, j in [(1, 2), (3, 5), (2, 2)]:
        src = SparseMat.unit(N, i - 1, j - 1)
        dst = transpose_t(src, alg)
        assert dst.get(alg.prime(j) - 1, alg.prime(i) - 1) == ONE
        assert dst.nnz() == 1


def test_transpose_t1_acts_on_first_factor_only():
    """With all weights 0, D = 1 and crossed is the partial t-transpose on
    the first factor: t(A) (x) B on the block grid of A (x) B."""
    alg = AlgebraData("D", 2)
    N = alg.N
    a = SparseMat.from_entries(
        N, N, [(i, j, Scalar.from_int(i + 2 * j + 1)) for i in range(N) for j in range(N)]
    )
    b = SparseMat.identity(N, Scalar.s_pow(1))
    got = SparseMat.from_blocks(crossed(a.kron(b).blocks(N), [0] * N))
    assert got == transpose_t(a, alg).kron(b)


@pytest.mark.parametrize("type_,rank", [("B", 1), ("B", 2), ("D", 2), ("D", 3)])
def test_crossed_conjugates_t_by_d_on_the_first_factor(type_, rank):
    """On the block grid of A (x) B, crossed with weights w is
    (D t(A) D^-1) (x) B, D = diag(q^w) built here, for the barred weights
    and for weights with no symmetry."""
    alg = AlgebraData(type_, rank)
    N = alg.N
    a = SparseMat.from_entries(
        N, N, [(i, j, Scalar.from_int(i + 2 * j + 1)) for i in range(N) for j in range(N)]
    )
    b = from_dense([[ONE, Scalar.s_pow(1)], [Scalar.w(), ZERO]])
    for w in (alg.bars, [i * i for i in range(N)]):
        d = SparseMat.from_entries(N, N, [(i, i, Scalar.q_pow(w[i])) for i in range(N)])
        d_inv = SparseMat.from_entries(
            N, N, [(i, i, Scalar.q_pow(-w[i])) for i in range(N)]
        )
        want = (d * transpose_t(a, alg) * d_inv).kron(b)
        assert SparseMat.from_blocks(crossed(a.kron(b).blocks(N), w)) == want


@settings(max_examples=40, deadline=None)
@given(small_mats(n=3), st.sampled_from([ONE, -ONE, Scalar.q_pow(2), Scalar.w()]))
def test_permuting_maps_skip_the_zero_filter_safely(m, c):
    """Results built without the zero filter hold no zero entry and equal
    what the filtering constructor makes of the same rows."""
    alg = AlgebraData("B", 1)  # N = 3
    square = m.kron(m)  # N^2 x N^2
    results = [
        -m,
        m.transpose(),
        m.scale(c),
        transpose_t(m, alg),
        SparseMat.from_blocks(crossed(square.blocks(3), alg.bars)),
        embed_leg(square, (3, 1), 3),
    ]
    for r in results:
        assert all(row for row in r.rows.values())
        assert not any(x.is_zero() for row in r.rows.values() for x in row.values())
        assert SparseMat(r.nrows, r.ncols, r.rows).rows == r.rows
    assert m.scale(ZERO).is_zero()


# -- the fused sum of products -------------------------------------------------

_entries = st.sampled_from(
    [
        ZERO,
        ZERO,
        ONE,
        -ONE,
        Scalar.fraction(1, 2),
        Scalar.s_pow(-1),
        Scalar.w(),
        Scalar.fraction(-2, 3) * Scalar.u_pow(1),
        Scalar.parse("(1)/(s^2+1)"),
    ]
)


@st.composite
def entry_mats(draw, n=3):
    return from_dense([[draw(_entries) for _ in range(n)] for _ in range(n)])


@st.composite
def product_terms(draw):
    """(c, A, B) triples; sometimes followed by their negations, so that
    the whole sum cancels to the zero matrix."""
    terms = draw(
        st.lists(
            st.tuples(
                st.one_of(st.none(), _entries),
                entry_mats(),
                st.one_of(st.none(), entry_mats()),
            ),
            max_size=4,
        )
    )
    if draw(st.booleans()):
        terms += [(-(ONE if c is None else c), a, b) for c, a, b in terms]
    return terms


@settings(max_examples=60, deadline=None)
@given(product_terms())
def test_sum_of_products_matches_the_folded_sum(terms):
    want = [[ZERO] * 3 for _ in range(3)]
    for c, a, b in terms:
        p = dense(a) if b is None else dense_mul(dense(a), dense(b))
        for i in range(3):
            for j in range(3):
                want[i][j] = want[i][j] + (p[i][j] if c is None else c * p[i][j])
    got = SparseMat.sum_of_products(terms, 3, 3)
    assert dense(got) == want
    assert all(got.rows.values())
    assert not any(x.is_zero() for row in got.rows.values() for x in row.values())


def test_sum_of_products_cancels_to_the_zero_matrix():
    a = from_dense([[ONE, Scalar.w()], [Scalar.s_pow(-1), ZERO]])
    b = from_dense([[Scalar.fraction(1, 2), ONE], [ZERO, Scalar.u_pow(1)]])
    got = SparseMat.sum_of_products([(None, a, b), (-ONE, a * b, None)], 2, 2)
    assert got.is_zero() and got.rows == {}
    assert SparseMat.dot([(a, b), (-a, b)]).is_zero()
    with pytest.raises(MatrixError):
        SparseMat.sum_of_products([(None, a, None)], 2, 3)
