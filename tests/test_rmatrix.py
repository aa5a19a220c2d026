"""The R-matrices and their identity checks."""

import copy
import tracemalloc

import pytest

from qav import rmatrix
from qav.liedata import AlgebraData
from qav.rmatrix import (
    ResourceBoundError,
    _mat_subs_u,
    build_catalog,
    check_crossing,
    check_unitarity,
    check_ybe,
    crossing_scalar,
    exchange_difference,
    guard_cubic,
    p_matrix,
    q_matrix,
    rbar_entry_table,
    rbar_from_pqr,
)
from qav.scalars import Scalar, ONE
from qav.series import AT_ZERO, expand_scalar
from qav.tensor import SparseMat, embed_leg

from conftest import all_pass


@pytest.fixture(scope="module")
def b1():
    return AlgebraData("B", 1)


@pytest.fixture(scope="module")
def d2():
    return AlgebraData("D", 2)


def test_p_matrix_swaps_tensor_factors(b1):
    N = b1.N
    P = p_matrix(b1)
    assert P * P == SparseMat.identity(N * N)
    # P (x (x) y) = y (x) x on unit vectors: P e_{ab,cd}-columns swap blocks
    for a in range(N):
        for b in range(N):
            col = SparseMat.from_entries(N * N, 1, [(a * N + b, 0, ONE)])
            swapped = SparseMat.from_entries(N * N, 1, [(b * N + a, 0, ONE)])
            assert P * col == swapped


def test_q_matrix_is_weighted_rank_one(b1):
    N = b1.N
    Q = q_matrix(b1)
    # the weights q^(bar i - bar j) telescope, so Q^2 = N Q
    assert Q * Q == Q.scale(Scalar.from_int(N))


@pytest.mark.parametrize("type_,rank", [("B", 1), ("D", 2)])
def test_rbar_two_constructions_agree(type_, rank):
    alg = AlgebraData(type_, rank)
    assert rbar_from_pqr(alg) == rbar_entry_table(alg)


@pytest.mark.parametrize("type_,rank", [("B", 1), ("D", 2)])
def test_ybe_unitarity_crossing_smoke(type_, rank):
    alg = AlgebraData(type_, rank)
    assert all_pass(check_ybe(alg))
    assert all_pass(check_unitarity(alg))
    assert all_pass(check_crossing(alg, order=6))


def test_rbar_at_u_zero_is_triangular_with_invertible_diagonal(b1):
    """The u -> 0 limit must exist entrywise (it seeds the L-operators)."""
    N = b1.N
    for i, j, x in rbar_from_pqr(b1).entries():
        c0 = expand_scalar(x, AT_ZERO, 0).coefficient(0)
        assert c0 is not None  # no pole at u = 0


def test_crossing_scalar_frozen(b1):
    u = Scalar.u_pow(1)
    q2 = Scalar.q_pow(2)
    want = ((u - q2) * (u * b1.xi - ONE)) / ((ONE - u) * (ONE - u * b1.xi * q2))
    assert (crossing_scalar(b1) - want).is_zero()


def test_resource_guard(monkeypatch):
    alg = AlgebraData("B", 4)  # N = 9 > default bound 6
    with pytest.raises(ResourceBoundError):
        guard_cubic(alg)
    with pytest.raises(ResourceBoundError):
        check_ybe(alg)
    monkeypatch.setenv("QAV_MAX_N", "9")
    guard_cubic(alg)  # no raise once the bound is lifted


def test_catalog_memoizes(b1):
    assert build_catalog(b1) is build_catalog(b1)


def test_catalog_guard_runs_on_every_call(monkeypatch):
    """The QAV_MAX_N guard sits outside the memo: a lowered bound refuses
    an algebra whose catalog is already built."""
    d2 = AlgebraData("D", 2)
    build_catalog(d2)
    monkeypatch.setenv("QAV_MAX_N", "3")
    with pytest.raises(ResourceBoundError):
        build_catalog(d2)


def test_yang_baxter_difference_is_formed_only_when_read(fresh_builds, b1):
    """`unitarity` and `crossing` never form the N^3 x N^3 difference; `ybe`
    forms it once on the catalog, and reads it from there afterwards."""
    cat = build_catalog(b1)
    assert all_pass(check_unitarity(b1) + check_crossing(b1, order=4))
    assert "ybe_difference" not in vars(cat)
    assert all_pass(check_ybe(b1))
    formed = vars(cat)["ybe_difference"]
    assert all_pass(check_ybe(b1)) and cat.ybe_difference is formed


_B = 24  # bits per exponent field of a packed key (see qav.scalars)
_FIELD = (1 << _B) - 1


def _swap_uv(x: Scalar) -> Scalar:
    """x with u and v exchanged.  The packed key of w^a v^b u^c s^d is
    deg 2^(4B) + a 2^(3B) + b 2^(2B) + c 2^B + d, so the b and c fields
    trade places and the total degree stays."""

    def swap(p):
        out = {}
        for k, c in p.items():
            eu, ev = k >> _B & _FIELD, k >> 2 * _B & _FIELD
            out[k + (ev - eu << _B) + (eu - ev << 2 * _B)] = c
        return out

    return Scalar(swap(x.num), swap(x.den))


def _legs(x, N):
    """X12(u), X13(uv) and X23(v) on the three-leg space."""
    u, v = Scalar.u_pow(1), Scalar.v_pow(1)
    return (
        embed_leg(x, (1, 2), N),
        embed_leg(_mat_subs_u(x, u * v), (1, 3), N),
        embed_leg(_mat_subs_u(x, v), (2, 3), N),
    )


def _two_chains(x, N):
    """The exchange difference of x as the difference of the two whole
    chains: the oracle of the streamed exchange_difference."""
    a12, a13, a23 = _legs(x, N)
    return a12 * a13 * a23 - a23 * a13 * a12


@pytest.mark.parametrize("bump", [None, "early", "late"], ids=["clean", "bumped", "late"])
@pytest.mark.parametrize("type_,rank", [("B", 1), ("D", 2), ("B", 2)])
def test_fused_exchange_matches_the_two_chains(monkeypatch, type_, rank, bump):
    """exchange_difference, streamed row by row, equals the difference of
    the two chains formed apart, entry for entry, for the cleared Rbar and
    for it with u added at (1, 3) or at the last entry of its last block of
    rows, where the difference is nonzero on several rows and the first of
    them comes late.  On a bumped catalog, `ybe`'s witness is the oracle's
    first entry."""
    alg = AlgebraData(type_, rank)
    N = alg.N
    cat = build_catalog(alg)
    x = cat.rbar_poly
    if bump:
        at = (1, 3) if bump == "early" else (N * N - 1, N * N - 2)
        x = x + SparseMat.unit(N * N, *at, Scalar.u_pow(1))
    want = _two_chains(x, N)
    got = exchange_difference(x, N)
    assert want.is_zero() is (bump is None)
    assert list(got.entries()) == list(want.entries())
    if not bump:
        return
    assert len(want.rows) > 1
    if bump == "late":
        assert min(want.rows) == N * N - 1
    bumped = copy.copy(cat)
    vars(bumped).pop("ybe_difference", None)
    bumped.rbar_poly = x
    monkeypatch.setattr(rmatrix, "build_catalog", lambda _alg: bumped)
    i, j, y = want.first_nonzero()
    (item,) = check_ybe(alg)
    assert item["status"] == "fail"
    assert item["witness"] == {"row": i, "col": j, "value": str(y)}


@pytest.mark.parametrize("type_,rank", [("D", 2), ("B", 2)])
def test_exchange_difference_holds_no_chain_product(type_, rank):
    """The streamed exchange difference keeps one row of each chain alive:
    its traced peak is below half of what forming the one chain product
    M12 M13 takes (about 2.7 times that when both chains were held)."""
    alg = AlgebraData(type_, rank)
    N = alg.N
    x = build_catalog(alg).rbar_poly
    a12, a13, _ = _legs(x, N)

    def peak(form):
        tracemalloc.start()
        try:
            form()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chain = peak(lambda: a12 * a13)
    streamed = peak(lambda: exchange_difference(x, N))
    assert streamed < chain / 2, (streamed, chain)


@pytest.mark.parametrize("bumped", [False, True], ids=["clean", "bumped"])
@pytest.mark.parametrize("type_,rank", [("B", 1), ("D", 2)])
def test_exchange_of_the_swapped_reading_mirrors_the_plain_one(type_, rank, bumped):
    """exchange(P X P) = -P13 sigma(exchange(X)) P13 exactly, sigma the swap
    of u and v, for X the cleared Rbar and for X with u added at (1, 3): the
    two readings of Rbar share one exchange verdict."""
    alg = AlgebraData(type_, rank)
    N = alg.N
    x = build_catalog(alg).rbar_poly
    if bumped:
        x = x + SparseMat.unit(N * N, 1, 3, Scalar.u_pow(1))
    P = p_matrix(alg)
    P13 = SparseMat.from_entries(
        N**3,
        N**3,
        (
            ((i * N + j) * N + k, (k * N + j) * N + i, ONE)
            for i in range(N)
            for j in range(N)
            for k in range(N)
        ),
    )
    ex = exchange_difference(x, N)
    mirrored = SparseMat(
        ex.nrows,
        ex.ncols,
        {i: {j: -_swap_uv(y) for j, y in row.items()} for i, row in ex.rows.items()},
    )
    assert ex.is_zero() is not bumped
    assert exchange_difference(P * x * P, N) == P13 * mirrored * P13
