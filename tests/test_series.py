"""Truncated Laurent series arithmetic and the normalizing-series solvers."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from qav import cli, rmatrix, series
from qav.scalars import Scalar, ONE, ZERO, qint
from qav.series import (
    AT_INFINITY,
    AT_ZERO,
    SeriesError,
    TruncSeries,
    expand_scalar,
    f_series,
    fu_product,
    series_exp,
    series_log,
    solve_sqrt_scaled,
    verify_fu_product,
)
from qav.liedata import AlgebraData
from qav.tensor import SparseMat

K = 8

_coef = st.one_of(
    st.integers(min_value=-3, max_value=3).map(Scalar.from_int),
    st.integers(min_value=-2, max_value=2).map(Scalar.s_pow),
    st.just(Scalar.w()),
)


# coefficients over distinct denominators c*s^k
_frac_coef = st.one_of(
    _coef,
    st.sampled_from([Scalar.fraction(1, 2), Scalar.fraction(-2, 3) * Scalar.s_pow(-1)]),
)


@st.composite
def trunc_series(draw, direction=AT_ZERO, order=5, unit_constant=False, coef=_coef):
    coeffs = {
        m: draw(coef)
        for m in draw(st.lists(st.integers(0, order), max_size=4, unique=True))
    }
    if unit_constant:
        coeffs[0] = ONE
    return TruncSeries(direction, order, coeffs)


# -- frozen expansions --------------------------------------------------------


def test_geometric_series_at_zero():
    x = (ONE - Scalar.u_pow(1)).inverse()
    s = expand_scalar(x, AT_ZERO, K)
    for k in range(K + 1):
        assert s.coefficient(k) == ONE


def test_geometric_series_at_infinity():
    # 1/(1-u) = -u^-1 - u^-2 - ... at infinity
    x = (ONE - Scalar.u_pow(1)).inverse()
    s = expand_scalar(x, AT_INFINITY, K)
    assert s.coefficient(0).is_zero()
    for k in range(1, K + 1):
        assert s.coefficient(-k) == -ONE


def test_expand_scalar_rejects_wrong_direction():
    with pytest.raises(SeriesError):
        expand_scalar(Scalar.u_pow(-1), AT_ZERO, 4)
    with pytest.raises(SeriesError):
        expand_scalar(Scalar.u_pow(1), AT_INFINITY, 4)


def test_scale_arg_on_geometric():
    # substituting u -> q^2 u in 1/(1-u) matches expanding 1/(1-q^2 u)
    base = expand_scalar((ONE - Scalar.u_pow(1)).inverse(), AT_ZERO, K)
    shifted = base.scale_arg(Scalar.q_pow(2))
    direct = expand_scalar(
        (ONE - Scalar.u_pow(1) * Scalar.q_pow(2)).inverse(), AT_ZERO, K
    )
    assert shifted == direct


# -- ring and composition properties ------------------------------------------


@settings(max_examples=50, deadline=None)
@given(trunc_series(), trunc_series(), trunc_series())
def test_series_ring_axioms(f, g, h):
    assert (f + g) == (g + f)
    assert (f * g) == (g * f)
    assert ((f * g) * h) == (f * (g * h))
    assert (f * (g + h)) == (f * g + f * h)
    assert (f - f).is_zero()


@settings(max_examples=50, deadline=None)
@given(trunc_series(unit_constant=True))
def test_series_inverse(f):
    assert (f * f.inverse()) == TruncSeries.one(AT_ZERO, f.order)


@settings(max_examples=50, deadline=None)
@given(trunc_series(), trunc_series())
def test_scale_arg_is_multiplicative(f, g):
    c = Scalar.q_pow(2)
    assert (f * g).scale_arg(c) == f.scale_arg(c) * g.scale_arg(c)


@settings(max_examples=40, deadline=None)
@given(trunc_series(unit_constant=True))
def test_log_exp_roundtrip(f):
    assert series_exp(series_log(f)) == f


def test_log_of_product_is_sum_of_logs():
    f = TruncSeries(AT_ZERO, 6, {0: ONE, 1: qint(2), 3: Scalar.s_pow(-1)})
    g = TruncSeries(AT_ZERO, 6, {0: ONE, 2: Scalar.w()})
    assert series_log(f * g) == series_log(f) + series_log(g)


# -- functional-equation solvers -----------------------------------------------


def test_solve_sqrt_scaled_satisfies_equation():
    xi = Scalar.q_pow(-3)
    r = expand_scalar(
        ((ONE - Scalar.u_pow(1)) * (ONE - Scalar.u_pow(1) * xi)).inverse(),
        AT_ZERO,
        K,
    )
    f = solve_sqrt_scaled(r, xi)
    assert f * f.scale_arg(xi) == r
    assert f.coefficient(0) == ONE


def test_f_series_satisfies_its_functional_equation():
    alg = AlgebraData("B", 1)
    f = f_series(alg, K)
    u = Scalar.u_pow(1)
    rhs = expand_scalar(
        (
            (ONE - u * Scalar.q_pow(-2))
            * (ONE - u * Scalar.q_pow(2))
            * (ONE - u * alg.xi)
            * (ONE - u * alg.xi.inverse())
        ).inverse(),
        AT_ZERO,
        K,
    )
    assert f * f.scale_arg(alg.xi) == rhs


# -- fused products against the folded coefficient sums ------------------------


def _folded_dot(pairs):
    """The sum of a*b, each coefficient a left fold of * and +."""
    order = min(min(a.order, b.order) for a, b in pairs)
    out = {}
    for a, b in pairs:
        for ma, ca in a.coeffs.items():
            for mb, cb in b.coeffs.items():
                m = ma + mb
                if m <= order:
                    out[m] = ca * cb if m not in out else out[m] + ca * cb
    return TruncSeries(pairs[0][0].direction, order, out)


def _folded_inverse(f):
    b0 = f.coeffs[0].inverse()
    out = {0: b0}
    for m in range(1, f.order + 1):
        acc = None
        for j in range(1, m + 1):
            cj, bj = f.coeffs.get(j), out.get(m - j)
            if cj is not None and bj is not None:
                acc = cj * bj if acc is None else acc + cj * bj
        if acc is not None:
            out[m] = -(b0 * acc)
    return TruncSeries(f.direction, f.order, out)


_mat_units = st.sampled_from(
    [
        SparseMat.identity(2),
        SparseMat.from_entries(2, 2, [(0, 0, Scalar.s_pow(1)), (1, 1, -ONE)]),
        SparseMat.from_entries(2, 2, [(0, 0, ONE), (0, 1, Scalar.w()), (1, 1, ONE)]),
    ]
)


@st.composite
def mat_series(draw, order=4, unit_constant=False):
    """Series of 2 x 2 matrices with entries from _frac_coef."""
    coeffs = {}
    for m in draw(st.lists(st.integers(0, order), max_size=3, unique=True)):
        entry = st.tuples(st.integers(0, 1), st.integers(0, 1), _frac_coef)
        entries = draw(st.lists(entry))
        coeffs[m] = SparseMat.from_entries(2, 2, entries)
    if unit_constant:
        coeffs[0] = draw(_mat_units)
    return TruncSeries(AT_ZERO, order, coeffs)


def _same(got, want):
    assert got.order == want.order and got.direction == want.direction
    assert sorted(got.coeffs) == sorted(want.coeffs)
    for m, c in want.coeffs.items():
        if isinstance(c, Scalar):
            assert (got.coeffs[m]._n, got.coeffs[m]._d) == (c._n, c._d)
        else:
            assert got.coeffs[m].rows == c.rows


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            trunc_series(coef=_frac_coef), trunc_series(order=4, coef=_frac_coef)
        ),
        min_size=1,
        max_size=3,
    )
)
def test_dot_matches_the_folded_products(pairs):
    _same(TruncSeries.dot(pairs), _folded_dot(pairs))
    neg = pairs + [(-a, b) for a, b in pairs]
    assert TruncSeries.dot(neg).is_zero()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(mat_series(), mat_series()), min_size=1, max_size=3))
def test_matrix_dot_matches_the_folded_products(pairs):
    _same(TruncSeries.dot(pairs), _folded_dot(pairs))


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        trunc_series(unit_constant=True, coef=_frac_coef),
        mat_series(unit_constant=True),
    )
)
def test_inverse_matches_the_folded_recursion(f):
    _same(f.inverse(), _folded_inverse(f))


def test_coefficient_out_of_range_returns_default():
    f = TruncSeries(AT_ZERO, 3, {1: ONE})
    assert f.get(-1) is None
    assert f.coefficient(7) == ZERO
    assert f.coefficient(1) == ONE


# -- the infinite product for f(u) ----------------------------------------------


def _rational_fu_product(alg, R, order_u):
    """Oracle: the cut product built as one rational function in u, then
    expanded at u = 0."""
    u = Scalar.u_pow(1)
    q2, q2i, xi = Scalar.q_pow(2), Scalar.q_pow(-2), alg.xi

    def xipow(k):
        return xi**k if k >= 0 else xi.inverse() ** (-k)

    prod = ONE
    for r in range(R + 1):
        num = (
            (ONE - u * xipow(2 * r))
            * (ONE - u * q2i * xipow(2 * r + 1))
            * (ONE - u * q2 * xipow(2 * r + 1))
            * (ONE - u * xipow(2 * r + 2))
        )
        den = (
            (ONE - u * xipow(2 * r - 1))
            * (ONE - u * xipow(2 * r + 1))
            * (ONE - u * q2 * xipow(2 * r))
            * (ONE - u * q2i * xipow(2 * r))
        )
        prod = prod * (num / den)
    return expand_scalar(prod, AT_ZERO, order_u)


@pytest.mark.parametrize("type_, rank", [("B", 1), ("B", 2), ("D", 2)])
def test_fu_product_matches_rational_oracle(type_, rank):
    alg = AlgebraData(type_, rank)
    order = 6
    R = verify_fu_product(alg, order)["product_depth"]
    fast = fu_product(alg, R, order)
    oracle = _rational_fu_product(alg, R, order)
    for k in range(order + 1):
        assert fast.coefficient(k) == oracle.coefficient(k)


def test_f_series_check_fails_on_a_perturbed_solver(monkeypatch, capsys):
    """Negative control: f_k bumped by q^-4 must fail exactly at q^-4, for
    f_1 at order 6 and for f_2 at order 4, whose q^-4 lies below the window
    of qadic_laurent(order) (the lead of f_2 on D2 is q^4)."""
    real = series.f_series
    for order, k in ((6, 1), (4, 2)):

        def bumped(alg, order_u, k=k):
            f = real(alg, order_u)
            coeffs = dict(f.coeffs)
            coeffs[k] = f.coefficient(k) + Scalar.q_pow(-4)
            return TruncSeries(f.direction, f.order, coeffs)

        monkeypatch.setattr(series, "f_series", bumped)
        checks = verify_fu_product(AlgebraData("D", 2), order)["checks"]
        failed = [c for c in checks if c["status"] == "fail"]
        assert [c["name"] for c in failed] == [f"f_{k} q-adic match"]
        assert failed[0]["witness"]["q_exponent"] == -4

        rc = cli.run(
            ["check", "f-series", "--type", "D", "--rank", "2", "--order",
             str(order), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        statuses = [c["status"] for c in payload["reports"][0]["checks"]]
        assert statuses.count("fail") == 1


def test_f_series_is_built_once_per_algebra_and_order(fresh_builds, monkeypatch):
    """check all builds f(u) for crossing and for f-series; the second use
    reads the series memoised per algebra and order, which an equal
    AlgebraData shares."""
    calls = []
    real = series.solve_sqrt_scaled

    def counted(*args, **kwargs):
        calls.append(args[0].order)
        return real(*args, **kwargs)

    monkeypatch.setattr(series, "solve_sqrt_scaled", counted)
    alg = AlgebraData("B", 1)
    rmatrix.check_crossing(alg, order=4)
    verify_fu_product(alg, 4)
    assert calls == [4]
    f = f_series(alg, 4)
    assert f is f_series(alg, 4)
    assert f_series(alg, 3) is not f and calls == [4, 3]
    assert f_series(AlgebraData("B", 1), 4) is f
    assert calls == [4, 3]


def test_f_series_work_bound_admits_every_rank_at_the_default_order(monkeypatch):
    """The joint rank-order bound refuses no rank within MAX_FSERIES_RANK at
    order 10 or below: the guard passes and the product is reached."""

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(series, "fu_product", reached)
    for type_, bound in series.MAX_FSERIES_RANK.items():
        for rank in range(2 if type_ == "D" else 1, bound + 1):
            for order in (1, 10):
                with pytest.raises(Reached):
                    verify_fu_product(AlgebraData(type_, rank), order)
