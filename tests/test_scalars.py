"""Field arithmetic in Q(s,u,v)[w]/(w^2 - s - 1/s) and the q-combinatorics."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import ZZ
from sympy.polys.rings import PolyElement, ring

import qav.scalars as qs
from qav import series
from qav.liedata import AlgebraData
from qav.scalars import (
    Scalar,
    ScalarError,
    ONE,
    ZERO,
    qint,
    qfact,
    qbinom,
)

# -- the sympy reference ------------------------------------------------------

# sympy's ring Z[w, v, u, s] under grlex.  Generators are declared
# largest-first, so under grlex: w > v > u > s, the order of the packed keys.
_R = ring("w,v,u,s", ZZ, "grlex")[0]
_w, _v, _u, _s = _R.gens


def _packed(p):
    """PolyElement of _R -> packed dict."""
    return {qs._pack(m): int(c) for m, c in p.items()}


def _poly(d):
    """Packed dict -> PolyElement of _R."""
    return _R.from_dict({qs._unpack(k): c for k, c in d.items()})


def _pair(x):
    """The numerator and denominator of a Scalar as PolyElements of _R."""
    return _poly(x.num), _poly(x.den)


def _scalar(num, den):
    """The Scalar num / den for PolyElements of _R."""
    return Scalar(_packed(num), _packed(den))


# -- strategies -------------------------------------------------------------

_atoms = st.one_of(
    st.integers(min_value=-3, max_value=3).map(Scalar.from_int),
    st.integers(min_value=-2, max_value=2).map(Scalar.s_pow),
    st.integers(min_value=0, max_value=2).map(Scalar.u_pow),
    st.integers(min_value=0, max_value=2).map(Scalar.v_pow),
    st.just(Scalar.w()),
)


@st.composite
def scalars(draw):
    """Small random field elements built from sums and products of atoms."""
    terms = draw(st.lists(_atoms, min_size=1, max_size=3))
    acc = terms[0]
    for t in terms[1:]:
        acc = acc * t if draw(st.booleans()) else acc + t
    if draw(st.booleans()):
        acc = -acc
    return acc


# -- frozen combinatorial oracles -------------------------------------------


def test_qint_closed_forms():
    q = Scalar.q_pow(1)
    qi = Scalar.q_pow(-1)
    assert qint(1) == ONE
    assert qint(2) == q + qi
    assert qint(3) == q * q + ONE + qi * qi
    assert qint(2, 2) == Scalar.q_pow(2) + Scalar.q_pow(-2)
    # [k]_{q^r} is the r-dilated integer
    assert qint(3, 2) == Scalar.q_pow(4) + ONE + Scalar.q_pow(-4)


def test_qfact_is_product_of_qints():
    acc = ONE
    for k in range(1, 6):
        acc = acc * qint(k)
        assert qfact(k) == acc


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("r", [1, 2])
def test_qbinom_pascal_recurrence(k, r):
    # symmetric q-Pascal: [k;l] = q^(k-l) [k-1;l-1] + q^(-l) [k-1;l]
    for l in range(1, k):
        lhs = qbinom(k, l, r)
        rhs = Scalar.q_pow(r * (k - l)) * qbinom(k - 1, l - 1, r) + Scalar.q_pow(
            -r * l
        ) * qbinom(k - 1, l, r)
        assert (lhs - rhs).is_zero()


def test_qbinom_times_factorials_is_factorial():
    for k in range(1, 6):
        for l in range(k + 1):
            assert (qbinom(k, l) * qfact(l) * qfact(k - l) - qfact(k)).is_zero()


def test_w_square_is_s_plus_s_inverse():
    w = Scalar.w()
    half = Fraction(1, 2)
    assert (w * w - (Scalar.q_pow(half) + Scalar.q_pow(-half))).is_zero()
    # w is invertible: 1/w = w / (s + 1/s)
    assert (w * w.inverse() - ONE).is_zero()


def test_q_pow_half_integers_only():
    assert Scalar.q_pow(Fraction(3, 2)) == Scalar.s_pow(3)
    with pytest.raises(ScalarError):
        Scalar.q_pow(Fraction(1, 3))


def test_s_exponent_reads_powers_of_s_only():
    for k in (-7, -1, 0, 1, 12):
        assert Scalar.s_pow(k).s_exponent() == k
    for x in (
        ZERO,
        -Scalar.s_pow(2),
        Scalar.from_int(2) * Scalar.s_pow(2),
        Scalar.u_pow(1),
        Scalar.s_pow(1) + 1,
        Scalar.s_pow(2) * Scalar.w(),
        Scalar.s_pow(1) / Scalar.u_pow(1),
    ):
        assert x.s_exponent() is None, x


# -- frozen q-adic expansions ------------------------------------------------


def test_qadic_laurent_of_qint3():
    lead, coeffs = qint(3).qadic_laurent(4)
    assert lead == 2
    assert coeffs == [Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(1)]


def test_qadic_laurent_of_inverse_qint2():
    # 1/(q + q^-1) = q^-1 - q^-3 + q^-5 - ...
    lead, coeffs = qint(2).inverse().qadic_laurent(6)
    assert lead == -1
    assert coeffs == [
        Fraction(1),
        Fraction(0),
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(-1),
    ]


def test_qadic_rejects_u_v_w():
    with pytest.raises(ScalarError):
        Scalar.u_pow(1).qadic_laurent(2)
    with pytest.raises(ScalarError):
        Scalar.w().qadic_laurent(2)
    with pytest.raises(ScalarError):
        Scalar.s_pow(1).qadic_laurent(2)  # odd power of s is not integral in q


# -- substitution and coefficient extraction ---------------------------------


def test_subs_u_evaluates_rational_functions():
    u = Scalar.u_pow(1)
    y = ONE - u * Scalar.q_pow(2)
    assert y.subs_u(Scalar.q_pow(-2)).is_zero()
    assert y.subs_u(ZERO) == ONE
    with pytest.raises(ScalarError):
        y.inverse().subs_u(Scalar.q_pow(-2))  # evaluation at a pole


def test_uv_coeffs_reconstructs_polynomials():
    q = Scalar.q_pow(1)
    x = (
        Scalar.u_pow(2) * Scalar.v_pow(1) * q
        + Scalar.u_pow(1) * Scalar.w()
        - Scalar.fraction(3, 2)
    )
    parts = x.uv_coeffs()
    assert set(parts) == {(2, 1), (1, 0), (0, 0)}
    acc = ZERO
    for (du, dv), c in parts.items():
        assert c.is_uv_free()
        acc = acc + c * Scalar.u_pow(du) * Scalar.v_pow(dv)
    assert (acc - x).is_zero()


def test_uv_coeffs_rejects_u_in_denominator():
    with pytest.raises(ScalarError):
        (ONE - Scalar.u_pow(1)).inverse().uv_coeffs()


def test_parse_str_roundtrip():
    samples = [
        ONE,
        qint(3),
        Scalar.w() * Scalar.u_pow(2) - Scalar.fraction(1, 3),
        (Scalar.u_pow(1) - Scalar.q_pow(2)) / (ONE - Scalar.v_pow(1)),
    ]
    for x in samples:
        assert Scalar.parse(str(x)) == x


def test_reflected_operators_with_unsupported_operands_raise_type_error():
    for op in (lambda: 1.5 - ONE, lambda: "a" - ONE, lambda: "a" / ONE):
        with pytest.raises(TypeError):
            op()
    assert 1 - ONE == ZERO
    assert Fraction(1, 2) - ONE == Scalar.fraction(-1, 2)
    assert 2 / Scalar.from_int(4) == Scalar.fraction(1, 2)


def test_a_constant_hashes_as_the_number_it_equals():
    """x == y implies hash(x) == hash(y), also across int, Fraction and
    Scalar, so equal keys meet in a set or a dict."""
    pairs = [
        (ONE, 1),
        (ZERO, 0),
        (Scalar.from_int(-3), -3),
        (Scalar.fraction(1, 2), Fraction(1, 2)),
        (Scalar.fraction(-7, 3), Fraction(-7, 3)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y), (x, y)
        assert len({x, y}) == 1
    assert {1: "one"}[ONE] == "one"


# -- field axioms (property-based) -------------------------------------------


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) - (b + a) == ZERO
    assert ((a + b) + c) == (a + (b + c))
    assert (a * b) == (b * a)
    assert ((a * b) * c) == (a * (b * c))
    assert (a * (b + c)) == (a * b + a * c)
    assert (a + (-a)).is_zero()
    assert a * ONE == a
    assert (a * ZERO).is_zero()


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(ScalarError):
            a.inverse()
        return
    assert (a * a.inverse() - ONE).is_zero()
    assert ((ONE / a) * a - ONE).is_zero()


@settings(max_examples=40, deadline=None)
@given(scalars(), st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_product(a, k):
    acc = ONE
    for _ in range(k):
        acc = acc * a
    assert a**k == acc


# -- Laurent path against the general path -----------------------------------

_den_inverses = st.one_of(
    st.just(ONE),
    st.integers(min_value=1, max_value=3).map(lambda k: Scalar.s_pow(-k)),
    st.builds(
        lambda c, k: Scalar.fraction(1, c) * Scalar.s_pow(-k),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=3),
    ),
    st.sampled_from(
        [
            (ONE + Scalar.s_pow(2)).inverse(),
            (Scalar.s_pow(1) - Scalar.u_pow(1)).inverse(),
        ]
    ),
)


@st.composite
def laurent_operands(draw):
    """num / den with den 1, s^k, c*s^k or a true polynomial, and num an
    integer polynomial in s, u, v with or without w."""
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-6, max_value=6),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    num = ZERO
    for c, es, eu, ev, ew in terms:
        mono = Scalar.s_pow(es) * Scalar.u_pow(eu) * Scalar.v_pow(ev)
        num = num + Scalar.from_int(c) * mono * (Scalar.w() if ew else ONE)
    return num * draw(_den_inverses)


@settings(max_examples=150, deadline=None)
@given(laurent_operands(), laurent_operands())
def test_laurent_path_matches_general_path(a, b):
    (an, ad), (bn, bd) = _pair(a), _pair(b)
    prod = _scalar(an * bn, ad * bd)
    total = _scalar(an * bd + bn * ad, ad * bd)
    assert ((a * b).num, (a * b).den) == (prod.num, prod.den)
    assert ((a + b).num, (a + b).den) == (total.num, total.den)


# -- the packed gcd and exact division against sympy's ------------------------

_PENTA6 = prod((1 - _s**j for j in range(1, 7)), start=_R.one)
# sympy's heugcd returns this pair's gcd with a negative leading coefficient,
# in Z[s] and in Z[w, v, u, s] alike
_NEG_PAIR = (-((_s - 1) ** 6) * (_s**2 + 1), _PENTA6)

_shared_factors = st.sampled_from(
    [1, (1 + _s**4) ** 2, (1 + _s**2) ** 3, 1 - _s**2, 1 + _s**8, _PENTA6]
)


def _sympy_gcd(p, q):
    """The reference: sympy's gcd in the 4-variable ring, sign made positive."""
    g = p.gcd(q)
    return g if g.LC > 0 else -g


@st.composite
def s_polys(draw, step):
    """A nonzero integer polynomial in s^step."""
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-9, max_value=9).filter(bool),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return _R.from_dict({(0, 0, 0, step * e): c for c, e in terms})


@st.composite
def s_poly_pairs(draw):
    """Two s-only polynomials with a shared factor; step 4 and 8 are the
    polynomials in s^(2(N-2)) that the gcd deflates first."""
    step = draw(st.sampled_from([1, 2, 4, 8]))
    common = draw(_shared_factors)
    return draw(s_polys(step)) * common, draw(s_polys(step)) * common


@settings(max_examples=300, deadline=None)
@given(s_poly_pairs())
@example(_NEG_PAIR)
@example((_NEG_PAIR[1], _NEG_PAIR[0]))
def test_s_only_gcd_route_matches_4_variable_gcd(pair):
    """The packed gcd of two s-only polynomials is sympy's gcd in the
    4-variable ring, with a positive leading coefficient."""
    p, q = pair
    g = qs._gcd_fast(_packed(p), _packed(q))
    assert _poly(g) == _sympy_gcd(p, q)


@st.composite
def suv_polys(draw, step=1):
    """A nonzero integer polynomial in s, u, v (exponents of s times step)."""
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-9, max_value=9).filter(bool),
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return _R.from_dict({(0, ev, eu, step * es): c for c, es, eu, ev in terms})


_suv_factors = st.sampled_from(
    [
        _R.one,
        _s - _u,
        _u * _v - 2,
        1 + _s * _v,
        (1 + _s**2) ** 2,
        3 * _s**4 - _u,
        (_s**2 - _u * _v) * (1 + _s**4),
        _PENTA6,
    ]
)


@st.composite
def suv_pairs(draw):
    """Two polynomials in Z[s, u, v] with a shared factor; step 4 gives
    pairs in s^4 (with the shared factor 1 + s^4) that the gcd deflates."""
    step = draw(st.sampled_from([1, 1, 4]))
    common = _R.one + _s**4 if step == 4 else draw(_suv_factors)
    return draw(suv_polys(step)) * common, draw(suv_polys(step)) * common


@settings(max_examples=200, deadline=None)
@given(suv_pairs())
@example(_NEG_PAIR)
def test_packed_gcd_matches_sympy_in_z_s_u_v(pair):
    p, q = pair
    g = qs._gcd_fast(_packed(p), _packed(q))
    assert _poly(g) == _sympy_gcd(p, q)


@settings(max_examples=150, deadline=None)
@given(suv_pairs(), suv_polys())
def test_packed_gcd_with_a_w_linear_numerator_matches_sympy(pair, b):
    """num = a + b*w against a w-free den: sympy's 4-variable gcd."""
    a, den = pair
    num = a + b * _w * (a.gcd(den))
    g = qs._gcd_with_wfree(_packed(num), _packed(den))
    assert _poly(g) == _sympy_gcd(num, den)


@settings(max_examples=150, deadline=None)
@given(suv_pairs(), suv_polys())
@example((_NEG_PAIR[0] + _w * _PENTA6, _PENTA6), _R.one)
def test_packed_exact_division_matches_sympy(pair, b):
    p, h = pair
    for f in (p, p * h, p * h + b):
        q, r = f.div(h)
        got = qs._exquo(_packed(f), _packed(h))
        assert got == (None if r else _packed(q))
    if h != _R.one:
        assert _poly(qs._div_fast(_packed(p * h), _packed(h))) == p


def test_a_gcd_the_heuristic_cannot_find_raises_scalar_error(monkeypatch):
    monkeypatch.setattr(qs, "_HEU_GCD_MAX", 0)
    with pytest.raises(ScalarError, match="heuristic gcd"):
        Scalar.parse("(s+1)/(s^2+1)") + Scalar.parse("(1)/(s^2+3)")


def _gcd_4var(p, q):
    """_gcd_fast through sympy's gcd in the 4-variable ring."""
    return _packed(_sympy_gcd(_poly(p), _poly(q)))


_q_factors = st.sampled_from(
    [1, 2, _s, 1 + _s**2, 1 + _s**4, 1 - _s**2, _s**4 + _s**2 + 1, (_s - 1) ** 6]
)


@st.composite
def q_operands(draw):
    """num/den in Q(s) with den a product of true polynomial factors."""
    num = draw(s_polys(draw(st.sampled_from([1, 2])))) * draw(_q_factors)
    den = _R.one
    for f in draw(st.lists(_q_factors, min_size=1, max_size=3)):
        den = den * f
    return _scalar(num, den)


_NEG_SUM = (_scalar(_R.one, _PENTA6), _scalar(_NEG_PAIR[0] - 1, _PENTA6))


@settings(max_examples=100, deadline=None)
@given(q_operands(), q_operands())
@example(*_NEG_SUM)
def test_q_operands_match_the_4_variable_route(a, b):
    ops = (lambda: a * b, lambda: a + b, lambda: a / b)
    got = [(x.num, x.den) for x in (op() for op in ops)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qs, "_gcd_fast", _gcd_4var)
        want = [(x.num, x.den) for x in (op() for op in ops)]
    assert got == want


def test_sum_over_a_true_polynomial_denominator_is_canonical():
    # the 4-variable gcd of this sum's numerator and denominator is negative;
    # without a sign fix the sum comes out over a negative denominator
    a, b = _NEG_SUM
    total = a + b
    assert _poly(total.den).LC > 0
    assert total == _scalar(_NEG_PAIR[0], _PENTA6)


def test_f_series_takes_no_s_only_gcd_in_the_4_variable_ring(fresh_builds, monkeypatch):
    """f(u) on D3 takes its gcds of s-only polynomials in the packed kernel,
    which evaluates s alone: none goes through sympy, and no evaluation
    touches w, v or u."""
    sympy_calls, s_only, shifts = [], [], set()
    real_gcd, real_eval = qs._gcd_fast, qs._evaluate

    def gcd(p, q):
        s_only.append(not any(k & qs._UVWMASK for k in [*p, *q]))
        return real_gcd(p, q)

    def evaluate(p, shift, x1, x):
        shifts.add(shift)
        return real_eval(p, shift, x1, x)

    monkeypatch.setattr(PolyElement, "gcd", lambda p, q: sympy_calls.append(p))
    monkeypatch.setattr(qs, "_gcd_fast", gcd)
    monkeypatch.setattr(qs, "_evaluate", evaluate)
    series.f_series(AlgebraData("D", 3), 10)
    assert not sympy_calls
    assert s_only and all(s_only)
    assert shifts == {0}


# -- the packed kernel against sympy PolyElement arithmetic -------------------

def _sympy_canonical(num, den):
    """num/den in canonical form by sympy alone: w^2 -> (s^2+1)/s through a
    pseudo-remainder, then PolyElement.cancel (coprime, den LC > 0)."""
    if not num:
        return _R.zero, _R.one
    dw = num.degree(_w)
    if dw >= 2:
        num = num.prem(_s * _w**2 - _s**2 - 1, _w)
        den = den * _s ** (dw - 1)
    return num.cancel(den)


def _sympy_str(num, den):
    """The printed form, with the term order of sympy's grlex ring."""

    def poly(p):
        if not p:
            return "0"
        return "".join(
            ("-" if c < 0 else ("+" if i else "")) + qs._mono_str(mon, c)
            for i, (mon, c) in enumerate(p.terms())
        )

    return poly(num) if den == _R.one else f"({poly(num)})/({poly(den)})"


_raw_terms = st.lists(
    st.tuples(
        st.integers(min_value=-6, max_value=6).filter(bool),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=4,
)

_raw_dens = st.one_of(
    st.just(_R.one),
    st.builds(
        lambda c, k: c * _s**k,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
    ),
    st.sampled_from(
        [1 + _s**2, _s - _u, 2 * _s**2 - _v + 1, (1 + _s) ** 2 * _s, -3 * _s**2 - 3]
    ),
)


@st.composite
def field_operands(draw):
    """num/den built from PolyElements: num with w-degree up to 2, den 1,
    c*s^k or a true polynomial (some with a negative leading coefficient)."""
    num = _R.zero
    for c, ew, ev, eu, es in draw(_raw_terms):
        num += c * _w**ew * _v**ev * _u**eu * _s**es
    den = draw(_raw_dens)
    x = _scalar(num, den)
    assert _pair(x) == _sympy_canonical(num, den)
    return x


# sums over true-polynomial denominators: coprime ones, ones sharing s^2+1
# that cancels from the sum, equal ones (the last cancelling to 1), and a
# Laurent operand with a general one
_COPRIME = (_scalar(_u, _s**2 + 1), _scalar(_v, _s - _u))
_SHARED = (
    _scalar(_s**2 + _s - _u + 1, (_s**2 + 1) * (_s - _u)),  # 1/(s-u) + 1/(s^2+1)
    _scalar(_s**2 - _s - _u + 1, (_s**2 + 1) * (_s + _u)),  # 1/(s+u) - 1/(s^2+1)
)
_EQUAL = (_scalar(_u, _s**2 + 1), _scalar(_v, _s**2 + 1))
_EQUAL_TO_ONE = (_scalar(_s**2, _s**2 + 1), _scalar(_R.one, _s**2 + 1))
_MIXED = (_scalar(_w, _s**2 + 1), _scalar(_u * _w + 1, 2 * _s**3))


@settings(max_examples=200, deadline=None)
@given(field_operands(), field_operands())
@example(*_COPRIME)
@example(*_SHARED)
@example(*_EQUAL)
@example(*_EQUAL_TO_ONE)
@example(*_MIXED)
@example(*reversed(_MIXED))
def test_packed_kernel_matches_sympy_arithmetic(a, b):
    (an, ad), (bn, bd) = _pair(a), _pair(b)
    for got, num, den in (
        (a * b, an * bn, ad * bd),
        (a + b, an * bd + bn * ad, ad * bd),
        (a - b, an * bd - bn * ad, ad * bd),
    ):
        p, q = _sympy_canonical(num, den)
        assert _pair(got) == (p, q)
        assert q.LC > 0
        assert str(got) == _sympy_str(p, q)
        ref = qs._new(_packed(p), _packed(q))
        assert got == ref and hash(got) == hash(ref)
    assert (a == b) == ((an, ad) == (bn, bd))
    assert hash(a * b) == hash(b * a)


def _sympy_subs_u(p, a, b):
    """(p(u = a/b) * b^d, d) for d the u-degree of the PolyElement p."""
    d = max(p.degree(_u), 0)
    out = _R.zero
    for (ew, ev, eu, es), c in p.items():
        au = a**eu if eu else _R.one  # sympy refuses 0**0
        out += c * _w**ew * _v**ev * au * b ** (d - eu) * _s**es
    return out, d


# t = a/b for the substitutions u -> v, u v, 1/u, q^-2 u (q = s^2) and 0
_SUBSTITUTIONS = [
    (Scalar.v_pow(1), _v, _R.one),
    (Scalar.u_pow(1) * Scalar.v_pow(1), _u * _v, _R.one),
    (Scalar.u_pow(-1), _R.one, _u),
    (Scalar.q_pow(-2) * Scalar.u_pow(1), _u, _s**4),
    (ZERO, _R.zero, _R.one),
]


@settings(max_examples=100, deadline=None)
@given(field_operands())
@example(_scalar(_u**2 * _w + _s, _s - _u))
def test_subs_u_matches_sympy_substitution(x):
    xn, xd = _pair(x)
    for t, a, b in _SUBSTITUTIONS:
        (num, dn), (den, dd) = _sympy_subs_u(xn, a, b), _sympy_subs_u(xd, a, b)
        p, q = _sympy_canonical(num * b**dd, den * b**dn)
        got = x.subs_u(t)
        assert _pair(got) == (p, q), t
        assert str(got) == _sympy_str(p, q)


@st.composite
def high_w_numerators(draw):
    """A numerator of w-degree 3 to 6: the terms of _raw_terms, each with
    its w-exponent raised by 0 to 4, and one term of w-degree 3 to 6 that
    no other term cancels."""
    c = draw(st.integers(min_value=-6, max_value=6).filter(bool))
    num = c * _w ** draw(st.integers(min_value=3, max_value=6)) * _s**5
    for c, ew, ev, eu, es in draw(_raw_terms):
        num += c * _w ** (ew + draw(st.integers(0, 4))) * _v**ev * _u**eu * _s**es
    return num


@settings(max_examples=100, deadline=None)
@given(high_w_numerators(), _raw_dens)
@example(_w**3, _R.one)
@example(_s**3 * _w**6, _s**2 + 1)  # (s^2+1)^2
@example(_w**4 * _u + 2 * _w**5 - _w, _s - _u)
def test_constructor_rewrites_every_power_of_w(num, den):
    p, q = _sympy_canonical(num, den)
    x = _scalar(num, den)
    assert _pair(x) == (p, q)
    assert str(x) == _sympy_str(p, q)


def _folded(pairs):
    """The sum of products as a left fold of * and +."""
    acc = ZERO
    for x, y in pairs:
        acc = acc + x * y
    return acc


_sw = Scalar.w()
_half, _third = Scalar.fraction(1, 2), Scalar.fraction(1, 3)
_DOT_CASES = [
    [],
    # w-linear times w-linear: the w^2 rewrite raises the s-power by one
    [(_sw, _sw * Scalar.s_pow(1)), (_half * _sw, _sw), (Scalar.u_pow(1), _third)],
    # distinct c: the numerators meet over lcm(2, 3, 5) * s^2
    [
        (_half * Scalar.s_pow(-1), Scalar.u_pow(1)),
        (_third, Scalar.v_pow(1)),
        (Scalar.fraction(1, 5) * Scalar.s_pow(-1), Scalar.s_pow(-1)),
    ],
    # a sum that cancels to ZERO
    [
        (Scalar.u_pow(1) * _half, Scalar.s_pow(-1)),
        (-Scalar.u_pow(1), _half * Scalar.s_pow(-1)),
    ],
    # one true-polynomial pair meets the Laurent sum in one accumulator
    [(Scalar.parse("(u)/(s^2+1)"), _sw), (_half, Scalar.s_pow(3)), (_sw, _third)],
    # general pairs with equal denominators meet over it with no gcd, and
    # the Laurent sum with one
    [
        (Scalar.parse("(u)/(s^2+1)"), _sw),
        (Scalar.parse("(v)/(s^2+1)"), Scalar.s_pow(1)),
        (_half, Scalar.s_pow(-1)),
    ],
    # distinct denominators 2(s^2+1) and u(s^2+1) meet over their lcm
    [(Scalar.parse("(u)/(s^2+1)"), _half), (Scalar.parse("(v)/(s^2*u+u)"), _sw)],
    # a general w-linear times w-linear product: its w^2 rewrite cancels s^2+1
    [
        (Scalar.parse("(w)/(s^2+1)"), Scalar.parse("(u*w)/(s-u)")),
        (Scalar.parse("(1)/(s-u)"), _sw),
    ],
    # a general sum that cancels to ZERO
    [(Scalar.parse("(u)/(s^2+1)"), _sw), (Scalar.parse("(u)/(s^2+1)"), -_sw)],
]


@st.composite
def dot_pairs(draw):
    """Pairs of field operands; sometimes followed by the negated pairs, so
    that the whole sum cancels."""
    pairs = draw(st.lists(st.tuples(field_operands(), field_operands()), max_size=5))
    if draw(st.booleans()):
        pairs += [(-x, y) for x, y in pairs]
    return pairs


@settings(max_examples=150, deadline=None)
@given(dot_pairs())
@example(_DOT_CASES[0])
@example(_DOT_CASES[1])
@example(_DOT_CASES[2])
@example(_DOT_CASES[3])
@example(_DOT_CASES[4])
@example(_DOT_CASES[5])
@example(_DOT_CASES[6])
@example(_DOT_CASES[7])
@example(_DOT_CASES[8])
def test_dot_matches_the_folded_sum(pairs):
    got, want = Scalar.dot(pairs), _folded(pairs)
    assert (got._n, got._d, str(got)) == (want._n, want._d, str(want))
    assert all(got._n.values())
    # and a reference by sympy alone, which shares nothing with the kernel
    num, den = _R.zero, _R.one
    for x, y in pairs:
        (xn, xd), (yn, yd) = _pair(x), _pair(y)
        num, den = num * xd * yd + xn * yn * den, den * xd * yd
    p, q = _sympy_canonical(num, den)
    assert _pair(got) == (p, q)
    assert str(got) == _sympy_str(p, q)


def test_dot_cases_reach_every_path(monkeypatch):
    general_sums = []  # the number of general pairs of each fused sum
    fused = qs._general_sum
    monkeypatch.setattr(
        qs, "_general_sum", lambda g: general_sums.append(len(g)) or fused(g)
    )

    def dot(i):
        general_sums.clear()
        return Scalar.dot(_DOT_CASES[i])

    assert dot(0) == ZERO
    assert dot(1) == _folded(_DOT_CASES[1]) != ZERO
    assert str(dot(2)) == "(10*s^2*v+15*s*u+6)/(30*s^2)"
    assert dot(3) == ZERO and general_sums == []
    got = str(dot(4))
    assert got == "(3*s^5+2*s^2*w+3*s^3+6*u*w+2*w)/(6*s^2+6)"
    assert general_sums == [2]  # the Laurent sum joins the general pair
    assert str(dot(5)) == "(2*s*u*w+2*s^2*v+s^2+1)/(2*s^3+2*s)"
    assert general_sums == [3]
    assert str(dot(6)) == "(2*v*w+u^2)/(2*s^2*u+2*u)"
    assert general_sums == [2]
    assert str(dot(7)) == "(-s*w-u)/(s*u-s^2)"
    assert general_sums == [2]
    assert dot(8) == ZERO and general_sums == [2]


_VIEWS_WITHOUT_SYMPY = """
import sys
sys.modules["sympy"] = None  # any import of sympy now fails
from qav.scalars import ONE, Scalar, _pack

q = Scalar.q_pow(1)
assert (q.num, q.den) == ({_pack((0, 0, 0, 2)): 1}, {0: 1})
cases = [
    (ONE, True),
    (Scalar.q_pow(-3), True),
    (Scalar.fraction(2, 3) * Scalar.u_pow(1), True),
    (Scalar.parse("(w)/(3*s^2*u)"), True),
    (Scalar.parse("(u)/(s^2+1)"), False),
    (Scalar.parse("(1)/(s-u)"), False),
]
for x, mono in cases:
    assert type(x.num) is dict and type(x.den) is dict
    assert (len(x.den) == 1) is mono, x
    assert Scalar(x.num, x.den) == x
print("ok")
"""


def test_num_and_den_need_no_sympy():
    """Scalar.num and Scalar.den are the packed dicts: they work in a process
    where importing sympy fails, len(x.den) == 1 holds exactly for one-term
    denominators (the tracer's mono-denominator test), and Scalar(x.num,
    x.den) rebuilds x."""
    src = str(Path(qs.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _VIEWS_WITHOUT_SYMPY],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_packed_key_order_is_grlex():
    # total degree first, then w > v > u > s: the order of _R
    mons = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 3]
    keys = [qs._pack(m) for m in mons]
    by_key = [m for _, m in sorted(zip(keys, mons))]
    assert by_key == sorted(mons, key=lambda m: (sum(m), m))
    assert by_key == sorted(mons, key=_R.order)
    assert [qs._unpack(k) for k in keys] == mons


def test_exponent_past_the_field_width_raises():
    top = qs._M
    assert str(Scalar.s_pow(top - 1) * Scalar.s_pow(1)) == f"s^{top}"
    with pytest.raises(ScalarError):
        Scalar.s_pow(top) * Scalar.s_pow(1)
    with pytest.raises(ScalarError):
        Scalar.s_pow(top + 1)
    with pytest.raises(ScalarError):
        Scalar.u_pow(top) * Scalar.v_pow(1)
    with pytest.raises(ScalarError):
        (Scalar.w() * Scalar.u_pow(top - 1)) * Scalar.w()
    with pytest.raises(ScalarError):
        Scalar.s_pow(top) + Scalar.s_pow(-1)  # aligning over s shifts up
    with pytest.raises(ScalarError):
        _scalar(_s ** (top + 1), _R.one)
    # a sum of products aligns over the largest s-power, shifting up
    assert str(Scalar.dot([(Scalar.s_pow(top - 1), ONE), (ONE, Scalar.s_pow(-1))]))
    with pytest.raises(ScalarError):
        Scalar.dot([(Scalar.s_pow(top), ONE), (ONE, Scalar.s_pow(-1))])
    with pytest.raises(ScalarError):
        Scalar.dot([(Scalar.u_pow(top), _half), (ONE, Scalar.s_pow(-1))])
