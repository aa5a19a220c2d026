"""Truncated formal Laurent series in one spectral variable.

A TruncSeries holds coefficients for u^0 .. u^K (direction AT_ZERO) or
u^0 .. u^-K (direction AT_INFINITY).  Coefficients are usually Scalars but
any ring element with +, -, * and is_zero() works, including sparse
matrices, which is how matrix-valued series are represented elsewhere.

The module also hosts the coefficient-recursive solvers that replace the
infinite products of the source formulas: the square-root-scaled functional
equation f(u) f(u xi) = r(u) and the prefactor series f(u).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .quasidet import _dot
from .report import check
from .scalars import Scalar, ONE, ZERO

AT_ZERO = "zero"
AT_INFINITY = "infinity"


class SeriesError(ArithmeticError):
    pass


class ResourceBoundError(RuntimeError):
    """A check refused an input above its documented resource bound.
    Defined in this module, the lowest one that raises it."""


# The largest rank verify_fu_product accepts, per type.  Rank and order are
# also bounded together: the time grows with rank * order^3 (roughly as its
# square), and an input with a larger rank * order^3 than the rank bound has
# at FSERIES_WORK_ORDER is refused.
# Measured as single processes on a 2-core host: B6 takes 2.6 s at order 10,
# 8.8 s at order 12 and 51 s at order 16; D16 3.4 s, 8.0 s and 40 s.
MAX_FSERIES_RANK = {"B": 6, "D": 16}
FSERIES_WORK_ORDER = 12


def _scaled(x, c: Scalar):
    """A coefficient (Scalar or matrix) times the Scalar c."""
    return x * c if isinstance(x, Scalar) else x.scale(c)


class TruncSeries:
    """Truncated series sum_m c_m u^(sign*m), m = 0..order."""

    __slots__ = ("direction", "order", "coeffs")

    def __init__(self, direction, order, coeffs=None):
        if direction not in (AT_ZERO, AT_INFINITY):
            raise SeriesError(f"bad direction {direction!r}")
        if order < 0:
            raise SeriesError("order must be >= 0")
        self.direction = direction
        self.order = order
        self.coeffs = {}
        if coeffs:
            for m, c in coeffs.items():
                if m < 0 or m > order:
                    raise SeriesError(f"coefficient index {m} out of range")
                if not c.is_zero():
                    self.coeffs[m] = c

    @property
    def sign(self) -> int:
        return 1 if self.direction == AT_ZERO else -1

    @staticmethod
    def constant(c, direction, order) -> "TruncSeries":
        return TruncSeries(direction, order, {0: c})

    @staticmethod
    def one(direction, order) -> "TruncSeries":
        return TruncSeries.constant(ONE, direction, order)

    def get(self, exponent: int):
        """Coefficient of u^exponent (signed); zero coefficients return None."""
        m = exponent * self.sign
        if m < 0 or m > self.order:
            return None
        return self.coeffs.get(m)

    def coefficient(self, exponent: int):
        """Coefficient of u^exponent (signed), the Scalar ZERO when absent."""
        c = self.get(exponent)
        return ZERO if c is None else c

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other):
        if self.direction != other.direction:
            raise SeriesError("direction mismatch")
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order = self._check(other)
        out = {}
        for m in range(order + 1):
            a, b = self.coeffs.get(m), other.coeffs.get(m)
            if a is None and b is None:
                continue
            out[m] = b if a is None else (a if b is None else a + b)
        return TruncSeries(self.direction, order, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncSeries(
            self.direction, self.order, {m: -c for m, c in self.coeffs.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return TruncSeries.dot([(self, other)])

    @staticmethod
    def dot(pairs) -> "TruncSeries":
        """The sum of a*b over a nonempty list of series pairs (a, b):
        coefficient m is one fused sum over every (ca, cb) with ma + mb = m."""
        first = pairs[0][0]
        order = min(min(first._check(a), a._check(b)) for a, b in pairs)
        sums = {}  # m -> the pairs of coefficient m
        for a, b in pairs:
            for ma, ca in a.coeffs.items():
                if ma > order:
                    continue
                for mb, cb in b.coeffs.items():
                    m = ma + mb
                    if m <= order:
                        sums.setdefault(m, []).append((ca, cb))
        return TruncSeries(
            first.direction, order, {m: _dot(p) for m, p in sums.items()}
        )

    def inverse(self) -> "TruncSeries":
        c0 = self.coeffs.get(0)
        if c0 is None:
            raise SeriesError("inverse: constant term is zero")
        b0 = c0.inverse()
        out = {0: b0}
        for m in range(1, self.order + 1):
            pairs = [
                (cj, out[m - j])
                for j, cj in self.coeffs.items()
                if 0 < j <= m and m - j in out
            ]
            if pairs:
                out[m] = -(b0 * _dot(pairs))
        return TruncSeries(self.direction, self.order, out)

    def scale(self, c: Scalar) -> "TruncSeries":
        """Multiply every coefficient by the Scalar c."""
        return TruncSeries(
            self.direction,
            self.order,
            {m: _scaled(x, c) for m, x in self.coeffs.items()},
        )

    def scale_arg(self, c: Scalar) -> "TruncSeries":
        """Substitute u -> c*u for an invertible Scalar c."""
        out = {}
        cinv = None
        for m, x in self.coeffs.items():
            e = m * self.sign
            if e >= 0:
                p = c**e
            else:
                if cinv is None:
                    cinv = c.inverse()
                p = cinv ** (-e)
            out[m] = _scaled(x, p)
        return TruncSeries(self.direction, self.order, out)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.direction != other.direction or self.order != other.order:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        for m in keys:
            a = self.coeffs.get(m)
            b = other.coeffs.get(m)
            if a is None or b is None:
                if not (a is None and b is None):
                    return False
            elif not (a - b).is_zero():
                return False
        return True

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            e = m * self.sign
            head = "1" if e == 0 else ("u" if e == 1 else f"u^{e}")
            parts.append(f"({self.coeffs[m]}) * {head}")
        return " + ".join(parts)

    __repr__ = __str__


def expand_scalar(x: Scalar, direction, order) -> TruncSeries:
    """Expand a Scalar, rational in u, as a TruncSeries in the given direction.

    AT_ZERO requires the denominator not to vanish at u = 0; AT_INFINITY
    requires deg_u(num) <= deg_u(den) plus an invertible leading u-block.
    """
    num, den = x.u_slices()
    if direction == AT_ZERO:
        if 0 not in den:
            raise SeriesError("expand_scalar: denominator vanishes at u=0")
    else:
        dn = max(den)
        if num and max(num) > dn:
            raise SeriesError("expand_scalar: no expansion at infinity")
        num = {dn - e: c for e, c in num.items()}
        den = {dn - e: c for e, c in den.items()}
    # the slices past the order (choose_wiring expands at order 0) drop out
    num, den = (
        TruncSeries(direction, order, {m: c for m, c in p.items() if m <= order})
        for p in (num, den)
    )
    return num * den.inverse()


def series_log(f: TruncSeries, one=ONE) -> TruncSeries:
    """log of a series whose constant term is the ring one."""
    c0 = f.coeffs.get(0)
    if c0 is None or not (c0 - one).is_zero():
        raise SeriesError("series_log: constant term must be 1")
    x = TruncSeries(f.direction, f.order, dict(f.coeffs))
    x.coeffs.pop(0, None)
    out = TruncSeries(f.direction, f.order)
    power = TruncSeries.constant(one, f.direction, f.order)
    for m in range(1, f.order + 1):
        power = power * x
        if power.is_zero():
            break
        out = out + power.scale(Scalar.fraction((-1) ** (m + 1), m))
    return out


def series_exp(g: TruncSeries, one=ONE) -> TruncSeries:
    """exp of a series with zero constant term."""
    if g.coeffs.get(0) is not None:
        raise SeriesError("series_exp: constant term must be 0")
    out = TruncSeries.constant(one, g.direction, g.order)
    power = TruncSeries.constant(one, g.direction, g.order)
    fact = 1
    for m in range(1, g.order + 1):
        power = power * g
        if power.is_zero():
            break
        fact *= m
        out = out + power.scale(Scalar.fraction(1, fact))
    return out


def solve_sqrt_scaled(r: TruncSeries, xi: Scalar) -> TruncSeries:
    """Solve f(u) f(u xi) = r(u) for f with f(0) = 1.

    Coefficientwise: f_k (1 + xi^k) = r_k - sum_{a+b=k, 0<a,b<k} f_a f_b xi^b.
    """
    if r.direction != AT_ZERO:
        raise SeriesError("solve_sqrt_scaled expects a series at zero")
    K = r.order
    r0 = r.coeffs.get(0)
    if r0 is None or not r0.is_one():
        raise SeriesError("solve_sqrt_scaled: r(0) must be 1")
    xipow = [ONE]
    for k in range(1, K + 1):
        xipow.append(xipow[-1] * xi)
    f = {0: ONE}
    negfx = {}  # b -> -f_b xi^b, for the nonzero f_b with 0 < b
    for k in range(1, K + 1):
        pivot = ONE + xipow[k]
        if pivot.is_zero():
            raise SeriesError(f"solve_sqrt_scaled: pivot 1 + xi^{k} vanishes")
        # the right-hand side as one fused dot
        pairs = [(f[k - b], x) for b, x in negfx.items() if k - b in negfx]
        rk = r.coefficient(k)
        if not rk.is_zero():
            pairs.append((rk, ONE))
        fk = Scalar.dot(pairs) / pivot
        if not fk.is_zero():
            f[k] = fk
            negfx[k] = -(fk * xipow[k])
    return TruncSeries(AT_ZERO, K, f)


@cache
def f_series(alg, order: int) -> TruncSeries:
    """The normalizing series f(u): the unique solution with f(0)=1 of
    f(u) f(u xi) = 1/((1-u q^-2)(1-u q^2)(1-u xi)(1-u xi^-1)).

    Memoised per algebra and order with functools.cache, so the returned
    series is shared: callers must not mutate it."""
    u = Scalar.u_pow(1)
    prod = (
        (ONE - u * Scalar.q_pow(-2))
        * (ONE - u * Scalar.q_pow(2))
        * (ONE - u * alg.xi)
        * (ONE - u * alg.xi.inverse())
    )
    r = expand_scalar(prod.inverse(), AT_ZERO, order)
    return solve_sqrt_scaled(r, alg.xi)


def _fu_parameters(c: int, r: int):
    """The q-exponents of the parameters of group r of the f(u) product,
    with xi = q^-c: those of its numerator factors 1 - a u, then those of
    its denominator factors 1 - b u (see fu_product)."""
    return (
        (-2 * r * c, -2 - (2 * r + 1) * c, 2 - (2 * r + 1) * c, -(2 * r + 2) * c),
        (-(2 * r - 1) * c, -(2 * r + 1) * c, 2 - 2 * r * c, -2 - 2 * r * c),
    )


def fu_product(alg, R: int, order_u: int) -> TruncSeries:
    """The infinite product for f(u), cut after r = R, as a series at u = 0:

        prod_r (1-u xi^2r)(1-u q^-2 xi^2r+1)(1-u q^2 xi^2r+1)(1-u xi^2r+2)
             / ((1-u xi^2r-1)(1-u xi^2r+1)(1-u q^2 xi^2r)(1-u q^-2 xi^2r)).

    Each numerator factor is the series 1 - a u and each denominator factor
    the geometric series sum_k b^k u^k, so every coefficient stays a Laurent
    polynomial in q^(1/2) and no rational function is ever formed.
    """

    def linear(a):
        return TruncSeries(AT_ZERO, order_u, {0: ONE, 1: -a})

    def geometric(b):
        coeffs = {0: ONE}
        for k in range(1, order_u + 1):
            coeffs[k] = coeffs[k - 1] * b
        return TruncSeries(AT_ZERO, order_u, coeffs)

    out = TruncSeries.one(AT_ZERO, order_u)
    for r in range(R + 1):
        nums, dens = _fu_parameters(alg.N - 2, r)
        for e in nums:
            out = out * linear(Scalar.q_pow(e))
        for e in dens:
            out = out * geometric(Scalar.q_pow(e))
    return out


def verify_fu_product(alg, order: int) -> dict:
    """Compare the functional-equation solution f(u) against the truncated
    infinite product, coefficient by coefficient, in the q^(-1)-adic
    completion; `order` is both the u-order and the q-adic order: each f_k,
    k <= order, is compared at every q-exponent from its lead down to
    -order.

    The depth rule.  Write f = P_R * D, P_R the product through r = R and
    D that of the dropped groups r > R; the parameter exponents fall as r
    grows.  Every parameter a or b of P_R has q-exponent at most top(0) >= 0,
    the largest of group 0, so the u^m coefficient of P_R has lead
    q-exponent at most m * top(0).  Every parameter of D has q-exponent at
    most top(R + 1) < 0, so the u^j coefficient of D has lead at most
    j * top(R + 1).  The error f_k - P_R[k], the sum over 1 <= j <= k of
    P_R[k - j] D_j, then has lead at most (order - 1) * top(0) + top(R + 1),
    and the product is cut at the smallest R that puts this below -order.
    """
    Nm2 = alg.N - 2
    if Nm2 <= 0:
        raise SeriesError("verify_fu_product needs N >= 3")
    bound = MAX_FSERIES_RANK[alg.type]
    if alg.n > bound:
        raise ResourceBoundError(
            f"rank {alg.n} exceeds the f-series bound "
            f"MAX_FSERIES_RANK[{alg.type!r}] = {bound}"
        )
    if alg.n * order**3 > bound * FSERIES_WORK_ORDER**3:
        raise ResourceBoundError(
            f"rank {alg.n} at order {order} exceeds the f-series work bound, "
            f"that of rank {bound} at order {FSERIES_WORK_ORDER}"
        )

    def top(r):
        """The largest q-exponent of a parameter of group r."""
        return max(e for group in _fu_parameters(Nm2, r) for e in group)

    R = 0
    while (order - 1) * top(0) + top(R + 1) >= -order:
        R += 1
    product_side = fu_product(alg, R, order)
    solver_side = f_series(alg, order)

    def laurent(x):
        """(lead, coeffs) with x = sum_j coeffs[j] q^(lead - j) through
        q^(-order)."""
        lead, coeffs = x.qadic_laurent(order)
        if lead > 0:
            lead, coeffs = x.qadic_laurent(lead + order)
        return lead, coeffs

    def at(lead, coeffs, e):
        """The coefficient of q^e in sum_j coeffs[j] q^(lead - j)."""
        return coeffs[lead - e] if 0 <= lead - e < len(coeffs) else Fraction(0)

    checks = []
    for k in range(order + 1):
        la, ca = laurent(solver_side.coefficient(k))
        lb, cb = laurent(product_side.coefficient(k))
        # align the two Laurent windows and compare through q^(-order)
        pairs = (
            (e, at(la, ca, e), at(lb, cb, e))
            for e in range(max(la, lb), -order - 1, -1)
        )
        witness = next(
            (
                {"q_exponent": e, "solver": str(va), "product": str(vb)}
                for e, va, vb in pairs
                if va != vb
            ),
            None,
        )
        checks.append(check(f"f_{k} q-adic match", witness is None, witness))
    return {"product_depth": R, "checks": checks}
