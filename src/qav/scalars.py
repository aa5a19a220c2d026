"""Exact arithmetic in the coefficient field Q(s, u, v)[w] / (w^2 - s - 1/s).

Here s stands for q^(1/2), u and v are the two spectral variables, and w is
an adjoined square root of s + 1/s.  Every Scalar is kept in a unique
canonical form: a coprime numerator/denominator pair of integer polynomials
in (s, u, v, w), with the denominator w-free and its leading coefficient
positive, and with every power w^2 rewritten to (s^2 + 1)/s (_w2_reduce
takes two off every w-exponent at once, and Scalar(num, den) repeats it
until the numerator is w-linear).  Equality is therefore structural.

The monomial order is graded lexicographic with s < u < v < w; it fixes
which term is "leading" for the sign normalization and the printing order.

Representation.  A polynomial is a plain dict {packed monomial: int
coefficient} with no zero coefficients.  The monomial w^a v^b u^c s^d of
total degree n = a + b + c + d is the integer

    n * 2^(4B) + a * 2^(3B) + b * 2^(2B) + c * 2^B + d,     B = _B bits,

so adding two keys multiplies the monomials, and the integer order of the
keys compares the total degree first and then w, v, u, s in turn: exactly
grlex with w > v > u > s.  Leading terms, the sign normalization and the
printed term order are therefore those of sympy's ring Z[w, v, u, s] in
that order.  No field can carry into the next while the total degree is at
most 2^B - 1, because every exponent is at most the total degree; a key that
reaches 2^(5B) raises ScalarError instead of wrapping.  Multiplying by s^e
adds e * (2^(4B) + 1) to every key, and "has w" or "is c*s^k" are bit tests.
Nothing here imports sympy.  Scalar(num, den) takes packed dicts, and
Scalar.num and Scalar.den are the packed numerator and denominator
themselves; the tests hold the maps to sympy's ring that compare the
kernel with sympy.

Products take one of two paths, which produce the same canonical form.
Almost all of the work of the checks lives in Z[s, 1/s, u, v][w], where
denominators are c*s^k with a positive integer c.  For such operands the
Laurent path multiplies the packed numerators and adds the s-exponents (a
product of two w-linear numerators first rewrites its w^2 terms, which
multiplies the denominator by s); the gcd of a numerator P with c*s^k is
gcd(c, content(P)) * s^min(k, ord_s P), so cancellation is a key shift and
an integer division, with no polynomial gcd.  A product with a
true-polynomial denominator takes the general path of __mul__: it cancels
with polynomial gcds and exact divisions on the same dicts (an inverse of a
w-free Scalar swaps its coprime pair and takes no gcd).  Whether the
numerator has w and the shape of the denominator are worked out once per
Scalar (Scalar._facts).

Sums.  Every sum is a sum of products, and Scalar.dot(pairs) forms a whole
sum of x*y at once (after Monagan and Pearce, CASC 2007: one accumulator,
one normalization); x + y is the two-pair sum x*1 + y*1.  The Laurent
products share one denominator, lcm(c) * s^max(k); each product's terms are
multiplied straight into one dict, shifted by the s-power and scaled by the
integer its own denominator lacks (a product of two w-linear numerators is
formed and w-reduced first, which raises its s-power by one).  Zero
coefficients are dropped once and _laurent cancels once.  When some products
have a true-polynomial denominator, _general_sum sums them, and the Laurent
sum as one more product, the same way over their own common denominator,
the lcm of the product denominators: equal ones take no gcd, and each other
one takes one gcd against the running lcm.  That sum is canonicalized once
(one gcd); a single such product is x * y.  SparseMat, TruncSeries, the
series solvers and the quasideterminants form their entries through this
one kernel.

The general path's gcds (_gcd_fast) take one of two routes, which return
the same polynomial: the gcd over Z with a positive leading coefficient,
unique because the gcd is unique up to sign, so any exact gcd gives the same
canonical form.  Equal arguments and monomials take the monomial route.
Everything else takes the heuristic gcd of Char, Geddes and Gonnet (1989),
ported from sympy's heugcd to packed keys: the same deflation, evaluation
points, symmetric interpolation and verifying exact divisions, but only the
variables present are evaluated, so the Q(q) coefficients of f(u) and of
the inverse q-Gram matrix cost one evaluation level, not four.  A gcd it
does not find within _HEU_GCD_MAX evaluation points per variable raises
ScalarError.  The heuristic's sign depends on which of its interpolations
succeeds, so _gcd_fast fixes it; _general_sum and the general path of
__mul__ rely on that, as they divide canonical denominators by gcds and
never fix the sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import floordiv, mul

# -- packed monomials (see the module docstring) ----------------------------

_B = 24  # bits per exponent field
_M = (1 << _B) - 1  # one field's mask, and the largest total degree
_LIMIT = 1 << 5 * _B  # every key is below this
_S1 = 1 << 4 * _B | 1  # the key of s
_U1 = 1 << 4 * _B | 1 << _B
_V1 = 1 << 4 * _B | 1 << 2 * _B
_W1 = 1 << 4 * _B | 1 << 3 * _B
_WMASK = _M << 3 * _B
_UVMASK = (_M << 2 * _B) | (_M << _B)
_UVWMASK = _WMASK | _UVMASK
_D1 = {0: 1}  # the polynomial 1; stored dicts are never mutated


class ScalarError(ArithmeticError):
    """Raised for invalid field operations (division by zero, bad expansion)."""


def _too_wide():
    raise ScalarError(f"total degree exceeds the packed exponent width 2^{_B} - 1")


def _pack(mon):
    ew, ev, eu, es = mon
    if ew + ev + eu + es > _M:
        _too_wide()
    return ((((ew + ev + eu + es) << _B | ew) << _B | ev) << _B | eu) << _B | es


def _unpack(key):
    return (key >> 3 * _B & _M, key >> 2 * _B & _M, key >> _B & _M, key & _M)


def _pmul(a, b):
    """Product of two nonzero packed polynomials (no w-reduction)."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((kb, cb),) = b.items()
        if max(a) + kb >= _LIMIT:
            _too_wide()
        if cb == 1:
            return {ka + kb: ca for ka, ca in a.items()}
        return {ka + kb: ca * cb for ka, ca in a.items()}
    if max(a) + max(b) >= _LIMIT:
        _too_wide()
    out = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    if all(out.values()):
        return out
    return {k: c for k, c in out.items() if c}


def _w2_reduce(p):
    """s * p with every w^e, e >= 2, rewritten to w^(e-2) (s^2 + 1)/s: one
    step of _w_reduce, which leaves p of w-degree 2 or 3 w-linear."""
    out = {}
    get = out.get
    for k, c in p.items():
        if k >> 3 * _B & _M >= 2:
            k -= 2 * _W1
            out[k] = get(k, 0) + c
            k += 2 * _S1
        else:
            k += _S1
        out[k] = get(k, 0) + c
    if max(out) >= _LIMIT:
        _too_wide()
    if all(out.values()):
        return out
    return {k: c for k, c in out.items() if c}


# -- the general path: packed polynomial arithmetic, gcd and exact division --

# the lowest bit of each field above s: a borrow into one of them, when one
# key is subtracted from another, means an exponent went negative
_BORROW = 1 << _B | 1 << 2 * _B | 1 << 3 * _B | 1 << 4 * _B
# (field shift, key of the variable) for w, v, u, s: the order in which the
# heuristic gcd evaluates them
_VARS = ((3 * _B, _W1), (2 * _B, _V1), (_B, _U1), (0, _S1))
_S2P1 = {2 * _S1: 1, 0: 1}  # s*(s + 1/s) = s^2 + 1
_HEU_GCD_MAX = 6  # evaluation points per variable before the gcd gives up


def _padd(a, b):
    """Sum of two packed polynomials."""
    out = dict(a)
    get = out.get
    for k, c in b.items():
        x = get(k, 0) + c
        if x:
            out[k] = x
        else:
            del out[k]
    return out


def _pneg(p):
    return {k: -c for k, c in p.items()}


def _lc(p):
    """The leading coefficient (the coefficient of the largest key)."""
    return p[max(p)]


def _has_w(p):
    return any(map(_WMASK.__and__, p))


def _mono_gcd(p, q):
    """gcd when at least one of p, q is a single term."""
    mins = [min(col) for col in zip(*map(_unpack, [*p, *q]))]
    return {_pack(mins): gcd(*p.values(), *q.values())}


def _exquo(p, h):
    """p / h when h divides p exactly in Z[w, v, u, s], else None: the
    division algorithm, which fails on the first leading term of the
    remainder that the leading term of h does not divide."""
    kh = max(h)
    ch = h[kh]
    tail = [(k, c) for k, c in h.items() if k != kh]
    r = dict(p)
    get = r.get
    q = {}
    while r:
        kp = max(r)
        d = kp - kh
        if d < 0 or (kp ^ kh ^ d) & _BORROW:
            return None
        c, m = divmod(r.pop(kp), ch)
        if m:
            return None
        q[d] = c
        for k, x in tail:
            k += d
            y = get(k, 0) - c * x
            if y:
                r[k] = y
            else:
                del r[k]
    return q


def _evaluate(p, shift, x1, x):
    """p at X = x, for the variable X of field shift and key x1."""
    out = {}
    get = out.get
    pw = [1]
    for k, c in p.items():
        e = k >> shift & _M
        if e:
            while len(pw) <= e:
                pw.append(pw[-1] * x)
            k -= e * x1
            c *= pw[e]
        out[k] = get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _interpolate(h, x, x1):
    """The polynomial whose coefficients of X^i (X the variable of key x1)
    are the base-x digits of h's coefficients, taken in the symmetric range
    (-x/2, x/2], with a positive leading coefficient."""
    f = {}
    half = x // 2
    sh = 0  # i * x1 for the digit i
    while h:
        nh = {}
        for k, c in h.items():
            g = c % x
            if g > half:
                g -= x
            if g:
                f[k + sh] = g
            c = (c - g) // x
            if c:
                nh[k] = c
        h = nh
        sh += x1
    return f if _lc(f) > 0 else _pneg(f)


def _primitive(p):
    c = gcd(*p.values())
    return {k: v // c for k, v in p.items()} if c != 1 else p


def _scale(p, c):
    return {k: v * c for k, v in p.items()} if c != 1 else p


def _heugcd(f, g):
    """(h, f/h, g/h) for h a gcd of two nonzero packed polynomials: the
    heuristic gcd of the module docstring, which evaluates only the
    variables present.

    The content is taken out, the first present variable X is evaluated at
    an integer x, and the gcd of the two images (recursively, down to
    integers) is interpolated back at X; a candidate is the gcd when it
    divides both arguments, which is checked by exact division."""
    c = gcd(gcd(*f.values()), *g.values())
    if c != 1:
        f = {k: v // c for k, v in f.items()}
        g = {k: v // c for k, v in g.items()}
    keys = [*f, *g]
    for shift, x1 in _VARS:
        if any(k >> shift & _M for k in keys):
            break
    else:  # two integers
        a, b = f[0], g[0]
        h = gcd(a, b)
        return {0: h * c}, {0: a // h}, {0: b // h}
    fn = max(map(abs, f.values()))
    gn = max(map(abs, g.values()))
    bound = 2 * min(fn, gn) + 29
    x = max(
        min(bound, 99 * isqrt(bound)),
        2 * min(fn // abs(_lc(f)), gn // abs(_lc(g))) + 4,
    )
    for _ in range(_HEU_GCD_MAX):
        ff = _evaluate(f, shift, x1, x)
        gg = _evaluate(g, shift, x1, x)
        if ff and gg:
            h, cff, cfg = _heugcd(ff, gg)
            h = _primitive(_interpolate(h, x, x1))
            qf = _exquo(f, h)
            if qf is not None:
                qg = _exquo(g, h)
                if qg is not None:
                    return _scale(h, c), qf, qg
            cff = _interpolate(cff, x, x1)
            h = _exquo(f, cff)
            if h is not None:
                qg = _exquo(g, h)
                if qg is not None:
                    return _scale(h, c), cff, qg
            cfg = _interpolate(cfg, x, x1)
            h = _exquo(g, cfg)
            if h is not None:
                qf = _exquo(f, h)
                if qf is not None:
                    return _scale(h, c), qf, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    raise ScalarError(f"heuristic gcd failed after {_HEU_GCD_MAX} evaluation points")


def _deflation(keys):
    """The gcd of each variable's exponents over keys, with 1 for an absent
    variable; None when all are 1."""
    j = tuple(gcd(*col) or 1 for col in zip(*map(_unpack, keys)))
    return None if j == (1, 1, 1, 1) else j


def _rescale(p, j, op):
    """p with every exponent e of each variable replaced by op(e, j) for
    that variable's entry of j."""
    return {_pack(map(op, _unpack(k), j)): c for k, c in p.items()}


def _gcd_fast(p, q):
    """The gcd with a positive leading coefficient, by one of the two routes
    of the module docstring."""
    if p == q:
        return p if _lc(p) > 0 else _pneg(p)
    if len(p) == 1 or len(q) == 1:
        return _mono_gcd(p, q)
    j = _deflation([*p, *q])
    if j is None:
        h = _heugcd(p, q)[0]
    else:  # polynomials in s^j etc. are deflated first
        h = _heugcd(_rescale(p, j, floordiv), _rescale(q, j, floordiv))[0]
        h = _rescale(h, j, mul)
    return h if _lc(h) > 0 else _pneg(h)


def _gcd_with_wfree(num, den):
    """gcd of a (possibly w-linear) numerator with a w-free denominator."""
    if not _has_w(num):
        return _gcd_fast(num, den)
    a, b = _w_split(num)
    g = _gcd_fast(b, den)
    if a and g != _D1:
        g = _gcd_fast(a, g)
    return g


def _div_fast(p, g):
    """Exact division with a cheap path for monomial divisors."""
    if g == _D1:
        return p
    if len(g) == 1:
        ((kg, cg),) = g.items()
        return {k - kg: c // cg for k, c in p.items()}
    q = _exquo(p, g)
    if q is None:
        raise ScalarError("inexact polynomial division")
    return q


def _w_reduce(p):
    """Rewrite w^2 -> (s^2+1)/s.  Returns (p2, k) with p == p2 / s^k and p2
    of w-degree at most 1."""
    k = 0
    while any(key >> 3 * _B & _M >= 2 for key in p):
        p = _w2_reduce(p)
        k += 1
    return p, k


def _w_split(p):
    """Split p (with w-degree <= 1) into (a, b) with p = a + b*w."""
    a, b = {}, {}
    for k, c in p.items():
        if k & _WMASK:
            b[k - _W1] = c
        else:
            a[k] = c
    return a, b


def _canonicalize(num, den):
    """The canonical pair of num / den for packed polynomials."""
    if not den:
        raise ScalarError("zero denominator")
    if _has_w(den):
        raise ScalarError("denominator must be w-free")
    num, k = _w_reduce(num)
    if not num:
        return {}, _D1
    if k:
        den = _pmul(den, {k * _S1: 1})
    # cancel the gcd; any common divisor of num and den is w-free,
    # so it divides both the w-free and the w-linear part of num
    g = _gcd_with_wfree(num, den)
    if g != _D1:
        num = _div_fast(num, g)
        den = _div_fast(den, g)
    if _lc(den) < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


# -- Scalars -----------------------------------------------------------------


def _new(n, d, f=None):
    """A Scalar from a canonical packed pair (and its facts, when known)."""
    x = object.__new__(Scalar)
    x._n = n
    x._d = d
    x._f = f
    return x


def _laurent(num, k, c, has_w):
    """The canonical Scalar num / (c*s^k), for a nonzero packed numerator
    num (w-reduced) and c > 0.

    has_w is whether num has w, or None when not known."""
    if k:
        e = min(map(_M.__and__, num))
        if e:
            if e > k:
                e = k
            sh = e * _S1
            num = {key - sh: x for key, x in num.items()}
            k -= e
    if c != 1:
        g = gcd(c, *num.values())
        if g != 1:
            num = {key: x // g for key, x in num.items()}
            c //= g
    den = {k * _S1: c} if k or c != 1 else _D1
    return _new(num, den, None if has_w is None else (has_w, k, c))


def _canonical(num, den):
    """The canonical Scalar num / den for packed polynomials num != 0
    (w-reduced) and den (w-free, with a positive leading coefficient)."""
    if len(den) == 1:
        ((key, c),) = den.items()
        if not key & _UVWMASK:
            return _laurent(num, key & _M, c, None)
    return Scalar(num, den)


def _general_sum(general):
    """The canonical sum of x*y over the triples (x, y, ww) of Scalar.dot,
    ww whether both numerators have w: the pairs with a true-polynomial
    denominator, and the nonzero Laurent sum as (sum, ONE, False).  Every
    product is brought over the lcm of the product denominators in one
    accumulator, and the sum is canonicalized once.  A single pair is x * y,
    whose cross-cancellation keeps its gcds small."""
    if len(general) == 1:
        x, y, _ = general[0]
        return x * y
    which = []  # the index in dens of each product's denominator
    dens = []  # the distinct product denominators
    for x, y, ww in general:
        den = _pmul(x._d, y._d)
        if ww:  # the w^2 rewrite multiplies the denominator by s
            den = _pmul(den, {_S1: 1})
        for i, d in enumerate(dens):
            if d == den:
                break
        else:
            i = len(dens)
            dens.append(den)
        which.append(i)
    # the lcm: one gcd against the running denominator per distinct one
    den = dens[0]
    for d in dens[1:]:
        g = _gcd_fast(den, d)
        if g != d:
            den = _pmul(den, _div_fast(d, g))
    cofactors = [_D1 if d == den else _div_fast(den, d) for d in dens]
    # each numerator product is formed and accumulated in turn, so only
    # one is held at a time
    num = {}
    get = num.get
    for (x, y, ww), i in zip(general, which):
        n = _pmul(x._n, y._n)
        if ww:
            n = _w2_reduce(n)
        for kb, cb in cofactors[i].items():
            for ka, ca in n.items():
                key = ka + kb
                num[key] = get(key, 0) + ca * cb
    # as in Scalar.dot, every key made above is still in num
    if max(num) >= _LIMIT:
        _too_wide()
    if not all(num.values()):
        num = {key: x for key, x in num.items() if x}
        if not num:
            return ZERO
    g = _gcd_with_wfree(num, den)
    if g != _D1:
        num, den = _div_fast(num, g), _div_fast(den, g)
    return _new(num, den)


class Scalar:
    """An element of Q(s, u, v)[w]/(w^2 - s - 1/s) in canonical form."""

    __slots__ = ("_n", "_d", "_f")

    def __init__(self, num, den=_D1):
        """num / den for packed dicts."""
        num, den = _canonicalize(num, den)
        self._n = num
        self._d = den
        self._f = None

    def _facts(self):
        """(has_w, k, c): whether the numerator has w, and den == c*s^k
        (k = -1 when the denominator has another shape).  Computed once;
        read as `x._f or x._facts()`."""
        has_w = any(map(_WMASK.__and__, self._n))
        if len(self._d) == 1:
            ((key, c),) = self._d.items()
            if not key & _UVWMASK:
                self._f = (has_w, key & _M, c)
                return self._f
        self._f = (has_w, -1, 0)
        return self._f

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return _new({0: int(n)} if n else {}, _D1)

    @staticmethod
    def fraction(p: int, q: int) -> "Scalar":
        if q == 0:
            raise ScalarError("fraction: zero denominator")
        if not p:
            return ZERO
        if q < 0:
            p, q = -p, -q
        return _laurent({0: int(p)}, 0, int(q), False)

    @staticmethod
    def s_pow(k: int) -> "Scalar":
        if abs(k) > _M:
            _too_wide()
        if k >= 0:
            return _new({k * _S1: 1}, _D1)
        return _new({0: 1}, {-k * _S1: 1})

    @staticmethod
    def u_pow(k: int) -> "Scalar":
        if abs(k) > _M:
            _too_wide()
        if k >= 0:
            return _new({k * _U1: 1}, _D1)
        return _new({0: 1}, {-k * _U1: 1})

    @staticmethod
    def v_pow(k: int) -> "Scalar":
        if abs(k) > _M:
            _too_wide()
        if k >= 0:
            return _new({k * _V1: 1}, _D1)
        return _new({0: 1}, {-k * _V1: 1})

    @staticmethod
    def w() -> "Scalar":
        return _new({_W1: 1}, _D1)

    @staticmethod
    def q_pow(r) -> "Scalar":
        """q^r for r an integer or half-integer (q = s^2)."""
        e = Fraction(2) * Fraction(r)
        if e.denominator != 1:
            raise ScalarError(f"q_pow: exponent {r} is not a half-integer")
        return Scalar.s_pow(int(e))

    # -- canonical-form predicates ---------------------------------------

    def is_zero(self) -> bool:
        return not self._n

    def is_one(self) -> bool:
        return self._n == self._d

    def w_degree(self) -> int:
        return max((k >> 3 * _B & _M for k in self._n), default=0)

    def is_uv_free(self) -> bool:
        return not any(k & _UVMASK for p in (self._n, self._d) for k in p)

    def is_w_free(self) -> bool:
        return not (self._f or self._facts())[0]

    def s_exponent(self):
        """The integer k with self == s^k, or None when self is not a power
        of s (a canonical s^k is s^k/1 or 1/s^-k)."""
        n, d = self._n, self._d
        if len(n) == len(d) == 1:
            ((kn, cn),) = n.items()
            ((kd, cd),) = d.items()
            en, ed = kn & _M, kd & _M
            if cn == cd == 1 and kn == en * _S1 and kd == ed * _S1:
                return en - ed
        return None

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar.from_int(x)
        if isinstance(x, Fraction):
            return Scalar.fraction(x.numerator, x.denominator)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._n:
            return self
        if not self._n:
            return other
        return Scalar.dot([(self, ONE), (other, ONE)])

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _new({k: -c for k, c in self._n.items()}, self._d, self._f)

    @staticmethod
    def dot(pairs) -> "Scalar":
        """The sum of x*y over a list of Scalar pairs (x, y), in canonical
        form: see "Sums of products" in the module docstring."""
        if len(pairs) == 1:
            x, y = pairs[0]
            return x * y
        terms = []  # (n1, n2, k, c, ww): the product n1*n2 / (c*s^k)
        general = []  # the pairs off the Laurent path
        k, c = 0, 1  # the common denominator c*s^k
        for x, y in pairs:
            n1, n2 = x._n, y._n
            if not n1 or not n2:
                continue
            w1, k1, c1 = x._f or x._facts()
            w2, k2, c2 = y._f or y._facts()
            if k1 < 0 or k2 < 0:
                general.append((x, y, w1 and w2))
                continue
            ww = w1 and w2  # the w^2 rewrite multiplies the denominator by s
            kt, ct = k1 + k2 + ww, c1 * c2
            terms.append((n1, n2, kt, ct, ww))
            if kt > k:
                k = kt
            if c % ct:
                c = lcm(c, ct)
        num = {}
        get = num.get
        for n1, n2, kt, ct, ww in terms:
            sh = (k - kt) * _S1
            m = c // ct
            if ww:
                n1, n2 = _w2_reduce(_pmul(n1, n2)), _D1
            elif len(n1) < len(n2):
                n1, n2 = n2, n1
            for kb, cb in n2.items():
                kb += sh
                cb *= m
                for ka, ca in n1.items():
                    key = ka + kb
                    num[key] = get(key, 0) + ca * cb
        # every key made above is in num, and a field that overflows makes
        # its key reach _LIMIT (the total degree bounds every field)
        if num and max(num) >= _LIMIT:
            _too_wide()
        if not all(num.values()):
            num = {key: x for key, x in num.items() if x}
        if not general:
            return _laurent(num, k, c, None) if num else ZERO
        if num:  # the Laurent sum joins the general ones as one more pair
            general.append((_laurent(num, k, c, None), ONE, False))
        return _general_sum(general)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self._n or not other._n:
            return ZERO
        w1, k1, c1 = self._f or self._facts()
        w2, k2, c2 = other._f or other._facts()
        if k1 >= 0 and k2 >= 0:
            # Laurent path: the product of two nonzero numerators is nonzero
            num = _pmul(self._n, other._n)
            if w1 and w2:
                return _laurent(_w2_reduce(num), k1 + k2 + 1, c1 * c2, None)
            # and has w exactly when one of them has
            return _laurent(num, k1 + k2, c1 * c2, w1 or w2)
        n1, d1 = self._n, self._d
        n2, d2 = other._n, other._d
        if w1 and w2:
            # the product needs w-reduction; take the canonicalizing path
            return Scalar(_pmul(n1, n2), _pmul(d1, d2))
        # cross-cancellation keeps the result reduced with small gcds
        if d2 != _D1:
            g = _gcd_with_wfree(n1, d2)
            if g != _D1:
                n1, d2 = _div_fast(n1, g), _div_fast(d2, g)
        if d1 != _D1:
            g = _gcd_with_wfree(n2, d1)
            if g != _D1:
                n2, d1 = _div_fast(n2, g), _div_fast(d1, g)
        return _new(_pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self._n:
            raise ScalarError("inverse: division by zero")
        if not (self._f or self._facts())[0]:
            # the pair is already coprime: only the sign needs fixing
            if _lc(self._n) < 0:
                return _new(_pneg(self._d), _pneg(self._n))
            return _new(self._d, self._n)
        a, b = _w_split(self._n)
        conj = _padd(a, {k + _W1: -c for k, c in b.items()})  # a - b*w
        # (a+bw)(a-bw) = a^2 - b^2 (s + 1/s) = (a^2 s - b^2 (s^2+1)) / s
        newden = _pneg(_pmul(_pmul(b, b), _S2P1))
        if a:
            newden = _padd(newden, _pmul(_pmul(a, a), {_S1: 1}))
        return Scalar(_pmul(_pmul(self._d, conj), {_S1: 1}), newden)

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._n:
            raise ScalarError("div: division by zero")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        # a constant equals the Fraction (or int) it holds, so it hashes as one
        if not any(self._n) and not any(self._d):
            return hash(Fraction(self._n.get(0, 0)) / self._d[0])
        return hash((frozenset(self._n.items()), frozenset(self._d.items())))

    # -- substitution and coefficient extraction --------------------------

    def subs_u(self, t: "Scalar") -> "Scalar":
        """Substitute u by the Scalar t."""
        return _eval_at_u(self._n, t) / _eval_at_u(self._d, t)

    def u_slices(self):
        """(num, den): the numerator and the denominator split by u-degree,
        each a map deg_u -> u-free polynomial Scalar (dividing by nothing)."""
        return (
            {e: _new(p, _D1) for e, p in _u_split(self._n).items()},
            {e: _new(p, _D1) for e, p in _u_split(self._d).items()},
        )

    def uv_coeffs(self) -> dict:
        """For a Scalar with u,v-free denominator: the map
        (deg_u, deg_v) -> Scalar coefficient (u,v-free)."""
        if any(k & _UVMASK for k in self._d):
            raise ScalarError("uv_coeffs: denominator is not u,v-free")
        parts = {}
        for key, c in self._n.items():
            eu, ev = key >> _B & _M, key >> 2 * _B & _M
            parts.setdefault((eu, ev), {})[key - eu * _U1 - ev * _V1] = c
        return {uv: _canonical(p, self._d) for uv, p in parts.items()}

    # -- q-adic expansion --------------------------------------------------

    def qadic_laurent(self, order: int):
        """Expansion of a u,v,w-free Scalar as a Laurent series in q^(-1).

        Returns (lead, coeffs) where the series is
        sum_j coeffs[j] * q^(lead - j), computed through q^(lead - order)
        (i.e. len(coeffs) == order + 1).  Exponents of s must all be even.
        """
        keys = [*self._n, *self._d]
        if any(k & _UVWMASK for k in keys):
            raise ScalarError("qadic expansion requires a u,v,w-free Scalar")
        if any(k & 1 for k in keys):
            raise ScalarError("qadic expansion requires integer powers of q")
        if not self._n:
            return 0, [Fraction(0)] * (order + 1)
        num = {(k & _M) // 2: c for k, c in self._n.items()}
        den = {(k & _M) // 2: c for k, c in self._d.items()}
        emax_n, emax_d = max(num), max(den)
        lead = emax_n - emax_d
        # In t = 1/q: num = q^emax_n * n(t), den = q^emax_d * d(t), d(0) != 0.
        n = [num.get(emax_n - j, 0) for j in range(order + 1)]
        d = [den.get(emax_d - j, 0) for j in range(order + 1)]
        # dividing by d(0) = +-1 is multiplying by it, and keeps every
        # coefficient an integer: Fractions are needed only otherwise
        unit = d[0] in (1, -1)
        if not unit:
            n, d = [Fraction(x) for x in n], [Fraction(x) for x in d]
        out = []
        for j in range(order + 1):
            acc = n[j] - sum(d[i] * out[j - i] for i in range(1, j + 1))
            out.append(acc * d[0] if unit else acc / d[0])
        # out[0] = n[0] / d[0] is never 0, so q^lead is the leading term
        return lead, [Fraction(x) for x in out] if unit else out

    # -- printing and parsing ---------------------------------------------

    def __str__(self):
        if self._d == _D1:
            return _poly_str(self._n)
        return f"({_poly_str(self._n)})/({_poly_str(self._d)})"

    def __repr__(self):
        return f"Scalar({self})"

    @staticmethod
    def parse(text: str) -> "Scalar":
        return _parse_scalar(text)


# The packed numerator and denominator: slot aliases, not properties, as
# perfbench/qavtrace.py times properties and reads den on every product.
Scalar.num, Scalar.den = Scalar._n, Scalar._d


def _u_split(p):
    """The packed polynomial p split by u-degree: {deg_u: u-free part}."""
    slices = {}
    for key, c in p.items():
        e = key >> _B & _M
        slices.setdefault(e, {})[key - e * _U1] = c
    return slices


def _eval_at_u(p, t):
    """The packed polynomial p at u = the Scalar t: the sum of its u-free
    slices times the powers of t, one Scalar.dot."""
    return Scalar.dot([(_new(c, _D1), t**e) for e, c in _u_split(p).items()])


# -- q-integers ------------------------------------------------------------


def qint(k: int, r=1) -> "Scalar":
    """The q-integer [k]_{q^r} = (q^{rk} - q^{-rk}) / (q^r - q^{-r})."""
    r = Fraction(r)
    if r <= 0:
        raise ScalarError("qint: r must be positive")
    if k < 0:
        return -qint(-k, r)
    return Scalar.dot([(Scalar.q_pow(r * (k - 1 - 2 * j)), ONE) for j in range(k)])


def qfact(k: int, r=1) -> "Scalar":
    if k < 0:
        raise ScalarError("qfact: negative argument")
    out = ONE
    for j in range(1, k + 1):
        out = out * qint(j, r)
    return out


def qbinom(k: int, l: int, r=1) -> "Scalar":
    if not 0 <= l <= k:
        raise ScalarError("qbinom: arguments out of range")
    return qfact(k, r) / (qfact(l, r) * qfact(k - l, r))


# -- printing / parsing ----------------------------------------------------

_VAR_NAMES = ("w", "v", "u", "s")


def _mono_str(mon, c):
    factors = []
    for name, e in zip(_VAR_NAMES, mon):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    factors.sort(key=lambda f: "suvw".index(f[0]))
    if not factors:
        return str(abs(c))
    if abs(c) != 1:
        factors.insert(0, str(abs(c)))
    return "*".join(factors)


def _poly_str(p):
    """A packed polynomial, leading term first (grlex descending)."""
    if not p:
        return "0"
    parts = []
    for i, (key, c) in enumerate(sorted(p.items(), reverse=True)):
        sign = "-" if c < 0 else ("+" if i else "")
        parts.append(sign + _mono_str(_unpack(key), c))
    return "".join(parts)


def _parse_scalar(text: str) -> Scalar:
    text = text.strip().replace(" ", "")
    if text.startswith("(") and ")/(" in text:
        # split at the top-level ")/("
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    if not text[i + 1 :].startswith("/("):
                        break
                    num = _parse_poly(text[1:i])
                    den = _parse_poly(text[i + 3 : -1])
                    return Scalar(num, den)
    return Scalar(_parse_poly(text))


def _parse_poly(text: str):
    """A packed polynomial from its printed form."""
    if not text:
        raise ScalarError("parse: empty polynomial")
    out = {}
    get = out.get
    i, n = 0, len(text)
    while i < n:
        sign = 1
        while i < n and text[i] in "+-":
            if text[i] == "-":
                sign = -sign
            i += 1
        j = i
        while j < n and text[j] not in "+-":
            j += 1
        key, c = _parse_mono(text[i:j])
        out[key] = get(key, 0) + sign * c
        i = j
    return {k: c for k, c in out.items() if c}


def _parse_mono(term: str):
    """(key, coefficient) of one printed term."""
    coeff = 1
    mon = [0, 0, 0, 0]
    for factor in term.split("*"):
        if not factor:
            raise ScalarError(f"parse: bad term {term!r}")
        if factor[0].isdigit():
            coeff *= int(factor)
            continue
        name, _, exp = factor.partition("^")
        if name not in _VAR_NAMES:
            raise ScalarError(f"parse: unknown variable {name!r}")
        mon[_VAR_NAMES.index(name)] += int(exp) if exp else 1
    return _pack(mon), coeff


ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)
