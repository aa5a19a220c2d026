"""The N-dimensional vector representation of the Drinfeld generators for
types B and D, as explicit exact matrices, plus a modewise checker for the
defining relations (the central charge acts by 0 here, so q^(c/2) maps to 1).

Generator indices i are 1-based (1..n); mode indices k range over the
integers (k != 0 for the a-generators).  Matrix rows/columns are the
standard basis vectors 1..N, stored 0-based in SparseMat.

Every image of the node i is written once, in terms of the pair of basis
indices (a, b) = alg.node_pair(i): x+_{i,k} maps e_a to e_b and e_b' to
e_a', and k_i scales e_b and e_a' by q, e_a and e_b' by q^-1.  The types
differ only at the last node: its pair is (n - 1, n + 1) in type D, and in
type B its b = n + 1 is the middle index, where the x-images carry w and
the a-images have a diagonal of their own.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product

from .report import first_failure
from .scalars import Scalar, qint, qbinom, ONE
from .series import ResourceBoundError, TruncSeries, AT_ZERO, AT_INFINITY, series_exp
from .tensor import SparseMat


# The largest rank check_drinfeld_window accepts, at the default window 3.
# On a 2-core host B14 and D15 take about 11 s, D14 about 8 s.
MAX_DRINFELD_RANK = 14
_MONE = Scalar.from_int(-1)


class VecRepError(ValueError):
    pass


def _check_index(alg, i):
    if not 1 <= i <= alg.n:
        raise VecRepError(f"generator index {i} out of range for {alg}")


def _qp(e):
    """q^e for an integer e (q = s^2)."""
    return Scalar.s_pow(2 * e)


def _mat(N, entries) -> SparseMat:
    """The N x N matrix of the entries (i, j, value), with 1-based i, j."""
    return SparseMat.from_entries(N, N, ((i - 1, j - 1, x) for i, j, x in entries))


def _x_entries(alg, i, k):
    """The entries of x+_{i,k}; x-_{i,k} has their transposes."""
    _check_index(alg, i)
    a, b = alg.node_pair(i)
    p = alg.prime
    c = Scalar.w() if alg.is_middle(b) else ONE
    return (b, a, -c * _qp(-a * k)), (p(a), p(b), c * _qp(-(alg.N - 2 - a) * k))


# The generator images are memoised per (algebra, index, mode) with
# functools.cache, as the relation families read each many times; the
# returned matrices are shared, so callers must not mutate them.
@cache
def x_plus(alg, i, k) -> SparseMat:
    return _mat(alg.N, _x_entries(alg, i, k))


@cache
def x_minus(alg, i, k) -> SparseMat:
    return _mat(alg.N, ((j, i, x) for i, j, x in _x_entries(alg, i, k)))


@cache
def a_gen(alg, i, k) -> SparseMat:
    _check_index(alg, i)
    if k == 0:
        raise VecRepError("a-generator needs a nonzero mode")
    a, b = alg.node_pair(i)
    N, p = alg.N, alg.prime
    if alg.is_middle(b):
        coef = qint(2 * k, alg.r[i - 1]) * Scalar.fraction(1, k)
        e, f = -(a - 1) * k, -a * k
        diag = (a, -_qp(e)), (b, _qp(f) - _qp(e)), (p(a), _qp(f))
    else:
        coef = qint(k, alg.r[i - 1]) * Scalar.fraction(1, k)
        e, f = -a * k, -(N - 2 - a) * k
        diag = [(b, _qp(e - k)), (a, -_qp(e + k))]
        diag += [(p(a), _qp(f - k)), (p(b), -_qp(f + k))]
    return _mat(N, ((j, j, x) for j, x in diag)).scale(coef)


@cache
def k_cartan(alg, i, inv=False) -> SparseMat:
    """q^(+-1) on b and a', q^(-+1) on a and b', for the pair (a, b) of the
    node i; at the middle index the two exponents cancel."""
    _check_index(alg, i)
    e = -1 if inv else 1
    a, b = alg.node_pair(i)
    p, N = alg.prime, alg.N
    exps = [0] * (N + 1)
    for j, x in ((b, e), (p(a), e), (a, -e), (p(b), -e)):
        exps[j] += x
    return _mat(N, ((j, j, _qp(exps[j])) for j in range(1, N + 1)))


def psi_phi_modes(alg, i, maxmode):
    """The modewise images of psi_i and phi_i.

    Returns (psi, phi): psi[t] is the image of the u^-t coefficient of
    psi_i(u) = k_i exp((q_i - 1/q_i) sum_{s>=1} a_{i,s} u^-s), and phi[t]
    the image of the u^t coefficient of
    phi_i(u) = 1/k_i exp(-(q_i - 1/q_i) sum_{s>=1} a_{i,-s} u^s),
    for t = 0..maxmode.
    """
    _check_index(alg, i)
    N = alg.N
    qdiff = alg.qi[i - 1] - alg.qi[i - 1].inverse()
    ident = SparseMat.identity(N)
    gplus = TruncSeries(
        AT_INFINITY,
        maxmode,
        {s: a_gen(alg, i, s).scale(qdiff) for s in range(1, maxmode + 1)},
    )
    gminus = TruncSeries(
        AT_ZERO,
        maxmode,
        {s: a_gen(alg, i, -s).scale(-qdiff) for s in range(1, maxmode + 1)},
    )
    ki = k_cartan(alg, i)
    kinv = k_cartan(alg, i, inv=True)
    ep = series_exp(gplus, one=ident)
    em = series_exp(gminus, one=ident)
    zero = SparseMat.zeros(N, N)
    psi = [ki * ep.coeffs.get(t, zero) for t in range(maxmode + 1)]
    phi = [kinv * em.coeffs.get(t, zero) for t in range(maxmode + 1)]
    return psi, phi


def _comm(a, b, *terms):
    """a*b - b*a + the sum of the (c, A, B) terms, as one sum_of_products."""
    terms = [(None, a, b), (_MONE, b, a), *terms]
    return SparseMat.sum_of_products(terms, a.nrows, b.ncols)


def serre_sum(xs, y, coefs) -> SparseMat:
    """The Serre sum: coefs[l] times the sum, over the orderings of the
    matrices xs, of the product with y inserted after the first l of them,
    summed over l = 0..len(xs) as one fused sum of products."""
    terms = []
    for l, c in enumerate(coefs):
        for perm in permutations(xs):
            mats = [*perm[:l], y, *perm[l:]]
            head = mats[0]
            for x in mats[1:-1]:
                head = head * x
            terms.append((c, head, mats[-1]))
    return SparseMat.sum_of_products(terms, y.nrows, y.ncols)


def check_drinfeld_window(alg, window=3) -> list:
    """Verify every defining relation of the presentation modewise, for all
    mode indices bounded by the window, as exact matrix identities in the
    vector representation (central charge 0)."""
    if window < 1:
        raise VecRepError("window must be >= 1")
    if alg.n > MAX_DRINFELD_RANK:
        raise ResourceBoundError(
            f"rank {alg.n} exceeds the drinfeld-rep bound MAX_DRINFELD_RANK = "
            f"{MAX_DRINFELD_RANK}"
        )
    # the largest relation families have n^2 (2W + 1)^2 instances (i, j and
    # two modes each): at most their count at MAX_DRINFELD_RANK and window 3
    if alg.n * (2 * window + 1) > MAX_DRINFELD_RANK * (2 * 3 + 1):
        raise ResourceBoundError(
            f"rank {alg.n} at window {window} exceeds the drinfeld-rep work "
            f"bound, that of rank {MAX_DRINFELD_RANK} at window 3"
        )
    n, N = alg.n, alg.N
    W = window
    modes = range(-W, W + 1)
    amodes = [m for m in modes if m != 0]
    reports = []

    def run(name, instances):
        # every instance is evaluated: the item reports how many there are
        labelled = [({"instance": label}, diff) for label, diff in instances]
        reports.append(
            first_failure(
                f"{name}, {alg} (window {W})", labelled, instances=len(labelled)
            )
        )

    ks = {i: k_cartan(alg, i) for i in range(1, n + 1)}
    kinvs = {i: k_cartan(alg, i, inv=True) for i in range(1, n + 1)}
    ident = SparseMat.identity(N)

    run(
        "k_i k_i^-1 = 1",
        ((f"i={i}", ks[i] * kinvs[i] - ident) for i in range(1, n + 1)),
    )
    run(
        "k_i k_j = k_j k_i",
        (
            (f"i={i},j={j}", _comm(ks[i], ks[j]))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ),
    )
    run(
        "k_i a_{j,m} = a_{j,m} k_i",
        (
            (f"i={i},j={j},m={m}", _comm(ks[i], a_gen(alg, j, m)))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for m in amodes
        ),
    )

    def k_conj():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for m in modes:
                    for sgn, xf in ((1, x_plus), (-1, x_minus)):
                        x = xf(alg, j, m)
                        aij = int(alg.A[i - 1][j - 1])
                        coef = alg.qi[i - 1] ** (sgn * aij)
                        diff = ks[i] * x * kinvs[i] - x.scale(coef)
                        yield f"i={i},j={j},m={m},sign={sgn:+d}", diff

    run("k_i x_{j,m} k_i^-1 = q_i^(+-A_ij) x_{j,m}", k_conj())

    run(
        "[a_{i,m}, a_{j,l}] = 0 (central charge 0)",
        (
            (
                f"i={i},j={j},m={m},l={l}",
                _comm(a_gen(alg, i, m), a_gen(alg, j, l)),
            )
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for m in amodes
            for l in amodes
        ),
    )

    def a_x():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                aij = int(alg.A[i - 1][j - 1])
                for m in amodes:
                    coef = qint(m * aij, alg.r[i - 1]) * Scalar.fraction(1, m)
                    for l in modes:
                        for sgn, xf in ((1, x_plus), (-1, x_minus)):
                            rhs = (-coef if sgn > 0 else coef, xf(alg, j, m + l), None)
                            diff = _comm(a_gen(alg, i, m), xf(alg, j, l), rhs)
                            yield f"i={i},j={j},m={m},l={l},sign={sgn:+d}", diff

    run("[a_{i,m}, x_{j,l}] = +-([m A_ij]_{q_i}/m) x_{j,m+l}", a_x())

    def quadratic():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                aij = int(alg.A[i - 1][j - 1])
                for sgn, xf in ((1, x_plus), (-1, x_minus)):
                    mc = -alg.qi[i - 1] ** (sgn * aij)
                    coefs = None, mc, mc, None
                    for m in range(-W, W):
                        xi1 = xf(alg, i, m + 1)
                        xi0 = xf(alg, i, m)
                        for l in modes:
                            xj0 = xf(alg, j, l)
                            xj1 = xf(alg, j, l + 1)
                            # (xi1 xj0 - c xj0 xi1) - (c xi0 xj1 - xj1 xi0), mc = -c
                            pairs = (xi1, xj0), (xj0, xi1), (xi0, xj1), (xj1, xi0)
                            terms = [(c, a, b) for c, (a, b) in zip(coefs, pairs)]
                            diff = SparseMat.sum_of_products(terms, N, N)
                            yield f"i={i},j={j},m={m},l={l},sign={sgn:+d}", diff

    run("quadratic x-x relation", quadratic())

    psis = {}
    phis = {}
    for i in range(1, n + 1):
        psis[i], phis[i] = psi_phi_modes(alg, i, 2 * W)

    def x_mixed():
        zero = SparseMat.zeros(N, N)
        for i in range(1, n + 1):
            qdinv = (alg.qi[i - 1] - alg.qi[i - 1].inverse()).inverse()
            for j in range(1, n + 1):
                for m in modes:
                    for l in modes:
                        rhs = []
                        if i == j:
                            t = m + l
                            psi_t = psis[i][t] if t >= 0 else zero
                            phi_t = phis[i][-t] if t <= 0 else zero
                            rhs = [(-qdinv, psi_t, None), (qdinv, phi_t, None)]
                        diff = _comm(x_plus(alg, i, m), x_minus(alg, j, l), *rhs)
                        yield f"i={i},j={j},m={m},l={l}", diff

    run("[x+_{i,m}, x-_{j,l}] = delta_ij (psi - phi)/(q_i - 1/q_i)", x_mixed())

    def serre():
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                r = 1 - int(alg.A[i - 1][j - 1])
                coefs = [(-1) ** l * qbinom(r, l, alg.r[i - 1]) for l in range(r + 1)]
                for shape in product(range(-W, W + 1), repeat=r + 1):
                    if sum(abs(s) for s in shape) > W:
                        continue
                    s, m = shape[:r], shape[r]
                    for sign, xf in ((1, x_plus), (-1, x_minus)):
                        xs = [xf(alg, i, sk) for sk in s]
                        acc = serre_sum(xs, xf(alg, j, m), coefs)
                        yield f"i={i},j={j},s={s},m={m},sign={sign:+d}", acc

    run("Serre relations", serre())

    def w_structure():
        w_deg = int(alg.is_middle(alg.node_pair(n)[1]))
        for m in modes:
            for label, xf in (("x+", x_plus), ("x-", x_minus)):
                x = xf(alg, n, m)
                ok = all(v.w_degree() == w_deg for _, _, v in x.entries())
                yield f"{label}_{{{n},{m}}}", (
                    SparseMat.zeros(N, N) if ok else x
                )
        for i in range(1, n + 1):
            for m in amodes:
                mats = [a_gen(alg, i, m), ks[i]]
                if i < n:
                    mats += [x_plus(alg, i, m), x_minus(alg, i, m)]
                bad = any(
                    v.w_degree() != 0 for mm in mats for _, _, v in mm.entries()
                )
                yield f"w-free i={i},m={m}", (
                    mats[0] if bad else SparseMat.zeros(N, N)
                )

    run("w-factor structure of the images", w_structure())
    return reports
