"""Construction of the R-matrices P, Q, R, Rbar(u), R(u) for types B and D,
and the identity checks among them: Yang-Baxter, unitarity, crossing
symmetry, and the agreement of the two constructions of Rbar.
"""

from __future__ import annotations

import os
from functools import cache, cached_property

from .report import check, first_failure
from .scalars import Scalar, ONE, ZERO
from .series import ResourceBoundError, TruncSeries, AT_ZERO, expand_scalar, f_series
from .tensor import (
    SparseMat,
    embed_leg,
    transpose_t1,
    dmat,
    dmat_inverse,
)


def max_n() -> int:
    return int(os.environ.get("QAV_MAX_N", "6"))


def guard_cubic(alg):
    if alg.N > max_n():
        raise ResourceBoundError(
            f"N = {alg.N} exceeds the configured bound QAV_MAX_N = {max_n()}; "
            "raise QAV_MAX_N to run this check"
        )


def p_matrix(alg) -> SparseMat:
    N = alg.N
    return SparseMat.from_entries(
        N * N,
        N * N,
        (
            (i * N + j, j * N + i, ONE)
            for i in range(N)
            for j in range(N)
        ),
    )


def q_matrix(alg) -> SparseMat:
    N = alg.N
    entries = []
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            # q^(bar i - bar j) e_{i'j'} (x) e_{ij}
            r = (alg.prime(i) - 1) * N + (i - 1)
            c = (alg.prime(j) - 1) * N + (j - 1)
            entries.append((r, c, alg.q_bar_diff(i, j)))
    return SparseMat.from_entries(N * N, N * N, entries)


def r_matrix(alg) -> SparseMat:
    """The constant R-matrix of the braid-limit form."""
    N = alg.N
    q = Scalar.q_pow(1)
    qinv = Scalar.q_pow(-1)
    qdiff = q - qinv
    entries = []
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            ii, jj = i - 1, j - 1
            if i == j:
                if alg.is_middle(i):
                    # the middle term e_{n+1,n+1} (x) e_{n+1,n+1}
                    entries.append((ii * N + ii, ii * N + ii, ONE))
                else:
                    entries.append((ii * N + ii, ii * N + ii, q))
            else:
                if i != alg.prime(j):
                    entries.append((ii * N + jj, ii * N + jj, ONE))
            if i == alg.prime(j) and i != j:
                # q^{-1} e_ii (x) e_{i'i'}
                entries.append((ii * N + jj, ii * N + jj, qinv))
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i < j:
                entries.append(((i - 1) * N + (j - 1), (j - 1) * N + (i - 1), qdiff))
            elif i > j:
                r = (alg.prime(i) - 1) * N + (i - 1)
                c = (alg.prime(j) - 1) * N + (j - 1)
                entries.append((r, c, -qdiff * alg.q_bar_diff(i, j)))
    return SparseMat.from_entries(N * N, N * N, entries)


def rbar_from_pqr(alg) -> SparseMat:
    """Rbar(u) assembled from P, Q, R with exact rational-in-u entries."""
    u = Scalar.u_pow(1)
    q = Scalar.q_pow(1)
    qinv = Scalar.q_pow(-1)
    den = u * q - qinv
    c_r = (u - 1) / den
    c_p = (q - qinv) / den
    c_q = -((q - qinv) * (u - 1) * alg.xi) / (den * (u - alg.xi))
    out = r_matrix(alg).scale(c_r) + p_matrix(alg).scale(c_p) + q_matrix(alg).scale(c_q)
    return out


def rbar_entry_table(alg) -> SparseMat:
    """Rbar(u) built from the explicit entrywise case table."""
    N = alg.N
    u = Scalar.u_pow(1)
    q = Scalar.q_pow(1)
    qinv = Scalar.q_pow(-1)
    qdiff = q - qinv
    xi = alg.xi
    den1 = q * u - qinv
    entries = []
    for i in range(1, N + 1):
        if i != alg.prime(i):
            entries.append(((i - 1) * N + (i - 1), (i - 1) * N + (i - 1), ONE))
    c_diag = (u - 1) / den1
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i != j and i != alg.prime(j):
                entries.append(
                    ((i - 1) * N + (j - 1), (i - 1) * N + (j - 1), c_diag)
                )
    c_lower = qdiff / den1
    c_upper = qdiff * u / den1
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j or i == alg.prime(j):
                continue
            c = c_lower if i > j else c_upper
            entries.append(((i - 1) * N + (j - 1), (j - 1) * N + (i - 1), c))
    den2 = (u - Scalar.q_pow(-2)) * (u - xi)
    q2i = Scalar.q_pow(-2)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            a = _a_entry(alg, i, j, u, q2i, xi)
            if a.is_zero():
                continue
            r = (alg.prime(i) - 1) * N + (i - 1)
            c = (alg.prime(j) - 1) * N + (j - 1)
            entries.append((r, c, a / den2))
    return SparseMat.from_entries(N * N, N * N, entries)


def _a_entry(alg, i, j, u, q2i, xi):
    """The case table a_ij(u)."""
    if i == j:
        if i != alg.prime(i):
            return (q2i * u - xi) * (u - 1)
        return Scalar.q_pow(-1) * (u - xi) * (u - 1) + (xi - 1) * (q2i - 1) * u
    delta = ONE if i == alg.prime(j) else ZERO
    if i < j:
        return (q2i - 1) * (alg.q_bar_diff(i, j) * xi * (u - 1) - delta * (u - xi))
    return (q2i - 1) * u * (alg.q_bar_diff(i, j) * (u - 1) - delta * (u - xi))


class RCatalog:
    """All R-matrix data for one algebra, cross-checked at build time."""

    def __init__(self, alg):
        self.alg = alg
        self.P = p_matrix(alg)
        self.Q = q_matrix(alg)
        self.R = r_matrix(alg)
        self.rbar = rbar_from_pqr(alg)
        table = rbar_entry_table(alg)
        diff = self.rbar - table
        if not diff.is_zero():
            i, j, x = diff.first_nonzero()
            raise ArithmeticError(
                f"Rbar assembly disagrees with the entry table at ({i},{j}): {x}"
            )
        # (qu - 1/q)(u - xi) clears every denominator of Rbar; the scaled
        # matrix has polynomial entries, which keeps products gcd-free
        u = Scalar.u_pow(1)
        self.denpoly = (Scalar.q_pow(1) * u - Scalar.q_pow(-1)) * (u - alg.xi)
        self.rbar_poly = self.rbar.scale(self.denpoly)

    @cached_property
    def ybe_difference(self) -> SparseMat:
        """exchange_difference(rbar_poly, N), formed on first use: the
        matrix `ybe` reports and the L-operator wiring's RLL check reads.
        It is streamed row by row, each entry one Scalar.dot over the same
        pairs as the two whole chains, with only one row of each chain
        alive; what is held is the difference, empty when YBE holds.
        Suites that read neither never form it."""
        return exchange_difference(self.rbar_poly, self.alg.N)

    def rpoly(self) -> SparseMat:
        """The polynomial matrix A(u) with R(u) = f(u) A(u):
        A = q^-1 (u-1)(u-xi) R - (q^-2-1)(u-xi) P + (q^-2-1)(u-1) xi Q."""
        alg = self.alg
        u = Scalar.u_pow(1)
        xi = alg.xi
        q2i1 = Scalar.q_pow(-2) - 1
        c_r = Scalar.q_pow(-1) * (u - 1) * (u - xi)
        c_p = -(q2i1 * (u - xi))
        c_q = q2i1 * (u - 1) * xi
        return self.R.scale(c_r) + self.P.scale(c_p) + self.Q.scale(c_q)


def _mat_subs_u(m: SparseMat, t: Scalar) -> SparseMat:
    """m with the spectral variable u of every entry replaced by t."""
    return SparseMat(
        m.nrows,
        m.ncols,
        {
            i: {j: x.subs_u(t) for j, x in row.items()}
            for i, row in m.rows.items()
        },
    )


def build_catalog(alg) -> RCatalog:
    """The RCatalog of alg, memoised per algebra; refuses N > QAV_MAX_N on
    every call, as every check that builds one runs cubic-size products."""
    guard_cubic(alg)
    return _catalog(alg)


@cache
def _catalog(alg) -> RCatalog:
    return RCatalog(alg)


def exchange_difference(m: SparseMat, N: int) -> SparseMat:
    """M12(u) M13(uv) M23(v) - M23(v) M13(uv) M12(u) for an N^2 x N^2 matrix
    m = M(u) with polynomial entries: the Yang-Baxter equation for M = Rbar,
    and the RLL relation of L = M (in u/v and v, an invertible change of
    variables).

    The triple products are streamed one row at a time: row i of each chain
    is the 1 x N^3 product of row i of its first leg with M13, and row i of
    the difference is one fused sum of those two rows times the last legs,
    the right-hand chain negated, so the two sides cancel inside each
    entry's accumulator.  Every entry is the same Scalar.dot over the same
    pairs as the difference of the two whole chains, but only one row of
    each chain is alive at a time: no N^3 x N^3 chain product is held."""
    u, v = Scalar.u_pow(1), Scalar.v_pow(1)
    a12 = embed_leg(m, (1, 2), N)
    a13 = embed_leg(_mat_subs_u(m, u * v), (1, 3), N)
    a23 = embed_leg(_mat_subs_u(m, v), (2, 3), N)
    rows = {}
    for i in range(N**3):
        left, right = a12.row(i) * a13, a23.row(i) * a13
        row = SparseMat.dot([(left, a23), (-right, a12)]).rows
        if row:
            rows[i] = row[0]
    return SparseMat._nonzero(N**3, N**3, rows)


def check_ybe(alg) -> list:
    """Exact two-variable Yang-Baxter check for Rbar.

    The check is run for Rbar; it extends to R(u) = g(u) Rbar(u) because
    the scalar prefactors g(x) g(xy) g(y) cancel between the two sides.
    Both sides are scaled by the same denominator-clearing polynomials, so
    the comparison is between matrices with polynomial entries.  The
    difference of the two sides is streamed row by row: each entry is one
    Scalar.dot over the same pairs as the two whole chains, and only one
    row of each chain is alive at a time.

    The difference is the catalog's `ybe_difference`, the same object the
    L-operator wiring reads as its RLL check.  Either reading of Rbar gets
    this verdict.  For M' = P M P, conjugating by P13 (the swap of legs 1
    and 3) turns M'12(u) M'13(uv) M'23(v) into M23(u) M13(uv) M12(v), so
    exchange(P X P) = -P13 sigma(exchange(X)) P13, sigma the swap of u and v.
    """
    cat = build_catalog(alg)
    N = alg.N
    return [
        first_failure(
            f"Yang-Baxter identity for Rbar, {alg} ({N**3}x{N**3})",
            [({}, cat.ybe_difference)],
            note="checked exactly for Rbar; the g-prefactors of R cancel",
        )
    ]


def check_unitarity(alg) -> list:
    """Rbar_12(u) Rbar_21(1/u) = 1 with Rbar_21(x) = P Rbar(x) P."""
    cat = build_catalog(alg)
    uinv = Scalar.u_pow(-1)
    r21_inv_arg = cat.P * _mat_subs_u(cat.rbar_poly, uinv) * cat.P
    scale = cat.denpoly * cat.denpoly.subs_u(uinv)
    n = alg.N**2
    # the product minus scale times the identity, as one fused sum
    diff = SparseMat.sum_of_products(
        [(None, cat.rbar_poly, r21_inv_arg), (-scale, SparseMat.identity(n), None)], n, n
    )
    return [first_failure(f"unitarity of Rbar, {alg}", [({}, diff)])]


def crossing_scalar(alg) -> Scalar:
    """(u - q^2)(u xi - 1) / ((1 - u)(1 - u xi q^2))."""
    u = Scalar.u_pow(1)
    xi = alg.xi
    q2 = Scalar.q_pow(2)
    return ((u - q2) * (u * xi - 1)) / ((1 - u) * (1 - u * xi * q2))


def check_crossing(alg, order=10) -> list:
    """Both crossing identities: the exact rational one for Rbar and the
    truncated-series one for R(u), whose scalar is xi^2 q^-2."""
    cat = build_catalog(alg)
    N = alg.N
    d1 = dmat(alg).kron(SparseMat.identity(N))
    d1i = dmat_inverse(alg).kron(SparseMat.identity(N))

    out = []

    uxi = Scalar.u_pow(1) * alg.xi
    head = cat.rbar_poly * d1 * transpose_t1(_mat_subs_u(cat.rbar_poly, uxi), alg)
    scale = cat.denpoly * cat.denpoly.subs_u(uxi) * crossing_scalar(alg)
    # head * d1i minus scale times the identity, as one fused sum
    diff = SparseMat.sum_of_products(
        [(None, head, d1i), (-scale, SparseMat.identity(N * N), None)], N * N, N * N
    )
    out.append(
        first_failure(f"crossing symmetry for Rbar (exact), {alg}", [({}, diff)])
    )

    # series crossing for R(u) = f(u) A(u): the matrix part of the product
    # is exact rational, so only the f-factors need series arithmetic
    rp = cat.rpoly()
    prod = rp * d1 * transpose_t1(_mat_subs_u(rp, uxi), alg) * d1i
    scal = alg.xi**2 * Scalar.q_pow(-2)
    # the product must be m times the identity, m its first entry
    _, _, m = prod.first_nonzero()
    witness = next(
        (
            {"row": i, "col": j, "value": str(x)}
            for i, j, x in prod.entries()
            if i != j or not (x - m).is_zero()
        ),
        None,
    )
    if witness is None:
        f = f_series(alg, order)
        series = expand_scalar(m, AT_ZERO, order) * f * f.scale_arg(alg.xi)
        diff = series - TruncSeries.constant(scal, AT_ZERO, order)
        if not diff.is_zero():
            witness = {"series": str(diff)}
    out.append(
        check(
            f"crossing symmetry for R (series, order {order}), {alg}",
            witness is None,
            witness,
            scalar=str(scal),
        )
    )

    # R(u) = g(u) Rbar(u) with g = f * (u - q^-2)(u - xi): equivalent to the
    # exact rational identity A(u) = (u - q^-2)(u - xi) Rbar(u)
    u = Scalar.u_pow(1)
    diff = rp - cat.rbar.scale((u - Scalar.q_pow(-2)) * (u - alg.xi))
    out.append(
        first_failure(f"R(u) = g(u) Rbar(u) (exact matrix part), {alg}", [({}, diff)])
    )
    return out
