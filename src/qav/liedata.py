"""Lie-theoretic constants for the orthogonal series B_n and D_n.

All data is exact: half-integer weights are Fractions, the Cartan and Gram
matrices are Fraction-valued, and the inverses B~ of B and of the q-deformed
Gram matrix B(q) are Scalar matrices computed by quasidet.ring_inverse.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .quasidet import ring_inverse
from .report import check
from .scalars import Scalar, ScalarError, qint, ONE
from .series import ResourceBoundError

# The largest rank check_cartan accepts.  Its cost is the exact inverse of
# the q-Gram matrix B(q), which grows quickly with the rank: rank 21 takes
# about 10 s on a 2-core host, rank 16 about 3.5 s.
MAX_CARTAN_RANK = 21


class LieDataError(ValueError):
    pass


def _dot(x, y):
    # root coordinates are mostly zero; skip those Fraction products
    return sum((a * b for a, b in zip(x, y) if a and b), Fraction(0))


# N, the barred weights and xi of B_n or D_n, for every rank n >= 1 (D_1 has
# bars [0, 0] and xi = 1): the rank-m reductions read them at each m <= n.


def dimension_of(type_: str, n: int) -> int:
    return 2 * n + 1 if type_ == "B" else 2 * n


def bars_of(type_: str, n: int) -> list:
    """The barred weights of the indices i = 1..N: n - i + 1/2 (type B) or
    n - i (type D) for i <= n, 0 at i = n + 1 in type B, then negatives."""
    if type_ == "B":
        top = [n - i - Fraction(1, 2) for i in range(n)] + [Fraction(0)]
    else:
        top = [Fraction(n - 1 - i) for i in range(n)]
    return top + [-b for b in reversed(top[:n])]


def xi_of(type_: str, n: int) -> Scalar:
    """xi = q^(2 - N)."""
    return Scalar.q_pow(2 - dimension_of(type_, n))


class AlgebraData:
    """All constants attached to type B_n (N = 2n+1) or D_n (N = 2n); equal
    and hashed by (type, rank), the key of every per-algebra memo."""

    def __init__(self, type_: str, rank: int):
        if type_ not in ("B", "D"):
            raise LieDataError(f"unknown type {type_!r}")
        if type_ == "B" and rank < 1:
            raise LieDataError("type B requires rank >= 1")
        if type_ == "D" and rank < 2:
            raise LieDataError("type D requires rank >= 2")
        self.type = type_
        self.n = rank
        n = rank
        self.N = dimension_of(type_, n)
        self.xi = xi_of(type_, n)

        # orthonormal-basis coordinates of the simple roots
        eps = [
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
            for i in range(n)
        ]
        roots = [
            tuple(a - b for a, b in zip(eps[i], eps[i + 1])) for i in range(n - 1)
        ]
        if type_ == "B":
            roots.append(eps[n - 1])
        else:
            roots.append(tuple(a + b for a, b in zip(eps[n - 2], eps[n - 1])))
        self.epsilon = eps
        self.roots = roots

        self.r = [_dot(a, a) / 2 for a in roots]
        self.qi = [Scalar.q_pow(ri) for ri in self.r]
        self.A = [
            [2 * _dot(roots[i], roots[j]) / _dot(roots[i], roots[i]) for j in range(n)]
            for i in range(n)
        ]
        # B = C A with C = diag(r_i); equivalently B_ij = (alpha_i, alpha_j)
        self.Bmat = [[_dot(roots[i], roots[j]) for j in range(n)] for i in range(n)]
        self.bars = bars_of(type_, n)

    @cached_property
    def Btilde(self):
        """The inverse of B, a matrix of constant Scalars.  Computed on first
        use: the elimination is cubic in the rank, and a check that refuses
        the rank under its resource bound never needs it."""
        return ring_inverse(
            [[Scalar.fraction(b.numerator, b.denominator) for b in row]
             for row in self.Bmat],
            ONE,
        )

    def prime(self, i: int) -> int:
        """The index involution i' = N + 1 - i (1-based)."""
        return self.N + 1 - i

    def bar(self, i: int) -> Fraction:
        """The barred weight of the 1-based index i."""
        return self.bars[i - 1]

    def q_bar_diff(self, i: int, j: int) -> Scalar:
        """q^(bar(i) - bar(j)) as an exact Scalar."""
        return Scalar.q_pow(self.bar(i) - self.bar(j))

    def __eq__(self, other):
        if not isinstance(other, AlgebraData):
            return NotImplemented
        return (self.type, self.n) == (other.type, other.n)

    def __hash__(self):
        return hash((self.type, self.n))

    def __str__(self):
        return f"{self.type}{self.n}"

    __repr__ = __str__


def bq_matrix(alg: AlgebraData):
    """The q-deformed Gram matrix B(q) with entries [B_ij]_q (Scalars)."""
    n = alg.n

    def ent(i, j):
        b = alg.Bmat[i][j]
        if b.denominator != 1:
            raise ScalarError("B(q) entries need integer B_ij")
        return qint(int(b)) if b >= 0 else -qint(-int(b))

    return [[ent(i, j) for j in range(n)] for i in range(n)]


def btilde_q_closed_form(alg: AlgebraData):
    """The closed-form entries of the inverse of B(q), as a full symmetric
    matrix of Scalars."""
    n = alg.n
    out = [[None] * n for _ in range(n)]

    def setval(i, j, val):
        out[i - 1][j - 1] = val
        out[j - 1][i - 1] = val

    if alg.type == "B":
        denom = qint(n) - qint(n - 1)
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                if i == n:
                    setval(i, j, qint(j) / denom)
                else:
                    setval(i, j, qint(j) * (qint(n - i) - qint(n - i - 1)) / denom)
    else:
        d1 = qint(2, n - 1)
        d2 = qint(2) * d1
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                if j <= i <= n - 2:
                    setval(i, j, qint(j) * qint(2, n - 1 - i) / d1)
                elif j <= n - 2 and i in (n - 1, n):
                    setval(i, j, qint(j) / d1)
                elif i == j >= n - 1:
                    setval(i, j, qint(n) / d2)
                elif i == n and j == n - 1:
                    setval(i, j, qint(n - 2) / d2)
    return out


def btilde_q(alg: AlgebraData):
    """Exact inverse of B(q), checked entrywise against the closed forms."""
    bq = bq_matrix(alg)
    inv = ring_inverse(bq, ONE)
    closed = btilde_q_closed_form(alg)
    for i in range(alg.n):
        for j in range(alg.n):
            if not (inv[i][j] - closed[i][j]).is_zero():
                raise LieDataError(
                    f"B~(q) closed form mismatch at ({i + 1},{j + 1}): "
                    f"inverse={inv[i][j]} closed={closed[i][j]}"
                )
    return inv


def check_cartan(alg: AlgebraData) -> list:
    """Structural checks on the stored Lie data; returns check dicts."""
    if alg.n > MAX_CARTAN_RANK:
        raise ResourceBoundError(
            f"rank {alg.n} exceeds the cartan bound MAX_CARTAN_RANK = "
            f"{MAX_CARTAN_RANK}"
        )
    checks = []
    n = alg.n

    ok = all(
        alg.A[i][j] == 2 * _dot(alg.roots[i], alg.roots[j]) / _dot(alg.roots[i], alg.roots[i])
        for i in range(n)
        for j in range(n)
    )
    checks.append(check("Cartan matrix reproduced from root coordinates", ok))

    ok = all(alg.bar(i) + alg.bar(alg.prime(i)) == 0 for i in range(1, alg.N + 1))
    checks.append(check("bars antisymmetric under the index involution", ok))

    ok = all(alg.prime(alg.prime(i)) == i for i in range(1, alg.N + 1))
    checks.append(check("index involution squares to the identity", ok))

    prod = [
        [sum(alg.Bmat[i][k] * alg.Btilde[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    ok = all(prod[i][j] == int(i == j) for i in range(n) for j in range(n))
    checks.append(check("B * B~ = identity over the rationals", ok))

    ok = all(alg.Bmat[i][j] == alg.Bmat[j][i] for i in range(n) for j in range(n))
    checks.append(check("B symmetric", ok))

    name = "B~(q) matches closed form and is symmetric"
    try:
        tq = btilde_q(alg)
    except LieDataError as exc:
        checks.append(check(name, False, str(exc)))
    else:
        ok = all(
            (tq[i][j] - tq[j][i]).is_zero() for i in range(n) for j in range(n)
        )
        checks.append(check(name, ok))
    return checks
