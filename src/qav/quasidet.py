"""Quasideterminants and Gauss decomposition over a possibly noncommutative
ring.

Matrices here are plain dense lists-of-lists whose entries support +, -, *
(noncommutative), the fused sum of products dot(pairs), .is_zero(), and
.inverse() raising ArithmeticError when the element is not invertible.  The
same code therefore serves the Scalar field, truncated series, and series
with matrix coefficients.

L is read beside its Gauss decomposition through one elimination,
schur_complement: the Schur complement of a leading block of L, with that
block inverted once.  The quasideterminants, the cross path _cross_check of
every h, e and f, and the images psi_m(l_ij) of the reduction map (the
central block of the complement of the leading m x m block, against
GaussFactors.product(m)) are all read from it.

Entry indices of the dense matrices are 0-based; the accessors of
GaussFactors use the 1-based labels of the generator series e_ij, f_ji, h_i.
"""

from __future__ import annotations


class QuasidetError(ArithmeticError):
    pass


class SingularPivotError(QuasidetError):
    def __init__(self, col):
        super().__init__(f"singular block: no invertible pivot in column {col}")
        self.col = col


def _dims(A):
    n = len(A)
    if any(len(row) != n for row in A):
        raise QuasidetError("matrix is not square")
    return n


def ring_inverse(A, one):
    """Dense inverse over a noncommutative ring (SparseMat.inverse, the
    inverse Gram matrices of liedata and schur_complement go through it).
    gauss_decompose is a second Crout elimination, without pivoting, kept
    apart so that the cross path reads only L and this inverse.

    Entries may be None, read as zero.  Crout elimination factors the
    row-permuted matrix as F U, with F lower triangular and U upper
    triangular with unit diagonal, F's entry always the left factor.
    Pivots are taken in order; when no entry of a column of the Schur
    complement is invertible, SingularPivotError names the column.  Then
    G = F^-1 by forward and X = U^-1 G by back substitution, so A X = 1: a
    right inverse, hence the two-sided inverse whenever the input is
    invertible.  Every entry of F, U, G and X is one fused dot, whose
    subtracted products are those of F and -U.
    """
    n = _dims(A)
    rows = [list(row) for row in A]  # the rows of A, in pivot order
    perm = list(range(n))  # rows[i] is row perm[i] of A
    F = [[None] * n for _ in range(n)]
    NU = [[None] * n for _ in range(n)]  # -U above the diagonal
    hinv = [None] * n  # the inverses of the pivots F_kk
    for k in range(n):
        for i in range(k, n):
            F[i][k] = _entry(rows[i][k], [(F[i][m], NU[m][k]) for m in range(k)], one)
        for piv in range(k, n):
            x = F[piv][k]
            if x is None:
                continue
            try:
                hinv[k] = x.inverse()
            except ArithmeticError:
                continue
            break
        else:
            raise SingularPivotError(k)
        for t in (rows, F, perm):
            t[k], t[piv] = t[piv], t[k]
        nh = -hinv[k]
        for j in range(k + 1, n):
            x = _entry(rows[k][j], [(F[k][m], NU[m][j]) for m in range(k)], one)
            if x is not None:
                NU[k][j] = nh * x
    G = [[None] * n for _ in range(n)]  # F^-1, lower triangular
    for i in range(n):
        G[i][i] = hinv[i]
        nh = -hinv[i]
        for k in range(i):
            x = _entry(None, [(F[i][m], G[m][k]) for m in range(k, i)], one)
            if x is not None:
                G[i][k] = nh * x
    X = [None] * n
    for i in reversed(range(n)):
        X[i] = [
            _entry(G[i][j], [(NU[i][m], X[m][j]) for m in range(i + 1, n)], one)
            for j in range(n)
        ]
    zero = _dot([(one, one), (-one, one)])  # 1 - 1, with no addition
    out = [[None] * n for _ in range(n)]
    for i, row in enumerate(X):
        for k, x in enumerate(row):
            out[i][perm[k]] = zero if x is None else x
    return out


def _entry(a, pairs, one):
    """a + the sum of x*y over the pairs with no None (a None is read as
    zero), by one fused dot; None when it is zero."""
    pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
    if not pairs:
        return None if a is None or a.is_zero() else a
    if a is not None:
        pairs.append((a, one))
    x = _dot(pairs)
    return None if x.is_zero() else x


def quasideterminant(A, i, j, one):
    """|A|_ij = a_ij - r (A^ij)^-1 c over the ring (0-based i, j).

    r is row i of A with the (i,j) entry deleted, c is column j with the
    (i,j) entry deleted, and A^ij is A with row i and column j deleted: with
    row i and column j moved last, |A|_ij is the Schur complement of the
    leading block A^ij.
    """
    n = _dims(A)
    if not (0 <= i < n and 0 <= j < n):
        raise QuasidetError("quasideterminant index out of range")
    rows = [r for r in range(n) if r != i] + [i]
    cols = [c for c in range(n) if c != j] + [j]
    ((x,),) = schur_complement(_bordered(A, rows, cols), n - 1, [n - 1], [n - 1], one)
    return x


def schur_complement(L, k, rows, cols, one, inv=None):
    """The entries L_ij - L_i,:k A^-1 L_:k,j for i in rows and j in cols
    (0-based), where A = L[:k, :k] is the leading k x k block: rows x cols
    of the Schur complement of A in L.

    A is inverted once by ring_inverse, unless its inverse is given as inv.
    The correction is formed as (R A^-1) C when there are no more rows than
    columns and as R (A^-1 C) otherwise, R and C being the rows and columns
    of L beside A; every entry of each product is one fused dot.
    """
    if not k:
        return _bordered(L, rows, cols)
    if inv is None:
        inv = ring_inverse(_bordered(L, range(k), range(k)), one)
    R, C = _bordered(L, rows, range(k)), _bordered(L, range(k), cols)
    if len(rows) <= len(cols):
        corr = mat_mul(mat_mul(R, inv), C)
    else:
        corr = mat_mul(R, mat_mul(inv, C))
    return [
        [L[i][j] - x for j, x in zip(cols, row)] for i, row in zip(rows, corr)
    ]


def _dot(pairs):
    """The sum of a*b over a nonempty list of pairs, by the fused dot of the
    entry type (Scalar, SparseMat and TruncSeries each have one)."""
    return type(pairs[0][0]).dot(pairs)


def mat_mul(A, B):
    return [
        [_dot([(a, b[j]) for a, b in zip(row, B)]) for j in range(len(B[0]))]
        for row in A
    ]


def _bordered(L, rows, cols):
    return [[L[r][c] for c in cols] for r in rows]


class GaussFactors:
    """The triple L = F H E with F lower unitriangular, H diagonal and E
    upper unitriangular, together with the original matrix."""

    def __init__(self, L, F, H, E, one):
        self.L = L
        self.F = F
        self.H = H
        self.E = E
        self.one = one
        self.n = len(L)

    # 1-based accessors mirroring the generator-series labels; an index
    # outside 1..n raises rather than wrap around to another generator
    def h(self, i):
        if not 1 <= i <= self.n:
            raise QuasidetError(f"h(i) requires 1 <= i <= {self.n}")
        return self.H[i - 1]

    def e(self, i, j):
        if not 1 <= i < j <= self.n:
            raise QuasidetError(f"e(i, j) requires 1 <= i < j <= {self.n}")
        return self.E[i - 1][j - 1]

    def f(self, j, i):
        if not 1 <= i < j <= self.n:
            raise QuasidetError(f"f(j, i) requires 1 <= i < j <= {self.n}")
        return self.F[j - 1][i - 1]

    def product(self, m=0):
        """F * H * E on the central indices m..n-m-1 (0-based), for verifying
        the decomposition (m = 0) and the reduction map psi_m: as F and E
        are triangular, this is the central block of the product of the
        trailing blocks of F, H and E from m on."""
        idx = range(m, self.n - m)
        F = _bordered(self.F, idx, idx)
        HE = [[self.H[i] * self.E[i][j] for j in idx] for i in idx]
        return mat_mul(F, HE)


def gauss_decompose(L, one) -> GaussFactors:
    """Gauss decomposition L = F H E in Crout order, with L only read: with
    U = H E, each entry is one fused dot over the earlier pivots m < k,

        U_kj = L_kj - sum_m F_km U_mj,   H_k = U_kk,   E_kj = H_k^-1 U_kj,
        F_ik = (L_ik - sum_m F_im U_mk) H_k^-1.

    The independent quasideterminant cross path is _cross_check.
    """
    n = _dims(L)
    zero = one - one
    F = [[one if i == j else zero for j in range(n)] for i in range(n)]
    E = [[one if i == j else zero for j in range(n)] for i in range(n)]
    H = [None] * n
    U = [None] * n

    def reduced(i, j, k):
        # entry (i, j) of the Schur complement after the first k pivots
        return L[i][j] - _dot([(F[i][m], U[m][j]) for m in range(k)]) if k else L[i][j]

    for k in range(n):
        U[k] = {j: reduced(k, j, k) for j in range(k, n)}
        H[k] = U[k][k]
        try:
            hinv = H[k].inverse()
        except ArithmeticError as exc:
            raise QuasidetError(f"singular leading block at index {k}: {exc}")
        for j in range(k + 1, n):
            if not U[k][j].is_zero():
                E[k][j] = hinv * U[k][j]
        for i in range(k + 1, n):
            x = reduced(i, k, k)
            if not x.is_zero():
                F[i][k] = x * hinv
    return GaussFactors(L, F, H, E, one)


def _cross_check(g: GaussFactors):
    """Yield (labels, difference) for every Gaussian generator against its
    quasideterminant formula, read from L and ring_inverse alone:

        h_k = L_kk - r_k A^-1 c_k,   h_k e_kj = L_kj - r_k A^-1 c_j,
        f_jk h_k = L_jk - r_j A^-1 c_k,

    where A is the leading k x k block of L, r_i the first k entries of row
    i and c_j those of column j: row k and column k of the Schur complement
    of A, which share one inverse of A.  h_k is never inverted.  The labels
    are {"generator": "h" | "e" | "f", "entry": the 1-based indices}.
    """
    L, one, n = g.L, g.one, g.n
    for k in range(n):
        inv = ring_inverse(_bordered(L, range(k), range(k)), one) if k else None
        (row,) = schur_complement(L, k, [k], range(k, n), one, inv)
        col = schur_complement(L, k, range(k + 1, n), [k], one, inv)
        h = g.H[k]
        yield {"generator": "h", "entry": [k + 1]}, row[0] - h
        for j, e, (f,) in zip(range(k + 1, n), row[1:], col):
            yield {"generator": "e", "entry": [k + 1, j + 1]}, e - h * g.E[k][j]
            yield {"generator": "f", "entry": [j + 1, k + 1]}, f - g.F[j][k] * h
