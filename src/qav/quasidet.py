"""Quasideterminants and Gauss decomposition over a possibly noncommutative
ring.

Matrices here are plain dense lists-of-lists whose entries support +, -, *
(noncommutative), .is_zero(), and .inverse() raising ArithmeticError when the
element is not invertible.  The same code therefore serves the Scalar field,
truncated series, and series with matrix coefficients.

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
    """Dense Gauss-Jordan inverse over a noncommutative ring; the one
    eliminator of the package (SparseMat.inverse and the inverse Gram
    matrices of liedata go through it).

    Entries may be None, read as zero.  Pivots are taken in order; when no
    entry of a column is invertible, SingularPivotError names the column.
    All eliminations multiply on the left, so the result is a genuine
    two-sided inverse whenever the input is invertible.
    """
    n = _dims(A)
    a = [list(row) for row in A]
    b = [[one if i == j else None for j in range(n)] for i in range(n)]

    def combine(t, prod):
        if t is None:
            return -prod
        return t - prod

    for col in range(n):
        piv = None
        pinv = None
        for r in range(col, n):
            x = a[r][col]
            if x is None or x.is_zero():
                continue
            try:
                pinv = x.inverse()
            except ArithmeticError:
                continue
            piv = r
            break
        if piv is None:
            raise SingularPivotError(col)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for j in range(n):
            if a[col][j] is not None:
                a[col][j] = pinv * a[col][j]
            if b[col][j] is not None:
                b[col][j] = pinv * b[col][j]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if f is None or f.is_zero():
                continue
            for j in range(n):
                if a[col][j] is not None:
                    a[r][j] = combine(a[r][j], f * a[col][j])
                if b[col][j] is not None:
                    b[r][j] = combine(b[r][j], f * b[col][j])
    zero = one - one
    return [[x if x is not None else zero for x in row] for row in b]


def quasideterminant(A, i, j, one):
    """|A|_ij = a_ij - r (A^ij)^-1 c over the ring (0-based i, j).

    r is row i of A with the (i,j) entry deleted, c is column j with the
    (i,j) entry deleted, and A^ij is A with row i and column j deleted.
    The product is formed as r ((A^ij)^-1 c), by fused dots.
    """
    n = _dims(A)
    if not (0 <= i < n and 0 <= j < n):
        raise QuasidetError("quasideterminant index out of range")
    if n == 1:
        return A[0][0]
    rows = [r for r in range(n) if r != i]
    cols = [c for c in range(n) if c != j]
    sub = [[A[r][c] for c in cols] for r in rows]
    inv = ring_inverse(sub, one)
    r_vec = [A[i][c] for c in cols]
    c_vec = [A[r][j] for r in rows]
    inv_c = [_dot(list(zip(row, c_vec))) for row in inv]
    return A[i][j] - _dot(list(zip(r_vec, inv_c)))


def _dot(pairs):
    """The sum of a*b over a nonempty list of pairs: the entry type's fused
    dot where it has one (Scalar, SparseMat, TruncSeries), else a left fold."""
    dot = getattr(type(pairs[0][0]), "dot", None)
    if dot is not None:
        return dot(pairs)
    acc = None
    for a, b in pairs:
        acc = a * b if acc is None else acc + a * b
    return acc


def mat_mul(A, B):
    return [
        [_dot([(a, b[j]) for a, b in zip(row, B)]) for j in range(len(B[0]))]
        for row in A
    ]


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

    # 1-based accessors mirroring the generator-series labels
    def h(self, i):
        return self.H[i - 1]

    def e(self, i, j):
        if not i < j:
            raise QuasidetError("e(i, j) requires i < j")
        return self.E[i - 1][j - 1]

    def f(self, j, i):
        if not i < j:
            raise QuasidetError("f(j, i) requires i < j")
        return self.F[j - 1][i - 1]

    def product(self):
        """F * H * E, for verifying the decomposition."""
        n = self.n
        HE = [[self.H[i] * self.E[i][j] for j in range(n)] for i in range(n)]
        return mat_mul(self.F, HE)

    def reduced_product(self, m):
        """The product of the trailing (n-m) x (n-m) blocks of F, H, E."""
        n = self.n
        idx = range(m, n)
        F = [[self.F[i][j] for j in idx] for i in idx]
        HE = [[self.H[i] * self.E[i][j] for j in idx] for i in idx]
        return mat_mul(F, HE)


def gauss_decompose(L, one) -> GaussFactors:
    """Gauss decomposition L = F H E by sequential block elimination.

    Every h_i, e_ij, f_ji is then recomputed independently through its
    bordered-quasideterminant formula and compared.
    """
    n = _dims(L)
    zero = one - one
    a = [list(row) for row in L]
    F = [[one if i == j else zero for j in range(n)] for i in range(n)]
    E = [[one if i == j else zero for j in range(n)] for i in range(n)]
    H = [None] * n
    for k in range(n):
        h = a[k][k]
        try:
            hinv = h.inverse()
        except ArithmeticError as exc:
            raise QuasidetError(f"singular leading block at index {k}: {exc}")
        H[k] = h
        for j in range(k + 1, n):
            if not a[k][j].is_zero():
                E[k][j] = hinv * a[k][j]
        for i in range(k + 1, n):
            if not a[i][k].is_zero():
                F[i][k] = a[i][k] * hinv
        for i in range(k + 1, n):
            if a[i][k].is_zero():
                continue
            for j in range(k + 1, n):
                if not a[k][j].is_zero():
                    a[i][j] = a[i][j] - F[i][k] * a[k][j]
    out = GaussFactors(L, F, H, E, one)
    _cross_check(out)
    return out


def _bordered(L, rows, cols):
    return [[L[r][c] for c in cols] for r in rows]


def _cross_check(g: GaussFactors):
    """Verify every Gaussian generator against its quasideterminant formula."""
    L, one, n = g.L, g.one, g.n
    for i in range(n):
        rows = list(range(i + 1))
        sub = _bordered(L, rows, rows)
        h = quasideterminant(sub, i, i, one)
        if not (h - g.H[i]).is_zero():
            raise QuasidetError(f"h_{i + 1} disagrees with its quasideterminant")
        hinv = g.H[i].inverse()
        for j in range(i + 1, n):
            cols = rows[:-1] + [j]
            e = hinv * quasideterminant(_bordered(L, rows, cols), i, i, one)
            if not (e - g.E[i][j]).is_zero():
                raise QuasidetError(
                    f"e_{i + 1},{j + 1} disagrees with its quasideterminant"
                )
            f = quasideterminant(_bordered(L, cols, rows), i, i, one) * hinv
            if not (f - g.F[j][i]).is_zero():
                raise QuasidetError(
                    f"f_{j + 1},{i + 1} disagrees with its quasideterminant"
                )


def psi_image(g: GaussFactors, m, i, j):
    """The reduction map on entry (i, j), 1-based with m < i, j <= n.

    Returns (value, reduced, ok): the bordered quasideterminant built from
    the original matrix, the (i, j) entry of the product of the trailing
    blocks of F, H, E, and whether the two agree.
    """
    if not (m < i <= g.n and m < j <= g.n):
        raise QuasidetError("psi_image index out of range")
    rows = list(range(m)) + [i - 1]
    cols = list(range(m)) + [j - 1]
    value = quasideterminant(_bordered(g.L, rows, cols), m, m, g.one)
    # entry (i, j) of g.reduced_product(m), without forming the whole product
    reduced = mat_mul(
        [g.F[i - 1][m:]], [[g.H[k] * g.E[k][j - 1]] for k in range(m, g.n)]
    )[0][0]
    ok = (value - reduced).is_zero()
    return value, reduced, ok
