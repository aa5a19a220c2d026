"""Sparse exact linear algebra over Scalars, plus the tensor-leg bookkeeping
used by the R-matrix checks (Kronecker embedding, the transposition t and
the crossing map).  Every matrix product and sum of products goes through
SparseMat.sum_of_products, which forms each entry with one Scalar.dot.

Index convention, fixed once for the whole package: the basis of
C^N (x) C^M is ordered with the FIRST tensor factor most significant, as
SparseMat.kron packs it, so a pair (i, a) of 1-based indices maps to row
(i-1)*M + (a-1) (0-based).  SparseMat.from_terms writes an operator from its
terms x e_ij (x) e_kl, SparseMat.blocks reads one back as its blocks and
SparseMat.from_blocks writes it from them; nothing outside this module packs
a basis pair.  Nor does anything outside it flip an index i -> i' = N+1-i:
transpose_t and crossed do.
"""

from __future__ import annotations

from itertools import chain

from .quasidet import ring_inverse
from .scalars import Scalar, ONE, ZERO


class MatrixError(ArithmeticError):
    pass


class SparseMat:
    """A sparse nrows x ncols matrix; entries indexed 0-based, stored as
    a dict of rows {i: {j: entry}} with no explicit zeros."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = {}
        if rows:
            for i, row in rows.items():
                clean = {j: x for j, x in row.items() if not x.is_zero()}
                if clean:
                    self.rows[i] = clean

    @staticmethod
    def _nonzero(nrows, ncols, rows) -> "SparseMat":
        """A SparseMat from rows that hold no zero entry and no empty row,
        without the zero filter of __init__: for results that permute or
        negate entries, or multiply them by a unit."""
        m = object.__new__(SparseMat)
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_entries(nrows, ncols, entries) -> "SparseMat":
        """entries: iterable of (i, j, value), 0-based, summed on collision."""
        rows = {}
        for i, j, x in entries:
            row = rows.setdefault(i, {})
            row[j] = row[j] + x if j in row else x
        return SparseMat(nrows, ncols, rows)

    @staticmethod
    def from_terms(N, M, terms) -> "SparseMat":
        """The NM x NM operator on C^N (x) C^M that is the sum of
        x e_ij (x) e_kl over the terms (i, j, k, l, x), 1-based, packed as
        kron packs it and summed on collision."""
        return SparseMat.from_entries(
            N * M,
            N * M,
            (((i - 1) * M + k - 1, (j - 1) * M + l - 1, x) for i, j, k, l, x in terms),
        )

    @staticmethod
    def identity(n, one=ONE) -> "SparseMat":
        return SparseMat(n, n, {i: {i: one} for i in range(n)})

    @staticmethod
    def zeros(nrows, ncols) -> "SparseMat":
        return SparseMat(nrows, ncols)

    @staticmethod
    def unit(n, i, j, value=ONE) -> "SparseMat":
        """value * e_ij on an n x n space (0-based)."""
        return SparseMat(n, n, {i: {j: value}})

    # -- access -----------------------------------------------------------

    def get(self, i, j, zero=ZERO):
        return self.rows.get(i, {}).get(j, zero)

    def entries(self):
        """Sorted iterator of (i, j, value)."""
        for i in sorted(self.rows):
            row = self.rows[i]
            for j in sorted(row):
                yield i, j, row[j]

    def row(self, i) -> "SparseMat":
        """Row i as a 1 x ncols matrix that shares the row's dict: a view,
        not a copy, so it must not be written to."""
        r = self.rows.get(i)
        return SparseMat._nonzero(1, self.ncols, {0: r} if r else {})

    def blocks(self, N) -> list:
        """The N x N grid of M x M blocks of an NM x NM operator on
        C^N (x) C^M, block (i, j) (0-based) the coefficient of e_ij (x) .:
        the inverse of kron's packing, so block (i, j) of A.kron(B) is
        A_ij B."""
        M, rem = divmod(self.nrows, N)
        if rem or self.ncols != self.nrows:
            raise MatrixError(f"no {N}x{N} blocks in {self.nrows}x{self.ncols}")
        grid = [[{} for _ in range(N)] for _ in range(N)]
        for r, row in self.rows.items():
            i, a = divmod(r, M)
            for c, x in row.items():
                j, b = divmod(c, M)
                grid[i][j].setdefault(a, {})[b] = x
        return [[SparseMat._nonzero(M, M, rows) for rows in line] for line in grid]

    @staticmethod
    def from_blocks(grid) -> "SparseMat":
        """The NM x NM operator on C^N (x) C^M whose block (i, j) is
        grid[i][j], an N x N grid of M x M matrices: the inverse of blocks."""
        N, M = len(grid), grid[0][0].nrows
        rows = {}
        for i, line in enumerate(grid):
            for j, block in enumerate(line):
                for a, row in block.rows.items():
                    out = rows.setdefault(i * M + a, {})
                    for b, x in row.items():
                        out[j * M + b] = x
        return SparseMat._nonzero(N * M, N * M, rows)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def first_nonzero(self):
        for i, j, x in self.entries():
            return i, j, x
        return None

    # -- arithmetic -------------------------------------------------------

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise MatrixError("shape mismatch")

    def __add__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        self._check_shape(other)
        rows = {i: dict(r) for i, r in self.rows.items()}
        for i, r in other.rows.items():
            row = rows.setdefault(i, {})
            for j, x in r.items():
                row[j] = row[j] + x if j in row else x
        return SparseMat(self.nrows, self.ncols, rows)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SparseMat._nonzero(
            self.nrows,
            self.ncols,
            {i: {j: -x for j, x in r.items()} for i, r in self.rows.items()},
        )

    def __mul__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        return SparseMat.sum_of_products(
            [(None, self, other)], self.nrows, other.ncols
        )

    @staticmethod
    def dot(pairs) -> "SparseMat":
        """The sum of A*B over a nonempty list of matrix pairs (A, B)."""
        return SparseMat.sum_of_products(
            [(None, a, b) for a, b in pairs], pairs[0][0].nrows, pairs[0][1].ncols
        )

    @staticmethod
    def sum_of_products(terms, nrows, ncols) -> "SparseMat":
        """The nrows x ncols matrix sum of c*A*B over the triples (c, A, B)
        of terms, with c = None read as 1 and B = None as the identity.
        Row by row, every entry collects its (x, y) pairs and is formed by
        one Scalar.dot, so only nonzero entries are ever stored."""
        live = []  # (c, rows of A, rows of B or None) of the nonzero terms
        for c, a, b in terms:
            if b is None:
                shape = (a.nrows, a.ncols)
            elif a.ncols != b.nrows:
                raise MatrixError("inner dimension mismatch")
            else:
                shape = (a.nrows, b.ncols)
            if shape != (nrows, ncols):
                raise MatrixError("shape mismatch")
            if c is None or not c.is_zero():
                live.append((c, a.rows, None if b is None else b.rows))
        rows = {}
        dot = Scalar.dot
        for i in dict.fromkeys(chain.from_iterable(t[1] for t in live)):
            sums = {}  # j -> the pairs of entry (i, j)
            for c, arows, brows in live:
                arow = arows.get(i)
                if not arow:
                    continue
                if brows is None:
                    for j, x in arow.items():
                        sums.setdefault(j, []).append((x, ONE) if c is None else (c, x))
                    continue
                for k, x in arow.items():
                    brow = brows.get(k)
                    if not brow:
                        continue
                    if c is not None:
                        x = c * x
                    for j, y in brow.items():
                        sums.setdefault(j, []).append((x, y))
            out = {}
            for j, pairs in sums.items():
                x = dot(pairs)
                if not x.is_zero():
                    out[j] = x
            if out:
                rows[i] = out
        return SparseMat._nonzero(nrows, ncols, rows)

    def scale(self, c) -> "SparseMat":
        """Left-multiply every entry by c."""
        # a nonzero Scalar is a unit, so it maps nonzero entries to nonzero
        make = (
            SparseMat._nonzero
            if type(c) is Scalar and not c.is_zero()
            else SparseMat
        )
        return make(
            self.nrows,
            self.ncols,
            {i: {j: c * x for j, x in r.items()} for i, r in self.rows.items()},
        )

    def transpose(self) -> "SparseMat":
        rows = {}
        for i, r in self.rows.items():
            for j, x in r.items():
                rows.setdefault(j, {})[i] = x
        return SparseMat._nonzero(self.ncols, self.nrows, rows)

    def __eq__(self, other):
        if not isinstance(other, SparseMat):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return (self - other).is_zero()

    def kron(self, other) -> "SparseMat":
        """Kronecker product, first factor most significant."""
        rows = {}
        for i, ra in self.rows.items():
            for k, rb in other.rows.items():
                out = {}
                for j, a in ra.items():
                    for l, b in rb.items():
                        out[j * other.ncols + l] = a * b
                rows[i * other.nrows + k] = out
        return SparseMat(
            self.nrows * other.nrows, self.ncols * other.ncols, rows
        )

    def inverse(self) -> "SparseMat":
        """Exact inverse by quasidet.ring_inverse, so it works over the
        Scalar field and over rings where invertibility can fail (series
        rings); raises quasidet.SingularPivotError when no pivot works."""
        if self.nrows != self.ncols:
            raise MatrixError("inverse of a non-square matrix")
        n = self.nrows
        dense = [[self.rows.get(i, {}).get(j) for j in range(n)] for i in range(n)]
        inv = ring_inverse(dense, ONE)
        return SparseMat(n, n, {i: dict(enumerate(row)) for i, row in enumerate(inv)})

    def __str__(self):
        return "\n".join(f"[{i},{j}] = {x}" for i, j, x in self.entries())


# -- tensor-leg bookkeeping -------------------------------------------------


def embed_leg(op: SparseMat, legs, N: int) -> SparseMat:
    """Embed an operator on C^N (x) C^N into legs (a, b) of C^N^(x)3.

    legs is a pair of distinct 1-based leg labels from {1, 2, 3}; the
    operator acts on those legs (in order) and as identity on the third.
    """
    a, b = legs
    if a == b or not {a, b} <= {1, 2, 3}:
        raise MatrixError(f"bad legs {legs}")
    if op.nrows != N * N or op.ncols != N * N:
        raise MatrixError("embed_leg expects an N^2 x N^2 operator")
    c = ({1, 2, 3} - {a, b}).pop()
    rows = {}
    stride = {1: N * N, 2: N, 3: 1}
    for rc, row in op.rows.items():
        i, k = divmod(rc, N)
        for cc, x in row.items():
            j, l = divmod(cc, N)
            for m in range(N):
                r = i * stride[a] + k * stride[b] + m * stride[c]
                s = j * stride[a] + l * stride[b] + m * stride[c]
                rows.setdefault(r, {})[s] = x
    return SparseMat._nonzero(N**3, N**3, rows)


def transpose_t(m: SparseMat, alg) -> SparseMat:
    """The transposition t: e_ij -> e_j'i' on an N x N matrix, no weight."""
    N = alg.N
    if m.nrows != N or m.ncols != N:
        raise MatrixError("transpose_t expects an N x N matrix")
    rows = {}
    for i, row in m.rows.items():
        for j, x in row.items():
            # e_ij component maps to e_{j', i'}: entry (i,j) -> (j', i')
            rows.setdefault(N - 1 - j, {})[N - 1 - i] = x
    return SparseMat._nonzero(N, N, rows)


def crossed(grid, weights) -> list:
    """The crossing map X -> D X^t D^-1, D = diag(q^w) for the weights w,
    on an N x N grid of matrices or series (anything with .scale): entry
    (i, j), 0-based, is q^(w_i - w_j) times entry (j', i'), i' = N-1-i.

    On the block grid of an operator on C^N (x) C^M it acts on the first
    leg.  Rbar's crossing conjugates its first leg by D, w the barred
    weights; P Rbar P, whose first leg is Rbar's second, crosses with the
    negated bars, and so does L(u), whose auxiliary slot is that leg."""
    N = len(grid)
    return [
        [
            grid[N - 1 - j][N - 1 - i].scale(Scalar.q_pow(weights[i] - weights[j]))
            for j in range(N)
        ]
        for i in range(N)
    ]
