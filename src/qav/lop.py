"""Evaluated L-operators in the vector representation and the verification
suites built on top of their Gauss decomposition.

An L-operator is an N x N matrix over truncated series whose coefficients are
M x M matrices of exact scalars: N = alg.N = len(L) is the auxiliary slot, M
the representation slot.  M is read from the coefficient matrices, never from
the algebra, so an L-operator on another representation (M != N) goes through
the same Gauss factors and relation checks.  Only the code that builds images
in the vector representation V by definition (vecrep, _lemma_k_diagonal, the
wiring's RLL check, which reads the catalog's Yang-Baxter difference, the
closed forms of _geom_target) takes M = N.  Everything downstream - Gaussian
generators, current-style combinations, the central series, the reduction
maps and the structural checks - is computed from these series matrices with
exact arithmetic; every check reports pass/fail with a witness coefficient on
failure.  A relation family that several checks state identically (the
commutator, h-h commutation, the h1 exchanges and the e-f commutator of the
low-rank batteries, the mirror differences of eiprei and main-structure) is
written once.  So is each shape of item: _exchange builds every exchange
x(u) y(v) - pre y(v) x(u) + corrections = 0, of the batteries and of relrbar
(b) and (c), on Gauss series or on currents; _vanishes builds every identity
of one series; and GenSource.mul forms each product of two generator series
once per source.  _bivar_zero checks each bivariate item on its whole mode
window as one sum of products of matrices of polynomials in u and v, the
parts lifted into the window, so each entry is one fused sum.  The current
of node i is read at its pair (a, b) = alg.node_pair(i), e_ab and f_ba,
the last node of type D at (n - 1, n + 1): so are its geometric closed
form, the argument shift q^a of its quadratic relations and the diagonal
ratio of its mixed-current relation.  The type-specific relations are keyed
by the same index facts, never by the type letter: the middle index
(alg.is_middle) keys the gauge, the exchanges of h_{n+1} and the last factor
of the central series' h-product, and the last node's pair keys the Cartan
chain of _lemma_k_diagonal and main-structure's interior-zero items.  Only
the B1 crossing-scalar oracle of z_series is chosen by (type, rank).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import vecrep
from .liedata import AlgebraData, bars_of, xi_of
from .quasidet import (
    GaussFactors,
    _cross_check,
    gauss_decompose,
    mat_mul,
    schur_complement,
)
from .report import check, first_failure, skipped
from .rmatrix import build_catalog, crossing_scalar
from .scalars import ONE, Scalar, qbinom
from .series import AT_INFINITY, AT_ZERO, TruncSeries, expand_scalar
from .tensor import SparseMat, crossed

_Q = Scalar.q_pow(1)
_QI = Scalar.q_pow(-1)
_QMQ = _Q - _QI  # q - q^-1
_U = Scalar.u_pow(1)
_V = Scalar.v_pow(1)
_MONE = Scalar.from_int(-1)


class LopError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def gauge_dvals(alg: AlgebraData):
    """Diagonal change of basis aligning the built L-operators with the
    closed-form generator images (1-based entries returned as a 0-based
    list): q^(-1/2) on the indices past the middle index, when there is one,
    and 1 elsewhere."""
    if alg.is_middle(alg.n + 1):
        return [ONE] * (alg.n + 1) + [Scalar.q_pow(Fraction(-1, 2))] * alg.n
    return [ONE] * alg.N


def _diag_sqrt(mat: SparseMat) -> SparseMat:
    """Entrywise square root of a diagonal matrix of monomials in q^(1/2).

    Raises LopError when an entry is not such a monomial or when its square
    root would leave the coefficient ring (odd monomial in q^(1/2))."""
    size = mat.nrows
    out = []
    for i in range(size):
        k = mat.get(i, i).s_exponent()
        if k is None:
            raise LopError("diagonal entry is not a monomial power of q^(1/2)")
        if k % 2:
            raise LopError(
                "odd monomial in q^(1/2): square root leaves the scalar ring"
            )
        out.append((i, i, Scalar.s_pow(k // 2)))
    return SparseMat.from_entries(size, size, out)


def _coefficient_item(name, instances) -> dict:
    """The check item of (labels, series difference) pairs: fail at the first
    nonzero coefficient, whose signed exponent joins the labels."""
    coefficients = (
        ({**labels, "exponent": m * d.sign}, d.coeffs[m])
        for labels, d in instances
        for m in sorted(d.coeffs)
    )
    return first_failure(name, coefficients)


def _vanishes(name: str, x: TruncSeries) -> dict:
    """The check item that the series x vanishes."""
    return _coefficient_item(name, [({}, x)])


# ---------------------------------------------------------------------------
# L-operator construction
# ---------------------------------------------------------------------------


def _matrix_series(entries, M: int, direction, K: int) -> TruncSeries:
    """The series with M x M matrix coefficients (M the representation
    dimension, which sparse entries cannot show) whose entry (a, b) expands
    the rational scalar x, for each (a, b, x) of entries."""
    per_m = {}
    for a, b, x in entries:
        for m, c in expand_scalar(x, direction, K).coeffs.items():
            per_m.setdefault(m, []).append((a, b, c))
    return TruncSeries(
        direction,
        K,
        {m: SparseMat.from_entries(M, M, lst) for m, lst in per_m.items()},
    )


def _series_matrix(mat: SparseMat, N: int, direction, K: int):
    """Repackage an NM x NM matrix of rational scalars, the auxiliary slot
    first, into an N x N matrix of truncated series with M x M matrix
    coefficients."""
    return [
        [_matrix_series(b.entries(), b.nrows, direction, K) for b in line]
        for line in mat.blocks(N)
    ]


def _lemma_k_diagonal(alg: AlgebraData):
    """The expected diagonal constant terms of the plus operator: the N
    diagonal matrices lam_j = q^-(wt(j), wt), built from the Cartan images
    by the chain lam_i = k_i lam_{i+1}, i = n-1..1.  lam_n, the image of
    epsilon_n, is k_n when the last node's pair ends at the middle index and
    sqrt(k_{n-1}^-1 k_n) otherwise; the middle index gets the identity and
    each later index the inverse of its mirror's lam."""
    n = alg.n
    if alg.is_middle(alg.node_pair(n)[1]):
        lam = [vecrep.k_cartan(alg, n)]
    else:
        square = vecrep.k_cartan(alg, n - 1, inv=True) * vecrep.k_cartan(alg, n)
        lam = [_diag_sqrt(square)]
    for i in range(n - 1, 0, -1):
        lam.insert(0, vecrep.k_cartan(alg, i) * lam[0])
    middle = [SparseMat.identity(alg.N)] if alg.is_middle(n + 1) else []
    return lam + middle + [x.inverse() for x in reversed(lam)]


def _check_triangular(lp, lm) -> bool:
    """The constant terms of L+ vanish below the diagonal, those of L- above
    it (a stored coefficient is never zero)."""
    N = len(lp)
    for i in range(N):
        for j in range(N):
            if i > j and lp[i][j].get(0) is not None:
                return False
            if i < j and lm[i][j].get(0) is not None:
                return False
    return True


def _check_diagonal_constants(lam, lp, lm) -> bool:
    """The constant terms of L+ on the diagonal are lam, those of L- their
    inverses (lam as _lemma_k_diagonal returns it)."""
    for i, d in enumerate(lam):
        if lp[i][i].get(0) != d or lm[i][i].get(0) != d.inverse():
            return False
    return True


def _signed(plus_series, minus_series):
    """(L+, L-): q^-1 times the plus series and q times the minus series,
    two N x N matrices of series."""
    return (
        [[x.scale(_QI) for x in row] for row in plus_series],
        [[x.scale(_Q) for x in row] for row in minus_series],
    )


class Wiring(NamedTuple):
    """The wiring of one algebra's L-operators: the convention record every
    L-operator report carries, the validation trace of every candidate and
    the chosen reading of Rbar."""

    record: dict
    candidates: list
    base: SparseMat


class LOperators:
    """The two operator matrices of one algebra at one order, the Wiring
    that read them off Rbar, and their Gauss factors, gp of L+ and gm of L-,
    with the two items that verify the factors (the reassembly and the
    quasideterminant cross path), formed with them by _decompose."""

    def __init__(self, alg, wiring: Wiring, gp, gm, checks):
        self.alg = alg
        self.wiring = wiring
        self.lp = gp.L  # N x N of TruncSeries at zero
        self.lm = gm.L  # N x N of TruncSeries at infinity
        self.gp = gp
        self.gm = gm
        self.checks = checks

    def g(self, sign) -> GaussFactors:
        return self.gp if sign > 0 else self.gm


@cache
def choose_wiring(alg: AlgebraData) -> Wiring:
    """Decide the wiring once per algebra, on Rbar itself (see build_lops).

    Four candidates are tested: the reading `swapped` (P Rbar P, the
    aux-first reading of slot 2) or `plain` (Rbar), with the plus series
    expanded at u = 0 or at u = infinity and the minus series at the other
    end.  Triangularity and the diagonal constants need only the constant
    terms, so each reading is expanded at order 0; the exact RLL exchange
    relation is the catalog's Yang-Baxter difference.  Memoised per algebra
    with functools.cache; raises LopError unless exactly one candidate
    passes."""
    cat = build_catalog(alg)
    N = alg.N
    bases = {
        "swapped": cat.P * cat.rbar * cat.P,  # = aux-first reading of slot 2
        "plain": cat.rbar,
    }
    lam = None
    candidates = []
    survivors = []
    for base_name, mat in bases.items():
        const = {d: _series_matrix(mat, N, d, 0) for d in (AT_ZERO, AT_INFINITY)}
        for plus_dir, minus_dir in ((AT_ZERO, AT_INFINITY), (AT_INFINITY, AT_ZERO)):
            lp, lm = _signed(const[plus_dir], const[minus_dir])
            cand = {
                "base": base_name,
                "aux_slot": 1,
                "equivalent_raw_wirings": 2,
                "plus_expansion": plus_dir,
                "triangular": _check_triangular(lp, lm),
                "diagonal": None,
                "exchange": None,
            }
            if cand["triangular"]:
                if lam is None:
                    lam = _lemma_k_diagonal(alg)
                cand["diagonal"] = _check_diagonal_constants(lam, lp, lm)
            if cand["diagonal"]:
                cand["exchange"] = cat.ybe_difference.is_zero()
            candidates.append(cand)
            if cand["exchange"]:
                survivors.append((cand, mat))
    if len(survivors) != 1:
        raise LopError(
            f"{len(survivors)} wiring conventions passed the invariants "
            f"(expected exactly 1); candidates: {candidates}"
        )
    cand, mat = survivors[0]
    record = {
        "base": cand["base"],
        "aux_slot": 1,
        "plus_expansion": cand["plus_expansion"],
        "normalization": "q^-1 on the plus series, q on the minus series",
    }
    return Wiring(record, candidates, mat)


def build_lops(alg: AlgebraData, K: int = 10) -> LOperators:
    """Both operator matrices at order K with their Gauss factors, memoised
    per algebra and order with functools.cache (in _lops), once the factors
    pass the reassembly and the quasideterminant cross path; raises LopError
    otherwise, so every suite but `gauss` refuses failing factors.

    L+(u) and L-(u) are q^-1 and q times the two expansions of one rational
    matrix, a reading of Rbar, so the wiring is decided once per algebra by
    choose_wiring (which raises LopError unless exactly one candidate
    passes), and only the chosen reading is expanded, at the ends it chose.
    Its RLL check reads the difference that `ybe` reports, for either
    reading: exchange(P X P) = -P13 sigma(exchange(X)) P13, with P13 the
    swap of legs 1 and 3 and sigma the swap of u and v, so both readings
    share one exchange verdict, and it is the YBE verdict."""
    lops = _lops(alg, K)
    for item in lops.checks:
        if item["status"] == "fail":
            raise LopError(f"Gauss factors fail {item['name']!r} at {item['witness']}")
    return lops


@cache
def _lops(alg: AlgebraData, K: int) -> LOperators:
    if K < 1:
        raise LopError("truncation order must be at least 1")
    w = choose_wiring(alg)
    plus = w.record["plus_expansion"]
    minus = AT_INFINITY if plus == AT_ZERO else AT_ZERO
    lp, lm = _signed(
        _series_matrix(w.base, alg.N, plus, K), _series_matrix(w.base, alg.N, minus, K)
    )
    return _decompose(alg, w, lp, lm)


# ---------------------------------------------------------------------------
# Gauss decomposition
# ---------------------------------------------------------------------------


def _reassembly(alg, gp, gm) -> dict:
    """The check item of F*H*E = L for both signs."""
    return _coefficient_item(
        f"Gauss reassembly F H E = L, both signs, {alg}",
        (
            ({"sign": sign, "entry": [i + 1, j + 1]}, x - g.L[i][j])
            for sign, g in (("+", gp), ("-", gm))
            for i, row in enumerate(g.product())
            for j, x in enumerate(row)
        ),
    )


def _cross_path(alg, gp, gm) -> dict:
    """The check item of every h, e and f of both signs against its
    quasideterminant formula, read from L alone (quasidet._cross_check)."""
    return _coefficient_item(
        f"quasideterminant cross-path agrees with block elimination, {alg}",
        (
            ({"sign": sign, **labels}, d)
            for sign, g in (("+", gp), ("-", gm))
            for labels, d in _cross_check(g)
        ),
    )


def _rep_size(L) -> int:
    """The representation dimension M: the size of the coefficient matrices
    of L, an N x N matrix of series."""
    return next(c.nrows for row in L for x in row for c in x.coeffs.values())


def _unit(L) -> TruncSeries:
    """The identity of the series ring of L: the M x M identity at the
    direction and order of L's entries."""
    x = L[0][0]
    return TruncSeries.constant(SparseMat.identity(_rep_size(L)), x.direction, x.order)


def _decompose(alg, wiring: Wiring, lp, lm) -> LOperators:
    """The LOperators of lp and lm: their Gauss factors and the two items
    that verify them are formed first, whether or not the factors pass."""
    gp = gauss_decompose(lp, _unit(lp))
    gm = gauss_decompose(lm, _unit(lm))
    checks = [_reassembly(alg, gp, gm), _cross_path(alg, gp, gm)]
    return LOperators(alg, wiring, gp, gm, checks)


def check_gauss(alg: AlgebraData, K: int = 10) -> list:
    """The two items formed with the memoised factors, the reassembly
    F*H*E = L for both signs and the quasideterminant cross path, read from
    _lops past the gate of build_lops (so failing factors fail here, with
    their witnesses, where every other suite refuses them), and a probe:
    perturbing one coefficient of F must break the reassembly."""
    lops = _lops(alg, K)
    g = lops.gp
    N, M = len(g.L), _rep_size(g.L)
    F2 = [row[:] for row in g.F]
    F2[N - 1][0] += TruncSeries(AT_ZERO, K, {1: SparseMat.unit(M, M - 1, 0)})
    probe = _reassembly(alg, GaussFactors(g.L, F2, g.H, g.E, g.one), lops.gm)
    return [
        *lops.checks,
        check(
            f"single-entry perturbation of F breaks reassembly, {alg}",
            probe["status"] == "fail",
        ),
    ]


# ---------------------------------------------------------------------------
# the bivariate relation checker
# ---------------------------------------------------------------------------


def _modes(part):
    """The (mode, coefficient) pairs of a TruncSeries part, modes signed."""
    sign = part.sign
    return [(m * sign, c) for m, c in part.coeffs.items()]


def _lift(part, shift, lo, hi, var, M) -> SparseMat:
    """The M x M matrix of polynomials in u (var 0) or v (var 1) that holds
    the coefficient X_m of each mode m of part with lo <= m + shift <= hi at
    the power m + shift - lo of its variable.  None, the identity at mode
    zero, lifts to that power times the identity, or to zero when shift is
    outside the window."""
    power = (Scalar.u_pow, Scalar.v_pow)[var]
    if part is None:
        if lo <= shift <= hi:
            return SparseMat.identity(M, power(shift - lo))
        return SparseMat(M, M)
    lifted = [
        (power(m + shift - lo), x, None)
        for m, x in _modes(part)
        if lo <= m + shift <= hi
    ]
    return SparseMat.sum_of_products(lifted, M, M)


def _bivar_zero(name, terms, clearing=ONE) -> dict:
    """Check that a sum of bivariate terms vanishes on every determined
    bi-mode (alpha, beta) with |alpha|, |beta| <= K, K the least order of
    the parts.

    Each term is (prefactor, u_part, v_part, order): the prefactor is a
    rational scalar in u, v; clearing is a polynomial multiple of all the
    denominators (verified: the cleared prefactor must expand into a
    polynomial).  order "uv" multiplies coefficients as u-part * v-part,
    "vu" the other way.  A part is a TruncSeries, read on its signed
    exponents, or None, the identity at mode zero; at most one part of a
    term is None.  A current is two terms, one per Gauss half.  A part at
    zero determines its variable's modes up to K at least; a part at
    infinity down to minus its order plus the largest exponent of that
    variable in the cleared prefactor.  K and the matrix size are read from
    the parts.

    The whole window is one matrix of polynomials in u and v: each monomial
    c u^i v^j of a cleared prefactor multiplies the window lifts (_lift) of
    the term's parts, the u part shifted by i and the v part by j, in the
    term's order, and one SparseMat.sum_of_products adds every such product,
    so each entry is one Scalar.dot.  A lift keeps only the modes whose
    shifted bi-mode is inside the window, so the coefficient of
    u^(alpha - alo) v^(beta - blo), alo and blo the least modes of the
    window, is the relation's coefficient at the bi-mode (alpha, beta).
    Every exponent is at least zero, so no denominator gains u or v.  Lifts
    are formed once per part, shift and variable.  On failure the witness is
    the least bi-mode with a nonzero coefficient, then its least entry.
    """
    K = min(p.order for _, U, V, _ in terms for p in (U, V) if p is not None)
    expanded = []
    lo, hi = [-K, -K], [K, K]  # per variable, u then v
    for pref, upart, vpart, order in terms:
        poly = (pref * clearing).uv_coeffs()
        keys = [k for k, c in poly.items() if not c.is_zero()]
        if not keys:
            continue
        # no cap at zero: its order is >= K, the cleared prefactor a polynomial
        for var, part in enumerate((upart, vpart)):
            if part is not None and part.direction == AT_INFINITY:
                lo[var] = max(lo[var], max(k[var] for k in keys) - part.order)
        coeffs = [(k, poly[k]) for k in keys]
        expanded.append((coeffs, (upart, vpart), order))
    (alo, blo), (ahi, bhi) = lo, hi
    if alo > ahi or blo > bhi:
        raise LopError(f"{name}: empty determined window")
    # the size of the coefficient matrices; with no coefficient at all every
    # bi-mode is the empty sum, and its size is never read
    parts = [p for _, ps, _ in expanded for p in ps if p is not None]
    M = next((x.nrows for p in parts for x in p.coeffs.values()), 0)
    # (id of the part, shift, variable) -> its lift; a TruncSeries has no
    # hash, and terms keeps every part alive while the ids are in use
    lifts = {}

    def lift(part, shift, var):
        key = (id(part), shift, var)
        mat = lifts.get(key)
        if mat is None:
            mat = lifts[key] = _lift(part, shift, lo[var], hi[var], var, M)
        return mat

    products = []
    for coeffs, (upart, vpart), order in expanded:
        for (i, j), c in coeffs:
            x, y = lift(upart, i, 0), lift(vpart, j, 1)
            products.append((c, x, y) if order == "uv" else (c, y, x))
    total = SparseMat.sum_of_products(products, M, M)
    if total.is_zero():
        points = (ahi - alo + 1) * (bhi - blo + 1)
        return check(name, True, modes_u=[alo, ahi], modes_v=[blo, bhi], points=points)
    (a, b, row, col), value = min(
        ((eu + alo, ev + blo, r, col), x)
        for r, entries in total.rows.items()
        for col, entry in entries.items()
        for (eu, ev), x in entry.uv_coeffs().items()
    )
    witness = {"u_mode": a, "v_mode": b, "row": row, "col": col, "value": str(value)}
    return check(name, False, witness)


# ---------------------------------------------------------------------------
# generator sources (direct and reduced)
# ---------------------------------------------------------------------------


class GenSource:
    """The Gaussian generator series of either sign by local index,
    optionally offset into the trailing blocks of a larger decomposition
    (the reduction map).  The low-rank batteries read the series by label
    (gen) and form the inverse of h1 and each product of two labelled
    series once per source; the memo dies with the source."""

    def __init__(self, lops: LOperators, offset: int = 0):
        self.lops = lops
        self.off = offset
        self._memo = {}

    def _once(self, key, build) -> TruncSeries:
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def h(self, i, sign) -> TruncSeries:
        return self.lops.g(sign).h(i + self.off)

    def e(self, i, j, sign) -> TruncSeries:
        return self.lops.g(sign).e(i + self.off, j + self.off)

    def f(self, j, i, sign) -> TruncSeries:
        return self.lops.g(sign).f(j + self.off, i + self.off)

    def gen(self, label: str, sign) -> TruncSeries:
        """The series of a battery label: "h2", "e12" or "f21" (local
        indices, one digit each), or "h1^-1", the inverse of h1."""
        if label == "h1^-1":
            return self._once((label, sign), lambda: self.h(1, sign).inverse())
        if label[0] == "h":
            return self.h(int(label[1]), sign)
        return (self.e if label[0] == "e" else self.f)(
            int(label[1]), int(label[2]), sign
        )

    def mul(self, x: str, y: str, sign) -> TruncSeries:
        """The product of the labelled series x and y of one sign."""
        return self._once((x, y, sign), lambda: self.gen(x, sign) * self.gen(y, sign))


_SIGNS = (1, -1)
_PAIRS = [(s, t) for s in _SIGNS for t in _SIGNS]


def _sig(s):
    return "+" if s > 0 else "-"


# ---------------------------------------------------------------------------
# relation families shared by several checks
# ---------------------------------------------------------------------------


def _commutator(x, y):
    """The terms of x(u) y(v) - y(v) x(u)."""
    return [(ONE, x, y, "uv"), (_MONE, x, y, "vu")]


def _hh_commutation(src: GenSource, prefix: str, index_pairs) -> list:
    """[h_i(u), h_j(v)] = 0 for each (i, j) of index_pairs and sign pair."""
    return [
        _bivar_zero(
            f"{prefix}[h{i}{_sig(s)}(u), h{j}{_sig(t)}(v)] = 0",
            _commutator(src.h(i, s), src.h(j, t)),
        )
        for i, j in index_pairs
        for s, t in _PAIRS
    ]


def _halves(x):
    """The (sign, Gauss series) pairs whose signed sum is x: a current is
    its pair (plus half, minus half) of _current_halves, a series itself."""
    return tuple(zip((1, -1), x)) if isinstance(x, tuple) else ((1, x),)


def _exchange(name, x, y, first, pre, corrections=(), clearing=ONE) -> dict:
    """The item x(u) y(v) - pre y(v) x(u) + corrections = 0, or its mirror
    y(v) x(u) - pre x(u) y(v) + corrections = 0 when first is "vu".  x and y
    are Gauss series or currents (see _halves); each correction is a
    (prefactor, u part, v part) term with one part None."""
    second = "vu" if first == "uv" else "uv"
    terms = [
        (c if a == b else -c, xh, yh, order)
        for c, order in ((ONE, first), (_MONE * pre, second))
        for a, xh in _halves(x)
        for b, yh in _halves(y)
    ]
    return _bivar_zero(
        name, terms + [(c, U, V, "uv") for c, U, V in corrections], clearing
    )


def _product_name(x, s, y, t, first="uv"):
    """The name x±(u) y±(v) of the labels x and y of signs s and t, or its
    mirror y±(v) x±(u) when first is "vu"."""
    xu, yv = f"{x}{_sig(s)}(u)", f"{y}{_sig(t)}(v)"
    return f"{xu} {yv}" if first == "uv" else f"{yv} {xu}"


def _h_side(src: GenSource, h, x, sign) -> TruncSeries:
    """The product h x of a diagonal series and an e, or x h for an f, that
    the exchange of h with x reads."""
    return src.mul(h, x, sign) if x[0] == "e" else src.mul(x, h, sign)


def _h1_exchanges(src: GenSource, prefix: str, e: str, f: str, s, t) -> list:
    """The exchanges of h1(u) with e(v) and of f(v) with h1(u), for the root
    column of the labels e = e_ab and f = f_ba of a low-rank battery."""
    u, v = _U, _V
    d1 = _Q * u - _QI * v
    return [
        _exchange(
            f"{prefix}{_product_name('h1', s, y, t, first)} exchange",
            src.gen("h1", s),
            src.gen(y, t),
            first,
            (u - v) * d1.inverse(),
            [(_MONE * _QMQ * free * d1.inverse(), _h_side(src, "h1", y, s), None)],
            d1,
        )
        for y, first, free in ((e, "uv", u), (f, "vu", v))
    ]


def _ef_commutator(src: GenSource, prefix: str, e: str, f: str, h: str, s, t):
    """[e(u), f(v)] against the ratio h h1^-1 of the diagonal series, for the
    root column of the labels e = e_ab and f = f_ba of a low-rank battery."""
    duv = _U - _V
    pre = _QMQ * _V * duv.inverse()
    return _exchange(
        f"{prefix}[{e}{_sig(s)}(u), {f}{_sig(t)}(v)] vs h-ratio",
        src.gen(e, s),
        src.gen(f, t),
        "uv",
        ONE,
        [
            (_MONE * pre, None, src.mul(h, "h1^-1", t)),
            (pre, src.mul(h, "h1^-1", s), None),
        ],
        duv,
    )


# ---------------------------------------------------------------------------
# low-rank relation batteries
# ---------------------------------------------------------------------------


def _b1_quadratic_prefactors(swap: bool) -> list:
    """B, C, D1 and E1 of the rank-one type-B quadratic relation of e12, or
    of f21 when swap is set: there each free factor u or v is the other."""
    u, v, q, qi = _U, _V, _Q, _QI
    qhi = Scalar.q_pow(Fraction(-1, 2))
    x, y = (v, u) if swap else (u, v)
    B = _MONE * _QMQ * y * (qi * u - q * v).inverse()
    C = (
        _MONE
        * (u - qi * v)
        * (ONE - qi * qi)
        * x
        * ((qi * u - v) * (u - qi * qi * v)).inverse()
    )
    D1 = (
        (u - v)
        * qhi
        * (qi * qi - ONE)
        * x
        * ((qi * u - v) * (u - qi * qi * v)).inverse()
    )
    E1 = (
        (u - v)
        * qhi
        * (qi - q)
        * y
        * ((qi * u - v) * (qi * u - q * v)).inverse()
    )
    return [B, C, D1, E1]


def _battery_rank1_b(src: GenSource, tag: str) -> list:
    """The full rank-one type-B relation battery on a generator source."""
    u, v, q, qi = _U, _V, _Q, _QI
    qh = Scalar.q_pow(Fraction(1, 2))
    prefix = f"{tag}: "
    out = _hh_commutation(src, prefix, ((1, 1), (1, 2), (2, 2)))
    for s, t in _PAIRS:
        out += _h1_exchanges(src, prefix, "e12", "f21", s, t)
    # e-f commutator against the h-ratio
    out += [_ef_commutator(src, prefix, "e12", "f21", "h2", s, t) for s, t in _PAIRS]
    # quadratic e-e / f-f with the next-root correction terms; the f21
    # relation is the mirror of e12's, and its B, C, D1 and E1 are e12's
    # with the free factor u or v swapped
    dq = (qi * u - v) * (qi * u - q * v) * (u - qi * qi * v)
    A = (u - qi * v) * (qi * u - v).inverse()
    for x, nxt, first in (("e12", "e13", "uv"), ("f21", "f31", "vu")):
        B, C, D1, E1 = _b1_quadratic_prefactors(swap=first == "vu")
        for s, t in _PAIRS:
            out.append(
                _exchange(
                    f"{prefix}{_product_name(x, s, x, t, first)} quadratic",
                    src.gen(x, s),
                    src.gen(x, t),
                    first,
                    A,
                    [
                        (_MONE * B, None, src.mul(x, x, t)),
                        (_MONE * C, src.mul(x, x, s), None),
                        (_MONE * D1, src.gen(nxt, s), None),
                        (_MONE * E1, None, src.gen(nxt, t)),
                    ],
                    dq,
                )
            )
    # exchange against the long-root diagonal series
    d2 = (u - v) * (qi * u - v)
    pre3 = (qi * u - q * v) * (u - qi * v) * d2.inverse()
    for s, t in _PAIRS:
        for x, nxt, first, free in (("f21", "f32", "vu", u), ("e12", "e23", "uv", v)):
            c = _QMQ * free * (u - v).inverse()
            cnxt = _MONE * (qi * qi - ONE) * qh * free * (qi * u - v).inverse()
            out.append(
                _exchange(
                    f"{prefix}{_product_name(x, s, 'h2', t, first)} exchange",
                    src.gen(x, s),
                    src.gen("h2", t),
                    first,
                    pre3,
                    [
                        (c, None, _h_side(src, "h2", x, t)),
                        (cnxt, None, _h_side(src, "h2", nxt, t)),
                    ],
                    d2,
                )
            )
    return out


def _battery_rank2_d(src: GenSource, tag: str) -> list:
    """The full rank-two type-D relation battery on a generator source."""
    u, v, q, qi = _U, _V, _Q, _QI
    qmq = _QMQ
    prefix = f"{tag}: "
    pairs = ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3))
    out = _hh_commutation(src, prefix, pairs)

    def bv(name, terms):
        out.append(_bivar_zero(prefix + name, terms))

    def zero_items(template, rows):
        # per sign, a row (x,), (x, y) or (x, y, z) states x, x + y or x + y z = 0
        for s in _SIGNS:
            for row in rows:
                x = src.gen(row[0], s)
                if len(row) == 3:
                    x = x + src.mul(row[1], row[2], s)
                elif len(row) == 2:
                    x = x + src.gen(row[1], s)
                labels = [f"{name}{_sig(s)}(u)" for name in row]
                name = prefix + template.format(*labels)
                out.append(_vanishes(name, x))

    duv = u - v
    d1 = q * u - qi * v
    d2 = qi * u - q * v

    def h_exchange(x, h, s, t, d, c, kind):
        # x(u), an e or an f, against h(v): (d, c) is (d1, 1) for the
        # diagonal series of x's root column and (d2, -1) for the other's
        first, free = ("uv", v) if x[0] == "e" else ("vu", u)
        out.append(
            _exchange(
                f"{prefix}{_product_name(x, s, h, t, first)} {kind}",
                src.gen(x, s),
                src.gen(h, t),
                first,
                d * duv.inverse(),
                [(c * qmq * free * duv.inverse(), None, _h_side(src, h, x, t))],
                duv,
            )
        )

    # the two root columns (e12/f21 against h2, e13/f31 against h3)
    for e, f, h in (("e12", "f21", "h2"), ("e13", "f31", "h3")):
        for s, t in _PAIRS:
            out += _h1_exchanges(src, prefix, e, f, s, t)
            # exchange with the matching diagonal series
            h_exchange(e, h, s, t, d1, ONE, "exchange")
            h_exchange(f, h, s, t, d1, ONE, "exchange")
        # quadratic relations: x(u) x(v) - (a / b) x(v) x(u) + (cv x(v)^2
        # + cu x(u)^2) / b = 0
        for s, t in _PAIRS:
            for x, a, b, cv, cu in (
                (e, d1, d2, qmq * v, qmq * u),
                (f, d2, d1, _MONE * qmq * u, _MONE * qmq * v),
            ):
                out.append(
                    _exchange(
                        f"{prefix}{_product_name(x, s, x, t)} quadratic",
                        src.gen(x, s),
                        src.gen(x, t),
                        "uv",
                        a * b.inverse(),
                        [
                            (cv * b.inverse(), None, src.mul(x, x, t)),
                            (cu * b.inverse(), src.mul(x, x, s), None),
                        ],
                        b,
                    )
                )
        # e-f commutator against the h-ratio
        out += [_ef_commutator(src, prefix, e, f, h, s, t) for s, t in _PAIRS]
    # vanishing inner entries
    zero_items("{} = 0", (("e23",), ("f32",)))
    # corner entries as products
    zero_items(
        "{} + {} {} = 0",
        (
            ("e14", "e12", "e13"),
            ("e14", "e13", "e12"),
            ("f41", "f21", "f31"),
            ("f41", "f31", "f21"),
        ),
    )
    for s, t in _PAIRS:
        for x, y in (("e12", "e13"), ("f21", "f31")):
            xs, yt = src.gen(x, s), src.gen(y, t)
            bv(
                f"{x}{_sig(s)}(u) {y}{_sig(t)}(v) symmetric in signs",
                [(ONE, xs, yt, "uv"), (_MONE, src.gen(y, s), src.gen(x, t), "vu")],
            )
            bv(f"[{x}{_sig(s)}(u), {y}{_sig(t)}(v)] = 0", _commutator(xs, yt))
    # mirrored entries
    zero_items(
        "{} + {} = 0", (("e34", "e12"), ("e24", "e13"), ("f43", "f21"), ("f42", "f31"))
    )
    # cross commutators and exchanges between the two root columns
    for s, t in _PAIRS:
        for x, y in (("e12", "f31"), ("e13", "f21")):
            xs, yt = src.gen(x, s), src.gen(y, t)
            bv(f"[{x}{_sig(s)}(u), {y}{_sig(t)}(v)] = 0", _commutator(xs, yt))
    for s, t in _PAIRS:
        for x, h in (("e12", "h3"), ("e13", "h2"), ("f21", "h3"), ("f31", "h2")):
            h_exchange(x, h, s, t, d2, _MONE, "cross exchange")
    return out


# (type, rank) -> the hand-written relation battery of that algebra
BATTERIES = {("B", 1): _battery_rank1_b, ("D", 2): _battery_rank2_d}
# the least order of a battery run, by lowrank or on psi's reduced rank
BATTERY_MIN_ORDER = 4


def check_lowrank(alg: AlgebraData, K: int = 10) -> list:
    """The complete low-rank relation batteries (rank-one type B on o_3 and
    rank-two type D on o_4); one skipped item on every other algebra."""
    battery = BATTERIES.get((alg.type, alg.n))
    if battery is None:
        reason = "defined for type B rank 1 and type D rank 2 only"
        return [skipped(f"low-rank battery, {alg}", reason)]
    if K < BATTERY_MIN_ORDER:
        raise LopError(f"low-rank battery needs K >= {BATTERY_MIN_ORDER}")
    return battery(GenSource(build_lops(alg, K)), str(alg))


# ---------------------------------------------------------------------------
# currents and the full relation family check
# ---------------------------------------------------------------------------


def _current_halves(lops: LOperators, i: int, plus: bool):
    """The two Gauss series of the current X_i^+ (e_ab) or X_i^- (f_ba) of
    node i: (plus series, minus series), whose difference is the current."""
    a, b = lops.alg.node_pair(i)
    if plus:
        return lops.gp.e(a, b), lops.gm.e(a, b)
    return lops.gp.f(b, a), lops.gm.f(b, a)


def x_current(halves) -> dict:
    """The mode table of the two-tailed current of its pair of Gauss series
    (_current_halves): mode -> nonzero matrix coefficient of the plus series
    minus the minus series."""
    tp, tm = halves
    table = dict(_modes(tp))
    for m, d in _modes(tm):
        table[m] = -d if m not in table else table[m] - d
    return {m: c for m, c in table.items() if not c.is_zero()}


def _hx_prefactors(alg: AlgebraData, i: int, j: int):
    """(pre, clearing) for the diagonal-series/current exchange
    h_i(u) X_j^+(v) = pre X_j^+(v) h_i(u); X_j^- exchanges with pre^-1."""
    u, v, q, qi = _U, _V, _Q, _QI
    n = alg.n
    if i <= n:
        # (epsilon_i, alpha_j)
        a = sum(x * y for x, y in zip(alg.epsilon[i - 1], alg.roots[j - 1]))
        den = Scalar.q_pow(a) * u - Scalar.q_pow(-a) * v
        return (u - v) * den.inverse(), den * (u - v)
    # i == n + 1
    if alg.is_middle(i):
        if j <= n - 1:
            return ONE, ONE
        num = (q * u - v) * (u - v)
        den = (u - q * v) * (q * u - qi * v)
        return num * den.inverse(), num * den
    if j <= n - 2:
        return ONE, ONE
    if j == n:
        den = qi * u - q * v
    else:  # j == n - 1
        den = q * u - qi * v
    return (u - v) * den.inverse(), den * (u - v)


def check_relrbar(alg: AlgebraData, K: int = 10, W: int = 3) -> list:
    """All relation families of the Drinfeld-style presentation, verified on
    the evaluated Gaussian generators: diagonal-series commutation, the
    diagonal/current exchange relations (including the extra diagonal series
    h_{n+1}), the quadratic current relations with shifted arguments, the
    mixed-current delta relation modewise, and the Serre relations modewise."""
    if not (K >= W >= 2):
        raise LopError("need K >= W >= 2")
    lops = build_lops(alg, K)
    n = alg.n
    src = GenSource(lops)
    # (a) diagonal-series commutation, all pairs, all sign combinations
    pairs = [(i, j) for i in range(1, n + 2) for j in range(i, n + 2)]
    out = _hh_commutation(src, "(a) ", pairs)
    # (b) diagonal-series / current exchange; (b) and (c) read each current
    # as its two Gauss series, (d) and (e) its mode table
    halves = {
        (j, plus): _current_halves(lops, j, plus)
        for j in range(1, n + 1)
        for plus in (True, False)
    }
    currents = {key: x_current(pair) for key, pair in halves.items()}
    for i in range(1, n + 2):
        for j in range(1, n + 1):
            pre, clearing = _hx_prefactors(alg, i, j)
            for plus, p in ((True, pre), (False, pre.inverse())):
                lbl = "+" if plus else "-"
                for s in _SIGNS:
                    out.append(
                        _exchange(
                            f"(b) h{i}{_sig(s)}(u) X{j}{lbl}(v) exchange",
                            src.h(i, s),
                            halves[(j, plus)],
                            "uv",
                            p,
                            clearing=clearing,
                        )
                    )
    # (c) quadratic current relations with shifted arguments; each current
    # is read at its one shift, q^a for the first index a of its node's
    # pair, and rescaled once
    scaled = {
        (k, plus): tuple(x.scale_arg(Scalar.q_pow(alg.node_pair(k)[0])) for x in pair)
        for (k, plus), pair in halves.items()
    }
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            bij = alg.Bmat[i - 1][j - 1]
            for plus in (True, False):
                qe = Scalar.q_pow(bij if plus else -bij)
                lbl = "+" if plus else "-"
                d = _U - qe * _V
                out.append(
                    _exchange(
                        f"(c) quadratic X{i}{lbl}-X{j}{lbl}",
                        scaled[(i, plus)],
                        scaled[(j, plus)],
                        "uv",
                        (qe * _U - _V) * d.inverse(),
                        clearing=d,
                    )
                )
    # (d) mixed-current commutator against the diagonal ratios, modewise on
    # the bi-modes whose total alpha + beta the truncated ratios determine
    qmq = _QMQ
    M = _rep_size(lops.lp)
    for i in range(1, n + 1):
        a, b = alg.node_pair(i)
        hp = src.h(a, 1).inverse() * src.h(b, 1)
        hm = src.h(a, -1).inverse() * src.h(b, -1)
        for j in range(1, n + 1):
            Xp, Xm = currents[(i, True)], currents[(j, False)]

            def mixed(alpha, beta):
                xp, xm = Xp.get(alpha), Xm.get(beta)
                terms = []
                if xp is not None and xm is not None:
                    terms += [(None, xp, xm), (_MONE, xm, xp)]
                if i == j:
                    g = alpha + beta
                    terms += [
                        (c, x, None)
                        for c, x in ((-qmq, hm.get(g)), (qmq, hp.get(g)))
                        if x is not None
                    ]
                return SparseMat.sum_of_products(terms, M, M)

            out.append(
                first_failure(
                    f"(d) [X{i}+, X{j}-] modewise, window {W}",
                    (
                        ({"u_mode": alpha, "v_mode": beta}, mixed(alpha, beta))
                        for alpha in range(-W, W + 1)
                        for beta in range(-W, W + 1)
                        if abs(alpha + beta) <= K
                    ),
                )
            )
    # (e) Serre relations, modewise
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            r = 1 - int(alg.A[i - 1][j - 1])
            coefs = [(-1) ** l * qbinom(r, l, alg.r[i - 1]) for l in range(r + 1)]
            for plus in (True, False):
                Xi, Xj = currents[(i, plus)], currents[(j, plus)]
                lbl = "+" if plus else "-"
                tuples = [
                    tup
                    for tup in itertools.product(range(-W, W + 1), repeat=r + 1)
                    if sum(abs(x) for x in tup) <= W and sorted(tup[:r]) == list(tup[:r])
                ]

                def serre_sums():
                    # every product of a Serre sum holds each x once, so a
                    # zero mode coefficient makes the sum zero
                    for tup in tuples:
                        xs = [Xi.get(a) for a in tup[:r]]
                        y = Xj.get(tup[r])
                        if y is not None and all(x is not None for x in xs):
                            labels = {"u_modes": list(tup[:r]), "v_mode": tup[r]}
                            yield labels, vecrep.serre_sum(xs, y, coefs)

                out.append(
                    first_failure(
                        f"(e) Serre X{i}{lbl}/X{j}{lbl}, degree {r + 1}, window {W}",
                        serre_sums(),
                    )
                )
    return out


# ---------------------------------------------------------------------------
# central series
# ---------------------------------------------------------------------------


def _central_series(name, L, type_: str, rank: int):
    """L(u) D^-1 L(u xi)^t D for a square matrix L of series of the algebra
    of this type and rank, D = diag(q^bar) with bar and xi of that rank:
    the right factor is tensor.crossed of L(u xi) with the negated bars, as
    L's auxiliary slot is Rbar's second leg.  Returns its diagonal series
    and the items that it is a scalar multiple of the identity in the
    auxiliary slot."""
    bars, xi = bars_of(type_, rank), xi_of(type_, rank)
    right = crossed(L, [-w for w in bars])
    # the powers of q commute with u -> u xi; taking each row to u xi in
    # place holds one grid of series, not two
    for row in right:
        row[:] = [x.scale_arg(xi) for x in row]
    prod = mat_mul(L, right)
    Nr = len(L)
    witness = next(
        (
            {"row": i, "col": j}
            for i in range(Nr)
            for j in range(Nr)
            if i != j and not prod[i][j].is_zero()
        ),
        None,
    )
    diag = prod[0][0]
    agree = all((prod[i][i] - diag).is_zero() for i in range(1, Nr))
    return diag, [
        check(f"{name}: off-diagonal entries vanish", witness is None, witness),
        check(f"{name}: diagonal entries agree", agree),
    ]


def _scalar_series(name, diag):
    """The scalar series of diag, a series with matrix coefficients, and the
    item that each coefficient is a scalar multiple of the identity."""
    bad = next(
        (
            m
            for m, c in sorted(diag.coeffs.items())
            if c != SparseMat.identity(c.nrows, c.get(0, 0))
        ),
        None,
    )
    witness = None if bad is None else {"exponent": bad * diag.sign}
    item = check(
        f"{name}: coefficients are scalar multiples of the identity",
        bad is None,
        witness,
    )
    # the scalar series stops before the first coefficient that is not scalar
    scalar = itertools.takewhile(lambda m: m != bad, sorted(diag.coeffs))
    coeffs = {m: diag.coeffs[m].get(0, 0) for m in scalar}
    return TruncSeries(diag.direction, diag.order, coeffs), item


def z_series(alg: AlgebraData, K: int = 10):
    """The central series of both operator matrices: computes
    L(u) D^-1 L(u xi)^t D (_central_series), asserts scalar-ness in both
    slots, and compares with the diagonal-series product formula."""
    if K < 2:
        raise LopError("need K >= 2")
    lops = build_lops(alg, K)
    n = alg.n
    checks = []
    results = {}
    for sign, L in ((1, lops.lp), (-1, lops.lm)):
        tag = f"{alg} z{_sig(sign)}"
        diag, sc = _central_series(tag, L, alg.type, n)
        zser, item = _scalar_series(tag, diag)
        checks += [*sc, item]
        # diagonal-series product formula
        g = lops.g(sign)
        top = alg.N - n - 1
        acc = g.one
        for i in range(1, top + 1):
            acc = acc * g.h(i).scale_arg(alg.xi * Scalar.q_pow(2 * i)).inverse()
        for i in range(1, top + 1):
            acc = acc * g.h(i).scale_arg(alg.xi * Scalar.q_pow(2 * i - 2))
        if alg.is_middle(n + 1):
            acc = acc * g.h(n + 1) * g.h(n + 1).scale_arg(_Q)
        else:
            acc = acc * g.h(n) * g.h(n + 1)
        ident = g.one.coeffs[0]
        target = TruncSeries(
            zser.direction,
            zser.order,
            {m: ident.scale(c) for m, c in zser.coeffs.items()},
        )
        checks.append(
            _vanishes(f"{tag} equals the diagonal-series product", acc - target)
        )
        results[sign] = zser
    if alg.type == "B" and alg.n == 1:
        oracle = expand_scalar(
            crossing_scalar(alg) * Scalar.q_pow(-2), AT_ZERO, K
        )
        checks.append(
            _vanishes(
                f"{alg} z+ matches the expanded crossing scalar (normalized)",
                results[1] - oracle,
            )
        )
    return results[1], results[-1], checks


# ---------------------------------------------------------------------------
# mirrored off-diagonal generators
# ---------------------------------------------------------------------------


def _mirror_differences(alg: AlgebraData, g: GaussFactors, i: int, r_e, r_f):
    """The pair of mirror differences of the 1-based node i:
    e[N-i,N+1-i](u) + r_e e[i,i+1](u xi q^2i) and
    f[N+1-i,N-i](u) + r_f f[i+1,i](u xi q^2i)."""
    N = alg.N
    shift = alg.xi * Scalar.q_pow(2 * i)
    return (
        g.e(N - i, N + 1 - i) + g.e(i, i + 1).scale_arg(shift).scale(r_e),
        g.f(N + 1 - i, N - i) + g.f(i + 1, i).scale_arg(shift).scale(r_f),
    )


def check_eiprei(alg: AlgebraData, K: int = 10) -> list:
    """The mirror identities relating the primed off-diagonal generator
    series to the argument-shifted unprimed ones, for 1 <= i <= n-1; one
    skipped item at rank 1."""
    if alg.n < 2:
        return [skipped(f"mirror identities, {alg}", "needs rank at least 2")]
    lops = build_lops(alg, K)
    N = alg.N
    out = []
    for s in _SIGNS:
        g = lops.g(s)
        sg = _sig(s)
        for i in range(1, alg.n):
            de, df = _mirror_differences(alg, g, i, ONE, ONE)
            for d, mirror in (
                (de, f"e[{N - i},{N + 1 - i}]{sg}(u) + e[{i},{i + 1}]"),
                (df, f"f[{N + 1 - i},{N - i}]{sg}(u) + f[{i + 1},{i}]"),
            ):
                out.append(_vanishes(f"{alg}: {mirror}{sg}(u xi q^{2 * i}) = 0", d))
    return out


# ---------------------------------------------------------------------------
# reduction-map consistency
# ---------------------------------------------------------------------------


def check_psi(alg: AlgebraData, K: int = 10) -> list:
    """The reduction consistency of every m = 1..n-1; one skipped item at
    rank 1."""
    if alg.n < 2:
        return [skipped(f"reduction consistency, {alg}", "needs rank at least 2")]
    return [c for m in range(1, alg.n) for c in check_psi_consistency(alg, m, K)]


def check_psi_consistency(alg: AlgebraData, m: int, K: int = 10) -> list:
    """The reduction images psi_m(l_ij), read from L as one Schur complement
    of its leading m x m block, versus the central-block products of the
    Gauss factors; the commutation of the eliminated corner with the images;
    and - when the reduced rank admits one - the low-rank battery run
    through the reduced generators, one skipped item below the battery's
    least order."""
    if not (1 <= m <= alg.n - 1):
        raise LopError("need 1 <= m <= n - 1")
    lops = build_lops(alg, K)
    N = alg.N
    out = []
    block = range(m + 1, N - m + 1)  # the central block, 1-based
    # the images psi_m(l_ij), i, j in the block: the Schur complement of the
    # leading m x m block of L, one inverse per sign; both loops reuse them
    idx = range(m, N - m)
    images = {
        s: schur_complement(lops.g(s).L, m, idx, idx, lops.g(s).one) for s in _SIGNS
    }
    for s in _SIGNS:
        witness = next(
            (
                {"row": i, "col": j}
                for i, xs, ys in zip(block, images[s], lops.g(s).product(m))
                for j, x, y in zip(block, xs, ys)
                if not (x - y).is_zero()
            ),
            None,
        )
        out.append(
            check(
                f"{alg} m={m}: reduction images match trailing blocks ({_sig(s)})",
                witness is None,
                witness,
            )
        )

    # commutation of the eliminated corner with the images
    def corner_failures(s, t):
        ga = lops.lp if s > 0 else lops.lm
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                A = ga[a - 1][b - 1]
                for i, row in zip(block, images[t]):
                    for j, B in zip(block, row):
                        item = _bivar_zero(
                            f"[l[{a},{b}]{_sig(s)}(u), psi_{m}(l[{i},{j}]{_sig(t)}(v))]",
                            _commutator(A, B),
                        )
                        if item["status"] != "pass":
                            yield {"entry": [a, b, i, j], "detail": item["witness"]}

    for s, t in _PAIRS:
        witness = next(corner_failures(s, t), None)
        out.append(
            check(
                f"{alg} m={m}: corner generators commute with reduction images "
                f"({_sig(s)}/{_sig(t)})",
                witness is None,
                witness,
            )
        )
    # cross-check against the low-rank battery through the reduced generators
    battery = BATTERIES.get((alg.type, alg.n - m))
    tag = f"{alg} reduced m={m}"
    if battery is not None and K < BATTERY_MIN_ORDER:
        reason = f"needs order at least {BATTERY_MIN_ORDER}"
        out.append(skipped(f"low-rank battery, {tag}", reason))
    elif battery is not None:
        out.extend(battery(GenSource(lops, offset=m), tag))
    return out


# ---------------------------------------------------------------------------
# structural form of the Gauss factors
# ---------------------------------------------------------------------------


def _geom_target(alg: AlgebraData, i: int, kind: str, sign: int, K: int):
    """Closed-form geometric sum of the representation images of one Drinfeld
    generator family, expanded as the target for a near-diagonal Gauss entry.

    kind "e" sums raising-generator images, "f" lowering ones.  The geometric
    ratio of the mode matrices is computed entrywise and verified on a third
    mode before the closed form is expanded."""
    qi_def = alg.qi[i - 1]
    pref = qi_def - qi_def.inverse()
    if sign < 0:
        pref = -pref
    a, b = alg.node_pair(i)
    ash = -a
    if alg.is_middle(b):
        pref = pref * Scalar.w()
    kmin = {("e", 1): 0, ("e", -1): 1, ("f", 1): 1, ("f", -1): 0}[(kind, sign)]
    gen = vecrep.x_plus if kind == "e" else vecrep.x_minus
    dvals = gauge_dvals(alg)

    def mode_mat(k):
        mode = -k if sign > 0 else k
        return gen(alg, i, mode)

    m0, m1, m2 = mode_mat(kmin), mode_mat(kmin + 1), mode_mat(kmin + 2)
    direction = AT_ZERO if sign > 0 else AT_INFINITY
    arg = (
        Scalar.q_pow(ash) * _U
        if sign > 0
        else Scalar.q_pow(-ash) * Scalar.u_pow(-1)
    )
    entries = []
    for r, c, v0 in m0.entries():
        v1, v2 = m1.get(r, c), m2.get(r, c)
        rho = v1 * v0.inverse()
        if not (v2 - rho * rho * v0).is_zero():
            raise LopError(f"mode matrices are not geometric at entry ({r}, {c})")
        rational = pref * v0 * arg**kmin * (ONE - rho * arg).inverse()
        entries.append((r, c, dvals[r] * rational * dvals[c].inverse()))
    return _matrix_series(entries, m0.nrows, direction, K)


def check_main_theorem_structure(alg: AlgebraData, K: int = 10) -> list:
    """Structural checks of the Gauss factors: the lower factor's subdiagonal
    entries equal the geometric closed forms of the lowering-generator
    images, the upper factor mirrors them, the mirrored far entries are
    argument-shifted negatives of the near ones, the type-D middle entries
    pair up with an interior zero, and the diagonal factor's lower half is
    fixed by the reduced central series."""
    if K < 4:
        raise LopError("need K >= 4")
    lops = build_lops(alg, K)
    N, n = alg.N, alg.n
    dvals = gauge_dvals(alg)
    out = []

    def dv(i):  # 1-based
        return dvals[i - 1]

    for s in _SIGNS:
        g = lops.g(s)
        sg = _sig(s)
        # near-diagonal entries against the geometric closed forms
        for i in range(1, n + 1):
            a, b = alg.node_pair(i)
            for x, (row, col), entry in (("e", (a, b), g.e), ("f", (b, a), g.f)):
                out.append(
                    _vanishes(
                        f"{alg}: {x}[{row},{col}]{sg} matches the geometric "
                        "closed form",
                        entry(row, col) - _geom_target(alg, i, x, s, K),
                    )
                )
        # interior zero and paired entries where the last node skips index n
        if alg.node_pair(n)[0] != n:
            for name, x in (
                (f"E{sg} entry ({n},{n + 1}) vanishes", g.e(n, n + 1)),
                (f"F{sg} entry ({n + 1},{n}) vanishes", g.f(n + 1, n)),
                (
                    f"E{sg} ({n},{n + 2}) pairs with ({n - 1},{n + 1})",
                    g.e(n, n + 2) + g.e(n - 1, n + 1),
                ),
                (
                    f"F{sg} ({n + 2},{n}) pairs with ({n + 1},{n - 1})",
                    g.f(n + 2, n) + g.f(n + 1, n - 1),
                ),
            ):
                out.append(_vanishes(f"{alg}: {name}", x))
        # mirrored far entries (j = N - i), with the gauge ratios
        for i in range(N - n - 1, 0, -1):
            j = N - i
            de, df = _mirror_differences(
                alg, g, i,
                dv(j) * dv(i + 1) * (dv(j + 1) * dv(i)).inverse(),
                dv(j + 1) * dv(i) * (dv(j) * dv(i + 1)).inverse(),
            )
            for name, d in (
                (f"F{sg} mirror entry ({j + 1},{j})", df),
                (f"E{sg} mirror entry ({j},{j + 1})", de),
            ):
                out.append(_vanishes(f"{alg}: {name}", d))
        # diagonal factor: lower half through the reduced central series
        for m in range(1, n + 1):
            pos = N - n + m
            i0 = n + 1 - m
            name = f"{alg} reduced rank {m} central series ({_sig(s)})"
            zred, sc = _central_series(name, g.product(n - m), alg.type, m)
            out.extend(sc)
            lhs = g.h(i0).scale_arg(xi_of(alg.type, m))
            name = f"{alg}: h[{i0}]{sg}(u xi_red) = h[{pos}]{sg}(u)^-1 z_red_{m}(u)"
            out.append(_vanishes(name, lhs - g.h(pos).inverse() * zred))
    return out
