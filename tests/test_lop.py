"""L-operators, Gaussian generators, and the relation suites (fast smoke at
low truncation order; the full order-10 runs live in test_acceptance)."""

import json
from fractions import Fraction

import pytest

from qav import cli, lop, quasidet, rmatrix, vecrep
from qav.liedata import AlgebraData
from qav.lop import (
    LopError,
    build_lops,
    check_eiprei,
    check_gauss,
    check_lowrank,
    check_main_theorem_structure,
    check_psi,
    check_psi_consistency,
    check_relrbar,
    z_series,
)
from qav.report import check, first_failure
from qav.scalars import Scalar
from qav.series import AT_INFINITY, AT_ZERO, TruncSeries, f_series
from qav.tensor import SparseMat

from conftest import all_pass, failures, weight

K = 6


@pytest.fixture(scope="module")
def b1():
    return AlgebraData("B", 1)


@pytest.fixture(scope="module")
def d2():
    return AlgebraData("D", 2)


@pytest.fixture(scope="module")
def d3():
    return AlgebraData("D", 3)


def test_build_lops_selects_unique_wiring(b1):
    lops = build_lops(b1, K)
    assert lops.wiring.record["base"] == "swapped"
    assert lops.wiring.record["plus_expansion"] == AT_ZERO
    # exactly one candidate survived the full invariant cascade
    assert sum(1 for c in lops.wiring.candidates if c["exchange"]) == 1


def test_builds_are_shared_by_equal_algebras(fresh_builds):
    """The per-algebra builds are memoised by the algebra's value: two
    distinct AlgebraData of D2 get the same catalog, wiring, L-operators
    and f(u) at one order, and another order gets other L-operators."""
    a, b = AlgebraData("D", 2), AlgebraData("D", 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert rmatrix.build_catalog(a) is rmatrix.build_catalog(b)
    assert lop.choose_wiring(a) is lop.choose_wiring(b)
    assert build_lops(a, 4) is build_lops(b, 4)
    assert build_lops(a, 5) is not build_lops(b, 4)
    assert f_series(a, 4) is f_series(b, 4)


def test_check_all_decides_the_wiring_once(fresh_builds, monkeypatch, capsys):
    """`check all` on D2 forms the Yang-Baxter difference once (`ybe` and
    the wiring's RLL check share it), builds the expected diagonal
    constants once, and expands only the chosen reading of Rbar at order K,
    one series matrix per sign."""
    calls = {}

    def count(module, name):
        real = getattr(module, name)
        calls[name] = []

        def counted(*args):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(rmatrix, "exchange_difference")
    count(lop, "_series_matrix")
    count(lop, "_lemma_k_diagonal")
    args = ["check", "all", "--type", "D", "--rank", "2", "--format", "json"]
    assert cli.run(args) == 0
    capsys.readouterr()
    assert len(calls["exchange_difference"]) == 1
    assert [a[3] for a in calls["_series_matrix"] if a[3] > 0] == [10, 10]
    assert len(calls["_lemma_k_diagonal"]) == 1


@pytest.mark.parametrize(
    "type_, n", [("B", n) for n in range(1, 7)] + [("D", n) for n in range(2, 7)]
)
def test_lemma_k_diagonal_is_q_to_the_weight_pairing(type_, n):
    """The diagonal constants that the wiring expects, built from the Cartan
    images, equal diag_j q^-(wt(i), wt(j)) at every index i, a formula that
    reads no Cartan image."""
    alg = AlgebraData(type_, n)
    N = alg.N
    lam = lop._lemma_k_diagonal(alg)
    assert len(lam) == N
    for i in range(1, N + 1):
        pairing = [
            sum(x * y for x, y in zip(weight(alg, i), weight(alg, j)))
            for j in range(1, N + 1)
        ]
        expected = SparseMat.from_entries(
            N, N, [(j, j, Scalar.q_pow(-p)) for j, p in enumerate(pairing)]
        )
        assert lam[i - 1] == expected, i


def test_build_lops_triangular_constant_terms(d2):
    lops = build_lops(d2, K)
    N = len(lops.lp)
    for i in range(N):
        for j in range(N):
            if i > j:
                assert lops.lp[i][j].get(0) is None
            if i < j:
                assert lops.lm[i][j].get(0) is None


def test_build_lops_memoizes_and_validates(b1):
    assert build_lops(b1, K) is build_lops(b1, K)
    with pytest.raises(LopError):
        build_lops(b1, 0)


def test_plus_and_minus_expansions_share_rational_entries(b1):
    """Both signs expand the same rational matrix, so overlapping
    coefficients must agree where both expansions are polynomial (entry-wise
    diagonal constant terms differ only by the q^-1 vs q normalization)."""
    lops = build_lops(b1, K)
    assert lops.lp[0][0].direction == AT_ZERO
    assert lops.lm[0][0].direction == AT_INFINITY


def test_check_gauss(b1):
    checks = check_gauss(b1, K)
    assert all_pass(checks), failures(checks)
    assert any("perturbation" in c["name"] for c in checks)


def test_build_lops_hands_out_the_memoised_factors(d2):
    lops = build_lops(d2, K)
    assert lops is lop._lops(d2, K)
    assert all_pass(lops.checks), failures(lops.checks)
    src = lop.GenSource(lops)
    # h-series have invertible constant terms (diagonal matrices)
    for i in range(1, d2.N + 1):
        for sign in (1, -1):
            assert src.h(i, sign) is lops.g(sign).h(i)
            h0 = src.h(i, sign).get(0)
            assert h0 is not None
            h0.inverse()  # must not raise


def test_decompose_factors_the_given_operators(b1):
    """Operators that differ from the built ones get their own factors, not
    the memoised factors of the genuine operators, and their own items,
    which those factors pass."""
    good = build_lops(b1, 4)
    N = b1.N
    lp = [row[:] for row in good.lp]
    lp[N - 1][0] = lp[N - 1][0] + TruncSeries(
        AT_ZERO, 4, {2: SparseMat.unit(N, 0, N - 1)}
    )
    bad = lop._decompose(b1, good.wiring, lp, good.lm)
    assert bad.gp is not good.gp
    assert bad.lp is lp and good.lp is not lp
    assert all_pass(bad.checks), failures(bad.checks)
    prod = bad.gp.product()
    assert (prod[N - 1][0] - lp[N - 1][0]).is_zero()
    assert not (prod[N - 1][0] - good.lp[N - 1][0]).is_zero()


def test_cross_path_inverts_each_leading_block_once(monkeypatch, d2):
    """On D2 (N = 4) the cross path of L+ inverts the leading 1x1, 2x2 and
    3x3 blocks of L, once each; the bordered-minor path inverted 9 minors."""
    gs = build_lops(d2, K)
    sizes = []
    ring_inverse = quasidet.ring_inverse

    def counted(A, one):
        sizes.append(len(A))
        return ring_inverse(A, one)

    monkeypatch.setattr(quasidet, "ring_inverse", counted)
    assert all(d.is_zero() for _, d in quasidet._cross_check(gs.gp))
    assert sizes == [1, 2, 3]


def test_build_lops_raises_when_the_cross_path_fails(fresh_builds, monkeypatch, capsys):
    """A cross path that reads a wrong inverse of a leading block disagrees
    with the elimination: build_lops refuses the factors while check_gauss
    reports that item alone as failing, so `gauss` exits 1 and every other
    L-operator suite exits 2."""
    ring_inverse = quasidet.ring_inverse

    def wrong(A, one):
        inv = ring_inverse(A, one)
        inv[0][0] = inv[0][0] + one
        return inv

    monkeypatch.setattr(quasidet, "ring_inverse", wrong)
    b1 = AlgebraData("B", 1)
    name = "quasideterminant cross-path agrees with block elimination, B1"
    with pytest.raises(LopError, match=f"^Gauss factors fail {name!r} at "):
        build_lops(b1, 4)
    assert [c["name"] for c in failures(check_gauss(b1, 4))] == [name]
    args = ["--type", "B", "--rank", "1", "--order", "4", "--format", "json"]
    assert cli.run(["check", "gauss", *args]) == 1
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    assert [c["name"] for c in report["checks"] if c["status"] == "fail"] == [name]
    assert cli.run(["check", "zseries", *args]) == 2
    err = capsys.readouterr().err
    assert f"Gauss factors fail {name!r}" in err


def test_check_all_verifies_the_gauss_factors_once(fresh_builds, monkeypatch, capsys):
    """`check all` on D2 decomposes L once per sign and forms the
    reassembly and the cross path of the factors once, with the factors:
    the cross path runs once per sign, and the reassembly once more only
    for the perturbation probe of `gauss`."""
    calls = {"gauss_decompose": 0, "_cross_check": 0, "_reassembly": 0}

    def count(name):
        real = getattr(lop, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(lop, name, counted)

    count("gauss_decompose")
    count("_cross_check")
    count("_reassembly")
    args = ["check", "all", "--type", "D", "--rank", "2", "--format", "json"]
    assert cli.run(args) == 0
    capsys.readouterr()
    assert calls == {"gauss_decompose": 2, "_cross_check": 2, "_reassembly": 2}


def test_psi_inverts_each_leading_block_once(monkeypatch, d3):
    """On D3 (N = 6) the reduction images of each sign are one Schur
    complement: one inverse of the leading m x m block of L per sign, where
    an entrywise quasideterminant inverted it once per image."""
    build_lops(d3, K)
    ring_inverse = quasidet.ring_inverse
    for m in (1, 2):
        sizes = []

        def counted(A, one):
            sizes.append(len(A))
            return ring_inverse(A, one)

        monkeypatch.setattr(quasidet, "ring_inverse", counted)
        checks = check_psi_consistency(d3, m, K)
        assert all_pass(checks), failures(checks)
        assert sizes == [m, m]


def test_psi_fails_when_the_images_read_a_wrong_inverse(monkeypatch, capsys, d2):
    """After the build, images read through a wrong inverse of the leading
    block of L disagree with the central blocks of the Gauss factors: both
    image items fail with a row/col witness, and `qav check` exits 1."""
    build_lops(d2, K)
    ring_inverse = quasidet.ring_inverse

    def wrong(A, one):
        inv = ring_inverse(A, one)
        inv[0][0] = inv[0][0] + one
        return inv

    monkeypatch.setattr(quasidet, "ring_inverse", wrong)
    argv = ["check", "psi", "--type", "D", "--rank", "2", "--order", str(K)]
    assert cli.run([*argv, "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["reports"][0]["checks"]
    failed = {c["name"]: c["witness"] for c in checks if c["status"] == "fail"}
    assert failed == {
        f"D2 m=1: reduction images match trailing blocks ({s})": {"row": 2, "col": 2}
        for s in "+-"
    }


def test_lowrank_b1(b1):
    checks = check_lowrank(b1, K)
    assert len(checks) >= 40
    assert all_pass(checks), failures(checks)


def test_lowrank_d2(d2):
    checks = check_lowrank(d2, K)
    assert len(checks) >= 100
    assert all_pass(checks), failures(checks)
    names = " | ".join(c["name"] for c in checks)
    assert "e23" in names and "f32" in names and "e14" in names and "e24" in names


def test_lowrank_rejects_other_algebras():
    """lowrank reports one skipped item on an algebra with no battery, before
    it reads the order or builds anything."""
    assert check_lowrank(AlgebraData("B", 2), 2) == [
        {
            "name": "low-rank battery, B2",
            "status": "skipped",
            "reason": "defined for type B rank 1 and type D rank 2 only",
        }
    ]


@pytest.mark.parametrize(
    "suite, name",
    [(check_eiprei, "mirror identities, B1"), (check_psi, "reduction consistency, B1")],
    ids=["eiprei", "psi"],
)
def test_rank_one_suites_report_their_skip(suite, name):
    """eiprei and psi report one skipped item at rank 1, the item the CLI
    prints."""
    assert suite(AlgebraData("B", 1), K) == [
        {"name": name, "status": "skipped", "reason": "needs rank at least 2"}
    ]


def test_relrbar_smoke(b1, d2):
    for alg in (b1, d2):
        checks = check_relrbar(alg, K, 2)
        assert all_pass(checks), failures(checks)


def test_scalar_series_reads_coefficients_in_exponent_order():
    """The scalar series stops before the lowest non-scalar exponent,
    whatever the order in which the coefficients were inserted."""
    ident = SparseMat.identity(2)
    x = SparseMat.unit(2, 0, 1)
    twice = ident.scale(Scalar.from_int(2))
    for coeffs in ({1: twice, 3: x, 0: ident}, {0: ident, 1: twice, 3: x}):
        zser, item = lop._scalar_series("z", TruncSeries(AT_ZERO, 4, coeffs))
        assert str(zser) == "(1) * 1 + (2) * u"
        assert item["status"] == "fail" and item["witness"] == {"exponent": 3}


def test_z_series_b1(b1):
    zp, zm, checks = z_series(b1, K)
    assert all_pass(checks), failures(checks)
    assert zp.direction == AT_ZERO and zm.direction == AT_INFINITY
    # central series starts at 1 + O(u): constant term is invertible
    assert not zp.coefficient(0).is_zero()


def test_eiprei_d2(d2):
    checks = check_eiprei(d2, K)
    assert all_pass(checks), failures(checks)


def test_psi_consistency_d2(d2):
    checks = check_psi_consistency(d2, 1, K)
    assert all_pass(checks), failures(checks)
    with pytest.raises((LopError, ValueError)):
        check_psi_consistency(d2, 2, K)  # m must be < n


def test_main_structure_b1(b1):
    checks = check_main_theorem_structure(b1, K)
    assert all_pass(checks), failures(checks)


def test_bivar_zero_window_follows_the_part_directions(b1):
    """The window is [-K, K] in each variable, K the least order of the
    parts; a part at infinity floors its variable's modes at minus its
    order plus the largest exponent of that variable in the cleared
    prefactor, and a part at zero, whose order is at least K, caps none."""
    lops = build_lops(b1, 4)
    hp, hm = lops.gp.h(1), lops.gm.h(1)
    u, v = lop._U, lop._V

    def window(pref, upart, vpart):
        terms = [(pref, upart, vpart, "uv"), (-pref, upart, vpart, "vu")]
        item = lop._bivar_zero("window", terms)
        assert item["status"] == "pass"
        return item["modes_u"], item["modes_v"]

    assert window(lop.ONE, hp, hp) == ([-4, 4], [-4, 4])
    assert window(lop.ONE, hm, hm) == ([-4, 4], [-4, 4])
    assert window(lop.ONE, hp, hm) == ([-4, 4], [-4, 4])
    # u^2 v: the prefactor raises the floor of a part at infinity, by 2 for
    # u and by 1 for v
    assert window(u * u * v, hp, hm) == ([-4, 4], [-3, 4])
    assert window(u * u * v, hm, hp) == ([-2, 4], [-4, 4])
    assert window(lop.ONE, hp, None) == ([-4, 4], [-4, 4])
    assert window(lop.ONE, None, hm) == ([-4, 4], [-4, 4])


def test_fused_sums_add_no_matrices(fresh_builds, monkeypatch):
    """_bivar_zero, the products of matrix series and the Serre sum form
    every entry with one fused dot, so during relrbar on B1 and D2 none of
    them adds two SparseMats; and _bivar_zero forms no matrix product, and
    one matrix sum of products per item and per distinct lift of a series
    (relrbar lifts no None part), so it makes one Scalar.dot per nonzero
    entry of each: 1044 on D2, where one per entry of every bi-mode made
    3568."""
    inside = [0]
    in_bivar = [0]
    calls = {"_bivar_zero": 0, "serre_sum": 0, "__mul__": 0, "inverse": 0, "add": 0}
    calls.update(matmul=0, sum_of_products=0, _lift=0, dot=0)

    def counted(owner, name, depths=(inside,)):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            for depth in depths:
                depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                for depth in depths:
                    depth[0] -= 1

        monkeypatch.setattr(owner, name, wrapper)

    counted(lop, "_bivar_zero", (inside, in_bivar))
    counted(lop, "_lift")
    counted(vecrep, "serre_sum")
    counted(TruncSeries, "__mul__")
    counted(TruncSeries, "inverse")
    add, mul = SparseMat.__add__, SparseMat.__mul__
    sum_of_products, dot = SparseMat.sum_of_products, Scalar.dot

    def counted_add(a, b):
        calls["add"] += inside[0] > 0
        return add(a, b)

    def counted_mul(a, b):
        calls["matmul"] += in_bivar[0] > 0
        return mul(a, b)

    def counted_sum_of_products(terms, nrows, ncols):
        calls["sum_of_products"] += in_bivar[0] > 0
        return sum_of_products(terms, nrows, ncols)

    def counted_dot(pairs):
        calls["dot"] += in_bivar[0] > 0
        return dot(pairs)

    monkeypatch.setattr(SparseMat, "__add__", counted_add)
    monkeypatch.setattr(SparseMat, "__mul__", counted_mul)
    monkeypatch.setattr(
        SparseMat, "sum_of_products", staticmethod(counted_sum_of_products)
    )
    monkeypatch.setattr(Scalar, "dot", staticmethod(counted_dot))
    shape = ("_bivar_zero", "_lift", "sum_of_products", "dot")
    runs = []
    for args in (
        ["--type", "B", "--rank", "1", "--order", "4"],
        ["--type", "D", "--rank", "2", "--order", "4", "--window", "2"],
    ):
        before = [calls[name] for name in shape]
        assert cli.run(["check", "relrbar", *args, "--format", "json"]) == 0
        runs.append(tuple(calls[name] - b for name, b in zip(shape, before)))
    assert all(calls[name] for name in ("_bivar_zero", "serre_sum", "__mul__"))
    assert calls["inverse"]
    assert calls["add"] == 0
    assert calls["matmul"] == 0
    # (items, distinct lifts, sums of products, dots) on B1, then on D2
    assert runs == [(22, 136, 158, 374), (56, 328, 384, 1044)]


@pytest.mark.parametrize("type_, rank, calls", [("B", 1, 4), ("D", 2, 8)])
def test_relrbar_rescales_each_current_once_per_shift(
    type_, rank, calls, monkeypatch
):
    """relrbar (c) reads each current at its one shift, q^a for the first
    index a of its node's pair, and rescales each Gauss half once: 4
    rescalings on B1 and 8 on D2, not 4 per item."""
    alg = AlgebraData(type_, rank)
    build_lops(alg, 4)
    scale_arg = TruncSeries.scale_arg
    count = [0]

    def counted(self, c):
        count[0] += 1
        return scale_arg(self, c)

    monkeypatch.setattr(TruncSeries, "scale_arg", counted)
    checks = check_relrbar(alg, 4, 2)
    assert all_pass(checks), failures(checks)
    assert count[0] == calls


def test_lowrank_battery_reads_the_representation_size_from_l(b1):
    """L-operators whose coefficients are M x M with M != N: B1's L with
    every coefficient tensored with the 2 x 2 identity has the Gauss factors
    of B1 tensored with it, so its rank-one battery gives B1's items."""
    lops = build_lops(b1, 4)
    ident = SparseMat.identity(2)

    def tensored(L):
        def entry(x):
            coeffs = {m: c.kron(ident) for m, c in x.coeffs.items()}
            return TruncSeries(x.direction, x.order, coeffs)

        return [[entry(x) for x in row] for row in L]

    lops2 = lop._decompose(b1, lops.wiring, tensored(lops.lp), tensored(lops.lm))
    assert all_pass(lops2.checks), failures(lops2.checks)
    got = lop._battery_rank1_b(lop.GenSource(lops2), "B1")
    want = lop._battery_rank1_b(lop.GenSource(lops), "B1")
    assert len(want) == 40 and all_pass(want), failures(want)
    assert got == want


def test_gen_source_reads_labels_and_forms_each_product_once(d2):
    """A label names the series of the local indices, offset included;
    h1^-1 is the inverse of h1, formed once, and mul returns the product it
    formed first."""
    lops = build_lops(d2, K)
    src = lop.GenSource(lops, offset=1)
    for s in (1, -1):
        assert src.gen("e12", s) is lops.g(s).e(2, 3)
        assert src.gen("f21", s) is lops.g(s).f(3, 2)
        assert src.gen("h2", s) is lops.g(s).h(3)
        assert (src.gen("h1^-1", s) - src.h(1, s).inverse()).is_zero()
        assert src.gen("h1^-1", s) is src.gen("h1^-1", s)
        prod = src.mul("h2", "e12", s)
        assert (prod - src.h(2, s) * src.e(1, 2, s)).is_zero()
        assert src.mul("h2", "e12", s) is prod
    assert src.mul("h2", "e12", 1) is not src.mul("h2", "e12", -1)


def test_lowrank_forms_each_product_once_per_sign(monkeypatch, b1, d2):
    """On built L-operators, the B1 battery forms 18 series products and 2
    inverses at order 10, and the D2 battery 44 and 2: each product of two
    generator series and the inverse of h1 once per sign."""
    counts = {"mul": 0, "inverse": 0}
    mul, inverse = TruncSeries.__mul__, TruncSeries.inverse

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(TruncSeries, "__mul__", counted("mul", mul))
    monkeypatch.setattr(TruncSeries, "inverse", counted("inverse", inverse))
    for alg, want in ((b1, (18, 2)), (d2, (44, 2))):
        build_lops(alg, 10)
        counts.update(mul=0, inverse=0)
        assert all_pass(check_lowrank(alg, 10))
        assert (counts["mul"], counts["inverse"]) == want, alg


def test_b1_f_prefactors_are_the_e_prefactors_with_u_and_v_swapped():
    """The f21 quadratic's B, C, D1 and E1 are those of e12 with the free
    factor u or v swapped; both sets equal the hand-written formulas."""
    u, v, q, qi, qmq = lop._U, lop._V, lop._Q, lop._QI, lop._QMQ
    one, mone = lop.ONE, lop._MONE
    qhi = Scalar.q_pow(Fraction(-1, 2))

    def hand_written(x, y):
        return [
            mone * qmq * y * (qi * u - q * v).inverse(),
            mone * (u - qi * v) * (one - qi * qi) * x
            * ((qi * u - v) * (u - qi * qi * v)).inverse(),
            (u - v) * qhi * (qi * qi - one) * x
            * ((qi * u - v) * (u - qi * qi * v)).inverse(),
            (u - v) * qhi * (qi - q) * y
            * ((qi * u - v) * (qi * u - q * v)).inverse(),
        ]

    e_pres = lop._b1_quadratic_prefactors(swap=False)
    f_pres = lop._b1_quadratic_prefactors(swap=True)
    assert e_pres == hand_written(u, v)
    assert f_pres == hand_written(v, u)
    assert all(e != f for e, f in zip(e_pres, f_pres))


def test_bivar_zero_reads_the_identity_part(b1):
    """The e-f commutator against the h-ratio holds; with its ratio_u series
    bumped at mode 2, its only nonzero contribution is that of the
    (prefactor, ratio_u, None) term, whose None part is the identity at v
    mode 0, and the relation fails at u mode 2."""
    src = lop.GenSource(build_lops(b1, 4))
    u, v, qmq = lop._U, lop._V, lop._QMQ
    e12, f21 = src.e(1, 2, 1), src.f(2, 1, 1)
    ratio = src.h(2, 1) * src.h(1, 1).inverse()
    bump = TruncSeries(AT_ZERO, 4, {2: SparseMat.unit(b1.N, 0, 0)})
    duv = u - v
    pre = qmq * v * duv.inverse()

    def item(ratio_u):
        terms = [
            (lop.ONE, e12, f21, "uv"),
            (lop._MONE, e12, f21, "vu"),
            (lop._MONE * pre, None, ratio, "uv"),
            (pre, ratio_u, None, "uv"),
        ]
        return lop._bivar_zero("[e12+(u), f21+(v)] vs h-ratio", terms, duv)

    assert item(ratio)["status"] == "pass"
    bad = item(ratio + bump)
    assert bad["status"] == "fail"
    assert (bad["witness"]["u_mode"], bad["witness"]["v_mode"]) == (2, 1)


def _current_terms(pref, x, y, order) -> list:
    """The terms of pref * x(u) y(v) in the given order, spelled out: x and
    y are tuples of Gauss series with coefficients +1, -1, a current its
    pair (plus half, minus half) of _current_halves and a single series a
    1-tuple."""
    return [
        (pref if a == b else -pref, xh, yh, order)
        for a, xh in zip((1, -1), x)
        for b, yh in zip((1, -1), y)
    ]


def _bivar_zero_reference(name, K, terms, clearing=lop.ONE) -> dict:
    """_bivar_zero by matrix products, as an oracle: every product U(a) V(b)
    of a term is a SparseMat, memoised per (term, u mode, v mode), and each
    bi-mode is the sum_of_products of its products scaled by the prefactor
    monomials."""
    expanded = []
    alo, ahi, blo, bhi = -K, K, -K, K
    for pref, U, V, order in terms:
        poly = (pref * clearing).uv_coeffs()
        keys = [k for k, c in poly.items() if not c.is_zero()]
        if not keys:
            continue
        # a series at zero holds the exponents 0..order, one at infinity
        # -order..0; below or above them it is not known
        if U is not None:
            if U.direction == AT_ZERO:
                ahi = min(ahi, U.order + min(k[0] for k in keys))
            else:
                alo = max(alo, -U.order + max(k[0] for k in keys))
        if V is not None:
            if V.direction == AT_ZERO:
                bhi = min(bhi, V.order + min(k[1] for k in keys))
            else:
                blo = max(blo, -V.order + max(k[1] for k in keys))
        expanded.append(([(k, poly[k]) for k in keys], U, V, order))
    if alo > ahi or blo > bhi:
        raise LopError(f"{name}: empty determined window")
    parts = [p for _, U, V, _ in expanded for p in (U, V) if p is not None]
    M = next((x.nrows for p in parts for x in p.coeffs.values()), 0)
    products = {}

    def product(t, a, b):
        if (t, a, b) not in products:
            _, U, V, order = expanded[t]
            if U is None:
                prod = V.get(b) if a == 0 else None
            elif V is None:
                prod = U.get(a) if b == 0 else None
            else:
                x, y = U.get(a), V.get(b)
                if x is None or y is None:
                    prod = None
                else:
                    prod = x * y if order == "uv" else y * x
            products[t, a, b] = prod
        return products[t, a, b]

    def total(alpha, beta):
        prods = []
        for t, (coeffs, _, _, _) in enumerate(expanded):
            for (i, j), c in coeffs:
                prod = product(t, alpha - i, beta - j)
                if prod is not None:
                    prods.append((c, prod, None))
        return SparseMat.sum_of_products(prods, M, M)

    modes = [(a, b) for a in range(alo, ahi + 1) for b in range(blo, bhi + 1)]
    item = first_failure(
        name, (({"u_mode": a, "v_mode": b}, total(a, b)) for a, b in modes)
    )
    if item["status"] == "fail":
        return item
    return check(
        name, True, modes_u=[alo, ahi], modes_v=[blo, bhi], points=len(modes)
    )


def test_bivar_zero_matches_the_matrix_product_route(b1, d2):
    """_bivar_zero gives the item of the matrix-product oracle, witnesses
    included, on relations that hold on B1 and D2 and on the same relations
    broken by a bump on the u side, on the v side, inside a "vu" term, by
    two bumps at other modes and entries, in a None-part term under a
    clearing polynomial, and in either Gauss half of an argument-shifted
    current; and _exchange on two currents, cleared by u - q^e v, gives the
    oracle's item of their four-product terms, with and without a bump on
    both sides."""
    u, v, qmq = lop._U, lop._V, lop._QMQ
    duv = u - v
    pre = qmq * v * duv.inverse()
    cases = {}
    for alg in (b1, d2):
        src = lop.GenSource(build_lops(alg, K))
        h1, h2 = src.h(1, 1), src.h(2, -1)
        e12, f21 = src.e(1, 2, 1), src.f(2, 1, -1)
        ratio = {s: src.mul("h2", "h1^-1", s) for s in (1, -1)}

        def bump(x, mode, i, j):
            unit = SparseMat.unit(alg.N, i, j)
            return x + TruncSeries(x.direction, K, {mode: unit})

        def hh(hu, hv, hu_vu, hv_vu):
            return [(lop.ONE, hu, hv, "uv"), (lop._MONE, hu_vu, hv_vu, "vu")]

        def ef(ratio_u):
            return lop._commutator(e12, f21) + [
                (lop._MONE * pre, None, ratio[-1], "uv"),
                (pre, ratio_u, None, "uv"),
            ]

        tag = str(alg)
        cases[tag, "hh"] = (hh(h1, h2, h1, h2), lop.ONE)
        cases[tag, "u bump"] = (hh(bump(h1, 2, 0, 1), h2, h1, h2), lop.ONE)
        cases[tag, "v bump"] = (hh(h1, bump(h2, 1, 0, 1), h1, h2), lop.ONE)
        cases[tag, "vu bump"] = (hh(h1, h2, bump(h1, 3, 1, 0), h2), lop.ONE)
        # the bump at the higher mode is at the lesser entry
        two = bump(bump(h1, 3, 0, 1), 2, 1, 0)
        cases[tag, "two bumps"] = (hh(two, h2, h1, h2), lop.ONE)
        cases[tag, "ef"] = (ef(ratio[1]), duv)
        cases[tag, "None bump"] = (ef(bump(ratio[1], 2, 0, 0)), duv)
    # relrbar (c) on D2: the quadratic relation of the currents 1 and 2 with
    # shifted arguments, each current its two Gauss halves, and the same
    # with a bumped mode of the plus or the minus half
    gs = build_lops(d2, K)
    si, sj = d2.node_pair(1)[0], d2.node_pair(2)[0]
    qe = Scalar.q_pow(d2.Bmat[0][1])

    def halves(i, shift):
        c = Scalar.q_pow(shift)
        return tuple(x.scale_arg(c) for x in lop._current_halves(gs, i, True))

    def bumped(x):
        return x + TruncSeries(x.direction, K, {2: SparseMat.unit(d2.N, 0, 1)})

    Xi, Xj = halves(1, si), halves(2, sj)
    bumps = {
        "": Xj,
        " bump": (bumped(Xj[0]), Xj[1]),
        " minus-half bump": (Xj[0], bumped(Xj[1])),
    }
    for key, X in bumps.items():
        terms = _current_terms(u - qe * v, Xi, Xj, "uv")
        terms += _current_terms(lop._MONE * (qe * u - v), Xi, X, "vu")
        cases["D2", "shifted" + key] = (terms, lop.ONE)
    # the same relation as _exchange states it: pre = (q^e u - v)/(u - q^e v),
    # cleared by u - q^e v, the bump on both sides
    d = u - qe * v
    pre_c = (qe * u - v) * d.inverse()
    for key, X in bumps.items():
        terms = _current_terms(lop.ONE, Xi, X, "uv")
        terms += _current_terms(lop._MONE * pre_c, Xi, X, "vu")
        cases["D2", "exchange" + key] = (terms, d)
    items = {}
    for (tag, key), (terms, clearing) in cases.items():
        name = f"{tag} {key}"
        # every part has order K, the bound _bivar_zero reads from them
        items[tag, key] = _bivar_zero_reference(name, K, terms, clearing)
        assert lop._bivar_zero(name, terms, clearing) == items[tag, key], name
        assert items[tag, key]["status"] == ("fail" if "bump" in key else "pass")
    for tag in ("B1", "D2"):
        assert items[tag, "u bump"]["witness"]["u_mode"] == 2
        assert items[tag, "v bump"]["witness"]["v_mode"] == -1
        assert items[tag, "vu bump"]["witness"]["u_mode"] == 3
        assert items[tag, "None bump"]["witness"]["u_mode"] == 2
        # the least bi-mode first, then the least entry in it
        witness = items[tag, "two bumps"]["witness"]
        assert (witness["u_mode"], witness["row"], witness["col"]) == (2, 1, 0)
    assert items["D2", "shifted bump"]["witness"]["v_mode"] == 2
    assert items["D2", "shifted minus-half bump"]["witness"]["v_mode"] == -2
    for key, X in bumps.items():
        name = f"D2 exchange{key}"
        got = lop._exchange(name, Xi, X, "uv", pre_c, clearing=d)
        assert got == items["D2", "exchange" + key], name


def _hx_prefactors_by_hand(alg, i, j):
    """(plus_pre, minus_pre, clearing) of the exchanges of h_i(u) with
    X_j^+(v) and with X_j^-(v), each prefactor written out."""
    u, v, q, qi, one = lop._U, lop._V, lop._Q, lop._QI, lop.ONE
    n = alg.n
    if i <= n:
        a = sum(x * y for x, y in zip(alg.epsilon[i - 1], alg.roots[j - 1]))
        den = Scalar.q_pow(a) * u - Scalar.q_pow(-a) * v
        return (u - v) * den.inverse(), den * (u - v).inverse(), den * (u - v)
    if alg.type == "B":
        if j <= n - 1:
            return one, one, one
        num = (q * u - v) * (u - v)
        den = (u - q * v) * (q * u - qi * v)
        return num * den.inverse(), den * num.inverse(), num * den
    if j <= n - 2:
        return one, one, one
    den = qi * u - q * v if j == n else q * u - qi * v
    return (u - v) * den.inverse(), den * (u - v).inverse(), den * (u - v)


@pytest.mark.parametrize("type_, rank", [("B", 1), ("D", 2)])
def test_relrbar_exchanges_match_the_explicit_term_route(type_, rank):
    """Every (b) and (c) item of relrbar at order 4 is _bivar_zero over the
    four-product terms of its currents, spelled out with the prefactors
    written out: (b) with the hand-written minus prefactor, and (c) as
    (u - q^e v) X_i(u) X_j(v) - (q^e u - v) X_j(v) X_i(u) with no clearing
    polynomial."""
    alg = AlgebraData(type_, rank)
    order = 4
    lops = build_lops(alg, order)
    n = alg.n
    u, v, one, mone = lop._U, lop._V, lop.ONE, lop._MONE
    halves = {
        (j, plus): lop._current_halves(lops, j, plus)
        for j in range(1, n + 1)
        for plus in (True, False)
    }
    want = []
    for i in range(1, n + 2):
        for j in range(1, n + 1):
            plus_pre, minus_pre, clearing = _hx_prefactors_by_hand(alg, i, j)
            assert lop._hx_prefactors(alg, i, j) == (plus_pre, clearing)
            for plus, pre in ((True, plus_pre), (False, minus_pre)):
                X = halves[j, plus]
                for s, sg in ((1, "+"), (-1, "-")):
                    h = (lops.g(s).h(i),)
                    terms = _current_terms(one, h, X, "uv")
                    terms += _current_terms(mone * pre, h, X, "vu")
                    name = f"(b) h{i}{sg}(u) X{j}{'+' if plus else '-'}(v) exchange"
                    want.append(lop._bivar_zero(name, terms, clearing))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            si, sj = alg.node_pair(i)[0], alg.node_pair(j)[0]
            for plus, sg in ((True, "+"), (False, "-")):
                qe = Scalar.q_pow(alg.Bmat[i - 1][j - 1] * (1 if plus else -1))
                Xi = tuple(x.scale_arg(Scalar.q_pow(si)) for x in halves[i, plus])
                Xj = tuple(x.scale_arg(Scalar.q_pow(sj)) for x in halves[j, plus])
                terms = _current_terms(u - qe * v, Xi, Xj, "uv")
                terms += _current_terms(mone * (qe * u - v), Xi, Xj, "vu")
                want.append(lop._bivar_zero(f"(c) quadratic X{i}{sg}-X{j}{sg}", terms))
    got = [c for c in check_relrbar(alg, order) if c["name"][:3] in ("(b)", "(c)")]
    assert len(got) == 4 * (n + 1) * n + 2 * n * n
    assert got == want
    assert all_pass(got), failures(got)
