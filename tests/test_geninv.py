import hashlib
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from conftest import (
    bordered_sum,
    float_bits,
    nonsingular_matrices,
    prescribed_index,
    random_qmatrix,
    random_rank_deficient,
    reference_inverse_square,
    reference_matmul,
    replace_col,
    replace_row,
)
from qdet import (
    DRAZIN_ROUTES,
    MP_ROUTES,
    WDRAZIN_ROUTES,
    QMatrix,
    Quaternion,
    cdet,
    char_poly,
    ddet,
    check_drazin,
    check_penrose,
    check_wdrazin,
    drazin,
    drazin_all_routes,
    geninv,
    hermitian_inverse,
    index_of,
    inverse,
    inverse_square,
    mat_pow,
    mp_all_routes,
    mp_inverse,
    rank,
    rdet,
    wdrazin,
    wdrazin_all_routes,
    wdrazin_limit_estimate,
)
from qdet.errors import (
    InternalInvariantError,
    ModeError,
    NotHermitianError,
    NumericalBreakdownError,
    PreconditionError,
    RouteDisagreementError,
    ShapeError,
    SingularError,
)
from qdet import matrix
from qdet.cli import format_qmat, main
from qdet.matrix import max_abs_diff


# -- Moore-Penrose -----------------------------------------------------------


def test_mp_identity_and_zero():
    assert mp_inverse(QMatrix.identity(3), "all") == QMatrix.identity(3)
    z = mp_inverse(QMatrix.zeros(2, 3), "all")
    assert z == QMatrix.zeros(3, 2)


def test_mp_of_worked_example_power():
    got = mp_inverse(golden.U5, "all")
    assert got == golden.U5_MP
    assert check_penrose(golden.U5, got).ok


def test_mp_column_of_ones():
    a = QMatrix([[Quaternion.one()], [Quaternion.one()]])
    half = Quaternion.real(Fraction(1, 2))
    assert mp_inverse(a, "all") == QMatrix([[half, half]])


def test_mp_unknown_route():
    with pytest.raises(ValueError):
        mp_inverse(QMatrix.identity(2), "fast")


def test_inverse_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown inverse kind 'pinv'"):
        inverse("pinv", "cdet", QMatrix.identity(2))


def test_inverse_returns_the_result_with_its_provenance():
    assert inverse("mp", "rdet", golden.U5) == (golden.U5_MP, "rdet")
    assert inverse("drazin", "all", golden.U) == (golden.U_DRAZIN, "all:" + ",".join(DRAZIN_ROUTES[:3]))


def test_mp_random_suite(rng):
    for trial in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        if trial % 3 == 0:
            a = random_rank_deficient(rng, m, n, max(1, min(m, n) - 1))
        else:
            a = random_qmatrix(rng, m, n)
        routes = mp_all_routes(a)
        assert routes["cdet"] == routes["rdet"]
        assert check_penrose(a, routes["cdet"]).ok


def test_mp_worked_example_numerator_pieces():
    # The bordered column-determinant sums behind the (1,1) entry of the
    # full-column-rank composition route, checked against hand expansion.
    gw = golden.W_STAR_W
    what = golden.W_STAR @ golden.U2
    sums = [bordered_sum(gw, 0, what.col(t), 3, row=False) for t in range(3)]
    assert sums[0] == Quaternion.zero()
    assert sums[1] == Quaternion(0, 0, -2, 0)
    assert sums[2] == Quaternion.zero()
    gu = golden.U5_STAR_U5
    uhat = golden.U5_STAR @ golden.U2
    col_sums = [bordered_sum(gu, t, uhat.col(0), 2, row=False) for t in range(3)]
    assert col_sums[0] == Quaternion(0, 1, 0, 0)
    assert col_sums[1] == Quaternion.zero()
    assert col_sums[2] == Quaternion.zero()


def test_inverse_routes_answer_without_a_guard():
    # Rank 3 and index 1, with the weight A*, of rank 3: the mp_route
    # routes (full-rank W) sit out, and the Hermitian ones (A*A, A A*) run.
    a = random_rank_deficient(random.Random(4), 4, 4, 3)
    assert (rank(a), index_of(a)) == (3, 1)
    assert check_penrose(a, mp_inverse(a, "all")).ok
    assert check_drazin(a, drazin(a, "all")).ok
    x, provenance = inverse("wdrazin", "all", a, a.H)
    assert provenance == "all:via_drazin_U,via_drazin_V,hermitian_U,hermitian_V"
    assert check_wdrazin(a, a.H, x).ok


def test_route_all_runs_every_route_whose_precondition_holds():
    # Rank 3 with a weight of rank 4: the mp_route routes run beside the
    # via_drazin ones.
    tall = random_rank_deficient(random.Random(7), 5, 4, 3)
    assert rank(tall) == 3 and check_penrose(tall, mp_inverse(tall, "all")).ok
    rng = random.Random(5)
    a = random_qmatrix(rng, 4, 3) @ random_qmatrix(rng, 3, 4)
    w = random_qmatrix(rng, 4, 4)
    assert (rank(a), rank(w)) == (3, 4)
    x, provenance = inverse("wdrazin", "all", a, w)
    assert provenance == "all:via_drazin_U,via_drazin_V,mp_route_U,mp_route_V"
    assert check_wdrazin(a, w, x).ok


def test_the_families_answer_above_the_old_guard():
    # Full-rank exact 12 x 12 inputs: every route expands minors of order
    # 12, beyond the determinants' default guard of 8, and takes no guard.
    rng = random.Random(30)
    a, w = random_qmatrix(rng, 12, 12), random_qmatrix(rng, 12, 12)
    assert rank(a) == rank(w) == 12
    assert mp_inverse(QMatrix.identity(9)) == QMatrix.identity(9)
    for kind, operands, check, provenance in (
        ("mp", (a,), check_penrose, "all:cdet,rdet"),
        ("drazin", (a,), check_drazin, "all:cdet,rdet,mp_composition"),
        ("wdrazin", (a, w), check_wdrazin, "all:via_drazin_U,via_drazin_V,mp_route_U,mp_route_V"),
    ):
        x, made = inverse(kind, "all", *operands)
        assert made == provenance and check(*operands, x).ok, kind
    h = a @ a.H
    assert char_poly(h)[-1] == ddet(h, max_n=12)
    assert hermitian_inverse(h) @ h == QMatrix.identity(12)
    with pytest.raises(TypeError):
        inverse("wdrazin", "all", a)  # no weight


def test_mp_of_large_low_rank_input_stays_within_the_guard():
    # A 12 x 12 input whose minors are all 2 x 2.
    a = random_rank_deficient(random.Random(12), 12, 12, 2)
    assert rank(a) == 2
    start = time.perf_counter()
    x = mp_inverse(a)
    elapsed = time.perf_counter() - start
    assert check_penrose(a, x).ok
    assert elapsed < 5.0


def test_exact_mp_of_a_wide_rank_eight_input_enumerates_no_subsets():
    # The Gram matrix is exact and Hermitian, so both routes take the
    # recurrence, not C(12, <= 8) subset tables.
    rng = random.Random(26)
    a = random_qmatrix(rng, 12, 8) @ random_qmatrix(rng, 8, 12)
    assert rank(a) == 8
    start = time.perf_counter()
    x, provenance = inverse("mp", "all", a)
    elapsed = time.perf_counter() - start
    assert provenance == "all:cdet,rdet"
    assert check_penrose(a, x).ok
    assert elapsed < 1.0


# -- Drazin ------------------------------------------------------------------


def test_drazin_nonsingular_is_plain_inverse():
    a = QMatrix.diagonal([Quaternion(0, 1, 0, 0), Quaternion.real(2)])
    expected = QMatrix.diagonal([Quaternion(0, -1, 0, 0), Quaternion.real(Fraction(1, 2))])
    assert drazin(a, "all") == expected


def test_drazin_of_worked_example_core():
    got = drazin(golden.U, "all")
    assert got == golden.U_DRAZIN
    assert check_drazin(golden.U, got).ok


def test_drazin_of_nilpotent_is_zero():
    n = QMatrix.from_literals([["0", "1"], ["0", "0"]])
    assert drazin(n, "all") == QMatrix.zeros(2, 2)


def test_drazin_hermitian_routes_require_hermitian():
    a = QMatrix.from_literals([["i", "0"], ["0", "1"]])
    with pytest.raises(NotHermitianError):
        drazin(a, "hermitian_cdet")
    with pytest.raises(ShapeError):
        drazin(QMatrix.zeros(2, 3))


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda route: mp_inverse(golden.U, route), "Moore-Penrose"),
        (lambda route: drazin(golden.U, route), "Drazin"),
        (lambda route: drazin(QMatrix.zeros(2, 3), route), "Drazin"),
        (lambda route: wdrazin(golden.A_IN, golden.W_IN, route), "weighted-Drazin"),
        (lambda route: wdrazin(golden.A_IN, QMatrix.zeros(3, 3), route), "weighted-Drazin"),
    ],
    ids=["mp", "drazin", "drazin_nonsquare", "wdrazin", "wdrazin_misshaped"],
)
def test_each_family_checks_the_route_before_analysing(call, what, monkeypatch):
    # An unknown name is a usage error, raised before any rank, index or
    # shape check of the operands.
    calls = []
    for name in ("index_of", "rank"):
        monkeypatch.setattr(geninv, name, lambda a, f=getattr(geninv, name): calls.append(a) or f(a))
    with pytest.raises(ValueError, match=f"unknown {what} route 'bogus'"):
        call("bogus")
    assert calls == []


def test_drazin_random_suite(rng):
    for trial in range(40):
        n = rng.randint(1, 3)
        if trial % 4 == 0:
            a = random_rank_deficient(rng, n, n, max(1, n - 1))
        elif trial % 4 == 1:
            b = random_qmatrix(rng, n, n, span=1)
            a = b @ b.H  # Hermitian: enables the cheap routes
        else:
            a = random_qmatrix(rng, n, n, span=1, sparsity=0.3)
        routes = drazin_all_routes(a)
        if a.is_hermitian():
            assert "hermitian_cdet" in routes and "hermitian_rdet" in routes
        values = list(routes.values())
        assert all(v == values[0] for v in values)
        report = check_drazin(a, values[0])
        assert report.ok, report.human()
        k = index_of(a)
        x = values[0]
        assert mat_pow(a, k + 1) @ x == mat_pow(a, k)
        assert x @ a @ x == x
        assert a @ x == x @ a


@settings(max_examples=25, deadline=None)
@given(prescribed_index(max_index=4))
def test_drazin_of_a_prescribed_index_matches_its_construction(case):
    a, k, ad = case
    assert index_of(a) == k
    assert drazin(a, "all") == ad


# -- weighted Drazin ---------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_wdrazin_of_a_prescribed_index_matches_its_construction(data):
    # W A = U for A = W^-1 U, so A_{d,W} = A (U^D)^2 with U^D known.
    u, _, ud = data.draw(prescribed_index(max_index=4))
    w = data.draw(nonsingular_matrices(u.rows))
    a = reference_matmul(reference_inverse_square(w), u)
    assert wdrazin(a, w, "all") == reference_matmul(a, reference_matmul(ud, ud))


def test_wdrazin_reduces_to_drazin_for_identity_weight(rng):
    for _ in range(10):
        n = rng.randint(1, 3)
        a = random_qmatrix(rng, n, n, span=1, sparsity=0.3)
        assert wdrazin(a, QMatrix.identity(n), "all") == drazin(a, "all")


def test_wdrazin_zero_input():
    a = QMatrix.zeros(2, 3)
    w = QMatrix.zeros(3, 2)
    assert wdrazin(a, w, "all") == QMatrix.zeros(2, 3)


def test_wdrazin_worked_example_all_routes():
    routes = wdrazin_all_routes(golden.A_IN, golden.W_IN)
    assert set(routes) == {"via_drazin_U", "via_drazin_V", "mp_route_V"}
    for name, x in routes.items():
        assert x == golden.ADW, name
    report = check_wdrazin(golden.A_IN, golden.W_IN, golden.ADW)
    assert report.ok, report.human()


def test_wdrazin_identity_compositions():
    x = wdrazin(golden.A_IN, golden.W_IN)
    u = golden.W_IN @ golden.A_IN
    v = golden.A_IN @ golden.W_IN
    assert golden.W_IN @ x == golden.U_DRAZIN == drazin(u, "all")
    assert x @ golden.W_IN == drazin(v, "all")


def test_wdrazin_route_preconditions():
    # The worked example's weight has full row rank only, so the U-side
    # composition route must refuse rather than return a wrong matrix.
    with pytest.raises(PreconditionError):
        wdrazin(golden.A_IN, golden.W_IN, "mp_route_U")
    with pytest.raises(NotHermitianError):
        wdrazin(golden.A_IN, golden.W_IN, "hermitian_U")
    with pytest.raises(NotHermitianError):
        wdrazin(golden.A_IN, golden.W_IN, "hermitian_V")
    with pytest.raises(ShapeError):
        wdrazin(golden.A_IN, QMatrix.zeros(3, 3))
    with pytest.raises(ValueError):
        wdrazin(golden.A_IN, golden.W_IN, "shortcut")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: drazin(golden.U, "hermitian_cdet"),
            NotHermitianError,
            "route 'hermitian_cdet' requires a Hermitian matrix",
        ),
        (
            lambda: drazin(golden.U, "hermitian_rdet"),
            NotHermitianError,
            "route 'hermitian_rdet' requires a Hermitian matrix",
        ),
        (
            lambda: wdrazin(golden.A_IN, golden.W_IN, "hermitian_U"),
            NotHermitianError,
            "route 'hermitian_U' requires W @ A to be Hermitian",
        ),
        (
            lambda: wdrazin(golden.A_IN, golden.W_IN, "hermitian_V"),
            NotHermitianError,
            "route 'hermitian_V' requires A @ W to be Hermitian",
        ),
        (
            lambda: wdrazin(golden.A_IN, golden.W_IN, "mp_route_U"),
            PreconditionError,
            "route 'mp_route_U' requires rank(W) = 4 (full column rank), got 3",
        ),
        (
            lambda: wdrazin(golden.A_IN.H, golden.W_IN.H, "mp_route_V"),
            PreconditionError,
            "route 'mp_route_V' requires rank(W) = 4 (full row rank), got 3",
        ),
    ],
    ids=["hermitian_cdet", "hermitian_rdet", "hermitian_U", "hermitian_V", "mp_route_U", "mp_route_V"],
)
def test_a_single_route_raises_its_precondition_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_wdrazin_mp_route_sides_follow_weight_rank(rng):
    # Wide weight (full row rank): V-side applies; tall weight (full
    # column rank): U-side applies.
    a_tall = random_qmatrix(rng, 3, 2, span=1)
    w_wide = random_qmatrix(rng, 2, 3, span=1)
    while rank(w_wide) < 2:
        w_wide = random_qmatrix(rng, 2, 3, span=1)
    routes = wdrazin_all_routes(a_tall, w_wide)
    assert "mp_route_V" in routes and "mp_route_U" not in routes

    a_wide = random_qmatrix(rng, 2, 3, span=1)
    w_tall = random_qmatrix(rng, 3, 2, span=1)
    while rank(w_tall) < 2:
        w_tall = random_qmatrix(rng, 3, 2, span=1)
    routes = wdrazin_all_routes(a_wide, w_tall)
    assert "mp_route_U" in routes and "mp_route_V" not in routes


def test_wdrazin_hermitian_routes_via_adjoint_weight(rng):
    for _ in range(10):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_qmatrix(rng, m, n, span=1)
        w = a.H  # makes both WA and AW Hermitian
        routes = wdrazin_all_routes(a, w)
        assert "hermitian_U" in routes and "hermitian_V" in routes
        values = list(routes.values())
        assert all(v == values[0] for v in values)
        assert check_wdrazin(a, w, values[0]).ok


def test_wdrazin_random_suite(rng):
    for trial in range(30):
        shape = [(3, 3), (3, 2), (2, 3), (2, 2)][trial % 4]
        m, n = shape
        if trial % 5 == 0:
            a = random_rank_deficient(rng, m, n, 1)
            w = random_qmatrix(rng, n, m, span=1)
        elif trial % 5 == 1:
            a = random_qmatrix(rng, m, n, span=1)
            w = random_rank_deficient(rng, n, m, 1)
        else:
            a = random_qmatrix(rng, m, n, span=1, sparsity=0.2)
            w = random_qmatrix(rng, n, m, span=1, sparsity=0.2)
        routes = wdrazin_all_routes(a, w)
        values = list(routes.values())
        assert all(v == values[0] for v in values), list(routes)
        report = check_wdrazin(a, w, values[0])
        assert report.ok, report.human()


# -- one analysis per problem ------------------------------------------------

HERMITIAN = QMatrix.from_literals([["1", "i"], ["-i", "1"]])
A_TALL = QMatrix.from_literals([["1", "i"], ["j", "0"], ["0", "k"]])
W_WIDE = QMatrix.from_literals([["1", "0", "i"], ["0", "1", "j"]])  # full row rank

DRAZIN_CASES = [golden.U, golden.A_IN @ golden.W_IN, HERMITIAN, QMatrix.zeros(2, 2)]
WDRAZIN_CASES = [
    (golden.A_IN, golden.W_IN),
    (HERMITIAN, QMatrix.identity(2)),
    (A_TALL, W_WIDE),
    (A_TALL.H, W_WIDE.H),  # full column rank
    (QMatrix.zeros(2, 3), QMatrix.zeros(3, 2)),
    (golden.A_IN, golden.A_IN.H),
]


def test_all_routes_run_exactly_the_routes_that_do_not_refuse():
    ran = set()
    for a in DRAZIN_CASES:
        routes = drazin_all_routes(a)
        for name in DRAZIN_ROUTES:
            try:
                x = drazin(a, name)
            except NotHermitianError:
                assert name not in routes
            else:
                assert routes[name] == x
                ran.add(("drazin", name))
    for a, w in WDRAZIN_CASES:
        routes = wdrazin_all_routes(a, w)
        for name in WDRAZIN_ROUTES:
            try:
                x = wdrazin(a, w, name)
            except (NotHermitianError, PreconditionError):
                assert name not in routes
            else:
                assert routes[name] == x
                ran.add(("wdrazin", name))
    assert ran == {("drazin", r) for r in DRAZIN_ROUTES} | {("wdrazin", r) for r in WDRAZIN_ROUTES}


def _perturb_drazin_rdet(monkeypatch, eps):
    """Make the Drazin rdet route return its result plus eps * I."""
    refusal, build = geninv._DRAZIN.routes["rdet"]

    def perturbed(s):
        x = build(s)
        return x + QMatrix.identity(x.rows, x.mode) * eps

    monkeypatch.setitem(geninv._DRAZIN.routes, "rdet", (refusal, perturbed))


def test_all_refuses_routes_that_disagree_in_exact_mode(monkeypatch):
    _perturb_drazin_rdet(monkeypatch, Fraction(1, 10**12))
    with pytest.raises(RouteDisagreementError, match=r"Drazin routes disagree: cdet vs rdet"):
        inverse("drazin", "all", golden.U)
    # A single route is not compared with anything.
    x, provenance = inverse("drazin", "rdet", golden.U)
    assert provenance == "rdet" and x != golden.U_DRAZIN


def test_all_compares_float_routes_within_the_agreement_tolerance(monkeypatch):
    u = golden.U.to_float()
    with monkeypatch.context() as m:
        _perturb_drazin_rdet(m, 1e-10)
        assert 1e-10 < geninv.FLOAT_AGREEMENT_TOL
        assert inverse("drazin", "all", u)[0] == golden.U_DRAZIN.to_float()  # the first route's result
    _perturb_drazin_rdet(monkeypatch, 1e-6)
    with pytest.raises(RouteDisagreementError, match="cdet vs rdet"):
        inverse("drazin", "all", u)


def test_a_route_disagreement_exits_as_verification_failure(monkeypatch, tmp_path, capsys):
    path = tmp_path / "u.qmat"
    path.write_text(format_qmat(golden.U))
    _perturb_drazin_rdet(monkeypatch, Fraction(1, 10**12))
    assert main(["drazin", "-i", str(path), "--route", "all"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("qdet: verification failure: Drazin routes disagree")


def test_index_is_computed_once_per_analysed_matrix(monkeypatch):
    calls = []
    index_of = geninv.index_of
    monkeypatch.setattr(geninv, "index_of", lambda a: calls.append(a) or index_of(a))
    drazin_all_routes(golden.U)
    assert len(calls) == 1
    calls.clear()
    wdrazin_all_routes(golden.A_IN, golden.W_IN)
    assert len(calls) == 2  # U and V


def test_weighted_routes_read_each_power_from_one_table(monkeypatch):
    products, ranks = [], []
    matmul = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    counted = lambda a, f=rank: ranks.append(a) or f(a)  # noqa: E731
    for module in (geninv, matrix):
        monkeypatch.setattr(module, "rank", counted)
    wdrazin_all_routes(golden.A_IN, golden.W_IN)
    # index_of fills the analyses' tables, so no power or rank is made twice.
    # Ind V = k = 2 and the two exact passes of V are equal, so mp_route_V
    # reads via_drazin_V's V^k N V^k from the V table.
    assert (len(products), len(ranks)) == (25, 6)


def test_drazin_makes_no_product_twice_and_none_with_the_identity(monkeypatch):
    made = []
    product = matrix._product
    monkeypatch.setattr(matrix, "_product", lambda a, b, mode: made.append(1) or product(a, b, mode))
    counts = []
    for a in (golden.U, QMatrix.from_literals([["1", "i"], ["j", "2"]])):  # index 1, then 0
        made.clear()
        drazin(a, "all")
        counts.append(len(made))
    # Index 1: A^2 and A^3, two products per kernel pass, A N A once for the
    # equal exact passes of cdet and rdet, and mp_composition's two.  Index 0:
    # the kernel passes alone, every A^0 factor being free.
    assert counts == [10, 4]


def test_float_mp_of_a_wide_rank_eight_input_passes_its_check():
    # A float Gram matrix is read as the exact matrix it stands for, so the
    # rank-8 cofactors come from the recurrence, rounded once, and the
    # inverse passes the Penrose check in well under a second.
    rng = random.Random(2)
    a = (random_qmatrix(rng, 12, 8) @ random_qmatrix(rng, 8, 12)).to_float()
    assert rank(a) == 8
    start = time.perf_counter()
    x, provenance = inverse("mp", "all", a)
    elapsed = time.perf_counter() - start
    assert provenance == "all:cdet,rdet"
    assert check_penrose(a, x).ok
    assert elapsed < 1.0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_the_hermitian_drazin_routes_share_one_cofactor_pass(monkeypatch, mode):
    # hermitian_cdet and hermitian_rdet read one pass on A^(k+1); cdet and
    # rdet make one each, on their Gram matrices.
    b = QMatrix.from_literals([["1", "i"], ["j", "2"], ["1+k", "0"]])
    h = b @ b.H  # Hermitian, rank 2, index 1
    h = h if mode == "exact" else h.to_float()
    passes = []
    bordered = geninv._bordered_cofactors
    monkeypatch.setattr(geninv, "_bordered_cofactors", lambda g, r: passes.append(g) or bordered(g, r))
    x, provenance = inverse("drazin", "all", h)
    assert provenance == "all:" + ",".join(DRAZIN_ROUTES)
    assert check_drazin(h, x).ok
    assert len(passes) == 3 and sum(g == h @ h for g in passes) == 1


def test_each_kernel_pass_runs_once_per_call(monkeypatch):
    passes, ranks = [], []
    bordered, rank_of = geninv._bordered_cofactors, geninv.rank
    monkeypatch.setattr(geninv, "_bordered_cofactors", lambda g, r: passes.append(1) or bordered(g, r))
    monkeypatch.setattr(geninv, "rank", lambda a: ranks.append(1) or rank_of(a))
    counts = []
    for call in (
        lambda: drazin_all_routes(golden.U),  # mp_composition reads the cdet pass
        lambda: wdrazin_all_routes(A_TALL.H, W_WIDE.H),  # mp_route_U shares via_drazin_U's
        lambda: mp_all_routes(A_TALL),  # one rank for both routes
    ):
        passes.clear()
        ranks.clear()
        call()
        counts.append((len(passes), len(ranks)))
    assert counts == [(2, 0), (3, 1), (2, 1)]


def test_rank_of_the_weight_is_made_only_when_read(monkeypatch):
    # Only the mp_route refusals and builders read rank(W); a limit
    # estimate and a single via_drazin route never do.
    ranks, rank_of = [], geninv.rank
    monkeypatch.setattr(geninv, "rank", lambda a: ranks.append(1) or rank_of(a))
    a, w = golden.A_IN.to_float(), golden.W_IN.to_float()
    wdrazin_limit_estimate(a, w, 1e-3)
    wdrazin(golden.A_IN, golden.W_IN, "via_drazin_U")
    assert ranks == []
    wdrazin(A_TALL, W_WIDE, "mp_route_V")  # the refusal and the builder read one rank
    assert ranks == [1]


def test_the_hermitian_verdict_is_made_once_per_analysis(monkeypatch):
    # Both Hermitian routes of route="all" refuse on one verdict on A.
    a, is_hermitian = golden.U.to_float(), QMatrix.is_hermitian
    assert not is_hermitian(a)
    verdicts = []
    monkeypatch.setattr(QMatrix, "is_hermitian", lambda x: verdicts.append(1) or is_hermitian(x))
    drazin(a, "all")
    assert verdicts == [1]


def test_rank_zero_input_has_the_zero_inverse_in_every_family():
    # A nonzero float input of float rank 0 meets the kernels' order-0 case.
    tiny = QMatrix([[Quaternion(1e-200, mode="float")]])
    zero = QMatrix.zeros(1, 1, "float")
    for route in ("cdet", "rdet", "all"):
        assert mp_inverse(tiny, route) == zero
        assert drazin(tiny, route) == zero
    assert wdrazin(tiny, tiny, "all") == zero


@pytest.mark.parametrize(
    "mode, error", [("exact", InternalInvariantError), ("float", NumericalBreakdownError)]
)
def test_kernels_refuse_a_broken_minor_sum(monkeypatch, mode, error):
    # Gram minor sums must be positive, Hermitian ones nonzero.
    bordered = geninv._bordered_cofactors
    d = [0]
    monkeypatch.setattr(geninv, "_bordered_cofactors", lambda g, r: (bordered(g, r)[0], d[0]))
    h = QMatrix.from_literals([["2", "i"], ["-i", "2"]])
    h = h.to_float() if mode == "float" else h
    for route in ("cdet", "rdet"):
        with pytest.raises(error):
            mp_inverse(h, route)
    with pytest.raises(error):
        drazin(h, "hermitian_cdet")
    d[0] = -1
    with pytest.raises(error):
        mp_inverse(h, "cdet")


def test_readme_route_table_lists_the_route_tuples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in readme.splitlines():
        row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if row:
            table[row.group(1)] = tuple(re.findall(r"`(\w+)`", row.group(2)))
    assert table == {"mp_inverse": MP_ROUTES, "drazin": DRAZIN_ROUTES, "wdrazin": WDRAZIN_ROUTES}


# -- rank and coefficient analogues used by the special-case routes ----------


def test_bordered_column_rank_inequality(rng):
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_qmatrix(rng, m, n, span=1, sparsity=0.2)
        w = random_qmatrix(rng, n, m, span=1, sparsity=0.2)
        v = a @ w
        k = max(index_of(w @ a), index_of(v))
        vk2 = mat_pow(v, k + 2)
        vbar = mat_pow(v, k) @ a
        base = rank(vk2)
        for i in range(m):
            for j in range(n):
                assert rank(replace_col(vk2, i, vbar.col(j))) <= base


def test_bordered_row_rank_inequality(rng):
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_qmatrix(rng, m, n, span=1, sparsity=0.2)
        w = random_qmatrix(rng, n, m, span=1, sparsity=0.2)
        u = w @ a
        k = max(index_of(u), index_of(a @ w))
        uk2 = mat_pow(u, k + 2)
        ubar = a @ mat_pow(u, k)
        base = rank(uk2)
        for i in range(n):
            for j in range(m):
                assert rank(replace_row(uk2, i, ubar.row(j))) <= base


def test_shifted_cdet_coefficient_expansion(rng):
    # For Hermitian V = A A*: the column determinant of the shifted,
    # column-replaced power expands with coefficients given by bordered
    # principal-minor sums; checked exactly at m+1 integer shifts.
    for _ in range(8):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_qmatrix(rng, m, n, span=1)
        w = a.H
        v = a @ w
        k = max(index_of(w @ a), index_of(v))
        vk2 = mat_pow(v, k + 2)
        vbar = mat_pow(v, k) @ a
        i = rng.randrange(m)
        j = rng.randrange(n)
        coeffs = [bordered_sum(vk2, i, vbar.col(j), s, row=False) for s in range(1, m + 1)]
        full = cdet(i + 1, replace_col(vk2, i, vbar.col(j)))
        assert coeffs[-1] == full
        for t in range(m + 1):
            shifted = QMatrix.diagonal([Quaternion.real(t)] * m) + vk2
            lhs = cdet(i + 1, replace_col(shifted, i, vbar.col(j)))
            rhs = Quaternion.zero()
            for s, c in enumerate(coeffs, start=1):
                rhs = rhs + c * Fraction(t) ** (m - s)
            assert lhs == rhs


# -- limit representation ----------------------------------------------------


def test_limit_estimate_requires_float_mode():
    with pytest.raises(ModeError):
        wdrazin_limit_estimate(golden.A_IN, golden.W_IN, 1e-6)
    with pytest.raises(ValueError):
        wdrazin_limit_estimate(golden.A_IN.to_float(), golden.W_IN.to_float(), 0.0)


def test_limit_estimate_converges_on_worked_example():
    exact = golden.ADW.to_float()
    af, wf = golden.A_IN.to_float(), golden.W_IN.to_float()
    errors = []
    for lam in (1e-2, 1e-4, 1e-6, 1e-8):
        est = wdrazin_limit_estimate(af, wf, lam)
        errors.append((max_abs_diff(est.via_aw, exact), max_abs_diff(est.via_wa, exact)))
    for prev, cur in zip(errors, errors[1:]):
        assert cur[0] < prev[0]
        assert cur[1] < prev[1]
    assert errors[-1][0] < 1e-5
    assert errors[-1][1] < 1e-5


def test_limit_estimate_identity_weight_hermitian_inverse(rng):
    # Invertible Hermitian input with identity weight: the estimate at a
    # tiny shift approximates the ordinary inverse.
    a = QMatrix.from_literals([["2", "i"], ["-i", "2"]])
    inv = QMatrix.from_literals([["2", "-i"], ["i", "2"]]) / 3
    est = wdrazin_limit_estimate(a.to_float(), QMatrix.identity(2).to_float(), 1e-10)
    assert max_abs_diff(est.via_aw, inv.to_float()) < 1e-8
    assert max_abs_diff(est.via_wa, inv.to_float()) < 1e-8


def test_limit_estimate_refuses_a_singular_shift():
    # A = [[0, -1], [1, 0]] has A^2 = -I, so at lam = 1 the shifted matrix is 0.
    a = QMatrix.from_literals([["0", "-1"], ["1", "0"]]).to_float()
    with pytest.raises(SingularError, match="shifted matrix singular at lam=1.0"):
        wdrazin_limit_estimate(a, QMatrix.identity(2).to_float(), 1.0)


# -- float bit identity above the matrix layer --------------------------------


def _float_matrix(rng, m, n, planar):
    """Float components k/3 for -6 <= k <= 5 or 1e-8-sized, a zero drawn
    as +0.0 or -0.0; `planar` entries have signed zeros as their j and k
    components, so results have zero components whose signs the
    summation order sets."""

    def pick(c):
        k = 0 if planar and c > 1 else rng.randint(-6, 6)
        if k == 6:
            return rng.uniform(-1e-8, 1e-8)
        return k / 3 if k else rng.choice((0.0, -0.0))

    return QMatrix([[Quaternion(*map(pick, range(4)), mode="float") for _ in range(n)] for _ in range(m)])


def test_float_routes_match_a_recorded_digest():
    # Float results have fixed bits: sums run in Quaternion order, and the
    # cofactors and minor sums are exact values rounded once.  So a fixed
    # seeded set of float calls has fixed output bits: the digest of their
    # float.hex components was recorded once and pins them above the
    # matrix layer, signed zeros included.
    rng = random.Random(14)
    outputs = []
    for planar in (False, True, False, True):
        a, b = _float_matrix(rng, 3, 3, planar), _float_matrix(rng, 3, 2, planar)
        thin = b @ _float_matrix(rng, 2, 3, planar)  # rank 2: index 1 for Drazin
        gram = b @ b.H  # Hermitian, singular
        h = a @ a.H + QMatrix.identity(3, "float")  # Hermitian, nonsingular
        w = _float_matrix(rng, 2, 3, planar)
        outputs += [mp_inverse(a, "all"), mp_inverse(b, "all"), mp_inverse(thin, "all")]
        outputs += [drazin(a, "all"), drazin(thin, "all"), drazin(gram, "all")]
        outputs += [wdrazin(b, w, "all"), wdrazin(b, b.H, "all")]
        outputs += [hermitian_inverse(h), char_poly(h), char_poly(gram), inverse_square(a)]
        outputs += [det(anchor, a) for det in (rdet, cdet) for anchor in (1, 2, 3)]
        outputs += [wdrazin_limit_estimate(b, w, lam) for lam in (1e-2, 1e-5)]
    for _ in range(8):  # 2 x 2: sums of few terms, so signed zeros survive them
        small = _float_matrix(rng, 2, 2, True)
        outputs += [det(anchor, small) for det in (rdet, cdet) for anchor in (1, 2)]
        outputs += [mp_inverse(small, "all"), drazin(small, "all"), inverse_square(small)]
    digest = hashlib.sha256(repr(float_bits(outputs)).encode()).hexdigest()
    assert digest == "6e5ac69d742b77279a9946f35daa5f320aed26b1905b5e1e86f739c1246e383c"
