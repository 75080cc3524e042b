"""Generalized inverses through determinantal representations.

Every inverse here is computed by several independent routes that must
agree entrywise; the disagreement check is the package's differential-
testing payload.  All ranks and indices are computed internally, never
caller-supplied, so the formulas cannot be driven with inconsistent
parameters.

Notation used throughout (for an m x n input A and n x m weight W):

    U = W @ A            (n x n)
    V = A @ W            (m x m)
    k = max(Ind U, Ind V)

Every determinantal route composes two Cramer kernels, as the paper
builds its weighted representations from two earlier ones.
`_mp_cramer(x, r, row)` is the determinantal Moore-Penrose inverse
x^+ = N / d: the bordered minor sums of the Gram matrix x*x (column
family, ``cdet``) or x x* (row family, ``rdet``) at rank r.  Such a sum
is linear in its replaced column (row), so `ncdet._bordered_cofactors`
makes one cofactor pass per anchor and returns a matrix Y and the sum
d > 0 of the r x r principal minors, and N = Y x* (x* Y).
`_hermitian_cramer(g, r, row)` gives Y and d != 0 of a Hermitian g.  The
routes, each divided once, last, so exact intermediates stay integral:

    mp_inverse  cdet, rdet                      N / d,  x = A
    drazin      cdet, rdet                      A^k N A^k / d,  x = A^(2k+1)
                mp_composition                  A^k (N / d) A^k,  cdet's N and d
                hermitian_cdet, hermitian_rdet  Y A^k / d, A^k Y / d,  g = A^(k+1)
    wdrazin     via_drazin_U, via_drazin_V      A (U^D)^2, (V^D)^2 A,  Drazin cdet
                mp_route_U, mp_route_V          N_W (U^k N U^k) / (d_W d), mirror
                hermitian_U, hermitian_V        A U^k Y / d, Y V^k A / d,  g = U^(k+2), V^(k+2)

The drazin rows read k = Ind A and use A^D = A^k (A^(2k+1))^+ A^k, which
holds for any k >= Ind A; with U and V at k it makes ``mp_route_U`` /
``mp_route_V`` W^+ U^D and V^D W^+ (N_W, d_W from x = W).  The Hermitian
routes require the power they expand to be Hermitian.  The enumeration
guard bounds the minor order r: a route is refused when the rank it
expands exceeds the guard, whatever the size of the input.

The MP composition routes are valid only when the weight's pseudoinverse
cancels against it on the relevant side: ``mp_route_U`` equals
W^+ W A (U^D)^2 and therefore requires W^+ W = I, i.e. rank(W) = m (full
column rank); ``mp_route_V`` equals (V^D)^2 A W W^+ and requires
W W^+ = I, i.e. rank(W) = n (full row rank).  Outside those domains the
compositions fail the weighted-Drazin defining equations (a 3x4 weight
of rank 3 already exhibits the U-side failure), so both routes check
their rank precondition at runtime and refuse, exactly like the
Hermitian routes refuse non-Hermitian products.

Each call analyses its problem once: a `_SquareAnalysis` is the
`matrix.Powers` table of a square matrix, filled by `index_of`, plus its
index and the `_mp_cramer` pass of each odd power A^(2e+1) at rank(A^e),
made on first use; a `_WeightedProblem` holds A, W, the analyses of U and
V, k, rank(W).  Every route of the call reads them, so no kernel pass
runs twice in a call: ``mp_composition`` reads the pass of ``cdet``, and
``mp_route_U`` that of ``via_drazin_U`` when Ind U = k.  Rank 0 needs no
branch: the kernels' order-0 case (Y = 0, d = 1) gives the zero inverse.
One refusal function per family states the route preconditions and
returns the typed error or None: a single-route call raises it,
``route="all"`` skips the route.

In exact mode agreement and all defining equations hold as equalities;
float mode exists for the numeric oracles and the limit-based estimate.
"""

from typing import NamedTuple

from .errors import (
    ModeError,
    NotHermitianError,
    PreconditionError,
    RouteDisagreementError,
    ShapeError,
    SingularError,
    invariant_error,
)
from .matrix import Powers, QMatrix, index_of, inverse_square, max_abs_diff, rank
from .ncdet import _bordered_cofactors, _scoped_guard

# mat_pow, cdet and rdet stay bound here, uncalled: benchmarks/layers.py
# rebinds them in every qdet module that holds them, and its self-test
# reads them from this one.
from .matrix import mat_pow  # noqa: F401
from .ncdet import cdet, rdet  # noqa: F401
from .scalar import EXACT, FLOAT

MP_ROUTES = ("cdet", "rdet")
DRAZIN_ROUTES = ("cdet", "rdet", "mp_composition", "hermitian_cdet", "hermitian_rdet")
WDRAZIN_ROUTES = (
    "via_drazin_U",
    "via_drazin_V",
    "mp_route_U",
    "mp_route_V",
    "hermitian_U",
    "hermitian_V",
)

FLOAT_AGREEMENT_TOL = 1e-9


def assert_routes_agree(results: dict, mode: str, what: str) -> QMatrix:
    items = list(results.items())
    base_name, base = items[0]
    for name, other in items[1:]:
        if mode == EXACT:
            same = base == other
        else:
            same = max_abs_diff(base, other) <= FLOAT_AGREEMENT_TOL
        if not same:
            raise RouteDisagreementError(
                f"{what} routes disagree: {base_name} vs {name} "
                f"(max abs diff {max_abs_diff(base, other):.3e})"
            )
    return base


# ---------------------------------------------------------------------------
# The two Cramer kernels
# ---------------------------------------------------------------------------


def _mp_cramer(x: QMatrix, r: int, row: bool):
    """(N, d) with x^+ = N / d, from the order-r bordered minors of x*x
    (N = Y x*) or, for the row family, of x x* (N = x* Y)."""
    xs = x.H
    y, d = _bordered_cofactors(x @ xs if row else xs @ x, r, row=row)
    if d <= 0:
        raise invariant_error(x.mode, f"Gram minor sum is not positive: {d}")
    return (xs @ y if row else y @ xs), d


def _hermitian_cramer(g: QMatrix, r: int, row: bool):
    """(Y, d): the cofactor matrix and order-r minor sum of a Hermitian g."""
    y, d = _bordered_cofactors(g, r, row=row)
    if d == 0:
        raise invariant_error(g.mode, "Hermitian minor sum vanished")
    return y, d


# ---------------------------------------------------------------------------
# Moore-Penrose inverse
# ---------------------------------------------------------------------------


def mp_inverse(a: QMatrix, route: str = "cdet", max_n: int | None = None) -> QMatrix:
    """Moore-Penrose inverse of a; satisfies the four Penrose equations.

    Routes: ``cdet`` (minors of A*A), ``rdet`` (minors of A A*), or
    ``all`` to compute both and assert entrywise agreement.  ``max_n``
    sets the enumeration guard for this call only.
    """
    with _scoped_guard(max_n):
        if route == "all":
            return assert_routes_agree(mp_all_routes(a), a.mode, "Moore-Penrose")
        if route not in MP_ROUTES:
            raise ValueError(f"unknown Moore-Penrose route {route!r}")
        return _mp(a, rank(a), route)


def _mp(a: QMatrix, r: int, route: str) -> QMatrix:
    num, d = _mp_cramer(a, r, row=route == "rdet")
    return num / d


def mp_all_routes(a: QMatrix) -> dict:
    r = rank(a)
    return {name: _mp(a, r, name) for name in MP_ROUTES}


# ---------------------------------------------------------------------------
# Drazin inverse
# ---------------------------------------------------------------------------


class _SquareAnalysis(Powers):
    """The power table of a square matrix plus its index k, computed once,
    and the Moore-Penrose kernels of its odd powers, each made on first use."""

    def __init__(self, a: QMatrix):
        if not a.is_square():
            raise ShapeError("Drazin inverse requires a square matrix")
        super().__init__(a)
        self.k = index_of(self)
        self._mp = {}

    def mp_cramer(self, e: int, row: bool):
        """(N, d) with N / d = (A^(2e+1))^+, at rank(A^e): for e >= Ind A the
        two ranks agree and A^e N A^e / d = A^D."""
        if (e, row) not in self._mp:
            self._mp[e, row] = _mp_cramer(self[2 * e + 1], self.rank(e), row)
        return self._mp[e, row]


def _drazin_refusal(s: _SquareAnalysis, route: str):
    """The error refusing `route` on s, or None when the route applies."""
    if route.startswith("hermitian") and not s.a.is_hermitian():
        return NotHermitianError(f"route {route!r} requires a Hermitian matrix")
    return None


def _drazin(s: _SquareAnalysis, route: str) -> QMatrix:
    k = s.k
    ak = s[k]
    if route.startswith("hermitian"):
        y, d = _hermitian_cramer(s[k + 1], s.rank(k), row=route == "hermitian_rdet")
        return (y @ ak if route == "hermitian_cdet" else ak @ y) / d
    num, d = s.mp_cramer(k, row=route == "rdet")
    if route == "mp_composition":
        return ak @ (num / d) @ ak
    return ak @ num @ ak / d


def drazin(a: QMatrix, route: str = "cdet", max_n: int | None = None) -> QMatrix:
    """Drazin inverse of a square matrix.

    When a is nonsingular (index 0) every route returns the ordinary
    inverse.  Hermitian routes refuse non-Hermitian input rather than
    silently substituting a general route.  ``max_n`` sets the
    enumeration guard for this call only.
    """
    with _scoped_guard(max_n):
        if route == "all":
            return assert_routes_agree(drazin_all_routes(a), a.mode, "Drazin")
        s = _SquareAnalysis(a)
        if route not in DRAZIN_ROUTES:
            raise ValueError(f"unknown Drazin route {route!r}")
        error = _drazin_refusal(s, route)
        if error is not None:
            raise error
        return _drazin(s, route)


def drazin_all_routes(a: QMatrix) -> dict:
    s = _SquareAnalysis(a)
    return {name: _drazin(s, name) for name in DRAZIN_ROUTES if _drazin_refusal(s, name) is None}


# ---------------------------------------------------------------------------
# W-weighted Drazin inverse
# ---------------------------------------------------------------------------


class _WeightedProblem:
    """A, W, the analyses of U = WA and V = AW, k and rank(W)."""

    def __init__(self, a: QMatrix, w: QMatrix):
        if w.rows != a.cols or w.cols != a.rows:
            raise ShapeError(
                f"weight must be {a.cols}x{a.rows} for a {a.rows}x{a.cols} input, got {w.rows}x{w.cols}"
            )
        self.a, self.w = a, w
        self.u = _SquareAnalysis(w @ a)
        self.v = _SquareAnalysis(a @ w)
        self.k = max(self.u.k, self.v.k)
        self.rank_w = rank(w)


def _wdrazin_refusal(p: _WeightedProblem, route: str):
    """The error refusing `route` on p, or None when the route applies."""
    u_side = route.endswith("_U")
    if route.startswith("mp_route"):
        full, kind = (p.a.rows, "column") if u_side else (p.a.cols, "row")
        if p.rank_w != full:
            return PreconditionError(
                f"route {route!r} requires rank(W) = {full} (full {kind} rank), got {p.rank_w}"
            )
    if route.startswith("hermitian"):
        product, name = (p.u.a, "W @ A") if u_side else (p.v.a, "A @ W")
        if not product.is_hermitian():
            return NotHermitianError(f"route {route!r} requires {name} to be Hermitian")
    return None


def _wdrazin(p: _WeightedProblem, route: str) -> QMatrix:
    a, w = p.a, p.w
    if route == "via_drazin_U":
        d = _drazin(p.u, "cdet")
        return a @ (d @ d)
    if route == "via_drazin_V":
        d = _drazin(p.v, "cdet")
        return (d @ d) @ a

    # The remaining routes expand powers of U (the *_U routes) or V at k.
    k, u_side = p.k, route.endswith("_U")
    side = p.u if u_side else p.v
    sk = side[k]
    if route.startswith("hermitian"):
        y, d = _hermitian_cramer(side[k + 2], side.rank(k), row=u_side)
        return ((a @ sk) @ y if u_side else y @ (sk @ a)) / d
    # W^+ U^D (column family) or V^D W^+ (row family).
    num_w, d_w = _mp_cramer(w, p.rank_w, row=not u_side)
    num, d = side.mp_cramer(k, row=not u_side)
    num = sk @ num @ sk
    return (num_w @ num if u_side else num @ num_w) / (d_w * d)


def wdrazin(a: QMatrix, w: QMatrix, route: str = "via_drazin_U", max_n: int | None = None) -> QMatrix:
    """Weighted Drazin inverse of a with respect to the weight w.

    The result X is the unique solution of

        (AW)^(k+1) X W = (AW)^k,   X W A W X = X,   A W X = X W A,

    and also satisfies X W = (AW)^D and W X = (WA)^D.  With W = I it
    reduces to the Drazin inverse.  ``max_n`` sets the enumeration guard
    for this call only.
    """
    with _scoped_guard(max_n):
        if route == "all":
            return assert_routes_agree(wdrazin_all_routes(a, w), a.mode, "weighted Drazin")
        if route not in WDRAZIN_ROUTES:
            raise ValueError(f"unknown weighted-Drazin route {route!r}")
        p = _WeightedProblem(a, w)
        error = _wdrazin_refusal(p, route)
        if error is not None:
            raise error
        return _wdrazin(p, route)


def wdrazin_all_routes(a: QMatrix, w: QMatrix) -> dict:
    p = _WeightedProblem(a, w)
    return {name: _wdrazin(p, name) for name in WDRAZIN_ROUTES if _wdrazin_refusal(p, name) is None}


class WdrazinLimitEstimates(NamedTuple):
    """Both finite-shift evaluations of the limit representations."""

    via_aw: QMatrix  # (lam I_m + (AW)^(k+2))^(-1) (AW)^k A
    via_wa: QMatrix  # A (WA)^k (lam I_n + (WA)^(k+2))^(-1)


def wdrazin_limit_estimate(a: QMatrix, w: QMatrix, lam: float) -> WdrazinLimitEstimates:
    """Evaluate the two resolvent-style limit representations at a finite
    positive shift lam (float mode only).

    As lam -> 0 both estimates converge to the weighted Drazin inverse;
    callers probing convergence evaluate a decreasing sequence of shifts.
    Raises `SingularError` if a shifted matrix is singular at this lam
    (pick another shift).
    """
    if a.mode != FLOAT or w.mode != FLOAT:
        raise ModeError("limit estimates are float-mode only; convert inputs first")
    lam = float(lam)
    if not lam > 0:
        raise ValueError("shift must be positive")
    p = _WeightedProblem(a, w)
    shifted_v = QMatrix.identity(a.rows, FLOAT) * lam + p.v[p.k + 2]
    shifted_u = QMatrix.identity(a.cols, FLOAT) * lam + p.u[p.k + 2]
    try:
        via_aw = inverse_square(shifted_v) @ (p.v[p.k] @ a)
        via_wa = (a @ p.u[p.k]) @ inverse_square(shifted_u)
    except SingularError as exc:
        raise SingularError(f"shifted matrix singular at lam={lam}") from exc
    return WdrazinLimitEstimates(via_aw, via_wa)
