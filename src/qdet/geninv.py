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

Route names:

* Moore-Penrose: ``cdet`` expands column determinants of bordered minors
  of A*A; ``rdet`` mirrors it with row determinants of A A*.
* Drazin: ``cdet`` / ``rdet`` expand minors of (A^(2k+1))* A^(2k+1) and
  its mirror; ``mp_composition`` uses A^k (A^(2k+1))^+ A^k;
  ``hermitian_cdet`` / ``hermitian_rdet`` are the cheaper forms that
  expand minors of A^(k+1), valid for Hermitian A only.
* Weighted Drazin: ``via_drazin_U`` evaluates A (U^D)^2 and
  ``via_drazin_V`` evaluates (V^D)^2 A with route-computed Drazin
  inverses; ``mp_route_U`` / ``mp_route_V`` are the single determinantal
  formulas obtained by pushing the Moore-Penrose representation through
  W^+ {U^k [U^(2k+1)]^+ U^k} and its V-side mirror; ``hermitian_U`` /
  ``hermitian_V`` expand minors of (WA)^(k+2) resp. (AW)^(k+2) and
  require that product to be Hermitian.

The MP composition routes are valid only when the weight's pseudoinverse
cancels against it on the relevant side: ``mp_route_U`` equals
W^+ W A (U^D)^2 and therefore requires W^+ W = I, i.e. rank(W) = m (full
column rank); ``mp_route_V`` equals (V^D)^2 A W W^+ and requires
W W^+ = I, i.e. rank(W) = n (full row rank).  Outside those domains the
compositions fail the weighted-Drazin defining equations (a 3x4 weight
of rank 3 already exhibits the U-side failure), so both routes check
their rank precondition at runtime and refuse, exactly like the
Hermitian routes refuse non-Hermitian products.

In exact mode agreement and all defining equations hold as equalities;
float mode exists for the numeric oracles and the limit-based estimate.
"""

import itertools
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
from .matrix import (
    QMatrix,
    index_of,
    inverse_square,
    mat_pow,
    max_abs_diff,
    rank,
    replace_col,
    replace_row,
    submatrix,
)
from .ncdet import cdet, principal_minor_sum, rdet
from .scalar import EXACT, FLOAT, Quaternion

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


def _subsets_containing(n, r, pivot):
    """Size-r subsets of range(n) containing `pivot`, each sorted."""
    others = [x for x in range(n) if x != pivot]
    for rest in itertools.combinations(others, r - 1):
        yield tuple(sorted((pivot, *rest)))


def _bordered_cdet_sum(g: QMatrix, i: int, column, r: int) -> Quaternion:
    """Sum over size-r principal index sets containing i (0-based) of the
    column determinant, anchored at i, of the principal submatrix of g
    with column i replaced by `column`."""
    modified = replace_col(g, i, column)
    total = Quaternion.zero(g.mode)
    for beta in _subsets_containing(g.rows, r, i):
        sub = submatrix(modified, beta, beta)
        total = total + cdet(beta.index(i) + 1, sub)
    return total


def _bordered_rdet_sum(h: QMatrix, j: int, row, r: int) -> Quaternion:
    """Mirror of `_bordered_cdet_sum`: row j replaced, row determinants."""
    modified = replace_row(h, j, row)
    total = Quaternion.zero(h.mode)
    for alpha in _subsets_containing(h.rows, r, j):
        sub = submatrix(modified, alpha, alpha)
        total = total + rdet(alpha.index(j) + 1, sub)
    return total


def _positive_denominator(value, what, mode):
    if value <= 0:
        raise invariant_error(mode, f"{what} denominator is not positive: {value}")
    return value


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
# Moore-Penrose inverse
# ---------------------------------------------------------------------------


def mp_inverse(a: QMatrix, route: str = "cdet") -> QMatrix:
    """Moore-Penrose inverse of a; satisfies the four Penrose equations.

    Routes: ``cdet`` (minors of A*A), ``rdet`` (minors of A A*), or
    ``all`` to compute both and assert entrywise agreement.
    """
    if route == "all":
        return assert_routes_agree(mp_all_routes(a), a.mode, "Moore-Penrose")
    if route not in MP_ROUTES:
        raise ValueError(f"unknown Moore-Penrose route {route!r}")
    if a.is_zero():
        return QMatrix.zeros(a.cols, a.rows, a.mode)
    r = rank(a)
    astar = a.H
    if route == "cdet":
        g = astar @ a
        den = _positive_denominator(principal_minor_sum(g, r), "A*A minor", a.mode)
        out = [
            [_bordered_cdet_sum(g, i, astar.col(j), r) / den for j in range(a.rows)]
            for i in range(a.cols)
        ]
        return QMatrix(out)
    h = a @ astar
    den = _positive_denominator(principal_minor_sum(h, r), "AA* minor", a.mode)
    out = [
        [_bordered_rdet_sum(h, j, astar.row(i), r) / den for j in range(a.rows)]
        for i in range(a.cols)
    ]
    return QMatrix(out)


def mp_all_routes(a: QMatrix) -> dict:
    return {name: mp_inverse(a, name) for name in MP_ROUTES}


# ---------------------------------------------------------------------------
# Drazin inverse
# ---------------------------------------------------------------------------


def _drazin_applicable(a: QMatrix):
    routes = ["cdet", "rdet", "mp_composition"]
    if a.is_hermitian():
        routes += ["hermitian_cdet", "hermitian_rdet"]
    return routes


def drazin(a: QMatrix, route: str = "cdet") -> QMatrix:
    """Drazin inverse of a square matrix.

    When a is nonsingular (index 0) every route returns the ordinary
    inverse.  Hermitian routes refuse non-Hermitian input rather than
    silently substituting a general route.
    """
    if not a.is_square():
        raise ShapeError("Drazin inverse requires a square matrix")
    if route == "all":
        return assert_routes_agree(drazin_all_routes(a), a.mode, "Drazin")
    if route not in DRAZIN_ROUTES:
        raise ValueError(f"unknown Drazin route {route!r}")
    if route.startswith("hermitian") and not a.is_hermitian():
        raise NotHermitianError(f"route {route!r} requires a Hermitian matrix")

    n = a.rows
    k = index_of(a)
    ak = mat_pow(a, k)
    r = rank(ak)
    if r == 0:
        return QMatrix.zeros(n, n, a.mode)

    if route == "mp_composition":
        return ak @ mp_inverse(mat_pow(a, 2 * k + 1), "cdet") @ ak

    if route == "cdet":
        p = mat_pow(a, 2 * k + 1)
        g = p.H @ p
        ahat = p.H @ ak
        den = _positive_denominator(principal_minor_sum(g, r), "Drazin cdet", a.mode)
        s = QMatrix(
            [
                [_bordered_cdet_sum(g, t, ahat.col(j), r) for j in range(n)]
                for t in range(n)
            ]
        )
        return (ak @ s) / den

    if route == "rdet":
        p = mat_pow(a, 2 * k + 1)
        h = p @ p.H
        acheck = ak @ p.H
        den = _positive_denominator(principal_minor_sum(h, r), "Drazin rdet", a.mode)
        t = QMatrix(
            [
                [_bordered_rdet_sum(h, s, acheck.row(i), r) for s in range(n)]
                for i in range(n)
            ]
        )
        return (t @ ak) / den

    m = mat_pow(a, k + 1)
    den = principal_minor_sum(m, r)
    if den == 0:
        raise invariant_error(a.mode, "Hermitian Drazin denominator vanished")
    if route == "hermitian_cdet":
        out = [
            [_bordered_cdet_sum(m, i, ak.col(j), r) / den for j in range(n)]
            for i in range(n)
        ]
    else:
        out = [
            [_bordered_rdet_sum(m, j, ak.row(i), r) / den for j in range(n)]
            for i in range(n)
        ]
    return QMatrix(out)


def drazin_all_routes(a: QMatrix) -> dict:
    return {name: drazin(a, name) for name in _drazin_applicable(a)}


# ---------------------------------------------------------------------------
# W-weighted Drazin inverse
# ---------------------------------------------------------------------------


def _weighted_setup(a: QMatrix, w: QMatrix):
    if w.rows != a.cols or w.cols != a.rows:
        raise ShapeError(
            f"weight must be {a.cols}x{a.rows} for a {a.rows}x{a.cols} input, got {w.rows}x{w.cols}"
        )
    u = w @ a
    v = a @ w
    k = max(index_of(u), index_of(v))
    return u, v, k


def wdrazin_applicable_routes(a: QMatrix, w: QMatrix):
    u, v, _ = _weighted_setup(a, w)
    routes = ["via_drazin_U", "via_drazin_V"]
    rw = rank(w)
    if rw == a.rows:
        routes.append("mp_route_U")
    if rw == a.cols:
        routes.append("mp_route_V")
    if u.is_hermitian():
        routes.append("hermitian_U")
    if v.is_hermitian():
        routes.append("hermitian_V")
    return routes


def wdrazin(a: QMatrix, w: QMatrix, route: str = "via_drazin_U") -> QMatrix:
    """Weighted Drazin inverse of a with respect to the weight w.

    The result X is the unique solution of

        (AW)^(k+1) X W = (AW)^k,   X W A W X = X,   A W X = X W A,

    and also satisfies X W = (AW)^D and W X = (WA)^D.  With W = I it
    reduces to the Drazin inverse.
    """
    if route == "all":
        return assert_routes_agree(wdrazin_all_routes(a, w), a.mode, "weighted Drazin")
    if route not in WDRAZIN_ROUTES:
        raise ValueError(f"unknown weighted-Drazin route {route!r}")
    u, v, k = _weighted_setup(a, w)
    m, n = a.rows, a.cols

    if route == "via_drazin_U":
        d = drazin(u, "cdet")
        return a @ (d @ d)
    if route == "via_drazin_V":
        d = drazin(v, "cdet")
        return (d @ d) @ a

    if route == "mp_route_U":
        r1 = rank(w)
        if r1 != m:
            raise PreconditionError(
                f"route 'mp_route_U' requires rank(W) = {m} (full column rank), got {r1}"
            )
        r = rank(mat_pow(u, k))
        if r == 0:
            return QMatrix.zeros(m, n, a.mode)
        p = mat_pow(u, 2 * k + 1)
        gu = p.H @ p
        uhat = p.H @ mat_pow(u, k)
        what = w.H @ mat_pow(u, k)
        gw = w.H @ w
        den = _positive_denominator(
            principal_minor_sum(gw, r1), "W*W minor", a.mode
        ) * _positive_denominator(principal_minor_sum(gu, r), "U-side minor", a.mode)
        left = QMatrix(
            [
                [_bordered_cdet_sum(gw, i, what.col(t), r1) for t in range(n)]
                for i in range(m)
            ]
        )
        right = QMatrix(
            [
                [_bordered_cdet_sum(gu, t, uhat.col(j), r) for j in range(n)]
                for t in range(n)
            ]
        )
        return (left @ right) / den

    if route == "mp_route_V":
        r1 = rank(w)
        if r1 != n:
            raise PreconditionError(
                f"route 'mp_route_V' requires rank(W) = {n} (full row rank), got {r1}"
            )
        r = rank(mat_pow(v, k))
        if r == 0:
            return QMatrix.zeros(m, n, a.mode)
        p = mat_pow(v, 2 * k + 1)
        hv = p @ p.H
        vcheck = mat_pow(v, k) @ p.H
        wcheck = mat_pow(v, k) @ w.H
        hw = w @ w.H
        den = _positive_denominator(
            principal_minor_sum(hv, r), "V-side minor", a.mode
        ) * _positive_denominator(principal_minor_sum(hw, r1), "WW* minor", a.mode)
        left = QMatrix(
            [
                [_bordered_rdet_sum(hv, t, vcheck.row(i), r) for t in range(m)]
                for i in range(m)
            ]
        )
        right = QMatrix(
            [
                [_bordered_rdet_sum(hw, j, wcheck.row(t), r1) for j in range(n)]
                for t in range(m)
            ]
        )
        return (left @ right) / den

    if route == "hermitian_V":
        if not v.is_hermitian():
            raise NotHermitianError("route 'hermitian_V' requires A @ W to be Hermitian")
        r = rank(mat_pow(v, k))
        if r == 0:
            return QMatrix.zeros(m, n, a.mode)
        mm = mat_pow(v, k + 2)
        vbar = mat_pow(v, k) @ a
        den = principal_minor_sum(mm, r)
        if den == 0:
            raise invariant_error(a.mode, "Hermitian V-route denominator vanished")
        out = [
            [_bordered_cdet_sum(mm, i, vbar.col(j), r) / den for j in range(n)]
            for i in range(m)
        ]
        return QMatrix(out)

    if not u.is_hermitian():
        raise NotHermitianError("route 'hermitian_U' requires W @ A to be Hermitian")
    r = rank(mat_pow(u, k))
    if r == 0:
        return QMatrix.zeros(m, n, a.mode)
    mm = mat_pow(u, k + 2)
    ubar = a @ mat_pow(u, k)
    den = principal_minor_sum(mm, r)
    if den == 0:
        raise invariant_error(a.mode, "Hermitian U-route denominator vanished")
    out = [
        [_bordered_rdet_sum(mm, j, ubar.row(i), r) / den for j in range(n)]
        for i in range(m)
    ]
    return QMatrix(out)


def wdrazin_all_routes(a: QMatrix, w: QMatrix) -> dict:
    return {name: wdrazin(a, w, name) for name in wdrazin_applicable_routes(a, w)}


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
    u, v, k = _weighted_setup(a, w)
    m, n = a.rows, a.cols
    shifted_v = QMatrix.identity(m, FLOAT) * lam + mat_pow(v, k + 2)
    shifted_u = QMatrix.identity(n, FLOAT) * lam + mat_pow(u, k + 2)
    try:
        via_aw = inverse_square(shifted_v) @ (mat_pow(v, k) @ a)
        via_wa = (a @ mat_pow(u, k)) @ inverse_square(shifted_u)
    except SingularError as exc:
        raise SingularError(f"shifted matrix singular at lam={lam}") from exc
    return WdrazinLimitEstimates(via_aw, via_wa)
