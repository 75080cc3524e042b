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

Every determinantal route is a ratio of bordered sums: entry (i, j) sums,
over the size-r principal index sets containing i, the column (row)
determinant anchored at i of a Hermitian G's principal submatrix with
column (row) i replaced by column j of a right-hand matrix B.  A column
determinant anchored at i is linear in that column, so
`ncdet._bordered_cofactors` makes one cofactor pass per anchor and the
sums become the matrix product Y @ B (B @ Y for rows), divided last by
the sum of the r x r principal minors that the same pass reads off.  The
enumeration guard bounds the minor order r: a route is refused when the
rank it expands exceeds the guard, whatever the size of the input.

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
from .matrix import QMatrix, index_of, inverse_square, mat_pow, max_abs_diff, rank
from .ncdet import _bordered_cofactors

# cdet and rdet stay bound here, uncalled: benchmarks/layers.py rebinds
# the determinants in every qdet module that holds them, and its
# self-test reads them from this one.
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
        cof, den = _bordered_cofactors(astar @ a, r, row=False)
        return (cof @ astar) / _positive_denominator(den, "A*A minor", a.mode)
    cof, den = _bordered_cofactors(a @ astar, r, row=True)
    return (astar @ cof) / _positive_denominator(den, "AA* minor", a.mode)


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
        cof, den = _bordered_cofactors(p.H @ p, r, row=False)
        den = _positive_denominator(den, "Drazin cdet", a.mode)
        return (ak @ (cof @ (p.H @ ak))) / den

    if route == "rdet":
        p = mat_pow(a, 2 * k + 1)
        cof, den = _bordered_cofactors(p @ p.H, r, row=True)
        den = _positive_denominator(den, "Drazin rdet", a.mode)
        return (((ak @ p.H) @ cof) @ ak) / den

    cof, den = _bordered_cofactors(mat_pow(a, k + 1), r, row=route == "hermitian_rdet")
    if den == 0:
        raise invariant_error(a.mode, "Hermitian Drazin denominator vanished")
    if route == "hermitian_cdet":
        return (cof @ ak) / den
    return (ak @ cof) / den


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
        uk = mat_pow(u, k)
        cof_w, den_w = _bordered_cofactors(w.H @ w, r1, row=False)
        cof_u, den_u = _bordered_cofactors(p.H @ p, r, row=False)
        den = _positive_denominator(den_w, "W*W minor", a.mode) * _positive_denominator(
            den_u, "U-side minor", a.mode
        )
        return ((cof_w @ (w.H @ uk)) @ (cof_u @ (p.H @ uk))) / den

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
        vk = mat_pow(v, k)
        cof_v, den_v = _bordered_cofactors(p @ p.H, r, row=True)
        cof_w, den_w = _bordered_cofactors(w @ w.H, r1, row=True)
        den = _positive_denominator(den_v, "V-side minor", a.mode) * _positive_denominator(
            den_w, "WW* minor", a.mode
        )
        return (((vk @ p.H) @ cof_v) @ ((vk @ w.H) @ cof_w)) / den

    if route == "hermitian_V":
        if not v.is_hermitian():
            raise NotHermitianError("route 'hermitian_V' requires A @ W to be Hermitian")
        r = rank(mat_pow(v, k))
        if r == 0:
            return QMatrix.zeros(m, n, a.mode)
        cof, den = _bordered_cofactors(mat_pow(v, k + 2), r, row=False)
        if den == 0:
            raise invariant_error(a.mode, "Hermitian V-route denominator vanished")
        return (cof @ (mat_pow(v, k) @ a)) / den

    if not u.is_hermitian():
        raise NotHermitianError("route 'hermitian_U' requires W @ A to be Hermitian")
    r = rank(mat_pow(u, k))
    if r == 0:
        return QMatrix.zeros(m, n, a.mode)
    cof, den = _bordered_cofactors(mat_pow(u, k + 2), r, row=True)
    if den == 0:
        raise invariant_error(a.mode, "Hermitian U-route denominator vanished")
    return ((a @ mat_pow(u, k)) @ cof) / den


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
