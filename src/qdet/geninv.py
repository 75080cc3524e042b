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

Each call analyses its problem once: a `_SquareAnalysis` holds a square
matrix, its index, and its powers and their ranks computed at most once;
a `_WeightedProblem` holds A, W, the analyses of U and V, k and rank(W).
Every route of the call reads them.  One refusal function per family
states the route preconditions and returns the typed error or None: a
single-route call raises it, ``route="all"`` skips the route.

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


class _SquareAnalysis:
    """A square matrix with its index k, computed once, and its powers and
    their ranks, each computed at most once, on first use."""

    def __init__(self, a: QMatrix):
        if not a.is_square():
            raise ShapeError("Drazin inverse requires a square matrix")
        self.a = a
        self.k = index_of(a)
        self._powers = {}
        self._ranks = {}

    def pow(self, e: int) -> QMatrix:
        if e not in self._powers:
            self._powers[e] = mat_pow(self.a, e)
        return self._powers[e]

    def pow_rank(self, e: int) -> int:
        """rank(A^e)."""
        if e not in self._ranks:
            self._ranks[e] = rank(self.pow(e))
        return self._ranks[e]


def _drazin_refusal(s: _SquareAnalysis, route: str):
    """The error refusing `route` on s, or None when the route applies."""
    if route.startswith("hermitian") and not s.a.is_hermitian():
        return NotHermitianError(f"route {route!r} requires a Hermitian matrix")
    return None


def _drazin(s: _SquareAnalysis, route: str) -> QMatrix:
    n, k = s.a.rows, s.k
    ak = s.pow(k)
    r = s.pow_rank(k)
    if r == 0:
        return QMatrix.zeros(n, n, s.a.mode)

    if route == "mp_composition":
        return ak @ mp_inverse(s.pow(2 * k + 1), "cdet") @ ak

    if route == "cdet":
        p = s.pow(2 * k + 1)
        cof, den = _bordered_cofactors(p.H @ p, r, row=False)
        den = _positive_denominator(den, "Drazin cdet", s.a.mode)
        return (ak @ (cof @ (p.H @ ak))) / den

    if route == "rdet":
        p = s.pow(2 * k + 1)
        cof, den = _bordered_cofactors(p @ p.H, r, row=True)
        den = _positive_denominator(den, "Drazin rdet", s.a.mode)
        return (((ak @ p.H) @ cof) @ ak) / den

    cof, den = _bordered_cofactors(s.pow(k + 1), r, row=route == "hermitian_rdet")
    if den == 0:
        raise invariant_error(s.a.mode, "Hermitian Drazin denominator vanished")
    if route == "hermitian_cdet":
        return (cof @ ak) / den
    return (ak @ cof) / den


def drazin(a: QMatrix, route: str = "cdet") -> QMatrix:
    """Drazin inverse of a square matrix.

    When a is nonsingular (index 0) every route returns the ordinary
    inverse.  Hermitian routes refuse non-Hermitian input rather than
    silently substituting a general route.
    """
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
    r = side.pow_rank(k)
    if r == 0:
        return QMatrix.zeros(a.rows, a.cols, a.mode)
    sk = side.pow(k)

    if route.startswith("hermitian"):
        cof, den = _bordered_cofactors(side.pow(k + 2), r, row=u_side)
        if den == 0:
            raise invariant_error(a.mode, f"Hermitian {route[-1]}-route denominator vanished")
        if route == "hermitian_U":
            return ((a @ sk) @ cof) / den
        return (cof @ (sk @ a)) / den

    q = side.pow(2 * k + 1)
    if route == "mp_route_U":
        cof_w, den_w = _bordered_cofactors(w.H @ w, p.rank_w, row=False)
        cof_u, den_u = _bordered_cofactors(q.H @ q, r, row=False)
        den = _positive_denominator(den_w, "W*W minor", a.mode) * _positive_denominator(
            den_u, "U-side minor", a.mode
        )
        return ((cof_w @ (w.H @ sk)) @ (cof_u @ (q.H @ sk))) / den

    cof_v, den_v = _bordered_cofactors(q @ q.H, r, row=True)
    cof_w, den_w = _bordered_cofactors(w @ w.H, p.rank_w, row=True)
    den = _positive_denominator(den_v, "V-side minor", a.mode) * _positive_denominator(
        den_w, "WW* minor", a.mode
    )
    return (((sk @ q.H) @ cof_v) @ ((sk @ w.H) @ cof_w)) / den


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
    shifted_v = QMatrix.identity(a.rows, FLOAT) * lam + p.v.pow(p.k + 2)
    shifted_u = QMatrix.identity(a.cols, FLOAT) * lam + p.u.pow(p.k + 2)
    try:
        via_aw = inverse_square(shifted_v) @ (p.v.pow(p.k) @ a)
        via_wa = (a @ p.u.pow(p.k)) @ inverse_square(shifted_u)
    except SingularError as exc:
        raise SingularError(f"shifted matrix singular at lam={lam}") from exc
    return WdrazinLimitEstimates(via_aw, via_wa)
