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
returns a matrix Y and the sum d > 0 of the r x r principal minors, and
N = Y x* (x* Y).
`_SquareAnalysis.hermitian_cramer(e)` gives Y and d != 0 of a Hermitian
power g = A^e at rank(A^k).  The routes, each divided once, last, so
exact intermediates stay integral:

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
routes require the power they expand to be Hermitian.

Every g the kernels expand is Hermitian: a Gram matrix or a Hermitian
power.  So no route enumerates subsets: Y_r and d_r come from the
Faddeev-LeVerrier recurrence derived in the `ncdet` module docstring, one
computation for both families, run in float mode on the exact Hermitian
matrix that g stands for and rounded once.  Its cost is polynomial in
the size and the rank, so no route takes the enumeration guard.

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
index and, each made on first use, the `_mp_cramer` pass (N, d) of each
odd power A^(2e+1) at rank(A^e), the Drazin numerator A^e N A^e of each
pass and the `hermitian_cramer` pass (Y, d) of each Hermitian power
A^e, e >= k; a `_WeightedProblem` holds A, W, the analyses of U and V, k
and rank(W), made on first read.
Every route of the call reads them, so no kernel pass runs twice in a
call: ``mp_composition`` reads the pass of ``cdet``, ``hermitian_rdet``
that of ``hermitian_cdet``, and ``mp_route_U`` that of ``via_drazin_U``
when Ind U = k.  Nor does a product: every route that reads A^k N A^k
(the Drazin ``cdet`` and ``rdet``, through them the ``via_drazin``
pair, and the ``mp_route`` pair) reads it from the analysis, where an
exact pass equal to the other family's at the same power reads that
family's numerator.  So ``cdet`` and ``rdet`` make A^k N A^k once, as do
``via_drazin_V`` and ``mp_route_V`` when Ind V = k, while each still
runs its own pass.
Rank 0 needs no branch: the kernels' order-0 case (Y = 0, d = 1) gives
the zero inverse.
Routes are data: each family has one table mapping a route name to its
refusal, which returns the typed error or None, and its builder, which
reads the call's analysis; the route tuples are the tables' keys.  The
public `inverse(kind, route, ...)` serves every call: it rejects an
unknown kind or route first, builds the analysis once, runs the named
route (raising its refusal) or, under ``route="all"``, every route whose
refusal is None, checks that the results agree and returns the result
with its provenance, ``"cdet"`` or ``"all:cdet,rdet"``.

In exact mode agreement and all defining equations hold as equalities;
float mode exists for the numeric oracles and the limit-based estimate.
"""

import math
from collections import namedtuple
from functools import cached_property

from .errors import (
    ModeError,
    NotHermitianError,
    NumericalBreakdownError,
    PreconditionError,
    RouteDisagreementError,
    ShapeError,
    SingularError,
    invariant_error,
)
from .matrix import Powers, QMatrix, _shifted, index_of, inverse_square, max_abs_diff, rank
from .ncdet import _bordered_cofactors

# mat_pow, cdet and rdet stay bound here, uncalled: benchmarks/layers.py
# rebinds them in every qdet module that holds them, and its self-test
# reads them from this one.
from .matrix import mat_pow  # noqa: F401
from .ncdet import cdet, rdet  # noqa: F401
from .scalar import EXACT, FLOAT

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
# The Moore-Penrose Cramer kernel
# ---------------------------------------------------------------------------


def _mp_cramer(x: QMatrix, r: int, row: bool):
    """(N, d) with x^+ = N / d, from the order-r bordered minors of x*x
    (N = Y x*) or, for the row family, of x x* (N = x* Y)."""
    xs = x.H
    y, d = _bordered_cofactors(x @ xs if row else xs @ x, r)
    if d <= 0:
        raise invariant_error(x.mode, f"Gram minor sum is not positive: {d}")
    return (xs @ y if row else y @ xs), d


# ---------------------------------------------------------------------------
# Route tables and their dispatcher
# ---------------------------------------------------------------------------


# One inverse: its name in messages, the analysis its routes share and
# the table mapping each route name to (refusal, build).
_Family = namedtuple("_Family", "what analyse routes")


def _no_precondition(analysis, name):
    return None


def _not_hermitian(square_of, what):
    """The refusal of a route that requires the matrix of the
    `_SquareAnalysis` square_of(analysis) to be Hermitian."""

    def refusal(analysis, name):
        if not square_of(analysis).hermitian:
            return NotHermitianError(f"route {name!r} requires {what}")
        return None

    return refusal


def _full_rank(u_side: bool):
    """The refusal of the U-side (V-side) MP route: W^+ must cancel W, which
    takes full column (row) rank."""

    def refusal(p, name):
        full, kind = (p.a.rows, "column") if u_side else (p.a.cols, "row")
        if p.rank_w != full:
            return PreconditionError(
                f"route {name!r} requires rank(W) = {full} (full {kind} rank), got {p.rank_w}"
            )
        return None

    return refusal


def _results(family: _Family, operands: tuple, names, strict=False) -> dict:
    """{name: result} of the named routes that apply to one analysis of the
    operands; with strict, a route that does not apply raises its
    refusal."""
    analysis = family.analyse(*operands)
    results = {}
    for name in names:
        refusal, build = family.routes[name]
        error = refusal(analysis, name)
        if error is None:
            results[name] = build(analysis)
        elif strict:
            raise error
    return results


def inverse(kind: str, route: str, *operands):
    """(result, provenance) of the inverse kind, ``"mp"``, ``"drazin"`` or
    ``"wdrazin"``, by one route or, under ``all``, by every route that
    applies, checked to agree; the provenance names the routes run."""
    if kind not in _FAMILIES:
        raise ValueError(f"unknown inverse kind {kind!r}")
    family, every = _FAMILIES[kind], route == "all"
    if not (every or route in family.routes):
        raise ValueError(f"unknown {family.what} route {route!r}")
    results = _results(family, operands, family.routes if every else (route,), not every)
    provenance = "all:" + ",".join(results) if every else route
    return assert_routes_agree(results, operands[0].mode, family.what), provenance


# ---------------------------------------------------------------------------
# Moore-Penrose inverse
# ---------------------------------------------------------------------------


def _mp_direct(p, row: bool) -> QMatrix:
    a, r = p
    num, d = _mp_cramer(a, r, row)
    return num / d


_MP = _Family(
    "Moore-Penrose",
    lambda a: (a, rank(a)),
    {
        "cdet": (_no_precondition, lambda p: _mp_direct(p, row=False)),
        "rdet": (_no_precondition, lambda p: _mp_direct(p, row=True)),
    },
)
MP_ROUTES = tuple(_MP.routes)


def mp_inverse(a: QMatrix, route: str = "cdet") -> QMatrix:
    """Moore-Penrose inverse of a; satisfies the four Penrose equations.

    Routes: ``cdet`` (minors of A*A), ``rdet`` (minors of A A*), or
    ``all`` to compute both and assert entrywise agreement.  Every route
    is polynomial in the size and rank of a.
    """
    return inverse("mp", route, a)[0]


def mp_all_routes(a: QMatrix) -> dict:
    return _results(_MP, (a,), MP_ROUTES)


# ---------------------------------------------------------------------------
# Drazin inverse
# ---------------------------------------------------------------------------


class _SquareAnalysis(Powers):
    """The power table of a square matrix plus its index k, computed once,
    and whether it is Hermitian, the Moore-Penrose kernels of its odd
    powers and the Hermitian kernels of its powers, each made on first
    use."""

    def __init__(self, a: QMatrix):
        if not a.is_square():
            raise ShapeError("Drazin inverse requires a square matrix")
        super().__init__(a)
        self.k = index_of(self)
        self._mp = {}
        self._drazin = {}
        self._hermitian = {}

    @cached_property
    def hermitian(self) -> bool:
        return self.a.is_hermitian()

    def hermitian_cramer(self, e: int):
        """(Y, d) with d != 0: the cofactor matrix and minor sum of the
        Hermitian A^e at rank(A^k), which is rank(A^e) for every e >= k,
        one pass for both families."""
        if e not in self._hermitian:
            y, d = _bordered_cofactors(self[e], self.rank(self.k))
            if d == 0:
                raise invariant_error(self.a.mode, "Hermitian minor sum vanished")
            self._hermitian[e] = y, d
        return self._hermitian[e]

    def mp_cramer(self, e: int, row: bool):
        """(N, d) with N / d = (A^(2e+1))^+, at rank(A^e): for e >= Ind A the
        two ranks agree and A^e N A^e / d = A^D."""
        if (e, row) not in self._mp:
            self._mp[e, row] = _mp_cramer(self[2 * e + 1], self.rank(e), row)
        return self._mp[e, row]

    def drazin_cramer(self, e: int, row: bool):
        """(A^e N A^e, d) from `mp_cramer` (e, row).  An exact pass equal to
        the other family's at e reads that family's A^e N A^e."""
        if (e, row) not in self._drazin:
            num, d = self.mp_cramer(e, row)
            other = self._drazin.get((e, not row))
            # float == takes -0.0 for 0.0, so only exact passes are shared
            if other is not None and self.a.mode == EXACT and self.mp_cramer(e, not row) == (num, d):
                self._drazin[e, row] = other
            else:
                ae = self[e]
                self._drazin[e, row] = ae @ num @ ae, d
        return self._drazin[e, row]


def _drazin_mp(s: _SquareAnalysis, row: bool) -> QMatrix:
    num, d = s.drazin_cramer(s.k, row)
    return num / d


def _drazin_composition(s: _SquareAnalysis) -> QMatrix:
    ak = s[s.k]
    num, d = s.mp_cramer(s.k, row=False)
    return ak @ (num / d) @ ak


def _drazin_hermitian(s: _SquareAnalysis, row: bool) -> QMatrix:
    ak = s[s.k]
    y, d = s.hermitian_cramer(s.k + 1)
    return (ak @ y if row else y @ ak) / d


_hermitian_input = _not_hermitian(lambda s: s, "a Hermitian matrix")
_DRAZIN = _Family(
    "Drazin",
    _SquareAnalysis,
    {
        "cdet": (_no_precondition, lambda s: _drazin_mp(s, row=False)),
        "rdet": (_no_precondition, lambda s: _drazin_mp(s, row=True)),
        "mp_composition": (_no_precondition, _drazin_composition),
        "hermitian_cdet": (_hermitian_input, lambda s: _drazin_hermitian(s, row=False)),
        "hermitian_rdet": (_hermitian_input, lambda s: _drazin_hermitian(s, row=True)),
    },
)
DRAZIN_ROUTES = tuple(_DRAZIN.routes)


def drazin(a: QMatrix, route: str = "cdet") -> QMatrix:
    """Drazin inverse of a square matrix.

    When a is nonsingular (index 0) every route returns the ordinary
    inverse.  Hermitian routes refuse non-Hermitian input rather than
    silently substituting a general route.  Every route is polynomial in
    the size of a and its index.
    """
    return inverse("drazin", route, a)[0]


def drazin_all_routes(a: QMatrix) -> dict:
    return _results(_DRAZIN, (a,), DRAZIN_ROUTES)


# ---------------------------------------------------------------------------
# W-weighted Drazin inverse
# ---------------------------------------------------------------------------


def require_weight_shape(a: QMatrix, w: QMatrix):
    """Refuse a weight W without the transposed shape of A, the shape that
    makes both WA and AW square."""
    if w.rows != a.cols or w.cols != a.rows:
        raise ShapeError(f"weight must be {a.cols}x{a.rows} for a {a.rows}x{a.cols} input, got {w.rows}x{w.cols}")


class _WeightedProblem:
    """A, W, the analyses of U = WA and V = AW, k and rank(W), the last
    made on first read: only the mp_route refusals and builders read it."""

    def __init__(self, a: QMatrix, w: QMatrix):
        require_weight_shape(a, w)
        self.a, self.w = a, w
        self.u = _SquareAnalysis(w @ a)
        self.v = _SquareAnalysis(a @ w)
        self.k = max(self.u.k, self.v.k)

    @cached_property
    def rank_w(self) -> int:
        return rank(self.w)


def _via_drazin(p: _WeightedProblem, u_side: bool) -> QMatrix:
    """A (U^D)^2 or (V^D)^2 A, from the Drazin cdet route at Ind U (Ind V)."""
    d = _drazin_mp(p.u if u_side else p.v, row=False)
    return p.a @ (d @ d) if u_side else (d @ d) @ p.a


def _mp_route(p: _WeightedProblem, u_side: bool) -> QMatrix:
    """W^+ U^D (column family) or V^D W^+ (row family), with U^D, V^D at k."""
    side = p.u if u_side else p.v
    num_w, d_w = _mp_cramer(p.w, p.rank_w, not u_side)
    num, d = side.drazin_cramer(p.k, row=not u_side)
    return (num_w @ num if u_side else num @ num_w) / (d_w * d)


def _weighted_hermitian(p: _WeightedProblem, u_side: bool) -> QMatrix:
    side = p.u if u_side else p.v
    sk = side[p.k]
    y, d = side.hermitian_cramer(p.k + 2)
    return ((p.a @ sk) @ y if u_side else y @ (sk @ p.a)) / d


_hermitian_u = _not_hermitian(lambda p: p.u, "W @ A to be Hermitian")
_hermitian_v = _not_hermitian(lambda p: p.v, "A @ W to be Hermitian")
_WDRAZIN = _Family(
    "weighted-Drazin",
    _WeightedProblem,
    {
        "via_drazin_U": (_no_precondition, lambda p: _via_drazin(p, u_side=True)),
        "via_drazin_V": (_no_precondition, lambda p: _via_drazin(p, u_side=False)),
        "mp_route_U": (_full_rank(u_side=True), lambda p: _mp_route(p, u_side=True)),
        "mp_route_V": (_full_rank(u_side=False), lambda p: _mp_route(p, u_side=False)),
        "hermitian_U": (_hermitian_u, lambda p: _weighted_hermitian(p, u_side=True)),
        "hermitian_V": (_hermitian_v, lambda p: _weighted_hermitian(p, u_side=False)),
    },
)
WDRAZIN_ROUTES = tuple(_WDRAZIN.routes)
_FAMILIES = {"mp": _MP, "drazin": _DRAZIN, "wdrazin": _WDRAZIN}


def wdrazin(a: QMatrix, w: QMatrix, route: str = "via_drazin_U") -> QMatrix:
    """Weighted Drazin inverse of a with respect to the weight w.

    The result X is the unique solution of

        (AW)^(k+1) X W = (AW)^k,   X W A W X = X,   A W X = X W A,

    and also satisfies X W = (AW)^D and W X = (WA)^D.  With W = I it
    reduces to the Drazin inverse.  Every route is polynomial in the sizes
    of a and w and the index k.
    """
    return inverse("wdrazin", route, a, w)[0]


def wdrazin_all_routes(a: QMatrix, w: QMatrix) -> dict:
    return _results(_WDRAZIN, (a, w), WDRAZIN_ROUTES)


class WdrazinLimitEstimates(namedtuple("WdrazinLimitEstimates", "via_aw via_wa")):
    """Both finite-shift evaluations of the limit representations:

        via_aw = (lam I_m + (AW)^(k+2))^(-1) (AW)^k A
        via_wa = A (WA)^k (lam I_n + (WA)^(k+2))^(-1)
    """

    __slots__ = ()


def wdrazin_limit_estimate(a: QMatrix, w: QMatrix, lam: float) -> WdrazinLimitEstimates:
    """Evaluate the two resolvent-style limit representations at a finite
    positive shift lam (float mode only); any other lam is a ValueError.

    As lam -> 0 both estimates converge to the weighted Drazin inverse;
    callers probing convergence evaluate a decreasing sequence of shifts.
    Raises `SingularError` if a shifted matrix is singular at this lam,
    and `NumericalBreakdownError` if its float elimination breaks down
    (a lam above about 1e154 overflows the pivot scale); either message
    names the shift (pick another one).
    """
    if a.mode != FLOAT or w.mode != FLOAT:
        raise ModeError("limit estimates are float-mode only; convert inputs first")
    lam = float(lam)
    if not 0 < lam < math.inf:  # NaN fails both
        raise ValueError(f"shift must be positive and finite, got {lam}")
    p = _WeightedProblem(a, w)
    try:
        via_aw = inverse_square(_shifted(p.v[p.k + 2], lam)) @ (p.v[p.k] @ a)
        via_wa = (a @ p.u[p.k]) @ inverse_square(_shifted(p.u[p.k + 2], lam))
    except SingularError as exc:
        raise SingularError(f"shifted matrix singular at lam={lam}") from exc
    except NumericalBreakdownError as exc:
        raise NumericalBreakdownError(f"shifted matrix at lam={lam} broke down: {exc}") from exc
    return WdrazinLimitEstimates(via_aw, via_wa)
