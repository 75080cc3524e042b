"""Defining-equation checkers and the complex-embedding reference.

These are the package's independent oracles: they are written against the
scalar/matrix layers only (no imports from the inverse computations), so
a bug in a determinantal route cannot hide itself.  In exact mode every
verdict is a structural equality; in float mode each check reports its
max-abs residual against the fixed threshold `DEFAULT_FLOAT_TOL` (1e-9).

For the weighted inverse the two composition identities X W = (AW)^D and
W X = (WA)^D are reported by checking that X W (resp. W X) satisfies the
Drazin defining equations of AW (resp. WA); by uniqueness of the Drazin
inverse this is equivalent to the matrix equality without computing any
inverse here.  Each check reads the powers of A (of AW and WA) from one
`Powers` table and makes each product it reuses once: A^(k+1) X, which
is A X at k = 0, and (AW)^(k+1) X W, which the Drazin checks of AW reuse
when Ind AW = k.  A NaN residual fails every tolerance.
"""

import math
from collections import namedtuple

from .errors import ModeError, ShapeError
from .matrix import (
    Powers,
    QMatrix,
    embed_complex,
    index_of,
    max_abs_diff,
    unembed_complex,
)
from .scalar import EXACT, FLOAT

DEFAULT_FLOAT_TOL = 1e-9


class EquationCheck(namedtuple("EquationCheck", "label passed residual", defaults=(None,))):
    """Verdict for one defining equation: its label, whether it passed and,
    in float mode only, its max-abs residual."""

    __slots__ = ()

    def human(self) -> str:
        tail = "" if self.residual is None else f"  (max residual {self.residual:.3e})"
        return f"{'pass' if self.passed else 'FAIL'}  {self.label}{tail}"


class VerifyReport(namedtuple("VerifyReport", "kind mode provenance checks notes", defaults=((), ()))):
    """Per-equation verdicts plus route provenance and errata notes; kind is
    "penrose", "drazin" or "wdrazin"."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def human(self) -> str:
        head = f"verify {self.kind} [{self.mode}]"
        if self.provenance:
            head += f" route={self.provenance}"
        lines = [head]
        lines += ["  " + c.human() for c in self.checks]
        lines += ["  note: " + n for n in self.notes]
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def kv_items(self) -> list:
        items = [
            ("report.kind", self.kind),
            ("report.mode", self.mode),
            ("report.route", self.provenance),
        ]
        for pos, c in enumerate(self.checks, start=1):
            items.append((f"report.check.{pos}.label", c.label))
            items.append((f"report.check.{pos}.pass", "true" if c.passed else "false"))
            if c.residual is not None:
                items.append((f"report.check.{pos}.residual", repr(c.residual)))
        for pos, n in enumerate(self.notes, start=1):
            items.append((f"report.note.{pos}", n))
        items.append(("report.ok", "true" if self.ok else "false"))
        return items


def _equation(label, lhs, rhs, notes):
    if lhs.mode == EXACT:
        passed = lhs == rhs
        if not passed:  # held forms are canonical: unequal matrices differ in an entry
            i, j = next((i, j) for i in range(lhs.rows) for j in range(lhs.cols) if lhs[i, j] != rhs[i, j])
            notes.append(f"{label}: entry ({i + 1},{j + 1}) is {lhs[i, j]}, expected {rhs[i, j]}")
        return EquationCheck(label, passed)
    residual = max_abs_diff(lhs, rhs)
    return EquationCheck(label, residual <= DEFAULT_FLOAT_TOL, residual)


def check_penrose(a: QMatrix, x: QMatrix, provenance: str = "") -> VerifyReport:
    """Check the four Penrose equations for a candidate pseudoinverse x."""
    if x.rows != a.cols or x.cols != a.rows:
        raise ShapeError(f"candidate must be {a.cols}x{a.rows}, got {x.rows}x{x.cols}")
    notes: list = []
    ax = a @ x
    xa = x @ a
    checks = (
        _equation("AXA = A", ax @ a, a, notes),
        _equation("XAX = X", xa @ x, x, notes),
        _equation("(AX)* = AX", ax.H, ax, notes),
        _equation("(XA)* = XA", xa.H, xa, notes),
    )
    return VerifyReport("penrose", a.mode, provenance, checks, tuple(notes))


def _drazin_checks(p: Powers, k: int, x: QMatrix, akx: QMatrix, notes):
    """The Drazin equations of x for the matrix of the power table p, of
    index k, given akx = A^(k+1) X."""
    a = p.a
    ax = akx if k == 0 else a @ x
    checks = (
        _equation("XAX = X", x @ ax, x, notes),
        _equation("AX = XA", ax, x @ a, notes),
        _equation(f"A^(k+1) X = A^k  [k={k}]", akx, p[k], notes),
    )
    return checks


def check_drazin(a: QMatrix, x: QMatrix, provenance: str = "") -> VerifyReport:
    """Check the Drazin defining equations for a candidate x."""
    if not a.is_square() or a.shape != x.shape:
        raise ShapeError("Drazin check needs square matrices of equal size")
    notes: list = []
    p = Powers(a)
    k = index_of(p)
    checks = _drazin_checks(p, k, x, p[k + 1] @ x, notes)
    return VerifyReport("drazin", a.mode, provenance, checks, tuple(notes))


def _combined(label, sub_checks):
    passed = all(c.passed for c in sub_checks)
    residuals = [c.residual for c in sub_checks if c.residual is not None]
    residual = max(residuals, key=lambda r: math.inf if math.isnan(r) else r) if residuals else None
    return EquationCheck(label, passed, residual)


def check_wdrazin(a: QMatrix, w: QMatrix, x: QMatrix, provenance: str = "") -> VerifyReport:
    """Check the weighted-Drazin defining equations for a candidate x,
    plus the two composition identities against AW and WA."""
    if w.rows != a.cols or w.cols != a.rows:
        raise ShapeError("weight shape must be the transpose of the input shape")
    if x.shape != a.shape:
        raise ShapeError(f"candidate must be {a.rows}x{a.cols}, got {x.rows}x{x.cols}")
    notes: list = []
    u, v = Powers(w @ a), Powers(a @ w)
    ku, kv = index_of(u), index_of(v)
    k = max(ku, kv)
    xw = x @ w
    wx = w @ x
    vxw = v[k + 1] @ xw
    checks = [
        _equation(f"(AW)^(k+1) X W = (AW)^k  [k={k}]", vxw, v[k], notes),
        _equation("XWAWX = X", xw @ (a @ wx), x, notes),
        _equation("AWX = XWA", v.a @ x, x @ u.a, notes),
        _combined("XW satisfies the Drazin equations of AW",
                  _drazin_checks(v, kv, xw, vxw if kv == k else v[kv + 1] @ xw, notes)),
        _combined("WX satisfies the Drazin equations of WA",
                  _drazin_checks(u, ku, wx, u[ku + 1] @ wx, notes)),
    ]
    return VerifyReport("wdrazin", a.mode, provenance, tuple(checks), tuple(notes))


def mp_oracle_embedding(a: QMatrix) -> QMatrix:
    """Reference Moore-Penrose inverse through the complex embedding.

    Float mode only: embeds, applies the standard complex pseudoinverse,
    and maps the result back.  The pseudoinverse of an embedded matrix is
    itself embedded, so the pullback is well defined up to rounding.
    """
    if a.mode != FLOAT:
        raise ModeError("the embedding oracle is float-mode only; convert first")
    import numpy as np  # only the oracles need numpy; keep it off import

    pinv = np.linalg.pinv(embed_complex(a))
    return unembed_complex(pinv)
