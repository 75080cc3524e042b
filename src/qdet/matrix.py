"""Dense quaternion matrices and their basic algebra.

`QMatrix` is an immutable m x n array of `Quaternion` entries sharing one
scalar mode.  Container indexing (``A[i, j]``, `row`, `col`) is 0-based
like any Python sequence; the determinant anchors in `qdet.ncdet` are
1-based to match the usual notation.

Products and row elimination run on component 4-tuples with the
Hamilton product written out, not on `Quaternion` objects.  An exact
matrix holds its value in a second form, made at most once: int
component rows over one denominator, ``(rows, den)``, canonical (den > 0
and gcd(den, every int) = 1), so two exact matrices are equal exactly when
their held forms are.  A matrix built from entries makes the form on first
use, scaling by the lcm of its denominators; an exact product, real
scalar multiple, conjugate transpose or cofactor table is made in that
form alone, dividing out one gcd, and builds its `Quaternion` entries
(components canonical as in `qdet.scalar`, `int` where integral) only
when they are read through `entries()`, `row`, `col` or indexing.  So a
chain of products, checks and ranks runs on `int` throughout.  Float
matrices hold entries only and compute as `Quaternion` arithmetic does,
bit for bit.  Rank is row rank by forward elimination; exact elimination
is fraction-free on the held rows (see `_eliminate`), float elimination
uses quaternionic left-division with a pivot tolerance, valid over a
division ring.  A `Powers` table holds the powers of one square matrix and
their ranks for one call; `mat_pow`, `index_of`, the Drazin routes and the
checkers read powers from such a table instead of rebuilding them.

The complex adjoint embedding maps each entry a + bi + cj + dk to the
2x2 complex block

    [[a + bi,  c + di],
     [-c + di, a - bi]]

giving a multiplicative, star-preserving map into 2m x 2n complex
matrices; it is used only as an independent numeric oracle, and this
block convention is fixed project-wide because the oracle depends on it.
"""

import math
from fractions import Fraction

from .errors import ModeError, NumericalBreakdownError, ShapeError, SingularError, invariant_error
from .scalar import EXACT, FLOAT, Quaternion, _coerce_real_operand, _of, parse_quaternion


class QMatrix:
    """Immutable dense quaternion matrix with uniform scalar mode.

    Its value never changes; an exact matrix fills two caches on first
    use, its `Quaternion` entries and its held form (module docstring).
    Either fill is idempotent, so a matrix is safe to share.
    """

    __slots__ = ("rows", "cols", "mode", "_entries", "_held")

    def __init__(self, entries):
        data = tuple(tuple(row) for row in entries)
        if not data or not data[0]:
            raise ShapeError("matrix must have at least one row and one column")
        ncols = len(data[0])
        for row in data:
            if len(row) != ncols:
                raise ShapeError("rows have inconsistent lengths")
        mode = data[0][0].mode
        for row in data:
            for q in row:
                if not isinstance(q, Quaternion):
                    raise TypeError(f"matrix entries must be Quaternion, got {type(q).__name__}")
                if q.mode != mode:
                    raise ModeError("matrix entries mix exact and float modes")
        self.rows = len(data)
        self.cols = ncols
        self.mode = mode
        self._entries = data
        self._held = None

    @classmethod
    def _trusted(cls, data, mode):
        """Wrap a nonempty rectangular tuple of tuples of `mode` quaternions
        (a kernel result) without re-validating it."""
        m = object.__new__(cls)
        m.rows = len(data)
        m.cols = len(data[0])
        m.mode = mode
        m._entries = data
        m._held = None
        return m

    @classmethod
    def _exact(cls, rows, den):
        """The exact matrix rows / den, for rows of int component tuples and
        a positive int den, holding only its held form (gcd divided out)."""
        m = object.__new__(cls)
        m.rows = len(rows)
        m.cols = len(rows[0])
        m.mode = EXACT
        m._entries = None
        m._held = _reduced(rows, den)
        return m

    def _form(self):
        """The held form (rows, den) of an exact matrix, made on first use."""
        if self._held is None:
            self._held = _held_form(self._entries)
        return self._held

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, mode=EXACT):
        z = Quaternion.zero(mode)
        return cls([[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n, mode=EXACT):
        z = Quaternion.zero(mode)
        one = Quaternion.one(mode)
        return cls([[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, qs):
        qs = list(qs)
        if not qs:
            raise ShapeError("matrix must have at least one row and one column")
        z = Quaternion.zero(qs[0].mode)
        return cls([[qs[i] if i == j else z for j in range(len(qs))] for i in range(len(qs))])

    @classmethod
    def from_literals(cls, rows, mode=None):
        """Build a matrix from rows of quaternion literal strings."""
        return cls([[parse_quaternion(s, mode) for s in row] for row in rows])

    # -- access ---------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries()[i][j]

    def row(self, i):
        return self.entries()[i]

    def col(self, j):
        return tuple(row[j] for row in self.entries())

    def entries(self):
        """The rows of `Quaternion` entries, built from the held form on
        first read when the matrix was made in that form."""
        if self._entries is None:
            rows, den = self._held
            self._entries = tuple(tuple(_quaternion(t, den, EXACT) for t in row) for row in rows)
        return self._entries

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self):
        return self.rows == self.cols

    # -- algebra --------------------------------------------------------

    def _check_mode(self, other):
        if self.mode != other.mode:
            raise ModeError(f"cannot combine {self.mode} and {other.mode} matrices")

    def __add__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._check_mode(other)
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape} matrices")
        return QMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries(), other.entries())
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QMatrix([[-q for q in row] for row in self.entries()])

    def __matmul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._check_mode(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        if self.mode == EXACT:
            return _exact_product(self._form(), other._form())
        bcols = list(zip(*_component_rows(other._entries)))
        out = []
        for ra in _component_rows(self._entries):
            out_row = []
            for cb in bcols:
                # The summation order of entrywise `acc + a * b`, so float
                # products are bit-identical to Quaternion arithmetic.
                s0 = s1 = s2 = s3 = 0.0
                for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(ra, cb):
                    s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
                    s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
                    s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
                    s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
                out_row.append(_of(s0, s1, s2, s3, FLOAT))
            out.append(tuple(out_row))
        return QMatrix._trusted(tuple(out), FLOAT)

    def __mul__(self, scalar):
        # Real scalar only; reals are central so the side does not matter.
        return self._scaled(scalar, divide=False)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self._scaled(scalar, divide=True)

    def _scaled(self, scalar, divide):
        """self * scalar, or self / scalar when divide.  An exact result is
        the held form times num / den, made in that form; float mode
        multiplies by the scalar or by its reciprocal, as `Quaternion` does."""
        r = _coerce_real_operand(scalar, self.mode)
        if r is None:
            return NotImplemented
        if divide and r == 0:
            raise ZeroDivisionError("division of quaternion by zero scalar")
        if self.mode == FLOAT:
            r = 1.0 / r if divide else r
            return QMatrix._trusted(tuple(tuple(q * r for q in row) for row in self._entries), FLOAT)
        num, den = (r.denominator, r.numerator) if divide else (r.numerator, r.denominator)
        if den < 0:
            num, den = -num, -den
        rows, lcm = self._form()
        return QMatrix._exact(
            tuple(tuple((a * num, b * num, c * num, d * num) for a, b, c, d in row) for row in rows), den * lcm
        )

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.mode != other.mode or self.shape != other.shape:
            return False
        if self.mode == EXACT:
            return self._form() == other._form()
        return self._entries == other._entries

    def __hash__(self):
        return hash((self.mode, self._form() if self.mode == EXACT else self._entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(q) for q in row) for row in self.entries())
        return f"QMatrix({self.rows}x{self.cols} {self.mode}: {body})"

    @property
    def H(self):
        """Hermitian adjoint: (A*)_ij = conj(A_ji); satisfies (AB)* = B*A*."""
        if self.mode == EXACT:
            rows, den = self._form()
            return QMatrix._exact(tuple(tuple((a, -b, -c, -d) for a, b, c, d in col) for col in zip(*rows)), den)
        return QMatrix(
            [[self._entries[i][j].conj() for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_hermitian(self):
        """Whether A equals its conjugate transpose.

        Exact mode compares the held forms.  Float mode allows a small
        absolute tolerance (1e-12 scaled by the largest entry)
        to absorb non-associative rounding in products like A @ A.H.
        """
        if not self.is_square():
            return False
        if self.mode == EXACT:
            return self._form() == self.H._form()
        scale = max(
            (abs(c) for row in self._entries for q in row for c in q.components()),
            default=0.0,
        )
        tol = 1e-12 * (1.0 + scale)
        for i in range(self.rows):
            for j in range(i, self.cols):
                d = self._entries[i][j] - self._entries[j][i].conj()
                if not all(abs(c) <= tol for c in d.components()):  # NaN is never within tol
                    return False
        return True

    def is_zero(self):
        return all(q.is_zero() for row in self.entries() for q in row)

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return QMatrix([[q.to_float() for q in row] for row in self.entries()])


# ---------------------------------------------------------------------------
# Operation-style entry points
# ---------------------------------------------------------------------------


class Powers:
    """The powers of one square matrix A and their ranks, for one call.

    ``p[e]`` is A^e, built as A^(e-1) @ A from the identity and made at
    most once; ``p.rank(e)`` is rank(A^e), computed at most once, with
    rank(A^0) = n.  A table lives as long as the call that builds it, so
    no result is cached across calls.
    """

    def __init__(self, a: QMatrix):
        if not a.is_square():
            raise ShapeError("powers and index are defined for square matrices only")
        self.a = a
        self._powers = [QMatrix.identity(a.rows, a.mode)]
        self._ranks = {0: a.rows}

    def __getitem__(self, e: int) -> QMatrix:
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        while len(self._powers) <= e:
            self._powers.append(self._powers[-1] @ self.a)
        return self._powers[e]

    def rank(self, e: int) -> int:
        if e not in self._ranks:
            self._ranks[e] = rank(self[e])
        return self._ranks[e]


def mat_pow(a: QMatrix, p: int) -> QMatrix:
    """p-th power by iterated multiplication; p = 0 gives the identity."""
    return Powers(a)[p]


# ---------------------------------------------------------------------------
# Component-tuple kernel: products and elimination
# ---------------------------------------------------------------------------


def _component_rows(entries):
    """Rows of component 4-tuples of quaternion rows `entries`."""
    return [[(q.a0, q.a1, q.a2, q.a3) for q in row] for row in entries]


def _held_form(entries):
    """The held form (rows, den) of exact entries: their component rows
    scaled to ints by the lcm den of their denominators.  It is canonical:
    each prime power that exactly divides den exactly divides the
    denominator of some component, whose scaled numerator is then prime
    to that prime."""
    rows = tuple(tuple((q.a0, q.a1, q.a2, q.a3) for q in row) for row in entries)
    den, ints = 1, True
    for row in rows:
        for t in row:
            for c in t:
                if c.__class__ is not int:
                    den, ints = math.lcm(den, c.denominator), False
    if ints:
        return rows, 1
    scaled = tuple(
        tuple(tuple(c * den if c.__class__ is int else c.numerator * (den // c.denominator) for c in t)
              for t in row)
        for row in rows
    )
    return scaled, den


def _reduced(rows, den):
    """The canonical (rows, den) of rows / den: both divided by their gcd."""
    g = den
    for row in rows:
        for t in row:
            g = math.gcd(g, *t)
            if g == 1:
                return rows, den
    return tuple(tuple((a // g, b // g, c // g, d // g) for a, b, c, d in row) for row in rows), den // g


def _exact_product(a, b):
    """The exact matrix product of held forms a and b, in held form only."""
    (arows, da), (brows, db) = a, b
    bcols = list(zip(*brows))
    out = []
    for ra in arows:
        out_row = []
        for cb in bcols:
            s0 = s1 = s2 = s3 = 0
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(ra, cb):
                s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
                s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
                s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
                s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
            out_row.append((s0, s1, s2, s3))
        out.append(tuple(out_row))
    return QMatrix._exact(tuple(out), da * db)


def _primitive(row):
    """An int row divided by the gcd of its components."""
    g = math.gcd(*(c for t in row for c in t))
    if g > 1:
        return [(a // g, b // g, c // g, d // g) for a, b, c, d in row]
    return row


def _over(c, den):
    """The int c divided by the positive int den, canonical: `int` where integral."""
    q, r = divmod(c, den)
    return Fraction(c, den) if r else q


def _quaternion(t, den, mode):
    """The quaternion t / den (den 1 in float mode)."""
    if den != 1:
        t = (_over(t[0], den), _over(t[1], den), _over(t[2], den), _over(t[3], den))
    return _of(t[0], t[1], t[2], t[3], mode)


def _hamilton(a, b):
    """The Hamilton product a b of component tuples, in `Quaternion.__mul__` order."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _norm_sq(t):
    a0, a1, a2, a3 = t
    return a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3


def _float_pivot_tol(rows, ncols):
    norms = [_norm_sq(t) for row in rows for t in row[:ncols]]
    if not all(map(math.isfinite, norms)):
        raise NumericalBreakdownError("an entry's squared norm is not finite: no float pivot scale")
    return 1e-20 * (1.0 + max(norms))


def _pivot_row(rows, col, start, exact, tol):
    """Row at or below `start` to pivot on in column `col`, or None.

    Exact mode takes the first nonzero entry; float mode the entry of
    largest squared norm above `tol`.
    """
    if exact:
        for r in range(start, len(rows)):
            if any(rows[r][col]):
                return r
        return None
    pivot_row, best = None, tol
    for r in range(start, len(rows)):
        nn = _norm_sq(rows[r][col])
        if nn > best:
            best = nn
            pivot_row = r
    return pivot_row


def _eliminate(rows, pivot_cols, exact, jordan=False):
    """Row-reduce `rows` (lists of component tuples) in place; return the rank.

    Pivots are sought in the first `pivot_cols` columns (`_pivot_row`).
    Forward elimination clears below each pivot and passes over a column
    without one; with `jordan` it clears above as well, leaves pivot j in
    row j, and stops at the first column without a pivot.

    Exact rows hold ints and stay integral: with pivot p and lead entry l
    of row r, row_r <- N(p) row_r - (l conj(p)) row_p, where N(p) = p conj(p)
    is a positive integer, and the row is then divided by its content; no
    `Fraction` is made.  (Bareiss's exact division rests on commutative
    determinants and does not carry over; the content gcd does.)  Float
    mode keeps quaternionic left-division, row_r <- row_r - (l p^-1) row_p;
    Gauss-Jordan first scales the pivot row by p^-1, then subtracts
    l row_p.  Both use the same pivot tolerance throughout.
    """
    tol = 0 if exact else _float_pivot_tol(rows, pivot_cols)
    m, rk = len(rows), 0
    for col in range(pivot_cols):
        pivot_row = _pivot_row(rows, col, rk, exact, tol)
        if pivot_row is None:
            if jordan:
                break
            continue
        rows[rk], rows[pivot_row] = rows[pivot_row], rows[rk]
        p0, p1, p2, p3 = p = rows[rk][col]
        n = _norm_sq(p)
        lo = 0 if jordan else col
        if exact:
            pbar = (p0, -p1, -p2, -p3)
        else:
            s = 1.0 / n
            pinv = (p0 * s, -p1 * s, -p2 * s, -p3 * s)
            if jordan:
                rows[rk] = [_hamilton(pinv, y) for y in rows[rk]]
        prow = rows[rk][lo:]
        for r in range(0 if jordan else rk + 1, m):
            row = rows[r]
            lead = row[col]
            if r == rk or not any(lead):
                continue
            if exact:
                f = _hamilton(lead, pbar)
                new = [
                    (n * x0 - h0, n * x1 - h1, n * x2 - h2, n * x3 - h3)
                    for (x0, x1, x2, x3), (h0, h1, h2, h3) in zip(row[lo:], (_hamilton(f, y) for y in prow))
                ]
                rows[r] = row[:lo] + _primitive(new)  # row[:lo] is zero when lo > 0
            else:
                f = lead if jordan else _hamilton(lead, pinv)
                rows[r] = row[:lo] + [
                    (x0 - h0, x1 - h1, x2 - h2, x3 - h3)
                    for (x0, x1, x2, x3), (h0, h1, h2, h3) in zip(row[lo:], (_hamilton(f, y) for y in prow))
                ]
        rk += 1
        if rk == m:
            break
    return rk


def rank(a: QMatrix) -> int:
    """Row rank by forward elimination (`_eliminate`).

    Exact mode eliminates fraction-free on the held rows, each divided by
    its content, as only their span counts.  In float mode a pivot is
    accepted when its squared norm exceeds a tolerance relative to the
    largest entry of the matrix; an entry whose squared norm is not finite
    raises NumericalBreakdownError.
    """
    if a.mode == EXACT:
        return _eliminate([_primitive(list(row)) for row in a._form()[0]], a.cols, True)
    return _eliminate(_component_rows(a.entries()), a.cols, False)


def index_of(a) -> int:
    """Smallest k with rank(A^(k+1)) == rank(A^k); 0 iff A is nonsingular.

    `a` is a `QMatrix` or its `Powers` table, which then keeps the powers
    and ranks the search builds for the caller.
    """
    p = a if isinstance(a, Powers) else Powers(a)
    k = 0
    while p.rank(k + 1) != p.rank(k):
        k += 1
        if k > p.a.rows:  # rank strictly drops at most n times
            raise invariant_error(p.a.mode, "index computation failed to stabilize")
    return k


def inverse_square(a: QMatrix) -> QMatrix:
    """Two-sided inverse of a square matrix by Gauss-Jordan elimination on
    [A | I] (`_eliminate`).

    Uses left row operations, so it solves A X = I; over a division ring a
    one-sided inverse of a square matrix is automatically two-sided.  In
    exact mode the elimination is fraction-free and leaves row i as
    [p_i e_i | R_i], so row i of the inverse is conj(p_i) R_i / N(p_i),
    one division per entry.  Raises `SingularError` when no acceptable
    pivot exists.
    """
    if not a.is_square():
        raise ShapeError("inverse requires a square matrix")
    n, exact = a.rows, a.mode == EXACT
    if exact:  # the rows of [A | I] scaled by den, each divided by its content
        held, den = a._form()
        one, zero = (den, 0, 0, 0), (0, 0, 0, 0)
        rows = [_primitive([*row, *(one if j == i else zero for j in range(n))]) for i, row in enumerate(held)]
    else:
        one, zero = (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)
        rows = [row + [one if j == i else zero for j in range(n)] for i, row in enumerate(_component_rows(a.entries()))]
    if _eliminate(rows, n, exact, jordan=True) < n:
        raise SingularError("matrix is singular")
    out = []
    for i, row in enumerate(rows):
        if exact:
            p0, p1, p2, p3 = p = row[i]
            pbar, norm = (p0, -p1, -p2, -p3), _norm_sq(p)
            out.append(tuple(_quaternion(_hamilton(pbar, y), norm, a.mode) for y in row[n:]))
        else:  # pivot rows were scaled by their inverse pivots
            out.append(tuple(_quaternion(t, 1, a.mode) for t in row[n:]))
    return QMatrix._trusted(tuple(out), a.mode)


def max_abs_diff(a: QMatrix, b: QMatrix) -> float:
    """Largest absolute componentwise difference, as a float (NaN if any is)."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot compare {a.shape} with {b.shape}")
    worst = 0.0
    for ra, rb in zip(a.entries(), b.entries()):
        for qa, qb in zip(ra, rb):
            for ca, cb in zip(qa.components(), qb.components()):
                d = abs(float(ca) - float(cb))
                if math.isnan(d):
                    return d  # no tolerance may accept it
                if d > worst:
                    worst = d
    return worst


# ---------------------------------------------------------------------------
# Complex adjoint embedding (numeric oracle)
# ---------------------------------------------------------------------------


def embed_complex(a: QMatrix) -> "np.ndarray":
    """Complex adjoint embedding as a 2m x 2n numpy array.

    Multiplicative and star-preserving; rank doubles, so
    rank(A) == matrix_rank(embed_complex(A)) / 2.
    """
    import numpy as np  # only the oracles need numpy; keep it off import

    out = np.zeros((2 * a.rows, 2 * a.cols), dtype=complex)
    for i in range(a.rows):
        for j in range(a.cols):
            w, x, y, z = (float(c) for c in a[i, j].components())
            out[2 * i, 2 * j] = complex(w, x)
            out[2 * i, 2 * j + 1] = complex(y, z)
            out[2 * i + 1, 2 * j] = complex(-y, z)
            out[2 * i + 1, 2 * j + 1] = complex(w, -x)
    return out


def unembed_complex(m: "np.ndarray") -> QMatrix:
    """Inverse of `embed_complex` (float mode), averaging the redundant block
    entries so numeric noise off the embedded subspace is symmetrized away."""
    rows2, cols2 = m.shape
    if rows2 % 2 or cols2 % 2:
        raise ShapeError("embedded matrix must have even dimensions")
    out = []
    for i in range(rows2 // 2):
        row = []
        for j in range(cols2 // 2):
            tl = m[2 * i, 2 * j]
            tr = m[2 * i, 2 * j + 1]
            bl = m[2 * i + 1, 2 * j]
            br = m[2 * i + 1, 2 * j + 1]
            a = (tl.real + br.real) / 2.0
            b = (tl.imag - br.imag) / 2.0
            c = (tr.real - bl.real) / 2.0
            d = (tr.imag + bl.imag) / 2.0
            row.append(Quaternion(a, b, c, d, FLOAT))
        out.append(row)
    return QMatrix(out)
