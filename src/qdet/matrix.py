"""Dense quaternion matrices and their basic algebra.

`QMatrix` is an immutable m x n array of `Quaternion` entries sharing one
scalar mode.  Container indexing (``A[i, j]``, `row`, `col`) is 0-based
like any Python sequence; the determinant anchors in `qdet.ncdet` are
1-based to match the usual notation.

Every operation runs on component 4-tuples with the Hamilton product
written out, not on `Quaternion` objects.  A matrix's one state is its
held form: component rows over one denominator, ``(rows, den)``.  An
exact matrix holds int components and a canonical den (den > 0 and
gcd(den, every int) = 1), so two exact matrices are equal exactly when
their held forms are; a float matrix holds float components over den = 1.
The constructor makes the form from the given entries, scaling exact
rows by the lcm of their denominators; every other matrix (a sum,
difference, product, real scalar multiple, conjugate transpose, float
copy, inverse or cofactor table) is made in that form alone, dividing
out one gcd.  `Quaternion` entries (components canonical as in
`qdet.scalar`, `int` where integral) are only a view: each read through
`entries()`, `row`, `col` or indexing builds the entries it returns from
the held form, so equal matrices read alike.  A chain of operations runs
on `int` (or `float`) throughout.  Both modes run the same loops, in the
summation order of `Quaternion` arithmetic, so float results are
bit-identical to it.  Rank is row rank by forward elimination; exact
elimination is fraction-free (see `_eliminate`), float elimination uses
quaternionic left-division with a pivot tolerance, valid over a division
ring.  An exact product with an identity factor makes no product: it
is the other factor.  A float one is a product like any other, as its
bits are not the other factor's (a sum from 0.0 turns -0.0 into 0.0,
and 0 * inf is NaN).  A `Powers` table holds, for one call, the powers
of one square matrix and their ranks, each made once, A^0 only when
read; `mat_pow`, `index_of`, the Drazin routes and the checkers read
powers from such a table instead of rebuilding them.

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
from .scalar import EXACT, FLOAT, Quaternion, _coerce_real_operand, _of, literal_mode, parse_quaternion


class QMatrix:
    """Immutable dense quaternion matrix with uniform scalar mode.

    Its one state is the held form (module docstring), set by the
    constructor and never changed after, so a matrix is safe to share.
    Its `Quaternion` entries are built from that form on each read.
    """

    __slots__ = ("rows", "cols", "mode", "_held")

    def __init__(self, entries):
        data = tuple(tuple(row) for row in entries)
        if not data or not data[0]:
            raise ShapeError("matrix must have at least one row and one column")
        ncols = len(data[0])
        for row in data:
            if len(row) != ncols:
                raise ShapeError("rows have inconsistent lengths")
        mode = None
        for row in data:
            for q in row:
                if not isinstance(q, Quaternion):
                    raise TypeError(f"matrix entries must be Quaternion, got {type(q).__name__}")
                if mode is None:
                    mode = q.mode
                elif q.mode != mode:
                    raise ModeError("matrix entries mix exact and float modes")
        self.rows = len(data)
        self.cols = ncols
        self.mode = mode
        self._held = _held_form(data)

    @classmethod
    def _made(cls, rows, den, mode):
        """The `mode` matrix rows / den, holding only its held form (gcd
        divided out): rows of component tuples, int in exact mode, float
        in float mode with den 1."""
        m = object.__new__(cls)
        m.rows = len(rows)
        m.cols = len(rows[0])
        m.mode = mode
        m._held = _reduced(rows, den)
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, mode=EXACT):
        return cls._filled(rows, cols, Quaternion.zero(mode))

    @classmethod
    def identity(cls, n, mode=EXACT):
        return cls._filled(n, n, Quaternion.one(mode))

    @classmethod
    def _filled(cls, rows, cols, d):
        """The rows x cols matrix with d on its diagonal and 0 elsewhere, made in held form."""
        if rows < 1 or cols < 1:
            raise ShapeError("matrix must have at least one row and one column")
        zero, t = (Quaternion.zero(d.mode).components(),) * cols, d.components()
        return cls._made(tuple([zero[:i] + (t,) + zero[i + 1:] if i < cols else zero for i in range(rows)]), 1, d.mode)

    @classmethod
    def diagonal(cls, qs):
        qs = list(qs)
        if not qs:
            raise ShapeError("matrix must have at least one row and one column")
        z = Quaternion.zero(qs[0].mode)
        return cls([[qs[i] if i == j else z for j in range(len(qs))] for i in range(len(qs))])

    @classmethod
    def from_literals(cls, rows, mode=None):
        """Build a matrix from rows of quaternion literal strings; with
        ``mode=None``, in the one mode `literal_mode` infers from them all."""
        rows = [list(row) for row in rows]
        if mode is None:
            for row in rows:
                for s in row:
                    mode = literal_mode(s, mode)
            mode = mode or EXACT
        return cls([[parse_quaternion(s, mode) for s in row] for row in rows])

    # -- access ---------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        rows, den = self._held
        return _quaternion(rows[i][j], den, self.mode)

    def row(self, i):
        rows, den = self._held
        return tuple(_quaternion(t, den, self.mode) for t in rows[i])

    def col(self, j):
        rows, den = self._held
        return tuple(_quaternion(row[j], den, self.mode) for row in rows)

    def entries(self):
        """The rows of `Quaternion` entries, built from the held form."""
        rows, den = self._held
        return tuple(tuple(_quaternion(t, den, self.mode) for t in row) for row in rows)

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
        # x/da + y/db is (x db + y da)/(da db).  Float dens are 1, and
        # x * 1 + y * 1 is x + y bit for bit, -0.0 and NaN included.
        (ra, da), (rb, db) = self._held, other._held
        rows = tuple([
            tuple([(x0 * db + y0 * da, x1 * db + y1 * da, x2 * db + y2 * da, x3 * db + y3 * da)
                   for (x0, x1, x2, x3), (y0, y1, y2, y3) in zip(a, b)])
            for a, b in zip(ra, rb)
        ])
        return QMatrix._made(rows, da * db, self.mode)

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        rows, den = self._held
        return QMatrix._made(tuple([tuple([(-a, -b, -c, -d) for a, b, c, d in row]) for row in rows]), den, self.mode)

    def __matmul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._check_mode(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        if self.mode == EXACT:  # an exact identity factor is free
            if _is_identity(self):
                return other
            if _is_identity(other):
                return self
        return _product(self._held, other._held, self.mode)

    def __mul__(self, scalar):
        # Real scalar only; reals are central so the side does not matter.
        return self._scaled(scalar, divide=False)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self._scaled(scalar, divide=True)

    def _scaled(self, scalar, divide):
        """self * scalar, or self / scalar when divide: the held form times
        num / den, made in that form.  A float scalar r is num with den 1,
        and dividing multiplies by 1.0 / r, as `Quaternion` does."""
        r = _coerce_real_operand(scalar, self.mode)
        if r is None:
            return NotImplemented
        if divide:
            if r == 0:
                raise ZeroDivisionError("division of quaternion by zero scalar")
            r = Fraction(1) / r  # 1.0 / r for a float r
        num, den = (r, 1) if self.mode == FLOAT else (r.numerator, r.denominator)
        rows, lcm = self._held
        if num != 1 or self.mode == FLOAT:  # an exact 1 / den scales den alone
            rows = tuple([tuple([(a * num, b * num, c * num, d * num) for a, b, c, d in row]) for row in rows])
        return QMatrix._made(rows, den * lcm, self.mode)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.mode != other.mode or self.shape != other.shape:
            return False
        return self._held == other._held

    def __hash__(self):
        return hash((self.mode, self._held))

    def __repr__(self):
        body = "; ".join(" ".join(str(q) for q in row) for row in self.entries())
        return f"QMatrix({self.rows}x{self.cols} {self.mode}: {body})"

    @property
    def H(self):
        """Hermitian adjoint: (A*)_ij = conj(A_ji); satisfies (AB)* = B*A*."""
        rows, den = self._held
        return QMatrix._made(tuple([tuple([(a, -b, -c, -d) for a, b, c, d in col]) for col in zip(*rows)]), den, self.mode)

    def is_hermitian(self):
        """Whether A equals its conjugate transpose.

        Compares the held rows.  Exact mode asks for equality; float mode
        allows a small absolute tolerance (1e-12 scaled by the largest
        component) to absorb non-associative rounding in products like
        A @ A.H.
        """
        if not self.is_square():
            return False
        rows = self._held[0]
        tol = 0
        if self.mode == FLOAT:
            tol = 1e-12 * (1.0 + max([abs(c) for row in rows for t in row for c in t]))
        for i, row in enumerate(rows):
            for j in range(i, self.cols):
                (a0, a1, a2, a3), (b0, b1, b2, b3) = row[j], rows[j][i]
                # a - conj(b), tested as `not <=` since NaN is never within tol
                if not (abs(a0 - b0) <= tol and abs(a1 + b1) <= tol and abs(a2 + b2) <= tol and abs(a3 + b3) <= tol):
                    return False
        return True

    def is_zero(self):
        return not any(c for row in self._held[0] for t in row for c in t)

    def to_float(self):
        """Each component c / den, rounded (or OverflowError) as float(Fraction(c, den))."""
        if self.mode == FLOAT:
            return self
        rows, den = self._held
        return QMatrix._made(tuple([tuple([(a / den, b / den, c / den, d / den) for a, b, c, d in row]) for row in rows]), 1, FLOAT)


# ---------------------------------------------------------------------------
# Operation-style entry points
# ---------------------------------------------------------------------------


class Powers:
    """The powers of one square matrix A and their ranks, for one call.

    ``p[e]`` is A^e: the identity, made only when read, A itself, then
    A^(e-1) @ A, each made at most once; ``p.rank(e)`` is rank(A^e),
    computed at most once, with rank(A^0) = n.  A table lives as long as
    the call that builds it, so no result is cached across calls.
    """

    def __init__(self, a: QMatrix):
        if not a.is_square():
            raise ShapeError("powers and index are defined for square matrices only")
        self.a = a
        self._powers = [None, a]
        self._ranks = {0: a.rows}

    def __getitem__(self, e: int) -> QMatrix:
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        powers = self._powers
        if e == 0 and powers[0] is None:
            powers[0] = QMatrix.identity(self.a.rows, self.a.mode)
        while len(powers) <= e:
            powers.append(powers[-1] @ self.a)
        return powers[e]

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


def _held_form(entries):
    """The held form (rows, den) of entries: their component rows, scaled
    to ints by the lcm den of their denominators if a component is a
    `Fraction` (never in float mode).  It is canonical: each prime power
    that exactly divides den exactly divides the denominator of some
    component, whose scaled numerator is then prime to that prime."""
    rows = tuple(tuple((q.a0, q.a1, q.a2, q.a3) for q in row) for row in entries)
    den, fractions = 1, False
    for row in rows:
        for t in row:
            for c in t:
                if c.__class__ is Fraction:
                    den, fractions = math.lcm(den, c.denominator), True
    if not fractions:
        return rows, 1
    scaled = tuple(
        tuple(tuple(c * den if c.__class__ is int else c.numerator * (den // c.denominator) for c in t)
              for t in row)
        for row in rows
    )
    return scaled, den


def _reduced(rows, den):
    """The canonical (rows, den) of rows / den: both divided by their gcd.
    den 1, and so every float form, is canonical already."""
    if den == 1:
        return rows, den
    g = den
    for row in rows:
        for t in row:
            g = math.gcd(g, *t)
            if g == 1:
                return rows, den
    return tuple([tuple([(a // g, b // g, c // g, d // g) for a, b, c, d in row]) for row in rows]), den // g


def _product(a, b, mode):
    """The `mode` matrix product of held forms a and b, in held form only.
    Each sum runs in the order of entrywise `acc + a * b`, from the mode's
    start: 0, or 0.0 in float mode, which 0 + x computes as for every
    float x, so float products are bit-identical to `Quaternion`
    arithmetic."""
    (arows, da), (brows, db) = a, b
    bcols = list(zip(*brows))
    start = 0 if mode == EXACT else 0.0
    out = []
    for ra in arows:
        out_row = []
        for cb in bcols:
            s0 = s1 = s2 = s3 = start
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(ra, cb):
                s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
                s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
                s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
                s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
            out_row.append((s0, s1, s2, s3))
        out.append(tuple(out_row))
    return QMatrix._made(tuple(out), da * db, mode)


_ONE, _ZERO = (1, 0, 0, 0), (0, 0, 0, 0)


def _is_identity(m):
    """Whether an exact m is an identity: square, den 1, each diagonal
    entry 1 and every other entry 0.  Most matrices fail the first entry."""
    rows, den = m._held
    if rows[0][0] != _ONE or den != 1 or m.rows != m.cols:
        return False
    zero = (_ZERO,) * m.cols
    for i, row in enumerate(rows):
        if row != zero[:i] + (_ONE,) + zero[i + 1:]:
            return False
    return True


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
    norms = [a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 for row in rows for a0, a1, a2, a3 in row[:ncols]]
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
        a0, a1, a2, a3 = rows[r][col]
        nn = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
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
    if exact:  # only the rows' span counts: divide each by its content
        rows[:] = map(_primitive, rows)
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
            pinv = f0, f1, f2, f3 = (p0 * s, -p1 * s, -p2 * s, -p3 * s)
            if jordan:
                rows[rk] = [
                    (f0 * y0 - f1 * y1 - f2 * y2 - f3 * y3, f0 * y1 + f1 * y0 + f2 * y3 - f3 * y2,
                     f0 * y2 - f1 * y3 + f2 * y0 + f3 * y1, f0 * y3 + f1 * y2 - f2 * y1 + f3 * y0)
                    for y0, y1, y2, y3 in rows[rk]
                ]
        prow = rows[rk][lo:]
        for r in range(0 if jordan else rk + 1, m):
            row = rows[r]
            lead = row[col]
            if r == rk or not any(lead):
                continue
            # Each update subtracts f row_p, its products written out.
            if exact:
                f0, f1, f2, f3 = _hamilton(lead, pbar)
                new = [
                    (n * x0 - (f0 * y0 - f1 * y1 - f2 * y2 - f3 * y3), n * x1 - (f0 * y1 + f1 * y0 + f2 * y3 - f3 * y2),
                     n * x2 - (f0 * y2 - f1 * y3 + f2 * y0 + f3 * y1), n * x3 - (f0 * y3 + f1 * y2 - f2 * y1 + f3 * y0))
                    for (x0, x1, x2, x3), (y0, y1, y2, y3) in zip(row[lo:], prow)
                ]
                rows[r] = row[:lo] + _primitive(new)  # row[:lo] is zero when lo > 0
            else:
                f0, f1, f2, f3 = lead if jordan else _hamilton(lead, pinv)
                rows[r] = row[:lo] + [
                    (x0 - (f0 * y0 - f1 * y1 - f2 * y2 - f3 * y3), x1 - (f0 * y1 + f1 * y0 + f2 * y3 - f3 * y2),
                     x2 - (f0 * y2 - f1 * y3 + f2 * y0 + f3 * y1), x3 - (f0 * y3 + f1 * y2 - f2 * y1 + f3 * y0))
                    for (x0, x1, x2, x3), (y0, y1, y2, y3) in zip(row[lo:], prow)
                ]
        rk += 1
        if rk == m:
            break
    return rk


def rank(a: QMatrix) -> int:
    """Row rank by forward elimination (`_eliminate`).

    It runs on the held rows.  Exact mode eliminates fraction-free; in
    float mode a pivot is accepted when its squared norm exceeds a
    tolerance relative to the largest entry of the matrix, and an entry
    whose squared norm is not finite raises NumericalBreakdownError.
    """
    return _eliminate([list(row) for row in a._held[0]], a.cols, a.mode == EXACT)


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
    held over the lcm of the N(p_i).  Float elimination scales each pivot
    row by its inverse pivot, so it leaves the inverse itself.  Raises
    `SingularError` when no acceptable pivot exists.
    """
    if not a.is_square():
        raise ShapeError("inverse requires a square matrix")
    n, exact = a.rows, a.mode == EXACT
    # [A | I] scaled by den.  In float mode den is 1, and the int 0 and 1
    # compute as 0.0 and 1.0 until scaling the pivot rows makes them floats.
    held, den = a._held
    one, zero = (den, 0, 0, 0), (0, 0, 0, 0)
    rows = [[*row, *[one if j == i else zero for j in range(n)]] for i, row in enumerate(held)]
    if _eliminate(rows, n, exact, jordan=True) < n:
        raise SingularError("matrix is singular")
    if exact:
        norms = [_norm_sq(row[i]) for i, row in enumerate(rows)]
        den = math.lcm(*norms)
        out = []
        for i, row in enumerate(rows):
            s = den // norms[i]
            p0, p1, p2, p3 = row[i]
            f0, f1, f2, f3 = (p0 * s, -p1 * s, -p2 * s, -p3 * s)  # conj(p_i) den / N(p_i)
            out.append(tuple([
                (f0 * y0 - f1 * y1 - f2 * y2 - f3 * y3, f0 * y1 + f1 * y0 + f2 * y3 - f3 * y2,
                 f0 * y2 - f1 * y3 + f2 * y0 + f3 * y1, f0 * y3 + f1 * y2 - f2 * y1 + f3 * y0)
                for y0, y1, y2, y3 in row[n:]
            ]))
    else:
        out = [tuple(row[n:]) for row in rows]
    return QMatrix._made(tuple(out), den, a.mode)


def _shifted(m: QMatrix, lam: float) -> QMatrix:
    """lam I + m for a square float m, made directly, bit for bit
    ``QMatrix.identity(n, FLOAT) * lam + m``: 0.0 * lam is 0.0 for a
    finite lam > 0, and that sum adds x * 1 + y * 1, which is x + y."""
    return QMatrix._made(tuple([
        tuple([(lam + v0, 0.0 + v1, 0.0 + v2, 0.0 + v3) if i == j else (0.0 + v0, 0.0 + v1, 0.0 + v2, 0.0 + v3)
               for j, (v0, v1, v2, v3) in enumerate(row)])
        for i, row in enumerate(m._held[0])
    ]), 1, FLOAT)


def max_abs_diff(a: QMatrix, b: QMatrix) -> float:
    """Largest absolute componentwise difference, as a float (NaN if any is)."""
    if a.shape != b.shape:
        raise ShapeError(f"cannot compare {a.shape} with {b.shape}")
    (ra, da), (rb, db) = a._held, b._held
    worst = 0.0
    for xa, xb in zip(ra, rb):
        for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(xa, xb):
            # each term is the float of a component
            for d in (a0 / da - b0 / db, a1 / da - b1 / db, a2 / da - b2 / db, a3 / da - b3 / db):
                if not -worst <= d <= worst:  # NaN is never within worst
                    worst = abs(d)
                    if worst != worst:
                        return worst  # no tolerance may accept it
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
    for i, row in enumerate(a.to_float()._held[0]):
        for j, (w, x, y, z) in enumerate(row):
            out[2 * i, 2 * j] = complex(w, x)
            out[2 * i, 2 * j + 1] = complex(y, z)
            out[2 * i + 1, 2 * j] = complex(-y, z)
            out[2 * i + 1, 2 * j + 1] = complex(w, -x)
    return out


def unembed_complex(m: "np.ndarray") -> QMatrix:
    """Inverse of `embed_complex` (float mode), averaging the redundant block
    entries so numeric noise off the embedded subspace is symmetrized away."""
    rows2, cols2 = m.shape
    if not (rows2 and cols2) or rows2 % 2 or cols2 % 2:
        raise ShapeError("embedded matrix must have positive even dimensions")
    m = m.tolist()  # Python complex entries, so the components are Python floats
    out = []
    for i in range(rows2 // 2):
        row = []
        for j in range(cols2 // 2):
            tl = m[2 * i][2 * j]
            tr = m[2 * i][2 * j + 1]
            bl = m[2 * i + 1][2 * j]
            br = m[2 * i + 1][2 * j + 1]
            a = (tl.real + br.real) / 2.0
            b = (tl.imag - br.imag) / 2.0
            c = (tr.real - bl.real) / 2.0
            d = (tr.imag + bl.imag) / 2.0
            row.append((a, b, c, d))
        out.append(tuple(row))
    return QMatrix._made(tuple(out), 1, FLOAT)
