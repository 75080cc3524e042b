"""Row and column determinants of quaternion matrices.

Because entries do not commute, a determinant here fixes the order of the
factors in every term.  Each permutation of {1..n} is written as a product
of disjoint cycles (fixed points count as cycles of length one).  A cycle
(c1 c2 ... cp) contributes the left-to-right entry chain

    a[c1,c2] * a[c2,c3] * ... * a[cp,c1]

and the term carries the classical sign (-1)**(n - r), where r is the
number of cycles.  The two determinant families differ only in how the
cycle chains are ordered inside the term:

* the row determinant anchored at row i multiplies the chain of the cycle
  containing i first (that chain starts at i), then the remaining chains
  by increasing minimal element, each starting at its minimal element;
* the column determinant anchored at column j multiplies the same chains
  in the mirrored order: decreasing minimal element first, the anchor
  cycle last.

On a Hermitian matrix all 2n row/column determinants coincide in a real
value, the double determinant `ddet`, which behaves like a classical
determinant (cofactor expansion, characteristic polynomial, inverse).

Two independent evaluators are provided.  The canonical one, behind
`rdet`/`cdet`, is a cycle-sum recursion: in the canonical cycle order the
factors after the anchor cycle depend only on the set of elements left,
so the n! terms regroup into sums over subsets (Held-Karp style), at
O(n**2 2**n + 3**n) quaternion products per determinant and with no
n!-sized table.  The reference one walks `itertools.permutations` and
decomposes each permutation into its cycles, term by term.  Their
exact agreement on random exact matrices is a test gate, as is the
collapse to the classical determinant on commuting entries.

The subset tables hold component 4-tuples, not `Quaternion` objects.
Each table is filled by one loop with the Hamilton product written out
in it, in `Quaternion.__mul__` order, so no table step calls a helper;
a `Quaternion` is made only for an output.  Entries are read in the
matrix's held form, components over one denominator den: `int`s in exact
mode, so every exact table entry is a tuple of `int`s, and `float`s over
den = 1 in float mode.  The tables take the transposed rows (the columns)
as an argument, made once per determinant, not once per table.
Every term of an entry has a fixed number of factors (|Y|+1 for a
signed cycle sum over Y, |X| for the tail of X), so each output is
divided once, by den to that power, with components canonical (`int`
where integral).  The sums run in the order of `Quaternion` arithmetic,
so float results are bit-identical to it.

The tail table of that recursion holds, for every subset X of the
indices other than the anchor, the determinant of the principal
submatrix on X anchored at its least index, and last the determinant
itself, the full set anchored at the anchor.  `ddet` is rdet_1 on these
tables, as the paper defines it; the tables serve nothing else.

The sums of principal minors, and the bordered minor sums behind the
generalized inverses (a principal submatrix with its anchor column, or
row, replaced by a vector), enumerate no subsets.  The bordered sums are
linear in that vector, so `_bordered_cofactors` returns a matrix Y with
which every such sum is a product; `hermitian_inverse` is its full-order
case.  All of them come from two identities for the order-r cofactors
Y_r and minor sums d_r of a Hermitian g (d_0 = 1):

* ddet(tI + g) (tI + g)^-1 = sum over r of Y_r t^(n-r), the paper's
  Hermitian Cramer rule expanded in t, so Y_1 = I and
  Y_(r+1) = d_r I - Y_r g;
* Newton's identities, through the complex adjoint embedding:
  r d_r = Re tr(Y_r g).

This is the Faddeev-LeVerrier (Cayley-Hamilton) form of the
Moore-Penrose inverse in H. P. Decell, "An application of the
Cayley-Hamilton theorem to generalized matrix inversion", SIAM Review 7
(1965).  `_leverrier` runs it on an exact g = E / den held as ints:

    Y_1 = I,  P_s = Y_s E,  D_s = Re tr(P_s) / s,  Y_(s+1) = D_s I - P_s,

which gives Y_r = Y / den**(r-1) at r - 2 matrix products, and on the
way every d_s = D_s / den**s, s = 1..r: `char_poly` reads them all,
`principal_minor_sum` reads d_s, and `_bordered_cofactors` d_r.  Each
Y_s is a polynomial in g with integer coefficients, so it commutes with
g: the row family and the column family of a Hermitian g are the same
cofactors, and one pass gives both.

Both modes run that one exact pass.  A float g stands for an exact
matrix: every finite double is a dyadic rational, so its components are
ints over one power of two.  Rounding leaves a float Gram matrix some
bits off Hermitian, so the pass runs on the exact Hermitian part of that
matrix (`_exact_hermitian`), and Y and each d_s are rounded once: float
cofactors and minor sums are the correctly rounded ones of that
Hermitian part.
The recurrence is not run in float arithmetic, where it cancels: on
real-valued Hermitian Gram matrices at n = 6 and 7 a float port's errors
were up to 200 times those of float subset sums (README, "Routes").

Every evaluator refuses matrices above a size guard (default n = 8)
rather than silently running for hours: the reference evaluators and
the determinants (`rdet`, `cdet`, `ddet`) stay exponential in n.  For
the minor sums, cofactors and inverses the guard bounds the order of the
minors (the rank r a route expands), not the size of the matrix; they
keep that refusal, though they enumerate nothing.  It is overridden for
one call only, by the `max_n` of every evaluator and inverse, passed as
an argument down to the check; the module holds no guard state.  An
override must be an integer of at least 1, and not a bool.  Every
evaluator checks it before it looks at the matrix, as `geninv.inverse`
does, so an invalid override is refused whatever the input.
"""

import itertools
import math
import operator
from functools import lru_cache, reduce

from .errors import (
    EnumerationGuardError,
    InternalInvariantError,
    NotHermitianError,
    NumericalBreakdownError,
    ShapeError,
    SingularError,
)
from .matrix import QMatrix, _over, _quaternion
from .scalar import EXACT, Quaternion

DEFAULT_ENUMERATION_GUARD = 8


def _override(max_n) -> int:
    """The guard that max_n sets: the default for None, else max_n checked
    as an override."""
    if max_n is None:
        return DEFAULT_ENUMERATION_GUARD
    if isinstance(max_n, bool):
        raise TypeError(f"guard override max_n must be an integer, not a bool: {max_n}")
    if operator.index(max_n) < 1:  # a TypeError for anything that is not an integer
        raise ValueError(f"guard override max_n must be at least 1, got {max_n}")
    return max_n


def _refuse_above_guard(n: int, max_n, what="minor order", bounds="the minor order, not the matrix size"):
    limit = _override(max_n)
    if n > limit:
        raise EnumerationGuardError(
            f"{what} {n} exceeds the enumeration guard {limit}, which bounds {bounds}; "
            "raise the guard explicitly to proceed"
        )


def _check(a: QMatrix, anchor: int, max_n, bounds="the determinant size (2^n index subsets summed)"):
    _override(max_n)  # an invalid override is refused before the input is looked at
    if not a.is_square():
        raise ShapeError("row/column determinants require a square matrix")
    n = a.rows
    _refuse_above_guard(n, max_n, "n =", bounds)
    if not 1 <= anchor <= n:
        raise ValueError(f"anchor {anchor} out of range 1..{n}")
    return n


def _mask(indices) -> int:
    mask = 0
    for x in indices:
        mask |= 1 << x
    return mask


# The same members recur across calls (every determinant of one size and
# anchor reads the same ones); without the memo the enum_large benchmark
# runs about 11% slower.  The result is an immutable tuple, so sharing it is safe.
@lru_cache(maxsize=256)
def _subsets(members: tuple) -> tuple:
    """(mask, subset) for every nonempty subset of `members`, by size and
    then in combination order."""
    return tuple(
        (_mask(subset), subset)
        for size in range(1, len(members) + 1)
        for subset in itertools.combinations(members, size)
    )


def _signed_cycle_sums(cols, root, members, start):
    """Signed sums of the cycles through `root` over subsets of `members`,
    of the matrix e with columns `cols`.

    Returns a dict mapping the bitmask of each subset Y of `members`
    (0-based indices) to (-1)**|Y| * H(Y), where H(Y) is the sum, over
    every ordering y1..yp of Y, of the chain

        e[root][y1] * e[y1][y2] * ... * e[yp][root],

    and H of the empty set is e[root][root].  The loop extends the forward
    open paths root -> Y, Held-Karp style (each end extends the paths of
    Y - {end} by one step, so a subset costs |Y|**2 products, not |Y|!
    chains), and closes each by its last factor as soon as it is made.
    """
    back = cols[root]  # back[end] is e[end][root]
    # The open paths over a subset, as flat tuples (end, four components).
    sums, paths = {0: back[root]}, {0: ()}
    for mask, subset in _subsets(members):
        h0, h1, h2, h3 = start
        paths[mask] = ends = []
        for end in subset:
            prev, step = mask ^ (1 << end), cols[end]
            a0, a1, a2, a3 = start if prev else step[root]  # one step from root
            for o, p0, p1, p2, p3 in paths[prev]:
                b0, b1, b2, b3 = step[o]
                a0 += p0 * b0 - p1 * b1 - p2 * b2 - p3 * b3
                a1 += p0 * b1 + p1 * b0 + p2 * b3 - p3 * b2
                a2 += p0 * b2 - p1 * b3 + p2 * b0 + p3 * b1
                a3 += p0 * b3 + p1 * b2 - p2 * b1 + p3 * b0
            ends.append((end, a0, a1, a2, a3))
            b0, b1, b2, b3 = back[end]
            h0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
            h1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
            h2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
            h3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
        sums[mask] = (-h0, -h1, -h2, -h3) if len(subset) % 2 else (h0, h1, h2, h3)
    return sums


def _tails(cols, root, row, start):
    """The tail table of the cycle-sum recursion, by bitmask, of the matrix
    with columns `cols`: R(X) (row=True) or C(X) for every nonempty subset
    X of the indices other than `root`, and last the entry of the full
    set, the same sum anchored at `root`: the determinant.

    R(X) is the row determinant of the principal submatrix on X anchored
    at its first row, C(X) the column determinant anchored at its first
    column; on a Hermitian matrix both are the principal minor of X.  The
    operand order is picked once per entry, not once per term.
    """
    n = len(cols)
    others = tuple(x for x in range(n) if x != root)
    sums_at = {m: _signed_cycle_sums(cols, m, others[k + 1 :], start) for k, m in enumerate(others)}
    sums_at[root] = _signed_cycle_sums(cols, root, others, start)
    tails = {}
    # By increasing size: every subset a tail needs is smaller, so ready.
    for mask, subset in (*_subsets(others), ((1 << n) - 1, (root,))):
        low = subset[0]  # X's least element (`others` ascends), or `root`
        sums, rest = sums_at[low], mask ^ (1 << low)
        s0, s1, s2, s3 = sums[rest]
        y = rest
        if row:
            while y:
                y = (y - 1) & rest
                (a0, a1, a2, a3), (b0, b1, b2, b3) = sums[y], tails[rest ^ y]
                s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
                s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
                s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
                s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
        else:
            while y:
                y = (y - 1) & rest
                (b0, b1, b2, b3), (a0, a1, a2, a3) = sums[y], tails[rest ^ y]
                s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
                s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
                s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
                s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
        tails[mask] = (s0, s1, s2, s3)
    return tails


def _cycle_sum_det(a: QMatrix, anchor: int, row: bool) -> Quaternion:
    """The row (row=True) or column determinant anchored at `anchor`
    (1-based), by the subset recursion over the canonical cycle order.

    A term's factors after the anchor cycle are the cycles of the
    elements left over, by ascending minimum; so the sum of those tails
    depends only on the leftover set X.  For the row determinant

        R(empty) = 1,   R(X) = sum over Y in X - {m} of S_m(Y) * R(X - {m} - Y),

    where m = min X and S_m(Y) is the signed sum of the cycles m -> Y -> m
    (`_signed_cycle_sums`), and rdet = sum over Y of S_anchor(Y) * R(rest).
    The column determinant multiplies the same factors in the mirrored
    order, C(X - {m} - Y) * S_m(Y).  By distributivity this is the n!-term
    sum regrouped, at O(n**2 2**n + 3**n) products; each term has n
    factors, so an exact result is divided by den**n.  No rank decision
    refuses an overflowing float input first, so a float result that is
    not finite raises NumericalBreakdownError.
    """
    e, den = a._held
    # An exact sum starts from 0.  A float sum starts from -0.0, the
    # identity of IEEE addition (x + -0.0 is x, also for x = -0.0), so it
    # equals the `Quaternion` sum seeded by its first term, bit for bit;
    # +0.0 would turn a sum of -0.0 terms into +0.0.
    start = (0, 0, 0, 0) if a.mode == EXACT else (-0.0, -0.0, -0.0, -0.0)
    value = _tails(list(zip(*e)), anchor - 1, row, start)[(1 << a.rows) - 1]
    if a.mode != EXACT and not all(map(math.isfinite, value)):
        raise NumericalBreakdownError(f"float determinant is not finite: {value}")
    return _quaternion(value, den**a.rows, a.mode)


def _leverrier(g: QMatrix, r: int):
    """(Y_r, (d_1, ..., d_r)) of an exact Hermitian g and r >= 1: the
    recurrence of the module docstring, with every minor sum it meets on
    its way to Y_r.  P_1 = E is free and the last step needs only the
    diagonal of P_r.  Each P_s is a real polynomial in the Hermitian E, so
    it is Hermitian, as `_hermitian_product` assumes, with an integral
    minor sum D_s: a diagonal entry that is not real, or a trace that s
    does not divide, raises InternalInvariantError.
    """
    e, den = g._held
    y, sums = None, []  # Y_s, as int rows; Y_1 = I is never formed, as P_1 = E
    for s in range(1, r + 1):
        p = e if y is None else _hermitian_product(y, e, s == r)
        diag = [t[i] for i, t in enumerate(p)]
        if any(t[1] or t[2] or t[3] for t in diag):
            raise InternalInvariantError("Hermitian cofactor recurrence produced a non-real diagonal")
        d, rest = divmod(sum([t[0] for t in diag]), s)
        if rest:
            raise InternalInvariantError(f"Hermitian cofactor recurrence: {s} does not divide the trace {d * s + rest}")
        sums.append(_over(d, den**s))
        if s < r:  # Y_(s+1) = D_s I - P_s
            y = tuple([
                tuple([(d - a0, -a1, -a2, -a3) if i == j else (-a0, -a1, -a2, -a3)
                       for j, (a0, a1, a2, a3) in enumerate(prow)])
                for i, prow in enumerate(p)
            ])
    cof = QMatrix.identity(g.rows) if y is None else QMatrix._made(y, den ** (r - 1), EXACT)
    return cof, tuple(sums)


def _hermitian_product(a, b, diagonal):
    """The product of square int component rows a and b where it is known
    to be Hermitian, as rows: the entries on and above the diagonal are
    summed and each one below is the conjugate of its mirror.  With
    `diagonal`, only the diagonal is summed and the other entries are
    None."""
    n, cols = len(a), list(zip(*b))
    out = [[None] * n for _ in range(n)]
    for i, ra in enumerate(a):
        for j in range(i, i + 1 if diagonal else n):
            s0 = s1 = s2 = s3 = 0
            for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(ra, cols[j]):
                s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
                s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
                s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
                s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
            out[i][j] = (s0, s1, s2, s3)
            if j > i:
                out[j][i] = (s0, -s1, -s2, -s3)
    return out


def _finite_components(g: QMatrix) -> list:
    """The components of a float g, row by row; one that is not finite
    raises NumericalBreakdownError."""
    flat = [c for row in g._held[0] for t in row for c in t]
    if not all(map(math.isfinite, flat)):
        raise NumericalBreakdownError("float matrix has a component that is not finite")
    return flat


def _require_hermitian(a: QMatrix, refusal: str):
    """Refuse an a that is not Hermitian with NotHermitianError(refusal).
    A float component that is not finite is refused first, as a numerical
    breakdown: the NaN-aware symmetry test would call it not Hermitian."""
    if a.mode != EXACT:
        _finite_components(a)
    if not a.is_hermitian():
        raise NotHermitianError(refusal)


def _exact_hermitian(g: QMatrix) -> QMatrix:
    """The exact Hermitian matrix a square g stands for: an exact g, which
    must be Hermitian, or the Hermitian part (T + T*) / 2 of the exact
    value T of a float g, ints over the largest denominator of its
    components, a power of two (module docstring).  A float component
    that is not finite raises NumericalBreakdownError."""
    if g.mode == EXACT:
        if not g.is_hermitian():
            raise NotHermitianError("bordered cofactors require a Hermitian matrix")
        return g
    ratios = [c.as_integer_ratio() for c in _finite_components(g)]
    den = max([q for _, q in ratios])
    t, n = list(zip(*[iter([p * (den // q) for p, q in ratios])] * 4)), g.rows  # entries, row by row
    part = tuple([  # row i of T plus the conjugate of column i
        tuple([(a0 + b0, a1 - b1, a2 - b2, a3 - b3) for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(t[i * n:i * n + n], t[i::n])])
        for i in range(n)
    ])
    return QMatrix._made(part, 2 * den, EXACT)


def _rounded(x):
    """An exact matrix or real x correctly rounded to float; a value beyond
    the float range raises NumericalBreakdownError."""
    try:
        return x.to_float() if isinstance(x, QMatrix) else float(x)
    except OverflowError:
        raise NumericalBreakdownError("float result is beyond the float range") from None


def _bordered_cofactors(g: QMatrix, r: int, max_n: int | None = None):
    """The order-r bordered minor sums of a Hermitian g as one cofactor
    matrix.  Returns (Y, d) with Y an n x n matrix such that, for any
    column b and any row c,

        (Y @ b)[i] = sum over size-r sets beta containing i of
                     cdet_i(g_beta with column i replaced by b_beta),
        (c @ Y)[j] = sum over size-r sets alpha containing j of
                     rdet_j(g_alpha with row j replaced by c_alpha),

    and d = d_r, the sum of the r x r principal minors of g.  Both come
    from one `_leverrier` pass on `_exact_hermitian(g)`, which refuses an
    exact g that is not Hermitian; a float g gets the pass's Y and d
    rounded once (module docstring).  At r = 0 no set holds an anchor and the one empty
    minor is 1, so Y = 0 and d = 1: a Cramer formula at rank 0 gives the
    zero inverse.  The guard bounds the minor order r.
    """
    _refuse_above_guard(r, max_n)
    h = _exact_hermitian(g)
    if r == 0:  # no order-0 set holds an anchor; the one empty minor is 1
        return QMatrix.zeros(g.rows, g.rows, g.mode), 1
    y, (*_, d) = _leverrier(h, r)
    return (y, d) if g.mode == EXACT else (_rounded(y), _rounded(d))


def rdet(i: int, a: QMatrix, max_n: int | None = None) -> Quaternion:
    """Row determinant anchored at row i (1-based)."""
    _check(a, i, max_n)
    return _cycle_sum_det(a, i, row=True)


def cdet(j: int, a: QMatrix, max_n: int | None = None) -> Quaternion:
    """Column determinant anchored at column j (1-based)."""
    _check(a, j, max_n)
    return _cycle_sum_det(a, j, row=False)


# ---------------------------------------------------------------------------
# Reference enumerators: literal transcription working on one-line
# permutations.  Deliberately independent of the cycle-form generator.
# ---------------------------------------------------------------------------


def _reference(anchor: int, a: QMatrix, max_n, row: bool) -> Quaternion:
    """The row (row=True) or column determinant by direct summation over
    one-line permutations: a term multiplies its cycle chains with the
    anchor cycle first (rows) or last (columns).  A float sum starts from
    -0.0, the identity of IEEE addition, so a sum of -0.0 terms stays
    -0.0."""
    n = _check(a, anchor, max_n, "the size of an n!-term reference sum")
    e = a.entries()
    total = Quaternion.zero() if a.mode == EXACT else Quaternion(-0.0, -0.0, -0.0, -0.0, a.mode)
    for perm in itertools.permutations(range(n)):
        seen, chains = set(), []
        # The anchor's cycle, then every other cycle from the first index
        # an ascending scan meets, its least: the chains in rdet order.
        for start in (anchor - 1, *range(n)):
            chain, x = None, start
            while x not in seen:
                seen.add(x)
                factor = e[x][perm[x]]
                chain = factor if chain is None else chain * factor
                x = perm[x]
            if chain is not None:
                chains.append(chain)
        term = reduce(operator.mul, chains if row else reversed(chains))
        total = total + (-term if (n - len(chains)) % 2 else term)
    return total


def rdet_reference(i: int, a: QMatrix, max_n: int | None = None) -> Quaternion:
    """Row determinant by direct summation over one-line permutations."""
    return _reference(i, a, max_n, row=True)


def cdet_reference(j: int, a: QMatrix, max_n: int | None = None) -> Quaternion:
    """Column determinant by direct summation over one-line permutations."""
    return _reference(j, a, max_n, row=False)


# ---------------------------------------------------------------------------
# Hermitian determinant and its offspring
# ---------------------------------------------------------------------------


def ddet(a: QMatrix, max_n: int | None = None):
    """Double determinant of a Hermitian matrix: the common value of all
    its row and column determinants.  Returns a real scalar (int or
    Fraction in exact mode, float in float mode), computed as the row
    determinant anchored at row 1."""
    _override(max_n)
    _require_hermitian(a, "ddet requires a Hermitian matrix")
    value = rdet(1, a, max_n)
    if a.mode == EXACT and not value.is_real():
        raise InternalInvariantError("Hermitian determinant produced a non-real value")
    return value.a0


def principal_minor_sum(a: QMatrix, s: int, max_n: int | None = None):
    """Sum of the s x s principal minors of a Hermitian matrix: d_s of one
    `_leverrier` pass on `_exact_hermitian(a)`, rounded once in float mode
    (module docstring)."""
    _override(max_n)
    _require_hermitian(a, "principal minors require a Hermitian matrix")
    if not 1 <= s <= a.rows:
        raise ValueError(f"minor order {s} out of range 1..{a.rows}")
    _refuse_above_guard(s, max_n)
    _, (*_, d) = _leverrier(_exact_hermitian(a), s)
    return d if a.mode == EXACT else _rounded(d)


def char_poly(a: QMatrix, max_n: int | None = None) -> tuple:
    """Coefficients (d1, ..., dn) of the characteristic polynomial of a
    Hermitian matrix, in the alternating-sign convention

        p(t) = t^n - d1 t^(n-1) + d2 t^(n-2) - ... + (-1)^n dn,

    where ds is the sum of the s x s principal minors and dn = ddet(a).
    All of them come from one `_leverrier` pass on `_exact_hermitian(a)`,
    each rounded once in float mode (module docstring)."""
    _override(max_n)
    _require_hermitian(a, "characteristic polynomial requires a Hermitian matrix")
    _refuse_above_guard(a.rows, max_n)
    _, sums = _leverrier(_exact_hermitian(a), a.rows)
    return sums if a.mode == EXACT else tuple(map(_rounded, sums))


def hermitian_inverse(a: QMatrix, max_n: int | None = None) -> QMatrix:
    """Inverse of a nonsingular Hermitian matrix assembled from cofactors.

    The Hermitian Cramer rule at full order: the cofactors Y of
    `_bordered_cofactors` with r = n give ddet(a) * a^-1, one pass for
    both families (module docstring), and must satisfy
    a Y = Y a = ddet(a) I before the one division.  A float a is inverted
    as the exact Hermitian matrix it stands for (`_exact_hermitian`), and
    the exact inverse is rounded once.
    """
    _override(max_n)
    _require_hermitian(a, "hermitian_inverse requires a Hermitian matrix")
    if a.mode != EXACT:
        return _rounded(hermitian_inverse(_exact_hermitian(a), max_n))
    n = a.rows
    y, det = _bordered_cofactors(a, n, max_n)
    if det == 0:
        raise SingularError("Hermitian matrix has zero determinant")
    scaled = QMatrix.identity(n) * det
    if not (a @ y == scaled and y @ a == scaled):
        raise InternalInvariantError("cofactor inverse failed the product check")
    return y / det
