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
bit-exact agreement on random matrices is a test gate, as is the
collapse to the classical determinant on commuting entries.

The subset tables hold component 4-tuples, not `Quaternion` objects.
Each table is filled by one loop with the Hamilton product written out
in it, in `Quaternion.__mul__` order, so no table step calls a helper;
a `Quaternion` is made only for an output.  Entries are read in the
matrix's held form, components over one denominator den: `int`s in exact
mode, so every exact table entry is a tuple of `int`s, and `float`s over
den = 1 in float mode.  Every term of an entry has a fixed number of
factors (|Y| for a path over Y, |Y|+1 for a signed cycle sum over Y, |X|
for the tail of X, r-1 for a cofactor of order r), so each output is
divided once, by den to that power, with components canonical (`int`
where integral); the cofactor matrix Y stays in held form.  The sums run
in the order of `Quaternion` arithmetic, so float results are
bit-identical to it.

The same recursion serves the Hermitian offspring.  Its tail table holds,
for every subset X, the determinant of the principal submatrix on X
anchored at its first index, which on a Hermitian matrix is the principal
minor of X: `principal_minor_sum` and `char_poly` read every minor from
one table.  The bordered minor sums behind the generalized inverses (a
principal submatrix with its anchor column, or row, replaced by a vector)
are linear in that vector, so `_bordered_cofactors` makes one cofactor
pass per anchor and returns a matrix Y with which every such sum is a
product; `hermitian_inverse` is its full-order case.

Every evaluator refuses matrices above a size guard (default n = 8)
rather than silently running for hours: the reference evaluators and the
bordered minor sums stay exponential in the order of their minors.  For
the minor sums, cofactors and inverses the guard bounds that order (the
rank r a route expands), not the size of the matrix.  It is overridden
for one call only, by the `max_n` of every evaluator and inverse, passed
as an argument down to the check; the module holds no guard state.  An
override must be an integer of at least 1, and not a bool.
"""

import itertools
import math
import operator
from functools import lru_cache

from .errors import (
    EnumerationGuardError,
    InternalInvariantError,
    NotHermitianError,
    NumericalBreakdownError,
    ShapeError,
    SingularError,
)
from .matrix import QMatrix, _hamilton, _over, _quaternion, max_abs_diff
from .scalar import EXACT, Quaternion

DEFAULT_ENUMERATION_GUARD = 8


def _override(max_n: int) -> int:
    """max_n, checked as a guard override."""
    if isinstance(max_n, bool):
        raise TypeError(f"guard override max_n must be an integer, not a bool: {max_n}")
    if operator.index(max_n) < 1:  # a TypeError for anything that is not an integer
        raise ValueError(f"guard override max_n must be at least 1, got {max_n}")
    return max_n


def _refuse_above_guard(n: int, max_n, what="minor order", bounds="the minor order, not the matrix size"):
    limit = DEFAULT_ENUMERATION_GUARD if max_n is None else _override(max_n)
    if n > limit:
        raise EnumerationGuardError(
            f"{what} {n} exceeds the enumeration guard {limit}, which bounds {bounds}; "
            "raise the guard explicitly to proceed"
        )


def _check(a: QMatrix, anchor: int, max_n, bounds="the determinant size (2^n index subsets summed)"):
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


# The same (members, max_size) recurs across the minors of one call and
# across calls; without the memo the enum_large benchmark runs about 11%
# slower.  The result is an immutable tuple, so sharing it is safe.
@lru_cache(maxsize=256)
def _subsets(members: tuple, max_size: int) -> tuple:
    """(mask, subset) for every subset of `members` with 1..max_size
    elements, by size and then in combination order."""
    return tuple(
        (_mask(subset), subset)
        for size in range(1, max_size + 1)
        for subset in itertools.combinations(members, size)
    )


def _scaled(a: QMatrix):
    """(e, den, start): a's held form, rows of component tuples over den
    (ints in exact mode, floats over den 1 in float mode), and the start
    of a table sum.

    An exact sum starts from 0.  A float sum starts from -0.0, the
    identity of IEEE addition (x + -0.0 is x, also for x = -0.0), so it
    equals the `Quaternion` sum seeded by its first term, bit for bit;
    +0.0 would turn a sum of -0.0 terms into +0.0.
    """
    e, den = a._held
    return e, den, (0, 0, 0, 0) if a.mode == EXACT else (-0.0, -0.0, -0.0, -0.0)


def _open_paths(e, root, members, max_size, forward, start):
    """Sums of the open chains through `root` over subsets of `members`.

    Maps the bitmask of each subset Y of `members` (0-based indices, at
    most `max_size` of them) to a dict from each end of Y to the sum, over
    every ordering y1..yp of Y with that end, of

        e[root][y1] * e[y1][y2] * ... * e[y(p-1)][yp]     (forward, end = yp)
        e[y1][y2] * ... * e[y(p-1)][yp] * e[yp][root]     (backward, end = y1)

    and the empty set to no ends.  Held-Karp style: each end extends the
    chains of Y - {end} by one step, in this loop, so a subset costs
    |Y|**2 products instead of |Y|! chains.
    """
    steps = list(zip(*e)) if forward else e  # the factors a step to `end` takes
    paths = {0: {}}
    for mask, subset in _subsets(members, max_size):
        paths[mask] = ends = {}
        for end in subset:
            prev, step = mask ^ (1 << end), steps[end]
            s0, s1, s2, s3 = start if prev else step[root]  # one step from root
            if forward:
                for o, (a0, a1, a2, a3) in paths[prev].items():
                    b0, b1, b2, b3 = step[o]
                    s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
                    s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
                    s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
                    s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
            else:
                for o, (b0, b1, b2, b3) in paths[prev].items():
                    a0, a1, a2, a3 = step[o]
                    s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
                    s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
                    s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
                    s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
            ends[end] = (s0, s1, s2, s3)
    return paths


def _signed_cycle_sums(e, root, members, max_size, start):
    """Signed sums of the cycles through `root` over subsets of `members`.

    Returns a dict mapping the bitmask of each subset Y of `members`
    (0-based indices) with at most `max_size` elements to
    (-1)**|Y| * H(Y), where H(Y) is the sum, over every ordering y1..yp of
    Y, of the chain

        e[root][y1] * e[y1][y2] * ... * e[yp][root],

    and H of the empty set is e[root][root].  The loop extends the forward
    open paths of Y as `_open_paths` does and closes each by its last
    factor as soon as it is made.
    """
    steps, back = list(zip(*e)), [row[root] for row in e]
    # The open paths over a subset, as flat tuples (end, four components).
    sums, paths = {0: e[root][root]}, {0: ()}
    for mask, subset in _subsets(members, max_size):
        h0, h1, h2, h3 = start
        paths[mask] = ends = []
        for end in subset:
            prev, step = mask ^ (1 << end), steps[end]
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


def _combine(cycle_sums, tails, rest, row):
    """Sum over the subsets Y of `rest` of S(Y) and the tail of rest - Y,
    multiplied in the determinant's order (S first for rows, last for
    columns).  The first term, Y = rest, has the empty tail 1 and seeds
    the sum."""
    s0, s1, s2, s3 = cycle_sums[rest]
    y = rest
    while y:
        y = (y - 1) & rest
        s, t = cycle_sums[y], tails[rest ^ y]
        (a0, a1, a2, a3), (b0, b1, b2, b3) = (s, t) if row else (t, s)
        s0 += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
        s1 += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
        s2 += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
        s3 += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    return (s0, s1, s2, s3)


def _tails(e, universe, max_size, row, start):
    """The tail table of the cycle-sum recursion, by bitmask: R(X)
    (row=True) or C(X) for every nonempty subset X of `universe` with at
    most `max_size` elements.

    R(X) is the row determinant of the principal submatrix on X anchored
    at its first row, C(X) the column determinant anchored at its first
    column; on a Hermitian matrix both are the principal minor of X.
    Each entry is the sum `_combine` makes, run in this loop with the
    operand order picked once per entry, not once per term.
    """
    sums_at = {
        m: _signed_cycle_sums(e, m, universe[k + 1 :], max_size - 1, start)
        for k, m in enumerate(universe)  # `universe` ascends, so these are the x > m
    }
    tails = {}
    # By increasing size: every subset a tail needs is smaller, so ready.
    for mask, subset in _subsets(universe, max_size):
        low = subset[0]
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
    e, den, start = _scaled(a)
    root = anchor - 1
    others = tuple(x for x in range(a.rows) if x != root)
    tails = _tails(e, others, len(others), row, start)
    cycle_sums = _signed_cycle_sums(e, root, others, len(others), start)
    value = _combine(cycle_sums, tails, _mask(others), row)
    if a.mode != EXACT and not all(map(math.isfinite, value)):
        raise NumericalBreakdownError(f"float determinant is not finite: {value}")
    return _quaternion(value, den**a.rows, a.mode)


def _minor_sum(tails, n, s, den, mode):
    """Sum of the s x s principal minors of a Hermitian n x n matrix, read
    from its tail table (`_tails` over range(n), sizes up to s, of the
    entries scaled by den)."""
    total = None
    for idx in itertools.combinations(range(n), s):
        m0, m1, m2, m3 = tails[_mask(idx)]
        if mode == EXACT and (m1 or m2 or m3):
            raise InternalInvariantError("Hermitian determinant produced a non-real value")
        total = m0 if total is None else total + m0
    if mode != EXACT and not math.isfinite(total):
        raise NumericalBreakdownError(f"float principal minor sum is not finite: {total}")
    return _over(total, den**s) if mode == EXACT else total


def _leftover_tails(tails, n, r, start):
    """For each mask U of fewer than r indices of range(n), the sum of the
    tails of the sets Z outside U with |U| + |Z| = r, in combination order.

    In a cofactor pass a path anchored at i over Y leaves the sets Z that
    fill beta = {i} + Y + Z up to r elements; their tail sum depends only
    on U = {i} + Y, not on the anchor, so it is made once per U.
    """
    sums = {}
    for used in tails:
        k = r - used.bit_count()
        if k:
            s0, s1, s2, s3 = start
            rest = [x for x in range(n) if not used >> x & 1]
            for z in itertools.combinations(rest, k):
                t0, t1, t2, t3 = tails[_mask(z)]
                s0, s1, s2, s3 = s0 + t0, s1 + t1, s2 + t2, s3 + t3
            sums[used] = (s0, s1, s2, s3)
    return sums


def _bordered_cofactors(g: QMatrix, r: int, row: bool, max_n: int | None = None):
    """One cofactor pass per anchor for the order-r bordered minor sums of
    a square g.  Returns (Y, d) with Y an n x n matrix such that

        column family (row=False), any column b:
            (Y @ b)[i] = sum over size-r sets beta containing i of
                         cdet_i(g_beta with column i replaced by b_beta);
        row family (row=True), any row b:
            (b @ Y)[j] = sum over size-r sets alpha containing j of
                         rdet_j(g_alpha with row j replaced by b_alpha),

    and d the sum of the r x r principal minors of a Hermitian g: the real
    parts of the size-r tails.  An exact g that is not Hermitian has no
    real minors and gets None; in float mode d is given for any g, as
    rounding can leave a product such as A*A a hair off Hermitian.

    cdet_i reaches column i only through the last factor of its anchor
    cycle, i -> Y -> i: the term C(beta - i - Y) * S_i(Y) ends in
    e[last][i].  So the sum is linear in b with coefficient, at b[last],
    the signed open path i -> Y -> last times the tails of every leftover
    set Z of the r - 1 - |Y| elements beta holds besides i and Y.  The row
    family mirrors this: rdet_j starts with e[j][first], the path runs
    backwards from first to j and the tails multiply on its right.  One
    tail table over the subsets of at most r elements serves every anchor
    and, at size r, the denominator.  Every term of an entry of Y has r - 1
    factors.  At r = 0 no set holds an anchor and the one empty minor is
    1, so Y = 0 and d = 1: a Cramer formula at rank 0 gives the zero
    inverse.  The guard bounds the minor order r.
    """
    _refuse_above_guard(r, max_n)
    n = g.rows
    if r == 0:  # no order-0 set holds an anchor; the one empty minor is 1
        return QMatrix.zeros(n, n, g.mode), 1
    e, den, start = _scaled(g)
    tails = _tails(e, tuple(range(n)), r, row, start)
    fills = _leftover_tails(tails, n, r, start)
    # Each entry of Y is a sum started from Quaternion.zero (+0.0 in float
    # mode), as the Quaternion recursion started it.
    zero, one = Quaternion.zero(g.mode).components(), Quaternion.one(g.mode).components()
    cof = [[zero] * n for _ in range(n)]
    for i in range(n):
        # The term without a path: the tails that fill {i} up to r, or 1.
        t0, t1, t2, t3 = fills.get(1 << i, one)
        cof[i][i] = (zero[0] + t0, zero[1] + t1, zero[2] + t2, zero[3] + t3)
        paths = _open_paths(e, i, tuple(x for x in range(n) if x != i), r - 1, not row, start)
        for mask, ends in paths.items():
            t = fills.get(mask | 1 << i)  # None when the path fills beta
            odd = mask.bit_count() % 2
            for end, path in ends.items():
                if t is not None:
                    path = _hamilton(path, t) if row else _hamilton(t, path)
                a, b = (end, i) if row else (i, end)
                (c0, c1, c2, c3), (p0, p1, p2, p3) = cof[a][b], path
                if odd:  # c - p is c + (-p) in IEEE arithmetic too
                    cof[a][b] = (c0 - p0, c1 - p1, c2 - p2, c3 - p3)
                else:
                    cof[a][b] = (c0 + p0, c1 + p1, c2 + p2, c3 + p3)
    y = QMatrix._made(tuple(map(tuple, cof)), den ** (r - 1), g.mode)
    if g.mode == EXACT and not g.is_hermitian():
        return y, None
    return y, _minor_sum(tails, n, r, den, g.mode)


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


def _orbit(perm, start):
    # perm maps 1-based x to perm[x - 1]
    orbit = [start]
    cur = perm[start - 1]
    while cur != start:
        orbit.append(cur)
        cur = perm[cur - 1]
    return tuple(orbit)


def _orbit_product(e, perm, start):
    """The chain e[c1][c2] e[c2][c3] ... of the cycle of perm from
    c1 = start, over the rows of entries e (perm and start 1-based)."""
    acc = None
    cur = start
    while True:
        nxt = perm[cur - 1]
        factor = e[cur - 1][nxt - 1]
        acc = factor if acc is None else acc * factor
        cur = nxt
        if cur == start:
            return acc


def _blocks(perm, n, anchor):
    """Orbit starting points: the anchor, then the minima of the remaining
    orbits ascending; also returns the total number of orbits."""
    in_anchor_orbit = set(_orbit(perm, anchor))
    mins = []
    seen = set(in_anchor_orbit)
    for x in range(1, n + 1):
        if x in seen:
            continue
        orb = _orbit(perm, x)
        seen.update(orb)
        mins.append(min(orb))
    mins.sort()
    return [anchor] + mins, 1 + len(mins)


def _reference(anchor: int, a: QMatrix, max_n, row: bool) -> Quaternion:
    """The row (row=True) or column determinant by direct summation over
    one-line permutations: a term multiplies its cycle chains with the
    anchor cycle first (rows) or last (columns)."""
    n = _check(a, anchor, max_n, "the size of an n!-term reference sum")
    e = a.entries()
    total = Quaternion.zero(a.mode)
    for perm in itertools.permutations(range(1, n + 1)):
        starts, r = _blocks(perm, n, anchor)
        term = None
        for s in starts if row else reversed(starts):
            p = _orbit_product(e, perm, s)
            term = p if term is None else term * p
        total = total + (-term if (n - r) % 2 else term)
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
    if not a.is_hermitian():
        raise NotHermitianError("ddet requires a Hermitian matrix")
    value = rdet(1, a, max_n)
    if a.mode == EXACT and not value.is_real():
        raise InternalInvariantError("Hermitian determinant produced a non-real value")
    return value.a0


def principal_minor_sum(a: QMatrix, s: int, max_n: int | None = None):
    """Sum of the s x s principal minors of a Hermitian matrix."""
    if not a.is_hermitian():
        raise NotHermitianError("principal minors require a Hermitian matrix")
    if not 1 <= s <= a.rows:
        raise ValueError(f"minor order {s} out of range 1..{a.rows}")
    _refuse_above_guard(s, max_n)
    e, den, start = _scaled(a)
    return _minor_sum(_tails(e, tuple(range(a.rows)), s, True, start), a.rows, s, den, a.mode)


def char_poly(a: QMatrix, max_n: int | None = None) -> tuple:
    """Coefficients (d1, ..., dn) of the characteristic polynomial of a
    Hermitian matrix, in the alternating-sign convention

        p(t) = t^n - d1 t^(n-1) + d2 t^(n-2) - ... + (-1)^n dn,

    where ds is the sum of the s x s principal minors and dn = ddet(a).
    All of them are read from one tail table over the subsets of a."""
    if not a.is_hermitian():
        raise NotHermitianError("characteristic polynomial requires a Hermitian matrix")
    n = a.rows
    _refuse_above_guard(n, max_n)
    e, den, start = _scaled(a)
    tails = _tails(e, tuple(range(n)), n, True, start)
    return tuple(_minor_sum(tails, n, s, den, a.mode) for s in range(1, n + 1))


def hermitian_inverse(a: QMatrix, max_n: int | None = None) -> QMatrix:
    """Inverse of a nonsingular Hermitian matrix assembled from cofactors.

    The Hermitian Cramer rule at full order: the column-family cofactors
    of `_bordered_cofactors` with r = n give ddet(a) * a^-1, and so do the
    row-family ones.  Both assemblies are computed and must agree; in
    exact mode the undivided cofactors Y must also satisfy
    a Y = Y a = ddet(a) I before the one division.
    """
    if not a.is_hermitian():
        raise NotHermitianError("hermitian_inverse requires a Hermitian matrix")
    n = a.rows
    right, det = _bordered_cofactors(a, n, True, max_n)
    if det == 0:
        raise SingularError("Hermitian matrix has zero determinant")
    left, _ = _bordered_cofactors(a, n, False, max_n)
    if a.mode == EXACT:
        if right != left:
            raise InternalInvariantError("cofactor assemblies disagree on a Hermitian matrix")
        scaled = QMatrix.identity(n, a.mode) * det
        if not (a @ right == scaled and right @ a == scaled):
            raise InternalInvariantError("cofactor inverse failed the product check")
        return right / det
    right, left = right / det, left / det
    if not max_abs_diff(right, left) <= 1e-9 * (1.0 + abs(det)):  # NaN fails too
        raise NumericalBreakdownError("cofactor assemblies disagree beyond float tolerance")
    return right
