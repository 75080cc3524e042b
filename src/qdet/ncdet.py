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
`cycle_forms` lists the canonical cycle forms themselves.

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
rank r a route expands), not the size of the matrix.
"""

import contextvars
import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    EnumerationGuardError,
    InternalInvariantError,
    NotHermitianError,
    NumericalBreakdownError,
    ShapeError,
    SingularError,
)
from .matrix import QMatrix, max_abs_diff
from .scalar import EXACT, Quaternion

DEFAULT_ENUMERATION_GUARD = 8

# A context variable: a guard set in one thread is not seen by another,
# which starts from the default.
_guard = contextvars.ContextVar("enumeration_guard", default=DEFAULT_ENUMERATION_GUARD)


def enumeration_guard() -> int:
    return _guard.get()


def set_enumeration_guard(n: int) -> int:
    """Set the size guard in the current context; returns the previous value."""
    if n < 1:
        raise ValueError("guard must be at least 1")
    old = _guard.get()
    _guard.set(n)
    return old


def _refuse_above_guard(n: int, max_n, what: str) -> None:
    limit = _guard.get() if max_n is None else max_n
    if n > limit:
        raise EnumerationGuardError(
            f"{what} {n} exceeds the enumeration guard {limit} ({n}! terms per determinant); "
            "raise the guard explicitly to proceed"
        )


def _check(a: QMatrix, anchor: int, max_n):
    if not a.is_square():
        raise ShapeError("row/column determinants require a square matrix")
    n = a.rows
    _refuse_above_guard(n, max_n, "n =")
    if not 1 <= anchor <= n:
        raise ValueError(f"anchor {anchor} out of range 1..{n}")
    return n


@dataclass(frozen=True)
class CycleForm:
    """Canonical disjoint-cycle decomposition of one permutation of {1..n}.

    `cycles[0]` is the cycle containing `anchor`, written starting at the
    anchor; the remaining cycles are sorted by ascending minimal element
    and each written starting at its minimal element.  Indices are
    1-based.  The column-determinant layout (anchor cycle last, anchor in
    final position, remaining cycles by descending minimal element) is a
    derived view, see `cdet_notation`.
    """

    anchor: int
    cycles: tuple

    @property
    def r(self) -> int:
        return len(self.cycles)

    @property
    def sign(self) -> int:
        n = sum(len(c) for c in self.cycles)
        return -1 if (n - self.r) % 2 else 1

    def cdet_notation(self) -> tuple:
        """Cycles as written for the column determinant: reversed cycle
        list, each cycle rotated so its starting element comes last."""
        return tuple(c[1:] + c[:1] for c in reversed(self.cycles))

    def validate(self) -> None:
        n = sum(len(c) for c in self.cycles)
        seen = sorted(x for c in self.cycles for x in c)
        if seen != list(range(1, n + 1)):
            raise ValueError("cycles do not partition 1..n")
        if self.cycles[0][0] != self.anchor:
            raise ValueError("first cycle must start at the anchor")
        mins = [min(c) for c in self.cycles[1:]]
        if mins != sorted(mins):
            raise ValueError("non-anchor cycles must be sorted by minimal element")
        for c in self.cycles[1:]:
            if c[0] != min(c):
                raise ValueError("non-anchor cycles must start at their minimal element")


def _arrangements(pool, size):
    for comb in itertools.combinations(pool, size):
        yield from itertools.permutations(comb)


def _min_rooted_partitions(elements):
    """All decompositions of `elements` (sorted tuple) into cycles rooted at
    their minimal element, emitted in increasing order of those minima."""
    if not elements:
        yield ()
        return
    head, rest = elements[0], elements[1:]
    for size in range(len(rest) + 1):
        for tail in _arrangements(rest, size):
            cycle = (head, *tail)
            remaining = tuple(x for x in rest if x not in tail)
            for more in _min_rooted_partitions(remaining):
                yield (cycle, *more)


@lru_cache(maxsize=128)
def cycle_forms(n: int, anchor: int) -> tuple:
    """All n! cycle forms of S_n anchored at `anchor` (1-based)."""
    if not 1 <= anchor <= n:
        raise ValueError(f"anchor {anchor} out of range 1..{n}")
    others = tuple(x for x in range(1, n + 1) if x != anchor)
    forms = []
    for size in range(len(others) + 1):
        for arr in _arrangements(others, size):
            first = (anchor, *arr)
            remaining = tuple(x for x in others if x not in arr)
            for tail in _min_rooted_partitions(remaining):
                forms.append(CycleForm(anchor, (first, *tail)))
    return tuple(forms)


def _mask(indices) -> int:
    mask = 0
    for x in indices:
        mask |= 1 << x
    return mask


def _open_paths(e, root, members, max_size, forward):
    """Sums of the open chains through `root` over subsets of `members`.

    Maps the bitmask of each subset Y of `members` (0-based indices, at
    most `max_size` of them) to a dict from each end of Y to the sum, over
    every ordering y1..yp of Y with that end, of

        e[root][y1] * e[y1][y2] * ... * e[y(p-1)][yp]     (forward, end = yp)
        e[y1][y2] * ... * e[y(p-1)][yp] * e[yp][root]     (backward, end = y1)

    Held-Karp style: each end extends the chains of Y - {end} by one step,
    so a subset costs |Y|**2 products instead of |Y|! chains.
    """
    paths = {}
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(members, size):
            mask = _mask(subset)
            ends = paths[mask] = {}
            for end in subset:
                if size == 1:
                    ends[end] = e[root][end] if forward else e[end][root]
                    continue
                path = None
                for other, prev in paths[mask ^ (1 << end)].items():
                    step = prev * e[other][end] if forward else e[end][other] * prev
                    path = step if path is None else path + step
                ends[end] = path
    return paths


def _signed_cycle_sums(e, root, members, max_size):
    """Signed sums of the cycles through `root` over subsets of `members`.

    Returns a dict mapping the bitmask of each subset Y of `members`
    (0-based indices) with at most `max_size` elements to
    (-1)**|Y| * H(Y), where H(Y) is the sum, over every ordering y1..yp of
    Y, of the chain

        e[root][y1] * e[y1][y2] * ... * e[yp][root],

    and H of the empty set is e[root][root]: the forward open paths of
    `_open_paths`, each closed by its last factor.
    """
    sums = {0: e[root][root]}
    for mask, ends in _open_paths(e, root, members, max_size, True).items():
        closed = None
        for last, path in ends.items():
            cycle = path * e[last][root]
            closed = cycle if closed is None else closed + cycle
        sums[mask] = -closed if mask.bit_count() % 2 else closed
    return sums


def _combine(cycle_sums, tails, rest, row):
    """Sum over the subsets Y of `rest` of S(Y) and the tail of rest - Y,
    multiplied in the determinant's order (S first for rows, last for
    columns).  The first term, Y = rest, has the empty tail 1."""
    total = cycle_sums[rest]
    y = rest
    while y:
        y = (y - 1) & rest
        s, t = cycle_sums[y], tails[rest ^ y]
        total = total + (s * t if row else t * s)
    return total


def _tails(e, mode, universe, max_size, row):
    """The tail table of the cycle-sum recursion, by bitmask: R(X)
    (row=True) or C(X) for every subset X of `universe` with at most
    `max_size` elements.

    R(X) is the row determinant of the principal submatrix on X anchored
    at its first row, C(X) the column determinant anchored at its first
    column; on a Hermitian matrix both are the principal minor of X.
    """
    sums_at = {
        m: _signed_cycle_sums(e, m, [x for x in universe if x > m], max_size - 1)
        for m in universe
    }
    tails = {0: Quaternion.one(mode)}
    # By increasing size: every subset a tail needs is smaller, so ready.
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(universe, size):
            mask = _mask(subset)
            low = subset[0]
            tails[mask] = _combine(sums_at[low], tails, mask ^ (1 << low), row)
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
    sum regrouped, at O(n**2 2**n + 3**n) products.
    """
    e = a.entries()
    root = anchor - 1
    others = [x for x in range(a.rows) if x != root]
    tails = _tails(e, a.mode, others, len(others), row)
    cycle_sums = _signed_cycle_sums(e, root, others, len(others))
    return _combine(cycle_sums, tails, _mask(others), row)


def _minor_sum(tails, n, s, mode):
    """Sum of the s x s principal minors of a Hermitian n x n matrix, read
    from its tail table (`_tails` over range(n), sizes up to s)."""
    total = None
    for idx in itertools.combinations(range(n), s):
        minor = tails[_mask(idx)]
        if mode == EXACT and not minor.is_real():
            raise InternalInvariantError("Hermitian determinant produced a non-real value")
        total = minor.a0 if total is None else total + minor.a0
    return total


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
    and, at size r, the denominator.  The guard bounds the minor order r.
    """
    _refuse_above_guard(r, max_n, "minor order")
    n = g.rows
    e = g.entries()
    tails = _tails(e, g.mode, range(n), r, row)
    cof = [[Quaternion.zero(g.mode)] * n for _ in range(n)]
    for i in range(n):
        others = [x for x in range(n) if x != i]
        paths = _open_paths(e, i, others, r - 1, not row)
        for size in range(r):
            for subset in itertools.combinations(others, size):
                # t sums the tails of the leftover sets; None stands for the
                # empty tail 1, when the path fills the whole set.
                t = None
                if size < r - 1:
                    rest = [x for x in others if x not in subset]
                    for z in itertools.combinations(rest, r - 1 - size):
                        tail = tails[_mask(z)]
                        t = tail if t is None else t + tail
                if size == 0:
                    cof[i][i] = cof[i][i] + (Quaternion.one(g.mode) if t is None else t)
                    continue
                for end, path in paths[_mask(subset)].items():
                    if t is not None:
                        path = path * t if row else t * path
                    if size % 2:
                        path = -path
                    if row:
                        cof[end][i] = cof[end][i] + path
                    else:
                        cof[i][end] = cof[i][end] + path
    if g.mode == EXACT and not g.is_hermitian():
        return QMatrix(cof), None
    return QMatrix(cof), _minor_sum(tails, n, r, g.mode)


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


def _orbit_product(a, perm, start):
    acc = None
    cur = start
    while True:
        nxt = perm[cur - 1]
        factor = a[cur - 1, nxt - 1]
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


def rdet_reference(i: int, a: QMatrix, max_n: int | None = None) -> Quaternion:
    """Row determinant by direct summation over one-line permutations."""
    n = _check(a, i, max_n)
    total = Quaternion.zero(a.mode)
    for perm in itertools.permutations(range(1, n + 1)):
        starts, r = _blocks(perm, n, i)
        term = _orbit_product(a, perm, starts[0])
        for s in starts[1:]:
            term = term * _orbit_product(a, perm, s)
        sign = -1 if (n - r) % 2 else 1
        total = total + (term if sign > 0 else -term)
    return total


def cdet_reference(j: int, a: QMatrix, max_n: int | None = None) -> Quaternion:
    """Column determinant by direct summation over one-line permutations."""
    n = _check(a, j, max_n)
    total = Quaternion.zero(a.mode)
    for perm in itertools.permutations(range(1, n + 1)):
        starts, r = _blocks(perm, n, j)
        term = None
        for s in reversed(starts):
            p = _orbit_product(a, perm, s)
            term = p if term is None else term * p
        sign = -1 if (n - r) % 2 else 1
        total = total + (term if sign > 0 else -term)
    return total


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
    _refuse_above_guard(s, max_n, "minor order")
    return _minor_sum(_tails(a.entries(), a.mode, range(a.rows), s, True), a.rows, s, a.mode)


def char_poly(a: QMatrix, max_n: int | None = None) -> tuple:
    """Coefficients (d1, ..., dn) of the characteristic polynomial of a
    Hermitian matrix, in the alternating-sign convention

        p(t) = t^n - d1 t^(n-1) + d2 t^(n-2) - ... + (-1)^n dn,

    where ds is the sum of the s x s principal minors and dn = ddet(a).
    All of them are read from one tail table over the subsets of a."""
    if not a.is_hermitian():
        raise NotHermitianError("characteristic polynomial requires a Hermitian matrix")
    n = a.rows
    _refuse_above_guard(n, max_n, "minor order")
    tails = _tails(a.entries(), a.mode, range(n), n, True)
    return tuple(_minor_sum(tails, n, s, a.mode) for s in range(1, n + 1))


def eval_char_poly(coeffs, t):
    """Evaluate t^n - d1 t^(n-1) + ... + (-1)^n dn at a real t."""
    n = len(coeffs)
    value = t**n
    sign = -1
    for s, d in enumerate(coeffs, start=1):
        value = value + sign * d * t ** (n - s)
        sign = -sign
    return value


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
    if max_abs_diff(right, left) > 1e-9 * (1.0 + abs(det)):
        raise NumericalBreakdownError("cofactor assemblies disagree beyond float tolerance")
    return right
