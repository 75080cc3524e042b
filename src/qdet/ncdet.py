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

Every evaluator refuses matrices above a size guard (default n = 8)
rather than silently running for hours: the reference evaluators and the
bordered minor sums built on these determinants are exponential in n.
"""

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
from .matrix import QMatrix, delete_row_col, max_abs_diff, replace_col, replace_row
from .scalar import EXACT, Quaternion

DEFAULT_ENUMERATION_GUARD = 8

_guard = DEFAULT_ENUMERATION_GUARD


def enumeration_guard() -> int:
    return _guard


def set_enumeration_guard(n: int) -> int:
    """Set the module-wide size guard; returns the previous value."""
    global _guard
    if n < 1:
        raise ValueError("guard must be at least 1")
    old, _guard = _guard, n
    return old


def _check(a: QMatrix, anchor: int, max_n):
    if not a.is_square():
        raise ShapeError("row/column determinants require a square matrix")
    n = a.rows
    limit = _guard if max_n is None else max_n
    if n > limit:
        raise EnumerationGuardError(
            f"n = {n} exceeds the enumeration guard {limit} ({n}! terms per determinant); "
            "raise the guard explicitly to proceed"
        )
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


def _signed_cycle_sums(e, root, members):
    """Signed sums of the cycles through `root` over subsets of `members`.

    Returns a dict mapping the bitmask of each subset Y of `members`
    (0-based indices) to (-1)**|Y| * H(Y), where H(Y) is the sum, over
    every ordering y1..yp of Y, of the chain

        e[root][y1] * e[y1][y2] * ... * e[yp][root],

    and H of the empty set is e[root][root].  The orderings are summed
    Held-Karp style: `paths[mask, last]` holds the sum of the chains from
    root through exactly the elements of mask, ending at last, so each
    subset costs |Y|**2 products instead of |Y|! chains.
    """
    sums = {0: e[root][root]}
    paths = {}
    for size in range(1, len(members) + 1):
        for subset in itertools.combinations(members, size):
            mask = 0
            for y in subset:
                mask |= 1 << y
            closed = None
            for last in subset:
                if size == 1:
                    path = e[root][last]
                else:
                    rest = mask ^ (1 << last)
                    path = None
                    for prev in subset:
                        if prev != last:
                            step = paths[rest, prev] * e[prev][last]
                            path = step if path is None else path + step
                paths[mask, last] = path
                cycle = path * e[last][root]
                closed = cycle if closed is None else closed + cycle
            sums[mask] = -closed if size % 2 else closed
    return sums


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
    sums_at = {m: _signed_cycle_sums(e, m, [x for x in others if x > m]) for m in others}
    tails = {0: Quaternion.one(a.mode)}
    full = 0
    for x in others:
        full |= 1 << x

    def combine(cycle_sums, rest):
        # Sum over the subsets Y of `rest` of S(Y) and the tail of rest - Y,
        # multiplied in the determinant's order.
        total = None
        y = rest
        while True:
            s, t = cycle_sums[y], tails[rest ^ y]
            term = s * t if row else t * s
            total = term if total is None else total + term
            if y == 0:
                return total
            y = (y - 1) & rest

    # Subsets of `full` in increasing numeric order: every proper subset of
    # a mask is smaller than the mask, so each tail it needs is ready.
    mask = full & -full
    while mask:
        low = mask & -mask
        tails[mask] = combine(sums_at[low.bit_length() - 1], mask ^ low)
        mask = (mask - full) & full
    return combine(_signed_cycle_sums(e, root, others), full)


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
    total = None
    for idx in itertools.combinations(range(a.rows), s):
        sub = QMatrix([[a[p, q] for q in idx] for p in idx])
        minor = ddet(sub, max_n)
        total = minor if total is None else total + minor
    return total


def char_poly(a: QMatrix, max_n: int | None = None) -> tuple:
    """Coefficients (d1, ..., dn) of the characteristic polynomial of a
    Hermitian matrix, in the alternating-sign convention

        p(t) = t^n - d1 t^(n-1) + d2 t^(n-2) - ... + (-1)^n dn,

    where ds is the sum of the s x s principal minors and dn = ddet(a)."""
    if not a.is_hermitian():
        raise NotHermitianError("characteristic polynomial requires a Hermitian matrix")
    return tuple(principal_minor_sum(a, s, max_n) for s in range(1, a.rows + 1))


def eval_char_poly(coeffs, t):
    """Evaluate t^n - d1 t^(n-1) + ... + (-1)^n dn at a real t."""
    n = len(coeffs)
    value = t**n
    sign = -1
    for s, d in enumerate(coeffs, start=1):
        value = value + sign * d * t ** (n - s)
        sign = -sign
    return value


def _right_cofactor(a: QMatrix, i: int, j: int, max_n) -> Quaternion:
    # 0-based i, j; row-determinant cofactor of the Hermitian inverse.
    if i == j:
        return rdet(1, delete_row_col(a, i, i), max_n)
    modified = delete_row_col(replace_col(a, j, a.col(i)), i, i)
    pos = j if j < i else j - 1
    return -rdet(pos + 1, modified, max_n)


def _left_cofactor(a: QMatrix, i: int, j: int, max_n) -> Quaternion:
    if i == j:
        return cdet(1, delete_row_col(a, j, j), max_n)
    modified = delete_row_col(replace_row(a, i, a.row(j)), j, j)
    pos = i if i < j else i - 1
    return -cdet(pos + 1, modified, max_n)


def hermitian_inverse(a: QMatrix, max_n: int | None = None) -> QMatrix:
    """Inverse of a nonsingular Hermitian matrix assembled from cofactors.

    Both the right-cofactor and the left-cofactor assemblies are computed
    and must agree; the result is verified to be a two-sided inverse.
    """
    det = ddet(a, max_n)
    if det == 0:
        raise SingularError("Hermitian matrix has zero determinant")
    n = a.rows
    if n == 1:
        return QMatrix([[a[0, 0].inv()]])
    right = QMatrix(
        [[_right_cofactor(a, j, i, max_n) / det for j in range(n)] for i in range(n)]
    )
    left = QMatrix(
        [[_left_cofactor(a, j, i, max_n) / det for j in range(n)] for i in range(n)]
    )
    if a.mode == EXACT:
        if right != left:
            raise InternalInvariantError("cofactor assemblies disagree on a Hermitian matrix")
        ident = QMatrix.identity(n, a.mode)
        if not (a @ right == ident and right @ a == ident):
            raise InternalInvariantError("cofactor inverse failed the product check")
    elif max_abs_diff(right, left) > 1e-9 * (1.0 + abs(det)):
        raise NumericalBreakdownError("cofactor assemblies disagree beyond float tolerance")
    return right
