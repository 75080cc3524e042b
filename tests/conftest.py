import itertools
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from qdet import QMatrix, Quaternion, cdet, rdet
from qdet.errors import InternalInvariantError, NumericalBreakdownError, ShapeError, SingularError


# Row/column surgery (0-based; all functions copy) and the characteristic
# polynomial's value: the tests' ways of writing out a determinant
# expansion literally.


def replace_col(a: QMatrix, j: int, column) -> QMatrix:
    column = tuple(column)
    if len(column) != a.rows:
        raise ShapeError("replacement column has wrong length")
    return QMatrix([[column[i] if jj == j else q for jj, q in enumerate(row)] for i, row in enumerate(a.entries())])


def replace_row(a: QMatrix, i: int, row) -> QMatrix:
    row = tuple(row)
    if len(row) != a.cols:
        raise ShapeError("replacement row has wrong length")
    return QMatrix([row if ii == i else r for ii, r in enumerate(a.entries())])


def submatrix(a: QMatrix, row_idx, col_idx) -> QMatrix:
    return QMatrix([[a[i, j] for j in col_idx] for i in row_idx])


def delete_row_col(a: QMatrix, i: int, j: int) -> QMatrix:
    rows = [r for r in range(a.rows) if r != i]
    cols = [c for c in range(a.cols) if c != j]
    return submatrix(a, rows, cols)


def eval_char_poly(coeffs, t):
    """Evaluate t^n - d1 t^(n-1) + ... + (-1)^n dn at a real t."""
    n = len(coeffs)
    value = t**n
    sign = -1
    for s, d in enumerate(coeffs, start=1):
        value = value + sign * d * t ** (n - s)
        sign = -sign
    return value


def random_quaternion(rng: random.Random, span: int = 2, sparsity: float = 0.0) -> Quaternion:
    if sparsity and rng.random() < sparsity:
        return Quaternion.zero()
    return Quaternion(*(rng.randint(-span, span) for _ in range(4)))


def random_qmatrix(rng: random.Random, m: int, n: int, span: int = 2, sparsity: float = 0.0) -> QMatrix:
    return QMatrix([[random_quaternion(rng, span, sparsity) for _ in range(n)] for _ in range(m)])


def random_hermitian(rng: random.Random, n: int) -> QMatrix:
    b = random_qmatrix(rng, n, n, span=1, sparsity=0.2)
    return b + b.H if rng.random() < 0.5 else b @ b.H


def random_rank_deficient(rng: random.Random, m: int, n: int, r: int) -> QMatrix:
    # A product of thin factors has rank at most r.
    return random_qmatrix(rng, m, r, span=1) @ random_qmatrix(rng, r, n, span=1)


def bordered_sum(g: QMatrix, anchor: int, vector, r: int, row: bool) -> Quaternion:
    """The bordered principal-minor sum, literally: over the size-r index
    sets containing `anchor` (0-based), the row (row=True) or column
    determinant anchored there of the principal submatrix of g whose row
    or column `anchor` is replaced by `vector`; one determinant per set."""
    modified = replace_row(g, anchor, vector) if row else replace_col(g, anchor, vector)
    det = rdet if row else cdet
    total = Quaternion.zero(g.mode)
    for beta in itertools.combinations(range(g.rows), r):
        if anchor in beta:
            total = total + det(beta.index(anchor) + 1, submatrix(modified, beta, beta))
    return total


# Entrywise Quaternion-arithmetic references for the matrix kernel: the
# product, rank and inverse written directly in `Quaternion` operations,
# against which `qdet.matrix` is checked value for value (exact mode) and
# bit for bit (float mode).


def reference_matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    out = []
    for row in a.entries():
        out_row = []
        for j in range(b.cols):
            acc = Quaternion.zero(a.mode)
            for x, y in zip(row, b.col(j)):
                acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return QMatrix(out)


def _reference_pivot(work, col, start, mode, tol):
    if mode == "exact":
        return next((r for r in range(start, len(work)) if not work[r][col].is_zero()), None)
    pivot_row, best = None, tol
    for r in range(start, len(work)):
        nn = work[r][col].norm_sq()
        if nn > best:
            best, pivot_row = nn, r
    return pivot_row


def _reference_tol(work, mode):
    if mode == "exact":
        return 0
    norms = [q.norm_sq() for row in work for q in row]
    if not all(map(math.isfinite, norms)):
        raise NumericalBreakdownError("an entry's squared norm is not finite")
    return 1e-20 * (1.0 + max(norms))


def reference_rank(a: QMatrix) -> int:
    """Forward elimination with quaternionic left-division."""
    work = [list(row) for row in a.entries()]
    tol = _reference_tol(work, a.mode)
    rk = 0
    for col in range(a.cols):
        pivot_row = _reference_pivot(work, col, rk, a.mode, tol)
        if pivot_row is None:
            continue
        work[rk], work[pivot_row] = work[pivot_row], work[rk]
        pinv = work[rk][col].inv()
        for r in range(rk + 1, a.rows):
            lead = work[r][col]
            if not lead.is_zero():
                factor = lead * pinv
                work[r] = [x - factor * y for x, y in zip(work[r], work[rk])]
        rk += 1
        if rk == a.rows:
            break
    return rk


def reference_inverse_square(a: QMatrix) -> QMatrix:
    """Gauss-Jordan elimination on A beside I, pivot rows scaled to 1."""
    n = a.rows
    work = [list(row) for row in a.entries()]
    aug = [list(row) for row in QMatrix.identity(n, a.mode).entries()]
    tol = _reference_tol(work, a.mode)
    for col in range(n):
        pivot_row = _reference_pivot(work, col, col, a.mode, tol)
        if pivot_row is None:
            raise SingularError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pinv = work[col][col].inv()
        work[col] = [pinv * x for x in work[col]]
        aug[col] = [pinv * x for x in aug[col]]
        for r in range(n):
            lead = work[r][col]
            if r != col and not lead.is_zero():
                work[r] = [x - lead * y for x, y in zip(work[r], work[col])]
                aug[r] = [x - lead * y for x, y in zip(aug[r], aug[col])]
    return QMatrix(aug)


def reference_index(a: QMatrix) -> int:
    power, k = a, 0
    ranks = [a.rows, reference_rank(a)]
    while ranks[k + 1] != ranks[k]:
        k += 1
        power = reference_matmul(power, a)
        ranks.append(reference_rank(power))
    return k


# Inputs of prescribed index: A = P diag(C, N) P^-1 with P and C
# nonsingular and N the nilpotent Jordan chain of index k, so Ind A = k and
# A^D = P diag(C^-1, 0) P^-1 are known by construction, with the
# references above and no route or checker.


@st.composite
def nonsingular_matrices(draw, n: int, span: int = 1) -> QMatrix:
    """L R with L unit lower triangular and R upper triangular with a
    nonzero diagonal: nonsingular over the quaternions whatever is drawn."""
    comp = st.integers(-span, span)
    nonzero = st.tuples(comp, comp, comp, comp).filter(any)
    z, one = Quaternion.zero(), Quaternion.one()

    def entry(below, diagonal):
        return Quaternion(*(draw(comp) for _ in range(4))) if below else diagonal

    low = [[entry(i > j, one if i == j else z) for j in range(n)] for i in range(n)]
    up = [[Quaternion(*draw(nonzero)) if i == j else entry(i < j, z) for j in range(n)] for i in range(n)]
    return reference_matmul(QMatrix(low), QMatrix(up))


def _core_and_chain(core, n: int, chain: bool) -> QMatrix:
    """diag(core, J): the n x n matrix with `core` (None for an empty one)
    in its top left corner and, when `chain`, ones just above the diagonal
    of the rest (the Jordan chain J), zeros elsewhere."""
    c = 0 if core is None else core.rows
    z, one = Quaternion.zero(), Quaternion.one()
    return QMatrix([[core[i, j] if i < c and j < c else one if chain and c <= i and j == i + 1 else z
                     for j in range(n)] for i in range(n)])


@st.composite
def prescribed_index(draw, max_core: int = 3, max_index: int = 3, span: int = 1):
    """(A, k, A^D): A = P diag(C, N) P^-1 of index k, with a core C of
    0..max_core rows and the Jordan chain N of k = 0..max_index rows (at
    least one row in all), and A^D = P diag(C^-1, 0) P^-1."""
    c = draw(st.integers(0, max_core))
    k = draw(st.integers(0 if c else 1, max_index))
    n = c + k
    p = draw(nonsingular_matrices(n, span))
    p_inv = reference_inverse_square(p)
    core = draw(nonsingular_matrices(c, span)) if c else None
    a = reference_matmul(reference_matmul(p, _core_and_chain(core, n, True)), p_inv)
    core_inv = reference_inverse_square(core) if c else None
    ad = reference_matmul(reference_matmul(p, _core_and_chain(core_inv, n, False)), p_inv)
    return a, k, ad


# The subset recursion of `qdet.ncdet` written in `Quaternion` operations,
# as it ran before its tables moved to component tuples: `rdet`/`cdet`,
# the minor sums and the bordered cofactors are checked against it value
# for value (exact mode) and bit for bit (float mode).


def _ref_mask(indices) -> int:
    mask = 0
    for x in indices:
        mask |= 1 << x
    return mask


def _ref_open_paths(e, root, members, max_size, forward):
    paths = {}
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(members, size):
            mask = _ref_mask(subset)
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


def _ref_signed_cycle_sums(e, root, members, max_size):
    sums = {0: e[root][root]}
    for mask, ends in _ref_open_paths(e, root, members, max_size, True).items():
        closed = None
        for last, path in ends.items():
            cycle = path * e[last][root]
            closed = cycle if closed is None else closed + cycle
        sums[mask] = -closed if mask.bit_count() % 2 else closed
    return sums


def _ref_combine(cycle_sums, tails, rest, row):
    total = cycle_sums[rest]
    y = rest
    while y:
        y = (y - 1) & rest
        s, t = cycle_sums[y], tails[rest ^ y]
        total = total + (s * t if row else t * s)
    return total


def _ref_tails(e, mode, universe, max_size, row):
    sums_at = {
        m: _ref_signed_cycle_sums(e, m, [x for x in universe if x > m], max_size - 1)
        for m in universe
    }
    tails = {0: Quaternion.one(mode)}
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(universe, size):
            mask = _ref_mask(subset)
            low = subset[0]
            tails[mask] = _ref_combine(sums_at[low], tails, mask ^ (1 << low), row)
    return tails


def _ref_minor_sum(tails, n, s, mode):
    total = None
    for idx in itertools.combinations(range(n), s):
        minor = tails[_ref_mask(idx)]
        if mode == "exact" and not minor.is_real():
            raise InternalInvariantError("Hermitian determinant produced a non-real value")
        total = minor.a0 if total is None else total + minor.a0
    return total


def reference_det(a: QMatrix, anchor: int, row: bool) -> Quaternion:
    """rdet (row=True) or cdet anchored at `anchor` (1-based)."""
    e = a.entries()
    root = anchor - 1
    others = [x for x in range(a.rows) if x != root]
    tails = _ref_tails(e, a.mode, others, len(others), row)
    cycle_sums = _ref_signed_cycle_sums(e, root, others, len(others))
    return _ref_combine(cycle_sums, tails, _ref_mask(others), row)


def reference_bordered_cofactors(g: QMatrix, r: int, row: bool):
    """`ncdet._bordered_cofactors` of one family by enumerating the
    subsets, the recurrence's independent judge."""
    n = g.rows
    e = g.entries()
    tails = _ref_tails(e, g.mode, range(n), r, row)
    cof = [[Quaternion.zero(g.mode)] * n for _ in range(n)]
    for i in range(n):
        others = [x for x in range(n) if x != i]
        paths = _ref_open_paths(e, i, others, r - 1, not row)
        for size in range(r):
            for subset in itertools.combinations(others, size):
                t = None
                if size < r - 1:
                    rest = [x for x in others if x not in subset]
                    for z in itertools.combinations(rest, r - 1 - size):
                        tail = tails[_ref_mask(z)]
                        t = tail if t is None else t + tail
                if size == 0:
                    cof[i][i] = cof[i][i] + (Quaternion.one(g.mode) if t is None else t)
                    continue
                for end, path in paths[_ref_mask(subset)].items():
                    if t is not None:
                        path = path * t if row else t * path
                    if size % 2:
                        path = -path
                    if row:
                        cof[end][i] = cof[end][i] + path
                    else:
                        cof[i][end] = cof[i][end] + path
    if g.mode == "exact" and not g.is_hermitian():
        return QMatrix(cof), None
    return QMatrix(cof), _ref_minor_sum(tails, n, r, g.mode)


def float_bits(value):
    """A float result with every component as `float.hex`, so that equal
    bits, and only equal bits, compare equal (the sign of a zero too)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Quaternion):
        return tuple(c.hex() for c in value.components())
    if isinstance(value, QMatrix):
        return [[float_bits(q) for q in row] for row in value.entries()]
    return [float_bits(v) for v in value]


@pytest.fixture
def rng():
    return random.Random(20240811)
