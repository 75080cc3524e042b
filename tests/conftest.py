import itertools
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qdet import QMatrix, Quaternion, cdet, rdet
from qdet.errors import NumericalBreakdownError, ShapeError, SingularError
from qdet.matrix import replace_col, replace_row, submatrix


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


@pytest.fixture
def rng():
    return random.Random(20240811)
