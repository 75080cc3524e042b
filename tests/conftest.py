import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qdet import QMatrix, Quaternion, cdet, rdet
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


@pytest.fixture
def rng():
    return random.Random(20240811)
