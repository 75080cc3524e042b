import math

import numpy as np
import pytest

import golden
from conftest import random_qmatrix
from qdet import (
    QMatrix,
    Quaternion,
    embed_complex,
    index_of,
    inverse_square,
    mat_pow,
    rank,
    unembed_complex,
)
from qdet import matrix
from qdet.errors import ModeError, NumericalBreakdownError, ShapeError, SingularError
from qdet.matrix import Powers, max_abs_diff


def test_worked_example_products():
    assert golden.W_IN @ golden.A_IN == golden.U
    assert mat_pow(golden.U, 2) == golden.U2
    assert mat_pow(golden.U, 5) == golden.U5
    assert golden.U5.H == golden.U5_STAR
    assert golden.U5.H @ golden.U5 == golden.U5_STAR_U5
    assert golden.W_IN.H == golden.W_STAR
    assert golden.W_IN.H @ golden.W_IN == golden.W_STAR_W


def test_worked_example_ranks_and_indices():
    v = golden.A_IN @ golden.W_IN
    assert rank(golden.W_IN) == golden.RANK_W
    assert rank(mat_pow(v, 2)) == golden.RANK_V2
    assert rank(mat_pow(v, 3)) == golden.RANK_V3
    assert index_of(v) == golden.IND_V
    assert index_of(golden.U) == golden.IND_U


def test_identity_multiplication(rng):
    a = random_qmatrix(rng, 3, 2)
    assert QMatrix.identity(3) @ a == a
    assert a @ QMatrix.identity(2) == a


def test_mat_pow_zero_is_identity(rng):
    a = random_qmatrix(rng, 3, 3)
    assert mat_pow(a, 0) == QMatrix.identity(3)


def test_conj_transpose_involution_and_product_rule(rng):
    a = random_qmatrix(rng, 3, 2)
    b = random_qmatrix(rng, 2, 4)
    assert a.H.H == a
    assert (a @ b).H == b.H @ a.H


def test_shape_and_mode_errors(rng):
    a = random_qmatrix(rng, 2, 3)
    b = random_qmatrix(rng, 2, 3)
    with pytest.raises(ShapeError):
        a @ b
    with pytest.raises(ModeError):
        a @ random_qmatrix(rng, 3, 2).to_float()
    with pytest.raises(ShapeError):
        mat_pow(a, 2)
    with pytest.raises(ShapeError):
        index_of(a)


def test_rank_examples():
    assert rank(QMatrix.zeros(3, 3)) == 0
    assert rank(QMatrix.identity(4)) == 4


def test_index_examples():
    assert index_of(QMatrix.identity(3)) == 0
    # 2x2 Jordan nilpotent block: rank drops 1 -> 0 at the square.
    nilpotent = QMatrix.from_literals([["0", "1"], ["0", "0"]])
    assert index_of(nilpotent) == 2
    assert index_of(QMatrix.zeros(2, 2)) == 1


def test_rank_properties(rng):
    for _ in range(50):
        m, n, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = random_qmatrix(rng, m, n, span=1, sparsity=0.3)
        b = random_qmatrix(rng, n, p, span=1, sparsity=0.3)
        assert rank(a) == rank(a.H)
        assert rank(a @ b) <= min(rank(a), rank(b))


def test_rank_matches_embedding(rng):
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_qmatrix(rng, m, n, span=2, sparsity=0.25)
        assert 2 * rank(a) == np.linalg.matrix_rank(embed_complex(a))


def test_gram_matrices_are_hermitian(rng):
    for _ in range(20):
        a = random_qmatrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert (a.H @ a).is_hermitian()
        assert (a @ a.H).is_hermitian()


def test_index_stabilizes_within_dimension(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_qmatrix(rng, n, n, span=1, sparsity=0.4)
        k = index_of(a)
        assert 0 <= k <= n
        assert rank(mat_pow(a, k)) == rank(mat_pow(a, k + 1))


def test_each_power_is_one_product_from_the_last(monkeypatch):
    p = Powers(golden.U)
    products = []
    matmul = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    p[2]
    p[5]
    assert len(products) == 5
    monkeypatch.undo()
    assert [p[e] for e in range(6)] == [mat_pow(golden.U, e) for e in range(6)]


def test_index_of_leaves_its_powers_and_ranks_in_the_table(monkeypatch):
    v = golden.A_IN @ golden.W_IN
    p = Powers(v)
    ranks, products = [], []
    monkeypatch.setattr(matrix, "rank", lambda a, f=matrix.rank: ranks.append(a) or f(a))
    matmul = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    assert p.rank(0) == 4 and ranks == []  # rank(A^0) = n without elimination
    assert index_of(p) == golden.IND_V
    assert (len(ranks), len(products)) == (3, 3)  # V, V^2, V^3, each once
    assert (p.rank(2), p.rank(3)) == (golden.RANK_V2, golden.RANK_V3)
    p[2], p[3], index_of(p)
    assert (len(ranks), len(products)) == (3, 3)


def test_operator_aliases_are_gone():
    assert not any(hasattr(QMatrix, name) for name in ("rank", "index_of", "__pow__", "conj_transpose"))
    assert not hasattr(Quaternion, "parse")


def test_max_abs_diff_propagates_nan():
    nan = Quaternion(float("nan"), mode="float")
    big, zero = Quaternion(5.0, mode="float"), Quaternion.zero("float")
    for row in ([nan, big], [big, nan]):
        assert math.isnan(max_abs_diff(QMatrix([row]), QMatrix([[zero, zero]])))
    assert max_abs_diff(QMatrix([[big]]), QMatrix([[zero]])) == 5.0


def test_float_rank_refuses_an_overflowing_scale():
    # A squared norm beyond the float range leaves no pivot scale: refuse
    # rather than reject every pivot.
    a = QMatrix.from_literals([["1e200", "1.0"], ["1.0", "2.0"]])
    with pytest.raises(NumericalBreakdownError):
        rank(a)
    with pytest.raises(NumericalBreakdownError):
        inverse_square(a)
    assert rank(QMatrix.from_literals([["1e150", "1e150"], ["1e150", "2e150"]])) == 2


def test_embedding_block_convention():
    one = QMatrix.identity(1)
    assert np.allclose(embed_complex(one), np.eye(2))
    i_mat = QMatrix.from_literals([["i"]])
    assert np.allclose(embed_complex(i_mat), np.diag([1j, -1j]))


def test_embedding_is_multiplicative_and_star_preserving(rng):
    for _ in range(20):
        a = random_qmatrix(rng, 2, 2)
        b = random_qmatrix(rng, 2, 2)
        ea, eb = embed_complex(a), embed_complex(b)
        assert np.allclose(embed_complex(a @ b), ea @ eb)
        assert np.allclose(embed_complex(a.H), ea.conj().T)


def test_unembed_round_trip(rng):
    a = random_qmatrix(rng, 3, 2).to_float()
    assert max_abs_diff(unembed_complex(embed_complex(a)), a) == 0.0


def test_inverse_square(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_qmatrix(rng, n, n, span=2)
        if rank(a) < n:
            with pytest.raises(SingularError):
                inverse_square(a)
            continue
        x = inverse_square(a)
        assert a @ x == QMatrix.identity(n)
        assert x @ a == QMatrix.identity(n)


def test_hermitian_predicate():
    h = QMatrix.from_literals([["2", "i"], ["-i", "2"]])
    assert h.is_hermitian()
    assert not QMatrix.from_literals([["i", "0"], ["0", "0"]]).is_hermitian()
    assert not QMatrix.from_literals([["1", "0", "0"], ["0", "1", "0"]]).is_hermitian()
