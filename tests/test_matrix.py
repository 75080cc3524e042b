import inspect
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from conftest import (
    random_qmatrix,
    reference_index,
    reference_inverse_square,
    reference_matmul,
    reference_rank,
)
from qdet import (
    QMatrix,
    Quaternion,
    ddet,
    embed_complex,
    hermitian_inverse,
    index_of,
    inverse_square,
    mat_pow,
    rank,
    unembed_complex,
)
import qdet
from qdet import matrix, ncdet
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


def test_constructor_refuses_a_non_quaternion_entry_with_a_type_error():
    with pytest.raises(TypeError, match="must be Quaternion, got int"):
        QMatrix([[1, 2]])
    with pytest.raises(TypeError, match="got float"):
        QMatrix([[Quaternion(1), 2.0]])


def test_equal_matrices_read_the_same_canonical_quaternions():
    h = Quaternion(Fraction(1, 2))
    a = QMatrix([[h + h, h]])  # h + h holds Fraction(1, 1)
    b = QMatrix([[h, h]]) * 2 - QMatrix([[Quaternion(0), h]])
    assert a == b
    for x in (a, b):
        assert type(x[0, 0].a0) is int and x[0, 0].a0 == 1
        assert x.entries() == ((Quaternion(1), h),) and x.row(0) == x.entries()[0]
        assert [type(q.a0) for q in x.row(0)] == [int, Fraction] == [type(q.a0) for q in (*x.col(0), *x.col(1))]


def test_from_literals_infers_one_mode_for_the_matrix():
    # As for a matrix file: an integer or a bare unit takes the mode of the rest.
    h = QMatrix.from_literals([["2.0", "i"], ["-i", "2.0"]])
    assert h == QMatrix.from_literals([["2.0", "1.0i"], ["-1.0i", "2.0"]]) and h.mode == "float"
    assert QMatrix.from_literals([["1e200", "0"], ["0", "1e200"]]).mode == "float"
    assert QMatrix.from_literals([["1", "i"], ["0", "1/2"]]).mode == "exact"
    assert QMatrix.from_literals([["1", "i"]]).mode == "exact"
    assert QMatrix.from_literals([["1", "i"]], mode="float").mode == "float"
    with pytest.raises(ModeError):
        QMatrix.from_literals([["1/2", "0"], ["0", "1.5"]])


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
    assert len(products) == 4  # A^1 is A itself
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
    assert (len(ranks), len(products)) == (3, 2)  # ranks of V, V^2, V^3; products V^2, V^3
    assert (p.rank(2), p.rank(3)) == (golden.RANK_V2, golden.RANK_V3)
    p[2], p[3], index_of(p)
    assert (len(ranks), len(products)) == (3, 2)


def test_operator_aliases_are_gone():
    assert not any(hasattr(QMatrix, name) for name in ("rank", "index_of", "__pow__", "conj_transpose"))
    assert not hasattr(Quaternion, "parse")
    assert not hasattr(Powers, "product")  # products are shared by the code that reuses them
    for name in ("CycleForm", "cycle_forms", "set_enumeration_guard", "enumeration_guard", "_scoped_guard"):
        assert not hasattr(qdet, name) and not hasattr(ncdet, name), name
    assert list(inspect.signature(QMatrix.is_hermitian).parameters) == ["self"]
    assert all(hasattr(qdet, name) for name in qdet.__all__)


def test_max_abs_diff_propagates_nan():
    nan = Quaternion(float("nan"), mode="float")
    big, zero = Quaternion(5.0, mode="float"), Quaternion.zero("float")
    for row in ([nan, big], [big, nan]):
        assert math.isnan(max_abs_diff(QMatrix([row]), QMatrix([[zero, zero]])))
    assert max_abs_diff(QMatrix([[big]]), QMatrix([[zero]])) == 5.0


special_floats = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.5])


@st.composite
def diff_operands(draw, rows, cols):
    """A float matrix whose components may be NaN, +-inf or +-0.0, or an
    exact one held over a denominator above 1."""
    if draw(st.booleans()):
        comps = st.one_of(special_floats, st.floats())
        return QMatrix([[Quaternion(*draw(st.tuples(comps, comps, comps, comps)), mode="float")
                         for _ in range(cols)] for _ in range(rows)])
    comps = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    entries = [[Quaternion(*draw(st.tuples(comps, comps, comps, comps))) for _ in range(cols)] for _ in range(rows)]
    # 13 is prime to every drawn denominator, so no draw cancels this term
    entries[0][0] += Fraction(1, 13)
    return QMatrix(entries)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_max_abs_diff_matches_a_reference(data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a, b = data.draw(diff_operands(rows, cols)), data.draw(diff_operands(rows, cols))
    assert a.mode == "float" or a._held[1] > 1
    diffs = [float(x) - float(y) for p, q in zip(a.entries(), b.entries()) for s, t in zip(p, q)
             for x, y in zip(s.components(), t.components())]
    got = max_abs_diff(a, b)
    if any(map(math.isnan, diffs)):
        assert math.isnan(got)
    else:
        assert got.hex() == max(map(abs, diffs)).hex()


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


def test_float_hermitian_predicate_rejects_nan():
    nan = float("nan")
    a = QMatrix([[Quaternion(nan, mode="float"), Quaternion(1, 2, 0, 0, "float")],
                 [Quaternion(5, mode="float"), Quaternion(nan, mode="float")]])
    assert not a.is_hermitian()
    # The Hermitian entry points refuse a component that is not finite
    # as a breakdown, before they test symmetry.
    with pytest.raises(NumericalBreakdownError):
        ddet(a)
    with pytest.raises(NumericalBreakdownError):
        hermitian_inverse(a)


# -- the component-tuple kernel against the Quaternion-arithmetic references --

def kernel_component(rnd):
    """0, an int, or a non-integral Fraction w + p/q with 0 < p < q."""
    kind = rnd.randrange(3)
    if kind < 2:
        return rnd.randint(-3, 3) if kind else 0
    q = rnd.randint(2, 6)
    return rnd.randint(-3, 2) + Fraction(rnd.randint(1, q - 1), q)


@st.composite
def kernel_matrices(draw, rows, cols):
    """An exact rows x cols matrix: dense, or a product of thin factors
    (rank deficient), with up to two rows and up to two columns zeroed."""
    rnd = draw(st.randoms(use_true_random=False))

    def dense(m, n):
        return QMatrix([[Quaternion(*(kernel_component(rnd) for _ in range(4))) for _ in range(n)]
                        for _ in range(m)])

    inner = draw(st.integers(1, 7))
    if inner < min(rows, cols):
        a = reference_matmul(dense(rows, inner), dense(inner, cols))
    else:
        a = dense(rows, cols)
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    z = Quaternion.zero()
    return QMatrix([[z if i in zero_rows or j in zero_cols else a[i, j] for j in range(cols)]
                    for i in range(rows)])


def _entrywise(x: QMatrix, f) -> QMatrix:
    return QMatrix([[f(q) for q in row] for row in x.entries()])


def _bits(x: QMatrix):
    return [[tuple(c.hex() for c in q.components()) for q in row] for row in x.entries()]


def _canonical(x: QMatrix):
    """Every exact component is an int when integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for row in x.entries() for q in row for c in q.components())


def _inverse_or_error(inverse, a):
    try:
        return inverse(a)
    except (SingularError, NumericalBreakdownError) as exc:
        return type(exc)


def test_real_scalar_products_run_on_the_kernel():
    a = QMatrix.from_literals([["1/2", "3i"], ["2j-1/3k", "0"]])
    for r in (2, -3, Fraction(3, 2), Fraction(-1, 6), 0):
        assert a * r == r * a == _entrywise(a, lambda q: q * r) and _canonical(a * r)
        if r:
            assert a / r == _entrywise(a, lambda q: q / r) and _canonical(a / r)
    assert _canonical(hermitian_inverse(QMatrix.diagonal([Quaternion(4), Quaternion(1), Quaternion(1)])))
    f = a.to_float()
    for r in (3, 0.1, -7.5):
        assert _bits(f * r) == _bits(_entrywise(f, lambda q: q * r))
        assert _bits(f / r) == _bits(_entrywise(f, lambda q: q / r))
    for x, zero in ((a, 0), (f, 0.0), (f, -0.0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    for x, other in ((a, 0.5), (f, Fraction(1, 2))):
        with pytest.raises(ModeError):
            x * other
        with pytest.raises(ModeError):
            x / other
    for bad in (True, "2", Quaternion(0, 1)):
        with pytest.raises(TypeError):
            a * bad
        with pytest.raises(TypeError):
            a / bad


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernel_matches_the_quaternion_references(data):
    m, k, n = (data.draw(st.integers(1, 7)) for _ in range(3))
    a, b = data.draw(kernel_matrices(m, k)), data.draw(kernel_matrices(k, n))
    s = data.draw(kernel_matrices(n, n))

    product = a @ b
    assert product == reference_matmul(a, b) and _canonical(product)
    for x in (a, product, s):
        assert rank(x) == reference_rank(x)
    assert index_of(s) == reference_index(s)
    inverse = _inverse_or_error(inverse_square, s)
    assert inverse == _inverse_or_error(reference_inverse_square, s)
    assert isinstance(inverse, type) or _canonical(inverse)

    rnd = data.draw(st.randoms(use_true_random=False))
    fa, fb, fs = (_to_float(x, rnd) for x in (a, b, s))  # signed zeros too
    assert _bits(fa @ fb) == _bits(reference_matmul(fa, fb))
    for x in (fa, fa @ fb, fs):
        assert rank(x) == reference_rank(x)
    inverse = _inverse_or_error(inverse_square, fs)
    expected = _inverse_or_error(reference_inverse_square, fs)
    assert inverse == expected if isinstance(expected, type) else _bits(inverse) == _bits(expected)



# -- an identity factor is free --

# Signed zeros, thirds, a subnormal and values near the float limit.
IDENTITY_OPERANDS = (0.0, -0.0, 1 / 3, -2.5, 5e-324, -1e-310, 1e308, -1e308)


def _signed_identity(n, rnd):
    """The float n x n identity with each zero component 0.0 or -0.0."""
    z = lambda: rnd.choice((0.0, -0.0))  # noqa: E731
    return QMatrix([[Quaternion(1.0 if i == j else z(), z(), z(), z(), mode="float") for j in range(n)]
                    for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_an_identity_factor_gives_the_full_products_bits(data):
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rnd = data.draw(st.randoms(use_true_random=False))
    x = QMatrix([[Quaternion(*(rnd.choice(IDENTITY_OPERANDS) for _ in range(4)), mode="float")
                  for _ in range(n)] for _ in range(m)])
    for left, right in ((_signed_identity(m, rnd), x), (x, _signed_identity(n, rnd)),
                        (QMatrix.identity(m, "float"), x), (x, QMatrix.identity(n, "float"))):
        assert _bits(left @ right) == _bits(reference_matmul(left, right))
    a, i = data.draw(kernel_matrices(m, n)), QMatrix.identity(n)
    assert QMatrix.identity(m) @ a is a and a @ i is (i if a == i else a)  # exact: the other factor itself


def test_a_non_finite_operand_of_an_identity_takes_the_full_product():
    i = QMatrix.identity(2, "float")
    for bad in (math.inf, -math.inf, math.nan):
        x = QMatrix([[Quaternion(bad, 1.0, mode="float"), Quaternion(2.0, mode="float")],
                     [Quaternion(-0.0, mode="float"), Quaternion(0.0, 0.0, 0.0, bad, mode="float")]])
        for product, expected in ((i @ x, reference_matmul(i, x)), (x @ i, reference_matmul(x, i))):
            assert _bits(product) == _bits(expected)  # 0 * inf is NaN: NaNs in the same places
            assert any(math.isnan(c) for t in product._held[0][0] for c in t[1:])


def test_a_power_table_makes_each_product_once_and_the_identity_when_read(monkeypatch):
    made, products = [], []
    identity, matmul = QMatrix.identity, QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "identity", classmethod(lambda cls, n, mode="exact": made.append(n) or identity(n, mode)))
    monkeypatch.setattr(QMatrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    p = Powers(golden.U)
    assert p.rank(0) == golden.U.rows and index_of(p) == golden.IND_U and made == []
    products.clear()
    assert p[0] is p[0] and p[0] == identity(golden.U.rows) and made == [golden.U.rows] and products == []


def test_an_empty_diagonal_is_a_shape_error():
    for empty in (lambda: QMatrix.diagonal([]), lambda: QMatrix.zeros(0, 3)):
        with pytest.raises(ShapeError):
            empty()


# -- the held form: exact results made as int rows over one denominator --

def _reference_adjoint(x: QMatrix) -> QMatrix:
    return QMatrix([[x[i, j].conj() for i in range(x.rows)] for j in range(x.cols)])


def _held_is_canonical(x: QMatrix) -> bool:
    rows, den = x._held
    return den > 0 and math.gcd(den, *(c for row in rows for t in row for c in t)) == 1


scalars = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=6))


def _to_float(x: QMatrix, rnd) -> QMatrix:
    """x.to_float() with the sign of some zero components flipped to -0.0."""
    flip = lambda c: -c if c == 0 and rnd.random() < 0.5 else c  # noqa: E731
    return _entrywise(x.to_float(), lambda q: Quaternion(*map(flip, q.components()), mode=q.mode))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_held_form_chains_match_the_quaternion_references(data):
    n = data.draw(st.integers(1, 4))
    m, k = data.draw(st.sampled_from([(1, n), (n, 1), (n, n)]))
    exact, rnd = data.draw(st.booleans()), data.draw(st.randoms(use_true_random=False))
    drawn = lambda y: y if exact else _to_float(y, rnd)  # noqa: E731
    x = ref = drawn(data.draw(kernel_matrices(m, k)))
    for _ in range(data.draw(st.integers(1, 5))):
        op = data.draw(st.sampled_from(["@", "gram", "H", "*", "/", "+", "-", "neg"] + ["to_float"] * exact))
        if op in ("+", "-"):
            b = bref = drawn(data.draw(kernel_matrices(x.rows, x.cols)))
            if data.draw(st.booleans()):
                b, bref = x, ref  # x - x: an exact zero must come out as int 0
            x = x + b if op == "+" else x - b
            ref = QMatrix([[p + q if op == "+" else p - q for p, q in zip(r, s)]
                           for r, s in zip(ref.entries(), bref.entries())])
        elif op == "neg":
            x, ref = -x, _entrywise(ref, lambda q: -q)
        elif op == "to_float":
            x, ref, exact = x.to_float(), _entrywise(ref, Quaternion.to_float), False
        elif op == "@":
            b = drawn(data.draw(kernel_matrices(x.cols, data.draw(st.sampled_from([1, x.rows, 3])))))
            x, ref = x @ b, reference_matmul(ref, b)
        elif op == "gram":
            x, ref = x @ x.H, reference_matmul(ref, _reference_adjoint(ref))
        elif op == "H":
            x, ref = x.H, _reference_adjoint(ref)
        else:
            r = data.draw(scalars.filter(lambda v: op == "*" or v != 0))
            r = r if exact else data.draw(st.sampled_from([1.0, -1.0])) * float(r)  # -0.0 too
            x, ref = (x * r, _entrywise(ref, lambda q: q * r)) if op == "*" else (x / r, _entrywise(ref, lambda q: q / r))
        assert not exact or _held_is_canonical(x)
        twin = QMatrix(ref.entries())
        assert x == twin and twin == x and hash(x) == hash(twin)
        assert rank(x) == reference_rank(ref) == rank(twin)
        square = ref.rows == ref.cols
        materialized = square and all(ref[i, j] == ref[j, i].conj() for i in range(ref.rows) for j in range(ref.cols))
        hermitian = x.is_hermitian()
        assert hermitian == twin.is_hermitian()
        # Float mode's tolerance may also accept a near-Hermitian x.
        assert hermitian == materialized if exact else hermitian >= materialized
    if exact:
        assert x.entries() == ref.entries() and _canonical(x)
    else:
        assert _bits(x) == _bits(ref)


def test_rank_and_equality_on_a_product_chain_build_no_quaternions(monkeypatch):
    a = QMatrix.from_literals([["1/2", "3i"], ["2j-1/3k", "1"], ["0", "1/4"]])
    built = []
    quaternion = matrix._quaternion
    monkeypatch.setattr(matrix, "_quaternion", lambda *args: built.append(args) or quaternion(*args))
    g = a.H @ a
    x = (g @ g) * Fraction(2, 3) / 5
    y = g @ (g * Fraction(2, 15))
    assert x == y and hash(x) == hash(y) and x != g
    assert rank(x) == rank(a @ a.H @ a) == 2 and x.is_hermitian()
    assert index_of(a.H @ a) == 0
    i, z = QMatrix.identity(2), QMatrix.zeros(2, 2)
    assert x @ i == x + z == -(-x) and (x - y).is_zero() and not (x + i).is_zero()
    assert max_abs_diff(x.to_float(), y) == 0.0 and max_abs_diff(x, x + i) == 1.0
    assert np.allclose(embed_complex(x), embed_complex(y.to_float()))
    assert built == []
    str(x)  # each read builds the entries it reads
    assert len(built) == 4
    str(x)
    assert len(built) == 8


def test_concurrent_first_reads_agree():
    # Threads race to read the entries of the same fresh products, each
    # read building them from the held form, while they read the held
    # form of matrices built from entries.  Every read must give what a
    # lone reader gets.
    a = QMatrix.from_literals([["1/2", "3i", "0"], ["2j-1/3k", "1", "k"], ["0", "1/4", "5"]])
    entries = (a @ a.H * Fraction(1, 3)).entries()
    want = (entries, hash(QMatrix(entries)), True, rank(QMatrix(entries)))
    pairs, seen, errors = [], [], []
    barrier = threading.Barrier(6)

    def reader():
        try:
            for product, built in pairs:
                barrier.wait(timeout=10)
                seen.append((product.entries(), hash(built), product == built, rank(built)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pairs[:] = [(a @ a.H * Fraction(1, 3), QMatrix(entries)) for _ in range(30)]
        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert seen == [want] * (6 * 30)


# -- refused inputs -----------------------------------------------------------


_I2, _I3 = QMatrix.identity(2), QMatrix.identity(3)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: QMatrix([]), ShapeError, "at least one row and one column"),
        (lambda: QMatrix([[Quaternion.one()] * 2, [Quaternion.one()]]), ShapeError, "inconsistent lengths"),
        (lambda: QMatrix([[Quaternion.one(), Quaternion.one("float")]]), ModeError, "mix exact and float"),
        (lambda: _I2 + _I3, ShapeError, r"cannot add \(2, 2\) and \(3, 3\)"),
        (lambda: _I2 + 1, TypeError, "unsupported operand"),
        (lambda: _I2 @ 2, TypeError, "unsupported operand"),
        (lambda: mat_pow(_I2, -1), ValueError, "nonnegative integer"),
        (lambda: inverse_square(QMatrix.zeros(2, 3)), ShapeError, "square matrix"),
        (lambda: max_abs_diff(_I2, _I3), ShapeError, "cannot compare"),
        (lambda: unembed_complex(np.zeros((3, 2))), ShapeError, "positive even dimensions"),
    ],
    ids=["empty", "ragged", "mixed_modes", "add_shapes", "add_int", "matmul_int", "negative_power",
         "inverse_not_square", "diff_shapes", "unembed_odd"],
)
def test_matrix_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_a_matrix_equals_only_a_matrix_of_its_mode():
    assert (_I2 == "x") is False
    assert (_I2 == _I2.to_float()) is False
