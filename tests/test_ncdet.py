import hashlib
import inspect
import itertools
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from conftest import (
    bordered_sum,
    delete_row_col,
    eval_char_poly,
    float_bits,
    random_hermitian,
    random_qmatrix,
    random_quaternion,
    reference_bordered_cofactors,
    reference_det,
    replace_col,
    replace_row,
    submatrix,
)
from qdet import (
    QMatrix,
    Quaternion,
    cdet,
    cdet_reference,
    char_poly,
    ddet,
    drazin,
    embed_complex,
    hermitian_inverse,
    mp_inverse,
    principal_minor_sum,
    rdet,
    rdet_reference,
)
import qdet
from qdet import ncdet
from qdet.errors import (
    EnumerationGuardError,
    InternalInvariantError,
    NotHermitianError,
    NumericalBreakdownError,
    ShapeError,
    SingularError,
)
from qdet.ncdet import _bordered_cofactors


# -- determinants: examples from first principles ---------------------------


def test_rdet_cdet_1x1():
    q = Quaternion(1, 2, 3, 4)
    a = QMatrix([[q]])
    assert rdet(1, a) == q
    assert cdet(1, a) == q


def test_rdet_2x2_ordered_products(rng):
    # S_2 by hand: identity gives a*d (fixed points in row order), the
    # transposition gives -(b*c).
    for _ in range(10):
        a, b, c, d = (random_quaternion(rng) for _ in range(4))
        m = QMatrix([[a, b], [c, d]])
        assert rdet(1, m) == a * d - b * c
        assert rdet(2, m) == d * a - c * b
        assert cdet(1, m) == d * a - b * c
        assert cdet(2, m) == a * d - c * b


def test_hermitian_2x2_value():
    a = QMatrix.from_literals([["2", "i"], ["-i", "2"]])
    for anchor in (1, 2):
        assert rdet(anchor, a) == Quaternion.real(3)
        assert cdet(anchor, a) == Quaternion.real(3)
    assert ddet(a) == 3


def test_commutative_collapse(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        a = QMatrix(
            [[Quaternion.real(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        classical = round(
            np.linalg.det(np.array([[float(a[i, j].a0) for j in range(n)] for i in range(n)]))
        )
        for anchor in range(1, n + 1):
            assert rdet(anchor, a) == Quaternion.real(classical)
            assert cdet(anchor, a) == Quaternion.real(classical)


def test_all_row_column_determinants_equal_on_hermitian(rng):
    for _ in range(200):
        n = rng.randint(1, 4)
        h = random_hermitian(rng, n)
        value = rdet(1, h)
        assert value.is_real()
        for anchor in range(1, n + 1):
            assert rdet(anchor, h) == value
            assert cdet(anchor, h) == value


def test_left_row_combination_vanishes(rng):
    for _ in range(50):
        n = rng.randint(2, 4)
        h = random_hermitian(rng, n)
        i = rng.randint(1, n)
        coeffs = {s: random_quaternion(rng, 1) for s in range(n) if s != i - 1}
        newrow = []
        for col in range(n):
            acc = Quaternion.zero()
            for s, c in coeffs.items():
                acc = acc + c * h[s, col]
            newrow.append(acc)
        m = replace_row(h, i - 1, newrow)
        assert rdet(i, m).is_zero()
        assert cdet(i, m).is_zero()


def test_right_column_combination_vanishes(rng):
    for _ in range(50):
        n = rng.randint(2, 4)
        h = random_hermitian(rng, n)
        j = rng.randint(1, n)
        coeffs = {s: random_quaternion(rng, 1) for s in range(n) if s != j - 1}
        newcol = []
        for row in range(n):
            acc = Quaternion.zero()
            for s, c in coeffs.items():
                acc = acc + h[row, s] * c
            newcol.append(acc)
        m = replace_col(h, j - 1, newcol)
        assert cdet(j, m).is_zero()
        assert rdet(j, m).is_zero()


def test_conjugation_duality(rng):
    for _ in range(50):
        n = rng.randint(1, 4)
        a = random_qmatrix(rng, n, n)
        j = rng.randint(1, n)
        assert cdet(j, a.H) == rdet(j, a).conj()


def test_ddet_requires_hermitian():
    with pytest.raises(NotHermitianError):
        ddet(QMatrix.from_literals([["i"]]))


def test_ddet_examples():
    assert ddet(QMatrix.diagonal([Quaternion.real(2), Quaternion.real(3)])) == 6
    assert ddet(QMatrix.identity(4)) == 1


def test_ddet_squared_matches_embedding_determinant(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        h = random_hermitian(rng, n)
        d = float(ddet(h))
        de = np.linalg.det(embed_complex(h))
        assert abs(de.imag) <= 1e-6 * (1.0 + abs(de))
        assert abs(de.real - d * d) <= 1e-6 * (1.0 + d * d)


# -- principal minors and the characteristic polynomial ---------------------


def test_principal_minor_sums_on_worked_example():
    assert principal_minor_sum(golden.U5_STAR_U5, 2) == 1
    assert principal_minor_sum(golden.W_STAR_W, 3) == 2


def test_principal_minor_sum_full_order_is_determinant():
    d = QMatrix.diagonal([Quaternion.real(x) for x in (2, 3, 5)])
    assert principal_minor_sum(d, 3) == 30
    assert principal_minor_sum(d, 1) == 10
    assert principal_minor_sum(d, 2) == 31


def test_char_poly_examples():
    assert char_poly(QMatrix([[Quaternion.real(7)]])) == (7,)
    a = QMatrix.from_literals([["2", "i"], ["-i", "2"]])
    assert char_poly(a) == (4, 3)
    d = QMatrix.diagonal([Quaternion.real(x) for x in (1, 2, 3)])
    assert char_poly(d) == (6, 11, 6)


def test_char_poly_matches_shifted_determinants(rng):
    for _ in range(50):
        n = rng.randint(1, 4)
        h = random_hermitian(rng, n)
        coeffs = char_poly(h)
        for t in range(n + 1):
            shifted = QMatrix.diagonal([Quaternion.real(t)] * n) - h
            assert ddet(shifted) == eval_char_poly(coeffs, Fraction(t))


def literal_minor_sum(h, s):
    return sum(ddet(submatrix(h, idx, idx)) for idx in itertools.combinations(range(h.rows), s))


def test_minor_sums_match_literal_minors(rng):
    for n in range(1, 6):
        h = random_hermitian(rng, n)
        literal = [literal_minor_sum(h, s) for s in range(1, n + 1)]
        assert [principal_minor_sum(h, s) for s in range(1, n + 1)] == literal
        assert list(char_poly(h)) == literal


# -- bordered cofactors ------------------------------------------------------


def random_fraction_qmatrix(rng, n):
    return QMatrix(
        [
            [Quaternion(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4))) for _ in range(n)]
            for _ in range(n)
        ]
    )


# Integer and non-integral Fraction components.
components = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3))


def cofactor_sums(cof, vector, row):
    """What the literal bordered sums anchored at each index should equal:
    (Y @ b)[i] for the column family, (b @ Y)[j] for the row family."""
    n = cof.rows
    out = []
    for i in range(n):
        total = Quaternion.zero(cof.mode)
        for t in range(n):
            total = total + (vector[t] * cof[t, i] if row else cof[i, t] * vector[t])
        out.append(total)
    return out


def assert_cofactors_match_literal_sums(g, vector, r):
    cof, _ = _bordered_cofactors(g, r)
    for row in (False, True):  # one pass serves both families
        literal = [bordered_sum(g, i, vector, r, row) for i in range(g.rows)]
        assert cofactor_sums(cof, vector, row) == literal, (r, row)


def test_bordered_cofactors_match_literal_sums(rng):
    # Every order r and both families, bit-exact, on Hermitian integer and
    # non-integral Fraction entries, up to n = 5; a g that is not
    # Hermitian is refused.
    for n in range(1, 6):
        b = random_fraction_qmatrix(rng, n)
        for g in (random_hermitian(rng, n), (b + b.H) / 2):
            vector = [random_quaternion(rng) for _ in range(n)]
            for r in range(1, n + 1):
                assert_cofactors_match_literal_sums(g, vector, r)
        if not b.is_hermitian():
            with pytest.raises(NotHermitianError):
                _bordered_cofactors(b, n)


def test_bordered_cofactor_denominator_is_the_minor_sum(rng):
    for n in range(1, 6):
        h = random_hermitian(rng, n)
        for r in range(1, n + 1):
            assert _bordered_cofactors(h, r)[1] == literal_minor_sum(h, r)
        g = random_qmatrix(rng, n, n)
        if not g.is_hermitian():
            with pytest.raises(NotHermitianError):
                _bordered_cofactors(g, n)


def test_bordered_cofactors_take_no_guard():
    # The recurrence enumerates nothing, so orders above the determinants'
    # default guard of 8 answer too.
    assert _bordered_cofactors(QMatrix.identity(4), 2)[1] == 6
    cof, d = _bordered_cofactors(QMatrix.identity(9), 9)
    assert d == 1 and cof == QMatrix.identity(9)


def test_bordered_cofactors_of_order_zero():
    # No order-0 set holds an anchor, and the one empty minor is 1.
    for g in (golden.U @ golden.U.H, QMatrix.from_literals([["2", "i"], ["-i", "2"]]).to_float()):
        cof, d = _bordered_cofactors(g, 0)
        assert cof == QMatrix.zeros(g.rows, g.rows, g.mode) and d == 1


bordered_cases = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.builds(Quaternion, *[components] * 4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(QMatrix),
        st.lists(st.builds(Quaternion, *[components] * 4), min_size=n, max_size=n),
        st.integers(1, n),
    )
)


@settings(max_examples=50, deadline=None)
@given(bordered_cases)
def test_bordered_cofactors_match_literal_sums_property(case):
    g, vector, r = case
    assert_cofactors_match_literal_sums(g + g.H, vector, r)


# -- Hermitian inverse -------------------------------------------------------


def cofactor_assembly(a):
    """The Hermitian inverse entry by entry: each entry one row (right) or
    column (left) determinant of a bordered (n-1) x (n-1) matrix."""
    n, det = a.rows, ddet(a)

    def right(i, j):
        if i == j:
            return rdet(1, delete_row_col(a, i, i))
        pos = j if j < i else j - 1
        return -rdet(pos + 1, delete_row_col(replace_col(a, j, a.col(i)), i, i))

    def left(i, j):
        if i == j:
            return cdet(1, delete_row_col(a, j, j))
        pos = i if i < j else i - 1
        return -cdet(pos + 1, delete_row_col(replace_row(a, i, a.row(j)), j, j))

    return tuple(
        QMatrix([[cof(j, i) / det for j in range(n)] for i in range(n)]) for cof in (right, left)
    )


def test_hermitian_inverse_matches_cofactor_assembly(rng):
    produced = 0
    while produced < 20:
        n = rng.randint(2, 5)
        h = random_hermitian(rng, n)
        if ddet(h) == 0:
            continue
        right, left = cofactor_assembly(h)
        assert hermitian_inverse(h) == right == left
        produced += 1


def test_float_hermitian_inverse_refuses_nan_cofactors():
    # A float matrix is inverted as the exact matrix it stands for, so a
    # cofactor sum beyond the float range makes no NaN: this one is
    # exactly singular.  A component that is not finite is refused as a
    # numerical breakdown, by the cofactors and by every Hermitian entry
    # point, before the NaN-aware symmetry test could call it not Hermitian.
    with pytest.raises(SingularError):
        hermitian_inverse(QMatrix.from_literals([["1e200", "1e200"], ["1e200", "1e200"]]))

    def floats(rows):
        return QMatrix([[Quaternion(x, mode="float") for x in row] for row in rows])

    bad = [floats([[1.0, x], [x, 1.0]]) for x in (math.inf, -math.inf, math.nan)]
    for a in bad + [floats([[math.nan, 0.0], [0.0, 1.0]])]:
        with pytest.raises(NumericalBreakdownError):
            _bordered_cofactors(a, 1)
        for call in (hermitian_inverse, ddet, char_poly, lambda a: principal_minor_sum(a, 1)):
            with pytest.raises(NumericalBreakdownError, match="not finite"):
                call(a)


def test_hermitian_inverse_examples():
    assert hermitian_inverse(QMatrix.identity(3)) == QMatrix.identity(3)
    d = QMatrix.diagonal([Quaternion.real(2), Quaternion.real(4)])
    assert hermitian_inverse(d) == QMatrix.diagonal(
        [Quaternion.real(Fraction(1, 2)), Quaternion.real(Fraction(1, 4))]
    )
    a = QMatrix.from_literals([["2", "i"], ["-i", "2"]])
    expected = QMatrix.from_literals([["2", "-i"], ["i", "2"]]) / 3
    assert hermitian_inverse(a) == expected


def test_hermitian_inverse_random(rng):
    produced = 0
    while produced < 30:
        n = rng.randint(1, 4)
        h = random_hermitian(rng, n)
        if ddet(h) == 0:
            with pytest.raises(SingularError):
                hermitian_inverse(h)
            continue
        x = hermitian_inverse(h)
        assert h @ x == QMatrix.identity(n)
        assert x @ h == QMatrix.identity(n)
        produced += 1


def test_hermitian_inverse_rejects_singular_and_non_hermitian():
    with pytest.raises(SingularError):
        hermitian_inverse(QMatrix.zeros(2, 2))
    with pytest.raises(NotHermitianError):
        hermitian_inverse(QMatrix.from_literals([["i", "0"], ["0", "1"]]))


# -- reference-vs-canonical gate and the size guard --------------------------


def test_reference_and_canonical_enumerators_agree(rng):
    # Bit-exact at every anchor, on integer and on non-integral Fraction
    # entries, up to n = 6.
    for n in range(1, 7):
        cases = [random_qmatrix(rng, n, n), random_fraction_qmatrix(rng, n)]
        assert any(c.denominator > 1 for q in cases[1].row(0) for c in q.components())
        if n <= 4:
            cases += [random_qmatrix(rng, n, n, sparsity=0.3) for _ in range(20)]
        for a in cases:
            for anchor in range(1, n + 1):
                assert rdet(anchor, a) == rdet_reference(anchor, a)
                assert cdet(anchor, a) == cdet_reference(anchor, a)


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(
            st.builds(Quaternion, *[st.fractions(min_value=-3, max_value=3, max_denominator=3)] * 4),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    ).map(QMatrix)
)


@settings(max_examples=50, deadline=None)
@given(square_matrices, st.data())
def test_canonical_evaluator_matches_reference_property(a, data):
    anchor = data.draw(st.integers(1, a.rows))
    assert rdet(anchor, a) == rdet_reference(anchor, a)
    assert cdet(anchor, a) == cdet_reference(anchor, a)


def test_float_evaluator_matches_reference_at_n6(rng):
    a = QMatrix(
        [[Quaternion(*(rng.uniform(-1.0, 1.0) for _ in range(4)), mode="float") for _ in range(6)] for _ in range(6)]
    )
    for anchor in range(1, 7):
        for fast, slow in ((rdet, rdet_reference), (cdet, cdet_reference)):
            got, want = fast(anchor, a), slow(anchor, a)
            scale = 1.0 + math.sqrt(want.norm_sq())
            assert max(abs(x - y) for x, y in zip(got.components(), want.components())) <= 1e-9 * scale


def _random_float_qmatrix(rng, n):
    # Thirds, 1e-8-sized values and zeros of both signs, so that products
    # make signed zeros and sums round where a reordering would move them.
    # Half the components are drawn as zeros, so that some outputs are zero.
    values = [k / 3 for k in range(-3, 4)] + [1e-8, -3e-8, 0.0, -0.0, -0.0]
    zeros = [0.0, -0.0]

    def entry():
        return Quaternion(*(rng.choice(zeros if rng.random() < 0.5 else values) for _ in range(4)), mode="float")

    return QMatrix([[entry() for _ in range(n)] for _ in range(n)])


def _reference_digest(cases, bits):
    h = hashlib.sha256()
    for a in cases:
        for anchor in range(1, a.rows + 1):
            for evaluator in (rdet_reference, cdet_reference):
                h.update(repr(bits(evaluator(anchor, a))).encode())
    return h.hexdigest()[:16]


def test_reference_values_are_pinned():
    # Digests of both references at every anchor of seeded inputs, recorded
    # from an earlier implementation, so that a rewrite keeps every value:
    # exact values with their component types, float values bit for bit.
    rng = random.Random(1729)
    exact = [random_fraction_qmatrix(rng, n) for n in (1, 2, 3, 4, 5, 5)]
    floats = [_random_float_qmatrix(rng, n) for n in (1, 2, 3, 3, 4, 4, 5, 5)]
    assert _reference_digest(exact, lambda q: tuple(map(repr, q.components()))) == "b226c31567a497ed"
    assert _reference_digest(floats, float_bits) == "e3ae1bfdac31ebec"


def test_float_references_keep_the_sign_of_a_zero():
    # A float sum starts from -0.0, so a 1x1 determinant is its entry bit for bit.
    a = QMatrix([[Quaternion(-0.0, 1.0, -0.0, -0.0, mode="float")]])
    for evaluator in (rdet, cdet, rdet_reference, cdet_reference):
        assert float_bits(evaluator(1, a)) == float_bits(a[0, 0])


def test_the_reference_calls_no_subset_kernel_helper():
    # The reference is the subset kernel's independent oracle.
    kernel = {"_tails", "_signed_cycle_sums", "_subsets", "_cycle_sum_det"}
    assert not kernel & set(ncdet._reference.__code__.co_names)


def test_guard_refuses_oversized_input():
    big = QMatrix.identity(9)
    with pytest.raises(EnumerationGuardError):
        rdet(1, big)
    with pytest.raises(EnumerationGuardError):
        cdet(1, big, max_n=5)
    # explicit override admits the size
    small = QMatrix.identity(4)
    with pytest.raises(EnumerationGuardError):
        rdet(1, small, max_n=3)
    assert rdet(1, small, max_n=4) == Quaternion.one()


def test_guard_set_in_one_thread_is_not_seen_by_another():
    # A worker's override admits its own 9x9 calls only: while they run, the
    # same call here, without max_n, is refused at the default guard.
    big, started, done, seen = QMatrix.identity(9), threading.Event(), threading.Event(), []

    def work():
        while not done.is_set():
            seen.append(rdet(1, big, max_n=9))
            started.set()

    worker = threading.Thread(target=work)
    worker.start()
    try:
        assert started.wait(timeout=10)
        for _ in range(3):
            with pytest.raises(EnumerationGuardError):
                rdet(1, big)
    finally:
        done.set()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert seen and all(x == Quaternion.one() for x in seen)


# Every public function that takes a per-call guard override, the ones
# whose cost grows exponentially in n, called on a 2x2 Hermitian input
# that fits under an override of 2.
_H = QMatrix.from_literals([["2", "i"], ["-i", "2"]])
GUARDED_CALLS = {
    "rdet": lambda max_n: rdet(1, _H, max_n=max_n),
    "cdet": lambda max_n: cdet(1, _H, max_n=max_n),
    "rdet_reference": lambda max_n: rdet_reference(1, _H, max_n=max_n),
    "cdet_reference": lambda max_n: cdet_reference(1, _H, max_n=max_n),
    "ddet": lambda max_n: ddet(_H, max_n=max_n),
}


_NOT_HERMITIAN = QMatrix.from_literals([["i", "0"], ["0", "1"]])


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: principal_minor_sum(_NOT_HERMITIAN, 1), NotHermitianError, "principal minors require"),
        (lambda: principal_minor_sum(_H, 3), ValueError, r"minor order 3 out of range 1\.\.2"),
        (lambda: char_poly(_NOT_HERMITIAN), NotHermitianError, "characteristic polynomial requires"),
    ],
    ids=["minor_sum_not_hermitian", "minor_order", "char_poly_not_hermitian"],
)
def test_hermitian_offspring_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_guarded_calls_cover_every_public_max_n():
    takes = {
        name
        for name in qdet.__all__
        if callable(getattr(qdet, name)) and "max_n" in inspect.signature(getattr(qdet, name)).parameters
    }
    assert takes == set(GUARDED_CALLS)


@pytest.mark.parametrize("max_n", [0, -3])
@pytest.mark.parametrize("name", sorted(GUARDED_CALLS))
def test_an_override_below_one_is_a_value_error(name, max_n):
    call = GUARDED_CALLS[name]
    with pytest.raises(ValueError, match="at least 1"):
        call(max_n)
    call(None)  # the same call without max_n runs at the default guard
    call(2)  # and under a valid override


@pytest.mark.parametrize(
    "evaluator, error",
    [
        (rdet, ShapeError),
        (cdet, ShapeError),
        (rdet_reference, ShapeError),
        (cdet_reference, ShapeError),
        (lambda _, a, max_n: ddet(a, max_n=max_n), NotHermitianError),
    ],
    ids=["rdet", "cdet", "rdet_reference", "cdet_reference", "ddet"],
)
def test_the_determinants_check_an_override_before_the_input(evaluator, error):
    # A 2x3 matrix has no determinant, but the invalid override is named
    # first.
    a = QMatrix.from_literals([["1", "i", "0"], ["j", "1", "k"]])
    with pytest.raises(ValueError, match="at least 1"):
        evaluator(1, a, max_n=0)
    with pytest.raises(error):
        evaluator(1, a, max_n=3)


@pytest.mark.parametrize("max_n", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", sorted(GUARDED_CALLS))
def test_an_override_that_is_not_an_integer_is_a_type_error(name, max_n):
    # Refused as the override is read.
    with pytest.raises(TypeError, match="integer"):
        GUARDED_CALLS[name](max_n)


def test_anchor_validation(rng):
    a = random_qmatrix(rng, 2, 2)
    with pytest.raises(ValueError):
        rdet(0, a)
    with pytest.raises(ValueError):
        cdet(3, a)
    with pytest.raises(ShapeError):
        rdet(1, random_qmatrix(rng, 2, 3))
    # An anchor that is not an integer is named, not met as a table index.
    for evaluator in (rdet, cdet, rdet_reference, cdet_reference):
        for anchor in (1.0, 1.5, True):
            with pytest.raises(TypeError, match="determinant anchor must be an integer"):
                evaluator(anchor, a)


# -- float mode --------------------------------------------------------------


def test_float_mode_determinants(rng):
    a = random_qmatrix(rng, 3, 3)
    exact = rdet(1, a)
    approx = rdet(1, a.to_float())
    assert approx.mode == "float"
    assert max(abs(float(x) - y) for x, y in zip(exact.components(), approx.components())) < 1e-9


def test_float_determinants_refuse_a_non_finite_result():
    # No rank decision runs before a determinant, so an overflow to inf, or
    # inf - inf = NaN, is refused here rather than returned.
    big = QMatrix.from_literals([["1e308", "1e308"], ["1e308", "1e308"]])
    diag = QMatrix.from_literals([["1e200", "0"], ["0", "1e200"]])
    calls = [(rdet, 1, big), (cdet, 2, big), (ddet, big), (ddet, diag), (principal_minor_sum, diag, 2),
             (char_poly, diag), (_bordered_cofactors, diag, 2)]
    for f, *args in calls:
        with pytest.raises(NumericalBreakdownError):
            f(*args)
    assert principal_minor_sum(diag, 1) == 2e200 and rdet(1, diag * 1e-100).a0 == 1e200
    # The inverse is rounded once from the exact one, whose cofactor sums
    # never meet the float range.
    assert hermitian_inverse(diag) == QMatrix.from_literals([["1e-200", "0"], ["0", "1e-200"]])


# -- the component-tuple kernel against the Quaternion-object recursion ------

# Denominators 2, 3 and 7 make den = 42 on most exact draws, so an output
# of s factors is divided by 42**s, at every s.  A third of the entries
# are zero, in float mode with either sign per component, so that whole
# sums of signed zeros occur and the sign of a zero sum is exercised.
FLOAT_COMPONENTS = [0.0, -0.0, 1.0, -1.5, 0.1, 1 / 3, -2.75, 1e-3]
KERNEL_COMPONENTS = {
    "exact": st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7), Fraction(-3, 2)]),
    "float": st.sampled_from(FLOAT_COMPONENTS),
}
KERNEL_ZEROS = {"exact": st.just(0), "float": st.sampled_from([0.0, -0.0])}


@st.composite
def kernel_matrices(draw, mode):
    """A square matrix of `mode`: general, B + B*, or the Gram matrix B B*."""
    n = draw(st.integers(1, 5))

    def entry():
        components = KERNEL_ZEROS[mode] if draw(st.integers(0, 2)) == 0 else KERNEL_COMPONENTS[mode]
        return Quaternion(*(draw(components) for _ in range(4)), mode=mode)

    b = QMatrix([[entry() for _ in range(n)] for _ in range(n)])
    kind = draw(st.sampled_from(["general", "sum", "gram"]))
    return b if kind == "general" else b + b.H if kind == "sum" else b @ b.H


def assert_same(got, want, mode, canonical=True):
    """Equal bits (float), or equal values (exact) whose components are
    `int` where integral when `canonical`."""
    if mode == "float":
        assert float_bits(got) == float_bits(want)
        return
    assert got == want
    if not canonical:
        return
    if isinstance(got, QMatrix):
        values = [c for row in got.entries() for q in row for c in q.components()]
    elif isinstance(got, Quaternion):
        values = list(got.components())
    else:
        values = list(got) if isinstance(got, tuple) else [got]
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in values)


def outcome(f, *args):
    try:
        return f(*args)
    except (SingularError, NumericalBreakdownError, InternalInvariantError) as exc:
        return type(exc)


def reference_leverrier(h, r):
    """`ncdet._leverrier` by the subset enumeration, for a caller that
    reads Y_r and d_r only: (Y_r, (d_r,))."""
    y, d = reference_bordered_cofactors(h, r, True)
    return y, (d,)


def exact_hermitian_part(g):
    """The exact Hermitian matrix a float g stands for: its components
    read as the `Fraction`s they are, then (T + T*) / 2.  An exact g is
    returned as it is."""
    if g.mode == "exact":
        return g
    t = QMatrix([[Quaternion(*map(Fraction, q.components())) for q in row] for row in g.entries()])
    return (t + t.H) / 2


def reference_cofactors(g, r):
    """The Quaternion recursion's order-r cofactors and minor sum of the
    exact Hermitian part of g, equal in both families, and rounded once
    in float mode.  The recursion runs on the part scaled to integers by
    the lcm s of its denominators, then Y (r - 1 factors a term) is
    divided by s**(r - 1) and d by s**r."""
    h = exact_hermitian_part(g)
    s = math.lcm(*(Fraction(c).denominator for row in h.entries() for q in row for c in q.components()))
    (y, d), (y_row, d_row) = (reference_bordered_cofactors(h * s, r, row) for row in (False, True))
    assert y == y_row and d == d_row
    y, d = y / s ** (r - 1), Fraction(d, s**r)
    d = d.numerator if d.denominator == 1 else d
    return (y, d) if g.mode == "exact" else (y.to_float(), float(d))


def assert_kernel_matches_reference(g):
    mode, n = g.mode, g.rows
    for anchor in range(1, n + 1):
        assert_same(rdet(anchor, g), reference_det(g, anchor, True), mode)
        assert_same(cdet(anchor, g), reference_det(g, anchor, False), mode)
    sums = []  # the minor sums of the exact Hermitian part, rounded once in float mode
    for r in range(1, n + 1):
        if mode == "exact" and not g.is_hermitian():
            with pytest.raises(NotHermitianError):
                _bordered_cofactors(g, r)
            continue
        (y, d), (y_ref, d_ref) = _bordered_cofactors(g, r), reference_cofactors(g, r)
        assert_same(y, y_ref, mode)
        assert_same(d, d_ref, mode)
        sums.append(d_ref)
    if not g.is_hermitian():
        return
    sums = tuple(sums)
    assert_same(tuple(principal_minor_sum(g, s) for s in range(1, n + 1)), sums, mode)
    assert_same(char_poly(g), sums, mode)
    got = outcome(hermitian_inverse, g)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncdet, "_leverrier", reference_leverrier)
        want = outcome(hermitian_inverse, g)
    if isinstance(want, type):
        assert got is want
    else:  # divided by ddet in Quaternion arithmetic, so not always canonical
        assert_same(got, want, mode, canonical=False)


# Fixed cases: den = 42 with minors of every order 1..4 (B and its
# Hermitian part, exact and float), and a float rdet_1 = -(e01 e10) +
# e00 e11 whose two products are -0.0: the recursion seeds the cycle sum
# with its one term, so the result is +0.0, where a sum started from +0.0
# would give -0.0.
FRACTION_CASE = QMatrix.from_literals(
    [["1/2", "i", "5/7k", "1"], ["1/3j", "2", "-1/2", "k"], ["0", "5/7", "1/3i", "-1"], ["3/2", "-j", "1", "1/7"]]
)
SIGNED_ZERO_CASE = QMatrix(
    [[Quaternion(x, mode="float") for x in row] for row in ((-0.0, -0.0), (1.0, 1.0))]
)


# The benchmark runs float sums at n = 6..8, which the drawn n <= 5 do not
# reach: matrices of this helper at n = 6 and 8, and a Gram matrix B B* of
# one at n = 7, pin them.
def signed_zero_case(n, seed):
    """A float n x n matrix drawn as `kernel_matrices` draws one: a third of
    the entries zero with a random sign per component."""
    draw = random.Random(seed).choice

    def entry():
        components = (0.0, -0.0) if draw(range(3)) == 0 else FLOAT_COMPONENTS
        return Quaternion(*(draw(components) for _ in range(4)), mode="float")

    return QMatrix([[entry() for _ in range(n)] for _ in range(n)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["exact", "float"]).flatmap(kernel_matrices))
@example(FRACTION_CASE)
@example(FRACTION_CASE + FRACTION_CASE.H)
@example((FRACTION_CASE + FRACTION_CASE.H).to_float())
@example(SIGNED_ZERO_CASE)
@example(signed_zero_case(6, 6))
@example(signed_zero_case(8, 8))
@example(signed_zero_case(7, 7) @ signed_zero_case(7, 7).H)  # one seed, so B B*
def test_tuple_kernel_matches_the_quaternion_recursion(g):
    assert_kernel_matches_reference(g)


@st.composite
def real_grams(draw):
    """A real-valued float Gram matrix B B* with B n x k, n <= 6, so of
    rank at most k <= n, or the same with 1e-8 noise N + N* added."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))

    def real(values, rows, cols):
        return QMatrix([[Quaternion(draw(values), mode="float") for _ in range(cols)] for _ in range(rows)])

    b = real(st.floats(-4, 4), n, k)
    g = b @ b.H
    if draw(st.booleans()):
        noise = real(st.floats(-1e-8, 1e-8), n, n)
        g = g + noise + noise.H
    return g


@settings(max_examples=40, deadline=None)
@given(real_grams())
def test_float_cofactors_are_the_exact_ones_of_the_hermitian_part_rounded_once(g):
    # Float Grams are not bitwise Hermitian; the cofactors of every order
    # are those of the exact Hermitian part, bit for bit.
    for r in range(1, g.rows + 1):
        (y, d), (y_ref, d_ref) = _bordered_cofactors(g, r), reference_cofactors(g, r)
        assert_same(y, y_ref, "float")
        assert_same(d, d_ref, "float")


def test_subset_tables_make_no_quaternion_products(monkeypatch, rng):
    g, h = random_qmatrix(rng, 5, 5), random_hermitian(rng, 5)
    products = []
    mul = Quaternion.__mul__
    monkeypatch.setattr(Quaternion, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    rdet(2, g), cdet(4, g), char_poly(h), principal_minor_sum(h, 3)
    _bordered_cofactors(h, 4), _bordered_cofactors(h.to_float(), 4)
    assert products == []


# -- the exact Hermitian recurrence ------------------------------------------


def exact_hermitian_cases(seed):
    """Exact Hermitian n x n matrices, n = 1..7: an integer Gram matrix
    B B*, the Hermitian part (B + B*) / 2 (non-integral Fraction entries,
    indefinite) and the integer indefinite B B* - c I."""
    rng = random.Random(seed)
    for n in range(1, 8):
        b = random_qmatrix(rng, n, n)
        yield b @ b.H
        yield (b + b.H) / 2
        yield b @ b.H - QMatrix.identity(n) * rng.randint(1, 9)


def test_exact_hermitian_cofactors_match_the_subset_recursion():
    # Every order r = 0..n and both families, bit for bit: equal values,
    # with components and d canonical as the subset tables made them.
    for g in exact_hermitian_cases(26):
        for r in range(g.rows + 1):
            y, d = _bordered_cofactors(g, r)
            for row in (False, True):
                y_ref, d_ref = reference_bordered_cofactors(g, r, row)
                assert_same(y, y_ref, "exact")
                assert_same(d, d_ref, "exact")


def test_exact_hermitian_cofactors_enumerate_no_subsets(monkeypatch, rng):
    calls = []
    for name in ("_tails", "_subsets"):
        f = getattr(ncdet, name)
        monkeypatch.setattr(ncdet, name, lambda *args, f=f, name=name: calls.append(name) or f(*args))
    h, g = random_hermitian(rng, 5), random_qmatrix(rng, 5, 5)
    assert h.is_hermitian() and not g.is_hermitian()
    for mode in ("exact", "float"):  # neither mode enumerates subsets
        to = (lambda m: m) if mode == "exact" else QMatrix.to_float
        _bordered_cofactors(to(h), 4)
        hermitian_inverse(to(QMatrix.identity(5) * 3 + h @ h))
        mp_inverse(to(g), "all"), drazin(to(g), "all"), drazin(to(h), "all")
        char_poly(to(h)), principal_minor_sum(to(h), 3)
    # An exact g that is not Hermitian has no cofactors here.
    with pytest.raises(NotHermitianError):
        _bordered_cofactors(g, 4)
    assert calls == []
    # The determinants stay on the subset tables, ddet as rdet_1.
    for mode in ("exact", "float"):
        to = (lambda m: m) if mode == "exact" else QMatrix.to_float
        for det in (lambda: rdet(2, to(g)), lambda: cdet(4, to(g)), lambda: ddet(to(h))):
            calls.clear()
            det()
            assert {"_tails", "_subsets"} <= set(calls)


def test_float_minor_sums_have_one_value():
    # The minor sums of a float Gram matrix are those of its exact
    # Hermitian part, rounded once, however they are asked for.
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 5)
        b = QMatrix([[Quaternion(*(rng.uniform(-2, 2) for _ in range(4)), mode="float") for _ in range(n)]
                     for _ in range(n)])
        g = b @ b.H
        coeffs = char_poly(g)
        for r in range(1, n + 1):
            got = (principal_minor_sum(g, r), coeffs[r - 1], _bordered_cofactors(g, r)[1])
            assert len({float_bits(d) for d in got}) == 1, (n, r)


def test_minor_sums_above_the_default_guard():
    # An exact 12 x 12 Gram matrix: n = 12 minor sums, which take no guard,
    # with ddet, the last of them, from the subset tables under an override
    # as the judge.
    rng = random.Random(12)
    b = random_qmatrix(rng, 12, 12)
    h = b @ b.H
    coeffs = char_poly(h)
    assert coeffs[-1] == ddet(h, max_n=12)
    assert tuple(principal_minor_sum(h, s) for s in range(1, 13)) == coeffs


def test_exact_hermitian_inverse_makes_one_cofactor_pass(monkeypatch, rng):
    # Both families of a Hermitian matrix are one recurrence, so each mode
    # makes one pass: float mode on the exact matrix its input stands for.
    passes = []
    leverrier = ncdet._leverrier
    monkeypatch.setattr(ncdet, "_leverrier", lambda *args: passes.append(args[0]) or leverrier(*args))
    b = random_qmatrix(rng, 4, 4)
    h = QMatrix.identity(4) * 3 + b @ b.H
    x = hermitian_inverse(h)
    assert x @ h == QMatrix.identity(4) and passes == [h]
    passes.clear()
    assert hermitian_inverse(h.to_float()) == x.to_float()
    assert passes == [h]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_hermitian_inverse_checks_one_product(mode, monkeypatch, rng):
    # h Y = ddet I makes Y / ddet a right inverse of the square h, so a
    # two-sided one: Y h is not formed.
    products, matmul = [], QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda x, y: products.append((x, y)) or matmul(x, y))
    b = random_qmatrix(rng, 4, 4)
    h = QMatrix.identity(4) * 3 + b @ b.H
    products.clear()
    hermitian_inverse(h if mode == "exact" else h.to_float())
    assert len(products) == 1 and products[0][0] == h


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_each_hermitian_call_tests_symmetry_once(mode, monkeypatch, rng):
    # The refusal's test is the only one: the exact Hermitian matrix a call
    # expands is its input, or the Hermitian part of a float input.
    b = random_qmatrix(rng, 5, 5)
    h = QMatrix.identity(5) * 3 + b @ b.H
    h = h if mode == "exact" else h.to_float()
    tests, is_hermitian = [], QMatrix.is_hermitian
    monkeypatch.setattr(QMatrix, "is_hermitian", lambda self: tests.append(self) or is_hermitian(self))
    for call in (ddet, char_poly, lambda a: principal_minor_sum(a, 3), hermitian_inverse):
        tests.clear()
        call(h)
        assert tests == [h]


def test_each_float_hermitian_call_scans_its_components_once(monkeypatch, rng):
    # The lift to the exact Hermitian part scans the four components of
    # each entry for one that is not finite, and the refusal returns that
    # lift, so no call scans its input twice.
    b = random_qmatrix(rng, 5, 5)
    h = (QMatrix.identity(5) * 3 + b @ b.H).to_float()
    scanned, isfinite = [], math.isfinite
    monkeypatch.setattr(math, "isfinite", lambda c: scanned.append(c) or isfinite(c))
    for call in (char_poly, lambda a: principal_minor_sum(a, 3), hermitian_inverse):
        scanned.clear()
        call(h)
        assert len(scanned) == 4 * 5 * 5


def test_the_recurrence_refuses_what_a_hermitian_matrix_cannot_give(monkeypatch):
    # A diagonal entry of E that is not real, and one of P_2 = 2E - E^2:
    # 2 - (1 + i j) = 1 - k.
    for literals in ([["i"]], [["1", "i"], ["j", "1"]]):
        g = QMatrix.from_literals(literals)
        with pytest.raises(InternalInvariantError, match="non-real diagonal"):
            ncdet._leverrier(g, g.rows)
    # A product one too large on the diagonal moves tr P_2 by n = 3.
    product = ncdet._hermitian_product

    def faulty(a, b, diagonal):
        rows = product(a, b, diagonal)
        return [[(c[0] + 1, *c[1:]) if i == j else c for j, c in enumerate(row)] for i, row in enumerate(rows)]

    monkeypatch.setattr(ncdet, "_hermitian_product", faulty)
    with pytest.raises(InternalInvariantError, match="2 does not divide the trace"):
        _bordered_cofactors(QMatrix.from_literals([["2", "i", "0"], ["-i", "2", "j"], ["0", "-j", "2"]]), 3)
