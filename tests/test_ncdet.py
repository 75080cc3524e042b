import itertools
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from conftest import bordered_sum, random_hermitian, random_qmatrix, random_quaternion
from qdet import (
    QMatrix,
    Quaternion,
    cdet,
    cdet_reference,
    char_poly,
    cycle_forms,
    ddet,
    embed_complex,
    hermitian_inverse,
    principal_minor_sum,
    rdet,
    rdet_reference,
)
from qdet.errors import EnumerationGuardError, NotHermitianError, ShapeError, SingularError
from qdet.matrix import delete_row_col, replace_col, replace_row, submatrix
from qdet.ncdet import (
    DEFAULT_ENUMERATION_GUARD,
    CycleForm,
    _bordered_cofactors,
    enumeration_guard,
    eval_char_poly,
    set_enumeration_guard,
)


# -- cycle forms ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cycle_forms_enumerate_all_permutations(n):
    for anchor in range(1, n + 1):
        forms = cycle_forms(n, anchor)
        assert len(forms) == math.factorial(n)
        assert len(set(forms)) == len(forms)
        for form in forms:
            form.validate()


def test_cycle_form_sign_matches_transposition_parity():
    # (-1)^(n-r) is the classical permutation sign.
    for n in (2, 3, 4):
        for form in cycle_forms(n, 1):
            perm = {}
            for cyc in form.cycles:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    perm[a] = b
            inversions = sum(
                1
                for x, y in itertools.combinations(range(1, n + 1), 2)
                if perm[x] > perm[y]
            )
            assert form.sign == (-1) ** inversions


def test_cycle_form_cdet_notation_is_anchor_last():
    form = CycleForm(2, ((2, 4), (1, 3), (5,)))
    assert form.r == 3
    written = form.cdet_notation()
    assert written == ((5,), (3, 1), (4, 2))
    assert written[-1][-1] == form.anchor


def test_cycle_form_validate_rejects_bad_layouts():
    with pytest.raises(ValueError):
        CycleForm(1, ((2, 1), (3,))).validate()  # anchor not first
    with pytest.raises(ValueError):
        CycleForm(1, ((1,), (3,), (2,))).validate()  # minima out of order
    with pytest.raises(ValueError):
        CycleForm(1, ((1,), (3, 2))).validate()  # cycle not min-rooted
    with pytest.raises(ValueError):
        CycleForm(1, ((1,), (3,))).validate()  # not a partition


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
    for row in (False, True):
        cof, _ = _bordered_cofactors(g, r, row)
        literal = [bordered_sum(g, i, vector, r, row) for i in range(g.rows)]
        assert cofactor_sums(cof, vector, row) == literal, (r, row)


def test_bordered_cofactors_match_literal_sums(rng):
    # Every order r and both families, bit-exact, on integer and on
    # non-integral Fraction entries, up to n = 5.
    for n in range(1, 6):
        cases = [random_qmatrix(rng, n, n), random_fraction_qmatrix(rng, n)]
        for g in cases:
            vector = [random_quaternion(rng) for _ in range(n)]
            for r in range(1, n + 1):
                assert_cofactors_match_literal_sums(g, vector, r)


def test_bordered_cofactor_denominator_is_the_minor_sum(rng):
    for n in range(1, 6):
        h = random_hermitian(rng, n)
        for r in range(1, n + 1):
            for row in (False, True):
                assert _bordered_cofactors(h, r, row)[1] == literal_minor_sum(h, r)
        g = random_qmatrix(rng, n, n)
        if not g.is_hermitian():
            assert _bordered_cofactors(g, n, False)[1] is None


def test_bordered_cofactors_respect_the_guard():
    with pytest.raises(EnumerationGuardError):
        _bordered_cofactors(QMatrix.identity(4), 3, False, max_n=2)
    cof, d = _bordered_cofactors(QMatrix.identity(4), 2, True, max_n=2)
    assert d == 6


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
    assert_cofactors_match_literal_sums(g, vector, r)


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


def test_guard_global_setter():
    old = set_enumeration_guard(3)
    try:
        with pytest.raises(EnumerationGuardError):
            rdet(1, QMatrix.identity(4))
    finally:
        set_enumeration_guard(old)


def test_guard_set_in_one_thread_is_not_seen_by_another():
    old = set_enumeration_guard(3)
    try:
        seen = []
        worker = threading.Thread(target=lambda: seen.append(enumeration_guard()))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [DEFAULT_ENUMERATION_GUARD]
        assert enumeration_guard() == 3
    finally:
        set_enumeration_guard(old)


def test_anchor_validation(rng):
    a = random_qmatrix(rng, 2, 2)
    with pytest.raises(ValueError):
        rdet(0, a)
    with pytest.raises(ValueError):
        cdet(3, a)
    with pytest.raises(ShapeError):
        rdet(1, random_qmatrix(rng, 2, 3))


# -- float mode --------------------------------------------------------------


def test_float_mode_determinants(rng):
    a = random_qmatrix(rng, 3, 3)
    exact = rdet(1, a)
    approx = rdet(1, a.to_float())
    assert approx.mode == "float"
    assert max(abs(float(x) - y) for x, y in zip(exact.components(), approx.components())) < 1e-9
