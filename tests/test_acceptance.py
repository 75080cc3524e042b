"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each criterion states its tolerance inline (exact-mode checks are
bit-exact equalities).
"""

import functools
import random
import time
from fractions import Fraction

import numpy as np

import golden
from conftest import (
    random_hermitian,
    random_qmatrix,
    random_quaternion,
    random_rank_deficient,
    replace_col,
    replace_row,
)
from qdet import (
    QMatrix,
    Quaternion,
    cdet,
    cdet_reference,
    char_poly,
    check_drazin,
    check_penrose,
    check_wdrazin,
    ddet,
    drazin_all_routes,
    embed_complex,
    hermitian_inverse,
    index_of,
    mat_pow,
    mp_all_routes,
    mp_inverse,
    mp_oracle_embedding,
    principal_minor_sum,
    rank,
    rdet,
    rdet_reference,
    wdrazin_all_routes,
    wdrazin_limit_estimate,
)
from qdet.matrix import max_abs_diff


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        return run

    return wrap


@criterion(1, "worked-example intermediates, exact, < 1 s")
def test_criterion_1():
    start = time.monotonic()
    v = golden.A_IN @ golden.W_IN
    assert golden.W_IN @ golden.A_IN == golden.U
    assert mat_pow(golden.U, 2) == golden.U2
    assert mat_pow(golden.U, 5) == golden.U5
    assert golden.U5.H == golden.U5_STAR
    assert golden.U5.H @ golden.U5 == golden.U5_STAR_U5
    assert golden.W_IN.H == golden.W_STAR
    assert golden.W_IN.H @ golden.W_IN == golden.W_STAR_W
    assert rank(golden.W_IN) == 3
    assert rank(mat_pow(v, 3)) == rank(mat_pow(v, 2)) == 2
    assert index_of(v) == 2
    assert index_of(golden.U) == 1
    assert max(index_of(v), index_of(golden.U)) == 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(2, "principal-minor-sum scalars, exact")
def test_criterion_2():
    assert principal_minor_sum(golden.U5_STAR_U5, 2) == 1
    assert principal_minor_sum(golden.W_STAR_W, 3) == 2


@criterion(3, "errata adjudication by the defining equations, exact")
def test_criterion_3():
    bad = check_penrose(golden.U5, golden.U5_MP_BAD, provenance="sign-variant")
    assert not bad.checks[0].passed and bad.checks[0].label == "AXA = A"
    good = check_penrose(golden.U5, golden.U5_MP, provenance="derived")
    assert good.ok

    derived = check_wdrazin(golden.A_IN, golden.W_IN, golden.ADW, provenance="derived")
    assert derived.ok
    # Verdicts for both circulated candidates are recorded, not assumed.
    verdicts = {}
    for name, cand in (("candidate-1", golden.ADW_BAD_1), ("candidate-2", golden.ADW_BAD_2)):
        report = check_wdrazin(golden.A_IN, golden.W_IN, cand, provenance=name)
        verdicts[name] = [c.passed for c in report.checks]
        print(f"  recorded {name}: " + ", ".join(c.human() for c in report.checks[:3]))
    assert any(not ok for ok in verdicts["candidate-2"][:3])
    assert any(not ok for ok in verdicts["candidate-1"][:3])


@criterion(4, "route agreement on 100 random instances, exact, < 60 s")
def test_criterion_4():
    start = time.monotonic()
    rng = random.Random(90210)
    shapes = [(3, 3), (3, 2)]
    for trial in range(100):
        m, n = shapes[trial % 2]
        if trial % 4 == 0:
            a = random_rank_deficient(rng, m, n, max(1, min(m, n) - 1))
        else:
            a = random_qmatrix(rng, m, n, span=1, sparsity=0.25)
        if trial % 6 == 5:
            w = a.H
        elif trial % 4 == 1:
            w = random_rank_deficient(rng, n, m, max(1, min(m, n) - 1))
        else:
            w = random_qmatrix(rng, n, m, span=1, sparsity=0.25)

        mp_routes = mp_all_routes(a)
        mp_values = list(mp_routes.values())
        assert all(x == mp_values[0] for x in mp_values), f"MP disagreement, trial {trial}"
        assert check_penrose(a, mp_values[0]).ok, f"Penrose failure, trial {trial}"

        for square in (w @ a, a @ w):
            d_routes = drazin_all_routes(square)
            d_values = list(d_routes.values())
            assert all(x == d_values[0] for x in d_values), f"Drazin disagreement, trial {trial}"
            assert check_drazin(square, d_values[0]).ok, f"Drazin failure, trial {trial}"

        w_routes = wdrazin_all_routes(a, w)
        w_values = list(w_routes.values())
        assert all(x == w_values[0] for x in w_values), (
            f"weighted disagreement, trial {trial}: {list(w_routes)}"
        )
        assert check_wdrazin(a, w, w_values[0]).ok, f"weighted failure, trial {trial}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"  100 instances in {elapsed:.1f}s")


@criterion(5, "Hermitian determinant suite on 200 random matrices, exact")
def test_criterion_5():
    rng = random.Random(515)
    inverted = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        h = random_hermitian(rng, n)
        value = rdet(1, h)
        assert value.is_real()
        for anchor in range(1, n + 1):
            assert rdet(anchor, h) == value
            assert cdet(anchor, h) == value
        if n >= 2:
            i = rng.randint(1, n)
            coeffs = {s: random_quaternion(rng, 1) for s in range(n) if s != i - 1}
            newrow = [
                sum((c * h[s, col] for s, c in coeffs.items()), Quaternion.zero())
                for col in range(n)
            ]
            m = replace_row(h, i - 1, newrow)
            assert rdet(i, m).is_zero() and cdet(i, m).is_zero()
            j = rng.randint(1, n)
            coeffs = {s: random_quaternion(rng, 1) for s in range(n) if s != j - 1}
            newcol = [
                sum((h[row, s] * c for s, c in coeffs.items()), Quaternion.zero())
                for row in range(n)
            ]
            m = replace_col(h, j - 1, newcol)
            assert cdet(j, m).is_zero() and rdet(j, m).is_zero()
        if ddet(h) != 0:
            x = hermitian_inverse(h)
            assert h @ x == QMatrix.identity(n) and x @ h == QMatrix.identity(n)
            inverted += 1
    assert inverted > 50  # the corpus must actually exercise the inverse
    print(f"  {inverted} nonsingular inverses verified")


def _interpolate_monic(points):
    """Exact Lagrange interpolation; returns coefficients highest first."""
    n = len(points) - 1
    coeffs = [Fraction(0)] * (n + 1)
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            # multiply basis polynomial by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                nxt[p] += c
                nxt[p + 1] -= c * xj
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for p, c in enumerate(basis):
            coeffs[p + (n + 1 - len(basis))] += scale * c
    return coeffs


@criterion(6, "characteristic polynomial vs interpolation, 50 random, exact")
def test_criterion_6():
    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(1, 4)
        h = random_hermitian(rng, n)
        ds = char_poly(h)
        points = []
        for t in range(n + 1):
            shifted = QMatrix.diagonal([Quaternion.real(t)] * n) - h
            points.append((Fraction(t), ddet(shifted)))
        interpolated = _interpolate_monic(points)
        expected = [Fraction(1)]
        sign = -1
        for d in ds:
            expected.append(sign * d)
            sign = -sign
        assert interpolated == expected


@criterion(7, "embedding oracle agreement, float, 1e-9 / 1e-6 rel")
def test_criterion_7():
    rng = random.Random(707)
    for trial in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        if trial % 5 == 0:
            a = random_rank_deficient(rng, m, n, max(1, min(m, n) - 1)).to_float()
        else:
            a = random_qmatrix(rng, m, n, span=2).to_float()
        diff = max_abs_diff(mp_inverse(a, "cdet"), mp_oracle_embedding(a))
        assert diff <= 1e-9, f"trial {trial}: {diff:.3e}"
    for _ in range(50):
        n = rng.randint(1, 4)
        h = random_hermitian(rng, n)
        d = float(ddet(h))
        de = np.linalg.det(embed_complex(h))
        assert abs(de.imag) <= 1e-6 * (1.0 + abs(de))
        assert abs(de.real - d * d) <= 1e-6 * (1.0 + d * d)


@criterion(8, "limit representation: 1e-5 at shift 1e-8, monotone decay")
def test_criterion_8():
    exact = golden.ADW.to_float()
    af, wf = golden.A_IN.to_float(), golden.W_IN.to_float()
    errors = []
    for lam in (1e-2, 1e-4, 1e-6, 1e-8):
        est = wdrazin_limit_estimate(af, wf, lam)
        errors.append((max_abs_diff(est.via_aw, exact), max_abs_diff(est.via_wa, exact)))
    for prev, cur in zip(errors, errors[1:]):
        assert cur[0] < prev[0] and cur[1] < prev[1], f"no decay: {errors}"
    assert errors[-1][0] <= 1e-5 and errors[-1][1] <= 1e-5, f"final error {errors[-1]}"
    print(f"  errors along the shift ladder: {['%.1e|%.1e' % e for e in errors]}")


@criterion(9, "reference vs canonical enumerator on 500 random matrices, exact")
def test_criterion_9():
    rng = random.Random(909)
    for _ in range(500):
        n = rng.randint(1, 4)
        a = random_qmatrix(rng, n, n, span=2, sparsity=0.2)
        anchor = rng.randint(1, n)
        assert rdet(anchor, a) == rdet_reference(anchor, a)
        assert cdet(anchor, a) == cdet_reference(anchor, a)
