import math
import sys
from pathlib import Path

import pytest

import golden
from conftest import random_rank_deficient
from qdet import (
    QMatrix,
    Quaternion,
    check_drazin,
    check_penrose,
    check_wdrazin,
    mp_oracle_embedding,
)
from qdet.errors import ModeError, ShapeError
from qdet import matrix
from qdet.verify import EquationCheck, VerifyReport
from qdet.matrix import max_abs_diff


def test_penrose_identity_passes():
    report = check_penrose(QMatrix.identity(2), QMatrix.identity(2))
    assert report.ok
    assert [c.label for c in report.checks] == [
        "AXA = A",
        "XAX = X",
        "(AX)* = AX",
        "(XA)* = XA",
    ]


def test_penrose_derived_pseudoinverse_passes():
    assert check_penrose(golden.U5, golden.U5_MP).ok


def test_penrose_sign_variant_fails_first_equation_with_witness():
    report = check_penrose(golden.U5, golden.U5_MP_BAD, provenance="sign-variant")
    assert not report.ok
    first = report.checks[0]
    assert first.label == "AXA = A" and not first.passed
    # the product check exhibits the wrong (1,2) entry
    assert any("entry (1,2) is 2+9j, expected 2+3j" in note for note in report.notes)


def test_drazin_checker_examples():
    assert check_drazin(QMatrix.identity(3), QMatrix.identity(3)).ok
    assert check_drazin(golden.U, golden.U_DRAZIN).ok
    nilpotent = QMatrix.from_literals([["0", "1"], ["0", "0"]])
    assert check_drazin(nilpotent, QMatrix.zeros(2, 2)).ok
    # a wrong candidate is rejected
    assert not check_drazin(golden.U, golden.U).ok


def test_wdrazin_checker_on_derived_value():
    report = check_wdrazin(golden.A_IN, golden.W_IN, golden.ADW)
    assert report.ok
    labels = [c.label for c in report.checks]
    assert labels[3].startswith("XW satisfies the Drazin equations")
    assert labels[4].startswith("WX satisfies the Drazin equations")


def test_wdrazin_checker_identity_weight():
    from qdet import drazin

    a = golden.U
    assert check_wdrazin(a, QMatrix.identity(3), drazin(a)).ok


def test_wdrazin_adjudicates_published_candidates():
    # Both circulated candidates fail every defining equation; the
    # verdicts are recorded by the checker rather than assumed.
    for cand in (golden.ADW_BAD_1, golden.ADW_BAD_2):
        report = check_wdrazin(golden.A_IN, golden.W_IN, cand, provenance="candidate")
        assert not report.ok
        core = report.checks[:3]  # the three defining equations
        assert any(not c.passed for c in core)
        assert report.notes  # witnesses recorded


def test_checker_shape_validation():
    with pytest.raises(ShapeError):
        check_penrose(QMatrix.identity(2), QMatrix.zeros(3, 2))
    with pytest.raises(ShapeError):
        check_drazin(QMatrix.identity(2), QMatrix.identity(3))
    with pytest.raises(ShapeError):
        check_wdrazin(golden.A_IN, golden.W_IN, QMatrix.zeros(3, 4))


def test_float_reports_carry_residuals():
    a = golden.U5.to_float()
    report = check_penrose(a, golden.U5_MP.to_float())
    assert report.ok
    assert all(c.residual is not None and c.residual <= 1e-9 for c in report.checks)
    bad = check_penrose(a, golden.U5_MP_BAD.to_float())
    assert not bad.ok
    assert bad.checks[0].residual > 1.0


def test_report_serialization_round_trips_key_facts():
    report = check_penrose(golden.U5, golden.U5_MP_BAD, provenance="sign-variant")
    text = report.human()
    assert "verify penrose [exact] route=sign-variant" in text
    assert "FAIL  AXA = A" in text
    assert text.endswith("result: FAIL")
    kv = dict(report.kv_items())
    assert kv["report.kind"] == "penrose"
    assert kv["report.ok"] == "false"
    assert kv["report.check.1.pass"] == "false"
    assert kv["report.check.1.label"] == "AXA = A"


def test_oracle_embedding_trivial_cases():
    ident = QMatrix.identity(3).to_float()
    assert max_abs_diff(mp_oracle_embedding(ident), ident) < 1e-12
    zero = QMatrix.zeros(2, 3).to_float()
    assert max_abs_diff(mp_oracle_embedding(zero), QMatrix.zeros(3, 2).to_float()) < 1e-12


def test_oracle_embedding_matches_exact_route(rng):
    from qdet import mp_inverse

    for _ in range(15):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_rank_deficient(rng, m, n, 1).to_float()
        assert max_abs_diff(mp_oracle_embedding(a), mp_inverse(a, "cdet")) < 1e-9


def test_oracle_embedding_requires_float():
    with pytest.raises(ModeError):
        mp_oracle_embedding(QMatrix.identity(2))


def test_checkers_do_not_import_inverse_code():
    # Oracle independence: the verify module must be expressible in terms
    # of scalar/matrix primitives alone.
    verify_mod = sys.modules["qdet.verify"]
    assert "geninv" not in verify_mod.__dict__
    assert "ncdet" not in verify_mod.__dict__
    source = Path(verify_mod.__file__).read_text()
    assert "geninv" not in source


def test_float_checks_fail_on_nan():
    nan = QMatrix([[Quaternion(float("nan"), mode="float")]])
    report = check_penrose(QMatrix.from_literals([["1.0"]]), nan)
    assert not report.ok
    assert all(math.isnan(c.residual) for c in report.checks)


def test_wdrazin_check_reads_each_power_from_one_table(monkeypatch):
    products, ranks = [], []
    matmul = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    monkeypatch.setattr(matrix, "rank", lambda a, f=matrix.rank: ranks.append(a) or f(a))
    assert check_wdrazin(golden.A_IN, golden.W_IN, golden.ADW).ok
    # One table each for WA and AW: every power and rank is made once.
    assert (len(products), len(ranks)) == (20, 5)


def test_reports_are_immutable_values_compared_and_shown_by_field():
    check = EquationCheck("AXA = A", True)
    assert check == EquationCheck("AXA = A", True, None) != EquationCheck("AXA = A", False)
    assert repr(check) == "EquationCheck(label='AXA = A', passed=True, residual=None)"
    report = VerifyReport("penrose", "exact", "cdet", (check,))
    assert report.notes == () and report.ok and hash(report) == hash(VerifyReport("penrose", "exact", "cdet", (check,)))
    assert repr(report).startswith("VerifyReport(kind='penrose', mode='exact', provenance='cdet', checks=(")
    for value, name in ((check, "passed"), (report, "notes")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
