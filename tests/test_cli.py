import subprocess
import sys

import pytest

import golden
from conftest import random_rank_deficient
from qdet import QMatrix, Quaternion, cli, errors, geninv
from qdet.cli import format_qmat, main, parse_qmat
from qdet.errors import InternalInvariantError, ParseError, QdetError, RouteDisagreementError


def write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(format_qmat(matrix))
    return str(path)


HERMITIAN = QMatrix.from_literals([["2", "i"], ["-i", "2"]])


# -- file format -------------------------------------------------------------


def test_parse_basic():
    a = parse_qmat("2 2\n1 i\n-i 1\n")
    assert a == QMatrix.from_literals([["1", "i"], ["-i", "1"]])


def test_parse_single_entry_literal():
    a = parse_qmat("1 1\n1+2i-3j+1/2k\n")
    assert a.rows == a.cols == 1


def test_parse_comments_and_blank_lines():
    text = "% header comment\n\n2 2\n% row comment\n1 0\n0 1\n"
    assert parse_qmat(text) == QMatrix.identity(2)


def test_parse_row_length_error():
    with pytest.raises(ParseError) as err:
        parse_qmat("2 2\n1 i\n-i\n")
    assert "row 2 has 1 entries, expected 2" in str(err.value)


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_qmat("2 2\n1 i\n-i zz\n")
    assert err.value.line == 3 and err.value.col == 4


def test_parse_mode_inference_and_mixing():
    assert parse_qmat("1 2\n1 2\n").mode == "exact"
    assert parse_qmat("1 2\n1.0 2\n").mode == "float"
    assert parse_qmat("1 2\n1/2 2\n").mode == "exact"
    with pytest.raises(ParseError) as err:
        parse_qmat("1 2\n1/2 0.5\n")
    assert "mixed-mode" in str(err.value)


def test_parse_wrong_row_count():
    with pytest.raises(ParseError):
        parse_qmat("2 2\n1 0\n")
    with pytest.raises(ParseError):
        parse_qmat("1 1\n1\n2\n")


def test_format_parse_round_trip(rng):
    from conftest import random_qmatrix

    for _ in range(20):
        a = random_qmatrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert parse_qmat(format_qmat(a)) == a
        f = a.to_float()
        assert parse_qmat(format_qmat(f)) == f


# -- subcommands -------------------------------------------------------------


def test_det_anchors(tmp_path, capsys):
    path = write(tmp_path, "h.qmat", HERMITIAN)
    assert main(["det", "-i", path, "--anchor", "r:1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["det", "-i", path, "--anchor", "c:2"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    # Hermitian input: anchor optional
    assert main(["det", "-i", path]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_det_requires_anchor_for_non_hermitian(tmp_path, capsys):
    path = write(tmp_path, "nh.qmat", QMatrix.from_literals([["i", "0"], ["0", "1"]]))
    assert main(["det", "-i", path]) == 1
    assert "anchor" in capsys.readouterr().err


def test_det_bad_anchor_and_missing_file(tmp_path, capsys):
    path = write(tmp_path, "h.qmat", HERMITIAN)
    assert main(["det", "-i", path, "--anchor", "x:1"]) == 1
    capsys.readouterr()
    assert main(["det", "-i", str(tmp_path / "absent.qmat"), "--anchor", "r:1"]) == 1


def test_guard_exit_code(tmp_path, capsys):
    path = write(tmp_path, "h4.qmat", QMatrix.identity(4))
    assert main(["det", "-i", path, "--anchor", "r:1", "--max-n", "3"]) == 2
    assert "guard" in capsys.readouterr().err
    assert main(["det", "-i", path, "--anchor", "r:1", "--max-n", "4"]) == 0


def test_default_guard_refuses_nine_by_nine(tmp_path, capsys):
    path = write(tmp_path, "big9.qmat", QMatrix.identity(9))
    assert main(["det", "-i", path, "--anchor", "r:1"]) == 2
    assert "guard" in capsys.readouterr().err
    # main() restores the global guard, so a follow-up small run still works
    small = write(tmp_path, "h.qmat", HERMITIAN)
    assert main(["det", "-i", small, "--anchor", "r:1"]) == 0


def test_guard_env_override(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "h4.qmat", QMatrix.identity(4))
    monkeypatch.setenv("QDET_MAX_N", "3")
    assert main(["det", "-i", path, "--anchor", "r:1"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("QDET_MAX_N", "garbage")
    assert main(["det", "-i", path, "--anchor", "r:1"]) == 1


def test_usage_errors(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["det"]) == 1  # missing --input


def test_mp_check_output_reingestible(tmp_path, capsys):
    path = write(tmp_path, "u5.qmat", golden.U5)
    assert main(["mp", "-i", path, "--route", "all", "--check"]) == 0
    out = capsys.readouterr().out
    assert parse_qmat(out) == golden.U5_MP  # % report lines are comments
    assert "result: PASS" in out


def test_drazin_identity_check(tmp_path, capsys):
    path = write(tmp_path, "eye.qmat", QMatrix.identity(2))
    assert main(["drazin", "-i", path, "--check"]) == 0
    assert parse_qmat(capsys.readouterr().out) == QMatrix.identity(2)


def test_drazin_hermitian_route_refusal(tmp_path, capsys):
    path = write(tmp_path, "u.qmat", golden.U)
    assert main(["drazin", "-i", path, "--route", "hermitian_cdet"]) == 2
    assert "Hermitian" in capsys.readouterr().err


def test_wdrazin_all_routes_with_check(tmp_path, capsys):
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    assert main(["wdrazin", "-i", a, "--weight", w, "--route", "all", "--check"]) == 0
    out = capsys.readouterr().out
    assert parse_qmat(out) == golden.ADW
    assert "result: PASS" in out


def test_wdrazin_kv_emit(tmp_path, capsys):
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    assert main(["wdrazin", "-i", a, "--weight", w, "--check", "--emit", "kv"]) == 0
    out = capsys.readouterr().out
    assert "entry.1.2 = -i" in out
    assert "report.ok = true" in out


def test_wdrazin_limit_flag(tmp_path, capsys):
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    assert main(["wdrazin", "-i", a, "--weight", w, "--lambda", "1e-8"]) == 0
    out = capsys.readouterr().out
    assert "limit.via_aw" in out and "limit.via_wa" in out


def test_wdrazin_limit_flag_computes_the_inverse_once(tmp_path, capsys, monkeypatch):
    # The deviation is measured against the printed result, not a second
    # computation of it.
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f.__name__)
            return f(*args)

        return wrapper

    for name in ("wdrazin", "wdrazin_all_routes"):
        monkeypatch.setattr(geninv, name, counted(getattr(geninv, name)))
    for route in ("via_drazin_V", "all"):
        calls.clear()
        args = ["wdrazin", "-i", a, "--weight", w, "--route", route, "--lambda", "1e-8", "--emit", "kv"]
        assert main(args) == 0
        assert len(calls) == 1, calls
        deviations = [line for line in capsys.readouterr().out.splitlines() if ".deviation = " in line]
        assert len(deviations) == 2
        assert all(float(line.split(" = ")[1]) < 1e-5 for line in deviations)


def test_wdrazin_refused_route(tmp_path, capsys):
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    assert main(["wdrazin", "-i", a, "--weight", w, "--route", "mp_route_U"]) == 2
    assert "full column rank" in capsys.readouterr().err


def test_verify_subcommand(tmp_path, capsys):
    a = write(tmp_path, "u5.qmat", golden.U5)
    good = write(tmp_path, "good.qmat", golden.U5_MP)
    bad = write(tmp_path, "bad.qmat", golden.U5_MP_BAD)
    assert main(["verify", "--kind", "mp", "-i", a, "--candidate", good]) == 0
    capsys.readouterr()
    assert main(["verify", "--kind", "mp", "-i", a, "--candidate", bad]) == 3
    out = capsys.readouterr().out
    assert "FAIL  AXA = A" in out


def test_verify_wdrazin_candidates(tmp_path, capsys):
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    good = write(tmp_path, "x.qmat", golden.ADW)
    bad = write(tmp_path, "y.qmat", golden.ADW_BAD_2)
    args = ["verify", "--kind", "wdrazin", "-i", a, "--weight", w, "--candidate"]
    assert main(args + [good]) == 0
    capsys.readouterr()
    assert main(args + [bad]) == 3
    capsys.readouterr()
    assert main(["verify", "--kind", "wdrazin", "-i", a, "--candidate", good]) == 1


def test_info_reports_shapes_ranks_indices(tmp_path, capsys):
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    assert main(["info", "-i", a, "--weight", w]) == 0
    out = capsys.readouterr().out
    assert "A.rank = 3" in out
    assert "W.rank = 3" in out
    assert "WA.index = 1" in out
    assert "AW.index = 2" in out
    assert "WA.hermitian = false" in out
    assert "k = 2" in out


INFO_WORKED_EXAMPLE = """\
A.rows = 4
A.cols = 3
A.mode = exact
A.rank = 3
A.hermitian = false
W.rows = 3
W.cols = 4
W.mode = exact
W.rank = 3
W.hermitian = false
WA.rows = 3
WA.cols = 3
WA.mode = exact
WA.rank = 2
WA.hermitian = false
WA.index = 1
AW.rows = 4
AW.cols = 4
AW.mode = exact
AW.rank = 3
AW.hermitian = false
AW.index = 2
k = 2
"""


def test_info_reads_indices_from_the_weighted_analysis(tmp_path, capsys, monkeypatch):
    calls = []
    for module in (cli, geninv):
        monkeypatch.setattr(module, "index_of", lambda a, f=module.index_of: calls.append(a) or f(a))
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    assert main(["info", "-i", a, "--weight", w]) == 0
    assert capsys.readouterr().out == INFO_WORKED_EXAMPLE
    assert len(calls) == 2  # WA and AW, once each


def test_mode_flag(tmp_path, capsys):
    path = write(tmp_path, "h.qmat", HERMITIAN)
    assert main(["det", "-i", path, "--mode", "float"]) == 0
    assert capsys.readouterr().out.strip() == "3.0"
    fpath = write(tmp_path, "hf.qmat", HERMITIAN.to_float())
    assert main(["det", "-i", fpath, "--mode", "exact"]) == 1


# -- failure contract ----------------------------------------------------------


def near_singular(rng, n, noise):
    """A rank n-1 integer product in float mode, plus uniform noise."""
    base = random_rank_deficient(rng, n, n, n - 1).to_float()
    return QMatrix(
        [
            [
                Quaternion(*(c + rng.uniform(-1.0, 1.0) * noise for c in q.components()), mode="float")
                for q in row
            ]
            for row in base.entries()
        ]
    )


def test_near_singular_float_input_ends_with_an_exit_code(tmp_path, capsys, rng):
    # The rank decisions on these inputs sit inside the float pivot
    # tolerance, so minor sums that must be positive can come out
    # nonpositive; that is a typed refusal, never an escaping exception.
    codes = []
    for t in range(30):
        path = write(tmp_path, f"p{t}.qmat", near_singular(rng, 3 + t % 2, 1e-10))
        for cmd in ("mp", "drazin"):
            codes.append(main([cmd, "-i", path, "--route", "all", "--check"]))
    assert set(codes) <= {0, 1, 2, 3}
    assert "Traceback" not in capsys.readouterr().err


def test_internal_invariant_exits_as_verification_failure(tmp_path, capsys, monkeypatch):
    def broken(a, route="cdet"):
        raise InternalInvariantError("A*A minor denominator is not positive: 0")

    monkeypatch.setattr(geninv, "mp_inverse", broken)
    assert main(["mp", "-i", write(tmp_path, "h.qmat", HERMITIAN)]) == 3
    assert "verification failure" in capsys.readouterr().err


QDET_ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, QdetError)]


@pytest.mark.parametrize("cls", QDET_ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_documented_exit_code(cls, tmp_path, capsys, monkeypatch):
    # 1 parse error, 3 verification failure, 2 every other refusal.
    def raising(a, route="cdet"):
        raise cls("injected")

    monkeypatch.setattr(geninv, "mp_inverse", raising)
    if issubclass(cls, ParseError):
        expected = 1
    elif issubclass(cls, (RouteDisagreementError, InternalInvariantError)):
        expected = 3
    else:
        expected = 2
    assert main(["mp", "-i", write(tmp_path, "h.qmat", HERMITIAN)]) == expected
    assert "injected" in capsys.readouterr().err


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, qdet.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
