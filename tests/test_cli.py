import argparse
import ast
import contextlib
import inspect
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from conftest import random_rank_deficient
from qdet import (
    DRAZIN_ROUTES,
    MP_ROUTES,
    WDRAZIN_ROUTES,
    QMatrix,
    Quaternion,
    cli,
    errors,
    geninv,
    matrix,
    parse_quaternion,
)
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


def test_main_refuses_a_header_without_positive_dimensions(tmp_path, capsys):
    path = tmp_path / "empty.qmat"
    path.write_text("0 2\n")
    assert main(["info", "-i", str(path)]) == 1
    assert capsys.readouterr().err == "qdet: parse error: line 1: dimensions must be positive\n"


def test_parse_refuses_zero_denominators_and_float_overflow():
    # A zero denominator and a float beyond the float range have no value.
    for literal in ("1/0", "2-3/0k", "1e999", "1e308+1e308"):
        with pytest.raises(ParseError):
            parse_quaternion(literal)
    for text in ("1 1\n1/0\n", "2 2\n1e999 1\n1 2\n"):
        with pytest.raises(ParseError) as err:
            parse_qmat(text)
        assert (err.value.line, err.value.col) == (2, 1)


def _term(sign, coef, unit):
    return sign + coef + unit


coefficients = st.one_of(
    st.just(""),
    st.integers(0, 99).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 9)).map("{0[0]}/{0[1]}".format),
    st.tuples(st.integers(0, 9), st.integers(-400, 400)).map("{0[0]}.5e{0[1]}".format),
)
terms = st.builds(_term, st.sampled_from(["", "+", "-"]), coefficients, st.sampled_from(["", "i", "j", "k"]))
literals = st.one_of(
    st.lists(terms, min_size=1, max_size=3).map("".join),
    st.text(alphabet="0123456789ijk+-/.eE", min_size=1, max_size=6),
)


def _qmat_text(m, n, comment):
    rows = st.lists(st.lists(literals, min_size=n, max_size=n), min_size=m, max_size=m)
    return rows.map(lambda rows: f"{comment}{m} {n}\n" + "".join(" ".join(r) + "\n" for r in rows))


well_formed_texts = st.tuples(st.integers(1, 3), st.integers(1, 3), st.sampled_from(["", "% c\n"])).flatmap(
    lambda mnc: _qmat_text(*mnc)
)
qmat_texts = st.one_of(well_formed_texts, st.text(alphabet="0123456789ijkeE+-/. %\n\t", max_size=30))


@settings(max_examples=300, deadline=None)
@given(qmat_texts)
def test_qmat_text_parses_or_raises_parse_error(text):
    try:
        a = parse_qmat(text)
    except ParseError:
        return
    assert isinstance(a, QMatrix)


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


def test_det_refuses_a_non_finite_float_determinant(tmp_path, capsys):
    # 1e308 * 1e308 - 1e308 * 1e308 is inf - inf: refused, not printed as nan.
    path = tmp_path / "big.qmat"
    path.write_text("2 2\n1e308 1e308\n1e308 1e308\n")
    for anchor in (["--anchor", "c:2"], ["--anchor", "r:1"], []):
        assert main(["det", "-i", str(path), *anchor]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("qdet: refused:")


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
    # The same run without --max-n runs at the default guard.
    assert main(["det", "-i", path, "--anchor", "r:1"]) == 0
    assert main(["det", "-i", path, "--anchor", "r:1", "--max-n", "4"]) == 0
    assert main(["det", "-i", path, "--anchor", "r:1", "--max-n", "0"]) == 1


def test_default_guard_refuses_nine_by_nine(tmp_path, capsys):
    path = write(tmp_path, "big9.qmat", QMatrix.identity(9))
    assert main(["det", "-i", path, "--anchor", "r:1"]) == 2
    assert "guard" in capsys.readouterr().err
    # a refusal leaves nothing behind: a follow-up small run still works
    small = write(tmp_path, "h.qmat", HERMITIAN)
    assert main(["det", "-i", small, "--anchor", "r:1"]) == 0


def test_guarded_subcommands_honour_the_flag_on_nine_by_nine(tmp_path, capsys):
    # det alone is guarded; the inverses answer without the flag and do not
    # offer it.
    eye = write(tmp_path, "eye9.qmat", QMatrix.identity(9))
    det = ["det", "-i", eye, "--anchor", "r:1"]
    assert main(det) == 2
    assert "guard" in capsys.readouterr().err
    assert main(det + ["--max-n", "9"]) == 0
    capsys.readouterr()
    for argv in (
        ["mp", "-i", eye],
        ["drazin", "-i", eye],
        ["wdrazin", "-i", eye, "--weight", eye],
    ):
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert main(argv + ["--max-n", "9"]) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_the_guard_is_read_from_the_flag_alone(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "h4.qmat", QMatrix.identity(4))
    monkeypatch.setenv("QDET_MAX_N", "3")
    assert main(["det", "-i", path, "--anchor", "r:1"]) == 0
    assert capsys.readouterr().out == "1\n"
    for source in Path(cli.__file__).parent.glob("*.py"):
        assert "environ" not in source.read_text(encoding="utf-8"), source.name


def test_an_override_below_one_is_refused_on_every_subcommand(tmp_path, capsys):
    # det, the one guarded subcommand, passes it to the library, which
    # refuses it; the others make no guarded call and do not offer --max-n.
    path = write(tmp_path, "h.qmat", HERMITIAN)
    inverse = write(tmp_path, "x.qmat", geninv.mp_inverse(HERMITIAN))
    commands = {
        "info": ["info", "-i", path],
        "verify": ["verify", "-i", path, "--candidate", inverse, "--kind", "mp"],
        "det": ["det", "-i", path, "--anchor", "r:1"],
        "mp": ["mp", "-i", path],
        "drazin": ["drazin", "-i", path],
        "wdrazin": ["wdrazin", "-i", path, "--weight", path],
    }
    for name, argv in commands.items():
        assert main(argv) == 0, name
        assert main(argv + ["--max-n", "0"]) == 1, name
        expected = "at least 1" if name == "det" else "unrecognized arguments"
        assert expected in capsys.readouterr().err, name


def test_an_override_below_one_is_refused_before_the_input(tmp_path, capsys):
    # A 2x3 file has no determinant (exit 2), but the invalid override is
    # named first.
    path = write(tmp_path, "a23.qmat", QMatrix.from_literals([["1", "i", "0"], ["j", "1", "k"]]))
    argv = ["det", "-i", path, "--anchor", "r:1"]
    assert main(argv) == 2
    assert "refused" in capsys.readouterr().err
    assert main(argv + ["--max-n", "0"]) == 1
    assert "at least 1" in capsys.readouterr().err


def test_options_appear_only_where_they_change_the_run(tmp_path, capsys):
    path = write(tmp_path, "h.qmat", HERMITIAN)
    inverse = write(tmp_path, "x.qmat", geninv.mp_inverse(HERMITIAN))
    for argv in (
        ["info", "-i", path, "--emit", "kv"],
        ["verify", "-i", path, "--candidate", inverse, "--kind", "mp", "--max-n", "3"],
    ):
        assert main(argv) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err


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


def test_det_kv_emit(tmp_path, capsys):
    path = write(tmp_path, "h.qmat", HERMITIAN)
    for anchor in (["--anchor", "r:1"], []):  # an anchored determinant and ddet
        assert main(["det", "-i", path, *anchor, "--emit", "kv"]) == 0
        assert capsys.readouterr().out == "value = 3\n"


def test_float_check_kv_emit_reports_residuals(tmp_path, capsys):
    path = write(tmp_path, "h.qmat", HERMITIAN.to_float())
    assert main(["mp", "-i", path, "--check", "--emit", "kv"]) == 0
    kv = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    residuals = [float(kv[f"report.check.{n}.residual"]) for n in range(1, 5)]
    assert all(0 <= r <= 1e-9 for r in residuals)
    assert kv["report.ok"] == "true" and kv["report.mode"] == "float"


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
        def wrapper(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)

        return wrapper

    for name in ("inverse", "wdrazin", "wdrazin_all_routes"):
        monkeypatch.setattr(geninv, name, counted(getattr(geninv, name)))
    for route in ("via_drazin_V", "all"):
        calls.clear()
        args = ["wdrazin", "-i", a, "--weight", w, "--route", route, "--lambda", "1e-8", "--emit", "kv"]
        assert main(args) == 0
        assert len(calls) == 1, calls
        deviations = [line for line in capsys.readouterr().out.splitlines() if ".deviation = " in line]
        assert len(deviations) == 2
        assert all(float(line.split(" = ")[1]) < 1e-5 for line in deviations)


@pytest.mark.parametrize("entry", ["1" + "0" * 400, "1/1" + "0" * 400], ids=["input", "result"])
def test_wdrazin_limit_beyond_float_range_is_refused(entry, tmp_path, capsys):
    # 10^400 has no float: converting the input, or the exact result
    # 10^400 of the input 10^-400, is a refusal printed alone, not a traceback.
    a, w = tmp_path / "a.qmat", tmp_path / "w.qmat"
    a.write_text(f"1 1\n{entry}\n")
    w.write_text("1 1\n1\n")
    assert main(["wdrazin", "-i", str(a), "--weight", str(w), "--lambda", "0.1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("qdet: refused:") and "Traceback" not in out.err


@pytest.mark.parametrize("shift", ["-1", "0", "nan"])
def test_wdrazin_rejects_an_invalid_shift_before_printing(shift, tmp_path, capsys):
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    assert main(["wdrazin", "-i", a, "--weight", w, f"--lambda={shift}"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "shift must be positive" in out.err


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


@pytest.mark.parametrize("kind", ["mp", "drazin"])
def test_verify_refuses_a_weight_for_an_unweighted_kind(kind, tmp_path, capsys):
    # A weight goes with --kind wdrazin only: any other kind refuses it as a
    # usage error before reading a file, even a path that does not exist.
    a = write(tmp_path, "u5.qmat", golden.U5)
    for weight in (a, str(tmp_path / "missing.qmat")):
        assert main(["verify", "--kind", kind, "-i", a, "--candidate", a, "--weight", weight]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert f"--weight does not apply to --kind {kind}" in out.err


ROUTED = {
    "mp": (geninv.mp_inverse, MP_ROUTES, golden.U5, None),
    "drazin": (geninv.drazin, DRAZIN_ROUTES, golden.U, None),
    "wdrazin": (geninv.wdrazin, WDRAZIN_ROUTES, golden.A_IN, golden.W_IN),
}


def _subcommands():
    (subs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def _option(subcommand, dest):
    (action,) = [a for a in subcommand._actions if a.dest == dest]
    return action


@pytest.mark.parametrize("command", list(ROUTED))
def test_route_option_matches_the_library(command):
    function, routes, _, _ = ROUTED[command]
    route = _option(_subcommands()[command], "route")
    assert route.default == inspect.signature(function).parameters["route"].default
    assert route.help == "|".join(routes) + " | all"


def test_verify_offers_exactly_the_routed_subcommands():
    subcommands = _subcommands()
    routed = {name for name, sub in subcommands.items() if any(a.dest == "route" for a in sub._actions)}
    assert routed == set(ROUTED)
    assert set(_option(subcommands["verify"], "kind").choices) == routed


@pytest.mark.parametrize("kind", list(ROUTED))
def test_routed_output_verifies_as_a_candidate(kind, tmp_path, capsys):
    # The --check report and --lambda lines are % comments, so the printed
    # file is the candidate itself.
    _, _, a, w = ROUTED[kind]
    a = write(tmp_path, "a.qmat", a)
    weight = [] if w is None else ["--weight", write(tmp_path, "w.qmat", w), "--lambda", "1e-8"]
    assert main([kind, "-i", a, *weight, "--route", "all", "--check"]) == 0
    candidate = tmp_path / "x.qmat"
    candidate.write_text(capsys.readouterr().out)
    assert main(["verify", "--kind", kind, "-i", a, *weight[:2], "--candidate", str(candidate)]) == 0
    assert "result: PASS" in capsys.readouterr().out


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


def test_info_searches_each_index_once(tmp_path, capsys, monkeypatch):
    calls = []
    for module in (cli, geninv):
        monkeypatch.setattr(module, "index_of", lambda a, f=module.index_of: calls.append(a) or f(a))
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", golden.W_IN)
    assert main(["info", "-i", a, "--weight", w]) == 0
    assert capsys.readouterr().out == INFO_WORKED_EXAMPLE
    assert len(calls) == 2  # WA and AW, once each


def test_info_ranks_a_square_weight_once(tmp_path, capsys, monkeypatch):
    # W's rank and its index come from one power table.
    ranked = []
    for module in (matrix, geninv, cli):
        monkeypatch.setattr(module, "rank", lambda m, f=module.rank: ranked.append(m) or f(m))
    a = write(tmp_path, "a.qmat", QMatrix.identity(2) * 2)
    w = write(tmp_path, "w.qmat", HERMITIAN)
    assert main(["info", "-i", a, "--weight", w]) == 0
    assert ranked.count(HERMITIAN) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "k = 0"


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (4, 4)], ids=lambda s: "%dx%d" % s)
def test_info_with_a_misshaped_weight_is_refused(shape, tmp_path, capsys):
    # A is 4x3, so W must be 3x4; a 4x4 W fails on A @ W, not on W @ A.
    a = write(tmp_path, "a.qmat", golden.A_IN)
    w = write(tmp_path, "w.qmat", QMatrix.zeros(*shape))
    assert main(["info", "-i", a, "--weight", w]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("qdet: refused: ")


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


def test_mp_of_a_rank_zero_float_input(tmp_path, capsys):
    path = tmp_path / "tiny.qmat"
    path.write_text("1 1\n1e-200\n")
    assert main(["mp", "-i", str(path), "--route", "all", "--check"]) == 0
    out = capsys.readouterr()
    assert "Traceback" not in out.err and "result: PASS" in out.out


def test_internal_invariant_exits_as_verification_failure(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalInvariantError("A*A minor denominator is not positive: 0")

    monkeypatch.setattr(geninv, "inverse", broken)
    assert main(["mp", "-i", write(tmp_path, "h.qmat", HERMITIAN)]) == 3
    assert "verification failure" in capsys.readouterr().err


QDET_ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, QdetError)]


@pytest.mark.parametrize("cls", QDET_ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_documented_exit_code(cls, tmp_path, capsys, monkeypatch):
    # 1 parse error, 3 verification failure, 2 every other refusal.
    def raising(*args, **kwargs):
        raise cls("injected")

    monkeypatch.setattr(geninv, "inverse", raising)
    if issubclass(cls, ParseError):
        expected, word = 1, "parse error"
    elif issubclass(cls, (RouteDisagreementError, InternalInvariantError)):
        expected, word = 3, "verification failure"
    else:
        expected, word = 2, "refused"
    assert main(["mp", "-i", write(tmp_path, "h.qmat", HERMITIAN)]) == expected
    assert capsys.readouterr().err == f"qdet: {word}: injected\n"


def test_overflowing_float_input_is_refused(tmp_path, capsys):
    # An entry above ~1.3e154 overflows its squared norm, so float rank has
    # no pivot scale: a refusal, never rank 0 or a zero result that passes.
    a = write(tmp_path, "a.qmat", QMatrix.from_literals([["1e200", "1.0"], ["1.0", "2.0"]]))
    b = write(tmp_path, "b.qmat", QMatrix.from_literals([["1e200", "1e200"], ["1e200", "1e200"]]))
    assert main(["info", "-i", a]) == 2
    assert main(["drazin", "-i", b, "--route", "all", "--check"]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_float_mode_refuses_an_exact_entry_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "big.qmat"
    path.write_text("1 1\n" + "1" * 400 + "\n")
    assert main(["info", "-i", str(path), "--mode", "float"]) == 1
    assert "overflows a float" in capsys.readouterr().err


def test_unparsable_literals_exit_as_parse_errors(tmp_path, capsys):
    for body in ("1/0 1\n1 2", "1e999 1\n1 2"):
        path = tmp_path / "a.qmat"
        path.write_text(f"2 2\n{body}\n")
        assert main(["mp", "-i", str(path), "--route", "all", "--check"]) == 1
        assert "line 2, col 1" in capsys.readouterr().err


def _argv(command, pick, a, w, x):
    """One invocation of `command`; `pick` chooses its anchor, route or kind."""
    if command == "det":
        return ["det", "-i", a] + (["--anchor", f"{'rc'[pick % 2]}:{pick % 3 + 1}"] if pick else [])
    if command == "verify":
        kind = ("mp", "drazin", "wdrazin")[pick % 3]
        return ["verify", "--kind", kind, "-i", a, "--candidate", x] + (["--weight", w] if kind == "wdrazin" else [])
    if command == "info":
        return ["info", "-i", a, "--weight", w]
    routes = {"mp": MP_ROUTES, "drazin": DRAZIN_ROUTES, "wdrazin": WDRAZIN_ROUTES}[command] + ("all",)
    argv = [command, "-i", a, "--route", routes[pick % len(routes)], "--check"]
    return argv + (["--weight", w, "--lambda", "0.01"] if command == "wdrazin" else [])


def _small_matrices(m, n):
    component = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    entry = st.builds(Quaternion, *[component] * 4)
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m).map(QMatrix)


cli_cases = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda mn: st.tuples(
        st.sampled_from(["det", "mp", "drazin", "wdrazin", "verify", "info"]),
        st.integers(0, 11),
        st.booleans(),
        _small_matrices(mn[0], mn[1]),
        _small_matrices(mn[1], mn[0]),
        _small_matrices(*mn),
    )
)


@settings(max_examples=60, deadline=None)
@given(cli_cases, st.one_of(st.none(), qmat_texts))
def test_every_subcommand_ends_with_an_exit_code(case, raw):
    # Exit 0-3, nothing escapes; an input file that does not parse exits 1.
    command, pick, use_float, a, w, x = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [
            write(Path(tmp), name, m.to_float() if use_float else m)
            for name, m in (("a.qmat", a), ("w.qmat", w), ("x.qmat", x))
        ]
        if raw is not None:
            Path(paths[0]).write_text(raw)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(_argv(command, pick, *paths))
    assert code in (0, 1, 2, 3)
    if raw is not None:
        try:
            parse_qmat(raw)
        except ParseError:
            assert code == 1


def test_cli_import_loads_no_dataclasses_inspect_typing_or_numpy():
    # -S: without site, so no .pth file adds its own imports.
    code = "import sys, qdet.cli; print(' '.join(sorted(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    loaded = set(out.stdout.split())
    assert "qdet.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "numpy"}


QDET_MODULES = {"geninv", "ncdet", "verify", "matrix", "scalar", "errors"}


def private_qdet_names(source):
    """The underscore names that source reads from, or imports out of, a
    qdet module other than itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in QDET_MODULES and node.attr.startswith("_"):
                found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in QDET_MODULES:
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_cli_reads_no_private_name_of_another_qdet_module():
    # The CLI is a client of the public library: the route tables, the
    # dispatcher and the analyses stay behind geninv's public names.
    assert private_qdet_names(Path(cli.__file__).read_text(encoding="utf-8")) == []
    sample = "from .geninv import _x\nfrom . import geninv\ngeninv._y, errors.Z, cli._z"
    assert sorted(private_qdet_names(sample)) == ["geninv._x", "geninv._y"]
