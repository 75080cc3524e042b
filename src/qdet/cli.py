"""Command-line front end.

Matrix files (``.qmat``) are plain text: a header line ``m n``, then m
lines of n whitespace-separated quaternion literals; lines starting with
``%`` are comments.  The scalar mode is inferred per file: any decimal
literal makes it a float file, any ``p/q`` fraction makes it exact, and
mixing the two is an error.  Matrices are printed back in the same
grammar, so outputs are re-ingestible; with ``--check`` the appended
report lines are ``%``-prefixed to keep the output a valid matrix file.

The inverses are data: `_INVERSES` has one row per inverse, holding its
`geninv` route tuple, its `verify` checker, whether it takes a weight
and its help line.  The routed subcommands, their ``--route`` help and
default (the first route), ``--check``, the ``verify --kind`` choices
and the operands each kind reads all come from that row, and one
`_cmd_routed` runs each through `geninv.inverse`.  A new route is a row
in its `geninv` family, a new inverse a family there and a row here.

Exit codes: 0 success, 1 usage or parse error, 2 computation refusal
(size guard, mode/shape/precondition violations, singular input, a float
computation that broke down numerically), and 3 verification failure (a
defining equation fails, routes disagree, or an exact-mode internal
invariant fails).
"""

import argparse
import os
import re
import sys

from . import geninv, ncdet, verify
from .errors import InternalInvariantError, ModeError, ParseError, QdetError, RouteDisagreementError
from .matrix import Powers, QMatrix, index_of, max_abs_diff, rank
from .scalar import EXACT, FLOAT, Quaternion, format_quaternion, literal_mode, parse_quaternion

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_VERIFY = 3

GUARD_ENV_VAR = "QDET_MAX_N"


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Matrix file format
# ---------------------------------------------------------------------------


def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno, raw


def parse_qmat(text: str) -> QMatrix:
    """Parse matrix file text; raises `ParseError` with line/column info."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError("empty matrix file")
    header_line, header = lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise ParseError("header must be 'rows cols'", line=header_line)
    try:
        m, n = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError("header must contain two integers", line=header_line) from None
    if m < 1 or n < 1:
        raise ParseError("dimensions must be positive", line=header_line)
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} data rows, found {len(body)}")

    tokens = []  # (lineno, col, text)
    for rowno, (lineno, raw) in enumerate(body, start=1):
        row = [(lineno, t.start() + 1, t.group()) for t in re.finditer(r"\S+", raw)]
        if len(row) != n:
            raise ParseError(f"row {rowno} has {len(row)} entries, expected {n}", line=lineno)
        tokens.append(row)

    mode = None
    for row in tokens:
        for lineno, col, text_ in row:
            try:
                mode = literal_mode(text_, mode)
            except (ParseError, ModeError) as exc:
                raise ParseError(str(exc), line=lineno, col=col) from None
    mode = mode or EXACT

    rows = []
    for row in tokens:
        out = []
        for lineno, col, text_ in row:
            try:
                out.append(parse_quaternion(text_, mode))
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno, col=col) from None
        rows.append(out)
    return QMatrix(rows)


def format_qmat(a: QMatrix) -> str:
    lines = [f"{a.rows} {a.cols}"]
    for i in range(a.rows):
        lines.append(" ".join(format_quaternion(q) for q in a.row(i)))
    return "\n".join(lines) + "\n"


def _kv_matrix_lines(a: QMatrix):
    lines = [f"rows = {a.rows}", f"cols = {a.cols}", f"mode = {a.mode}"]
    for i in range(a.rows):
        for j in range(a.cols):
            lines.append(f"entry.{i + 1}.{j + 1} = {format_quaternion(a[i, j])}")
    return lines


def _emit_matrix(a: QMatrix, args):
    if args.emit == "kv":
        print("\n".join(_kv_matrix_lines(a)))
    else:
        print(format_qmat(a), end="")


def _emit_report(report, args, prefix=""):
    """The report as kv lines, or as its human lines behind `prefix`."""
    if args.emit == "kv":
        lines = [f"{key} = {value}" for key, value in report.kv_items()]
    else:
        lines = [prefix + line for line in report.human().splitlines()]
    print("\n".join(lines))


def _emit_scalar(value, mode, args):
    literal = format_quaternion(value if isinstance(value, Quaternion) else Quaternion.real(value, mode))
    if args.emit == "kv":
        print(f"value = {literal}")
    else:
        print(literal)


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(sub, weight=False):
    sub.add_argument("--input", "-i", required=True, help="matrix file (qmat format)")
    if weight:
        sub.add_argument("--weight", required=True, help="weight matrix file")
    sub.add_argument("--mode", choices=(EXACT, FLOAT), help="force scalar mode")
    sub.add_argument("--max-n", type=int, help=f"enumeration guard override (or ${GUARD_ENV_VAR})")
    sub.add_argument("--emit", choices=("human", "kv"), default="human")


# One row per inverse: (geninv routes, verify checker, takes a weight, help).
_INVERSES = {
    "mp": (geninv.MP_ROUTES, verify.check_penrose, False, "Moore-Penrose inverse"),
    "drazin": (geninv.DRAZIN_ROUTES, verify.check_drazin, False, "Drazin inverse"),
    "wdrazin": (geninv.WDRAZIN_ROUTES, verify.check_wdrazin, True, "weighted Drazin inverse"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdet", description="quaternion determinants and generalized inverses")
    subs = parser.add_subparsers(dest="command", required=True)

    det = subs.add_parser("det", help="row/column determinant")
    _add_common(det)
    det.add_argument("--anchor", help="r:<row> or c:<col> (1-based); omit for ddet of a Hermitian input")

    for name, (routes, _, weighted, help_) in _INVERSES.items():
        sub = subs.add_parser(name, help=help_)
        _add_common(sub, weight=weighted)
        sub.add_argument("--route", default=routes[0], help="|".join(routes) + " | all")
        sub.add_argument("--check", action="store_true", help="verify the defining equations")
        if weighted:
            sub.add_argument(
                "--lambda",
                dest="lam",
                type=float,
                help="also print both limit-representation estimates at this shift (float)",
            )

    ver = subs.add_parser("verify", help="check a candidate inverse against the defining equations")
    _add_common(ver)
    ver.add_argument("--candidate", required=True, help="candidate matrix file")
    ver.add_argument("--kind", required=True, choices=tuple(_INVERSES))
    ver.add_argument("--weight", help="weight matrix file (wdrazin only)")

    info = subs.add_parser("info", help="dimensions, rank, index, Hermitian flags")
    _add_common(info)
    info.add_argument("--weight", help="optional weight matrix file")

    return parser


def _load(path, mode_override):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    a = parse_qmat(text)
    if mode_override == FLOAT:
        try:
            return a.to_float()
        except OverflowError:
            raise _UsageError(f"cannot reinterpret {path} in float mode: overflows a float") from None
    if mode_override == EXACT and a.mode == FLOAT:
        raise _UsageError("cannot reinterpret a float file in exact mode")
    return a


def _resolve_guard(args):
    """The guard --max-n / $QDET_MAX_N asks for, or None; below 1 is a usage error."""
    limit = args.max_n
    if limit is None:
        env = os.environ.get(GUARD_ENV_VAR)
        if env:
            try:
                limit = int(env)
            except ValueError:
                raise _UsageError(f"${GUARD_ENV_VAR} must be an integer, got {env!r}") from None
    if limit is not None and limit < 1:
        raise _UsageError(f"the guard override must be at least 1, got {limit}")
    return limit


def _parse_anchor(text):
    m = re.fullmatch(r"([rc]):(\d+)", text or "")
    if not m:
        raise _UsageError(f"anchor must look like r:2 or c:1, got {text!r}")
    return m.group(1), int(m.group(2))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_det(args):
    a = _load(args.input, args.mode)
    if args.anchor:
        which, idx = _parse_anchor(args.anchor)
        value = (ncdet.rdet if which == "r" else ncdet.cdet)(idx, a, args.max_n)
        _emit_scalar(value, a.mode, args)
        return EXIT_OK
    if not a.is_hermitian():
        raise _UsageError("--anchor is required for non-Hermitian input")
    _emit_scalar(ncdet.ddet(a, args.max_n), a.mode, args)
    return EXIT_OK


def _operands(args, kind):
    """(A,) or, for a weighted kind, (A, W): a weight goes with a weighted
    kind and with no other."""
    weighted, weight = _INVERSES[kind][2], getattr(args, "weight", None)
    if weighted and weight is None:
        raise _UsageError(f"--weight is required for --kind {kind}")
    if weight is not None and not weighted:
        raise _UsageError(f"--weight does not apply to --kind {kind}")
    a = _load(args.input, args.mode)
    return (a, _load(weight, args.mode)) if weighted else (a,)


def _limit_lines(a, w, x, args):
    """Both limit estimates at args.lam and their deviation from x."""
    est = geninv.wdrazin_limit_estimate(a.to_float(), w.to_float(), args.lam)
    exact = x.to_float()
    lines = []
    for name, mat in (("limit.via_aw", est.via_aw), ("limit.via_wa", est.via_wa)):
        dev = max_abs_diff(mat, exact)
        if args.emit == "kv":
            lines.append(f"{name}.deviation = {dev!r}")
            lines += [f"{name}.{line}" for line in _kv_matrix_lines(mat)]
        else:
            lines.append(f"% {name} at lambda={args.lam} (max deviation {dev:.3e}):")
            lines += [f"% {line}" for line in format_qmat(mat).splitlines()]
    return lines


def _cmd_routed(args):
    """Compute args.route of the inverse args.command, its --check report
    and any --lambda lines, then print them: a failure prints nothing."""
    _, checker, weighted, _ = _INVERSES[args.command]
    operands = _operands(args, args.command)
    x, provenance = geninv.inverse(args.command, args.route, *operands, max_n=args.max_n)
    report = checker(*operands, x, provenance=provenance) if args.check else None
    lines = _limit_lines(*operands, x, args) if weighted and args.lam is not None else []
    _emit_matrix(x, args)
    if report is not None:
        _emit_report(report, args, prefix="% ")
    for line in lines:
        print(line)
    return EXIT_VERIFY if report is not None and not report.ok else EXIT_OK


def _cmd_verify(args):
    _, checker, _, _ = _INVERSES[args.kind]
    operands = _operands(args, args.kind)
    x = _load(args.candidate, args.mode)
    report = checker(*operands, x, provenance="candidate")
    _emit_report(report, args)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _describe(name, a, lines):
    """Append a's info lines to lines; return its index (None unless square)."""
    p = Powers(a) if a.is_square() else None
    k = None if p is None else index_of(p)
    lines += [
        f"{name}.rows = {a.rows}",
        f"{name}.cols = {a.cols}",
        f"{name}.mode = {a.mode}",
        f"{name}.rank = {rank(a) if p is None else p.rank(1)}",
        f"{name}.hermitian = {'true' if a.is_hermitian() else 'false'}",
    ]
    if k is not None:
        lines.append(f"{name}.index = {k}")
    return k


def _cmd_info(args):
    a, lines = _load(args.input, args.mode), []
    _describe("A", a, lines)
    if args.weight:
        w = _load(args.weight, args.mode)
        wa, aw = w @ a, a @ w  # both exist iff w has the transposed shape of a
        _describe("W", w, lines)
        k = max(_describe("WA", wa, lines), _describe("AW", aw, lines))
        lines.append(f"k = {k}")
    print("\n".join(lines))
    return EXIT_OK


_COMMANDS = {"det": _cmd_det, **dict.fromkeys(_INVERSES, _cmd_routed), "verify": _cmd_verify, "info": _cmd_info}


# (exception types, exit code, stderr word); the first row that matches wins.
_EXITS = (
    ((_UsageError, ValueError), EXIT_USAGE, "error"),
    ((ParseError,), EXIT_USAGE, "parse error"),
    ((RouteDisagreementError, InternalInvariantError), EXIT_VERIFY, "verification failure"),
    ((QdetError, ZeroDivisionError, OverflowError), EXIT_REFUSED, "refused"),
)
_CAUGHT = tuple(t for types, _, _ in _EXITS for t in types)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.max_n = _resolve_guard(args)  # every guarded call of the run reads it
        return _COMMANDS[args.command](args)
    except _CAUGHT as exc:
        code, word = next((code, word) for types, code, word in _EXITS if isinstance(exc, types))
        print(f"qdet: {word}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
