"""Benchmark workloads: seeded inputs, the operations run on them, and the
checks that judge each operation's output.

Every workload is a fixed list of operations (an *op* is one problem solved
in-process, or one ``qdet`` CLI invocation).  Sizes and the kind of every
list entry are fixed; the seed only draws the quaternion entries, so two
seeds give the same amount of work of the same shape.  The program sees
only the generated inputs.

Each op is judged by a check that does not reuse the code path it measures:
the defining-equation checkers of ``qdet.verify``, the reference
permutation enumerators, or numpy through the complex adjoint embedding.
Exact outputs are also rendered in ``format_quaternion`` text; the run
digests that text, so a change that alters any exact output shows up as a
digest mismatch.

Outcomes follow one contract for every workload:

* ``verified`` -- the op returned and its check confirmed the output;
* ``refused`` -- a typed refusal: a ``QdetError`` in-process, or a CLI exit
  code 1, 2 or 3 without a traceback where the command did not expect one;
* ``failed`` -- any other exception, a traceback, an exit code outside
  0-3, or an output the check rejects although the program did not say so.

A workload's ops are chosen so that none fails.  Inputs on which the
program is known to fail -- the near-singular probes, and 4x4 rank-3
float inputs to ``drazin(route="all")`` -- are *defect probes*: each run
judges them once, untimed, and reports how many failed, apart from the
ops it times and counts.
"""

import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import qdet
from qdet import QMatrix, Quaternion, cli, format_quaternion
from qdet.errors import QdetError

VERIFIED = "verified"
REFUSED = "refused"
FAILED = "failed"

NAMES = ("agree_small", "enum_large", "float_oracle", "cli_mixed")

# Near-singular float probes: a rank-deficient integer product plus uniform
# noise of 10**-e on every component, for each e in this ladder.
NOISE_EXPONENTS = tuple(range(6, 15))

# Defect probes of float drazin(route="all") on 4x4 rank-3 inputs, where
# the routes lose about 1e-9 and fail their check or disagree on about one
# input in forty.
RANK3_DRAZIN_PROBES = 5

# Runs per visit of an op whose single run takes milliseconds; every other
# op runs once per visit.  A pass of the list issues each op this often.
CHEAP_REPEATS = 5

LIMIT_SHIFTS = (1e-2, 1e-4, 1e-6, 1e-8)
LIMIT_TOL = 1e-5
EMBED_REL_TOL = 1e-9


class Op:
    """One benchmark operation.

    ``run()`` is the timed work.  ``check(out)`` returns VERIFIED or
    FAILED for an output ``run`` returned.  ``render(out)`` is the text the
    digest covers; it is exact-mode output in ``format_quaternion`` form, or
    None for float ops.  CLI ops carry ``argv`` instead of ``run``.
    ``repeats`` is how many times a visit runs the op, and so the op's
    weight in every figure taken over the list.
    """

    __slots__ = ("name", "run", "check", "render", "argv", "exact", "repeats")

    def __init__(self, name, run=None, check=None, render=None, argv=None, exact=True):
        self.name = name
        self.run = run
        self.check = check
        self.render = render
        self.argv = argv
        self.exact = exact
        self.repeats = 1


def cheap(ops):
    """Mark ops that run in milliseconds: each visit runs them CHEAP_REPEATS times."""
    for op in ops:
        op.repeats = CHEAP_REPEATS
    return ops


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def rand_q(rng, span=1, sparsity=0.0):
    if sparsity and rng.random() < sparsity:
        return Quaternion.zero()
    return Quaternion(*(rng.randint(-span, span) for _ in range(4)))


def rand_mat(rng, m, n, span=1, sparsity=0.0):
    return QMatrix([[rand_q(rng, span, sparsity) for _ in range(n)] for _ in range(m)])


def rank_deficient(rng, m, n, r):
    """A product of thin factors, so its rank is at most r."""
    return rand_mat(rng, m, r) @ rand_mat(rng, r, n)


def hermitian(rng, n):
    b = rand_mat(rng, n, n, 1, 0.2)
    # Both are formed, so that building the inputs (part of setup_s) costs
    # the same whichever one the seed picks.
    plus, product = b + b.H, b @ b.H
    return plus if rng.random() < 0.5 else product


def positive_definite(rng, n):
    b = rand_mat(rng, n, n, 1, 0.2)
    return b @ b.H + QMatrix.identity(n)


def near_singular(rng, n, r, exponent):
    base = rank_deficient(rng, n, n, r).to_float()
    scale = 10.0**-exponent
    return QMatrix(
        [
            [
                Quaternion(*(c + rng.uniform(-1.0, 1.0) * scale for c in q.components()), mode="float")
                for q in row
            ]
            for row in base.entries()
        ]
    )


def interleave(*groups):
    """Round-robin merge, so any prefix of a pass holds every kind of op."""
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


# ---------------------------------------------------------------------------
# Rendering and independent checks
# ---------------------------------------------------------------------------


def render(value):
    """Exact output in the literal grammar; the text the digests cover."""
    if isinstance(value, QMatrix):
        return "\n".join(" ".join(format_quaternion(q) for q in row) for row in value.entries())
    if isinstance(value, Quaternion):
        return format_quaternion(value)
    if isinstance(value, (tuple, list)):
        return "\n;\n".join(render(v) for v in value)
    return format_quaternion(Quaternion.real(value))


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def verdict(ok):
    return VERIFIED if ok else FAILED


def _real_value(value):
    return float(value.a0) if isinstance(value, Quaternion) else float(value)


def matches_embedding_det(h, value):
    """A Hermitian h has det(embed(h)) = ddet(h)**2 and a real ddet."""
    if isinstance(value, Quaternion):
        imag = max(abs(float(c)) for c in value.components()[1:])
        if imag > EMBED_REL_TOL * (1.0 + abs(float(value.a0))):
            return False
    v = _real_value(value)
    d = np.linalg.det(qdet.embed_complex(h))
    scale = 1.0 + abs(d)
    return abs(d.imag) <= EMBED_REL_TOL * scale and abs(d.real - v * v) <= EMBED_REL_TOL * scale


def matches_embedding_charpoly(h, coeffs):
    """char poly of embed(h) is p(t)**2 for p(t) = t^n - d1 t^(n-1) + ..."""
    p = [1.0]
    sign = -1.0
    for d in coeffs:
        p.append(sign * float(d))
        sign = -sign
    want = np.polymul(p, p)
    got = np.poly(qdet.embed_complex(h))
    scale = 1.0 + float(np.max(np.abs(want)))
    return bool(np.max(np.abs(got - want)) <= EMBED_REL_TOL * scale)


def np_rank(a):
    return int(np.linalg.matrix_rank(qdet.embed_complex(a))) // 2


def np_index(a):
    n = a.rows
    e = qdet.embed_complex(a)
    prev, power = np_rank(a), e
    if prev == n:
        return 0
    for k in range(1, n + 1):
        power = power @ e
        cur = int(np.linalg.matrix_rank(power)) // 2
        if cur == prev:
            return k
        prev = cur
    return -1


def limit_ok(exact_value, deviations):
    """The ladder must reach the exact inverse within LIMIT_TOL."""
    scale = 1.0 + max(abs(float(c)) for row in exact_value.entries() for q in row for c in q.components())
    return bool(deviations) and min(deviations) <= LIMIT_TOL * scale


# ---------------------------------------------------------------------------
# agree_small: the route-agreement mix of acceptance criterion 4
# ---------------------------------------------------------------------------


def _agree_instance(rng, trial):
    m, n = ((3, 3), (3, 2))[trial % 2]
    if trial % 4 == 0:
        a = rank_deficient(rng, m, n, max(1, min(m, n) - 1))
    else:
        a = rand_mat(rng, m, n, 1, 0.25)
    if trial % 6 == 5:
        w = a.H
    elif trial % 4 == 1:
        w = rank_deficient(rng, n, m, max(1, min(m, n) - 1))
    else:
        w = rand_mat(rng, n, m, 1, 0.25)
    return a, w


def _agree_op(a, w):
    def run():
        x = qdet.mp_inverse(a, "all")
        wa, aw = w @ a, a @ w
        d_wa = qdet.drazin(wa, "all")
        d_aw = qdet.drazin(aw, "all")
        y = qdet.wdrazin(a, w, "all")
        reports = (
            qdet.check_penrose(a, x),
            qdet.check_drazin(wa, d_wa),
            qdet.check_drazin(aw, d_aw),
            qdet.check_wdrazin(a, w, y),
        )
        return (x, d_wa, d_aw, y), reports

    return Op(
        f"agree_{a.rows}x{a.cols}",
        run,
        check=lambda out: verdict(all(r.ok for r in out[1])),
        render=lambda out: render(out[0]),
    )


def build_agree_small(seed, smoke):
    rng = rng_for("agree_small", seed)
    instances = [_agree_instance(rng, t) for t in range(2 if smoke else 30)]
    return [_agree_op(a, w) for a, w in instances], [], [a for a, _ in instances[:4]]


# ---------------------------------------------------------------------------
# enum_large: exact single problems at n = 5..7 under the default guard
# ---------------------------------------------------------------------------


def _det_op(kind, anchor, a, hermitian_input):
    def run():
        return getattr(qdet, kind)(anchor, a)

    if hermitian_input:
        check = lambda out: verdict(matches_embedding_det(a, out))  # noqa: E731
    else:
        reference = getattr(qdet, kind + "_reference")
        check = lambda out: verdict(out == reference(anchor, a))  # noqa: E731
    return Op(f"{kind}_n{a.rows}", run, check, render)


def _ddet_op(h):
    return Op(f"ddet_n{h.rows}", lambda: qdet.ddet(h), lambda out: verdict(matches_embedding_det(h, out)), render)


def _char_poly_op(h):
    return Op(
        f"char_poly_n{h.rows}",
        lambda: qdet.char_poly(h),
        lambda out: verdict(matches_embedding_charpoly(h, out)),
        render,
    )


def _hermitian_inverse_op(h):
    return Op(
        f"hermitian_inverse_n{h.rows}",
        lambda: qdet.hermitian_inverse(h),
        lambda out: verdict(qdet.check_penrose(h, out).ok),
        render,
    )


def _mp_exact_op(a):
    return Op(
        f"mp_{a.rows}x{a.cols}",
        lambda: qdet.mp_inverse(a),
        lambda out: verdict(qdet.check_penrose(a, out).ok),
        render,
    )


def build_enum_large(seed, smoke):
    rng = rng_for("enum_large", seed)
    if smoke:
        g = rand_mat(rng, 4, 4, 2)
        h = hermitian(rng, 4)
        ops = cheap([
            _det_op("rdet", 2, g, False),
            _det_op("cdet", 3, g, False),
            _ddet_op(h),
            _char_poly_op(h),
        ]) + [
            _hermitian_inverse_op(positive_definite(rng, 3)),
            _mp_exact_op(rank_deficient(rng, 4, 4, 3)),
        ]
        return ops, [], [g, h]
    g5 = [rand_mat(rng, 5, 5, 2) for _ in range(4)]
    g6 = [rand_mat(rng, 6, 6, 2) for _ in range(2)]
    h5, h6, h7 = hermitian(rng, 5), hermitian(rng, 6), hermitian(rng, 7)
    r54 = rank_deficient(rng, 5, 5, 4)
    r65 = rank_deficient(rng, 6, 6, 5)

    small = cheap([
        _det_op("rdet" if anchor % 2 else "cdet", anchor, a, False) for a in g5 for anchor in range(1, 6)
    ])
    medium = [
        _det_op(kind, anchor, a, False)
        for a in g6
        for kind, anchor in (("rdet", 2), ("cdet", 5))
    ]
    hermitian_ops = [_ddet_op(h5), _ddet_op(h6), _char_poly_op(h5), _char_poly_op(h6)]
    cheap(hermitian_ops[0::2])  # the n = 5 ones
    large = [
        _hermitian_inverse_op(positive_definite(rng, 5)),
        _mp_exact_op(r54),
        _det_op("cdet", 4, h7, True),
        _mp_exact_op(r65),
    ]
    ops = interleave(small, hermitian_ops + medium, large)
    return ops, [], g5 + [h7, r65]


# ---------------------------------------------------------------------------
# float_oracle: the same problem kinds in float mode, checked by oracles
# ---------------------------------------------------------------------------


def _float_mp_op(a):
    def run():
        x = qdet.mp_inverse(a, "all")
        oracle = qdet.mp_oracle_embedding(a)
        return x, oracle, qdet.check_penrose(a, x)

    def check(out):
        x, oracle, report = out
        return verdict(report.ok and qdet.max_abs_diff(x, oracle) <= 1e-9)

    return Op(f"mp_float_{a.rows}x{a.cols}", run, check, exact=False)


def _float_drazin_op(a, name="drazin_float"):
    def run():
        x = qdet.drazin(a, "all")
        return x, qdet.check_drazin(a, x)

    return Op(f"{name}_{a.rows}", run, lambda out: verdict(out[1].ok), exact=False)


def _float_wdrazin_op(a, w):
    def run():
        x = qdet.wdrazin(a, w, "all")
        return x, qdet.check_wdrazin(a, w, x)

    return Op(f"wdrazin_float_{a.rows}x{a.cols}", run, lambda out: verdict(out[1].ok), exact=False)


def _limit_op(a, w):
    """The shift ladder, stopped at the first shift the program refuses.

    The ladder is verified when an estimate comes within LIMIT_TOL of the
    exact W-weighted Drazin inverse.  One cut short by a refusal (a `SingularError`) before
    that is a refusal, as long as each estimate it gave is closer than the
    one before; any other ladder fails.
    """
    af, wf = a.to_float(), w.to_float()
    exact = []

    def run():
        estimates = []
        for lam in LIMIT_SHIFTS:
            try:
                estimates.append(qdet.wdrazin_limit_estimate(af, wf, lam))
            except qdet.errors.SingularError:
                break
        if not estimates:
            raise qdet.errors.SingularError("every shift on the ladder is singular")
        return estimates

    def check(estimates):
        if not exact:
            exact.append(qdet.wdrazin(a, w).to_float())
        deviations = [
            max(qdet.max_abs_diff(e.via_aw, exact[0]), qdet.max_abs_diff(e.via_wa, exact[0]))
            for e in estimates
        ]
        if limit_ok(exact[0], deviations):
            return VERIFIED
        converging = all(b < a for a, b in zip(deviations, deviations[1:]))
        return REFUSED if len(estimates) < len(LIMIT_SHIFTS) and converging else FAILED

    return Op(f"limit_ladder_{a.rows}x{a.cols}", run, check, exact=False)


def _float_det_op(kind, anchor, h):
    return Op(
        f"{kind}_float_n{h.rows}",
        lambda: getattr(qdet, kind)(anchor, h),
        lambda out: verdict(matches_embedding_det(h, out)),
        exact=False,
    )


def _float_hermitian_inverse_op(h):
    def run():
        x = qdet.hermitian_inverse(h)
        return x, qdet.check_penrose(h, x)

    return Op(f"hermitian_inverse_float_n{h.rows}", run, lambda out: verdict(out[1].ok), exact=False)


def _float_char_poly_op(h):
    return Op(
        f"char_poly_float_n{h.rows}",
        lambda: qdet.char_poly(h),
        lambda out: verdict(matches_embedding_charpoly(h, out)),
        exact=False,
    )


def _probe_op(rng, trial, exponent):
    n = 3 + trial % 2
    a = near_singular(rng, n, n - 1, exponent)
    if trial % 2:
        return _float_drazin_op(a, f"probe_drazin_e{exponent}")
    op = _float_mp_op(a)
    op.name = f"probe_mp_e{exponent}"
    return op


def defect_probes(rng, exponents, rank3):
    """The near-singular probes, then `rank3` float drazin probes on 4x4
    rank-3 inputs."""
    probes = [_probe_op(rng, t, e) for t, e in enumerate(exponents)]
    return probes + [_float_drazin_op(rank_deficient(rng, 4, 4, 3).to_float(), "probe_drazin_rank3")
                     for _ in range(rank3)]


def build_float_oracle(seed, smoke):
    rng = rng_for("float_oracle", seed)
    shapes = ((3, 3), (4, 3), (3, 4), (4, 4))
    if smoke:
        h = hermitian(rng, 4)
        a, w = rand_mat(rng, 3, 2, 1, 0.25), rand_mat(rng, 2, 3, 1, 0.25)
        ops = cheap([
            _float_mp_op(rand_mat(rng, 3, 3, 2).to_float()),
            _float_det_op("rdet", 1, h.to_float()),
            _float_drazin_op(rank_deficient(rng, 3, 3, 2).to_float()),
            _limit_op(a, w),
        ])
        return ops, defect_probes(rng, NOISE_EXPONENTS[::8], 1), [h, a]
    mp_ops = []
    for t in range(24):
        m, n = shapes[t % 4]
        a = rank_deficient(rng, m, n, min(m, n) - 1) if t % 3 == 2 else rand_mat(rng, m, n, 2)
        mp_ops.append(_float_mp_op(a.to_float()))
    drazin_ops = []
    for t in range(20):
        n = 3 + t % 2
        a = rank_deficient(rng, n, n, 2) if t % 2 else rand_mat(rng, n, n, 2)
        drazin_ops.append(_float_drazin_op(a.to_float()))
    weighted = []
    for t in range(8):
        m, n = ((3, 3), (3, 2))[t % 2]
        a, w = rand_mat(rng, m, n, 2), rand_mat(rng, n, m, 2)
        weighted.append(_float_wdrazin_op(a.to_float(), w.to_float()))
    ladders = []
    for t in range(12):
        m, n = ((3, 3), (3, 2), (4, 3))[t % 3]
        a = rank_deficient(rng, m, n, 2) if t % 2 else rand_mat(rng, m, n, 2)
        ladders.append(_limit_op(a, rand_mat(rng, n, m, 2)))
    h8 = hermitian(rng, 8).to_float()
    h6 = hermitian(rng, 6).to_float()
    hermitian_ops = [
        _float_det_op("rdet", 1, h8),
        _float_det_op("cdet", 8, h8),
    ] + cheap([
        _float_char_poly_op(h6),
        _float_char_poly_op(hermitian(rng, 5).to_float()),
    ] + [_float_hermitian_inverse_op(positive_definite(rng, 5).to_float()) for _ in range(3)])
    probes = defect_probes(rng, NOISE_EXPONENTS, RANK3_DRAZIN_PROBES)
    ops = interleave(cheap(mp_ops), cheap(drazin_ops), cheap(ladders), hermitian_ops, cheap(weighted))
    return ops, probes, [rand_mat(rng, 4, 4, 2), hermitian(rng, 4)]


# ---------------------------------------------------------------------------
# cli_mixed: subprocess runs of the qdet CLI
# ---------------------------------------------------------------------------

TRACEBACK_MARK = "Traceback (most recent call last)"


def load_golden(root):
    """The frozen worked example of the test suite, read only."""
    tests = str(Path(root) / "tests")
    sys.path.insert(0, tests)
    try:
        import golden
    finally:
        sys.path.remove(tests)
    return golden


def matrix_from_stdout(stdout):
    """The matrix part of CLI output: every line that is not a % comment."""
    return cli.parse_qmat("\n".join(line for line in stdout.splitlines() if not line.startswith("%")))


def kv_from_stdout(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def matrix_from_kv(stdout):
    """The matrix of ``--emit kv`` output, from its entry.i.j keys."""
    kv = kv_from_stdout(stdout)
    mode = kv["mode"]
    return QMatrix(
        [
            [qdet.parse_quaternion(kv[f"entry.{i}.{j}"], mode) for j in range(1, int(kv["cols"]) + 1)]
            for i in range(1, int(kv["rows"]) + 1)
        ]
    )


def _cli_op(name, argv, judge, exact, expect=0):
    """A CLI invocation; `judge(stdout)` checks a successful run.

    The op is verified when the exit code is `expect` and `judge` accepts
    the output; another typed exit code is a refusal; a traceback or an
    unknown exit code is a failure.
    """

    def check(out):
        code, stdout, stderr = out
        if TRACEBACK_MARK in stderr or code not in (0, 1, 2, 3):
            return FAILED
        if code != expect:
            return REFUSED
        if expect != 0:
            return VERIFIED
        try:
            return verdict(judge(stdout))
        except (QdetError, KeyError, ValueError):  # output missing or malformed
            return FAILED

    def render_out(out):
        return f"exit {out[0]}\n{out[1]}" if exact else None

    return Op(name, check=check, render=render_out, argv=list(argv), exact=exact)


def _info_judge(a, w=None):
    def judge(stdout):
        kv = kv_from_stdout(stdout)
        named = [("A", a)]
        if w is not None:
            named += [("W", w), ("WA", w @ a), ("AW", a @ w)]
        for name, m in named:
            if int(kv[f"{name}.rank"]) != np_rank(m):
                return False
            if (kv[f"{name}.hermitian"] == "true") != (m.is_square() and m == m.H):
                return False
            if m.is_square() and int(kv[f"{name}.index"]) != np_index(m):
                return False
        return True

    return judge


def build_cli_mixed(seed, smoke, workdir, root):
    """Writes the input files into `workdir` and returns the CLI ops and
    the near-singular probes."""
    rng = rng_for("cli_mixed", seed)
    golden = load_golden(root)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    def put(name, matrix):
        path = workdir / f"{name}.qmat"
        path.write_text(cli.format_qmat(matrix))
        return str(path)

    a_in, w_in = golden.A_IN, golden.W_IN
    fa, fw = put("A", a_in), put("W", w_in)
    g4 = rand_mat(rng, 4, 4, 2)
    h4 = hermitian(rng, 4)
    m33 = rand_mat(rng, 3, 3, 1, 0.25)
    m43 = rank_deficient(rng, 4, 3, 2)
    s3 = rank_deficient(rng, 3, 3, 2)
    a32, w23 = rand_mat(rng, 3, 2, 1, 0.25), rand_mat(rng, 2, 3, 1, 0.25)
    f44 = rand_mat(rng, 4, 4, 2).to_float()
    f33 = rank_deficient(rng, 3, 3, 2).to_float()
    fg4, fh4, fm33, fm43, fs3 = put("G4", g4), put("H4", h4), put("M33", m33), put("M43", m43), put("S3", s3)
    fa32, fw23, ff44, ff33 = put("A32", a32), put("W23", w23), put("F44", f44), put("F33", f33)

    def mp(a):
        return lambda out: qdet.check_penrose(a, matrix_from_stdout(out)).ok

    def dz(a):
        return lambda out: qdet.check_drazin(a, matrix_from_stdout(out)).ok

    def wd(a, w):
        return lambda out: qdet.check_wdrazin(a, w, matrix_from_stdout(out)).ok

    def det(a, kind, anchor):
        reference = getattr(qdet, kind + "_reference")
        return lambda out: qdet.parse_quaternion(out.strip()) == reference(anchor, a)

    def ddet(h):
        return lambda out: matches_embedding_det(h, qdet.parse_quaternion(out.strip()))

    ops = [
        _cli_op("info", ["info", "-i", fa], _info_judge(a_in), True),
        _cli_op("info_weighted", ["info", "-i", fa, "--weight", fw], _info_judge(a_in, w_in), True),
        _cli_op("det_r", ["det", "-i", fg4, "--anchor", "r:2"], det(g4, "rdet", 2), True),
        _cli_op("det_c", ["det", "-i", fg4, "--anchor", "c:3"], det(g4, "cdet", 3), True),
        _cli_op("ddet", ["det", "-i", fh4], ddet(h4), True),
        _cli_op("mp_all", ["mp", "-i", fm33, "--route", "all", "--check"], mp(m33), True),
        _cli_op("mp_all_rankdef", ["mp", "-i", fm43, "--route", "all", "--check"], mp(m43), True),
        _cli_op("drazin_all", ["drazin", "-i", fs3, "--route", "all", "--check"], dz(s3), True),
        _cli_op("wdrazin_worked", ["wdrazin", "-i", fa, "--weight", fw, "--route", "all", "--check"], wd(a_in, w_in), True),
        _cli_op("wdrazin_all", ["wdrazin", "-i", fa32, "--weight", fw23, "--route", "all", "--check"], wd(a32, w23), True),
        _cli_op("mp_float", ["mp", "-i", ff44, "--route", "all", "--check"], mp(f44), False),
        _cli_op("drazin_float", ["drazin", "-i", ff33, "--route", "all", "--check"], dz(f33), False),
    ]
    if not smoke:
        fadw, fbad = put("ADW", golden.ADW), put("ADW_BAD", golden.ADW_BAD_2)
        fu5, fu5mp, fu5bad = put("U5", golden.U5), put("U5_MP", golden.U5_MP), put("U5_MP_BAD", golden.U5_MP_BAD)
        g5 = rand_mat(rng, 5, 5, 2)
        fg5 = put("G5", g5)
        ops += [
            _cli_op("verify_wdrazin", ["verify", "-i", fa, "--weight", fw, "--candidate", fadw, "--kind", "wdrazin"], lambda out: "result: PASS" in out, True),
            _cli_op("verify_wdrazin_bad", ["verify", "-i", fa, "--weight", fw, "--candidate", fbad, "--kind", "wdrazin"], None, True, expect=3),
            _cli_op("verify_mp", ["verify", "-i", fu5, "--candidate", fu5mp, "--kind", "mp"], lambda out: "result: PASS" in out, True),
            _cli_op("verify_mp_bad", ["verify", "-i", fu5, "--candidate", fu5bad, "--kind", "mp"], None, True, expect=3),
            _cli_op("info_float", ["info", "-i", ff44], _info_judge(f44), True),
            _cli_op("det_r5", ["det", "-i", fg5, "--anchor", "r:1"], det(g5, "rdet", 1), True),
            _cli_op("drazin_hermitian", ["drazin", "-i", fh4, "--route", "hermitian_cdet", "--check"], dz(h4), True),
            _cli_op("det_c5", ["det", "-i", fg5, "--anchor", "c:3"], det(g5, "cdet", 3), True),
            _cli_op("info_weight", ["info", "-i", fw], _info_judge(w_in), True),
            _cli_op("mp_rdet", ["mp", "-i", fm43, "--route", "rdet"], mp(m43), True),
            _cli_op("drazin_mp_composition", ["drazin", "-i", fs3, "--route", "mp_composition", "--check"], dz(s3), True),
            _cli_op("mp_kv", ["mp", "-i", fm33, "--emit", "kv"], lambda out: qdet.check_penrose(m33, matrix_from_kv(out)).ok, True),
            _cli_op("wdrazin_lambda", ["wdrazin", "-i", fa, "--weight", fw, "--lambda", "1e-6"], wd(a_in, w_in), True),
        ]
    probes = []
    exponents = NOISE_EXPONENTS[::4] if smoke else NOISE_EXPONENTS
    for t, e in enumerate(exponents):
        n = 3 + t % 2
        p = near_singular(rng, n, n - 1, e)
        fp = put(f"P{t}", p)
        cmd, judge = ("drazin", dz(p)) if t % 2 else ("mp", mp(p))
        probes.append(_cli_op(f"probe_{cmd}_e{e}", [cmd, "-i", fp, "--route", "all", "--check"], judge, False))
    return ops, probes, [g4, h4, m33]


def run_cli(argv, root, env, tmpdir):
    """One closed-loop CLI invocation in a fresh interpreter.

    Returns ((exit code, stdout, stderr), peak resident KiB of that child
    alone).  The child is reaped with ``os.wait4`` to read its own
    rusage; its output goes to temporary files in `tmpdir` meanwhile.  A
    child still running after 170 s is killed (a negative exit code).
    """
    with tempfile.TemporaryFile(dir=tmpdir) as out, tempfile.TemporaryFile(dir=tmpdir) as err:
        proc = subprocess.Popen([sys.executable, "-m", "qdet.cli", *argv], cwd=root, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(170, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = out.read().decode(), err.read().decode()
    return (proc.returncode, *text), usage.ru_maxrss


def run_cli_inprocess(argv):
    """`cli.main` on the same argv in this interpreter; an escaping
    exception is reported as the traceback the CLI would print."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qdet.cli.main(argv)
        except Exception as exc:  # the CLI would print a traceback here
            err.write(f"{TRACEBACK_MARK}:\n{type(exc).__name__}: {exc}\n")
            code = 1
    return code, out.getvalue(), err.getvalue()


def build(name, seed, smoke=False, workdir=None, root=None):
    """Return (ops, probes, sample_matrices) for a workload.

    `probes` are the defect probes, judged apart from the timed ops.
    `sample_matrices` are exact inputs whose entries feed the scalar
    unit-cost probe of the traced run.
    """
    if name == "agree_small":
        return build_agree_small(seed, smoke)
    if name == "enum_large":
        return build_enum_large(seed, smoke)
    if name == "float_oracle":
        return build_float_oracle(seed, smoke)
    if name == "cli_mixed":
        return build_cli_mixed(seed, smoke, workdir, root)
    raise ValueError(f"unknown workload {name!r}")
