#!/usr/bin/env python3
"""The qdet benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

Run from the repository root; the package is imported from ``src/``:

    python3 benchmarks/run.py --workload agree_small --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload agree_small --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20
    python3 benchmarks/run.py --workload all --smoke

One client drives the package in a closed loop: each op starts when the
previous one has finished, so the benchmark uses one core for the
program, plus one for a CLI child process at a time.  A run cycles through
its workload's fixed op list until ``--seconds`` have passed and at least
one full pass is done; a visit runs an entry ``op.repeats`` times (five
for ops that take milliseconds, else once).  Every entry's latency is the
median of its runs, and the end-to-end figures are taken over one pass of
the list in which each entry is issued ``op.repeats`` times at that
latency, so a run that ends part way through a pass, or that makes more
passes on a faster host, weighs the entries the same.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs one
untraced pass, one traced pass (`layers.Tracer`), and prints every
per-layer metric, including the tracing overhead.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines above it are a human-readable report and a ``stamp`` line.

A run fails (exit 1, ``correct`` false) when an exact output differs from
the digests recorded in ``digests.json``, when an exact op fails its check,
or when an op gives different exact output on two runs within one run.

The defect probes of a workload (see ``workloads.py``) are judged once per
run, after the timed ops, and reported apart: they count in neither
``attempted`` nor ``failed``, and are the per-layer metric ``probe.failed``.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"

SETUP_REPEATS = 10
STARTUP_REPEATS = 3
TAIL_SAMPLES_BEYOND = 10
# The tail is read from this many passes of the list: the fewest that put
# it at p90 or higher on the shortest list (25 ops).
TAIL_PASSES = 4
WORK = ROOT / ".bench_work"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("verified_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


class GateError(Exception):
    """An exact output differs from what the benchmark recorded before."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs and a short run")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QDET_MAX_N")}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_package():
    """Import qdet from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "qdet" / "__init__.py").is_file():
        print(f"benchmark: no qdet package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    os.environ.pop("QDET_MAX_N", None)
    import qdet

    if Path(qdet.__file__).resolve().parent != SRC / "qdet":
        print(f"benchmark: imported qdet from {qdet.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return qdet


# ---------------------------------------------------------------------------
# Running and judging one op
# ---------------------------------------------------------------------------


def execute(op, subprocess_cli=True):
    """Run one op; returns (seconds, output, error, peak KiB), the last
    for a CLI child process and None otherwise."""
    import workloads
    from qdet.errors import QdetError

    if op.argv is not None:
        t0 = time.perf_counter()
        if subprocess_cli:
            out, peak_kb = workloads.run_cli(op.argv, ROOT, child_env(), WORK)
        else:
            out, peak_kb = workloads.run_cli_inprocess(op.argv), None
        return time.perf_counter() - t0, out, None, peak_kb
    t0 = time.perf_counter()
    try:
        out = op.run()
    except QdetError as exc:
        return time.perf_counter() - t0, None, (workloads.REFUSED, exc), None
    except Exception as exc:  # a failure of the program under test, counted
        return time.perf_counter() - t0, None, (workloads.FAILED, exc), None
    return time.perf_counter() - t0, out, None, None


class Entry:
    """Everything one list entry produced over a run."""

    def __init__(self, op):
        self.op = op
        self.seconds = []
        self.starts = []  # perf_counter() at the start of each run
        self.outcomes = Counter()
        self.text = None  # exact output text of the first run
        self.first_outcome = None
        self.unstable = False
        self.exit_codes = Counter()
        self.tracebacks = 0
        self.peak_kb = 0  # largest CLI child of this entry

    def record(self, dt, out, error, peak_kb):
        self.seconds.append(dt)
        self.peak_kb = max(self.peak_kb, peak_kb or 0)
        return self.judge(out, error)

    def judge(self, out, error):
        import workloads

        if self.op.argv is not None:
            code, _, stderr = out
            self.exit_codes[code] += 1
            self.tracebacks += workloads.TRACEBACK_MARK in stderr
        if error is not None:
            outcome, text = error[0], f"{error[0]}: {type(error[1]).__name__}"
        else:
            text = self.op.render(out) if self.op.exact and self.op.render else None
            if text is not None and text == self.text:
                outcome = self.first_outcome
            else:
                outcome = self.op.check(out)
        if self.op.exact:
            if self.text is None:
                self.text, self.first_outcome = text, outcome
            elif text != self.text:
                self.unstable = True
        self.outcomes[outcome] += 1
        return outcome


def run_pass(entries, subprocess_cli=True):
    """One judged pass over the entries."""
    for e in entries:
        e.record(*execute(e.op, subprocess_cli))


def judge_probes(probes, subprocess_cli=True):
    """One judged pass over the defect probes; returns their entries."""
    entries = [Entry(op) for op in probes]
    run_pass(entries, subprocess_cli)
    return entries


def failed_names(entries):
    import workloads

    return sorted({e.op.name for e in entries if e.outcomes[workloads.FAILED]})


def paired_pass(ops, tracer):
    """Run each op in this interpreter twice, untraced and traced, so both
    runs of a pair see the same host speed; which goes first alternates,
    so that running second does not favour one side.  Returns the two
    total times."""
    untraced = traced = 0.0
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                untraced += execute(op, subprocess_cli=False)[0]
                continue
            tracer.op = i
            tracer.install()
            try:
                traced += execute(op, subprocess_cli=False)[0]
            finally:
                tracer.uninstall()
    return untraced, traced


def measure(entries, seconds, speed):
    """Cycle through the entries until `seconds` pass and one pass is done,
    sampling the host-speed kernel all along.  A visit runs an entry
    `op.repeats` times, whatever the host speed."""
    start = time.perf_counter()
    runs = 0
    passes = 0
    with speed.sampling():
        while True:
            for i, e in enumerate(entries):
                for _ in range(e.op.repeats):
                    speed.maybe_sample()
                    stolen = speed.stolen
                    t0 = time.perf_counter()
                    dt, out, error, peak_kb = execute(e.op)
                    e.starts.append(t0)
                    e.record(dt - (speed.stolen - stolen), out, error, peak_kb)
                    runs += 1
                if (passes or i == len(entries) - 1) and time.perf_counter() - start >= seconds:
                    speed.sample()
                    return runs
            passes += 1


def scaled(entries, speed):
    """Per entry, its run times scaled to the nominal host speed."""
    return [[dt * speed.factor(t0, t0 + dt) for dt, t0 in zip(e.seconds, e.starts)] for e in entries]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def gate_digest(name, workdir):
    """Digest of the exact outputs of the smoke-size list at seed 0, run
    in-process; recorded in digests.json and checked by every run."""
    import workloads

    ops, _, _ = workloads.build(name, 0, smoke=True, workdir=workdir / "gate", root=ROOT)
    entries = [Entry(op) for op in ops if op.exact]
    if not entries:
        return None
    run_pass(entries, subprocess_cli=False)
    if any(e.outcomes[workloads.FAILED] for e in entries):
        raise GateError(f"{name}: an exact op of the gate list failed its check")
    return workloads.digest(e.text for e in entries)


def check_gate(name, workdir):
    recorded = load_digests()["gate"].get(name)
    got = gate_digest(name, workdir)
    if recorded is not None and got != recorded:
        raise GateError(f"{name}: gate digest {got} differs from the recorded {recorded}")
    return got


def outputs_digest(entries):
    """Digest of every exact op's output text; None without exact ops."""
    import workloads

    texts = [e.text for e in entries if e.op.exact]
    return workloads.digest(texts) if texts else None


def check_outputs(name, seed, smoke, digest):
    if smoke:
        return
    recorded = load_digests()["outputs"].get(name, {}).get(str(seed))
    if recorded is not None and digest != recorded:
        raise GateError(f"{name} seed {seed}: outputs digest {digest} differs from the recorded {recorded}")


def exact_problems(entries):
    import workloads

    bad = [e.op.name for e in entries if e.op.exact and (e.unstable or e.outcomes[workloads.FAILED])]
    if bad:
        return "exact ops failed their check or changed output between runs: " + ", ".join(sorted(set(bad)))
    return None


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_probe(args):
    """Child of `measure_setup`: import, build the inputs, warm up once."""
    import_package()
    import workloads

    ops, _, _ = workloads.build(args.workload, args.seed, args.smoke, Path(args.workdir), ROOT)
    if ops[0].argv is None:
        execute(ops[0])


def children_cpu_s():
    """User plus system CPU time of every child process reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(args, workdir, warmup_op, repeats):
    """Set-up time: a fresh interpreter that imports qdet, builds the
    inputs and finishes one warm-up op (a CLI warm-up op is a second fresh
    interpreter, run after the probe).

    The start-up kernel runs before the first probe and after each one.  A
    probe's CPU time is scaled by the mean CPU time of the two kernel runs
    beside it: CPU time leaves out time spent waiting for the CPU, and the
    kernel scales out the host's speed.  Returns the median scaled probe
    and the median raw wall time."""
    import hostspeed

    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    env = child_env()

    def timed(work):
        cpu0, t0 = children_cpu_s(), time.perf_counter()
        work()
        return children_cpu_s() - cpu0, time.perf_counter() - t0

    def probe():
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=170)
        if warmup_op.argv is not None:
            execute(warmup_op)

    kernel_cpu = [timed(lambda: hostspeed.startup_kernel(env, ROOT))[0]]
    probes = []
    for _ in range(repeats):
        probes.append(timed(probe))
        kernel_cpu.append(timed(lambda: hostspeed.startup_kernel(env, ROOT))[0])
    scaled_cpu = [cpu * hostspeed.STARTUP_NOMINAL_S / ((k0 + k1) / 2)
                  for (cpu, _), k0, k1 in zip(probes, kernel_cpu, kernel_cpu[1:])]
    return statistics.median(scaled_cpu), statistics.median(wall for _, wall in probes)


def cli_startup(repeats):
    """Median wall time of a fresh interpreter that imports qdet.cli."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qdet.cli"], cwd=ROOT, env=child_env(), check=True,
                       timeout=170)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def latency_summary(samples, repeats):
    """ops/s and p50 over one pass of the list, in which entry i is issued
    repeats[i] times at the median of its run times samples[i]; and the
    tail, the highest percentile that still has TAIL_SAMPLES_BEYOND of the
    samples of TAIL_PASSES such passes above it."""
    one_pass = sorted(statistics.median(s) for s, r in zip(samples, repeats) for _ in range(r))
    tail = sorted(one_pass * TAIL_PASSES)
    k = max(0, len(tail) - 1 - TAIL_SAMPLES_BEYOND)
    return {
        "ops_per_s": len(one_pass) / sum(one_pass),
        "latency_p50_ms": statistics.median(one_pass) * 1e3,
        "latency_tail_ms": tail[k] * 1e3,
        "tail_percentile": round(100.0 * (k + 1) / len(tail), 2),
        "samples": len(tail),
    }


def outcome_totals(entries):
    """Counts over all runs; the rates are per entry, each entry's share
    of failed (verified) runs weighted by its repeats as in the latencies,
    so how many runs an entry got does not move them."""
    import workloads

    total = Counter()
    for e in entries:
        total.update(e.outcomes)
    weight = sum(e.op.repeats for e in entries)

    def rate(outcome):
        return sum(e.op.repeats * e.outcomes[outcome] / sum(e.outcomes.values()) for e in entries) / weight

    return {
        "attempted": sum(total.values()),
        "failed": total[workloads.FAILED],
        "refused": total[workloads.REFUSED],
        "verified": total[workloads.VERIFIED],
        "error_rate": rate(workloads.FAILED),
        "verified_rate": rate(workloads.VERIFIED),
    }


def max_coef_bits(entries):
    """Largest integer, as bits, in any exact output text."""
    bits = [int(tok).bit_length() for e in entries if e.text for tok in re.findall(r"\d+", e.text)]
    return max(bits, default=0)


def mul_unit_ns(matrices, to_float):
    """Median ns per Hamilton product over operand pairs from the inputs."""
    qs = [q for m in matrices for row in m.entries() for q in row]
    if to_float:
        qs = [q.to_float() for q in qs]
    pairs = list(zip(qs, qs[1:] + qs[:1]))[:64]
    loops = max(1, 2000 // len(pairs))
    samples = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            for x, y in pairs:
                x * y
        samples.append((time.perf_counter_ns() - t0) / (loops * len(pairs)))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Stamp and output
# ---------------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "qdet").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(args, **extra):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "clients": 1,
        "loop": "closed",
        **extra,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(record):
    """Print the report lines, the stamp and the final JSON line."""
    for line in record["report"]:
        print(line)
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print(json.dumps(record["result"]))


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_end_to_end(args, workdir):
    import hostspeed
    import workloads

    cli = args.workload == "cli_mixed"
    ops, probes, _ = workloads.build(args.workload, args.seed, args.smoke, workdir, ROOT)
    setup_s, setup_raw = measure_setup(args, workdir, ops[0], 1 if args.smoke else SETUP_REPEATS)
    gate = check_gate(args.workload, workdir)
    execute(ops[0])  # warm-up, untimed
    entries = [Entry(op) for op in ops]
    speed = hostspeed.for_subprocess(child_env(), ROOT) if cli else hostspeed.for_inprocess()
    runs = measure(entries, args.seconds, speed)
    digest = outputs_digest(entries)
    check_outputs(args.workload, args.seed, args.smoke, digest)
    repeats = [e.op.repeats for e in entries]
    raw = latency_summary([e.seconds for e in entries], repeats)
    lat = latency_summary(scaled(entries, speed), repeats)
    totals = outcome_totals(entries)
    values = {
        "setup_s": setup_s,
        "ops_per_s": lat["ops_per_s"],
        "latency_p50_ms": lat["latency_p50_ms"],
        "latency_tail_ms": lat["latency_tail_ms"],
        "verified_rate": totals["verified_rate"],
        "peak_rss_mb": (max(e.peak_kb for e in entries) if cli
                        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0,
    }
    probe_failed = failed_names(judge_probes(probes))
    problem = exact_problems(entries)
    n = len(entries)
    per_pass = sum(repeats)
    report = [
        f"qdet benchmark: workload {args.workload}, seed {args.seed}, one closed-loop client, "
        f"{n} ops in the list, {per_pass} runs per pass, {runs} ops run",
        f"  times are scaled to the nominal host speed, raw wall-clock figures in brackets "
        f"(reference kernel median {speed.median_seconds() * 1e3:.3f} ms, nominal {speed.nominal * 1e3:.3f} ms)",
        f"  setup_s          {setup_s:12.4f} s      [{setup_raw:.4f}] median of "
        f"{1 if args.smoke else SETUP_REPEATS} fresh interpreters' CPU time, each scaled by the start-up kernel runs "
        f"beside it",
        f"  ops_per_s        {values['ops_per_s']:12.4f} 1/s    [{raw['ops_per_s']:.4f}] over one pass "
        f"({per_pass} runs of {n} ops, each op at the median of its runs)",
        f"  latency_p50_ms   {values['latency_p50_ms']:12.3f} ms     [{raw['latency_p50_ms']:.3f}]",
        f"  latency_tail_ms  {values['latency_tail_ms']:12.3f} ms     [{raw['latency_tail_ms']:.3f}] "
        f"p{lat['tail_percentile']} of {lat['samples']} samples ({TAIL_SAMPLES_BEYOND} beyond it; "
        f"{TAIL_PASSES} passes)",
        f"  error_rate       {totals['error_rate']:12.4f} ratio  per op; {totals['failed']} runs failed "
        f"of {totals['attempted']}",
        f"  verified_rate    {totals['verified_rate']:12.4f} ratio  per op; {totals['verified']} runs verified, "
        f"{totals['refused']} typed refusals",
        f"  peak_rss_mb      {values['peak_rss_mb']:12.2f} MB     "
        + ("largest CLI child" if cli else "benchmark process"),
        f"  correctness gate {'FAIL: ' + problem if problem else 'pass'} (gate digest {gate}, "
        f"outputs digest {digest})",
    ]
    failed_ops = failed_names(entries)
    if failed_ops:
        report.append("  failed ops: " + ", ".join(failed_ops))
    if probes:
        report.append(f"  defect probes    {len(probe_failed)} of {len(probes)} failed, judged once apart from "
                      f"the timed ops" + (": " + ", ".join(probe_failed) if probe_failed else ""))
    result = {
        "correct": problem is None,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: metric(values[name], unit) for name, unit in END_TO_END},
    }
    return {
        "report": report,
        "stamp": stamp(args, samples=lat["samples"], ops=n, runs=runs, tail_percentile=lat["tail_percentile"],
                       outputs_digest=digest, gate_digest=gate, error_rate=totals["error_rate"],
                       refused=totals["refused"], probes=len(probes), probes_failed=len(probe_failed),
                       raw={"setup_s": setup_raw, **raw},
                       reference_kernel_s=speed.median_seconds()),
        "result": result,
    }


def run_traced(args, workdir):
    import layers
    import workloads

    ops, probes, samples = workloads.build(args.workload, args.seed, args.smoke, workdir, ROOT)
    gate = check_gate(args.workload, workdir)
    cli = args.workload == "cli_mixed"
    execute(ops[0])  # warm-up, untimed
    entries = [Entry(op) for op in ops]
    run_pass(entries)  # judged, and for cli_mixed in fresh interpreters
    probe_entries = judge_probes(probes)
    digest = outputs_digest(entries)
    check_outputs(args.workload, args.seed, args.smoke, digest)
    # Warm, in this interpreter (cli.main for CLI ops).
    tracer = layers.Tracer()
    untraced_s, traced_s = paired_pass(ops, tracer)
    untraced = len(ops) / untraced_s
    values = tracer.summary()
    exit_codes, tracebacks = Counter(), 0
    for e in entries + probe_entries:
        exit_codes.update(e.exit_codes)
        tracebacks += e.tracebacks
    values.update({
        "scalar.mul_ns_exact": mul_unit_ns(samples, to_float=False),
        "scalar.mul_ns_float": mul_unit_ns(samples, to_float=True),
        "scalar.max_coef_bits": max_coef_bits(entries),
        "cli.startup_s": cli_startup(1 if args.smoke else STARTUP_REPEATS) if cli else 0.0,
        "cli.tracebacks": tracebacks,
        "probe.failed": len(failed_names(probe_entries)),
        "trace.untraced_ops_per_s": untraced,
        "trace.ops_per_s": len(entries) / traced_s,
    })
    for code in range(4):
        values[f"cli.exit.{code}"] = exit_codes[code]
    values["trace.overhead_ratio"] = untraced / values["trace.ops_per_s"]
    totals = outcome_totals(entries)
    problem = exact_problems(entries)
    report = [f"qdet benchmark, traced: workload {args.workload}, seed {args.seed}, {len(entries)} ops, "
              f"one judged pass, then each op untraced and traced in-process"]
    report += [f"  {name:32s} {values[name]:16.6g} {unit}" for name, unit in layers.PER_LAYER]
    report.append(f"  tracing overhead: traced pass ran at {1 / values['trace.overhead_ratio']:.3f} "
                  f"of the untraced ops/s")
    report.append(f"  correctness gate {'FAIL: ' + problem if problem else 'pass'}")
    result = {
        "correct": problem is None,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: metric(values[name], unit) for name, unit in layers.PER_LAYER},
    }
    return {
        "report": report,
        "stamp": stamp(args, samples=len(entries), outputs_digest=digest, gate_digest=gate,
                       error_rate=totals["error_rate"]),
        "result": result,
    }


def pin_to_one_cpu():
    """Keep the ops, the reference kernel and the CLI children on one CPU,
    so the kernel measures the speed the ops see."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args):
    pin_to_one_cpu()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = (run_traced if args.trace else run_end_to_end)(args, workdir)
    except GateError as exc:
        print(f"benchmark: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(record)
    return 0 if record["result"]["correct"] else 1


def run_all(args):
    """Every workload in turn, each in its own process (so peak memory is
    per workload); prints each report and one combined JSON line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            code = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_package()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        print(f"benchmark: unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}, all",
              file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
