"""Smoke tests of the benchmark itself; run with

    python3 -m pytest benchmarks

Every workload runs at its tiny smoke size, in both modes, and must print
every metric of BENCHMARK.json with its unit and pass the correctness gate.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import qdet  # noqa: E402
from qdet import QMatrix, Quaternion  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_tracer_rebinds_every_call_site():
    originals = {name: getattr(qdet.geninv, name) for name in ("rank", "index_of", "mat_pow", "cdet", "rdet")}
    tracer = layers.Tracer().install()
    try:
        assert tracer.unhooked() == []
        for name, orig in originals.items():
            assert getattr(qdet.geninv, name) is not orig
    finally:
        tracer.uninstall()
    for name, orig in originals.items():
        assert getattr(qdet.geninv, name) is orig
    assert tracer.unhooked() != []  # the originals are back


def test_tracer_counts_a_known_case():
    p, q = Quaternion(1, 2, 0, 0), Quaternion(0, 1, 1, 1)
    a = QMatrix.from_literals([["1", "i", "0"], ["j", "2", "k"], ["0", "1", "1"]])
    tracer = layers.Tracer().install()
    try:
        p * q
        p - q  # one count, whether or not __sub__ is built on __add__
        2 * p  # one count, whether or not __rmul__ is built on __mul__
        p + 1
        assert (tracer.counts["scalar.mul"], tracer.counts["scalar.add"]) == (2, 2)
        QMatrix.identity(2) @ QMatrix.identity(2)
        qdet.rdet(2, a)
        qdet.drazin(a, "cdet")  # reaches rank and index_of through geninv's own bindings
    finally:
        tracer.uninstall()
    times = tracer.times()
    assert times["matrix.matmul"][0] >= 1
    assert times["ncdet.det"][0] >= 1 and tracer.counts["ncdet.terms"] >= 6
    assert times["geninv.drazin.cdet"][0] == 1
    assert times["matrix.index_of"][0] >= 1 and times["matrix.rank"][0] >= 1


def test_self_time_sums_to_root_spans():
    a = QMatrix.from_literals([["1", "i"], ["j", "0"], ["1", "k"]])
    tracer = layers.Tracer().install()
    try:
        qdet.mp_inverse(a, "all")
    finally:
        tracer.uninstall()
    own = sum(t[1] for t in tracer.times().values())
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1) / 1e9
    assert own == pytest.approx(roots, rel=1e-9)


def test_gate_rejects_a_changed_digest(tmp_path, monkeypatch):
    got = run.gate_digest("enum_large", tmp_path)
    monkeypatch.setattr(run, "load_digests", lambda: {"gate": {"enum_large": "0" * 64}, "outputs": {}})
    with pytest.raises(run.GateError):
        run.check_gate("enum_large", tmp_path)
    monkeypatch.setattr(run, "load_digests", lambda: {"gate": {"enum_large": got}, "outputs": {}})
    assert run.check_gate("enum_large", tmp_path) == got


def test_latency_figures_weigh_each_op_by_its_repeats():
    lat = run.latency_summary([[0.01, 0.02, 0.01], [1.0]], [5, 1])
    assert lat["ops_per_s"] == pytest.approx(6 / 1.05)
    assert lat["latency_p50_ms"] == pytest.approx(10.0)
    # 27 ops at 0.1 s and 3 at 1 s: four passes hold 12 slow samples, so
    # the tail (ten beyond it) falls on the slow ops, at p91.67 of 120.
    lat = run.latency_summary([[0.1]] * 27 + [[1.0, 2.0, 1.0]] * 3, [1] * 30)
    assert (lat["latency_tail_ms"], lat["tail_percentile"], lat["samples"]) == (1000.0, 91.67, 120)


def test_rates_are_per_op_not_per_run():
    cheap, slow = workloads.Op("cheap"), workloads.Op("slow")
    entries = [run.Entry(cheap), run.Entry(slow)]
    entries[0].outcomes[workloads.VERIFIED] = 4
    entries[1].outcomes[workloads.FAILED] = 1
    totals = run.outcome_totals(entries)
    assert (totals["attempted"], totals["failed"]) == (5, 1)
    assert (totals["error_rate"], totals["verified_rate"]) == (0.5, 0.5)


@pytest.mark.parametrize("smoke", [True, False])
def test_defect_probes_stay_out_of_the_timed_lists(smoke, tmp_path):
    for name in workloads.NAMES:
        ops, probes, _ = workloads.build(name, 1, smoke, tmp_path / name, ROOT)
        assert not any(op.name.startswith("probe") for op in ops)
        assert all(op.name.startswith("probe") for op in probes)
        assert bool(probes) == (name in ("float_oracle", "cli_mixed"))


def test_cli_child_reports_its_own_peak_memory(tmp_path):
    path = tmp_path / "A.qmat"
    path.write_text(qdet.cli.format_qmat(QMatrix.identity(2)))
    (code, stdout, stderr), peak_kb = workloads.run_cli(["info", "-i", str(path)], ROOT, run.child_env(), tmp_path)
    assert code == 0 and "rank" in stdout and stderr == ""
    assert 1024 < peak_kb < 1024 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5", "--smoke",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    report = "\n".join(lines[:-1])
    for m in spec:
        assert m["name"] in report
    assert "correctness gate pass" in report


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "agree_small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_scales_by_the_local_kernel_time():
    import hostspeed

    import statistics

    speed = hostspeed.HostSpeed(lambda: None, nominal=2.0, interval=0.1, window=1.0,
                                average=statistics.median, use_signal=False)
    speed.samples = [(0.0, 1.0), (0.5, 1.0), (10.0, 4.0), (12.0, 4.0)]
    assert speed.factor(0.1, 0.2) == 2.0  # twice as fast as nominal nearby
    assert speed.factor(10.3, 10.4) == 0.5
    assert speed.factor(8.5, 13.5) == 0.5  # a long op: every sample over its span
    assert speed.factor(5.0, 5.1) == 2.0  # no sample within the window: the nearest one
