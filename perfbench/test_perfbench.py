"""Self-tests of the benchmark harness (fast; no timing is asserted).

Run from the checkout root:  python -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.UNITS.items())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.per_layer_specs()


def test_tail_is_the_eleventh_slowest():
    samples = [float(i) for i in range(100)]
    random.Random(1).shuffle(samples)
    value, pct = run.tail(samples)
    assert value == 89.0 and pct == pytest.approx(90.0)
    assert run.tail(samples[:10]) is None


def test_host_speed_correction_cancels_a_slower_host():
    def record(slowdown):
        return {
            "calls": 2,
            "call_times": [0.010 * slowdown, 0.030 * slowdown] * 2,
            "pass_times": [0.040 * slowdown] * 2,
            "pass_points": [5, 5],
            "pass_probe_unit_s": [run.PROBE_UNIT_S * slowdown] * 2,
            "cold_s": [0.5 * slowdown],
            "cold_unit_s": [run.PROBE_UNIT_S * slowdown],
            "setup_s": [0.2 * slowdown],
            "setup_unit_s": [run.PROBE_UNIT_S * slowdown],
            "peak_rss_mb": 40.0,
        }

    fast, slow = run.summarize(record(1.0), True), run.summarize(record(1.7), True)
    for name in ("points_per_s", "call_p50_ms", "cold_call_s", "setup_s"):
        assert slow[name] == pytest.approx(fast[name])
    assert fast["points_per_s"] == pytest.approx(125.0) and fast["call_p50_ms"] == pytest.approx(20.0)
    assert run.summarize(record(1.7), False)["call_p50_ms"] == pytest.approx(34.0)


def test_plan_is_seeded_and_in_regime(tmp_path, in_root):
    import qcsim

    first = workloads.build_plan("device_scan", 3, tmp_path / "a")
    again = workloads.build_plan("device_scan", 3, tmp_path / "b")
    other = workloads.build_plan("device_scan", 4, tmp_path / "c")
    text = lambda calls: [Path(c.config).read_text() for c in calls]  # noqa: E731
    assert text(first) == text(again) != text(other)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # in the soft regime: no RegimeWarning at load
        for call in first[:: len(workloads.WORKLOADS["device_scan"].steps)]:
            dev = qcsim.load_device(call.config)
            s1, s2 = qcsim.qubit_spectrum(dev.qubit1), qcsim.qubit_spectrum(dev.qubit2)
            splitting = qcsim.angular_to_ghz(s2.omega - s1.omega)
            assert 0.08 < splitting < 0.125
            assert abs(splitting) < abs(qcsim.angular_to_ghz(s1.alpha)) - 0.06


def test_tracer_patches_every_binding_and_restores(in_root):
    import qcsim.cli
    import qcsim.circuit
    import qcsim.coupling

    original = qcsim.coupling.effective_coupling
    tracer = tracing.Tracer()
    assert tracer.absent == []
    tracer.install()
    try:
        assert qcsim.cli.effective_coupling is not original
        assert qcsim.coupling.effective_coupling is qcsim.cli.effective_coupling
        assert qcsim.effective_coupling is qcsim.cli.effective_coupling
        dev = qcsim.circuit.load_device("src/qcsim/data/reference_device.json")
        qcsim.coupling.switch_off(dev)
    finally:
        tracer.uninstall()
    assert qcsim.cli.effective_coupling is original
    metrics = tracer.metrics(passes=1, overhead_ratio=1.0)
    assert metrics["coupling.switch_off.calls"] == 1
    assert metrics["coupling.effective_coupling.per_switch_off"] > 100
    assert metrics["modes.solve_dispersion.per_inversion"] > 1
    assert metrics["coupling.switch_off.self_s"] < metrics["coupling.switch_off.s"]
    assert set(metrics) == {name for name, _ in tracing.per_layer_specs()}


def test_tracer_reports_missing_function_as_absent(monkeypatch, in_root):
    import qcsim.modes

    monkeypatch.delattr(qcsim.modes, "tuning_band")
    tracer = tracing.Tracer()
    assert tracer.absent == ["modes.tuning_band"]
    assert tracer.metrics(passes=1, overhead_ratio=1.0)["trace.absent_functions"] == 1.0


def test_checks_catch_a_broken_output(tmp_path, in_root):
    import qcsim
    import qcsim.cli

    calls = workloads.build_plan("leakage_map", 0, tmp_path)
    call = workloads.Call(
        subcommand="leakage",
        argv=("leakage", "--amp", "3.9:4.3:5", "--ncz", "1:4:4", "--config", calls[0].config, "--out", calls[0].out),
        points=20,
        config=calls[0].config,
        out=calls[0].out,
    )
    assert qcsim.cli.main(list(call.argv)) == 0
    checker = checks.Checker(qcsim)
    assert checker.check(call, 0) == (0, [])
    csv = Path(call.out) / "leakage.csv"
    lines = csv.read_text().splitlines()
    cells = lines[3].split(",")
    cells[3] = str(float(cells[3]) + 1e-3)  # p_leak off the Rabi formula
    lines[3] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    failed, problems = checker.check(call, 0)
    assert failed == 1 and problems
    assert checker.check(call, 2)[0] == 20
