"""qcsim benchmark: one seeded workload through the `qcs` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload zz_map --seed 0 --seconds 35 --trace 0

Workloads (see workloads.py for why each exists): zz_map, device_scan,
leakage_map.  Load model: one closed-loop client.  A fresh worker
process calls `qcsim.cli.main(argv)` in-process, back to back, for
--seconds; between passes, spread evenly over the run, it spawns the
set-up and cold-call processes one at a time (worker.py).  QCS_THREADS
and the BLAS thread count are left as found and recorded.

--trace 0 prints the end-to-end metrics:

    points_per_s  sweep grid points completed per second of warm
                  in-process call time, over all timed passes of the
                  workload's call list
    call_p50_ms   median wall time of one warm cli.main call
    call_tail_ms  highest percentile of call time with >= 10 calls
                  beyond it (the 11th slowest call); percentile and
                  count are printed
    cold_call_s   median wall time of a fresh `python -m qcsim.cli`
                  process running the workload's representative call
    setup_s       median wall time of a fresh process that imports
                  qcsim.cli and loads the workload's first config
    peak_rss_mb   peak RSS of the worker process that ran the workload

and, on its own line, fail_ratio: failed points over attempted points,
the same counts the result's `failed` and `attempted` carry.

Host-speed correction.  On a shared host (a 2-vCPU Intel Xeon slice)
the same code's raw medians spread 12-24% between ten 35-s runs and
drift by up to 40% over minutes, close to or past the 25% bounds in
BENCHMARK.json; corrected, the same runs spread 2-10%.
So every timing above is reported at a fixed host speed: each sample
is multiplied by PROBE_UNIT_S over the time per unit of the worker's
speed probe (fixed work that does not touch qcsim) run next to it.  A
change to qcsim moves the corrected values as it moves the raw ones;
a slower or faster host moves the probe too and cancels out.  The raw
wall-time values are printed in brackets beside the corrected ones.

--trace 1 runs the worker with tracing.py's wrappers on alternate
passes and prints the per-layer metrics instead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Scratch files go under .perfbench_work/
in the checkout; per-run records and trace spans stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import tracing
import workloads
from workloads import WORKLOADS

WORK_ROOT = Path(".perfbench_work")
WORKER_SLACK_S = 150  # worker time allowed beyond --seconds
TAIL_BEYOND = 10
# Seconds one speed-probe unit (worker.SpeedProbe) takes at the host
# speed the timed metrics are reported at; about its median on a 2-vCPU
# Intel Xeon host.  A fixed scale: changing it rescales every timing.
PROBE_UNIT_S = 1.5e-3

UNITS = {
    "points_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "cold_call_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def summarize(rec: dict, corrected: bool) -> Dict[str, object]:
    """End-to-end values from a worker record.  With `corrected`, every
    time is scaled by PROBE_UNIT_S over the speed-probe time per unit
    measured next to it: a warm call by its pass's probe, a set-up or
    cold process by the probe batches around it.  Without, raw wall
    times."""

    def scales(key: str, count: int) -> List[float]:
        return [PROBE_UNIT_S / u for u in rec[key]] if corrected else [1.0] * count

    pass_scale = scales("pass_probe_unit_s", len(rec["pass_times"]))
    n = rec["calls"]
    call_ms = [t * 1e3 * pass_scale[i // n] for i, t in enumerate(rec["call_times"])]
    pass_s = [t * k for t, k in zip(rec["pass_times"], pass_scale)]
    values = {
        "call_ms": call_ms,
        "points_per_s": sum(rec["pass_points"]) / sum(pass_s),
        "call_p50_ms": statistics.median(call_ms),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    for name, key in (("cold_call_s", "cold"), ("setup_s", "setup")):
        samples = rec[f"{key}_s"]
        values[name] = statistics.median(t * k for t, k in zip(samples, scales(f"{key}_unit_s", len(samples))))
    tail_ms = tail(call_ms)
    if tail_ms is not None:
        values["call_tail_ms"] = tail_ms[0]
    return values


def tail(samples: List[float]) -> Tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not Path("src/qcsim/cli.py").is_file():
        print("error: run from the root of a qcsim checkout (src/qcsim/cli.py not found)", file=sys.stderr)
        return 2
    run_started = time.perf_counter()
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)

    result_path = work / "worker.json"
    worker = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", str(work), "--result", str(result_path),
    ]  # fmt: skip
    proc = subprocess.run(worker, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=args.seconds + WORKER_SLACK_S)  # fmt: skip
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return 3
    rec = json.loads(result_path.read_text(encoding="utf-8"))
    attempted, failed, problems = rec["attempted"], rec["failed"], list(rec["problems"])

    spec = WORKLOADS[args.workload]
    fp = rec["fingerprint"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
    print(
        f"machine: nproc {fp['nproc']}, BLAS {fp['blas']['vendor']} threads {fp['blas']['threads']} "
        f"(env {fp['blas_env'] or 'default'}), QCS_THREADS {fp['qcs_threads'] or 'unset'}, "
        f"Python {fp['python']}, numpy {fp['numpy']}"
    )
    print(
        f"src lines {fp['src_lines']}; calibration loop {fp['calibration_iterations']:,} iterations in "
        f"{fp['calibration_s']:.3f} s (diagnostic only)"
    )
    print(
        f"input: {spec.variants} device variants x {len(spec.steps)} calls = {rec['calls']} calls, "
        f"{rec['pass_points'][0]} grid points per pass; {len(rec['pass_times'])} passes, "
        f"{len(rec['call_times'])} timed calls in {rec['measured_s']:.1f} s"
    )

    if len(rec["pass_times"]) > 1:
        q = statistics.quantiles(rec["pass_times"], n=4)
        print(f"noise: pass call time quartiles {q[0]:.3f} / {q[1]:.3f} / {q[2]:.3f} s "
              f"(IQR {(q[2] - q[0]) / q[1]:.1%} of the median)")  # fmt: skip

    metrics: Dict[str, dict] = {}
    if args.trace:
        for name, unit in tracing.per_layer_specs():
            metrics[name] = {"value": rec["per_layer"][name], "unit": unit}
        layers = sorted(((k, rec["per_layer"][f"{k}.self_s"]) for k in tracing.WRAPPED), key=lambda kv: -kv[1])
        total = sum(v for _, v in layers) or 1.0
        print("self time per pass by layer: " + ", ".join(f"{k} {v * 1e3:.1f} ms ({v / total:.0%})" for k, v in layers))
        share = sum(v for k, v in layers if k in spec.stressed)
        others = max(v for k, v in layers if k not in spec.stressed)
        print(f"stressed layer {'+'.join(spec.stressed)}: {share / total:.0%} of self time, "
              f"{'leads' if share > others else 'does NOT lead'} every other layer")  # fmt: skip
        print(f"trace overhead ratio {metrics['trace.overhead_ratio']['value']:.3f}; {rec['spans']} spans kept")
        print("absent functions: " + (", ".join(rec["absent"]) or "none"))
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        raw, fixed = summarize(rec, False), summarize(rec, True)
        call_ms = fixed["call_ms"]
        tail_ms = tail(call_ms)
        values = {name: fixed[name] for name in UNITS if name in fixed}
        print(
            f"host speed: probe unit {statistics.median(rec['pass_probe_unit_s']) * 1e3:.3f} ms median over passes, "
            f"times below are at {PROBE_UNIT_S * 1e3:g} ms per unit (raw values in brackets)"
        )
        notes = {
            "points_per_s": f"{sum(rec['pass_points'])} points in {sum(rec['pass_times']):.2f} s of calls",
            "call_p50_ms": f"{len(call_ms)} calls",
            "call_tail_ms": (
                f"p{tail_ms[1]:.2f}, {TAIL_BEYOND} of {len(call_ms)} calls beyond it"
                if tail_ms else f"omitted: only {len(call_ms)} calls"
            ),
            "cold_call_s": f"median of {len(rec['cold_s'])}: qcs {' '.join(spec.steps[0][0])}",
            "setup_s": f"median of {len(rec['setup_s'])}: import qcsim.cli + load_device",
            "peak_rss_mb": "worker process",
        }
        for name in notes:
            if name in raw and name != "peak_rss_mb":
                notes[name] = f"[{raw[name]:.6g}] " + notes[name]
        for name in UNITS:
            if name in values:
                metrics[name] = {"value": values[name], "unit": UNITS[name]}
                print(f"{name:<13} = {values[name]:.6g} {UNITS[name]}  ({notes[name]})")
            else:
                print(f"{name:<13}   {notes[name]}")
        print(f"{'fail_ratio':<13} = {failed / attempted:.6g} ratio  ({failed} of {attempted} points)")

    for line in problems:
        print(f"problem: {line}")
    print(f"run wall time {time.perf_counter() - run_started:.1f} s")
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps({"worker": rec, "metrics": metrics}), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
