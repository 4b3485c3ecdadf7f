"""One workload in one fresh process: a closed loop of in-process calls.

A single client calls `qcsim.cli.main(argv)` back to back over the
workload's pass of calls, pass after pass, until --seconds have gone by.
Before timing it makes one untimed warm-up call per subcommand.  Every
call's outputs are checked (checks.py); only the `cli.main` call itself
is timed.  The peak RSS reported is this process's own.

With --trace 0, every call is followed by a share of speed-probe work
(SpeedProbe): fixed pure-Python and small-numpy work, independent of
qcsim, whose time tracks how fast the shared host runs at that moment.
Each set-up and cold process is bracketed by speed-probe work too.  run.py
uses these times to correct the timed metrics for the host's speed.

With --trace 1 the passes alternate between untraced and traced, so
the tracing overhead is measured on the same calls; per-layer metrics
come from the traced passes only.

Writes its raw samples as JSON to --result; run.py turns them into
metrics.  Run it through run.py, from the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

sys.path.insert(0, str(Path("src").resolve()))

import checks  # noqa: E402
import workloads  # noqa: E402

CALIBRATION_ITERATIONS = 1_000_000
PROBE_SHARE = 0.15  # speed-probe work after each warm call, as a share of the call's time
COLD_PROBE_S = 0.05  # speed-probe work before and after each set-up or cold process
CHILD_TIMEOUT_S = 60
SETUP_SNIPPET = "import sys, qcsim.cli; from qcsim.circuit import load_device; load_device(sys.argv[1])"


def blas_info(np) -> dict:
    """BLAS vendor and version from numpy's build config, and the thread
    count the loaded OpenBLAS reports (None if it cannot be read)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"vendor": vendor, "threads": threads}


def fingerprint(np) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(Path("src").rglob("*.py"))
    )
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i
    calibration_s = time.perf_counter() - started
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(np),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "qcs_threads": os.environ.get("QCS_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines,
        "calibration_s": calibration_s,
        "calibration_iterations": CALIBRATION_ITERATIONS,
    }


class SpeedProbe:
    """Fixed work that does not touch qcsim, run between timed calls: a
    pure-Python loop and float formatting (like the CLI's sweep loops and
    CSV writer) and a small symmetric eigh and Kronecker product (like
    the exact-ZZ kernel).  Its time per unit measures the host's speed
    next to the program's calls."""

    def __init__(self, np):
        matrix = np.cos(np.arange(64 * 64, dtype=float).reshape(64, 64))
        self.matrix = matrix + matrix.T
        self.small = np.sin(np.arange(64, dtype=float).reshape(8, 8))
        self.floats = [i / 7.0 for i in range(600)]
        self.np = np

    def _unit(self) -> None:
        acc = 0
        for i in range(12_000):
            acc += i * i % 7
        ",".join(f"{x:.9g}" for x in self.floats)
        self.np.linalg.eigh(self.matrix)
        self.np.kron(self.small, self.small)

    def run_for(self, budget_s: float) -> Tuple[int, float]:
        """Run whole units until `budget_s` is spent (at least one);
        return (units, seconds)."""
        started = time.perf_counter()
        units = 0
        while not units or time.perf_counter() - started < budget_s:
            self._unit()
            units += 1
        return units, time.perf_counter() - started

    def unit_s(self, budget_s: float) -> float:
        """Seconds per unit over one batch of `budget_s`."""
        units, seconds = self.run_for(budget_s)
        return seconds / units


class Loop:
    """Runs calls, checks what they wrote, and tallies failures."""

    def __init__(self, cli, checker: checks.Checker, reference):
        self.cli = cli
        self.checker = checker
        self.reference = reference
        self.hashes = {}
        self.verdicts = {}  # failed points of each call's full check
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, call: workloads.Call) -> float:
        """Call `qcs` once, check its outputs, return the call's wall time."""
        started = time.perf_counter()
        try:
            rc = self.cli.main(list(call.argv))
        except Exception as exc:  # an unexpected crash fails the call, not the run
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        self.attempted += call.points
        failed, problems = self._verify(call, rc)
        self.failed += failed
        line = f"{' '.join(call.argv)}: {'; '.join(problems)}"
        if problems and len(self.problems) < 20 and line not in self.problems:
            self.problems.append(line)
        return elapsed

    def _verify(self, call, rc):
        key = checks.reference_key(call)
        if key not in self.hashes:
            failed, problems = self.checker.check(call, rc)
            if rc == 0 and self.reference is not None:
                ref_problems = checks.compare_reference(call, self.reference.get(key))
                if ref_problems:
                    failed, problems = call.points, problems + ref_problems
            self.hashes[key] = checks.data_hash(call) if rc == 0 else None
            self.verdicts[key] = failed
            return failed, problems
        if rc != 0:
            return call.points, [f"exit code {rc}"]
        if checks.data_hash(call) != self.hashes[key]:
            return call.points, ["rerun output differs from the first run"]
        if call.subcommand == "validate":
            return self.checker.check(call, rc)
        # Byte-identical to the first run, so its check result stands.
        return self.verdicts[key], []


class ColdProbe:
    """Fresh processes, one at a time: `setup_s` imports qcsim.cli and
    loads the workload's first config; `cold_s` runs the representative
    call through `python -m qcsim.cli`, whose data file must match the
    warm run's byte for byte and so shares the warm run's check result.
    Speed-probe work runs before, between and after the two processes;
    each process's `*_unit_s` is the mean of the batches around it."""

    def __init__(self, call: workloads.Call, want_hash, verdict: int, speed: SpeedProbe):
        out = call.out + "_cold"
        self.call = workloads.Call(call.subcommand, tuple(out if a == call.out else a for a in call.argv),
                                   call.points, call.config, out)  # fmt: skip
        self.want_hash = want_hash
        self.verdict = verdict
        self.speed = speed
        self.failed = 0
        self.setup_s, self.cold_s, self.problems = [], [], []
        self.setup_unit_s, self.cold_unit_s = [], []

    @staticmethod
    def _timed(argv):
        started = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)  # fmt: skip
        return time.perf_counter() - started, proc

    def run_pair(self) -> None:
        before = self.speed.unit_s(COLD_PROBE_S)
        t, proc = self._timed([sys.executable, "-c", SETUP_SNIPPET, self.call.config])
        between = self.speed.unit_s(COLD_PROBE_S)
        self.setup_s.append(t)
        self.setup_unit_s.append((before + between) / 2)
        if proc.returncode != 0:
            self.problems.append(f"set-up process exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        t, proc = self._timed([sys.executable, "-m", "qcsim.cli", *self.call.argv])
        self.cold_s.append(t)
        self.cold_unit_s.append((between + self.speed.unit_s(COLD_PROBE_S)) / 2)
        if proc.returncode != 0:
            self.failed += self.call.points
            self.problems.append(f"cold call exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif checks.data_hash(self.call) != self.want_hash:
            self.failed += self.call.points
            self.problems.append("cold call output differs from the warm run's")
        else:
            self.failed += self.verdict


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import numpy as np
    import qcsim
    import qcsim.cli as cli

    if Path(qcsim.__file__).resolve().parents[1] != Path("src").resolve():
        print(f"qcsim imported from {qcsim.__file__}, not from ./src", file=sys.stderr)
        return 2

    spec = workloads.WORKLOADS[args.workload]
    calls = workloads.build_plan(args.workload, args.seed, Path(args.work_dir))
    reference = checks.load_reference(args.workload) if args.seed == workloads.REFERENCE_SEED else None
    loop = Loop(cli, checks.Checker(qcsim), reference)
    record = {"fingerprint": fingerprint(np)}

    tracer = speed = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        speed = SpeedProbe(np)

    samples, pass_times, pass_points, ratios = [], [], [], []
    pass_probe = []  # speed-probe seconds per unit, per timed pass
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        seen = set()
        for call in calls:  # untimed warm-up, one call per subcommand
            if call.subcommand not in seen:
                seen.add(call.subcommand)
                loop.run(call)
        cold = None
        if not args.trace:
            key = checks.reference_key(calls[0])
            cold = ColdProbe(calls[0], loop.hashes[key], loop.verdicts[key], speed)
        started = time.perf_counter()
        while not pass_times or time.perf_counter() - started < args.seconds:
            # At most one set-up/cold pair before each pass, on a schedule
            # that spreads cold_reps pairs evenly over the run.
            if cold is not None and len(cold.cold_s) < spec.cold_reps * (time.perf_counter() - started) / args.seconds:
                cold.run_pair()
            times, probe_units, probe_s = [], 0, 0.0
            for call in calls:
                times.append(loop.run(call))
                if speed is not None:
                    units, seconds = speed.run_for(PROBE_SHARE * times[-1])
                    probe_units, probe_s = probe_units + units, probe_s + seconds
            if speed is not None:
                pass_probe.append(probe_s / probe_units)
            if tracer is not None:
                tracer.install()
                try:
                    traced = [loop.run(call) for call in calls]
                finally:
                    tracer.uninstall()
                ratios.append(sum(traced) / sum(times))
            samples.extend(times)
            pass_times.append(sum(times))
            pass_points.append(sum(c.points for c in calls))
        while cold is not None and len(cold.cold_s) < spec.cold_reps:
            cold.run_pair()
        measured_s = time.perf_counter() - started

    record.update(
        calls=len(calls),
        pass_points=pass_points,
        pass_times=pass_times,
        call_times=samples,
        measured_s=measured_s,
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems,
        hashes=loop.hashes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if cold is not None:
        record.update(
            setup_s=cold.setup_s,
            cold_s=cold.cold_s,
            setup_unit_s=cold.setup_unit_s,
            cold_unit_s=cold.cold_unit_s,
        )
        record["attempted"] += cold.call.points * spec.cold_reps
        record["failed"] += cold.failed
        record["problems"] += list(dict.fromkeys(cold.problems))
    if speed is not None:
        record["pass_probe_unit_s"] = pass_probe
    if tracer is not None:
        record["per_layer"] = tracer.metrics(len(ratios), statistics.median(ratios))
        record["absent"] = tracer.absent
        record["spans"] = len(tracer.ids)
        tracer.write_spans(Path(args.work_dir).parent / "traces" / args.workload)
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
