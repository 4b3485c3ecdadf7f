"""Per-layer tracing from outside the program.

A Tracer wraps the public functions listed in WRAPPED on every `qcsim`
module attribute that binds them (cli.py holds its own `from .x import
f` bindings, so patching only the defining module would miss those
calls).  Each wrapped call records a span -- name, start, end, parent
span, whether it raised -- in flat in-memory arrays; spans are written
out once, at the end of the run.  Wrappers are installed only around
traced passes and removed after each.

A function that no longer exists is reported as absent: its metrics
read 0 and it is named in the run's output, instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

WRAPPED: Dict[str, Tuple[str, ...]] = {
    "cli": ("main",),
    "circuit": ("load_device", "qubit_spectrum"),
    "modes": ("solve_dispersion", "flux_for_frequency", "tuning_band"),
    "coupling": ("switch_off", "effective_coupling"),
    "crosstalk": ("zz_report", "zz_perturbative", "zz_exact", "build_hamiltonian", "label_spectrum"),
    "dynamics": ("leakage_sweep", "evolve_two_level"),
    "sweeps": ("map_points", "write_csv", "write_sidecar", "write_json_atomic"),
}

SPAN_NAMES: Tuple[str, ...] = tuple(f"{layer}.{f}" for layer, fs in WRAPPED.items() for f in fs)


def per_layer_specs() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order.  Counts
    and times are per pass over the workload's calls."""
    specs: List[Tuple[str, str]] = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s"), (f"{name}.errors", "count")]
    specs += [(f"{layer}.self_s", "s") for layer in WRAPPED]
    specs += [
        ("coupling.effective_coupling.per_switch_off", "ratio"),
        ("modes.solve_dispersion.per_inversion", "ratio"),
        ("crosstalk.matrix_dim", "count"),
        ("crosstalk.matrix_bytes_computed", "B"),
        ("sweeps.write_csv.bytes", "B"),
        ("sweeps.write_sidecar.bytes", "B"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.absent_functions", "count"),
    ]
    return specs


def _path_size(args, kwargs) -> int:
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


class Tracer:
    def __init__(self) -> None:
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = array("b")
        self._stack: List[int] = []
        self.matrix_dims: List[int] = []
        self.bytes_written = {"sweeps.write_csv": 0, "sweeps.write_sidecar": 0}
        self.originals: Dict[str, Callable] = {}
        self.absent: List[str] = []
        for layer, names in WRAPPED.items():
            try:
                module = importlib.import_module(f"qcsim.{layer}")
            except ImportError:
                module = None
            for f in names:
                fn = getattr(module, f, None)
                if callable(fn):
                    self.originals[f"{layer}.{f}"] = fn
                else:
                    self.absent.append(f"{layer}.{f}")
        self._wrappers = {
            id(fn): self._wrap(SPAN_NAMES.index(name), fn, self._observer(name))
            for name, fn in self.originals.items()
        }
        self._patched: List[Tuple[object, str, Callable]] = []

    def _observer(self, name: str) -> Optional[Callable]:
        if name == "crosstalk.build_hamiltonian":
            return lambda args, kwargs, result: self.matrix_dims.append(int(result.shape[0]))
        if name in self.bytes_written:

            def count_bytes(args, kwargs, result):
                self.bytes_written[name] += _path_size(args, kwargs)

            return count_bytes
        return None

    def _wrap(self, nid: int, fn: Callable, observe: Optional[Callable]) -> Callable:
        ids, parents, starts, ends, errors, stack = (
            self.ids, self.parents, self.starts, self.ends, self.errors, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qcsim" or mod_name.startswith("qcsim.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write_spans(self, directory: Path) -> None:
        """One raw native-endian file per span column plus names.json;
        span i's parent is row parents[i] (-1 for a root span)."""
        directory.mkdir(parents=True, exist_ok=True)
        for column in ("ids", "parents", "starts", "ends", "errors"):
            with open(directory / f"{column}.{getattr(self, column).typecode}", "wb") as handle:
                getattr(self, column).tofile(handle)
        (directory / "names.json").write_text(json.dumps(SPAN_NAMES), encoding="utf-8")

    def metrics(self, passes: int, overhead_ratio: float) -> Dict[str, float]:
        """Per-layer metrics, per traced pass over the workload's calls."""
        n = len(self.ids)
        ids, parents = self.ids, self.parents
        dur = array("d", (e - s for s, e in zip(self.starts, self.ends)))
        child = array("d", bytes(8 * n))
        k = len(SPAN_NAMES)
        calls, incl, self_s, errs = [0] * k, [0.0] * k, [0.0] * k, [0] * k
        switch_off = SPAN_NAMES.index("coupling.switch_off")
        inversion = SPAN_NAMES.index("modes.flux_for_frequency")
        coupling = SPAN_NAMES.index("coupling.effective_coupling")
        dispersion = SPAN_NAMES.index("modes.solve_dispersion")
        under_switch = bytearray(n)
        under_inversion = bytearray(n)
        coupling_in_switch = dispersion_in_inversion = 0
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                under_switch[i] = ids[p] == switch_off or under_switch[p]
                under_inversion[i] = ids[p] == inversion or under_inversion[p]
            coupling_in_switch += ids[i] == coupling and under_switch[i]
            dispersion_in_inversion += ids[i] == dispersion and under_inversion[i]
        for i in range(n):
            j = ids[i]
            calls[j] += 1
            incl[j] += dur[i]
            self_s[j] += dur[i] - child[i]
            errs[j] += self.errors[i]
        out: Dict[str, float] = {}
        per = 1.0 / max(passes, 1)
        for j, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[j] * per
            out[f"{name}.s"] = incl[j] * per
            out[f"{name}.self_s"] = self_s[j] * per
            out[f"{name}.errors"] = errs[j] * per
        for layer in WRAPPED:
            out[f"{layer}.self_s"] = sum(
                self_s[j] for j, name in enumerate(SPAN_NAMES) if name.startswith(layer + ".")
            ) * per
        out["coupling.effective_coupling.per_switch_off"] = coupling_in_switch / max(calls[switch_off], 1)
        out["modes.solve_dispersion.per_inversion"] = dispersion_in_inversion / max(calls[inversion], 1)
        out["crosstalk.matrix_dim"] = float(max(self.matrix_dims, default=0))
        out["crosstalk.matrix_bytes_computed"] = sum(d * d * 8 for d in self.matrix_dims) * per
        out["sweeps.write_csv.bytes"] = self.bytes_written["sweeps.write_csv"] * per
        out["sweeps.write_sidecar.bytes"] = self.bytes_written["sweeps.write_sidecar"] * per
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.absent_functions"] = float(len(self.absent))
        return out
