"""In-memory span tracer that wraps photonmem's public functions from outside.

Each target function is replaced at every module attribute of the loaded
``photonmem`` package that refers to it, so a call is recorded whichever
name it goes through (``pipeline.mle_photon_distribution`` and
``estimation.mle_photon_distribution`` are one span name).  Spans are kept in
memory as ``(id, name, start, end, parent)`` tuples and written out once the
run is over.  A target that does not exist in the traced code is reported as
absent; the tracer never fails on it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# span name -> (module, function)
TARGETS = {
    "pipeline.run_sweep": ("photonmem.pipeline", "run_sweep"),
    "pipeline.estimate_frames": ("photonmem.pipeline", "estimate_frames"),
    "pipeline.emit_figure_data": ("photonmem.pipeline", "emit_figure_data"),
    "cli.cli_entry": ("photonmem.cli", "cli_entry"),
    "cavity.simulate_release": ("photonmem.cavity", "simulate_release"),
    "synth.synth_condition": ("photonmem.synth", "synth_condition"),
    "synth.save_frames": ("photonmem.synth", "save_frames"),
    "synth.load_frames": ("photonmem.synth", "load_frames"),
    "synth.extract_quadratures": ("photonmem.synth", "extract_quadratures"),
    "synth.bin_frames": ("photonmem.synth", "bin_frames"),
    "seeds.stream": ("photonmem.seeds", "stream"),
    "estimation.mle": ("photonmem.estimation", "mle_photon_distribution"),
    "estimation.bootstrap_purity": ("photonmem.estimation", "bootstrap_purity"),
    "estimation.build_tomography_report": ("photonmem.estimation", "build_tomography_report"),
    "estimation.matched_window_pca": ("photonmem.estimation", "matched_window_pca"),
    "estimation.autocovariance": ("photonmem.estimation", "autocovariance"),
    "estimation.fit_exponential_decay": ("photonmem.estimation", "fit_exponential_decay"),
    "fock.hermite_functions": ("photonmem.fock", "hermite_functions"),
    "fock.wigner_section": ("photonmem.fock", "wigner_section"),
    "modes.detuned_effective_mode": ("photonmem.modes", "detuned_effective_mode"),
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


# Counter hooks: (counters, args, kwargs, result, failed) -> None.  They read
# results defensively so that a changed return type shows as a missing
# counter (see ``Tracer.absent``) rather than an exception inside the program.
def _mle_hook(counters, args, kwargs, result, failed):
    if failed:
        counters["estimation.mle.failed"] += 1
        return
    counters["estimation.mle.ok"] += 1
    for attr, key in (("n_evals", "estimation.mle.evals"), ("converged", "estimation.mle.converged")):
        value = getattr(result, attr, None)
        if value is not None:
            counters[key] += int(value)
            counters[key + ".seen"] += 1


def _synth_hook(counters, args, kwargs, result, failed):
    n = getattr(result, "n_frames", None)
    if n is not None:
        counters["synth.frames"] += int(n)
        counters["synth.frames.seen"] += 1


def _save_hook(counters, args, kwargs, result, failed):
    counters["synth.file.bytes"] += _file_size(_arg(args, kwargs, 1, "path"))


def _load_hook(counters, args, kwargs, result, failed):
    counters["synth.file.bytes"] += _file_size(_arg(args, kwargs, 0, "path"))


def _emit_hook(counters, args, kwargs, result, failed):
    if result is not None:
        counters["pipeline.emit.bytes"] += sum(_file_size(p) for p in result)


HOOKS = {
    "estimation.mle": _mle_hook,
    "synth.synth_condition": _synth_hook,
    "synth.save_frames": _save_hook,
    "synth.load_frames": _load_hook,
    "pipeline.emit_figure_data": _emit_hook,
}


class Tracer:
    """Records spans for the TARGETS while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result, failed = None, True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent))
                if hook is not None:
                    with self._lock:
                        hook(self.counters, args, kwargs, result, failed)

        return traced

    def install(self) -> None:
        modules = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == "photonmem" or mod_name.startswith("photonmem."))
        ]
        for name, (mod_name, fn_name) in TARGETS.items():
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------------- summary

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: total duration, call count and self time.

        Self time is a span's duration minus the union of its direct
        children's intervals.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent:
                children[parent].append((start, end))
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            self_time[name] += (end - start) - _union_length(children.get(span_id, ()))
        return total, calls, self_time

    def write(self, path, header: dict) -> None:
        """Write the run header and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header, "absent": self.absent}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent]) + "\n")


def _union_length(intervals) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
