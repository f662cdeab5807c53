"""One fresh interpreter per benchmark step; started by run.py.

    worker.py setup --workload W --seed N --inputs DIR
        import numpy, scipy and photonmem, then prepare the workload's inputs.
    worker.py work --workload W --seed N --seconds S --trace 0|1 --inputs DIR
                   --scratch DIR --result FILE --run-id ID
        time the workload's operation on the prepared inputs (for S seconds,
        or once under the tracer), check every output and write the
        measurements as JSON.

The source tree is taken from ``<checkout>/src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402
import scipy  # noqa: E402

import photonmem  # noqa: E402,F401
import photonmem.cli  # noqa: E402,F401  (loads every photonmem module the CLI reaches)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, tree_digest  # noqa: E402

#: safety cap on operations per run, whatever the window
MAX_OPS = 50

# (metric, unit, kind, source span); kind: total | self | calls | counter name
PER_LAYER = [
    ("pipeline.run_sweep.s", "s", "total", "pipeline.run_sweep"),
    ("pipeline.self_s", "s", "self", "pipeline.run_sweep"),
    ("pipeline.estimate_frames.s", "s", "total", "pipeline.estimate_frames"),
    ("pipeline.emit_figure_data.s", "s", "total", "pipeline.emit_figure_data"),
    ("pipeline.emit.bytes", "bytes", "pipeline.emit.bytes", "pipeline.emit_figure_data"),
    ("cli.cli_entry.s", "s", "total", "cli.cli_entry"),
    ("cli.self_s", "s", "self", "cli.cli_entry"),
    ("cavity.simulate_release.s", "s", "total", "cavity.simulate_release"),
    ("cavity.simulate_release.calls", "count", "calls", "cavity.simulate_release"),
    ("synth.synth_condition.s", "s", "total", "synth.synth_condition"),
    ("synth.frames", "count", "synth.frames", "synth.synth_condition"),
    ("seeds.stream.calls", "count", "calls", "seeds.stream"),
    ("seeds.stream.s", "s", "total", "seeds.stream"),
    ("synth.save_frames.s", "s", "total", "synth.save_frames"),
    ("synth.load_frames.s", "s", "total", "synth.load_frames"),
    ("synth.file.bytes", "bytes", "synth.file.bytes", "synth.save_frames"),
    ("synth.extract_quadratures.s", "s", "total", "synth.extract_quadratures"),
    ("synth.extract_quadratures.calls", "count", "calls", "synth.extract_quadratures"),
    ("synth.bin_frames.s", "s", "total", "synth.bin_frames"),
    ("estimation.mle.calls", "count", "calls", "estimation.mle"),
    ("estimation.mle.s", "s", "total", "estimation.mle"),
    ("estimation.mle.evals", "count", "estimation.mle.evals", "estimation.mle"),
    ("estimation.mle.converged_ratio", "ratio", "estimation.mle.converged", "estimation.mle"),
    ("estimation.mle.failed", "count", "estimation.mle.failed", "estimation.mle"),
    ("estimation.bootstrap_purity.s", "s", "total", "estimation.bootstrap_purity"),
    ("estimation.build_tomography_report.s", "s", "total", "estimation.build_tomography_report"),
    ("estimation.matched_window_pca.s", "s", "total", "estimation.matched_window_pca"),
    ("estimation.autocovariance.s", "s", "total", "estimation.autocovariance"),
    ("estimation.fit_exponential_decay.s", "s", "total", "estimation.fit_exponential_decay"),
    ("fock.hermite_functions.calls", "count", "calls", "fock.hermite_functions"),
    ("fock.hermite_functions.s", "s", "total", "fock.hermite_functions"),
    ("fock.wigner_section.s", "s", "total", "fock.wigner_section"),
    ("modes.detuned_effective_mode.s", "s", "total", "modes.detuned_effective_mode"),
]

#: counters that exist only if the traced function's result carries them
_SEEN_COUNTERS = {"estimation.mle.evals", "estimation.mle.converged", "synth.frames"}


def reference_kernel_s() -> float:
    """Median time of a fixed numpy kernel: shows host-speed drift, scales nothing."""
    rng = numpy.random.Generator(numpy.random.Philox(12345))
    a = rng.standard_normal((300, 300))
    times = []
    for _ in range(8):
        t0 = time.perf_counter()
        for _ in range(10):
            b = a @ a
        numpy.sort(rng.standard_normal(100_000))
        float(b[0, 0])
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])  # the first pass warms BLAS up


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_op(workload, inputs: Path, out: Path) -> dict:
    """One timed operation: from the first call into photonmem to the last
    output file written.  Errors count as a failed operation."""
    out.mkdir(parents=True)
    error = None
    value = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        value = workload.run(inputs, out)
    except Exception:  # the benchmark records any failure of the program
        error = traceback.format_exc(limit=5)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": _cpu_s() - cpu0, "value": value, "error": error, "out": out}


def finish_op(workload, op: dict) -> dict:
    """Check and digest an operation's outputs, then delete them."""
    problems = [op["error"]] if op["error"] else []
    if not problems:
        try:
            problems = workload.check(op["value"], op["out"])
        except Exception:
            problems = ["output check raised:\n" + traceback.format_exc(limit=5)]
    digest = tree_digest(op["out"])
    shutil.rmtree(op["out"])
    return {"wall_s": op["wall_s"], "cpu_s": op["cpu_s"], "digest": digest, "problems": problems}


def per_layer(tracer: Tracer) -> tuple[dict, list[str]]:
    total, calls, self_time = tracer.totals()
    counters = tracer.counters
    metrics, absent = {}, []
    for name, unit, kind, source in PER_LAYER:
        if source in tracer.absent:
            absent.append(name)
            value = 0
        elif kind == "total":
            value = total.get(source, 0.0)
        elif kind == "self":
            value = self_time.get(source, 0.0)
        elif kind == "calls":
            value = calls.get(source, 0)
        else:
            if kind in _SEEN_COUNTERS and calls.get(source, 0) and not counters.get(kind + ".seen"):
                absent.append(name)
            value = counters.get(kind, 0)
            if unit == "ratio":
                seen = counters.get(kind + ".seen", 0)
                value = value / seen if seen else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def cmd_setup(args) -> int:
    args.inputs.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload].prepare(args.inputs, args.seed)
    return 0


def cmd_work(args) -> int:
    """Untraced operations until the end of the window (at least one), or
    with ``--trace 1`` exactly one operation under the tracer."""
    workload = WORKLOADS[args.workload]
    ref_before = reference_kernel_s()
    result = {"machine": machine_record()}
    if args.trace:
        tracer = Tracer(args.run_id)
        tracer.install()
        try:
            op = run_op(workload, args.inputs, args.scratch / "traced")
        finally:
            tracer.uninstall()
        # checks run after uninstall, so their calls are not traced
        done = [finish_op(workload, op)]
        metrics, absent = per_layer(tracer)
        spans_path = args.result.with_name("spans.jsonl")
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed})
        result.update(per_layer=metrics, absent=absent, spans=str(spans_path))
    else:
        ops = []
        start = time.perf_counter()
        while True:
            ops.append(run_op(workload, args.inputs, args.scratch / f"op{len(ops)}"))
            elapsed = time.perf_counter() - start
            typical = statistics.median(op["wall_s"] for op in ops)
            # end at the operation boundary nearest the end of the window
            if len(ops) >= MAX_OPS or elapsed + typical / 2 > args.seconds:
                break
        # read before the checks, which load outputs back
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = [finish_op(workload, op) for op in ops]
    result["ops"] = done
    result["ref_kernel_s"] = {"before": ref_before, "after": reference_kernel_s()}
    args.result.write_text(json.dumps(result, indent=1))
    return 0


def machine_record() -> dict:
    """Host and library facts that decide how fast the numerics run."""
    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + str(deps[k].get("version")) for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        pass
    threads = {
        k: v
        for k, v in os.environ.items()
        if k.endswith("_NUM_THREADS") or k in ("OMP_DYNAMIC", "OPENBLAS_CORETYPE", "GOTO_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": threads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = ap.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "work"):
        sub = modes.add_parser(mode)
        sub.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--inputs", type=Path, required=True)
    work = modes.choices["work"]
    work.add_argument("--seconds", type=float, required=True)
    work.add_argument("--trace", type=int, choices=(0, 1), required=True)
    work.add_argument("--scratch", type=Path, required=True)
    work.add_argument("--result", type=Path, required=True)
    work.add_argument("--run-id", required=True)
    args = ap.parse_args()
    return cmd_setup(args) if args.mode == "setup" else cmd_work(args)


if __name__ == "__main__":
    sys.exit(main())
