#!/usr/bin/env python3
"""photonmem benchmark: one workload, one run, one JSON result line.

    python3 benchmark/run.py --workload sweep_stock --seed 1 --seconds 25 --trace 0

Run from the root of a photonmem checkout; the package is imported from
``src/``.  Each run

1. sets the workload up SETUP_REPS times, each in a fresh interpreter
   (start, import numpy/scipy/photonmem, prepare the inputs from the seed),
   SETUP_BEFORE times before step 2 and the rest after it, and reports the
   median as ``setup_s``;
2. starts one more interpreter that times the workload's operation until the
   operation boundary nearest the end of the ``--seconds`` window (at least
   once) and checks every output; with ``--trace 1`` a further interpreter then runs one operation
   under the span tracer;
3. prints a summary, a ``record`` line (digests, counts, host facts), and as
   the last line a JSON object with ``correct``, ``attempted``, ``failed``
   and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics with ``--trace 1``.

Everything it writes goes under ``.bench_runs/<run id>/`` in the checkout;
inputs and outputs are deleted at the end, the record and spans are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

from workloads import WORKLOADS, tree_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh set-ups per run; the first SETUP_BEFORE run before the timed
#: operations, the rest after them, so that the median samples the host's
#: speed across the whole run
SETUP_REPS = 3
SETUP_BEFORE = 1
#: the whole run must end well inside 180 s
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 1


def run_child(argv: list[str], log: Path, deadline: float) -> tuple[float, int]:
    """Run a worker to completion (killed at the deadline); returns (seconds, code)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return 0.0, -1
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], stdout=fh, stderr=fh, cwd=ROOT)
        # a blocking wait returns as the child exits; Popen.wait(timeout)
        # polls, which rounds every time up to a 50 ms tick
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        code = proc.wait()
        seconds = time.perf_counter() - t0
        killer.cancel()
        return seconds, code


def run_work(common, run_dir: Path, name: str, seconds: float, trace: int, run_id: str, log: Path, deadline: float):
    """One worker process timing operations; returns its result or None."""
    result_file = run_dir / f"{name}.json"
    argv = [
        "work", *common,
        "--inputs", str(run_dir / "inputs0"),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--scratch", str(run_dir / f"out_{name}"),
        "--result", str(result_file),
        "--run-id", run_id,
    ]
    _, code = run_child(argv, log, deadline)
    shutil.rmtree(run_dir / f"out_{name}", ignore_errors=True)
    return json.loads(result_file.read_text()) if code == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "photonmem" / "__init__.py").is_file():
        return fail(f"no photonmem source tree at {ROOT / 'src'}; run from a photonmem checkout")
    if args.seed < 0:
        return fail("--seed must be non-negative")

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{uuid.uuid4().hex[:8]}"
    run_dir = ROOT / ".bench_runs" / run_id
    run_dir.mkdir(parents=True)
    log = run_dir / "worker.log"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_s, input_digests = [], []

    def set_up(rep: int) -> int:
        inputs = run_dir / f"inputs{rep}"
        seconds, code = run_child(["setup", *common, "--inputs", str(inputs)], log, deadline)
        if code == 0:
            setup_s.append(seconds)
            input_digests.append(tree_digest(inputs))
            if rep:
                shutil.rmtree(inputs)
        return code

    for rep in range(SETUP_BEFORE):
        if set_up(rep) != 0:
            return fail(f"set-up exited with an error; see {log}")
    work = run_work(common, run_dir, "work", args.seconds, 0, run_id, log, deadline)
    if work is None:
        return fail(f"workload exited with an error; see {log}")
    for rep in range(SETUP_BEFORE, SETUP_REPS):
        if set_up(rep) != 0:
            return fail(f"set-up exited with an error; see {log}")
    inputs_agree = all(d == input_digests[0] for d in input_digests)
    traced = None
    if args.trace:
        traced = run_work(common, run_dir, "traced", args.seconds, 1, run_id, log, deadline)
        if traced is None:
            return fail(f"traced workload exited with an error; see {log}")
    shutil.rmtree(run_dir / "inputs0")

    untraced = work["ops"]
    ops = untraced + (traced["ops"] if traced else [])
    if not inputs_agree:
        for op in ops:
            op["problems"].append("set-up repetitions prepared different inputs")
    failed = sum(1 for op in ops if op["problems"])
    walls = [op["wall_s"] for op in untraced]
    cpus = [op["cpu_s"] for op in untraced]
    ref = work["ref_kernel_s"]
    machine = work["machine"]

    print(f"run {run_id}: workload {args.workload}, seed {args.seed}, window {args.seconds:g} s, trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("setup_s reps " + " ".join(f"{s:.3f}" for s in setup_s))
    for i, op in enumerate(ops):
        tag = "traced" if i == len(untraced) else f"op {i}"
        status = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
        print(f"{tag}: wall {op['wall_s']:.3f} s, cpu {op['cpu_s']:.3f} s, output sha256 {op['digest'][:16]}, {status}")
    print(f"host reference kernel: {ref['before'] * 1e3:.2f} ms before, {ref['after'] * 1e3:.2f} ms after")
    print(f"failed_ops_ratio {failed}/{len(ops)} = {failed / len(ops):g}")
    if traced:
        if traced["absent"]:
            print("absent (reported as 0): " + ", ".join(traced["absent"]))
        print(f"spans written to {traced['spans']}")

    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digests": sorted({op["digest"] for op in ops}),
        "input_digest": input_digests[0],
        "ops": len(ops),
        "ref_kernel_s": ref,
        "machine": machine,
    }
    if traced:
        metrics = traced["per_layer"]
        # traced wall time minus the untraced median of this run
        overhead = traced["ops"][0]["wall_s"] - statistics.median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        record["absent"] = traced["absent"]
        record["counts"] = {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": work["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    (run_dir / "record.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
