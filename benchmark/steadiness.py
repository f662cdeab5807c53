#!/usr/bin/env python3
"""Steadiness check for the benchmark: spread across seeds, exact repeats.

    python3 benchmark/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 benchmark/steadiness.py --workloads synth_imperfect --seeds 1 2 3 4 5 \\
        --compare .bench_runs/steadiness-<earlier>.json

For each workload it runs ``benchmark/run.py`` once per seed (tracing off) and
reports, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median from ``statistics.quantiles(values, n=4)`` against the
bound in BENCHMARK.json.  It then repeats the first seed, untraced and twice
traced, and asserts that output digests and every exact count (calls, frames,
evaluations, bytes) are identical between runs of one seed.  With
``--compare`` it also checks that no median got worse than an earlier set's
by more than the bound, and that seeds run in both sets gave the same output
digests.  Results are saved under ``.bench_runs/``; the exit
code is 1 if any assertion or bound fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record = next(json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record "))
    return {"result": json.loads(lines[-1]), "record": record}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--compare", type=Path, help="saved result of an earlier set")
    args = ap.parse_args()
    earlier = json.loads(args.compare.read_text()) if args.compare else None

    ok = True
    saved: dict = {}
    for wl in args.workloads:
        runs = [run(wl, s, args.seconds, 0) for s in args.seeds]
        bad = [r["record"]["run_id"] for r in runs if not r["result"]["correct"]]
        if bad:
            ok = False
            print(f"{wl}: FAILED outputs in {bad}")
        saved[wl] = {"medians": {}, "runs": runs}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            saved[wl]["medians"][name] = med
            s = spread(values) if len(values) > 1 else 0.0
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            ok &= s <= bound
            line = f"{wl:16s} {name:12s} median {med:10.4f}  spread {s:6.3f}  bound {bound}  {verdict}"
            if earlier and wl in earlier:
                prev = earlier[wl]["medians"][name]
                worse = (med - prev) / prev
                line += f"  vs earlier {worse:+.3f}" + (" WORSE THAN BOUND" if worse > bound else "")
                ok &= worse <= bound
            print(line, flush=True)
        if earlier and wl in earlier:
            before = {r["record"]["seed"]: r["record"]["digests"] for r in earlier[wl]["runs"]}
            differ = [r["record"]["seed"] for r in runs if before.get(r["record"]["seed"], r["record"]["digests"]) != r["record"]["digests"]]
            ok &= not differ
            print(f"{wl:16s} output digests equal to the earlier set's, seed by seed: {'yes' if not differ else f'NO for seeds {differ}'}")

        seed = args.seeds[0]
        again = run(wl, seed, args.seconds, 0)
        traced = [run(wl, seed, args.seconds, 1) for _ in range(2)]
        digests = [runs[0]["record"]["digests"], again["record"]["digests"]] + [t["record"]["digests"] for t in traced]
        same_digest = all(d == digests[0] and len(d) == 1 for d in digests)
        counts = [t["record"]["counts"] for t in traced]
        if earlier and "repeat" in earlier.get(wl, {}) and earlier[wl]["runs"][0]["record"]["seed"] == seed:
            counts.append(earlier[wl]["repeat"]["traced"][0]["record"]["counts"])
        same_counts = all(c == counts[0] for c in counts)
        ok &= same_digest and same_counts
        overhead = [t["result"]["metrics"]["trace.overhead_s"]["value"] for t in traced]
        print(f"{wl:16s} seed {seed}: output digest repeats {'yes' if same_digest else 'NO'}, "
              f"exact counts repeat {'yes' if same_counts else 'NO'}, trace.overhead_s {overhead}")
        print(f"{wl:16s} counts {json.dumps(counts[0], sort_keys=True)}", flush=True)
        saved[wl]["repeat"] = {"again": again, "traced": traced}

    out = ROOT / ".bench_runs" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(saved, indent=1))
    print(f"saved {out}; {'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
