#!/usr/bin/env python3
"""How steady the benchmark is: run one workload ten times, each with
another seed and for run_seconds of BENCHMARK.json, and print for every
end-to-end metric its median, quartiles and spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.

    python3 bench/steady.py --workload stream [--first-seed 1]
        [--against .bench_out/steady-stream.json]

Each set is saved to .bench_out/steady-<workload>.json; `--against` a saved
set also prints how far each median moved, in the metric's worse direction,
and whether the share of failed operations is the same. Each run's line
shows its control loop rate too, which tells machine drift apart from a
changed program. The set is steady if every spread, that of setup_s too,
is within its bound, and, against an earlier set, no median is worse by
more than its bound and the share of failed operations is the same.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
RUNS = 10


def run_once(workload, seed):
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    control = re.search(r"control_ops_per_s=(\d+)", proc.stdout)
    return json.loads(lines[-1]), control and int(control.group(1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", type=Path, help="a set saved by an earlier run")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        res, control = run_once(args.workload, seed)
        results.append(res)
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {values} control_ops_per_s={control}",
              flush=True)

    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    base = shares[0]
    same_share = all(f * base[1] == base[0] * a for f, a in shares)
    verdict = "one share" if same_share else "SHARES DIFFER"
    print(f"failed/attempted: {shares} ({verdict})")
    summary = {"workload": args.workload, "failed_share": list(base),
               "metrics": {}}
    earlier = json.loads(args.against.read_text()) if args.against else None
    ok = same_share and all(r["correct"] for r in results)
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        line = (f"{name:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                f"spread={spread:.4f} bound={bound} spread/bound={spread / bound:.2f}")
        ok = ok and spread <= bound
        if earlier:
            before = earlier["metrics"][name]["median"]
            worse = (med - before) / before
            if metric["better"] == "higher":
                worse = -worse
            line += f" worse_than_earlier={worse:+.4f}"
            ok = ok and worse <= bound
        print(line)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    if earlier:
        before = earlier["failed_share"]
        ok = ok and before[0] * base[1] == base[0] * before[1]
    OUT.mkdir(exist_ok=True)
    saved = OUT / f"steady-{args.workload}.json"
    saved.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
