"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/batch.py --seeds 1-10 [--workload query-mix ...] [--out FILE]

For every workload and metric this prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  With --out the per-run values and summaries are
written as JSON.  Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT
from run import WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    doc = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            context = next((json.loads(l[len("# context "):]) for l in lines
                            if l.startswith("# context ")), None)
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}", file=sys.stderr)
                continue
            runs.append({"seed": seed, "context": context,
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        summary = {}
        for entry in bench["end_to_end"]:
            name = entry["name"]
            values = [r["metrics"][name] for r in runs]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": entry["bound"], "unit": entry["unit"]}
            print(f"{w:12s} {name:18s} median {med:10.5g} {entry['unit']:5s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {(q3 - q1) / med:6.3f} "
                  f"(bound {entry['bound']})", flush=True)
        doc["workloads"][w] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
