"""Alternating parent/change pairs of the repository benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_16.json \\
        --workload family-spin --workload query-mix --pairs 10 --seconds 40 [--traced]

Each pair runs `python3 perfbench/run.py --workload W --seconds S` once in
each checkout, one process at a time: the parent first on odd pairs, the
change first on even ones, so a linear drift of the machine's speed falls on
both sides alike.  The last stdout line of each run is kept as that side's
result.  The summary gives, per workload and metric, the median and the
inclusive quartiles of each side, the pairs the change won (by the
direction BENCHMARK.json gives the metric) and the ratio of the medians.
With --traced, each checkout also runs each workload once with --trace 1,
and the per-layer call counts of both are kept.  The file is rewritten
after every pair, so a stopped run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 300


def run_bench(checkout: Path, workload: str, seconds: float, trace: bool = False) -> dict:
    """One run of the checkout's benchmark; its result line, or the failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", str(int(trace))]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    if proc.returncode != 0:
        result["exit"] = proc.returncode
    return result


def checkout_id(checkout: Path) -> dict:
    """The git HEAD of the checkout when its src/ is that commit's, and a
    hash of its program source either way, so a copy without history, or
    with uncommitted source, is named too."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    out = {"src_sha256": digest.hexdigest()}
    if (checkout / ".git").exists():
        git = lambda *args: subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                                           text=True)
        head, status = git("rev-parse", "HEAD"), git("status", "--porcelain", "--", "src")
        if head.returncode == status.returncode == 0 and not status.stdout:
            out["git_head"] = head.stdout.strip()
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's spread, the change's wins and the median ratio."""
    out = {}
    for name, direction in better.items():
        sides = {"parent": [], "change": []}
        wins = counted = 0
        for pair in pairs:
            got = [pair[side].get("metrics", {}).get(name, {}).get("value")
                   for side in ("parent", "change")]
            if None in got:
                continue
            parent, change = got
            sides["parent"].append(parent)
            sides["change"].append(change)
            counted += 1
            wins += change < parent if direction == "lower" else change > parent
        if not counted:
            continue
        entry = {side: spread(vals) for side, vals in sides.items()}
        entry.update(change_wins=wins, pairs=counted)
        if entry["parent"]["median"]:
            entry["median_ratio_change_over_parent"] = (
                entry["change"]["median"] / entry["parent"]["median"])
        out[name] = entry
    return out


def traced_calls(checkout: Path, workload: str) -> dict:
    result = run_bench(checkout, workload, 5, trace=True)
    if "metrics" not in result:
        return result
    calls = {name[:-len(".calls")]: int(m["value"])
             for name, m in result["metrics"].items() if name.endswith(".calls")}
    return {"correct": result["correct"], "calls": calls}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--traced", action="store_true", help="also keep traced call counts")
    ap.add_argument("--what", default="", help="one line on what the change does")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "what": args.what,
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                "PYTHONDONTWRITEBYTECODE=1 for every run; one benchmark process at a time",
        "commands": {
            "pairs": f"python3 perfbench/run.py --workload <{'|'.join(args.workload)}> "
                     f"--seconds {args.seconds:g}   (from the root of each checkout; odd "
                     "pairs run the parent first, even pairs the change first)",
            "written_by": (
                f"python3 tools/bench_pairs.py --parent <parent checkout> --change <change "
                f"checkout> {' '.join('--workload ' + w for w in args.workload)} --pairs "
                f"{args.pairs} --seconds {args.seconds:g}{' --traced' * args.traced} "
                f"--out {args.out.name}"),
        },
        "parent": checkout_id(checkouts["parent"]),
        "change": checkout_id(checkouts["change"]),
        "pairs": {w: [] for w in args.workload},
        "summary": {},
    }

    def save() -> None:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for workload in args.workload:
        for number in range(1, args.pairs + 1):
            order = ("parent", "change") if number % 2 else ("change", "parent")
            pair = {"pair": number, "first": order[0]}
            for side in order:
                pair[side] = run_bench(checkouts[side], workload, args.seconds)
            record["pairs"][workload].append(pair)
            record["summary"][workload] = summarize(record["pairs"][workload], better)
            save()
            print(f"{workload} pair {number}: " + ", ".join(
                f"{side} {pair[side].get('metrics', {}).get('throughput_per_s', {}).get('value')}"
                for side in order), flush=True)
    if args.traced:
        record["commands"]["traced"] = (
            "python3 perfbench/run.py --workload <workload> --seconds 5 --trace 1")
        record["traced_calls"] = {
            w: {side: traced_calls(path, w) for side, path in checkouts.items()}
            for w in args.workload}
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
