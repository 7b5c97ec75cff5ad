"""spincover benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload family-spin --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all            # every workload, summary by name

Run from the root of a checkout; the program is imported from ./src.  All
load comes from one process at a time, with `--threads 1` and no pool.
Every CLI command of the family workloads, and the request stream of
`query-mix`, runs in a fresh worker interpreter (perfbench/worker.py), so
caches start cold.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the metric names and units
come from BENCHMARK.json.  Design and baseline: perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, DEFAULT_SEED, GOLDEN, ROOT, RUN_DIR, SRC, latency_summary

WORKER = BENCH_DIR / "worker.py"
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_PROBES = 11
# A family workload's latency sample is the time per census record over a
# slice of RECORDS_PER_SLICE consecutive records.  Single record gaps are a
# mixture (one cross-check plus however many invalid candidates precede it),
# so their percentiles jump between modes from run to run.
RECORDS_PER_SLICE = 10
# Tail percentile reported as latency_tail_ms, and the samples a run needs for
# ten of them to lie beyond it.  query-mix reports p99, which heavy 5- to
# 7-factor requests set.
TAIL_Q = {"family-spin": 90.0, "sample-w3": 90.0, "query-mix": 99.0}
MIN_SAMPLES = {"family-spin": 100, "sample-w3": 100, "query-mix": 1000}
WORKLOADS = tuple(TAIL_Q)
CALIBRATION_N = 300_000


def family_argv(workload: str, seed: int, index: int, census: str) -> list[str]:
    if workload == "family-spin":
        args = ["--omega", "1,2,4", "--check", "spin"]
    else:
        args = ["--omega", "3,3,3", "--check", "w3", "--sample", "200",
                "--seed", str(seed + index)]
    return ["verify", *args, "--threads", "1", "--json", "--census", census]



class WorkerError(RuntimeError):
    pass


def spawn(task: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from spawn to ready, its result).

    The worker is killed if it is still running at `deadline`
    (a time.perf_counter() value).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(task)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker timed out: {task['kind']}")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker failed with exit {proc.returncode}: {task['kind']}")
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1]) if lines else None


def probes(n: int, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until spincover.cli is imported."""
    return [spawn({"kind": "probe"}, deadline)[0] for _ in range(n)]


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: machine speed next to the metrics."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_N):
            acc = (acc * 31 + i) & 0xFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_context() -> dict:
    status = git("status", "--porcelain")
    return {
        "git_head": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "calibration_s": calibration_s(),
    }


def check_family(workload: str, seed: int, res: dict) -> list[str]:
    """Output checks of one family command; an empty list when all pass."""
    gold = GOLDEN[workload]
    s = res["summary"] or {}
    want = {"code": 0, "valid": gold["valid"], "discrepancies": 0, "records": gold["valid"]}
    got = {"code": res["code"], "valid": s.get("valid"),
           "discrepancies": s.get("discrepancies"), "records": res["matrices"]}
    counts = s.get("counts", {})
    if workload == "family-spin" or seed == gold["seed"]:
        for key, val in gold["counts"].items():
            want[key], got[key] = val, counts.get(key)
        want["digest"], got["digest"] = gold["digest"], res["digest"]
    return [f"{k}: got {got[k]!r}, want {want[k]!r}" for k in want if got[k] != want[k]]


# Untraced, traced, traced, untraced on the same input: a linear drift of the
# machine's speed cancels out of the measured tracing overhead.
TRACE_LEGS = (False, True, True, False)


def run_family(workload: str, seed: int, seconds: float, work: str, trace: bool, context: dict,
               deadline: float):
    """Commands, each in a fresh worker, until `seconds` have passed and there
    are enough latency samples; when tracing, TRACE_LEGS on the first input."""
    results, failures, failed = [], [], 0
    began = time.perf_counter()
    while True:
        index = len(results)
        sample_index = 0 if trace else index
        census = os.path.join(work, f"census-{index}.jsonl")
        task = {"kind": "family", "census": census,
                "argv": family_argv(workload, seed, sample_index, census),
                "trace": trace and TRACE_LEGS[index], "context": context,
                "trace_out": str(RUN_DIR / f"trace-{workload}-{seed}.json")}
        res = spawn(task, deadline)[1]
        wrong = check_family(workload, seed + sample_index, res)
        failed += bool(wrong)
        failures += [f"command {index}: {msg}" for msg in wrong]
        results.append(res)
        if trace:
            if len(results) == len(TRACE_LEGS):
                break
        elif (time.perf_counter() - began >= seconds
              and len(latency_samples(results)) >= MIN_SAMPLES[workload]):
            break
    return results, len(results), failed, failures


def run_queries(seed: int, seconds: float, work: str, trace: bool, context: dict,
                deadline: float):
    """One stream of at least MIN_SAMPLES requests lasting `seconds`; when
    tracing, TRACE_LEGS over the first MIN_SAMPLES requests."""
    base = {"kind": "queries", "seed": seed, "dir": work, "context": context,
            "trace_out": str(RUN_DIR / f"trace-query-mix-{seed}.json")}
    least = MIN_SAMPLES["query-mix"]
    if trace:
        tasks = [dict(base, trace=t, seconds=0, min_requests=least, max_requests=least)
                 for t in TRACE_LEGS]
    else:
        tasks = [dict(base, trace=False, seconds=seconds, min_requests=least, max_requests=10**9)]
    gold = GOLDEN["query-mix"]
    results, failures, attempted, failed = [], [], 0, 0
    for task in tasks:
        res = spawn(task, deadline)[1]
        attempted += res["matrices"]
        failed += res["failed"]
        if res["failed"]:
            failures.append(f"{res['failed']} of {res['matrices']} requests failed their check")
        if seed == gold["seed"]:
            attempted += 1
            if res["digest"] != gold["digest"]:
                failed += 1
                failures.append(f"response digest {res['digest']}, want {gold['digest']}")
        results.append(res)
    return results, attempted, failed, failures


def latency_samples(results: list[dict]) -> list[float]:
    """Request latencies, or per-record times over slices of each command."""
    out = []
    for r in results:
        if "latencies_s" in r:
            out += r["latencies_s"]
            continue
        gaps = r["gaps_s"]
        for i in range(0, len(gaps) - RECORDS_PER_SLICE + 1, RECORDS_PER_SLICE):
            out.append(sum(gaps[i:i + RECORDS_PER_SLICE]) / RECORDS_PER_SLICE)
    return out


def end_to_end(results: list[dict], setup: list[float], tail_q: float) -> dict:
    lat = latency_summary(latency_samples(results), tail_q)
    return {
        "setup_s": statistics.median(setup),
        "throughput_per_s": sum(r["matrices"] for r in results) / sum(r["wall_s"] for r in results),
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "_samples": lat["n"],
        "_highest_q": lat["highest_q"],
        "_setup_samples": len(setup),
    }


def per_layer(results: list[dict]) -> dict:
    traced = next(r for r in results if "layers" in r)
    layers = traced["layers"]
    out = {}
    for name, st in layers.items():
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.self_s"] = st["self_s"]
        out[f"{name}.busy_s"] = st["busy_s"]
    matrices = traced["matrices"]

    def ratio(name, num, den):
        out[name] = num / den if den else 0.0
        out[f"{name}.num"] = num
        out[f"{name}.den"] = den

    ratio("census.accept_ratio", matrices if layers["census.matrix_from_counter"]["calls"] else 0,
          layers["census.matrix_from_counter"]["calls"])
    ratio("model.validate.repeat_ratio", traced["validate_repeats"], layers["model.validate"]["calls"])
    ratio("oracle.sw_oracle.calls_per_matrix", layers["oracle.sw_oracle"]["calls"], matrices)
    walls = {True: 0.0, False: 0.0}
    for r in results:
        walls["layers" in r] += r["wall_s"]
    out["trace.overhead"] = walls[True] / walls[False] - 1
    out["trace.unattributed_share"] = 1 - traced["root_s"] / traced["wall_s"]
    out["trace.spans"] = traced["spans"]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    context = run_context()
    work = RUN_DIR / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Probes before and after the workload, so a slow spell of the
        # machine at either end moves the median less.
        setup = probes(0 if trace else SETUP_PROBES // 2 + 1, deadline)
        if workload == "query-mix":
            results, attempted, failed, failures = run_queries(
                seed, seconds, str(work), trace, context, deadline)
        else:
            results, attempted, failed, failures = run_family(
                workload, seed, seconds, str(work), trace, context, deadline)
        setup += probes(0 if trace else SETUP_PROBES // 2, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = per_layer(results) if trace else end_to_end(results, setup, TAIL_Q[workload])
    return {"workload": workload, "seed": seed, "context": context, "metrics": metrics,
            "attempted": attempted, "failed": failed, "failures": failures}


# Names the issue and the design record use for each workload's numbers.
DISPLAY = {
    "family": {"throughput_per_s": "verified_per_s", "latency_p50_ms": "record_p50_ms",
               "latency_tail_ms": "record_p90_ms"},
    "query-mix": {"throughput_per_s": "queries_per_s", "latency_p50_ms": "query_p50_ms",
                  "latency_tail_ms": "query_p99_ms"},
}


def report_lines(run: dict, spec: list[dict]) -> list[str]:
    w = run["workload"]
    names = DISPLAY["query-mix" if w == "query-mix" else "family"]
    failed = run["failed"]
    lines = [f"# context {json.dumps(run['context'], sort_keys=True)}"]
    lines += [f"# FAILED {w}: {msg}" for msg in run["failures"]]
    m = run["metrics"]
    for entry in spec:
        name = entry["name"]
        shown = names.get(name, name)
        alias = f"  [{name}]" if shown != name else ""
        lines.append(f"{w:12s} {shown:34s} {m[name]:.6g} {entry['unit']}{alias}")
    if "_samples" in m:
        lines.append(f"{w:12s} {'latency samples':34s} {m['_samples']} "
                     f"(highest percentile with >= 10 beyond: p{m['_highest_q']:g})")
        lines.append(f"{w:12s} {'setup samples':34s} {m['_setup_samples']}")
    lines.append(f"{w:12s} {'failed_ratio':34s} {failed / run['attempted']:.6g} "
                 f"({failed}/{run['attempted']})")
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload and print a summary")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spincover" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    spec = bench["per_layer" if args.trace else "end_to_end"]
    workloads = WORKLOADS if args.all else (args.workload,)
    runs = []
    for w in workloads:
        try:
            run = run_workload(w, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"{w}: {exc}", file=sys.stderr)
            return 3
        runs.append(run)
        print("\n".join(report_lines(run, spec)), flush=True)
    failed = sum(r["failed"] for r in runs)
    prefix = len(runs) > 1
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {
            (f"{r['workload']}.{e['name']}" if prefix else e["name"]):
                {"value": r["metrics"][e["name"]], "unit": e["unit"]}
            for r in runs for e in spec
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
