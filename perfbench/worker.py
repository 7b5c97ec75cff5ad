"""One fresh interpreter running one benchmark task against ./src.

Usage: python3 perfbench/worker.py '<task json>'

The worker prints "ready" once `spincover.cli` is imported, then runs the
task in-process through `spincover.cli.main(..., standalone_mode=False)` and
prints one JSON result as its last line.  Every task starts in a new process
so the program's caches start cold, as they do for every CLI user.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import (  # noqa: E402
    GOLDEN,
    SRC,
    census_records,
    check_query,
    matrix_text,
    query_argv,
    query_stream,
    response_line,
    sha256_lines,
)
from tracer import Tracer  # noqa: E402

GOLDEN_RESPONSES = GOLDEN["query-mix"]["responses"]


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def stamp_census_records(stamps: list[float]) -> None:
    """Note the time each census record is serialised: one clock read each."""
    from spincover.census import CensusRecord

    to_json = CensusRecord.to_json

    def stamped(self):
        stamps.append(time.perf_counter())
        return to_json(self)

    CensusRecord.to_json = stamped


def family(main, task: dict, tracer: Tracer | None) -> dict:
    stamps: list[float] = []
    if tracer is None:
        stamp_census_records(stamps)
    census = Path(task["census"])
    start = time.perf_counter()
    code, out = run_cli(main, task["argv"])
    wall = time.perf_counter() - start
    records = census_records(census)
    census.unlink()
    gaps = [b - a for a, b in zip([start] + stamps, stamps)]
    return {
        "wall_s": wall,
        "code": code,
        "summary": json.loads(out) if code in (0, 4) else None,
        "digest": sha256_lines(records),
        "gaps_s": gaps,
        "matrices": len(records),
    }


def queries(main, task: dict, tracer: Tracer | None) -> dict:
    path = Path(task["dir"]) / "query.txt"
    stream = query_stream(task["seed"])
    latencies, failed, golden = [], 0, []
    began = time.perf_counter()
    while len(latencies) < task["max_requests"] and (
        len(latencies) < task["min_requests"] or time.perf_counter() - began < task["seconds"]
    ):
        cmd, deg, dims, rows = next(stream)
        path.write_text(matrix_text(dims, rows), encoding="utf-8")
        argv = query_argv(cmd, deg, str(path))
        if tracer is not None:
            tracer.request = len(latencies)
        start = time.perf_counter()
        code, out = run_cli(main, argv)
        latencies.append(time.perf_counter() - start)
        if not check_query(cmd, dims, rows, code, out):
            failed += 1
        if len(golden) < GOLDEN_RESPONSES:
            golden.append(response_line(argv, code, out))
    path.unlink()
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "failed": failed,
        "digest": sha256_lines(golden) if len(golden) == GOLDEN_RESPONSES else None,
        "matrices": len(latencies),
    }


def main() -> int:
    task = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import spincover.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"spincover imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if task["kind"] == "probe":
        return 0
    tracer, main = None, cli.main
    if task["trace"]:
        tracer = Tracer()
        tracer.install()
        left = tracer.unwrapped_references()
        if left:
            print(f"unwrapped references: {left}", file=sys.stderr)
            return 2
        # Root span per request: click's argument parsing is its self time.
        main = tracer.wrap("cli.main", cli.main)
    result = (family if task["kind"] == "family" else queries)(main, task, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        stats = tracer.layer_stats()
        result["layers"] = stats
        result["root_s"] = tracer.root_seconds()
        result["spans"] = len(tracer.spans)
        result["validate_repeats"] = tracer.validate_repeats
        tracer.dump(task["trace_out"], task["context"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
