"""Python-level calls per record of a Spin census, per function and in total.

    python3 tools/census_calls.py --omega 1,2,4

Runs `crosscheck_spin` on the family once, with a sink that encodes every
record as its census line, under cProfile in this fresh process, so every
cache starts cold as in one CLI run.  Prints, per function written in
Python, its calls divided by the number of census records, most called
first, and then the total.  Builtins are left out, and functions that
share a line, such as nested comprehensions, are added up under that line
(pstats would keep only one of them).  cProfile counts each
resumption of a generator as a call, so a generator expression that yields
m values counts m + 1.  The counts are deterministic for a given Python
version, unlike timings.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spincover.census import crosscheck_spin  # noqa: E402
from spincover.model import DimensionVector  # noqa: E402


def calls_per_record(dims: tuple[int, ...]) -> tuple[int, dict[str, int]]:
    """The number of census records and the calls of each Python function,
    keyed "file:line(name)", made by one census of the family."""
    profile = cProfile.Profile()
    report = profile.runcall(
        crosscheck_spin, DimensionVector(dims), sink=lambda rec: rec.to_json()
    )
    calls: dict[str, int] = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin
            continue
        key = f"{Path(code.co_filename).name}:{code.co_firstlineno}({code.co_name})"
        calls[key] = calls.get(key, 0) + entry.callcount
    return report.total_valid, calls


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--omega", required=True, help="comma-separated factor dimensions")
    args = parser.parse_args(argv)
    records, calls = calls_per_record(tuple(int(d) for d in args.omega.split(",")))
    print(f"{'calls':>8}  function ({records} records)")
    for key, n in sorted(calls.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n / records:>8.2f}  {key}")
    print(f"{sum(calls.values()) / records:>8.2f}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
