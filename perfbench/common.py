"""Helpers shared by the benchmark driver, its worker and its self-tests.

Nothing here imports spincover: inputs are generated, and outputs checked,
independently of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))

DEFAULT_SEED = 1729
MIN_TAIL_SAMPLES = 10

# Shapes of 2 to 7 factors.  Validation costs prod(n_i) * 2^k determinant
# evaluations, so the 5- to 7-factor shapes set the tail; (2,)*8 would take
# seconds per request and swamp the run.
QUERY_SHAPES = (
    (2, 3, 5),
    (1, 1, 2, 2),
    (3, 4),
    (2, 3, 3, 3),
    (2, 2, 2, 2, 2),
    (1, 1, 2, 2, 3, 3),
    (1, 2, 1, 2, 1, 2, 1),
)
# Per shape and cycle: check, sw and convert in the ratio 1:2:1, with the sw
# requests spread over every degree the closed forms cover.
QUERY_CYCLE = (
    ("check", None), ("check", None),
    ("sw", 1), ("sw", 2), ("sw", 3), ("sw", 4),
    ("convert", None), ("convert", None),
)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile q (0..100) of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 50.0)) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    for q in candidates:
        if n * (100.0 - q) / 100.0 + 1e-9 >= MIN_TAIL_SAMPLES:  # 100 - 99.9 < 0.1
            return q
    return None


def latency_summary(samples_s: list[float], tail_q: float) -> dict:
    """Sample count, p50 and the tail percentile tail_q, in ms.

    Raises ValueError unless at least ten samples lie beyond tail_q.
    """
    ordered = sorted(samples_s)
    n = len(ordered)
    if tail_percentile(n, (tail_q,)) is None:
        raise ValueError(f"{n} samples leave fewer than {MIN_TAIL_SAMPLES} beyond p{tail_q:g}")
    return {
        "n": n,
        "p50_ms": percentile(ordered, 50) * 1e3,
        "tail_ms": percentile(ordered, tail_q) * 1e3,
        "highest_q": tail_percentile(n),
    }


def matrix_text(dims: tuple[int, ...], rows: list[int]) -> str:
    k = len(dims)
    lines = [" ".join(str(d) for d in dims)]
    lines.extend("".join(str((row >> c) & 1) for c in range(k)) for row in rows)
    return "\n".join(lines) + "\n"


def random_valid_matrix(rng: random.Random, dims: tuple[int, ...]) -> list[int]:
    """Rows (bit c = column c) of a random matrix valid by construction.

    Blocks v_ij may be nonzero only when factor i precedes factor j in a
    random order: an acyclic block pattern conjugated by a random factor
    permutation, which is exactly the valid set.
    """
    k = len(dims)
    order = list(range(k))
    rng.shuffle(order)
    offsets = [sum(dims[:i]) for i in range(k)]
    rows = []
    for i, d in enumerate(dims):
        rows.extend([1 << i] * d)
    for p in range(k):
        for q in range(p + 1, k):
            i, j = order[p], order[q]
            if rng.random() < 0.5:
                bits = rng.randrange(1, 1 << dims[i])
                for t in range(dims[i]):
                    if (bits >> t) & 1:
                        rows[offsets[i] + t] |= 1 << j
    return rows


def query_stream(seed: int):
    """Endless seeded stream of (command, degree, dims, rows) requests.

    Each cycle holds every shape with every QUERY_CYCLE entry once, in a
    shuffled order, so the mix is the same for every seed and only the
    matrices and the order change.
    """
    rng = random.Random(seed)
    cycle = [(cmd, deg, dims) for dims in QUERY_SHAPES for cmd, deg in QUERY_CYCLE]
    while True:
        rng.shuffle(cycle)
        for cmd, deg, dims in cycle:
            yield cmd, deg, dims, random_valid_matrix(rng, dims)


def query_argv(cmd: str, deg, path: str) -> list[str]:
    if cmd == "check":
        return ["check", path]
    if cmd == "sw":
        return ["sw", path, "-m", str(deg), "--both"]
    return ["convert", path, "--to", "digraph"]


def digraph_rows(text: str) -> tuple[tuple[int, ...], list[int]]:
    """Matrix (dims, rows) of a digraph JSON document: A = adjacency + I."""
    obj = json.loads(text)
    dims = tuple(obj["omega"])
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    rows = []
    for i, d in enumerate(dims):
        rows.extend([1 << i] * d)
    for edge in obj["edges"]:
        i, j = edge["from"] - 1, edge["to"] - 1
        for t, ch in enumerate(edge["w"]):
            if ch == "1":
                rows[offsets[i] + t] |= 1 << j
    return dims, rows


def check_query(cmd: str, dims, rows, code, out: str) -> bool:
    """Whether one response is right for its request."""
    if cmd == "check":
        spin = "spin: yes" in out.splitlines()
        return out.startswith("valid: yes\n") and code == (0 if spin else 1)
    if cmd == "sw":
        last = out.splitlines()[-1] if out else ""
        return code == 0 and last.startswith("agreement (") and last.endswith("): yes")
    if code != 0:
        return False
    try:
        return digraph_rows(out) == (tuple(dims), rows)
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def response_line(argv: list[str], code, out: str) -> str:
    """Canonical form of one response for the stream digest; no file paths."""
    return json.dumps([argv[0], argv[2:], code, out])


def census_records(path: Path) -> list[str]:
    """Record lines of a census: header and any trailer (no "matrix") excluded."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [line for line in lines if "matrix" in json.loads(line)]


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
