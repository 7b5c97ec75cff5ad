"""Run a corpus of CLI invocations against two source trees and compare them.

    python3 tools/cli_diff.py --parent ../parent --change .

Each line of tools/cli_corpus.txt is the argument list of one
`python -m spincover.cli` run, split with `shlex`; blank lines and lines
starting with '#' are skipped.  Input paths start with `data/` (a copy of
tests/data) or `gen/` (matrices, digraphs and malformed files that
`write_inputs` writes from a fixed seed); any other path is a file the run
may write.  Every line runs once per tree, in a fresh process with that
tree's src/ on PYTHONPATH, in a fresh working directory that links the
inputs, under a timeout of 20 s and an address-space limit of 1 GiB.  The
exit code, stdout, stderr and the sha256 of every file the run wrote are
compared.  The invocations that differ are printed, then one summary line;
the exit status is 1 when any differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "cli_corpus.txt"
INPUT_DIRS = ("data", "gen")
SEED = 2027
TIMEOUT_S = 20
MEMORY_BYTES = 1 << 30

# Shapes of the seeded valid matrices, two of each.
VALID_SHAPES = [
    (1, 1), (1, 2), (2, 2), (3,), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 3), (3, 3),
    (4, 4), (1, 2, 4), (2, 2, 3), (1, 1, 1, 1), (1, 2, 1, 2), (3, 3, 4),
]

MALFORMED = {
    "empty.txt": b"",
    "comment_only.txt": b"# nothing\n",
    "bad_dims.txt": b"1 x\n10\n01\n",
    "zero_dim.txt": b"0 1\n1\n",
    "ragged.txt": b"1 1\n10\n1\n",
    "extra_row.txt": b"1 1\n10\n01\n11\n",
    "bad_char.txt": b"1 1\n1a\n01\n",
    "short.txt": b"1 2\n10\n01\n",
    "not_utf8.txt": b"1 1\n10\n\xff1\n",
    "singular.txt": b"1 1\n11\n11\n",
    "bad_json.json": b"{\"omega\": [1, 1],",
    "unknown_field.json": b"{\"omega\": [1], \"edges\": [], \"x\": 1}",
    "bad_weight.json": b"{\"omega\": [1, 1], \"edges\": [{\"from\": 1, \"to\": 2, \"w\": \"2\"}]}",
    "bool_dim.json": b"{\"omega\": [true, 1], \"edges\": []}",
    "oversized.json": b"{\"omega\":[100000000]}",
}


def valid_rows(rng: random.Random, dims: tuple[int, ...]) -> list[int]:
    """A valid matrix over dims as row ints: factor p may have arcs only to
    factors later in a random order, so its block relation is acyclic."""
    k = len(dims)
    order = rng.sample(range(k), k)
    later = {v: sum(1 << u for u in order[p + 1:]) for p, v in enumerate(order)}
    return [
        (1 << i) | (rng.getrandbits(k) & later[i]) for i, d in enumerate(dims) for _ in range(d)
    ]


def matrix_text(dims: tuple[int, ...], rows: list[int]) -> str:
    lines = [" ".join(map(str, dims))]
    lines += ["".join(str((r >> c) & 1) for c in range(len(dims))) for r in rows]
    return "\n".join(lines) + "\n"


def digraph_text(dims: tuple[int, ...], rows: list[int]) -> str:
    """The digraph JSON of the rows' off-diagonal blocks, 1-based."""
    offsets = [sum(dims[:i]) for i in range(len(dims) + 1)]
    edges = []
    for i, d in enumerate(dims):
        for j in range(len(dims)):
            if j != i:
                w = "".join(str((rows[offsets[i] + t] >> j) & 1) for t in range(d))
                if "1" in w:
                    edges.append({"from": i + 1, "to": j + 1, "w": w})
    return json.dumps({"omega": list(dims), "edges": edges}) + "\n"


def write_inputs(root: Path) -> None:
    """Write the corpus inputs under root: data/ and the seeded gen/."""
    shutil.copytree(REPO / "tests" / "data", root / "data")
    gen = root / "gen"
    gen.mkdir()
    rng = random.Random(SEED)
    for dims in VALID_SHAPES:
        name = "x".join(map(str, dims))
        for t in range(2):
            rows = valid_rows(rng, dims)
            (gen / f"valid_{name}_{t}.txt").write_text(matrix_text(dims, rows))
            (gen / f"digraph_{name}_{t}.json").write_text(digraph_text(dims, rows))
    for t in range(8):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
        rows = [rng.getrandbits(len(dims)) for _ in range(sum(dims))]
        (gen / f"random_{t}.txt").write_text(matrix_text(dims, rows))
    for t in range(3):
        k = t + 2
        cycle = [{"from": v + 1, "to": (v + 1) % k + 1, "w": "1"} for v in range(k)]
        doc = {"omega": [1] * k, "edges": cycle}
        (gen / f"cyclic_{k}.json").write_text(json.dumps(doc) + "\n")
    for name, data in MALFORMED.items():
        (gen / f"malformed_{name}").write_bytes(data)


def read_corpus() -> list[str]:
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def input_paths(argv: list[str]) -> list[str]:
    return [a for a in argv if a.split("/", 1)[0] in INPUT_DIRS and "/" in a]


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_one(tree: Path, inputs: Path, argv: list[str]) -> tuple:
    """(exit code or 'timeout', stdout, stderr, {written file: sha256})."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for name in INPUT_DIRS:
            (cwd / name).symlink_to(inputs / name)
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "spincover.cli", *argv], cwd=cwd, env=env,
                capture_output=True, timeout=TIMEOUT_S, preexec_fn=_cap_address_space,
            )
        except subprocess.TimeoutExpired:
            return ("timeout", b"", b"", {})
        written = {
            str(p.relative_to(cwd)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(cwd.rglob("*"))
            if p.is_file() and not p.is_symlink() and p.relative_to(cwd).parts[0] not in INPUT_DIRS
        }
        return (proc.returncode, proc.stdout, proc.stderr, written)


def describe(a: tuple, b: tuple) -> str:
    fields = ("exit", "stdout", "stderr", "files")
    differ = [name for name, x, y in zip(fields, a, b) if x != y]
    return (f"differ in {', '.join(differ)}; exit {a[0]} -> {b[0]}; "
            f"stderr {a[2][-120:]!r} -> {b[2][-120:]!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    args = ap.parse_args()
    lines = read_corpus()
    same = timeouts_parent = timeouts_change = 0
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        write_inputs(inputs)
        for line in lines:
            argv = shlex.split(line)
            a = run_one(args.parent.resolve(), inputs, argv)
            b = run_one(args.change.resolve(), inputs, argv)
            timeouts_parent += a[0] == "timeout"
            timeouts_change += b[0] == "timeout"
            if a == b:
                same += 1
            else:
                print(f"{line}\n    {describe(a, b)}", flush=True)
    print(f"cli_diff: {len(lines)} invocations, {same} identical, {len(lines) - same} differ "
          f"(timeouts: parent {timeouts_parent}, change {timeouts_change})")
    return 0 if same == len(lines) else 1


if __name__ == "__main__":
    sys.exit(main())
