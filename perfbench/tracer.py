"""Outside-in spans around the public functions of each spincover layer.

The wrappers are installed from here, at every module that bound the name,
so the program itself is unchanged.  `gf2` is not wrapped: its only hot
entry is a private helper called millions of times, and its cost shows as
`model.validate` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TRACED = {
    "model": ("parse_matrix", "validate"),
    "census": ("matrix_from_counter", "build_record"),
    "closedform": (
        "has_spin",
        "spin_sufficient",
        "w2_coefficients",
        "w3_coefficients",
        "w4_coefficients",
        "w3_vanishes_big",
        "w4_vanishes_big",
    ),
    "digraph": ("from_matrix", "has_spin_digraph"),
    "oracle": (
        "sw_oracle",
        "total_sw_truncated",
        "normal_form",
        "relation_generators",
        "oracle_has_spin",
        "oracle_class_is_zero",
    ),
}

# Span fields: name index, start, end, parent span (-1 at the root),
# request id, and the time covered by direct children.
NAME, START, END, PARENT, REQUEST, CHILDREN = range(6)


class Tracer:
    """Spans kept in memory for one worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = 0
        self.validated: set = set()
        self.validate_repeats = 0
        self.originals: dict[int, tuple] = {}

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [idx, clock(), 0.0, parent, self.request, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILDREN] += end - span[START]

        return wrapper

    def _count_repeats(self, fn):
        @functools.wraps(fn)
        def validate(A, *args, **kwargs):
            if A in self.validated:
                self.validate_repeats += 1
            else:
                self.validated.add(A)
            return fn(A, *args, **kwargs)

        return validate

    def install(self) -> None:
        """Wrap every TRACED function and every CLI command callback."""
        for mod_name, fnames in TRACED.items():
            mod = importlib.import_module(f"spincover.{mod_name}")
            for fname in fnames:
                orig = getattr(mod, fname)
                wrapped = self.wrap(f"{mod_name}.{fname}", orig)
                if fname == "validate":
                    wrapped = self._count_repeats(wrapped)
                self.originals[id(orig)] = (orig, wrapped)
        for mod in spincover_modules():
            for attr, val in list(vars(mod).items()):
                hit = self.originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        cli = importlib.import_module("spincover.cli")
        for cname, cmd in cli.main.commands.items():
            cmd.callback = self.wrap(f"cli.{cname}", cmd.callback)

    def unwrapped_references(self) -> list[str]:
        """`module.attr` names still bound to a function that was wrapped."""
        left = []
        for mod in spincover_modules():
            for attr, val in vars(mod).items():
                hit = self.originals.get(id(val))
                if hit is not None and hit[0] is val:
                    left.append(f"{mod.__name__}.{attr}")
        return left

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, self_s and busy_s per span name.

        busy_s counts only spans with no ancestor of the same name, so a
        nested call is not counted twice.
        """
        stats = {name: {"calls": 0, "self_s": 0.0, "busy_s": 0.0} for name in self.names}
        spans = self.spans
        for span in spans:
            entry = stats[self.names[span[NAME]]]
            dur = span[END] - span[START]
            entry["calls"] += 1
            entry["self_s"] += dur - span[CHILDREN]
            up = span[PARENT]
            while up >= 0 and spans[up][NAME] != span[NAME]:
                up = spans[up][PARENT]
            if up < 0:
                entry["busy_s"] += dur
        return stats

    def root_seconds(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def dump(self, path, context: dict) -> None:
        doc = {
            "context": context,
            "fields": ["name", "start", "end", "parent", "request"],
            "names": self.names,
            "spans": [s[:CHILDREN] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def spincover_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "spincover" or name.startswith("spincover."))
    ]
