"""Batch command line surface.

Exit codes are a contract: 0 affirmative or clean, 1 negative verdict,
2 input error (a usage error included), 3 budget refusal or out of memory,
4 discrepancy between deciders.

A plain line (each option one of its flags, given once, each value its own
token, nothing refused) is read from the command's option table without
argparse; any other line, every usage error and `--help` go through argparse.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import stat
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NoReturn, Optional, TextIO

from .census import (
    DEFAULT_BUDGET, DEFAULT_SEED, BudgetError, DiscrepancyReport, Sink, check_size,
    crosscheck_spin, crosscheck_w, run_family, verify_conjecture, verify_elementary,
    write_census_header,
)
from .closedform import CONJECTURE_READINGS, closed_coefficients, has_spin, subset_dots
from .digraph import from_matrix, parse_digraph, serialize_digraph, to_matrix
from .model import DimensionVector, ReducedMatrix, parse_decimal, parse_matrix, serialize_matrix
from .model import validate  # unused here; perfbench's tracer test reads this binding
from .oracle import normal_form, polynomial_str, sw_oracle

EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_BUDGET, EXIT_DISCREPANCY = range(5)


def _echo(text: str, stream: TextIO) -> None:
    """Write and flush, so that a closed pipe fails inside `main`."""
    stream.write(text)
    stream.flush()


def _fail(code: int, message: str) -> NoReturn:
    _echo(message + "\n", sys.stderr)
    sys.exit(code)


def _load(path: str, parse: Callable[[str], object]) -> object:
    """parse(text of the file); an unreadable file exits 2, and so does any
    ValueError of decoding or parsing, as `<path>: <message>`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        if exc.filename is not None:  # named as pathlib names it: `data//x` as `data/x`
            exc.filename = str(Path(path))
        _fail(EXIT_INPUT, f"cannot read {path}: {exc}")
    except ValueError as exc:
        _fail(EXIT_INPUT, f"{path}: {exc}")


def _open_for_writing(path: str) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot write {path}: {exc}")


def _parse_omega(text: str) -> DimensionVector:
    try:
        dims = tuple(parse_decimal(tok.strip()) for tok in text.split(","))
        return DimensionVector(dims)
    except ValueError as exc:
        _fail(EXIT_INPUT, f"bad omega {text!r}: {exc}")


def _emit(obj: dict, as_json: bool, lines: list[str]) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) if as_json else "\n".join(lines)
    _echo(text + "\n", sys.stdout)


def positive(text: str) -> int:
    """An int of at least 1; argparse words a ValueError as `invalid positive value`."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _parser(make: Callable[..., argparse.ArgumentParser], **kwargs) -> argparse.ArgumentParser:
    """`--help` is the one help flag, and no long option is abbreviated: `--deg` is refused."""
    parser = make(add_help=False, allow_abbrev=False, **kwargs)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _is_unknown_option(token: str, known: frozenset[str]) -> bool:
    """Whether argparse reads token as an option, `--name[=value]` or `-x[value]`,
    that is not one of `known`."""
    if token[:1] != "-" or token == "-" or " " in token or _NEGATIVE_NUMBER.match(token):
        return False
    return (token.split("=", 1)[0] if token.startswith("--") else token[:2]) not in known


class _CommandParser(argparse.ArgumentParser):
    """A command's parser.  argparse reports an unknown option only once the
    whole line has parsed, after a missing argument; here any usage error of
    the command names the unknown options (those before `--`) first."""

    known: frozenset[str] = frozenset()
    line: tuple[str, ...] = ()

    def parse_known_args(self, args=None, namespace=None):
        self.line = tuple(args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str) -> NoReturn:
        line = self.line[:self.line.index("--")] if "--" in self.line else self.line
        unknown = [token for token in line if _is_unknown_option(token, self.known)]
        super().error(f"unrecognized arguments: {' '.join(unknown)}" if unknown else message)


_PARSER = _parser(argparse.ArgumentParser, prog="spincover", description=(
    "Spin structures and Stiefel-Whitney classes of small covers over products "
    "of simplices, from the reduced characteristic matrix."))
_SUBPARSERS = _PARSER.add_subparsers(dest="command", required=True, metavar="COMMAND",
                                     parser_class=_CommandParser)


def main(argv: Optional[list[str]] = None, standalone_mode: bool = True) -> None:
    """Run the command argv names (default sys.argv[1:]); it exits with its
    code, and a usage error exits 2.  Standalone, a closed output pipe exits 1
    quietly, an interrupt prints `Aborted!` and exits 1, and running out of
    memory prints `out of memory` and exits 3; otherwise all three propagate.
    The callback is read from `main.commands` on every call."""
    try:
        argv = sys.argv[1:] if argv is None else argv
        name = argv[0] if argv else None
        args = _plain_args(main.commands[name].actions, argv[1:]) if name in main.commands else None
        if args is None:
            args = vars(_PARSER.parse_args(argv))
            name = args.pop("command")
        dest = _missing_input(args)
        if dest is not None:  # a parsed line has no unknown option for `_CommandParser.error`
            message = f"argument {dest}: {args[dest]!r} is not an existing file"
            argparse.ArgumentParser.error(_SUBPARSERS.choices[name], message)
        args.pop("threads", None)  # accepted and ignored
        return main.commands[name].callback(**args)
    except (KeyboardInterrupt, BrokenPipeError, MemoryError) as exc:
        if not standalone_mode:
            raise
        if isinstance(exc, MemoryError):
            _fail(EXIT_BUDGET, "out of memory")
        if isinstance(exc, KeyboardInterrupt):
            _echo("\nAborted!\n", sys.stderr)
        else:  # Python flushes stdout at exit: point it at devnull, where that finds no pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(EXIT_NEGATIVE)


main.commands = {}
_INPUT_FILES = ("matrix_file", "input_file")


def _missing_input(args: dict) -> Optional[str]:
    """The dest of an input file that does not exist or is a directory, a
    usage error, from one `stat`.  It is checked once the whole line has
    parsed, so an unknown option is named first."""
    for dest in _INPUT_FILES:
        try:
            if dest in args and stat.S_ISDIR(os.stat(args[dest]).st_mode):
                return dest
        except (OSError, ValueError):
            return dest
    return None


def _plain_args(actions: tuple[argparse.Action, ...], tokens: list[str]) -> Optional[dict]:
    """`vars(_PARSER.parse_args([command, *tokens]))` less `command`, for a plain
    line over the command's actions; None if a token starts with `-` and is no
    flag (`--help`, `-m2`, `--degree=2`), an option repeats or its value starts
    with `-`, a positional or required option is missing, or a value is extra
    or refused by its type or choices."""
    flags = {flag: action for action in actions for flag in action.option_strings}
    positionals = [action for action in actions if not action.option_strings]
    args: dict = {}
    tokens = iter(tokens)
    for token in tokens:
        action = flags.get(token)
        if action is None:
            if token[:1] == "-" or not positionals:
                return None
            action, value = positionals.pop(0), token
        elif action.dest in args:
            return None
        elif action.nargs == 0:  # store_true
            args[action.dest] = action.const
            continue
        else:
            value = next(tokens, "-")  # a missing value is declined like a dash
            if value[:1] == "-":
                return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        args[action.dest] = value
    if positionals or any(action.required and action.dest not in args for action in actions):
        return None
    return {action.dest: action.default for action in actions} | args


def _opt(*flags: str, **settings) -> tuple[tuple[str, ...], dict]:
    return flags, settings


def command(*options: tuple[tuple[str, ...], dict], name: Optional[str] = None):
    """Register the decorated function as a command (named after it by default)."""

    def register(fn: Callable[..., None]) -> Callable[..., None]:
        cmd = name or fn.__name__
        make = functools.partial(_SUBPARSERS.add_parser, cmd, help=fn.__doc__.splitlines()[0])
        sub = _parser(make, description=fn.__doc__)
        actions = tuple(sub.add_argument(*flags, **settings) for flags, settings in options)
        sub.known = frozenset(["--help", *(f for flags, _ in options for f in flags if f[0] == "-")])
        main.commands[cmd] = SimpleNamespace(name=cmd, callback=fn, actions=actions)
        return fn

    return register


@functools.lru_cache(maxsize=16)
def _subset_names(k: int) -> tuple[str, ...]:
    """The `k[...]` key of each column subset of size 1..3, in `subset_dots` order."""
    return tuple(",".join(map(str, S)) for size in range(1, min(3, k) + 1)
                 for S in itertools.combinations(range(1, k + 1), size))


_JSON = _opt("--json", dest="as_json", action="store_true", help="Emit one JSON object.")
_MATRIX_FILE = _opt("matrix_file")


@command(_MATRIX_FILE, _JSON)
def check(matrix_file: str, as_json: bool) -> None:
    """Validity, orientability and Spin verdict for a matrix file."""
    A = _load(matrix_file, parse_matrix)
    report = has_spin(A)
    dots = dict(zip(_subset_names(A.omega.k), [kS for _, kS in subset_dots(A, 3)]))
    lines = ["valid: yes", f"orientable: {'yes' if report.orientable else 'no'}",
             f"spin: {'yes' if report.spin else 'no'}"]
    if report.failed_condition is not None:
        witness = "(" + ",".join(str(i + 1) for i in report.witness) + ")"
        lines.append(f"failed condition: {report.failed_condition} at {witness}")
    lines.extend(f"k[{key}] = {val}" for key, val in dots.items())
    obj = {"valid": True, "orientable": report.orientable, "spin": report.spin,
           "failed_condition": report.failed_condition, "k": dots,
           "witness": [i + 1 for i in report.witness] if report.witness else None}
    _emit(obj, as_json, lines)
    sys.exit(EXIT_OK if report.spin else EXIT_NEGATIVE)


@command(
    _MATRIX_FILE,
    _opt("--degree", "-m", type=int, required=True, help="Class degree."),
    _opt("--oracle", dest="use_oracle", action="store_true", help="Ring-reduced class only."),
    _opt("--closed", dest="use_closed", action="store_true", help="Closed-form coefficients only."),
    _opt("--both", dest="use_both", action="store_true", help="Both plus an agreement verdict."),
    _JSON,
)
def sw(matrix_file: str, degree: int, use_oracle: bool, use_closed: bool, use_both: bool,
       as_json: bool) -> None:
    """Print a Stiefel-Whitney class of the cover in a matrix file."""
    picked = [f for f in (use_oracle, use_closed, use_both) if f]
    if len(picked) > 1:
        _fail(EXIT_INPUT, "choose at most one of --oracle, --closed, --both")
    if not picked:
        use_both = True
    A = _load(matrix_file, parse_matrix)
    n = A.omega.n
    want_closed = use_closed or use_both
    want_oracle = use_oracle or use_both
    if degree < 1:
        _fail(EXIT_INPUT, "degree must be positive")
    if want_closed and degree > 4:
        _fail(EXIT_INPUT, "closed forms cover degrees 1..4")
    if want_oracle and degree > n:
        _fail(EXIT_INPUT, f"degree {degree} exceeds the dimension {n}")
    lines = []
    obj: dict = {"degree": degree}
    closed_poly = oracle_poly = None
    if want_closed:
        closed_poly = closed_coefficients(A, degree)
        obj["closed"] = polynomial_str(closed_poly)
        lines.append(f"closed w{degree}: {obj['closed']}")
    if want_oracle:
        oracle_poly = sw_oracle(A, degree)
        obj["oracle"] = polynomial_str(oracle_poly)
        lines.append(f"oracle w{degree}: {obj['oracle']}")
    code = EXIT_OK
    if use_both:
        # with every n_i >= degree the ideal starts above it: reducing changes nothing
        pre = all(d >= degree for d in A.omega.dims)
        level = "pre-reduction" if pre else "post-reduction"
        agree = normal_form(closed_poly, A) == oracle_poly
        lines.append(f"agreement ({level}): {'yes' if agree else 'no'}")
        obj["level"] = level
        obj["agree"] = agree
        if not agree:
            code = EXIT_DISCREPANCY
    _emit(obj, as_json, lines)
    sys.exit(code)


@command(
    _opt("input_file"),
    _opt("--to", dest="target", choices=["matrix", "digraph"], required=True),
    _opt("--output", "-o"),
)
def convert(input_file: str, target: str, output: Optional[str]) -> None:
    """Convert between the matrix text format and the digraph JSON format."""
    if target == "digraph":
        out = serialize_digraph(from_matrix(_load(input_file, parse_matrix)))
    else:
        G = _load(input_file, parse_digraph)
        try:
            check_size(G.omega, DEFAULT_BUDGET)
        except BudgetError as exc:
            _fail(EXIT_BUDGET, str(exc))
        out = serialize_matrix(to_matrix(G))
    if output is None:
        _echo(out, sys.stdout)
    else:
        with _open_for_writing(output) as fh:
            fh.write(out)
    sys.exit(EXIT_OK)


def _run_family(omega_text: str, census_path: Optional[str], seed: int, budget: int,
                driver: Callable[..., DiscrepancyReport]) -> DiscrepancyReport:
    """Parse omega and return driver(omega, sink=...), streaming an optional census.

    A budget refusal (a search space over budget, or a sample the draw cap
    could not fill) exits 3 and an input error exits 2; either way the
    census file is removed, so a failed run leaves none behind.
    """
    omega = _parse_omega(omega_text)
    fh = None if census_path is None else _open_for_writing(census_path)
    try:
        sink: Sink = None
        if fh is not None:
            write_census_header(fh, omega, seed, budget)
            sink = lambda rec: fh.write(rec.to_json() + "\n")
        return driver(omega, sink=sink)
    except BudgetError as exc:
        code, message = EXIT_BUDGET, str(exc)
    except ValueError as exc:
        code, message = EXIT_INPUT, str(exc)
    finally:
        if fh is not None:
            fh.close()
    if census_path is not None:
        Path(census_path).unlink()
    _fail(code, message)


def _report_exit(report: DiscrepancyReport, as_json: bool, extra: dict) -> None:
    # component_failures is always 0: an elementary component keeps only its
    # matrix's arcs into two vertices, a subgraph of an acyclic relation, so it is valid.
    obj = {"omega": list(report.omega), "valid": report.total_valid, "counts": report.counts,
           "discrepancies": len(report.discrepancies), "component_failures": 0, **extra}
    lines = [report.summary()]
    lines.extend(f"  {','.join(rec.flags)}: {rec.matrix}" for rec in report.discrepancies)
    _emit(obj, as_json, lines)
    sys.exit(EXIT_DISCREPANCY if report.discrepancies else EXIT_OK)


_COMMON = (
    _opt("--omega", dest="omega_text", metavar="OMEGA", required=True,
         help="Comma-separated factor dimensions."),
    _opt("--budget", type=int, default=DEFAULT_BUDGET, help="(default: %(default)s)"),
    _opt("--threads", type=positive, default=1,
         help="Accepted and ignored: a family runs in one process."),
    _opt("--census", dest="census_path", metavar="CENSUS"),
    _JSON,
)
_SEED = _opt("--seed", type=int, default=DEFAULT_SEED, help="(default: %(default)s)")


def _no_check(A: ReducedMatrix, rec: object) -> tuple[list[str], tuple[()]]:
    """enumerate's check: no flags and no counts."""
    return [], ()


@command(*_COMMON, name="enumerate")
def enumerate_cmd(omega_text: str, budget: int, census_path: Optional[str], as_json: bool) -> None:
    """Enumerate the valid matrices of a family, optionally writing a census."""
    driver = functools.partial(run_family, keys=(), check=_no_check, budget=budget)
    report = _run_family(omega_text, census_path, DEFAULT_SEED, budget, driver)
    space, valid = report.total_enumerated, report.total_valid
    obj = {"omega": list(report.omega), "space": space, "valid": valid}
    _emit(obj, as_json, [f"space: {space}, valid: {valid}"])
    sys.exit(EXIT_OK)


# --check choice -> census driver; only the w checks take --sample and --seed.
_VERIFY = {
    "spin": crosscheck_spin,
    "w3": functools.partial(crosscheck_w, m=3),
    "w4": functools.partial(crosscheck_w, m=4),
    "elementary": verify_elementary,
}
_SAMPLED = ("w3", "w4")


@command(
    *_COMMON,
    _opt("--check", dest="what", choices=list(_VERIFY), default="spin",
         help="(default: %(default)s)"),
    _opt("--sample", type=positive, help="Seeded valid-sample size (w3/w4)."),
    _SEED,
)
def verify(omega_text: str, budget: int, census_path: Optional[str], as_json: bool, what: str,
           sample: Optional[int], seed: int) -> None:
    """Cross-check closed-form criteria against the digraph form and oracle."""
    if sample is not None and what not in _SAMPLED:
        _fail(EXIT_INPUT, "--sample applies only to w3/w4 checks")
    extra = {"sample": sample, "seed": seed} if what in _SAMPLED else {}
    driver = functools.partial(_VERIFY[what], budget=budget, **extra)
    report = _run_family(omega_text, census_path, seed, budget, driver)
    _report_exit(report, as_json, {"check": what})


@command(
    *_COMMON,
    _opt("--t", type=int, required=True, help="Conjecture level (1 or 2)."),
    _opt("--reading", choices=list(CONJECTURE_READINGS), default="shifted",
         help="(default: %(default)s)"),
    _opt("--sample", type=positive, help="Seeded valid-sample size."),
    _SEED,
)
def conjecture(omega_text: str, budget: int, census_path: Optional[str], as_json: bool, t: int,
               reading: str, sample: Optional[int], seed: int) -> None:
    """Compare the conjectured congruences with oracle class vanishing."""
    driver = functools.partial(
        verify_conjecture, t=t, reading=reading, sample=sample, budget=budget, seed=seed
    )
    report = _run_family(omega_text, census_path, seed, budget, driver)
    _report_exit(report, as_json, {"t": t, "reading": reading})


if __name__ == "__main__":
    main()
