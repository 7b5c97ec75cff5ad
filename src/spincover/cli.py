"""Batch command line surface.

Exit codes are a contract: 0 affirmative or clean, 1 negative verdict,
2 input error, 3 budget refusal, 4 discrepancy between deciders.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from pathlib import Path
from typing import Callable, NoReturn, Optional, TextIO

import click

from .census import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    BudgetError,
    DiscrepancyReport,
    Sink,
    _run,
    crosscheck_spin,
    crosscheck_w,
    verify_conjecture,
    verify_elementary,
    write_census_header,
)
from .closedform import CONJECTURE_READINGS, closed_coefficients, has_spin
from .digraph import (
    CyclicDigraphError,
    DigraphFormatError,
    from_matrix,
    parse_digraph,
    serialize_digraph,
    to_matrix,
)
from .model import (
    DimensionVector,
    InvalidMatrixError,
    MatrixFormatError,
    ReducedMatrix,
    parse_matrix,
    require_valid,
    serialize_matrix,
    validate,  # unused here, but bound so the benchmark tracer can wrap it
)
from .oracle import normal_form, polynomial_str, sw_oracle

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_DISCREPANCY = 4


# click.echo gets an explicit file throughout: without one, click caches a
# wrapper per distinct sys.stdout/sys.stderr that keeps a redirected stream
# alive after an in-process call.
def _fail(code: int, message: str) -> NoReturn:
    click.echo(message, file=sys.stderr)
    sys.exit(code)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot read {path}: {exc}")


def _open_for_writing(path: str) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_INPUT, f"cannot write {path}: {exc}")


def _load_matrix(path: str) -> ReducedMatrix:
    """Parse and validate a matrix file; either failure exits 2."""
    try:
        A = parse_matrix(_read_text(path))
        require_valid(A)
    except (MatrixFormatError, InvalidMatrixError) as exc:
        _fail(EXIT_INPUT, f"{path}: {exc}")
    return A


def _parse_omega(text: str) -> DimensionVector:
    try:
        dims = tuple(int(tok) for tok in text.split(","))
        return DimensionVector(dims)
    except ValueError as exc:
        _fail(EXIT_INPUT, f"bad omega {text!r}: {exc}")


def _emit(obj: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        click.echo(json.dumps(obj, indent=2, sort_keys=True), file=sys.stdout)
    else:
        for line in lines:
            click.echo(line, file=sys.stdout)


@click.group()
def main() -> None:
    """Spin structures and Stiefel-Whitney classes of small covers over
    products of simplices, from the reduced characteristic matrix."""


@main.command()
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Emit one JSON object.")
def check(matrix_file: str, as_json: bool) -> None:
    """Validity, orientability and Spin verdict for a matrix file."""
    A = _load_matrix(matrix_file)
    report = has_spin(A)
    k = A.omega.k
    dots: dict[str, int] = {}
    for size in range(1, min(3, k) + 1):
        for S in itertools.combinations(range(k), size):
            dots[",".join(str(i + 1) for i in S)] = A.k_count(S)
    lines = [
        "valid: yes",
        f"orientable: {'yes' if report.orientable else 'no'}",
        f"spin: {'yes' if report.spin else 'no'}",
    ]
    if report.failed_condition is not None:
        witness = "(" + ",".join(str(i + 1) for i in report.witness) + ")"
        lines.append(f"failed condition: {report.failed_condition} at {witness}")
    lines.extend(f"k[{key}] = {val}" for key, val in dots.items())
    obj = {
        "valid": True,
        "orientable": report.orientable,
        "spin": report.spin,
        "failed_condition": report.failed_condition,
        "witness": [i + 1 for i in report.witness] if report.witness else None,
        "k": dots,
    }
    _emit(obj, as_json, lines)
    sys.exit(EXIT_OK if report.spin else EXIT_NEGATIVE)


@main.command()
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--degree", "-m", type=int, required=True, help="Class degree.")
@click.option("--oracle", "use_oracle", is_flag=True, help="Ring-reduced class only.")
@click.option("--closed", "use_closed", is_flag=True, help="Closed-form coefficients only.")
@click.option("--both", "use_both", is_flag=True, help="Both plus an agreement verdict.")
@click.option("--json", "as_json", is_flag=True, help="Emit one JSON object.")
def sw(
    matrix_file: str,
    degree: int,
    use_oracle: bool,
    use_closed: bool,
    use_both: bool,
    as_json: bool,
) -> None:
    """Print a Stiefel-Whitney class of the cover in a matrix file."""
    picked = [f for f in (use_oracle, use_closed, use_both) if f]
    if len(picked) > 1:
        _fail(EXIT_INPUT, "choose at most one of --oracle, --closed, --both")
    if not picked:
        use_both = True
    A = _load_matrix(matrix_file)
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
        closed_poly = closed_coefficients(A, degree).polynomial(A.omega.k)
        lines.append(f"closed w{degree}: {polynomial_str(closed_poly)}")
        obj["closed"] = polynomial_str(closed_poly)
    if want_oracle:
        oracle_poly = sw_oracle(A, degree)
        lines.append(f"oracle w{degree}: {polynomial_str(oracle_poly)}")
        obj["oracle"] = polynomial_str(oracle_poly)
    code = EXIT_OK
    if use_both:
        pre = all(d >= degree for d in A.omega.dims)
        level = "pre-reduction" if pre else "post-reduction"
        compare = closed_poly if pre else normal_form(closed_poly, A)
        agree = compare == oracle_poly
        lines.append(f"agreement ({level}): {'yes' if agree else 'no'}")
        obj["level"] = level
        obj["agree"] = agree
        if not agree:
            code = EXIT_DISCREPANCY
    _emit(obj, as_json, lines)
    sys.exit(code)


@main.command()
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--to", "target", type=click.Choice(["matrix", "digraph"]), required=True)
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None)
def convert(input_file: str, target: str, output: Optional[str]) -> None:
    """Convert between the matrix text format and the digraph JSON format."""
    if target == "digraph":
        out = serialize_digraph(from_matrix(_load_matrix(input_file)))
    else:
        try:
            G = parse_digraph(_read_text(input_file))
        except (DigraphFormatError, CyclicDigraphError, ValueError) as exc:
            _fail(EXIT_INPUT, f"{input_file}: {exc}")
        out = serialize_matrix(to_matrix(G))
    if output is None:
        click.echo(out, nl=False, file=sys.stdout)
    else:
        with _open_for_writing(output) as fh:
            fh.write(out)
    sys.exit(EXIT_OK)


def _run_family(
    omega_text: str,
    census_path: Optional[str],
    seed: int,
    budget: int,
    driver: Callable[..., DiscrepancyReport],
) -> DiscrepancyReport:
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
    obj = {
        "omega": list(report.omega),
        "valid": report.total_valid,
        "counts": report.counts,
        "discrepancies": len(report.discrepancies),
        "component_failures": len(report.component_failures),
        **extra,
    }
    lines = [report.summary()]
    if report.component_failures:
        lines.append(f"component failures: {len(report.component_failures)}")
    for rec in report.discrepancies + report.component_failures:
        lines.append(f"  {','.join(rec.flags)}: {rec.matrix}")
    _emit(obj, as_json, lines)
    if report.discrepancies or report.component_failures:
        sys.exit(EXIT_DISCREPANCY)
    sys.exit(EXIT_OK)


_COMMON = [
    click.option("--omega", "omega_text", required=True, help="Comma-separated factor dimensions."),
    click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True),
    click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True),
    click.option("--census", "census_path", type=click.Path(dir_okay=False), default=None),
    click.option("--json", "as_json", is_flag=True, help="Emit one JSON object."),
]


def _common(fn):
    for deco in reversed(_COMMON):
        fn = deco(fn)
    return fn


@main.command(name="enumerate")
@_common
def enumerate_cmd(
    omega_text: str, budget: int, threads: int, census_path: Optional[str], as_json: bool
) -> None:
    """Enumerate the valid matrices of a family, optionally writing a census."""
    def driver(omega: DimensionVector, sink: Sink) -> DiscrepancyReport:
        return _run(omega, {}, lambda A, report: [], None, budget, DEFAULT_SEED, threads, sink)

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


@main.command()
@_common
@click.option(
    "--check",
    "what",
    type=click.Choice(list(_VERIFY)),
    default="spin",
    show_default=True,
)
@click.option(
    "--sample", type=click.IntRange(min=1), default=None, help="Seeded valid-sample size (w3/w4)."
)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
def verify(
    omega_text: str,
    budget: int,
    threads: int,
    census_path: Optional[str],
    as_json: bool,
    what: str,
    sample: Optional[int],
    seed: int,
) -> None:
    """Cross-check closed-form criteria against the digraph form and oracle."""
    if sample is not None and what not in _SAMPLED:
        _fail(EXIT_INPUT, "--sample applies only to w3/w4 checks")
    extra = {"sample": sample, "seed": seed} if what in _SAMPLED else {}
    driver = functools.partial(_VERIFY[what], budget=budget, threads=threads, **extra)
    report = _run_family(omega_text, census_path, seed, budget, driver)
    _report_exit(report, as_json, {"check": what})


@main.command()
@_common
@click.option("--t", "t", type=int, required=True, help="Conjecture level (1 or 2).")
@click.option(
    "--reading",
    type=click.Choice(list(CONJECTURE_READINGS)),
    default="shifted",
    show_default=True,
)
@click.option("--sample", type=click.IntRange(min=1), default=None, help="Seeded valid-sample size.")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
def conjecture(
    omega_text: str,
    budget: int,
    threads: int,
    census_path: Optional[str],
    as_json: bool,
    t: int,
    reading: str,
    sample: Optional[int],
    seed: int,
) -> None:
    """Compare the conjectured congruences with oracle class vanishing."""
    driver = functools.partial(
        verify_conjecture,
        t=t,
        reading=reading,
        sample=sample,
        budget=budget,
        seed=seed,
        threads=threads,
    )
    report = _run_family(omega_text, census_path, seed, budget, driver)
    _report_exit(report, as_json, {"t": t, "reading": reading})


if __name__ == "__main__":
    main()
