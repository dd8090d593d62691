"""Command-line interface: compute, verify, diagrams, sweep.

Structured output keeps the exact rational coefficients; floats are attached
only as convenience evaluations.  Exit codes: 0 success, 1 verification
failure, 2 invalid configuration (a bad argument, an unwritable `--out`, or
an unwritable stdout, reported in one line), 3 divergent integral, 4 oracle
failure (basis too small or no eigensolver convergence).

`compute` and `diagrams` run the exact symbolic route only.  The series
versus oracle code (`oscqgt.crosscheck`), and with it numpy and the oracles,
is imported inside the `verify` and `sweep` commands that use it.  The JSON
record's schema is kept with the tests that validate it.

`run` is the process entry point: once `main` has returned, the atexit
handlers have run and the output is flushed, it ends the process with
`os._exit`, skipping the interpreter's teardown, which costs 4-12 ms per
command (most of it numpy's modules).  `main` is the in-process API: it
returns the exit code, and only argparse's `--help` raises `SystemExit`.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import errno
import io
import itertools
import math
import os
import re
import sys
from pathlib import Path

from . import qgt
from .integrator import DivergentIntegral
from .perturbation import NoGroundState, _require_ground_state, connected_grades
from .scalar_algebra import NonPositiveAlpha, OracleFailure, ScalarSeries
from .wick import connected_dot, edge_layout, edge_names, mirror_form, name_key

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DIVERGENT = 3
EXIT_ORACLE = 4

DEFAULT_MAX_ORDER = 3
MAX_ORDER_ENV = "QGT_MAX_ORDER"
# sweep's basis: the oracle also solves at twice the size, and at 8192 states
# a degree-8 potential no longer converges to its metric even at alpha = 1,
# on the even states as on all (G_alpha,alpha at lambda = 0.01 is 0.0308, not
# 0.0312); a larger basis loses digits, as the solver's tolerances scale with
# max|band| ~ N^(k/2)
MIN_BASIS_SIZE, MAX_BASIS_SIZE = 16, 4096

def series_records(series: ScalarSeries) -> list[dict]:
    return [
        {
            "num": t.coeff.numerator,
            "den": t.coeff.denominator,
            "alpha_half_pow": t.alpha_half_pow,
            "lambda_pow": t.lambda_pow,
            "j_pow": t.j_pow,
        }
        for t in series.terms
    ]


def _series_block(series: ScalarSeries, params: dict | None) -> dict:
    block = {"series": series_records(series), "text": series.render()}
    if params is not None:
        block["numeric_value"] = qgt.evaluate(
            series, params["alpha"], params.get("lambda") or 0.0, params.get("j") or 0.0
        )
    return block


def _require_printable(space: qgt.ParameterSpace, what: str, numbers) -> None:
    """Reject the model's `what` if Python would refuse to write one of its
    `numbers`, fractions: one with an integer of more digits than
    `sys.get_int_max_str_digits()` (0, or a Python without the limit: none)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bound = 10**limit
    if limit and any(max(abs(x.numerator), x.denominator) >= bound for x in numbers):
        raise ValueError(
            f"the {space.name} {what} has a coefficient of more than {limit} digits, "
            f"Python's limit for writing an integer (sys.set_int_max_str_digits)"
        )


def _graphs(grade: dict, m: int, k_a: int):
    """Each graph of a grade of `connected_grades` as (edge counts, weight, its entry):
    a class's own, and its mirror, with loops moved between the taus until tau1 has k_a legs."""
    tau1 = edge_layout(m + 2)[1][m]
    for counts, (weight, mirror) in grade.items():
        if weight:
            yield counts, weight, counts
        if mirror:
            twin = mirror_form(counts, m)
            shift = (k_a - twin[-3] - sum(map(twin.__getitem__, tau1))) // 2
            yield (*twin[:-3], twin[-3] + shift, twin[-2], twin[-1] - shift), mirror, counts


def compute_record(space: qgt.ParameterSpace, order: int, params: dict | None, show=None) -> dict:
    """The structured record of `compute`; `show` goes to `qgt.assemble`."""
    components = qgt.assemble(space, order, show)
    det, critical = qgt.determinant_and_critical(components, space.labels, order)
    _require_printable(space, "series", (t.coeff for s in (*components.values(), det, critical) if s for t in s.terms))
    blocks = {f"{a},{b}": _series_block(s, params) for (a, b), s in sorted(components.items())}
    # real deformations give G_ab = G_ba: the metric is the tensor, the curvature zero
    zero = _series_block(ScalarSeries.zero(), params)
    record = {
        "model": space.name.partition(":")[0],
        "k": space.potential.degree,
        "order": order,
        "labels": list(space.labels),
        "convention": dict(qgt.CONVENTION, truncation_order=order),
        "components": blocks,
        "metric": blocks,
        "curvature": dict.fromkeys(blocks, zero),
        "determinant": _series_block(det, params),
        "critical_coupling": None,
    }
    if params is not None:
        record["parameters"] = params
    if (k := space.potential.degree) % 2 and k > 1:
        record["formal"] = (
            f"the series is formal: odd k={k} has no ground state for lambda != 0 "
            f"(the potential is unbounded below)"
        )
    elif params is not None:
        try:
            _require_ground_state(params["alpha"], params.get("lambda") or 0.0, space.potential)
        except NoGroundState as exc:
            record["formal"] = f"the series is formal: {exc}"
    if critical is not None:
        block = _series_block(critical, None)
        block["truncation_order"] = order
        record["critical_coupling"] = block
    return record


def _record_text(record: dict) -> str:
    out = io.StringIO()
    out.write(f"model: {record['model']} (k={record['k']}), order {record['order']}\n")
    out.write(f"convention: {record['convention']['fidelity_expansion']}\n")
    for name, block in record["components"].items():
        out.write(f"G_{name} = {block['text']}")
        if "numeric_value" in block:
            out.write(f" = {block['numeric_value']:.12g}")
        out.write("\n")
    out.write(f"det(g) = {record['determinant']['text']}")
    if "numeric_value" in record["determinant"]:
        out.write(f" = {record['determinant']['numeric_value']:.12g}")
    out.write("\n")
    if record["critical_coupling"] is not None:
        out.write(f"critical coupling = {record['critical_coupling']['text']}\n")
    else:
        out.write("critical coupling: none at this order\n")
    return out.getvalue()


def _record_csv(record: dict) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["entry", "text", "numeric_value"])
    for name, block in record["components"].items():
        writer.writerow([name, block["text"], block.get("numeric_value", "")])
    writer.writerow(["det", record["determinant"]["text"], record["determinant"].get("numeric_value", "")])
    crit = record["critical_coupling"]
    writer.writerow(["critical_coupling", crit["text"] if crit else "", ""])
    return out.getvalue()


@contextlib.contextmanager
def _writing(path):
    """Report a failure to write the `--out` path as an invalid configuration."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_file(path: str, data: bytes) -> None:
    """Create or truncate the file `path` and write `data` to it: one open,
    as many writes as it takes, one close."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


def _emit(text: str, out_path: str | None) -> None:
    """Write `text` to `out_path`, or to stdout when it is None."""
    if out_path:
        with _writing(out_path):
            _write_file(out_path, text.encode())
    else:
        with _writing("stdout"):
            sys.stdout.write(text)


def cmd_compute(args) -> int:
    params = None
    if args.alpha is not None:
        params = {"alpha": args.alpha, "lambda": args.lambda_, "j": args.j}
    graded = {}

    def show(k_a: int, k_b: int, m: int, grade: dict, values: dict) -> None:
        # one line per integrand graph: coefficient, edge pattern, exact wedge value
        power, lines, graphs = args.space.power(m), graded.setdefault((k_a, k_b), []), []
        for counts, coeff, key in _graphs(grade, m, k_a):
            weight = coeff * power
            graphs.append((edge_names(counts), weight, values[key] * weight))
        _require_printable(args.space, "series", (t.coeff for _, w, v in graphs for t in w.terms + v.terms))
        for edges, weight, value in sorted(graphs):
            pattern = " ".join(f"D({x},{y})" for x, y in edges)
            lines.append(f"  {weight} * {pattern} = {value}\n")

    record = compute_record(args.space, args.order, params, show if args.verbose else None)
    for a, b in itertools.combinations_with_replacement(args.space.labels, 2) if args.verbose else ():
        lines = graded[args.space.derivative(a)[0], args.space.derivative(b)[0]]
        sys.stderr.write(f"# integrand g({a},{b})\n" + "".join(lines))
    if "formal" in record:
        print(f"note: {record['formal']}", file=sys.stderr)
    if args.format == "json":
        import json

        _emit(json.dumps(record, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        _emit(_record_csv(record), args.out)
    else:
        _emit(_record_text(record), args.out)
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    from .crosscheck import run_verification

    checks = run_verification(args.which)
    failed = [c for c in checks if not c["passed"]]
    lines = []
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"{status} {c['name']} [{c['component']}] delta={c['delta']:.3e} tol={c['tol']:.3e}\n")
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
    _emit("".join(lines), None)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


# -- diagrams -----------------------------------------------------------------


def cmd_diagrams(args) -> int:
    try:
        a, b = (label.strip() for label in args.component.split(","))
    except ValueError:
        raise ValueError("component must look like alpha,lambda")
    (k_a, _), (k_b, _) = args.space.derivative(a), args.space.derivative(b)
    if args.order == 0 and k_a == k_b:  # before the walk: the graph linking every leg has weight k_a!
        _require_printable(args.space, "integrand", [math.factorial(k_a)])
    out_dir = Path(args.out or ".")
    # each file's path as `out_dir / file` spells it: bare in the current directory
    prefix = os.path.join(out_dir, "") if out_dir.parts else ""
    written = []
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        [grade] = connected_grades([(k_a, k_b)], args.order, args.space.potential).values()
        graphs = {counts: weight for counts, weight, _ in _graphs(grade, args.order, k_a)}
        _require_printable(args.space, "integrand", graphs.values())  # before the first file
        for idx, counts in enumerate(sorted(graphs, key=name_key), start=1):
            name = f"g_{a}_{b}_order{args.order}_term{idx:02d}"
            path = f"{prefix}{name}.dot"
            _write_file(path, connected_dot(counts, name, f"coefficient {graphs[counts]}").encode())
            written.append(f"{path}\n")
    _emit("".join(written) + f"{len(written)} diagram(s) written\n", None)
    return EXIT_OK


# -- sweep --------------------------------------------------------------------

SWEEP_COLUMNS = [
    "model", "order", "alpha", "lambda", "j", "entry",
    "series_value", "oracle_value", "oracle_error_est", "abs_deviation",
]


def cmd_sweep(args) -> int:
    import csv

    from .crosscheck import compare  # compiled before numpy loads: a lower peak RSS
    from . import spectral_oracle

    spectral_oracle._check_degree(args.space.potential)  # before the series
    series = qgt.assemble(args.space, args.order)
    cfg = spectral_oracle.OracleConfig(args.basis_size)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    points = list(itertools.product(args.alphas, args.lambdas, args.js))
    for point, rows in zip(points, compare(args.space, series, points, cfg)):
        for a, b, sym, num, err in rows:
            writer.writerow(
                [args.space.name, args.order, *map(repr, point), f"{a},{b}"]
                + [repr(x) for x in (sym, num, err, abs(sym - num))]
            )
    _emit(out.getvalue(), args.out)
    return EXIT_OK


def _parse_grid(option: str, token: str) -> list[float]:
    """An empty token is an empty grid; an empty entry is an error."""
    if not token.strip():
        return []
    try:
        return [float(x) for x in token.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be comma-separated numbers, not {token!r}") from None


# -- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are invalid configurations.

    argparse takes a token that starts with '-' for an option unless it
    matches its negative-number pattern, which misses exponent form and grids
    (`--alphas -1e-3`, `--alphas -1,2`).  No option here starts with a digit
    or spells inf/nan, so every such token is read as a value and reaches
    `_validate`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)

    def _print_message(self, message, file=None):
        # argparse drops a failed write; `--help` on an unwritable stdout is
        # reported as one line, as every other command's output is
        if message and file is sys.stdout:
            _emit(message, None)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qgt",
        description="Ground-state quantum geometric tensor of a perturbed oscillator",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--model", default="quartic", help="linear | quartic | monomial:k")
        p.add_argument("--order", type=int, default=1, help="coupling truncation order")

    p_compute = sub.add_parser("compute", help="symbolic tensor components")
    add_common(p_compute)
    p_compute.add_argument("--alpha", type=float, default=None)
    p_compute.add_argument("--lambda", dest="lambda_", type=float, default=0.0)
    p_compute.add_argument("--j", type=float, default=0.0)
    p_compute.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_compute.add_argument("--out", default=None, help="output path (stdout by default)")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    p_verify.add_argument("which", choices=("linear", "quartic", "all"))
    p_verify.set_defaults(func=cmd_verify)

    p_diag = sub.add_parser("diagrams", help="DOT export of the integrand diagrams")
    add_common(p_diag)
    p_diag.add_argument("--component", default="alpha,alpha", help="e.g. alpha,lambda")
    p_diag.add_argument("--out", default=None, help="output directory (. by default)")
    p_diag.set_defaults(func=cmd_diagrams)

    p_sweep = sub.add_parser("sweep", help="grid comparison against the spectral oracle")
    add_common(p_sweep)
    p_sweep.add_argument("--alphas", default="1.0", help="comma-separated grid")
    p_sweep.add_argument("--lambdas", default="0.0", help="comma-separated grid")
    p_sweep.add_argument("--js", default="0.0", help="comma-separated grid")
    p_sweep.add_argument("--basis-size", type=int, default=128)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _validate(args) -> None:
    try:
        args.space = qgt.ParameterSpace.parse(args.model)
    except ValueError as exc:
        raise ValueError(f"--model: {exc}") from None
    if args.command == "compute":  # before the walk: G_lambda,lambda has longer coefficients than 1/k!
        _require_printable(args.space, "potential", (c for _, c in args.space.potential.coefficients))
    if args.order < 0:
        raise ValueError("order must be >= 0")
    cap = os.environ.get(MAX_ORDER_ENV) or str(DEFAULT_MAX_ORDER)
    if not cap.strip().isdecimal():
        raise ValueError(f"{MAX_ORDER_ENV} must be a non-negative integer, not {cap!r}")
    max_order = int(cap)
    # a series summed exactly ignores `order`; only diagrams expands at it
    if args.order > max_order and not (args.space.exact and args.command != "diagrams"):
        raise ValueError(
            f"order {args.order} exceeds the maximum {max_order} (override with {MAX_ORDER_ENV})"
        )
    out = getattr(args, "out", None)
    if out and args.command != "diagrams":
        # fail before the work; `_writing` still reports a failure of the write itself
        parent = Path(out).parent
        if not parent.is_dir():
            reason = errno.ENOTDIR if parent.exists() else errno.ENOENT
            raise ValueError(f"cannot write {out}: {os.strerror(reason)}")
    if args.command == "sweep":
        if not MIN_BASIS_SIZE <= args.basis_size <= MAX_BASIS_SIZE:
            raise ValueError(
                f"--basis-size must be between {MIN_BASIS_SIZE} and {MAX_BASIS_SIZE}, not {args.basis_size}"
            )
        args.alphas, args.lambdas, args.js = (
            _parse_grid(f"--{name}", getattr(args, name)) for name in ("alphas", "lambdas", "js")
        )
        values = {"alpha": args.alphas, "lambda": args.lambdas, "j": args.js}
    else:
        values = {
            name.rstrip("_"): [value]
            for name in ("alpha", "lambda_", "j")
            if (value := getattr(args, name, None)) is not None
        }
    for name, grid in values.items():
        if not all(math.isfinite(value) for value in grid):
            raise ValueError(f"parameter {name} must be finite")
    if any(alpha <= 0 for alpha in values.get("alpha", ())):
        raise NonPositiveAlpha("alpha must be > 0")
    for name, grid in values.items():
        if name not in args.space.labels and any(grid):
            raise ValueError(f"the {args.space.name} model has no parameter {name}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command != "verify":
            _validate(args)
        return args.func(args)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except DivergentIntegral as exc:
        print(f"divergent integral: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except OracleFailure as exc:
        print(f"oracle failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ORACLE


def run():
    """The process entry point of `python -m oscqgt.cli` and the `qgt` script.

    After `main`, the atexit handlers run and stdout and stderr are flushed,
    as at Python's own exit; then `os._exit` ends the process with main's
    code, skipping module teardown and the final garbage collection.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help
        code = exc.code
    atexit._run_exitfuncs()
    try:
        with _writing("stdout"):
            sys.stdout.flush()
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        code = EXIT_BAD_CONFIG
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
