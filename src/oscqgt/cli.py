"""Command-line interface: compute, verify, diagrams, sweep.

Structured output keeps the exact rational coefficients; floats are attached
only as convenience evaluations.  Exit codes: 0 success, 1 verification
failure, 2 invalid configuration (a bad argument or an unwritable `--out`),
3 divergent integral, 4 oracle failure (basis too small or no eigensolver
convergence).

`compute` and `diagrams` run the exact symbolic route only; numpy and the
oracles are imported inside the `verify` and `sweep` code that uses them.
"""

from __future__ import annotations

import argparse
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
from .integrator import DivergentIntegral, wedge_integral
from .perturbation import connected_grade
from .scalar_algebra import NonPositiveAlpha, OracleFailure, ScalarSeries
from .wick import edges_to_dot

__all__ = ["main", "RECORD_SCHEMA", "run_verification"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DIVERGENT = 3
EXIT_ORACLE = 4

DEFAULT_MAX_ORDER = 3
MAX_ORDER_ENV = "QGT_MAX_ORDER"
# sweep's basis: the oracle also solves at twice the size, and at 8192 states
# a degree-8 potential no longer converges even at alpha = 1; a larger basis
# also loses digits, as the solver's tolerances scale with max|band| ~ N^(k/2)
MIN_BASIS_SIZE, MAX_BASIS_SIZE = 16, 4096

_SERIES_ITEM = {
    "type": "object",
    "properties": {
        "num": {"type": "integer"},
        "den": {"type": "integer", "minimum": 1},
        "alpha_half_pow": {"type": "integer"},
        "lambda_pow": {"type": "integer", "minimum": 0},
        "j_pow": {"type": "integer", "minimum": 0},
    },
    "required": ["num", "den", "alpha_half_pow", "lambda_pow", "j_pow"],
    "additionalProperties": False,
}

_SERIES_BLOCK = {
    "type": "object",
    "properties": {
        "series": {"type": "array", "items": _SERIES_ITEM},
        "text": {"type": "string"},
        "numeric_value": {"type": ["number", "null"]},
    },
    "required": ["series", "text"],
    "additionalProperties": True,
}

RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "model": {"type": "string", "enum": ["linear", "quartic", "monomial"]},
        "k": {"type": "integer", "minimum": 1},
        "order": {"type": "integer", "minimum": 0},
        "labels": {"type": "array", "items": {"type": "string"}},
        "convention": {
            "type": "object",
            "properties": {
                "fidelity_expansion": {"type": "string"},
                "half_absorbed_into_tensor": {"type": "boolean"},
                "truncation_order": {"type": "integer"},
            },
            "required": ["fidelity_expansion", "half_absorbed_into_tensor", "truncation_order"],
        },
        "parameters": {"type": "object"},
        "formal": {"type": "string"},
        "components": {"type": "object", "additionalProperties": _SERIES_BLOCK},
        "metric": {"type": "object", "additionalProperties": _SERIES_BLOCK},
        "curvature": {"type": "object", "additionalProperties": _SERIES_BLOCK},
        "determinant": _SERIES_BLOCK,
        "critical_coupling": {
            "oneOf": [
                {"type": "null"},
                {
                    "allOf": [
                        _SERIES_BLOCK,
                        {"properties": {"truncation_order": {"type": "integer"}}},
                    ]
                },
            ]
        },
    },
    "required": [
        "model",
        "k",
        "order",
        "labels",
        "convention",
        "components",
        "metric",
        "curvature",
        "determinant",
        "critical_coupling",
    ],
}


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


def _evaluate(series: ScalarSeries, alpha: float, lam: float, j: float) -> float:
    """The series at a point; a value beyond the float range, or one that
    underflows to 0, is an invalid configuration."""
    try:
        return series.evaluate(alpha, lam, j)
    except OverflowError:
        raise ValueError(f"the series overflows a float at alpha={alpha!r}, lambda={lam!r}, j={j!r}") from None
    except FloatingPointError:
        raise ValueError(f"the series underflows a float at alpha={alpha!r}, lambda={lam!r}, j={j!r}") from None


def _series_block(series: ScalarSeries, params: dict | None) -> dict:
    block = {"series": series_records(series), "text": series.render()}
    if params is not None:
        block["numeric_value"] = _evaluate(
            series, params["alpha"], params.get("lambda") or 0.0, params.get("j") or 0.0
        )
    return block


def compute_record(space: qgt.ParameterSpace, order: int, params: dict | None) -> dict:
    components = qgt.assemble(space, order)
    det, critical = qgt.determinant_and_critical(components, space.labels, order)
    blocks = {f"{a},{b}": _series_block(s, params) for (a, b), s in sorted(components.items())}
    # real deformations give G_ab = G_ba: the metric is the tensor, the curvature zero
    zero = _series_block(ScalarSeries.zero(), params)
    record = {
        "model": space.kind,
        "k": space.k,
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
    if space.k % 2 and space.k > 1:
        record["formal"] = (
            f"the series is formal: odd k={space.k} has no ground state for lambda != 0 "
            f"(the potential is unbounded below)"
        )
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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with _writing(out_path):
            Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _debug_integrands(space: qgt.ParameterSpace, order: int) -> str:
    """One line per integrand graph: coefficient, edge pattern, exact wedge value."""
    lines = []
    for a, b in itertools.combinations_with_replacement(space.labels, 2):
        lines.append(f"# integrand g({a},{b})")
        graded = qgt.component_integrand(space, a, b, order)
        for m, grade in sorted(graded.items()):
            power = space.coupling**m
            for edges, coeff in sorted(grade.items()):
                pattern = " ".join(f"D({x},{y})" for x, y in edges)
                value = wedge_integral({edges: coeff}, m) * power
                lines.append(f"  {coeff * power} * {pattern} = {value}")
    return "\n".join(lines) + "\n"


def cmd_compute(args) -> int:
    params = None
    if args.alpha is not None:
        params = {"alpha": args.alpha, "lambda": args.lambda_, "j": args.j}
    if args.verbose:
        sys.stderr.write(_debug_integrands(args.space, args.order))
    record = compute_record(args.space, args.order, params)
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


# -- series versus oracle -----------------------------------------------------


def _compare(space: qgt.ParameterSpace, series: dict, point: tuple, config=None) -> list[tuple]:
    """(a, b, series value, oracle value, oracle error estimate) for each
    entry of `series` at point = (alpha, lambda, j), in sorted order, from an
    oracle with basis `config` (its default when None).

    The oracle runs first, so a point beyond its float range is named as the
    oracle's; a series that underflows there too is named before the oracle.
    """
    from . import spectral_oracle

    where = "alpha={!r}, lambda={!r}, j={!r}".format(*point)
    try:
        oracle = spectral_oracle.numeric_qim(*point, space.potential, config, labels=space.labels)
    except OverflowError:
        raise ValueError(f"the oracle overflows a float at {where}") from None
    except FloatingPointError:
        for s in series.values():
            _evaluate(s, *point)
        raise ValueError(f"the oracle underflows a float at {where}") from None
    rows = []
    for (a, b), s in sorted(series.items()):
        report = oracle.convergence_report[(a, b)]
        err = report["refinement"] + report["basis_doubling"]
        rows.append((a, b, _evaluate(s, *point), oracle.entry(a, b), err))
    return rows


# -- verify -------------------------------------------------------------------


def _check(name: str, component: str, delta: float, tol: float) -> dict:
    return dict(name=name, component=component, delta=delta, tol=tol, passed=delta <= tol)


def _linear_checks() -> list[dict]:
    from . import linear_exact

    checks = []
    space = qgt.ParameterSpace.linear_source()
    series = qgt.assemble(space)
    for alpha, j in itertools.product((0.5, 1.0, 2.0), (0.0, 0.5)):
        exact = linear_exact.exact_linear_qgt(alpha, j)
        for a, b, sym, num, _ in _compare(space, series, (alpha, 0.0, j)):
            closed = exact[(a, b)]
            tol = 1e-6 * max(1.0, abs(closed))
            for kind, x, y in (
                ("series-vs-closed-form", sym, closed),
                ("oracle-vs-closed-form", num, closed),
                ("series-vs-oracle", sym, num),
            ):
                checks.append(_check(f"linear {kind} alpha={alpha} j={j}", f"g({a},{b})", abs(x - y), tol))
    # the series themselves must be equal, term by term; delta is the largest
    # coefficient of any difference
    diffs = {key: series[key] - closed for key, closed in linear_exact.LINEAR_QGT.items()}
    wrong = ", ".join(f"g({a},{b})" for (a, b), d in diffs.items() if not d.is_zero)
    delta = max((float(abs(t.coeff)) for d in diffs.values() for t in d.terms), default=0.0)
    checks.append(_check("linear exact series-vs-closed-form", wrong or "all", delta, 0.0))
    return checks


def _quartic_checks() -> list[dict]:
    import numpy as np

    space = qgt.ParameterSpace.quartic()
    series = qgt.assemble(space, 1)
    # free-theory agreement
    checks = [
        _check(f"quartic free-theory alpha={alpha}", f"g({a},{b})", abs(sym - num), 1e-6 * max(1.0, abs(sym)))
        for alpha in (0.5, 1.0, 2.0)
        for a, b, sym, num, _ in _compare(space, series, (alpha, 0.0, 0.0))
    ]
    # interacting: quadratic remainder scaling, plus the absolute bound at 0.05
    lams = (0.02, 0.04, 0.08)
    for per_lambda in zip(*(_compare(space, series, (1.0, lam, 0.0)) for lam in lams)):
        devs = [abs(sym - num) for _, _, sym, num, _ in per_lambda]
        slope = float(np.polyfit(np.log(lams), np.log(devs), 1)[0])
        a, b = per_lambda[0][:2]
        checks.append(_check("quartic remainder-scaling slope", f"g({a},{b})", abs(slope - 2.0), 0.3))
    *_, (_, _, sym, num, _) = _compare(space, series, (1.0, 0.05, 0.0))  # g(lambda,lambda) sorts last
    checks.append(_check("quartic absolute deviation lambda=0.05", "g(lambda,lambda)", abs(sym - num), 5e-5))
    return checks


def run_verification(which: str) -> list[dict]:
    checks = []
    if which in ("linear", "all"):
        checks.extend(_linear_checks())
    if which in ("quartic", "all"):
        checks.extend(_quartic_checks())
    return checks


def cmd_verify(args) -> int:
    checks = run_verification(args.which)
    failed = [c for c in checks if not c["passed"]]
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        line = f"{status} {c['name']} [{c['component']}] delta={c['delta']:.3e} tol={c['tol']:.3e}"
        print(line)
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


# -- diagrams -----------------------------------------------------------------


def cmd_diagrams(args) -> int:
    try:
        a, b = (label.strip() for label in args.component.split(","))
    except ValueError:
        raise ValueError("component must look like alpha,lambda")
    (k_a, _), (k_b, _) = args.space.derivative(a), args.space.derivative(b)
    out_dir = Path(args.out or ".")
    written = []
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        grade = connected_grade(k_a, k_b, args.order, args.space.potential)
        for idx, (edges, coeff) in enumerate(sorted(grade.items()), start=1):
            name = f"g_{a}_{b}_order{args.order}_term{idx:02d}"
            dot = edges_to_dot(edges, name, f"coefficient {coeff}")
            path = out_dir / f"{name}.dot"
            path.write_text(dot, encoding="utf-8")
            written.append(str(path))
    for path in written:
        print(path)
    print(f"{len(written)} diagram(s) written")
    return EXIT_OK


# -- sweep --------------------------------------------------------------------

SWEEP_COLUMNS = [
    "model", "order", "alpha", "lambda", "j", "entry",
    "series_value", "oracle_value", "oracle_error_est", "abs_deviation",
]


def cmd_sweep(args) -> int:
    import csv

    from . import spectral_oracle

    series = qgt.assemble(args.space, args.order)
    cfg = spectral_oracle.OracleConfig(args.basis_size)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for point in itertools.product(args.alphas, args.lambdas, args.js):
        for a, b, sym, num, err in _compare(args.space, series, point, cfg):
            writer.writerow(
                [args.space.kind, args.order, *map(repr, point), f"{a},{b}"]
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
    if args.order < 0:
        raise ValueError("order must be >= 0")
    cap = os.environ.get(MAX_ORDER_ENV) or str(DEFAULT_MAX_ORDER)
    if not cap.strip().isdecimal():
        raise ValueError(f"{MAX_ORDER_ENV} must be a non-negative integer, not {cap!r}")
    max_order = int(cap)
    # the linear series is exact at any order; only diagrams expands at `order`
    exact = args.space.kind == "linear" and args.command != "diagrams"
    if args.order > max_order and not exact:
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
            raise ValueError(f"the {args.model} model has no parameter {name}")


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


if __name__ == "__main__":
    sys.exit(main())
