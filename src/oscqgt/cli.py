"""Command-line interface: compute, verify, diagrams, sweep.

Structured output keeps the exact rational coefficients; floats are attached
only as convenience evaluations.  Exit codes: 0 success, 1 verification
failure, 2 invalid configuration, 3 divergent integral, 4 spectral oracle
failure (basis too small, finite-difference step too large, or no eigensolver
convergence).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import linear_exact, qgt, spectral_oracle
from .integrator import DivergentIntegral, wedge_integral
from .perturbation import DEFAULT_MAX_ORDER, OrderOverflow, connected_integrand
from .scalar_algebra import NonPositiveAlpha, ScalarSeries
from .spectral_oracle import BasisTooSmall, NoConvergence, StepTooLarge
from .wick import edges_to_dot

__all__ = ["main", "RECORD_SCHEMA", "run_verification"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DIVERGENT = 3
EXIT_ORACLE = 4

MAX_ORDER_ENV = "QGT_MAX_ORDER"

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


def _series_block(series: ScalarSeries, params: dict | None) -> dict:
    block = {"series": series_records(series), "text": series.render()}
    if params is not None:
        block["numeric_value"] = series.evaluate(
            params["alpha"], params.get("lambda") or 0.0, params.get("j") or 0.0
        )
    return block


def _space_for(model: str, k: int) -> qgt.ParameterSpace:
    if model == "linear":
        return qgt.ParameterSpace.linear_source()
    if model == "quartic":
        return qgt.ParameterSpace.quartic()
    return qgt.ParameterSpace.monomial(k)


def _parse_model(token: str) -> tuple[str, int]:
    if token == "linear":
        return "linear", 1
    if token == "quartic":
        return "quartic", 4
    if token.startswith("monomial:"):
        k = int(token.split(":", 1)[1])
        if k < 1:
            raise ValueError("monomial degree must be >= 1")
        return "monomial", k
    raise ValueError(f"unknown model {token!r} (expected linear|quartic|monomial:k)")


def compute_record(model: str, k: int, order: int, params: dict | None, max_order: int) -> dict:
    space = _space_for(model, k)
    result = qgt.assemble(space, order, max_order)
    det, critical = qgt.determinant_and_critical(result.metric, result.labels, order)
    record = {
        "model": model,
        "k": space.k,
        "order": order,
        "labels": list(result.labels),
        "convention": dict(qgt.CONVENTION, truncation_order=order),
        "components": {
            f"{a},{b}": _series_block(s, params) for (a, b), s in sorted(result.components.items())
        },
        "metric": {
            f"{a},{b}": _series_block(s, params) for (a, b), s in sorted(result.metric.items())
        },
        "curvature": {
            f"{a},{b}": _series_block(s, params) for (a, b), s in sorted(result.curvature.items())
        },
        "determinant": _series_block(det, params),
        "critical_coupling": None,
    }
    if params is not None:
        record["parameters"] = params
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
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["entry", "text", "numeric_value"])
    for name, block in record["components"].items():
        writer.writerow([name, block["text"], block.get("numeric_value", "")])
    writer.writerow(["det", record["determinant"]["text"], record["determinant"].get("numeric_value", "")])
    crit = record["critical_coupling"]
    writer.writerow(["critical_coupling", crit["text"] if crit else "", ""])
    return out.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _debug_integrands(space, order: int, max_order: int) -> str:
    """One line per integrand product: coefficient, edge pattern, exact wedge value."""
    lines = []
    for a, b in itertools.combinations_with_replacement(space.labels, 2):
        lines.append(f"# integrand g({a},{b})")
        by_vertices = qgt.component_integrand(space, a, b, order, max_order)
        for m, products in sorted(by_vertices.items()):
            for product in products:
                pattern = " ".join(f"D({x},{y})" for x, y in product.edges)
                value = wedge_integral([product], n_vertices=m)
                lines.append(f"  {product.coeff} * {pattern} = {value}")
    return "\n".join(lines) + "\n"


def cmd_compute(args) -> int:
    params = None
    if args.alpha is not None:
        params = {"alpha": args.alpha, "lambda": args.lambda_, "j": args.j}
    if args.verbose:
        space = _space_for(args.model_kind, args.model_k)
        sys.stderr.write(_debug_integrands(space, args.order, args.max_order))
    record = compute_record(args.model_kind, args.model_k, args.order, params, args.max_order)
    if args.format == "json":
        _emit(json.dumps(record, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        _emit(_record_csv(record), args.out)
    else:
        _emit(_record_text(record), args.out)
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _linear_checks() -> list[dict]:
    checks = []
    space = qgt.ParameterSpace.linear_source()
    series = {
        (a, b): qgt.qgt_component(space, a, b) for a in space.labels for b in space.labels
    }
    cfg = spectral_oracle.OracleConfig()
    for alpha in (0.5, 1.0, 2.0):
        for j in (0.0, 0.5):
            exact = linear_exact.exact_linear_qgt(alpha, j)
            oracle = spectral_oracle.numeric_qim(
                alpha, 0.0, j, None, cfg, labels=("alpha", "j")
            )
            for (a, b), closed in exact.items():
                sym = series[(a, b)].evaluate(alpha, 0.0, j)
                num = oracle.entry(a, b)
                tol = 1e-6 * max(1.0, abs(closed))
                for kind, x, y in (
                    ("series-vs-closed-form", sym, closed),
                    ("oracle-vs-closed-form", num, closed),
                    ("series-vs-oracle", sym, num),
                ):
                    checks.append(
                        {
                            "name": f"linear {kind} alpha={alpha} j={j}",
                            "component": f"g({a},{b})",
                            "delta": abs(x - y),
                            "tol": tol,
                            "passed": abs(x - y) <= tol,
                        }
                    )
    report = linear_exact.overlap_derivative_checks(1.0, 0.5)
    checks.append(
        {
            "name": "linear overlap-quadrature",
            "component": "all",
            "delta": report["max_relative_deviation"],
            "tol": 1e-6,
            "passed": report["max_relative_deviation"] <= 1e-6,
        }
    )
    return checks


def _quartic_checks() -> list[dict]:
    checks = []
    space = qgt.ParameterSpace.quartic()
    series = {
        (a, b): qgt.qgt_component(space, a, b, 1) for a in space.labels for b in space.labels
    }
    cfg = spectral_oracle.OracleConfig()
    potential = space.potential
    # free-theory agreement
    for alpha in (0.5, 1.0, 2.0):
        oracle = spectral_oracle.numeric_qim(alpha, 0.0, 0.0, potential, cfg)
        for (a, b), s in series.items():
            sym = s.evaluate(alpha, 0.0)
            num = oracle.entry(a, b)
            tol = 1e-6 * max(1.0, abs(sym))
            checks.append(
                {
                    "name": f"quartic free-theory alpha={alpha}",
                    "component": f"g({a},{b})",
                    "delta": abs(sym - num),
                    "tol": tol,
                    "passed": abs(sym - num) <= tol,
                }
            )
    # interacting: quadratic remainder scaling, plus the absolute bound at 0.05
    lams = (0.02, 0.04, 0.08)
    devs = {key: [] for key in series}
    for lam in lams:
        oracle = spectral_oracle.numeric_qim(1.0, lam, 0.0, potential, cfg)
        for key, s in series.items():
            devs[key].append(abs(oracle.entry(*key) - s.evaluate(1.0, lam)))
    for (a, b), values in devs.items():
        slope = float(np.polyfit(np.log(lams), np.log(values), 1)[0])
        checks.append(
            {
                "name": "quartic remainder-scaling slope",
                "component": f"g({a},{b})",
                "delta": abs(slope - 2.0),
                "tol": 0.3,
                "passed": 1.7 <= slope <= 2.3,
            }
        )
    oracle = spectral_oracle.numeric_qim(1.0, 0.05, 0.0, potential, cfg)
    dev = abs(
        oracle.entry("lambda", "lambda") - series[("lambda", "lambda")].evaluate(1.0, 0.05)
    )
    checks.append(
        {
            "name": "quartic absolute deviation lambda=0.05",
            "component": "g(lambda,lambda)",
            "delta": dev,
            "tol": 5e-5,
            "passed": dev <= 5e-5,
        }
    )
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
    space = _space_for(args.model_kind, args.model_k)
    try:
        a, b = args.component.split(",")
    except ValueError:
        raise ValueError("component must look like alpha,lambda")
    graded = connected_integrand(
        space.operator(a.strip()), space.operator(b.strip()), args.order,
        space.potential, args.max_order,
    )
    grade = graded.get(args.order, {})
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for idx, (edges, coeff) in enumerate(sorted(grade.items()), start=1):
        name = f"g_{a.strip()}_{b.strip()}_order{args.order}_term{idx:02d}"
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


def _sweep_point(space, series, point, cfg):
    alpha, lam, j = point
    labels = space.labels
    potential = space.potential if space.kind != "linear" else None
    oracle = spectral_oracle.numeric_qim(alpha, lam, j, potential, cfg, labels=labels)
    rows = []
    for (a, b), s in sorted(series.items()):
        sym = s.evaluate(alpha, lam, j)
        num = oracle.entry(a, b)
        err = oracle.convergence_report[(a, b)]
        rows.append(
            [
                space.kind,
                "",  # order filled by caller
                repr(alpha), repr(lam), repr(j),
                f"{a},{b}",
                repr(sym), repr(num),
                repr(float(err["fd_halving"] + err["basis_doubling"])),
                repr(abs(sym - num)),
            ]
        )
    return rows


def cmd_sweep(args) -> int:
    space = _space_for(args.model_kind, args.model_k)
    series = {
        (a, b): qgt.qgt_component(space, a, b, args.order, args.max_order)
        for a in space.labels
        for b in space.labels
    }
    cfg = spectral_oracle.OracleConfig(basis_size=args.basis_size)
    if args.fd_step is not None:
        cfg.fd_step = {label: args.fd_step for label in ("alpha", "lambda", "j")}
    alphas = _parse_grid(args.alphas)
    lams = _parse_grid(args.lambdas)
    js = _parse_grid(args.js)
    points = [(a, l, j) for a in alphas for l in lams for j in js]
    rows: list[list[str]] = []
    if points:
        with ThreadPoolExecutor(max_workers=min(8, os.cpu_count() or 1)) as pool:
            for point_rows in pool.map(
                lambda p: _sweep_point(space, series, p, cfg), points
            ):
                rows.extend(point_rows)
    for row in rows:
        row[1] = str(args.order)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows(rows)
    _emit(out.getvalue(), args.out)
    return EXIT_OK


def _parse_grid(token: str) -> list[float]:
    token = (token or "").strip()
    if not token:
        return []
    return [float(x) for x in token.split(",") if x.strip()]


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgt",
        description="Ground-state quantum geometric tensor of a perturbed oscillator",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_params=True):
        p.add_argument("--model", default="quartic", help="linear | quartic | monomial:k")
        p.add_argument("--order", type=int, default=1, help="coupling truncation order")
        if with_params:
            p.add_argument("--alpha", type=float, default=None)
            p.add_argument("--lambda", dest="lambda_", type=float, default=0.0)
            p.add_argument("--j", type=float, default=0.0)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default=None, help="output path (stdout by default)")

    p_compute = sub.add_parser("compute", help="symbolic tensor components")
    add_common(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    p_verify.add_argument("which", choices=("linear", "quartic", "all"))
    p_verify.set_defaults(func=cmd_verify)

    p_diag = sub.add_parser("diagrams", help="DOT export of the integrand diagrams")
    add_common(p_diag, with_params=False)
    p_diag.add_argument("--component", default="alpha,alpha", help="e.g. alpha,lambda")
    p_diag.set_defaults(func=cmd_diagrams)

    p_sweep = sub.add_parser("sweep", help="grid comparison against the spectral oracle")
    p_sweep.add_argument("--model", default="quartic")
    p_sweep.add_argument("--order", type=int, default=1)
    p_sweep.add_argument("--alphas", default="1.0", help="comma-separated grid")
    p_sweep.add_argument("--lambdas", default="0.0", help="comma-separated grid")
    p_sweep.add_argument("--js", default="0.0", help="comma-separated grid")
    p_sweep.add_argument("--basis-size", type=int, default=128)
    p_sweep.add_argument("--fd-step", type=float, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _validate(args) -> None:
    args.model_kind, args.model_k = _parse_model(args.model)
    order = getattr(args, "order", 1)
    if order < 0:
        raise ValueError("order must be >= 0")
    cap = os.environ.get(MAX_ORDER_ENV)
    args.max_order = max(int(cap), 0) if cap else DEFAULT_MAX_ORDER
    if order > args.max_order:
        raise OrderOverflow(
            f"order {order} exceeds the maximum {args.max_order} "
            f"(override with {MAX_ORDER_ENV})"
        )
    for name in ("alpha", "lambda_", "j"):
        value = getattr(args, name, None)
        if value is not None and not np.isfinite(value):
            raise ValueError(f"parameter {name.rstrip('_')} must be finite")
    alpha = getattr(args, "alpha", None)
    if alpha is not None and alpha <= 0:
        raise NonPositiveAlpha("alpha must be > 0")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "verify":
            _validate(args)
        return args.func(args)
    except (OrderOverflow, NonPositiveAlpha, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except DivergentIntegral as exc:
        print(f"divergent integral: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except (BasisTooSmall, StepTooLarge, NoConvergence) as exc:
        print(f"oracle failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
