"""Benchmark workloads: the CLI requests each one sends, and the gates on their output.

A workload is a fixed set of requests.  The seed orders the requests within
each pass and draws the oracle-grid (alpha, lambda) points; every other input
is fixed.  The gates compare each request's output with `reference.json`,
which `make_reference.py` wrote once from the program at the commit that
introduced this benchmark.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

WORKLOADS = ("series-o3", "diagrams-o4", "oracle-grid")

# The oracle-grid draw stays inside the range where the order-2 series and
# the N=256 oracle are both valid for the quartic model.
ALPHA_RANGE = (0.5, 2.0)
LAMBDA_RANGE = (0.005, 0.05)
GRID_SIDE = 3

# Sweep rows must agree with the oracle within its own error estimate plus
# this multiple of the first omitted (order-3) series term.
TRUNCATION_FACTOR = 1.5
SERIES_VALUE_RTOL = 1e-12

RECORD_FIELDS = ("components", "metric", "curvature", "determinant", "critical_coupling")
SERIES_KEYS = ("num", "den", "alpha_half_pow", "lambda_pow", "j_pow")


@dataclass(frozen=True)
class Request:
    """One CLI invocation: `python -m oscqgt.cli <argv>` with `env` added.

    `kind` names the end-to-end metric it counts toward.  A request with
    `out_dir` set gets `--out <fresh empty directory>` appended.  An untraced
    pass sends the request `repeat` times in a row; a traced pass sends it once.
    """

    key: str
    kind: str
    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    out_dir: bool = False
    repeat: int = 1


def draw_grid(seed: int) -> tuple[list[float], list[float]]:
    rng = random.Random(f"oracle-grid:{seed}")
    alphas = sorted(round(rng.uniform(*ALPHA_RANGE), 4) for _ in range(GRID_SIDE))
    lambdas = sorted(round(rng.uniform(*LAMBDA_RANGE), 5) for _ in range(GRID_SIDE))
    return alphas, lambdas


def _csv(values: list[float]) -> str:
    return ",".join(repr(v) for v in values)


def requests(workload: str, seed: int) -> list[Request]:
    """The workload's requests in their canonical order."""
    if workload == "series-o3":
        return [
            Request("compute-quartic-o3", "compute",
                    ("compute", "--model", "quartic", "--order", "3", "--format", "json"),
                    (("QGT_MAX_ORDER", "3"),)),
            # A quarter of the length of the request above, and as noisy: sent
            # twice per pass, so that its median rests on more samples.
            Request("compute-monomial6-o2", "compute",
                    ("compute", "--model", "monomial:6", "--order", "2", "--format", "json"),
                    repeat=2),
        ]
    if workload == "diagrams-o4":
        return [
            Request("diagrams-quartic-alpha-lambda-o4", "diagrams",
                    ("diagrams", "--model", "quartic", "--component", "alpha,lambda",
                     "--order", "4"),
                    (("QGT_MAX_ORDER", "4"),), out_dir=True),
            Request("diagrams-monomial6-lambda-lambda-o3", "diagrams",
                    ("diagrams", "--model", "monomial:6", "--component", "lambda,lambda",
                     "--order", "3"),
                    (("QGT_MAX_ORDER", "3"),), out_dir=True),
        ]
    if workload == "oracle-grid":
        alphas, lambdas = draw_grid(seed)
        return [
            Request("sweep-quartic-o2", "sweep",
                    ("sweep", "--model", "quartic", "--order", "2", "--basis-size", "256",
                     "--alphas", _csv(alphas), "--lambdas", _csv(lambdas))),
            Request("verify-all", "verify", ("verify", "all")),
        ]
    raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")


def pass_orders(workload: str, seed: int):
    """Endless stream of request orders, one per pass, fixed by the seed."""
    base = requests(workload, seed)
    rng = random.Random(f"{workload}:order:{seed}")
    while True:
        yield rng.sample(base, len(base))


# -- gates --------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _series(block: dict | None) -> list[list[int]] | None:
    if block is None:
        return None
    return sorted([item[k] for k in SERIES_KEYS] for item in block["series"])


def record_series(record: dict) -> dict:
    """The exact coefficient series of a `compute --format json` record."""
    out = {}
    for field in RECORD_FIELDS:
        value = record[field]
        if field in ("determinant", "critical_coupling"):
            out[field] = _series(value)
        else:
            out[field] = {name: _series(block) for name, block in sorted(value.items())}
    return out


_COEFF_LABEL = re.compile(r'label="coefficient ([^"]+)"')


def diagram_summary(out_dir: Path) -> dict:
    """File count and coefficient multiset of a `diagrams` output directory."""
    coeffs: Counter = Counter()
    files = sorted(out_dir.glob("*.dot"))
    for path in files:
        match = _COEFF_LABEL.search(path.read_text(encoding="utf-8"))
        coeffs[str(Fraction(match.group(1))) if match else "?"] += 1
    return {"files": len(files), "coefficients": dict(sorted(coeffs.items()))}


def plain_value(series: list[list[int]], alpha: float, lam: float, lambda_pows) -> float:
    """The J=0 terms with the given lambda powers, evaluated in plain float
    arithmetic, independently of ScalarSeries."""
    return sum(
        num / den * alpha ** (half_pow / 2) * lam ** lambda_pow
        for num, den, half_pow, lambda_pow, j_pow in series
        if lambda_pow in lambda_pows and j_pow == 0
    )


def _gate_sweep(stdout: str, reference: dict, request: Request) -> str | None:
    argv = request.argv
    alphas = [float(x) for x in argv[argv.index("--alphas") + 1].split(",")]
    lambdas = [float(x) for x in argv[argv.index("--lambdas") + 1].split(",")]
    components = reference["compute-quartic-o3"]["components"]
    rows = list(csv.DictReader(io.StringIO(stdout)))
    expected_points = {(a, l) for a in alphas for l in lambdas}
    seen = Counter((float(r["alpha"]), float(r["lambda"])) for r in rows)
    if set(seen) != expected_points or set(seen.values()) != {len(components)}:
        return f"sweep rows cover {sorted(seen.items())}, expected {len(components)} per grid point"
    for row in rows:
        alpha, lam = float(row["alpha"]), float(row["lambda"])
        series = components[row["entry"]]
        want = plain_value(series, alpha, lam, range(3))
        got = float(row["series_value"])
        if abs(got - want) > SERIES_VALUE_RTOL * max(abs(want), 1e-300):
            return f"series_value {got!r} != reference {want!r} at {row['entry']} ({alpha}, {lam})"
        allowance = float(row["oracle_error_est"]) + TRUNCATION_FACTOR * abs(
            plain_value(series, alpha, lam, (3,))
        )
        deviation = abs(float(row["oracle_value"]) - got)
        if deviation > allowance:
            return (f"oracle deviation {deviation:.3e} > allowance {allowance:.3e} "
                    f"at {row['entry']} ({alpha}, {lam})")
    return None


def _gate_verify(stdout: str, reference: dict) -> str | None:
    lines = stdout.strip().splitlines()
    checks = lines[:-1]
    n = reference["verify-all"]["checks"]
    if len(checks) != n or lines[-1:] != [f"{n}/{n} checks passed"]:
        return f"verify printed {len(checks)} checks and summary {lines[-1:]!r}, expected {n}/{n}"
    failing = [line for line in checks if not line.startswith("PASS ")]
    if failing:
        return f"{len(failing)} verify checks not PASS, first: {failing[0]}"
    return None


def gate(request: Request, returncode: int, stdout: str, out_dir: Path | None,
         reference: dict) -> str | None:
    """None when the request's output is correct, otherwise the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return _gate_output(request, stdout, out_dir, reference)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def _gate_output(request: Request, stdout: str, out_dir: Path | None,
                 reference: dict) -> str | None:
    if request.kind == "compute":
        if record_series(json.loads(stdout)) != reference[request.key]:
            return "coefficient series differ from the reference"
        return None
    if request.kind == "diagrams":
        got, want = diagram_summary(out_dir), reference[request.key]
        if got["files"] != want["files"]:
            return f"{got['files']} diagram files, expected {want['files']}"
        if got["coefficients"] != want["coefficients"]:
            return "diagram coefficient multiset differs from the reference"
        return None
    if request.kind == "sweep":
        return _gate_sweep(stdout, reference, request)
    if request.kind == "verify":
        return _gate_verify(stdout, reference)
    raise ValueError(f"no gate for request kind {request.kind!r}")

