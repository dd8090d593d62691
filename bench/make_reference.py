"""Write bench/reference.json from the program as it is now, after checking it.

    python3 bench/make_reference.py

Run once, at the commit that defines the benchmark; later changes are gated
against the file it writes, so rerun it only when a result is meant to
change.  Each request runs as in the benchmark (a fresh CLI process).  Before
writing, it checks that:

- the quartic order-3 record's order-0/1 metric and determinant entries equal
  the hand-written first-order values of the acceptance suite;
- its order-2 and order-3 lambda-lambda entries approach the spectral oracle
  as lambda -> 0: adding the order-3 term shrinks the residual, and the
  residuals fall like lambda^3 and lambda^4;
- a sweep over the corners of the oracle-grid ranges passes the sweep gate;
- every `verify all` check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
from pathlib import Path

import run
import workloads

# First-order quartic metric and determinant, as (num, den, alpha_half_pow,
# lambda_pow, j_pow); the same values as criterion 2 of tests/test_acceptance.py.
FIRST_ORDER = {
    "metric": {
        "alpha,alpha": [(1, 32, -4, 0, 0), (-11, 512, -7, 1, 0)],
        "lambda,lambda": [(13, 6144, -6, 0, 0), (-31, 12288, -9, 1, 0)],
        "alpha,lambda": [(1, 128, -5, 0, 0), (-89, 12288, -8, 1, 0)],
    },
    "determinant": [(1, 196608, -10, 0, 0), (-35, 3145728, -13, 1, 0)],
}
ORACLE_LAMBDAS = (0.04, 0.02, 0.01)
ORACLE_BASIS = 256


def _low_orders(series: list[list[int]]) -> list[tuple[int, ...]]:
    return sorted(tuple(t) for t in series if t[3] <= 1)


def check_first_order(record: dict) -> None:
    for name, want in FIRST_ORDER["metric"].items():
        got = _low_orders(record["metric"][name])
        if got != sorted(want):
            raise SystemExit(f"order-0/1 metric {name}: {got} != {sorted(want)}")
    got = _low_orders(record["determinant"])
    if got != sorted(FIRST_ORDER["determinant"]):
        raise SystemExit(f"order-0/1 determinant: {got}")
    print("ok: order-0/1 entries equal the hand-written first-order values")


def check_oracle_approach(record: dict) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from oscqgt.qgt import ParameterSpace
    from oscqgt.spectral_oracle import OracleConfig, numeric_qim

    series = record["components"]["lambda,lambda"]
    potential = ParameterSpace.quartic().potential
    config = OracleConfig(basis_size=ORACLE_BASIS)
    r2, r3 = [], []
    for lam in ORACLE_LAMBDAS:
        oracle = numeric_qim(1.0, lam, 0.0, potential, config).entry("lambda", "lambda")
        r2.append(abs(oracle - workloads.plain_value(series, 1.0, lam, range(3))))
        r3.append(abs(oracle - workloads.plain_value(series, 1.0, lam, range(4))))
    logs = [math.log(x) for x in ORACLE_LAMBDAS]
    slope2 = statistics.linear_regression(logs, [math.log(x) for x in r2]).slope
    slope3 = statistics.linear_regression(logs, [math.log(x) for x in r3]).slope
    print(f"lambda-lambda residuals at {ORACLE_LAMBDAS}: order 2 {r2} (slope {slope2:.2f}), "
          f"order 3 {r3} (slope {slope3:.2f})")
    if not all(b < a for a, b in zip(r2, r3)):
        raise SystemExit("the order-3 term does not bring the series closer to the oracle")
    if not (2.6 <= slope2 <= 3.4 and 3.4 <= slope3 <= 4.6):
        raise SystemExit("residuals do not fall like lambda^3 and lambda^4")
    print("ok: order-2/3 lambda-lambda entries approach the oracle as lambda -> 0")


def main() -> int:
    work = run.ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run.child_env()

    def execute(request: workloads.Request) -> tuple[str, Path | None]:
        base = work / request.key
        child, out_dir = run.run_request(request, env, base)
        if child.returncode != 0:
            raise SystemExit(f"{request.key} exited {child.returncode}")
        return base.with_suffix(".out").read_text(encoding="utf-8"), out_dir

    reference: dict = {"generated_at_commit": run.git_commit()}
    for workload in workloads.WORKLOADS:
        for request in workloads.requests(workload, 0):
            if request.kind == "sweep":
                continue
            stdout, out_dir = execute(request)
            if request.kind == "compute":
                reference[request.key] = workloads.record_series(json.loads(stdout))
            elif request.kind == "diagrams":
                reference[request.key] = workloads.diagram_summary(out_dir)
            else:
                reference[request.key] = {"checks": len(stdout.strip().splitlines()) - 1}
                reason = workloads.gate(request, 0, stdout, None, reference)
                if reason:
                    raise SystemExit(f"verify all does not pass: {reason}")
            print(f"recorded {request.key}")

    quartic = reference["compute-quartic-o3"]
    check_first_order(quartic)
    check_oracle_approach(quartic)
    sweep = workloads.requests("oracle-grid", 0)[0]
    argv = list(sweep.argv)
    argv[argv.index("--alphas") + 1] = ",".join(map(repr, workloads.ALPHA_RANGE))
    argv[argv.index("--lambdas") + 1] = ",".join(map(repr, workloads.LAMBDA_RANGE))
    corners = workloads.Request(sweep.key, sweep.kind, tuple(argv))
    reason = workloads.gate(corners, 0, execute(corners)[0], None, reference)
    if reason:
        raise SystemExit(f"the sweep gate fails at the grid corners: {reason}")
    print("ok: verify all passes and the sweep gate holds at the grid corners")
    shutil.rmtree(work)

    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
