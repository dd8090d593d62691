"""The exact series against the spectral oracle: `sweep`'s grid comparison
and the checks of `verify`.

Only the `sweep` and `verify` commands import this module, inside the
command, so `compute` and `diagrams` never load it, numpy or the oracle.  It
does not import `oscqgt.cli`: under `python -m oscqgt.cli` that module runs
as `__main__`, and importing it again would compile it a second time.  Numpy,
the oracle and the closed forms are imported where they are used: importing
them with the module, before `verify` builds its series, raised the peak RSS
of `verify all` by about 1 MB.
"""

from __future__ import annotations

import itertools

from . import qgt
from .qgt import evaluate

__all__ = ["compare", "run_verification"]


def compare(space: qgt.ParameterSpace, series: dict, points: list, config=None) -> list[list[tuple]]:
    """For each point = (alpha, lambda, j) of `points`, (a, b, series value,
    oracle value, oracle error estimate) for each entry of `series`, in
    sorted order, from an oracle with basis `config` (its default when None).

    One oracle call solves every point.  A point that fails raises its error
    only after every earlier point's rows were made, and the oracle's comes
    first, so a point beyond its float range is named as the oracle's; a
    series that underflows there too is named before the oracle.
    """
    from . import spectral_oracle

    oracles = spectral_oracle.numeric_qim_grid(points, space.potential, config, labels=space.labels)
    grid = []
    for point, oracle in zip(points, oracles):
        where = "alpha={!r}, lambda={!r}, j={!r}".format(*point)
        if isinstance(oracle, OverflowError):
            raise ValueError(f"the oracle overflows a float at {where}")
        if isinstance(oracle, FloatingPointError):
            for s in series.values():
                evaluate(s, *point)
            raise ValueError(f"the oracle underflows a float at {where}")
        if isinstance(oracle, Exception):
            raise oracle
        rows = []
        for (a, b), s in sorted(series.items()):
            report = oracle.convergence_report[(a, b)]
            err = report["refinement"] + report["basis_doubling"]
            rows.append((a, b, evaluate(s, *point), oracle.entry(a, b), err))
        grid.append(rows)
    return grid


def _check(name: str, component: str, delta: float, tol: float) -> dict:
    return dict(name=name, component=component, delta=delta, tol=tol, passed=delta <= tol)


def _linear_checks() -> list[dict]:
    from . import linear_exact

    checks = []
    space = qgt.ParameterSpace.parse("linear")
    series = qgt.assemble(space)
    points = [(alpha, 0.0, j) for alpha, j in itertools.product((0.5, 1.0, 2.0), (0.0, 0.5))]
    for (alpha, _, j), rows in zip(points, compare(space, series, points)):
        exact = linear_exact.exact_linear_qgt(alpha, j)
        for a, b, sym, num, _ in rows:
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
    diffs = {key: series[key] - closed for key, closed in linear_exact.CLOSED_FORM.items()}
    wrong = ", ".join(f"g({a},{b})" for (a, b), d in diffs.items() if not d.is_zero)
    delta = max((float(abs(t.coeff)) for d in diffs.values() for t in d.terms), default=0.0)
    checks.append(_check("linear exact series-vs-closed-form", wrong or "all", delta, 0.0))
    return checks


def _quartic_checks() -> list[dict]:
    import numpy as np

    space = qgt.ParameterSpace.quartic()
    series = qgt.assemble(space, 1)
    alphas, lams = (0.5, 1.0, 2.0), (0.02, 0.04, 0.08)
    points = [(alpha, 0.0, 0.0) for alpha in alphas] + [(1.0, lam, 0.0) for lam in (*lams, 0.05)]
    *free, low, mid, high, bounded = compare(space, series, points)
    # free-theory agreement
    checks = [
        _check(f"quartic free-theory alpha={alpha}", f"g({a},{b})", abs(sym - num), 1e-6 * max(1.0, abs(sym)))
        for alpha, rows in zip(alphas, free)
        for a, b, sym, num, _ in rows
    ]
    # interacting: quadratic remainder scaling, plus the absolute bound at 0.05
    for per_lambda in zip(low, mid, high):
        devs = [abs(sym - num) for _, _, sym, num, _ in per_lambda]
        slope = float(np.polyfit(np.log(lams), np.log(devs), 1)[0])
        a, b = per_lambda[0][:2]
        checks.append(_check("quartic remainder-scaling slope", f"g({a},{b})", abs(slope - 2.0), 0.3))
    *_, (_, _, sym, num, _) = bounded  # g(lambda,lambda) sorts last
    checks.append(_check("quartic absolute deviation lambda=0.05", "g(lambda,lambda)", abs(sym - num), 5e-5))
    return checks


def run_verification(which: str) -> list[dict]:
    """The checks of `verify linear`, `verify quartic` or `verify all`, in
    order, each {name, component, delta, tol, passed}."""
    checks = []
    if which in ("linear", "all"):
        checks.extend(_linear_checks())
    if which in ("quartic", "all"):
        checks.extend(_quartic_checks())
    return checks
