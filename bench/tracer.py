"""Outside-in tracer: one traced pass of a workload, run in this process.

    python bench/tracer.py SPEC.json RESULT.json

SPEC.json lists the requests (argv, environment, where stdout goes, and the
output directory if any) and where to write the spans.  The tracer imports
`oscqgt`, replaces every public function of the traced modules with a
span-recording wrapper in every module namespace that bound it by name, then
calls `oscqgt.cli.main(argv)` once per request.  Spans stay in memory and are
written when the pass ends; RESULT.json gets each request's exit code and
wall time and the per-layer metrics derived from the spans.

`scalar_algebra` is not wrapped: its arithmetic dunders are called far too
often to wrap without distorting the result, so its cost stays inside the
self time of its callers (`integrator`, `qgt`, `cli`).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import NamedTuple

MODULES = ("integrator", "perturbation", "wick", "qgt", "spectral_oracle", "linear_exact", "cli")
WEDGE_VERTEX_COUNTS = (0, 1, 2, 3)
BASIS_SIZES = (128, 256, 512)

# (name, unit).  Metrics in units of count or ratio are derived from counts
# alone and must repeat exactly across passes; "s/s" is a ratio of times.
COUNT_UNITS = ("count", "ratio")
PER_LAYER = (
    [(f"{m}.self_s", "s") for m in MODULES]
    + [(f"{m}.share", "s/s") for m in MODULES]
    + [(f"{m}.errors", "count") for m in MODULES]
    + [
        ("integrator.products", "count"),
        ("integrator.enumerate_chambers.calls", "count"),
        ("integrator.chambers", "count"),
        ("integrator.exp_terms", "count"),
    ]
    + [(f"integrator.wedge_s.m{m}", "s") for m in WEDGE_VERTEX_COUNTS]
    + [
        ("perturbation.connected_integrand.calls", "count"),
        ("perturbation.interacting_green.calls", "count"),
        ("perturbation.diagrams_out", "count"),
        ("perturbation.keep_ratio", "ratio"),
        ("wick.enumerate_pairings.calls", "count"),
        ("wick.pairing_classes", "count"),
        ("qgt.qgt_component.calls", "count"),
        ("qgt.output_terms", "count"),
        ("spectral_oracle.busy_s", "s"),
        ("spectral_oracle.parallelism", "s/s"),
        ("spectral_oracle.numeric_qim.calls", "count"),
        ("spectral_oracle.build_hamiltonian.calls", "count"),
        ("spectral_oracle.build_hamiltonian.s", "s"),
        ("spectral_oracle.ground_state.calls", "count"),
        ("spectral_oracle.ground_state.s", "s"),
    ]
    + [(f"spectral_oracle.ground_state.s.n{n}", "s") for n in BASIS_SIZES]
    + [
        ("spectral_oracle.builds_per_point", "ratio"),
        ("cli.files_written", "count"),
        ("cli.bytes_written", "count"),
    ]
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Per-span size recorded from a call's arguments or result, by "module.function".
SIZES = {
    "integrator.enumerate_chambers": lambda a, k, r: len(r),
    "integrator.resolve_absolute_values": lambda a, k, r: len(r),
    "integrator.wedge_integral": lambda a, k, r: _arg(a, k, 1, "n_vertices", 0),
    "perturbation.connected_integrand": lambda a, k, r: sum(len(g) for g in r.values()),
    "wick.enumerate_pairings": lambda a, k, r: len(r),
    "qgt.qgt_component": lambda a, k, r: len(r.terms),
    "spectral_oracle.ground_state": lambda a, k, r: _arg(a, k, 0, "matrix").shape[0],
}


class Span(NamedTuple):
    sid: int
    parent: int
    module: str
    func: str
    t0: int
    t1: int
    request: int
    main_thread: bool
    size: int | None


class Tracer:
    """Span recorder with one span stack per thread.

    A span opened on a thread with no open span (a `sweep` pool thread) takes
    as parent the innermost open span of the request's main thread, which is
    the command that started the pool.  That keeps the pool's work out of the
    CLI's self time: a single shared stack would attribute it to the CLI.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._main_ident = threading.get_ident()
        self.request = 0

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module: str, fn):
        name = f"{module}.{fn.__name__}"
        size_of = SIZES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._count_error(module, exc)
                raise
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
            size = size_of(args, kwargs, result) if size_of else None
            tracer.spans.append(Span(sid, parent, module, fn.__name__, t0, t1, tracer.request,
                                     stack is main, size))
            return result

        return traced

    def _count_error(self, module: str, exc: BaseException) -> None:
        """Count an exception once per module, however many wrapped calls it escapes."""
        seen = exc.__dict__.setdefault("_traced_modules", set())
        if module not in seen:
            seen.add(module)
            with self._lock:
                self.errors[module] += 1

    def install(self, package) -> None:
        modules = {m: getattr(package, m) for m in MODULES}
        namespaces = [vars(mod) for mod in modules.values()] + [vars(package)]
        for short, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(short, fn)
                for ns in namespaces:
                    for bound, value in list(ns.items()):
                        if value is fn:
                            ns[bound] = wrapped


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans: list[Span], errors: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass; every name in PER_LAYER is present."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.t0, s.t1))
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    sizes: Counter = Counter()
    dur_ns: Counter = Counter()
    wedge_ns: Counter = Counter()
    ground_ns: Counter = Counter()
    pool: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        key = f"{s.module}.{s.func}"
        duration = s.t1 - s.t0
        self_ns[s.module] += duration - _covered(children[s.sid], s.t0, s.t1)
        calls[key] += 1
        dur_ns[key] += duration
        if s.size is not None:
            sizes[key] += s.size
        if key == "integrator.wedge_integral":
            wedge_ns[s.size] += duration
        elif key == "spectral_oracle.ground_state":
            ground_ns[s.size] += duration
        elif key == "spectral_oracle.numeric_qim" and not s.main_thread:
            pool[s.request].append(s)
    total_self = sum(self_ns.values()) or 1
    sec = 1e-9
    out: dict[str, float] = {}
    for m in MODULES:
        out[f"{m}.self_s"] = self_ns[m] * sec
        out[f"{m}.share"] = self_ns[m] / total_self
        out[f"{m}.errors"] = errors[m]
    out["integrator.products"] = calls["integrator.resolve_absolute_values"]
    out["integrator.enumerate_chambers.calls"] = calls["integrator.enumerate_chambers"]
    out["integrator.chambers"] = sizes["integrator.enumerate_chambers"]
    out["integrator.exp_terms"] = sizes["integrator.resolve_absolute_values"]
    for m in WEDGE_VERTEX_COUNTS:
        out[f"integrator.wedge_s.m{m}"] = wedge_ns[m] * sec
    pairings = sizes["wick.enumerate_pairings"]
    out["perturbation.connected_integrand.calls"] = calls["perturbation.connected_integrand"]
    out["perturbation.interacting_green.calls"] = calls["perturbation.interacting_green"]
    out["perturbation.diagrams_out"] = sizes["perturbation.connected_integrand"]
    out["perturbation.keep_ratio"] = sizes["perturbation.connected_integrand"] / pairings if pairings else 0.0
    out["wick.enumerate_pairings.calls"] = calls["wick.enumerate_pairings"]
    out["wick.pairing_classes"] = pairings
    out["qgt.qgt_component.calls"] = calls["qgt.qgt_component"]
    out["qgt.output_terms"] = sizes["qgt.qgt_component"]
    pool_busy = sum(s.t1 - s.t0 for group in pool.values() for s in group)
    pool_wall = sum(max(s.t1 for s in g) - min(s.t0 for s in g) for g in pool.values())
    points = calls["spectral_oracle.numeric_qim"]
    out["spectral_oracle.busy_s"] = dur_ns["spectral_oracle.numeric_qim"] * sec
    out["spectral_oracle.parallelism"] = pool_busy / pool_wall if pool_wall else 0.0
    out["spectral_oracle.numeric_qim.calls"] = points
    for f in ("build_hamiltonian", "ground_state"):
        out[f"spectral_oracle.{f}.calls"] = calls[f"spectral_oracle.{f}"]
        out[f"spectral_oracle.{f}.s"] = dur_ns[f"spectral_oracle.{f}"] * sec
    for n in BASIS_SIZES:
        out[f"spectral_oracle.ground_state.s.n{n}"] = ground_ns[n] * sec
    out["spectral_oracle.builds_per_point"] = (
        calls["spectral_oracle.build_hamiltonian"] / points if points else 0.0
    )
    return out


def _output_size(stdout_path: Path, out_dir: Path | None) -> tuple[int, int]:
    files = [p for p in out_dir.rglob("*") if p.is_file()] if out_dir else []
    return len(files), stdout_path.stat().st_size + sum(p.stat().st_size for p in files)


def run_pass(spec: dict) -> dict:
    # Imported here, not at the top: bench/run.py imports this module for
    # PER_LAYER and must not load the program itself.
    import oscqgt
    import oscqgt.cli

    tracer = Tracer()
    tracer.install(oscqgt)
    results = []
    files = written = 0
    for index, req in enumerate(spec["requests"], start=1):
        argv = list(req["argv"])
        out_dir = Path(req["out_dir"]) if req["out_dir"] else None
        if out_dir:
            argv += ["--out", str(out_dir)]
        saved = {k: os.environ.get(k) for k, _ in req["env"]}
        os.environ.update(dict(req["env"]))
        tracer.request = index
        stdout_path = Path(req["stdout"])
        with open(stdout_path, "w", encoding="utf-8") as out, \
                open(req["stderr"], "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = oscqgt.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        n_files, n_bytes = _output_size(stdout_path, out_dir)
        files += n_files
        written += n_bytes
        results.append({"key": req["key"], "returncode": code, "wall_s": wall})
    metrics = layer_metrics(tracer.spans, tracer.errors)
    metrics["cli.files_written"] = files
    metrics["cli.bytes_written"] = written
    Path(spec["spans"]).write_text(
        json.dumps({"fields": Span._fields, "spans": tracer.spans}), encoding="utf-8"
    )
    return {"requests": results, "metrics": metrics}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    Path(argv[1]).write_text(json.dumps(run_pass(spec)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
