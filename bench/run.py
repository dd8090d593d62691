"""Benchmark of the oscqgt CLI: fresh-process timings, output gates, and a traced layer split.

    python3 bench/run.py --workload series-o3 --seed 1 --seconds 27 --trace 0

Run from any directory; the checkout root is the parent of this file's
directory and the program is imported from its `src`.  Each request is a
fresh `python -m oscqgt.cli ...` process, sent by one client in a closed loop:
the next request starts when the previous one has exited.  Every child gets
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1, so the only extra
threads are `sweep`'s own pool; unpinned BLAS threads make the timings measure
the scheduler rather than the program.

The host's speed drifts by up to 2.5x over minutes, so every timed child
runs between two runs of bench/yardstick.py, a fixed piece of work that does
not use the program, and its wall time is scaled by YARDSTICK_REF_S over the
mean of those two yardstick times: the end-to-end times are seconds at the
host speed where the yardstick takes YARDSTICK_REF_S.  The record keeps the
unscaled wall times beside them.

--trace 0 measures the end-to-end metrics; --trace 1 measures one untraced
pass and then at least two traced passes (bench/tracer.py, in-process), checks
that every per-layer count repeats exactly, and reports the per-layer metrics.
`--workload all` runs every workload in turn.

Every output is checked against bench/reference.json; a request fails on a
non-zero exit, a timeout or a gate mismatch.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is the full record with provenance and sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
# The yardstick's median wall time on the 2-vCPU x86-64 VM where this
# benchmark was defined; scaled times are seconds at that host speed.
YARDSTICK_REF_S = 0.48
# Three passes at least give a median that one slow request does not set; no
# more are forced, so a run on a slowed host still ends close to --seconds.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Timeouts and a cap on the measuring loops keep a hung or very slow program
# within the 180 s a run may take.
REQUEST_TIMEOUT_S = 30.0
TRACED_PASS_TIMEOUT_S = 60.0
RUN_LIMIT_S = 90.0
# Fixed-name end-to-end metrics in the final line, for every workload.
# request_a_s and request_b_s are the workload's two requests in canonical order.
END_TO_END = (("setup_s", "s"), ("request_a_s", "s"), ("request_b_s", "s"), ("peak_rss_mb", "MB"))
TRACE_METRICS = tuple(tracer.PER_LAYER) + (("trace.overhead_s", "s"),)

PROVENANCE_PROBE = """
import json, sys, numpy, scipy, oscqgt
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
print(json.dumps({"oscqgt": oscqgt.__version__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


class Child:
    """A child process reaped with wait4, so its own max-RSS is known."""

    def __init__(self, cmd: list[str], env: dict, stdout: Path, stderr: Path, timeout: float):
        self.timed_out = False
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, cwd=ROOT)
            timer = threading.Timer(timeout, self._kill, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0

    def _kill(self, proc: subprocess.Popen) -> None:
        self.timed_out = True
        proc.kill()


def run_request(request: workloads.Request, env: dict, base: Path) -> tuple[Child, Path | None]:
    """Run one request as a fresh CLI process; stdout and stderr go to base.out and base.err."""
    cmd = [sys.executable, "-m", "oscqgt.cli", *request.argv]
    out_dir = None
    if request.out_dir:
        out_dir = base.with_suffix(".d")
        out_dir.mkdir()
        cmd += ["--out", str(out_dir)]
    child = Child(cmd, dict(env, **dict(request.env)), base.with_suffix(".out"),
                  base.with_suffix(".err"), REQUEST_TIMEOUT_S)
    return child, out_dir


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QGT_MAX_ORDER"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    # A fixed hash seed gives every child the same set and dict iteration order.
    env["PYTHONHASHSEED"] = "0"
    return env


def summary(samples: list[float], unit: str) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    tail = tail_pct = None
    if n >= 11:
        tail_pct = math.floor(100 * (1 - 10 / n))
        tail = statistics.quantiles(samples, n=100, method="inclusive")[tail_pct - 1]
    return {"value": statistics.median(samples), "unit": unit, "samples": n,
            "tail": tail, "tail_pct": tail_pct, "raw": samples}


class Run:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.reference = workloads.load_reference()
        self.orders = workloads.pass_orders(workload, seed)
        self.attempted = 0
        self.failures: list[dict] = []
        self._serial = 0

    def _fresh(self, name: str) -> Path:
        self._serial += 1
        return self.work / f"{self._serial:04d}-{name}"

    def _check(self, request: workloads.Request, returncode: int, stdout: Path,
               stderr: Path, out_dir: Path | None, timed_out: bool = False) -> None:
        self.attempted += 1
        if timed_out:
            reason = "timeout"
        else:
            reason = workloads.gate(request, returncode, stdout.read_text(encoding="utf-8"),
                                    out_dir, self.reference)
        if reason:
            lines = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()
            self.failures.append({"request": request.key, "reason": reason,
                                  "stderr": lines[-1] if lines else ""})
        if out_dir:
            # Deleted as soon as it is checked, so that every diagrams request
            # writes its files into the same file-system state: on ext4,
            # creating thousands of files soon after deleting as many costs
            # several times the kernel time of doing so on a quiet disk.  The
            # deletion is committed here, untimed.
            shutil.rmtree(out_dir)
            fd = os.open(self.work, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def provenance(self) -> dict:
        base = self._fresh("provenance")
        child = Child([sys.executable, "-c", PROVENANCE_PROBE], self.env,
                      base.with_suffix(".out"), base.with_suffix(".err"), REQUEST_TIMEOUT_S)
        if child.returncode != 0:
            err = base.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
            raise SystemExit(f"cannot import oscqgt from {ROOT / 'src'}:\n{err}")
        info = json.loads(base.with_suffix(".out").read_text(encoding="utf-8"))
        info.update({
            "commit": git_commit(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "blas_threads": {k: self.env[k] for k in BLAS_THREAD_VARS},
            "python_hash_seed": self.env["PYTHONHASHSEED"],
            "yardstick_ref_s": YARDSTICK_REF_S,
            "workload": self.workload,
            "seed": self.seed,
        })
        return info

    def setup_sample(self) -> float:
        base = self._fresh("setup")
        child = Child([sys.executable, "-c", "import oscqgt.cli"], self.env,
                      base.with_suffix(".out"), base.with_suffix(".err"), REQUEST_TIMEOUT_S)
        if child.returncode != 0:
            raise SystemExit("import oscqgt.cli failed")
        return child.wall_s

    def yardstick(self) -> float:
        base = self._fresh("yardstick")
        child = Child([sys.executable, str(BENCH_DIR / "yardstick.py")], self.env,
                      base.with_suffix(".out"), base.with_suffix(".err"), REQUEST_TIMEOUT_S)
        if child.returncode != 0:
            raise SystemExit("bench/yardstick.py failed")
        return child.wall_s

    def untraced_pass(self, yardstick_before: float) -> dict:
        """A set-up sample and the workload's requests, each followed by a
        yardstick run and scaled by the mean of the yardstick times on either
        side.  `yardstick_before` is the time of the yardstick run just before
        the pass; the pass's last one is returned as `yardstick_after`."""
        walls, scaled, setup, setup_scaled, yardsticks, rss = {}, {}, [], [], [], []
        before = yardstick_before
        # None is the set-up sample.
        sequence = [None] + [r for r in next(self.orders) for _ in range(r.repeat)]
        for request in sequence:
            if request is None:
                wall = self.setup_sample()
            else:
                base = self._fresh(request.key)
                child, out_dir = run_request(request, self.env, base)
                self._check(request, child.returncode, base.with_suffix(".out"),
                            base.with_suffix(".err"), out_dir, child.timed_out)
                wall = child.wall_s
                rss.append(child.rss_mb)
            after = self.yardstick()
            yardsticks.append(after)
            scale = YARDSTICK_REF_S / ((before + after) / 2)
            before = after
            if request is None:
                setup.append(wall)
                setup_scaled.append(wall * scale)
            else:
                walls.setdefault(request.key, []).append(wall)
                scaled.setdefault(request.key, []).append(wall * scale)
        return {"walls": walls, "scaled": scaled, "setup": setup, "setup_scaled": setup_scaled,
                "yardsticks": yardsticks, "yardstick_after": before, "peak_rss_mb": max(rss)}

    def traced_pass(self) -> dict:
        out_root = ROOT / ".bench_out"
        out_root.mkdir(exist_ok=True)
        specs, dirs = [], []
        for request in next(self.orders):
            base = self._fresh(request.key)
            out_dir = None
            if request.out_dir:
                out_dir = base.with_suffix(".d")
                out_dir.mkdir()
            dirs.append((request, base, out_dir))
            specs.append({"key": request.key, "argv": list(request.argv),
                          "env": list(request.env),
                          "out_dir": str(out_dir) if out_dir else None,
                          "stdout": str(base.with_suffix(".out")),
                          "stderr": str(base.with_suffix(".err"))})
        base = self._fresh("traced")
        spec_path, result_path = base.with_suffix(".spec.json"), base.with_suffix(".result.json")
        spec_path.write_text(json.dumps({
            "requests": specs,
            "spans": str(out_root / f"spans-{self.workload}.json"),
        }), encoding="utf-8")
        child = Child([sys.executable, str(BENCH_DIR / "tracer.py"), str(spec_path), str(result_path)],
                      self.env, base.with_suffix(".out"), base.with_suffix(".err"),
                      TRACED_PASS_TIMEOUT_S)
        if child.returncode != 0 or child.timed_out:
            for request, _, _ in dirs:
                self.attempted += 1
                self.failures.append({"request": request.key, "reason": "traced pass failed",
                                      "stderr": base.with_suffix(".err").read_text(errors="replace")[-500:]})
            return {}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        codes = {r["key"]: r for r in result["requests"]}
        for request, req_base, out_dir in dirs:
            self._check(request, codes[request.key]["returncode"], req_base.with_suffix(".out"),
                        req_base.with_suffix(".err"), out_dir)
        result["wall_s"] = sum(r["wall_s"] for r in result["requests"])
        return result


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(run: Run, seconds: float) -> dict:
    """Untraced passes for about `seconds` (at least MIN_PASSES); end-to-end metrics.

    A set-up sample before the first yardstick run warms the page cache and is
    not counted.  The set-up samples are taken inside the passes, so that they
    see the same host load as the requests.
    """
    run.setup_sample()
    yardstick = first_yardstick = run.yardstick()
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run.untraced_pass(yardstick))
        yardstick = passes[-1]["yardstick_after"]
        last = time.perf_counter() - t
        elapsed = time.perf_counter() - start
        if elapsed > RUN_LIMIT_S or (len(passes) >= MIN_PASSES and elapsed + last > seconds):
            break
    requests = workloads.requests(run.workload, run.seed)
    a, b = (request.key for request in requests)
    metrics = {"setup_s": summary([x for p in passes for x in p["setup_scaled"]], "s")}
    kinds: dict[str, list[str]] = {}
    for request in requests:
        kinds.setdefault(request.kind, []).append(request.key)
    for kind, keys in kinds.items():
        metrics[f"{kind}_s"] = summary(
            [sum(statistics.mean(p["scaled"][k]) for k in keys) for p in passes], "s")
    metrics["request_a_s"] = summary([x for p in passes for x in p["scaled"][a]], "s")
    metrics["request_b_s"] = summary([x for p in passes for x in p["scaled"][b]], "s")
    metrics["peak_rss_mb"] = summary([p["peak_rss_mb"] for p in passes], "MB")
    metrics["setup.wall_s"] = summary([x for p in passes for x in p["setup"]], "s")
    metrics["request_a.wall_s"] = summary([x for p in passes for x in p["walls"][a]], "s")
    metrics["request_b.wall_s"] = summary([x for p in passes for x in p["walls"][b]], "s")
    metrics["yardstick.wall_s"] = summary(
        [first_yardstick] + [x for p in passes for x in p["yardsticks"]], "s")
    return metrics


def measure_traced(run: Run, seconds: float) -> tuple[dict, str | None]:
    """One untraced pass, then traced passes; per-layer metrics and a determinism verdict."""
    setup = statistics.median(run.setup_sample() for _ in range(SETUP_SAMPLES))
    untraced = run.untraced_pass(run.yardstick())
    untraced_work = sum(statistics.mean(w) - setup for w in untraced["walls"].values())
    traced = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        result = run.traced_pass()
        if not result:
            raise SystemExit(f"traced pass failed: {run.failures[-1]}")
        traced.append(result)
        last = time.perf_counter() - t
        elapsed = time.perf_counter() - start
        if elapsed > RUN_LIMIT_S or (len(traced) >= MIN_TRACED_PASSES and elapsed + last > seconds):
            break
    metrics = {}
    for name, unit in tracer.PER_LAYER:
        values = [p["metrics"][name] for p in traced]
        if unit in tracer.COUNT_UNITS:
            metrics[name] = {"value": values[0], "unit": unit, "samples": len(values)}
        else:
            metrics[name] = summary(values, unit)
    metrics["trace.overhead_s"] = summary([p["wall_s"] - untraced_work for p in traced], "s")
    verdict = None
    for name, unit in tracer.PER_LAYER:
        values = {p["metrics"][name] for p in traced}
        if unit in tracer.COUNT_UNITS and len(values) > 1:
            verdict = f"per-layer count {name} differs across traced passes: {sorted(values)}"
            break
    return metrics, verdict


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work)
        provenance = run.provenance()
        verdict = None
        if trace:
            metrics, verdict = measure_traced(run, seconds)
        else:
            metrics = measure(run, seconds)
            metrics["error_rate"] = {"value": len(run.failures) / run.attempted, "unit": "ratio",
                                     "samples": run.attempted}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "determinism": (verdict or "every per-layer count repeated") if trace else None,
        "correct": not run.failures and verdict is None,
        "metrics": metrics,
    }


def print_table(record: dict) -> None:
    for name, m in record["metrics"].items():
        tail = f"  p{m['tail_pct']}={m['tail']:.6g}" if m.get("tail") is not None else ""
        print(f"{record['workload']:<12} {name:<42} {m['value']:>14.6g} {m['unit']:<6}"
              f" n={m['samples']}{tail}")
    for failure in record["failures"]:
        print(f"{record['workload']:<12} FAILED {failure['request']}: {failure['reason']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so that the child in flight is killed and
    # reaped (Child) and the work directory removed (run_workload).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "oscqgt" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'oscqgt' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    wanted = TRACE_METRICS if args.trace else END_TO_END
    for record in records:
        print_table(record)
        print(json.dumps({"record": record}))
    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name):
                {"value": r["metrics"][name]["value"], "unit": unit}
            for r in records for name, unit in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
