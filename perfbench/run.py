"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the workload's operations run in a closed loop for
``--seconds`` and the end-to-end metrics are reported.  With ``--trace 1``
a fixed pass of the workload's first operations runs once untraced and
once traced, and the per-layer metrics are reported; the spans are
written to ``.perfbench_out/``.  Every operation's output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("bound_mix", "verify", "weights", "cli")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# Operations in the traced pass: each pass takes a few seconds here.
TRACE_PASS = {"bound_mix": 40, "verify": 3, "weights": 4, "cli": 7}
# What each generic end-to-end metric is called for one workload.
ALIASES = {
    "bound_mix": {"p50_s": "bound_p50_s", "p90_s": "bound_p90_s", "ops_per_s": "bounds_per_s"},
    "verify": {"p50_s": "verify_p50_s"},
    "weights": {"p50_s": "weights_p50_s"},
    "cli": {"p50_s": "cli_bound_p50_s", "scan": "cli_scan_s"},
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_s": "s",
    "ref_s": "s",
    "ops_per_s": "1/s",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup(workload: str, seed: int):
    from perfbench import workloads

    if workload == "cli":
        return workloads.cli(seed, OUT_DIR)
    return getattr(workloads, workload)(seed)


class Clock:
    """Times operations in seconds at the machine's nominal speed.

    The machine is shared, and its speed drifts by up to a factor of two
    over a few seconds.  A fixed probe that calls nothing in wavelock runs
    after every timed operation, and each raw time is scaled by the
    probe's nominal time over the mean of the probes that bracket it.
    In-process operations use a probe written in the style of the
    library's hot loops, repeated (up to 15 times) until it covers 2% of
    the operation's time, and its median is kept.  Child processes use a
    fresh interpreter that imports numpy, which tracks the cost of
    starting an interpreter far better.
    """

    NOMINAL_PROBE_S = 0.0025  # the probes' uncontended times on the reference machine
    NOMINAL_CHILD_PROBE_S = 0.2

    def __init__(self, child_env: dict[str, str]):
        import numpy as np

        self._np = np
        self._gauss_w = np.polynomial.legendre.leggauss(16)[1]
        self._pts = np.geomspace(1e-6, 1.0, 122 * 16)
        self._halfs = np.linspace(0.01, 0.02, 122)
        self._vec = np.linspace(0.0, 1.0, 2000)
        self._child_env = child_env
        self.slowdowns: list[float] = []  # raw / nominal, per timed call
        self._last = {False: self.probe(), True: None}

    def probe(self) -> float:
        np = self._np
        start = time.perf_counter()
        s = 0.0
        for k in range(30):  # small-array quadrature, as in the solver
            e = 1.5 + 0.01 * k
            pts = self._pts
            v = pts ** (e - 1.0) * np.maximum((0.3 * pts**1.2 + 0.2 * pts**3.1) ** -0.5 - 1.0, 0.0)
            s += float(self._halfs @ (v.reshape(122, 16) @ self._gauss_w))
        for k in range(30):  # vector updates, as in the oracle
            y = np.maximum(self._vec - 0.1 * k * self._vec**2, 0.0)
            s += float(y @ self._vec)
        x = 1.0
        for i in range(3000):  # scalar iteration, as in root finding
            x = x - (x * x - 2.0) / (2.0 * x) + 1e-3 * (i % 3)
        return time.perf_counter() - start

    def child_probe(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=self._child_env, timeout=120, check=True)
        return time.perf_counter() - start

    def _probes(self, child: bool, budget_s: float) -> float:
        if child:
            return self.child_probe() / self.NOMINAL_CHILD_PROBE_S
        reps = [self.probe()]
        while len(reps) < 15 and sum(reps) < budget_s:
            reps.append(self.probe())
        return statistics.median(reps) / self.NOMINAL_PROBE_S

    def time(self, fn, child: bool = False):
        """(nominal seconds, fn's result); ``child`` when fn runs a child process."""
        if self._last[child] is None:
            self._last[child] = self._probes(child, 0.0)
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        before, self._last[child] = self._last[child], self._probes(child, 0.02 * raw)
        slowdown = 0.5 * (before + self._last[child])
        self.slowdowns.append(slowdown)
        return raw / slowdown, result


def _timed(op, tracer, clock: Clock):
    """(nominal seconds, result, error text); a raised exception is a failure."""

    def run():
        try:
            return op.run(tracer), None
        except Exception:
            return None, traceback.format_exc(limit=4)

    dt, (result, error) = clock.time(run, op.child)
    return dt, result, error


def _failures(op, result, error) -> list[str]:
    if error is not None:
        return [f"{op.label} {op.key}: raised\n{error}"]
    try:
        return op.check(result)
    except Exception:
        return [f"{op.label}: check raised\n{traceback.format_exc(limit=4)}"]


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages += failures[:2]
        return not failures


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(cycles, seconds: float, tally: Tally, clock: Clock) -> dict[str, float]:
    """Closed loop over whole cycles of operations for ``seconds``; checks
    run between operations, outside their timing.  Operations that are not
    gated count as attempts but enter no metric; their median time is
    printed under their label."""
    main, ref, gated, ungated = [], [], [], {}
    start = time.perf_counter()
    for cycle in itertools.cycle(cycles):
        for op in cycle:
            dt, result, error = _timed(op, None, clock)
            if not tally.add(_failures(op, result, error)):
                continue
            if not op.gated:
                ungated.setdefault(op.label, []).append(dt)
                continue
            gated.append(dt)
            if op.main:
                main.append(dt)
            if op.ref:
                ref.append(dt)
        if time.perf_counter() - start >= seconds:
            break
    if not (main and ref):
        raise RuntimeError("every main or every reference operation failed")
    return {
        "p50_s": statistics.median(main),
        "ref_s": statistics.median(ref),
        "ops_per_s": len(gated) / sum(gated),
        "p90_s": statistics.quantiles(main, n=10, method="inclusive")[-1] if len(main) > 1 else main[0],
        "samples": f"{len(main)} main, {len(ref)} reference, {len(gated)} gated",
        **{label: statistics.median(times) for label, times in ungated.items()},
    }


def import_metrics() -> dict[str, float]:
    """Median over fresh interpreters of ``python -X importtime``."""
    from perfbench.trace import parse_importtime
    from perfbench.workloads import child_env

    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import wavelock.cli"],
            capture_output=True, text=True, env=child_env(), timeout=120, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {f"import.{k}": statistics.median(r[k] for r in runs) for k in runs[0]}


def traced_pass(workload: str, cycles, seed: int, tally: Tally, clock: Clock) -> dict[str, float]:
    """The first operations once untraced, to warm up, then traced;
    per-layer metrics of the traced pass."""
    from perfbench.trace import Tracer, aggregate, layer_metrics, span_cost_s, write_spans

    pass_ops = [op for cycle in cycles for op in cycle][: TRACE_PASS[workload]]
    results = [(op, *_timed(op, None, clock)[1:]) for op in pass_ops]
    tracer = Tracer()
    traced_raw_s = 0.0
    with tracer:
        for i, op in enumerate(pass_ops):
            tracer.op = i
            dt, result, error = _timed(op, tracer, clock)
            traced_raw_s += dt * clock.slowdowns[-1]
            results.append((op, result, error))
    for op, result, error in results:
        tally.add(_failures(op, result, error))

    metrics = layer_metrics(tracer.spans, tracer.observed, len(pass_ops))
    metrics.update(import_metrics())
    # The tracer's own cost, measured in this run: on a machine whose speed
    # drifts by 10-20% between passes, traced minus untraced time of a few
    # operations says nothing about an overhead of a few percent.
    metrics["trace.overhead_share"] = len(tracer.spans) * span_cost_s() / traced_raw_s

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    write_spans(spans_file, tracer.spans)
    print(f"spans: {len(tracer.spans)} written to {OUT_DIR.name}/{spans_file.name}")
    ref_op = next((i for i, op in enumerate(pass_ops) if op.ref), None)
    if ref_op is not None:
        agg = aggregate([s for s in tracer.spans if s.op == ref_op])
        counts = ", ".join(f"{name}={int(row['calls'])}" for name, row in sorted(agg.items()))
        print(f"reference op {ref_op} ({pass_ops[ref_op].label}) calls: {counts}")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "wavelock" / "__init__.py").is_file():
        print(f"error: no wavelock sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # At most two BLAS worker threads, set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "2")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench.workloads import child_env

    clock = Clock(child_env())
    setup_times = []
    for _ in range(SETUP_REPEATS):
        dt, cycles = clock.time(lambda: _setup(args.workload, args.seed))
        setup_times.append(dt)

    tally = Tally()
    aliases = ALIASES[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        from perfbench.trace import PER_LAYER_UNITS

        values = traced_pass(args.workload, cycles, args.seed, tally, clock)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = measure(cycles, args.seconds, tally, clock)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = _peak_rss_mb()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"  samples: {values.pop('samples')}")

    for name, m in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}{alias}")
    for name in values.keys() - metrics.keys():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<38} {values[name]:.6g} s{alias}  [not in BENCHMARK.json]")
    print(f"  failed_share {tally.failed / max(tally.attempted, 1):.6g} ({tally.failed} of {tally.attempted})")
    print(f"  machine slowdown (raw s / nominal s): median {statistics.median(clock.slowdowns):.3f}, "
          f"range {min(clock.slowdowns):.3f}-{max(clock.slowdowns):.3f}")
    for message in tally.messages[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
