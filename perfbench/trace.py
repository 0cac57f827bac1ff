"""In-memory span tracer that wraps wavelock's public functions from outside.

Each hook replaces a function at the module attribute its callers look it
up in (``wavelock.solver.moment`` is what ``solve_multipliers`` calls, and
``wavelock.verifier.run_oracle`` is what ``run_verification`` calls), so
inner calls are seen without changing library code.  Spans are kept in
memory as (id, name, start, end, parent, op) and written out at the end.
A few hooks also observe the returned value (iteration counts, residuals,
convergence flags), which the per-layer metrics need.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# The layers are wavelock's modules; a span's layer is the prefix of its name.
LAYERS = ("core", "closed_form", "solver", "weight", "oracle", "verifier", "cli")

# (module, attribute at which callers look the function up, span name).
HOOKS = (
    ("wavelock.solver", "derive_constants", "core.derive_constants"),
    ("wavelock.solver", "classify_regime", "core.classify_regime"),
    ("wavelock.weight", "derive_constants", "core.derive_constants"),
    ("wavelock.oracle", "derive_constants", "core.derive_constants"),
    ("wavelock.closed_form", "single_bound", "closed_form.single_bound"),
    ("wavelock.weight", "single_bound", "closed_form.single_bound"),
    ("wavelock.solver", "compute_bound", "solver.compute_bound"),
    ("wavelock.verifier", "compute_bound", "solver.compute_bound"),
    ("wavelock.cli", "compute_bound", "solver.compute_bound"),
    ("wavelock.solver", "solve_multipliers", "solver.solve_multipliers"),
    ("wavelock.solver", "moment", "solver.moment"),
    ("wavelock.solver", "find_T", "solver.find_T"),
    ("wavelock.solver", "bound_integral", "solver.bound_integral"),
    ("wavelock.weight", "psi_inverse", "weight.psi_inverse"),
    ("wavelock.weight", "weight_norms", "weight.weight_norms"),
    ("wavelock.weight", "measured_distribution", "weight.measured_distribution"),
    ("wavelock.verifier", "weight_from_report", "weight.weight_from_report"),
    ("wavelock.verifier", "eval_weight", "weight.eval_weight"),
    ("wavelock.oracle", "solve_discrete", "oracle.solve_discrete"),
    ("wavelock.verifier", "run_oracle", "oracle.run_oracle"),
    ("wavelock.verifier", "run_verification", "verifier.run_verification"),
    ("wavelock.verifier", "sample_weight", "verifier.sample_weight"),
    ("wavelock.verifier", "operator_norm", "verifier.operator_norm"),
    ("wavelock.verifier", "CauchyTransform.__init__", "verifier.CauchyTransform.init"),
    ("wavelock.verifier", "CauchyTransform.localize", "verifier.localize"),
    ("wavelock.cli", "cmd_bound", "cli.cmd_bound"),
    ("wavelock.cli", "cmd_scan", "cli.cmd_scan"),
)


def _observe_bound(obs, report):
    if report.regime == "Dual":
        obs["residual"].append(max(report.residual_p, report.residual_q))


def _observe_oracle(obs, result):
    obs["oracle_converged"].append(bool(result[1].converged))


def _observe_discrete(obs, sol):
    obs["oracle_iterations"].append(int(sol.iterations))


def _observe_power(obs, result):
    obs["power_iterations"].append(int(result.iterations))


def _observe_verification(obs, report):
    obs["oracle_rel_gap"].append(abs(report.oracle_rel_gap))


OBSERVERS = {
    "solver.compute_bound": _observe_bound,
    "oracle.run_oracle": _observe_oracle,
    "oracle.solve_discrete": _observe_discrete,
    "verifier.operator_norm": _observe_power,
    "verifier.run_verification": _observe_verification,
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Records a span per hooked call while installed (use as a context manager).

    The parent of a span is the innermost open span of the same thread.
    A span opened in another thread with no span open there (a pool
    worker) takes the innermost open span of the thread that installed
    the tracer, which submitted the work.  ``op`` is the benchmark
    operation the span belongs to, set by the caller through :attr:`op`
    before each operation.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.observed: dict[str, list] = defaultdict(list)
        self.op = 0
        self._ids = itertools.count(1)
        self._merged = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._home: list[int] = []  # the span stack of the installing thread

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)
        spans, observed, ids, clock = self.spans, self.observed, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            outer = stack or self._home
            parent = outer[-1] if outer else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, self.op))
            if observe is not None:
                observe(observed, result)
            return result

        return traced

    def install(self) -> None:
        self._home = self._stack()
        for module_name, attr, name in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def to_json(self) -> dict:
        return {"spans": [s._asdict() for s in self.spans], "observed": dict(self.observed)}

    def merge_json(self, data: dict) -> None:
        """Add the spans and observations a traced child process wrote."""
        self._merged += 1
        offset = 10**9 * self._merged  # keeps child ids apart from this process's
        for s in data["spans"]:
            parent = s["parent"] + offset if s["parent"] is not None else None
            self.spans.append(Span(s["id"] + offset, s["name"], s["start"], s["end"], parent, s["op"]))
        for key, values in data["observed"].items():
            self.observed[key].extend(values)


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a traced call costs beyond an untraced one (best of repeats)."""

    def noop():
        return None

    traced = Tracer()._wrap(noop, "calibration")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        mid = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - mid) - (mid - start))
    return max(best, 0.0) / calls


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "time": 0.0, "self": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["time"] += s.end - s.start
        row["self"] += selfs[s.id]
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Module count and cumulative import seconds from ``python -X importtime``.

    ``wavelock_s`` sums the top-level wavelock entries; ``scipy_s`` sums
    every scipy entry not nested inside another scipy entry.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name_col = line[len("import time:"):].split("|")
        name = name_col.strip()
        depth = (len(name_col) - len(name_col.lstrip()) - 1) // 2
        rows.append((depth, int(cumulative), name))
    # Entries are printed after their children, so walk backwards to see
    # each parent before its children.
    wavelock_us = scipy_us = 0
    ancestors: list[str] = []
    for depth, cumulative, name in reversed(rows):
        del ancestors[depth:]
        if depth == 0 and name.split(".")[0] == "wavelock":
            wavelock_us += cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors):
            scipy_us += cumulative
        ancestors.append(name)
    return {"modules": len(rows), "wavelock_s": wavelock_us * 1e-6, "scipy_s": scipy_us * 1e-6}


# Per-layer metrics: name -> unit.  Times and counts are per operation of
# the traced pass; a layer a workload never enters reports 0.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "core.derive_constants.calls": "count",
    "closed_form.single_bound.time_s": "s",
    "solver.solve_multipliers.time_s": "s",
    "solver.moment.calls": "count",
    "solver.moment.time_s": "s",
    "solver.find_T.calls": "count",
    "solver.bound_integral.time_s": "s",
    "solver.residual_max": "rel",
    "oracle.run_oracle.time_s": "s",
    "oracle.solve_discrete.iterations": "count",
    "oracle.solve_discrete.per_iter_s": "s",
    "oracle.converged_share": "ratio",
    "oracle.rel_gap_max": "rel",
    "weight.psi_inverse.calls": "count",
    "weight.psi_inverse.time_s": "s",
    "weight.weight_norms.time_s": "s",
    "weight.measured_distribution.time_s": "s",
    "verifier.sample_weight.time_s": "s",
    "verifier.CauchyTransform.init_s": "s",
    "verifier.localize.calls": "count",
    "verifier.localize.time_s": "s",
    "verifier.operator_norm.iterations": "count",
    "cli.cmd_bound.time_s": "s",
    "cli.cmd_scan.time_s": "s",
    "import.wavelock_s": "s",
    "import.scipy_s": "s",
    "import.modules": "count",
    "trace.spans": "count",
    "trace.overhead_share": "ratio",
}


def layer_metrics(spans: list[Span], observed: dict[str, list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass of ``n_ops`` operations.

    The ``import.*`` and ``trace.overhead_share`` entries are measured by
    the runner and are not computed here.
    """
    agg = aggregate(spans)

    def calls(name):
        return agg[name]["calls"] / n_ops if name in agg else 0.0

    def seconds(name):
        return agg[name]["time"] / n_ops if name in agg else 0.0

    out = {
        f"{layer}.self_s": sum(row["self"] for name, row in agg.items() if name.split(".")[0] == layer) / n_ops
        for layer in LAYERS
    }
    iterations = sum(observed.get("oracle_iterations", ()))
    converged = observed.get("oracle_converged", ())
    out.update({
        "core.derive_constants.calls": calls("core.derive_constants"),
        "closed_form.single_bound.time_s": seconds("closed_form.single_bound"),
        "solver.solve_multipliers.time_s": seconds("solver.solve_multipliers"),
        "solver.moment.calls": calls("solver.moment"),
        "solver.moment.time_s": seconds("solver.moment"),
        "solver.find_T.calls": calls("solver.find_T"),
        "solver.bound_integral.time_s": seconds("solver.bound_integral"),
        "solver.residual_max": max(observed.get("residual", ()), default=0.0),
        "oracle.run_oracle.time_s": seconds("oracle.run_oracle"),
        "oracle.solve_discrete.iterations": iterations / n_ops,
        "oracle.solve_discrete.per_iter_s": (
            agg["oracle.solve_discrete"]["time"] / iterations if iterations else 0.0
        ),
        "oracle.converged_share": sum(converged) / len(converged) if converged else 0.0,
        "oracle.rel_gap_max": max(observed.get("oracle_rel_gap", ()), default=0.0),
        "weight.psi_inverse.calls": calls("weight.psi_inverse"),
        "weight.psi_inverse.time_s": seconds("weight.psi_inverse"),
        "weight.weight_norms.time_s": seconds("weight.weight_norms"),
        "weight.measured_distribution.time_s": seconds("weight.measured_distribution"),
        "verifier.sample_weight.time_s": seconds("verifier.sample_weight"),
        "verifier.CauchyTransform.init_s": seconds("verifier.CauchyTransform.init"),
        "verifier.localize.calls": calls("verifier.localize"),
        "verifier.localize.time_s": seconds("verifier.localize"),
        "verifier.operator_norm.iterations": sum(observed.get("power_iterations", ())) / n_ops,
        "cli.cmd_bound.time_s": seconds("cli.cmd_bound"),
        "cli.cmd_scan.time_s": seconds("cli.cmd_scan"),
        "trace.spans": len(spans) / n_ops,
    })
    return out


def write_spans(path, spans: list[Span]) -> None:
    """One JSON object per span, in the order the spans ended."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")
