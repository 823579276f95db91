"""The traced run: per-layer numbers, one layer per wkseq module.

Each job of every workload runs as a CLI subprocess (its wall time), then
in-process twice, untraced and traced, by calling `cli.console_main` with
the job's arguments; for the traced call the public functions of each
module are wrapped first.  The `wm --n 2` probe, which cannot be stopped
in-process, runs only as a subprocess.  A wrapper records one span per call
(name, start, end, parent, job); the evaluator entry points are only counted
and timed, since they run once per coordinate.  Spans are kept in memory
and written out at the end.  The difference between the traced and
untraced in-process times is the tracing overhead.

The wrappers live here, around the calls into each layer; nothing inside
the package is changed.  Direct probes outside the job list time what no
job isolates: ladder growth, one evaluation per offset band, and the same
classify on a fresh and on a reused `alpha_source`.
"""
from __future__ import annotations

import gc
import inspect
import io
import json
import statistics
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import Callable

import wkseq
from wkseq import certify, cli, ladder, plfunc, relations, seqio, sequence

from inputs import Inputs
from spawn import JobRun
from workloads import Job

MODULES = (wkseq, ladder, plfunc, sequence, seqio, certify, relations, cli)


def _coords(args: dict, result) -> dict:
    return {"coords": args["length"]}


def _bytes_out(args: dict, result) -> dict:
    return {"bytes_out": len(result)}


def _bytes_in(args: dict, result) -> dict:
    return {"bytes_in": len(args["text"])}


def _times(args: dict, result) -> dict:
    return {"times": args["horizon"] - args["start"] + 1}


#: (module, function, what to record besides the span's times)
SPANNED = [
    (ladder, "ladder_new", None),
    (sequence, "alpha_window", _coords),
    (seqio, "dumps_csv", _bytes_out),
    (seqio, "dumps_json", _bytes_out),
    (seqio, "load_window", None),
    (seqio, "loads_csv", _bytes_in),
    (seqio, "loads_json", _bytes_in),
    (certify, "check_ones_runs", None),
    (certify, "check_rigidity", None),
    (certify, "check_returns", None),
    (certify, "check_wm_returns", None),
    (certify, "check_shift_defect", None),
    (relations, "alpha_source", None),
    (relations, "window_source", None),
    (relations, "classify_pair", None),
    (relations, "prox_defect", _times),
    (relations, "sep_sup", _times),
    (relations, "pair_recur_defect", _times),
    (relations, "thmB_witnesses", None),
    (relations, "thmC_witnesses", None),
]
#: Evaluator entry points, counted and timed where other layers call them.
COUNTED = [(sequence, "eval_ainf"), (certify, "eval_ainf"), (certify, "eval_b"), (relations, "eval_ainf")]


class Tracer:
    """Spans in memory, plus evaluator calls counted and timed by innermost span."""

    def __init__(self):
        self.spans: list[dict] = []
        self.evals: Counter[str | None] = Counter()
        self.eval_ns: Counter[str | None] = Counter()
        self.job: str | None = None
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    def spanned(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent = self._stack[-1]["id"] if self._stack else None
            span = {"id": len(self.spans), "name": name, "job": self.job, "parent": parent}
            self.spans.append(span)
            self._stack.append(span)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = attrs(bound.arguments, result)
            return result

        return traced

    def counted(self, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            key = self._stack[-1]["name"] if self._stack else None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.eval_ns[key] += time.perf_counter_ns() - start
                self.evals[key] += 1

        return traced

    def install(self) -> None:
        """Wrap every target under each name any wkseq module binds it to."""
        for module, fname, attrs in SPANNED:
            original = getattr(module, fname)
            self._replace(original, fname, self.spanned(f"{module.__name__[6:]}.{fname}", original, attrs))
        for module, fname in COUNTED:
            self._saved.append((module, fname, getattr(module, fname)))
            setattr(module, fname, self.counted(getattr(module, fname)))

    def _replace(self, original: Callable, fname: str, wrapper: Callable) -> None:
        for module in MODULES:
            if module.__dict__.get(fname) is original:
                self._saved.append((module, fname, original))
                setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._saved):
            setattr(module, fname, original)
        self._saved.clear()

    def total_s(self, name: str, job: str | None = None) -> float:
        return sum(
            s["end_ns"] - s["start_ns"] for s in self.spans
            if s["name"] == name and (job is None or s["job"] == job)
        ) / 1e9

    def attr_sum(self, key: str) -> int:
        return sum(s.get("attrs", {}).get(key, 0) for s in self.spans)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time (minus children)."""
        child_ns = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end_ns"] - s["start_ns"]
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child_ns[s["id"]]) / 1e9
        return out


def run_in_process(job: Job, main: Callable = cli.console_main) -> JobRun:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(job.argv)
    wall = time.perf_counter() - start
    return JobRun(code, wall, None, None, False, out.getvalue(), err.getvalue())


def _median_time(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _evaluate(start: int, count: int) -> None:
    lad = ladder.ladder_new()
    for i in range(start, start + count):
        ladder.eval_ainf(lad, i)


def layer_probes(inp: Inputs) -> dict[str, float]:
    """Direct timings of what no single job isolates."""
    out = {"ladder.grow_s": _median_time(lambda: ladder.ladder_new().ensure_cover(inp.gen_huge), 51)}
    per_band = 2_000
    for band, start in (("small", inp.gen_small), ("medium", inp.gen_medium), ("huge", inp.gen_huge)):
        out[f"ladder.eval_us.{band}"] = _median_time(lambda: _evaluate(start, per_band), 3) / per_band * 1e6
    lad = ladder.ladder_new()
    a, b = relations.OrbitView(relations.alpha_source(lad)), relations.OrbitView(relations.ones_source())

    def classify() -> None:
        relations.classify_pair(a, b, 1, 0, 20_000, 32, Fraction(1, 100))

    out["relations.alpha_source_cold_s"] = _median_time(classify, 1)
    out["relations.alpha_source_warm_s"] = _median_time(classify, 3)
    return out


IMPORT_SNIPPET = "import time; t = time.perf_counter(); import wkseq; print(time.perf_counter() - t)"


def unit_of(metric: str) -> str:
    if metric.startswith("ladder.eval_us."):
        return "us"
    if metric.endswith("_s"):
        return "s"
    return "bytes" if ".bytes_" in metric else "count"


def traced_run(inp: Inputs, jobs: list[Job], run_cli: Callable[[Job], JobRun],
               run_python: Callable[[list[str]], JobRun], record: Callable) -> tuple[dict, Tracer]:
    """Every job as a subprocess, then in-process untraced and traced."""
    cli_wall, failures = {}, Counter()
    for job in jobs:
        run = run_cli(job)
        cli_wall[job.name] = run.wall_s
        failure = record(job, run)
        if failure is not None:
            failures[failure.kind] += 1
    import_s = statistics.median(float(run_python(["-c", IMPORT_SNIPPET]).stdout) for _ in range(5))

    local = [job for job in jobs if job.in_process]
    # Keep the collector off the benchmark's own heap (oracle values), which
    # a CLI process does not have, during the in-process timings.
    gc.collect()
    gc.freeze()
    tracer = Tracer()
    main = tracer.spanned("cli.console_main", cli.console_main)
    untraced, traced, outputs = {}, {}, {}
    for i, job in enumerate(local):  # both ways back to back, alternating which goes first
        for with_trace in (i % 2 == 0, i % 2 == 1):
            if not with_trace:
                run = run_in_process(job)
                record(job, run)
                untraced[job.name] = run.wall_s
                continue
            tracer.job = job.name
            tracer.install()
            try:
                run = run_in_process(job, main)
            finally:
                tracer.uninstall()
            record(job, run)
            traced[job.name], outputs[job.name] = run.wall_s, run.stdout
    tracer.job = None
    probes = layer_probes(inp)

    coords = tracer.attr_sum("coords")
    window_s = tracer.total_s("sequence.alpha_window")
    try:
        intervals = json.loads(outputs["ones_plateau"])["runs_found"]
    except (KeyError, ValueError):
        intervals = 0
    m = {
        "ladder.grow_s": probes["ladder.grow_s"],
        **{f"ladder.eval_us.{band}": probes[f"ladder.eval_us.{band}"] for band in ("small", "medium", "huge")},
        "ladder.evals": sum(tracer.evals.values()),
        "ladder.eval_s": sum(tracer.eval_ns.values()) / 1e9,
        "sequence.alpha_window_s": window_s,
        "sequence.alpha_window_self_s": window_s - tracer.eval_ns["sequence.alpha_window"] / 1e9,
        "sequence.coords": coords,
        **{f"seqio.{f}_s": tracer.total_s(f"seqio.{f}") for f in ("dumps_csv", "dumps_json", "loads_csv", "loads_json")},
        "seqio.bytes_out": tracer.attr_sum("bytes_out"),
        "seqio.bytes_in": tracer.attr_sum("bytes_in"),
        "certify.ones_scan_s": tracer.total_s("certify.check_ones_runs", "ones_scan"),
        "certify.ones_plateau_s": tracer.total_s("certify.check_ones_runs", "ones_plateau"),
        **{f"certify.{short}_s": tracer.total_s(f"certify.check_{name}") for short, name in
           (("rigidity", "rigidity"), ("returns", "returns"), ("wm", "wm_returns"), ("shift_defect", "shift_defect"))},
        "certify.coords_scanned": sum(n for name, n in tracer.evals.items() if name and name.startswith("certify.")),
        "certify.intervals_certified": intervals,
        **{f"relations.{f}_s": tracer.total_s(f"relations.{f}") for f in ("prox_defect", "sep_sup", "pair_recur_defect")},
        "relations.thmB_s": tracer.total_s("relations.thmB_witnesses"),
        "relations.thmC_s": tracer.total_s("relations.thmC_witnesses"),
        "relations.times_in_range": tracer.attr_sum("times"),
        "relations.alpha_source_cold_s": probes["relations.alpha_source_cold_s"],
        "relations.alpha_source_warm_s": probes["relations.alpha_source_warm_s"],
        "relations.time0_witnesses": failures["vacuous"],
        "cli.import_s": import_s,
        "cli.overhead_s": statistics.median(cli_wall[j] - traced[j] for j in traced),
        "cli.failed_jobs": sum(failures.values()),
        "cli.timeouts": failures["timeout"],
        **{f"cli.{name}_s": wall for name, wall in cli_wall.items()},
        "trace.untraced_s": sum(untraced.values()),
        "trace.overhead_s": sum(traced.values()) - sum(untraced.values()),
    }
    return m, tracer
