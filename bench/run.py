"""wkseq benchmark: the README's CLI commands, timed and checked.

    python3 bench/run.py --workload alpha-live --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it reads `src/` and `tests/oracles.py`
there and writes only under `.bench_work/`.

--trace 0 times whole passes over one workload's job list (see
workloads.py), each job a `python -m wkseq` subprocess, until --seconds
have passed, and reports per workload:

- wall_s: wall time of one pass with each job at its fastest over the
  run's passes; a job that timed out every time adds its time limit;
- setup_s: median wall time of a one-coordinate `gen`, the fixed cost of
  any CLI call, run several times in each pass;
- peak_rss_mb: median over passes of the largest peak RSS of any job;
- failed_frac (printed, and as `failed`/`attempted` in the result line):
  jobs whose output failed its gate, over jobs run.

A shared host slows jobs down, never speeds them up, by up to 2x for
seconds to minutes at a time.  Hence each job's fastest try rather than the
median pass, and both times scaled to a reference host speed by a yardstick
(see YARDSTICK).  The summary prints them as timed, and the median pass.

--trace 1 runs the per-layer suite of tracing.py over the jobs of all
three workloads and reports one metric set per module.  --workload all runs
each workload in turn and prints them together.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Details (metadata, every sample, every failure, the spans) go to
`.bench_work/results/`.  Exit code 2 means the benchmark could not run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("alpha-live", "certify", "search-files")
SETUP_CALLS_PER_PASS = 4
#: A fixed piece of pure-Python rational arithmetic, run as a child process
#: like a job at the start and end of every pass.  The shared host's speed
#: drifts by up to 2x over minutes; wall_s and setup_s are scaled by
#: YARDSTICK_REF_S over the yardstick's fastest time in the run, which puts
#: runs made at different host speeds on one scale.
YARDSTICK = ["-c", "from fractions import Fraction\nx = Fraction(0)\n"
             "for i in range(1, 20000):\n    x += Fraction(i, 3 ** (i % 20 + 1))\n"]
#: About the yardstick's time on an uncontended core of a 2-CPU VM, Python 3.11.
YARDSTICK_REF_S = 0.1


class Tally:
    """Jobs attempted and the failures their gates reported."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # job, kind, reason

    def record(self, job, run):
        failure = job.gate(run)
        self.attempted += 1
        if failure is not None:
            self.failures.append((job.name, failure.kind, failure.reason))
        return failure

    @property
    def correct(self) -> bool:
        return all(kind != "wrong" for _, kind, _ in self.failures)

    def lines(self) -> list[str]:
        counts = Counter(self.failures)
        return [f"  failed: {job} x{n} ({kind}: {reason})" for (job, kind, reason), n in sorted(counts.items())]


def metadata(seed: int, workload: str, trace: int, seconds: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload,
        "trace": bool(trace),
        "seconds": seconds,
        "loadavg_start": os.getloadavg(),
    }


def run_workload(name: str, inp, seconds: int, run_job, run_python) -> tuple[dict, Tally, dict]:
    """Closed loop, one client: passes over the job list until `seconds`."""
    import workloads

    jobs = workloads.WORKLOADS[name](inp)
    probe = workloads.setup_probe(name, inp)
    run_job(probe)  # untimed: compiles bytecode, as any installed copy would have
    tally, passes, yardstick = Tally(), [], []
    samples: dict[str, list[tuple[float, float, bool]]] = {job.name: [] for job in [probe, *jobs]}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall = rss = 0.0
        yardstick.append(run_python(YARDSTICK).wall_s)
        for job in [probe] * SETUP_CALLS_PER_PASS + jobs:
            run = run_job(job)
            tally.record(job, run)
            samples[job.name].append((run.wall_s, run.maxrss_mb, run.timed_out))
            rss = max(rss, run.maxrss_mb)
            if job is not probe:
                wall += run.wall_s
        yardstick.append(run_python(YARDSTICK).wall_s)
        passes.append((wall, rss))
    setups = [w for w, _, _ in samples[probe.name]]
    # A shared host only ever slows a job down, by up to 2x for seconds at a
    # time, so a job's fastest try is its steadiest estimate.  A job that
    # timed out every time costs its time limit, which host speed does not
    # change.
    fastest = [min(samples[job.name]) for job in jobs]
    best = sum(w for w, _, _ in fastest)
    scale = YARDSTICK_REF_S / min(yardstick)
    scaled = sum(w if timed_out else w * scale for w, _, timed_out in fastest)
    metrics = {
        "wall_s": (scaled, "s", len(passes), "passes, each job at its fastest"),
        "setup_s": (statistics.median(setups) * scale, "s", len(setups), "calls"),
        "peak_rss_mb": (statistics.median(r for _, r in passes), "MB", len(passes), "passes"),
    }
    detail = {
        "scale": scale,
        "yardstick_s": yardstick,
        "unscaled": {"wall_s": best, "setup_s": statistics.median(setups)},
        "median_pass_wall_s": statistics.median(w for w, _ in passes),
        "passes": [{"wall_s": w, "peak_rss_mb": r} for w, r in passes],
        "jobs": {name: {"wall_s": [w for w, _, _ in runs], "max_rss_mb": max(r for _, r, _ in runs)}
                 for name, runs in samples.items()},
    }
    return metrics, tally, detail


def print_workload(name: str, metrics: dict, tally: Tally, detail: dict) -> None:
    print(f"{name}: closed loop, 1 client, jobs run one at a time")
    for metric, (value, unit, count, what) in metrics.items():
        if metric == "wall_s":
            how = f"over {count} {what}"
        else:
            how = f"median of {count} {what}"
        if metric in detail["unscaled"]:
            how += f"; as timed {detail['unscaled'][metric]:.4f} s"
        print(f"  {metric:<12} {value:12.4f} {unit:<3} {how}")
    print(f"  {'':<12} median pass as timed {detail['median_pass_wall_s']:.4f} s; "
          f"times above scaled by {detail['scale']:.4f} for host speed")
    failed = len(tally.failures)
    print(f"  {'failed_frac':<12} {failed / tally.attempted:12.4f}     {failed} of {tally.attempted} jobs failed")
    for line in tally.lines():
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wkseq" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no wkseq checkout (src/wkseq, tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import spawn

    scratch = WORK / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    spawner = spawn.Spawner(spawn.child_env(ROOT), scratch)  # before anything large is loaded
    try:
        return measure(args, spawner)
    finally:
        spawner.close()


def measure(args: argparse.Namespace, spawner) -> int:
    from inputs import Inputs

    meta = metadata(args.seed, args.workload, args.trace, args.seconds)
    inp = Inputs(WORK, args.seed)
    inp.load_oracle()
    inp.write_files()

    def run_job(job):
        return spawner.run(["-m", "wkseq", *job.argv], job.timeout_s)

    def run_python(argv):
        return spawner.run(argv, 60.0)

    result: dict = {"meta": meta}
    out_metrics: dict[str, dict] = {}
    tally = Tally()
    if args.trace:
        import tracing
        import workloads
        import wkseq

        if Path(wkseq.__file__).resolve().parents[1] != ROOT / "src":
            print(f"error: imported wkseq from {wkseq.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
            return 2
        jobs = [job for name in WORKLOAD_NAMES for job in workloads.WORKLOADS[name](inp)]
        metrics, tracer = tracing.traced_run(inp, jobs, run_job, run_python, tally.record)
        print("per-layer metrics (one traced pass over the jobs of every workload)")
        for metric, value in metrics.items():
            unit = tracing.unit_of(metric)
            print(f"  {metric:<36} {value:14.6f} {unit}" if unit in ("s", "us") else f"  {metric:<36} {value:14d} {unit}")
        for line in tally.lines():
            print(line)
        out_metrics = {m: {"value": v, "unit": tracing.unit_of(m)} for m, v in metrics.items()}
        result["spans"] = tracer.spans
        result["span_summary"] = tracer.summary()
        result["evals_by_span"] = dict(tracer.evals)
    else:
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        for name in names:
            metrics, one, detail = run_workload(name, inp, args.seconds, run_job, run_python)
            print_workload(name, metrics, one, detail)
            tally.attempted += one.attempted
            tally.failures += one.failures
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, (value, unit, count, _) in metrics.items():
                out_metrics[prefix + metric] = {"value": value, "unit": unit}
            result[name] = {"metrics": {m: {"value": v, "unit": u, "samples": c} for m, (v, u, c, _) in metrics.items()},
                            "attempted": one.attempted, "failures": one.failures, **detail}
    meta["loadavg_end"] = os.getloadavg()
    print("meta " + json.dumps(meta, sort_keys=True))
    line = {"correct": tally.correct, "attempted": tally.attempted, "failed": len(tally.failures),
            "metrics": out_metrics}
    result["result"] = line
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
