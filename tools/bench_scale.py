"""Write BENCH_scale.json: end-to-end and layer rows for the regimes ROADMAP.md targets.

    python3 tools/bench_scale.py

Run it from any directory; it times the checkout it sits in.  Each
end-to-end row is one `python -m wkseq` command with this checkout's `src`
first on the path, run as a child process three times, one after another.
A row holds the argv, its timeout (at most 120 s), the exit code and stdout
sha256 of the runs, `wall_s` as the median of the three wall times, and
`peak_rss_mb` as the largest of their peak RSS.  A run past its timeout is
killed, and the row records "timeout" for its time.  Each layer row is one
certificate checker called in process, in one child with the same path, at
the certify workload's sizes: `wall_s` is the median of LAYER_REPEATS calls,
each on a fresh ladder, and `report_sha256` hashes the report's JSON.  The
file also records the git sha, a hash of `src/`, the Python version and the
CPU count.  The jobs are started and measured by `bench/spawn.py`, as the
gated benchmark's are.

The gated benchmark (`bench/run.py`) runs only small jobs; these rows are
the long ones: searches on 10^6 random values, which repeat nowhere, α far
into its ramps, and the certificate checks near their limits.  The input
files are written once under `.bench_scale/` from a fixed seed, as
`bench/inputs.py` writes its own, so no file is downloaded.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / ".bench_scale"
REPEATS = 3
SEED = 2026
RANDOM_ROWS, LOAD_ROWS = 10**6, 10**5


def _write_csv(path: Path, rows: int, blank_after_header: bool = False) -> None:
    """`rows` random values num/1000 in `gen`'s CSV shape, from SEED."""
    rng = random.Random(SEED)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("index,value_num,value_den\n" + "\n" * blank_after_header)
        for start in range(0, rows, 10_000):
            fh.write("".join(f"{i},{rng.randrange(1001)},1000\n" for i in range(start, min(rows, start + 10_000))))
    os.replace(tmp, path)


def inputs() -> dict[str, Path]:
    files = {
        "random_1e6": (RANDOM_ROWS, False),
        "random_1e5": (LOAD_ROWS, False),
        "random_1e5_blank": (LOAD_ROWS, True),
    }
    paths = {}
    for name, (rows, blank) in files.items():
        path = paths[name] = INPUTS / f"{name}-seed{SEED}.csv"
        if not path.exists():
            _write_csv(path, rows, blank)
    return paths


def rows(files: dict[str, Path]) -> list[tuple[str, list[str], float]]:
    """(name, argv after `python -m wkseq`, timeout in seconds)."""
    classify = ["--b", "ones", "--delta", "1", "--k", "32", "--tau", "1/100"]
    thmC = ["--q", "1", "--delta", "1", "--k", "8", "--tau", "1/100"]
    big, load, blank = (str(files[n]) for n in ("random_1e6", "random_1e5", "random_1e5_blank"))
    return [
        # ROADMAP item 7: window files with no period, walked one time at a time
        ("classify_random_1e6", ["relations", "classify", "--a", big, "--horizon", "999000", *classify], 120),
        ("thmC_random_1e6", ["relations", "thmC", "--orbit", big, "--horizon", "999000", *thmC], 120),
        # a load and one search time: the canonical file, and one blank line after its header
        ("load_random_1e5", ["relations", "classify", "--a", load, "--horizon", "0", *classify], 60),
        ("load_random_1e5_blank_line", ["relations", "classify", "--a", blank, "--horizon", "0", *classify], 60),
        # α past stretch(2) = 14 348 907, on level 2's ramps
        *((f"classify_alpha_{n}e7", ["relations", "classify", "--a", "alpha", "--horizon", str(n * 10**7), *classify],
           120) for n in (1, 2, 3)),
        ("thmC_alpha_3e7", ["relations", "thmC", "--orbit", "alpha", "--horizon", str(3 * 10**7), *thmC], 120),
        # certificates: report integers past Python's digit limit, scan refusals, the largest scans
        ("rigidity_n8", ["verify", "rigidity", "--n", "8", "--count", "1"], 60),
        ("rigidity_n11", ["verify", "rigidity", "--n", "11", "--count", "1"], 60),
        ("returns_n7_samples3", ["verify", "returns", "--n", "7", "--samples", "3"], 60),
        ("wm_n2_refused", ["verify", "wm", "--n", "2"], 60),
        ("returns_n2_refused", ["verify", "returns", "--n", "2"], 60),
        ("rigidity_n2_refused", ["verify", "rigidity", "--n", "2", "--count", str(10**9)], 60),
        ("returns_n2_samples1e5", ["verify", "returns", "--n", "2", "--samples", "100000"], 60),
        ("returns_n2_samples1e6", ["verify", "returns", "--n", "2", "--samples", "1000000"], 60),
        ("ones_scan_n1_2e6", ["verify", "ones", "--n", "1", "--window", "2000000", "--mode", "scan"], 60),
        ("ones_plateau_n2_1e13", ["verify", "ones", "--n", "2", "--window", str(10**13), "--mode", "plateau"], 60),
    ]


#: Calls per layer row, each on a fresh ladder.
LAYER_REPEATS = 5
#: The layer rows' child: argv[1] names a certificate checker's call, made
#: as the CLI makes it at about the certify workload's sizes (bench/inputs.py
#: draws them near these); stdout is one JSON object.
LAYER_SCRIPT = """
import hashlib, json, sys, time
from wkseq import certify, ladder_new


def grid(lad, n, samples):
    p = lad.p(n)
    g = range(-p, p + 1, 1 if samples is None else max(1, 2 * p // samples))
    return g if g[-1] == p else [*g, p]


CALLS = {
    "ones_scan": lambda lad: certify.check_ones_runs(lad, 1, 50000, mode="scan"),
    "rigidity_n1": lambda lad: certify.check_rigidity(lad, 1, 10000),
    "rigidity_n2": lambda lad: certify.check_rigidity(lad, 2, 10000),
    "returns_n2": lambda lad: certify.check_returns(lad, 2, grid(lad, 2, 4000)),
    "ones_plateau": lambda lad: certify.check_ones_runs(lad, 2, 300000000, mode="plateau"),
    "returns_n1": lambda lad: certify.check_returns(lad, 1, grid(lad, 1, None)),
    "wm_n1": lambda lad: certify.check_wm_returns(lad, 1),
    "shift_defect": lambda lad: certify.check_shift_defect(lad, 1, 2, 143489313),
}
times = []
for _ in range(int(sys.argv[2])):
    lad = ladder_new()
    start = time.perf_counter()
    report = CALLS[sys.argv[1]](lad)
    times.append(time.perf_counter() - start)
doc = json.dumps(report.to_json_dict(), sort_keys=True).encode()
print(json.dumps({"wall_s_runs": times, "report_sha256": hashlib.sha256(doc).hexdigest()}))
"""
LAYER_ROWS = ("ones_scan", "rigidity_n1", "rigidity_n2", "returns_n2", "ones_plateau",
              "returns_n1", "wm_n1", "shift_defect")


def measure_layer(spawner, name: str) -> dict:
    run = spawner.run(["-c", LAYER_SCRIPT, name, str(LAYER_REPEATS)], 120)
    if run.exit_code != 0:
        raise RuntimeError(f"layer row {name} failed: {run.stderr}")
    out = json.loads(run.stdout)
    times = [round(t, 5) for t in out["wall_s_runs"]]
    return {"name": f"certify.{name}", "wall_s": statistics.median(times), "wall_s_runs": times,
            "report_sha256": out["report_sha256"]}


def measure(spawner, name: str, argv: list[str], timeout: float) -> dict:
    runs, digests = [], set()
    for _ in range(REPEATS):
        runs.append(spawner.run(["-m", "wkseq", *argv], timeout))
        digests.add(hashlib.sha256((INPUTS / "job.out").read_bytes()).hexdigest())
    codes = sorted({run.exit_code for run in runs}, key=str)
    times = [round(run.wall_s, 4) for run in runs]
    return {
        "name": name,
        "argv": ["python", "-m", "wkseq", *(os.path.relpath(a, ROOT) if a.startswith(str(INPUTS)) else a for a in argv)],
        "timeout_s": timeout,
        "exit_code": codes[0] if len(codes) == 1 else codes,
        "stdout_sha256": digests.pop() if len(digests) == 1 else sorted(digests),
        "wall_s": "timeout" if any(run.timed_out for run in runs) else statistics.median(times),
        "wall_s_runs": times,
        "peak_rss_mb": round(max(run.maxrss_mb for run in runs), 2),
    }


def metadata() -> dict:
    try:
        # the commit, with "-dirty" where the tree has changed since it
        sha = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "repeats": REPEATS, "seed": SEED}


def main() -> int:
    INPUTS.mkdir(exist_ok=True)
    # bench/spawn.py's helper, forked while this process is small, starts
    # the jobs and reads their peak RSS
    sys.path.insert(0, str(ROOT / "bench"))
    import spawn

    spawner = spawn.Spawner(spawn.child_env(ROOT), INPUTS)
    try:
        result = {"schema": "wkseq-bench-scale/1", **metadata(), "rows": []}
        for name, argv, timeout in rows(inputs()):
            row = measure(spawner, name, argv, timeout)
            result["rows"].append(row)
            print(f"{name:<28} exit {row['exit_code']!s:<6} wall {row['wall_s']!s:>9} s  "
                  f"peak {row['peak_rss_mb']:6.2f} MB", flush=True)
        result["layer_rows"] = []
        for name in LAYER_ROWS:
            row = measure_layer(spawner, name)
            result["layer_rows"].append(row)
            print(f"{row['name']:<28} in process   wall {row['wall_s']:>9} s", flush=True)
    finally:
        spawner.close()
    (ROOT / "BENCH_scale.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
