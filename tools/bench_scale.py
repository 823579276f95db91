"""Write BENCH_scale.json: end-to-end and layer rows for the regimes ROADMAP.md targets.

    python3 tools/bench_scale.py [--against DIR]

Run it from any directory; it times the checkout it sits in.  Each
end-to-end row is one `python -m wkseq` command with this checkout's `src`
first on the path, run as a child process three times, one after another.
A row holds the argv, its timeout (at most 120 s), the exit code and stdout
sha256 of the runs, `wall_s` as the median of the three wall times, and
`peak_rss_mb` as the largest of their peak RSS (`peak_rss_mb_runs` holds
each).  A run past its timeout is
killed, and the row records "timeout" for its time.  With `--against DIR`,
DIR is a second checkout, for example a `git worktree` of the parent commit
at a path of the same length as this one (the path alone moves a call's
peak RSS by about 0.1 MB).  Each end-to-end row then runs its command three
times in each checkout, alternating between them and starting with the
other one on each repeat, so drift on the host falls on both sides alike;
the row's `against` object holds DIR's exit code, hash, times and peaks, and
the file's `against` object DIR's metadata.  The cold-start rows (`cold_*`)
are the cheapest call of each command family, whose peak RSS is the
interpreter, the imports and their compiles.  Each layer row is one
certificate checker called in process, in one child with the same path, at
the certify workload's sizes: `wall_s` is the median of LAYER_REPEATS calls,
each on a fresh ladder, and `report_sha256` hashes the report's JSON.  The
window layer rows call both readers and `tail_period` the same way, on
LOAD_ROWS rows whose values are all distinct, in `gen`'s shape and not; each
also records its tracemalloc peak per row, from one more call under
tracemalloc, and a hash of the window's values.  Layer rows run in this
checkout only.  The file also records the
measured `src/` as a git tree id (`git rev-parse <commit>:src` gives the
same id for the commit that holds that code), the commit when it is HEAD's,
a hash of `src/`, the Python version, the CPU count, each module's
tokenize token count, and under `compiles` the `wkseq` modules each command
imports (and so compiles, without a bytecode cache) with their token total.
The jobs are
started and measured by `bench/spawn.py`, as the gated benchmark's are.

The gated benchmark (`bench/run.py`) runs only small jobs; these rows are
the long ones: searches on 10^6 random values, which repeat nowhere, and on
10^6 rows of α as CSV and JSON, α far into its ramps, the certificate
checks near their limits, and each certify job's command, for its peak RSS.  The input files are written once under
`.bench_scale/`, the random ones from a fixed seed, as `bench/inputs.py`
writes its own, and α's by this checkout's `gen`, so no file is downloaded.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tokenize
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
    for fmt in ("csv", "json"):
        path = paths[f"alpha_1e6_{fmt}"] = INPUTS / f"alpha-4860-1e6.{fmt}"
        if not path.exists():
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
            subprocess.run([sys.executable, "-m", "wkseq", "--format", fmt, "gen", "--from", "4860",
                            "--len", str(RANDOM_ROWS), "--out", f"{path}.tmp"], env=env, check=True)
            os.replace(f"{path}.tmp", path)
    return paths


def rows(files: dict[str, Path]) -> list[tuple[str, list[str], float]]:
    """(name, argv after `python -m wkseq`, timeout in seconds)."""
    classify = ["--b", "ones", "--delta", "1", "--k", "32", "--tau", "1/100"]
    thmC = ["--q", "1", "--delta", "1", "--k", "8", "--tau", "1/100"]
    big, load, blank = (str(files[n]) for n in ("random_1e6", "random_1e5", "random_1e5_blank"))
    alpha_csv, alpha_json = str(files["alpha_1e6_csv"]), str(files["alpha_1e6_json"])
    return [
        # ROADMAP item 7: window files with no period, walked one time at a time
        ("classify_random_1e6", ["relations", "classify", "--a", big, "--horizon", "999000", *classify], 120),
        ("thmC_random_1e6", ["relations", "thmC", "--orbit", big, "--horizon", "999000", *thmC], 120),
        # a load and one search time: the canonical file, and one blank line after its header
        ("load_random_1e5", ["relations", "classify", "--a", load, "--horizon", "0", *classify], 60),
        ("load_random_1e5_blank_line", ["relations", "classify", "--a", blank, "--horizon", "0", *classify], 60),
        # 10^6 rows of α, which repeat from the file's start: the readers and the skip, as CSV and JSON
        ("classify_alpha_csv_1e6", ["relations", "classify", "--a", alpha_csv, "--horizon", "999968", *classify], 60),
        ("thmB_alpha_json_1e6", ["relations", "thmB", "--orbit", alpha_json, "--fixed-point", "ones", "--pairs",
                                 "0:1,2:5", "--horizon", "20000", "--k", "32", "--tau", "1/100"], 60),
        # α past stretch(2) = 14 348 907, on level 2's ramps
        *((f"classify_alpha_{n}e7", ["relations", "classify", "--a", "alpha", "--horizon", str(n * 10**7), *classify],
           120) for n in (1, 2, 3)),
        ("thmC_alpha_3e7", ["relations", "thmC", "--orbit", "alpha", "--horizon", str(3 * 10**7), *thmC], 120),
        # long gens: level 2's ramp from stretch(2), nearly every value distinct; JSON on its ramps
        # past 7 stretch(2); and the decimal column over levels 1 and 2
        ("gen_ramp_l2_2e6", ["gen", "--from", "14348907", "--len", "2000000"], 60),
        ("gen_json_1e8_1e6", ["--format", "json", "gen", "--from", str(10**8), "--len", str(10**6)], 60),
        ("gen_decimals_2e6", ["--decimals", "6", "gen", "--from", "0", "--len", "2000000"], 60),
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
        # ROADMAP's state table: the rational grid near the scan limit, and the plateau walk's long windows
        ("shift_defect_n1_m1_step1_4000", ["verify", "shift-defect", "--n", "1", "--m", "1", "--step", "1/4000"], 120),
        ("ones_plateau_n2_1e14", ["verify", "ones", "--n", "2", "--window", str(10**14), "--mode", "plateau"], 120),
        ("ones_plateau_n1_1e7", ["verify", "ones", "--n", "1", "--window", str(10**7), "--mode", "plateau"], 120),
        # plateau windows whose repeats a walk must join by count, not replay: a walk that replays
        # them takes more than 5 minutes at n = 1 and 10^9, and about 10^6 times 15 s at n = 2 and 10^20
        ("ones_plateau_n1_1e9", ["verify", "ones", "--n", "1", "--window", str(10**9), "--mode", "plateau"], 30),
        ("ones_plateau_n2_1e20", ["verify", "ones", "--n", "2", "--window", str(10**20), "--mode", "plateau"], 30),
        # each certify job of bench/workloads.py at the layer rows' sizes, so each command's peak RSS
        # shows; the workload's `wm --n 2` probe is the row wm_n2_refused
        *((f"certify_{name}", ["verify", *args.split()], 60) for name, args in CERTIFY_JOBS.items()),
        # cold starts: the cheapest call of each command family
        *((f"cold_{name}", COMPILES[name].split(), 60) for name in ("gen", "verify", "relations")),
    ]


#: One cheap call per command, whose imports the metadata's `compiles`
#: lists; `gen`, `verify` and `relations` are also the cold-start rows.
COMPILES = {
    "gen": "gen --len 1",
    "verify": "verify rigidity --n 1 --count 1",
    "verify_returns": "verify returns --n 1",
    "verify_ones": "verify ones --n 1 --window 1000",
    "verify_wm": "verify wm --n 0",
    "verify_shift_defect": "verify shift-defect --n 1 --m 2 --step 143489313",
    "relations": "relations classify --a alpha --b ones --delta 1 --horizon 1 --k 1 --tau 1/100",
    "thmB_alpha": "relations thmB --orbit alpha --fixed-point ones --pairs 0:1 --horizon 1 --k 1 --tau 1/100",
    "thmC_alpha": "relations thmC --orbit alpha --q 1 --delta 1 --horizon 100 --k 8 --tau 1/100",
    "classify_file": "relations classify --a {csv} --b ones --delta 1 --horizon 1 --k 1 --tau 1/100",
    "thmB_file": "relations thmB --orbit {csv} --fixed-point ones --pairs 0:1 --horizon 1 --k 1 --tau 1/100",
    "thmC_file": "relations thmC --orbit {csv} --q 1 --delta 1 --horizon 100 --k 8 --tau 1/100",
}


#: The certify workload's jobs at about its sizes: a CLI row each, and the
#: same call in process as a layer row.
CERTIFY_JOBS = {
    "ones_scan": "ones --n 1 --window 50000 --mode scan",
    "rigidity_n1": "rigidity --n 1 --count 10000",
    "rigidity_n2": "rigidity --n 2 --count 10000",
    "returns_n2": "returns --n 2 --samples 4000",
    "ones_plateau": "ones --n 2 --window 300000000 --mode plateau",
    "returns_n1": "returns --n 1",
    "wm_n1": "wm --n 1",
    "shift_defect": "shift-defect --n 1 --m 2 --step 143489313",
}
#: Calls per layer row, each on a fresh ladder.
LAYER_REPEATS = 5
#: The layer rows' child: argv[1] names a certificate checker's call, made
#: as the CLI makes it at about the certify workload's sizes (bench/inputs.py
#: draws them near these), or a window read; stdout is one JSON object.
LAYER_SCRIPT = """
import hashlib, json, os, shutil, sys, tempfile, time, tracemalloc
from fractions import Fraction
from wkseq import SeqWindow, certify, ladder_new, load_window
from wkseq.orbits import window_source
from wkseq.sequence import alpha_window
from wkseq.ladder import STREAM_BLOCK
from wkseq.walker import eval_block


def returns(lad, n, samples):
    p = lad.p(n)
    g = range(-p, p + 1, 1 if samples is None else max(1, 2 * p // samples))
    return certify.check_returns(lad, n, g, None if g[-1] == p else p)


CALLS = {
    "ones_scan": lambda lad: certify.check_ones_runs(lad, 1, 50000, mode="scan"),
    "rigidity_n1": lambda lad: certify.check_rigidity(lad, 1, 10000),
    "rigidity_n2": lambda lad: certify.check_rigidity(lad, 2, 10000),
    "returns_n2": lambda lad: returns(lad, 2, 4000),
    "ones_plateau": lambda lad: certify.check_ones_runs(lad, 2, 300000000, mode="plateau"),
    "returns_n1": lambda lad: returns(lad, 1, None),
    "wm_n1": lambda lad: certify.check_wm_returns(lad, 1),
    "shift_defect": lambda lad: certify.check_shift_defect(lad, 1, 2, 143489313),
}
# Window files of `rows` values i/rows, all distinct and written reduced,
# in gen's shape (the block paths) and not (the exact paths), read as the
# CLI reads them; and the tail_period that a search asks for first, on
# windows that repeat nowhere, read or built from one object per value, and
# on alpha, which repeats from the window's start.
name, repeats, rows = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
folder = tempfile.mkdtemp()
READS = {
    "csv_window_1e5": lambda: load_window(os.path.join(folder, "csv")),
    "csv_window_exact_1e5": lambda: load_window(os.path.join(folder, "csv_exact")),
    "json_window_1e5": lambda: load_window(os.path.join(folder, "json")),
    "json_window_exact_1e5": lambda: load_window(os.path.join(folder, "json_exact")),
}
TAILS = {
    "tail_period_read_1e5": READS["csv_window_1e5"],
    "tail_period_objects_1e5": lambda: SeqWindow(0, [Fraction(i, rows) for i in range(rows)]),
    "tail_period_alpha_1e5": lambda: alpha_window(ladder_new(), 4860, rows),
}
# only the rows that read the files build them
if name in (*READS, "tail_period_read_1e5"):
    pairs = [Fraction(i, rows).as_integer_ratio() for i in range(rows)]
    texts = {
        "csv": "index,value_num,value_den\\n" + "".join(f"{i},{n},{d}\\n" for i, (n, d) in enumerate(pairs)),
        "csv_exact": "index,value_num,value_den\\n" + "".join(f"{i}, {n}, {d}\\n" for i, (n, d) in enumerate(pairs)),
        "json": json.dumps({"offset": 0, "schema": "wk-window/1", "values": [f"{n}/{d}" for n, d in pairs]}),
    }
    texts["json_exact"] = json.dumps(json.loads(texts["json"]), indent=1)
    for kind, text in texts.items():
        with open(os.path.join(folder, kind), "w") as fh:
            fh.write(text)


# eval_block over one piece of each kind at levels 1 and 2 of the default
# ladder, at most `rows` points of it a block of STREAM_BLOCK at a time: the
# repeat of the level below, a ramp over it, and a plateau of ones.  Each
# block's numerators are kept, over the denominator it states.
s1, s2 = 27, 14348907
BLOCKS = {
    "eval_block_repeat_l1": (4, s1), "eval_block_ramp_l1": (s1 + 1, 2 * s1),
    "eval_block_plateau_l1": (2 * s1, 4 * s1 + 1), "eval_block_repeat_l2": (10**6, 10**6 + rows),
    "eval_block_ramp_l2": (s2 + 1, s2 + 1 + rows), "eval_block_plateau_l2": (2 * s2, 2 * s2 + rows),
}


def call():
    if name in READS:
        return READS[name]()
    if name in BLOCKS:
        a, b = BLOCKS[name]
        return [v for x in range(a, b, STREAM_BLOCK) for v in eval_block(lad, range(x, min(x + STREAM_BLOCK, b)))[0]]
    return window_source(window).repeat(0)


times = []
for _ in range(repeats):
    lad, window = ladder_new(), TAILS[name]() if name in TAILS else None
    start = time.perf_counter()
    report = CALLS[name](lad) if name in CALLS else call()
    times.append(time.perf_counter() - start)
out = {"wall_s_runs": times}
if name in CALLS:
    doc = json.dumps(report.to_json_dict(), sort_keys=True)
else:
    tracemalloc.start()
    report = call()
    out["tracemalloc_bytes_per_row"] = round(tracemalloc.get_traced_memory()[1] / (len(report) if name in BLOCKS else rows), 2)
    tracemalloc.stop()
    doc = repr((report.offset, report.values) if name in READS else report)
shutil.rmtree(folder)
out["report_sha256"] = hashlib.sha256(doc.encode()).hexdigest()
print(json.dumps(out))
"""
LAYER_ROWS = (
    *(f"certify.{name}" for name in CERTIFY_JOBS),
    *(f"readers.{name}" for name in ("csv_window_1e5", "csv_window_exact_1e5", "json_window_1e5",
                                     "json_window_exact_1e5")),
    *(f"orbits.{name}" for name in ("tail_period_read_1e5", "tail_period_objects_1e5", "tail_period_alpha_1e5")),
    *(f"walker.eval_block_{kind}_l{n}" for n in (1, 2) for kind in ("repeat", "ramp", "plateau")),
)


def measure_layer(spawner, name: str) -> dict:
    run = spawner.run(["-c", LAYER_SCRIPT, name.split(".")[1], str(LAYER_REPEATS), str(LOAD_ROWS)], 120)
    if run.exit_code != 0:
        raise RuntimeError(f"layer row {name} failed: {run.stderr}")
    out = json.loads(run.stdout)
    times = [round(t, 5) for t in out.pop("wall_s_runs")]
    return {"name": name, "wall_s": statistics.median(times), "wall_s_runs": times, **out}


def measure(spawners: list, name: str, argv: list[str], timeout: float) -> dict:
    """One end-to-end row, REPEATS runs in each checkout, alternating."""
    runs, digests = [[] for _ in spawners], [set() for _ in spawners]
    for i in range(REPEATS):
        for side in (range(len(spawners)) if i % 2 == 0 else reversed(range(len(spawners)))):
            runs[side].append(spawners[side].run(["-m", "wkseq", *argv], timeout))
            digests[side].add(hashlib.sha256((INPUTS / "job.out").read_bytes()).hexdigest())
    sides = []
    for side_runs, side_digests in zip(runs, digests):
        codes = sorted({run.exit_code for run in side_runs}, key=str)
        times = [round(run.wall_s, 4) for run in side_runs]
        peaks = [round(run.maxrss_mb, 2) for run in side_runs]
        sides.append({
            "exit_code": codes[0] if len(codes) == 1 else codes,
            "stdout_sha256": side_digests.pop() if len(side_digests) == 1 else sorted(side_digests),
            "wall_s": "timeout" if any(run.timed_out for run in side_runs) else statistics.median(times),
            "wall_s_runs": times,
            "peak_rss_mb": max(peaks),
            "peak_rss_mb_runs": peaks,
        })
    row = {
        "name": name,
        "argv": ["python", "-m", "wkseq", *(os.path.relpath(a, ROOT) if a.startswith(str(INPUTS)) else a for a in argv)],
        "timeout_s": timeout,
        **sides[0],
    }
    if len(sides) > 1:
        row["against"] = sides[1]
    return row


def git_tree(folder: Path) -> str:
    """The git tree id of the `.py` files under `folder`, as git would
    write it for them (mode 100644), from the files on disk."""
    entries = []
    for path in folder.iterdir():
        if path.is_dir() and path.name != "__pycache__":
            entries.append((path.name + "/", b"40000 " + path.name.encode() + b"\0" + bytes.fromhex(git_tree(path))))
        elif path.suffix == ".py":
            data = path.read_bytes()
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            entries.append((path.name, b"100644 " + path.name.encode() + b"\0" + blob))
    body = b"".join(entry for _, entry in sorted(entries))  # git orders a folder as its name plus "/"
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def metadata(root: Path, spawner, files: dict[str, Path]) -> dict:
    """What was measured: `src_tree` is the git tree id of `src/` as it was
    run, which `git rev-parse COMMIT:src` gives for any commit holding that
    code; `git_sha` is HEAD when HEAD holds it, and null when the code is
    not committed (or there is no git)."""
    tree = git_tree(root / "src")
    try:
        run = [subprocess.run(["git", "-C", str(root), "rev-parse", spec], capture_output=True, text=True,
                              timeout=30).stdout.strip() for spec in ("HEAD", "HEAD:src")]
        sha = run[0] if run[1] == tree else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    counts = tokens(root)
    return {"git_sha": sha, "src_tree": tree, "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "repeats": REPEATS, "seed": SEED, "tokens": counts,
            "compiles": compiles(spawner, counts, files)}


def tokens(root: Path) -> dict[str, int]:
    """Each module's tokenize token count.  Without a bytecode cache a CLI
    call compiles every module it imports, and a module's compile peak jumps
    by about 120 KB past about 2048 tokens (Python 3.11), which peak RSS
    shows."""
    counts = {}
    for path in sorted((root / "src" / "wkseq").glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.stem] = sum(1 for _ in tokenize.tokenize(fh.readline))
    return counts


def compiles(spawner, counts: dict[str, int], files: dict[str, Path]) -> dict[str, dict]:
    """The `wkseq` modules each command of COMPILES imports, in the order
    `-X importtime` lists them, and their total token count."""
    out = {}
    for name, args in COMPILES.items():
        argv = args.format(csv=files["random_1e5"]).split()
        run = spawner.run(["-X", "importtime", "-m", "wkseq", *argv], 60)
        if run.exit_code not in (0, 1):
            raise RuntimeError(f"{args} failed: {run.stderr}")
        modules = [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                   if line.startswith("import time:") and "|" in line]
        stems = [m.removeprefix("wkseq.") if m != "wkseq" else "__init__" for m in modules
                 if m.split(".")[0] == "wkseq"]
        out[name] = {"argv": args.split(), "modules": stems, "tokens": sum(counts[m] for m in stems),
                     "largest": max(counts[m] for m in stems)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="a second checkout whose end-to-end rows alternate with this one's")
    args = parser.parse_args(argv)
    roots = [ROOT, *([args.against.resolve()] if args.against else [])]
    if args.against and len(str(roots[1])) != len(str(ROOT)):
        print(f"warning: {roots[1]} and {ROOT} differ in length, which moves peak RSS", file=sys.stderr)
    INPUTS.mkdir(exist_ok=True)
    # bench/spawn.py's helpers, one per checkout, forked while this process
    # is small, start the jobs and read their peak RSS.  A later helper holds
    # the request pipes of the earlier ones, so they are closed last first.
    sys.path.insert(0, str(ROOT / "bench"))
    import spawn

    spawners = [spawn.Spawner(spawn.child_env(root), INPUTS) for root in roots]
    try:
        files = inputs()
        result = {"schema": "wkseq-bench-scale/1", **metadata(ROOT, spawners[0], files), "rows": []}
        if args.against:
            result["against"] = {"root": os.path.relpath(roots[1], ROOT), **metadata(roots[1], spawners[1], files)}
        for name, argv, timeout in rows(files):
            row = measure(spawners, name, argv, timeout)
            result["rows"].append(row)
            other = row.get("against")
            print(f"{name:<30} exit {row['exit_code']!s:<6} wall {row['wall_s']!s:>9} s  "
                  f"peak {row['peak_rss_mb']:6.2f} MB"
                  + (f"  | against: exit {other['exit_code']!s:<6} wall {other['wall_s']!s:>9} s  "
                     f"peak {other['peak_rss_mb']:6.2f} MB" if other else ""), flush=True)
        result["layer_rows"] = []
        for name in LAYER_ROWS:
            row = measure_layer(spawners[0], name)
            result["layer_rows"].append(row)
            print(f"{row['name']:<30} in process   wall {row['wall_s']:>9} s", flush=True)
    finally:
        for spawner in reversed(spawners):
            spawner.close()
    (ROOT / "BENCH_scale.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
