"""Run one `python -m wkseq` command as a child process and measure it.

The child is started with posix_spawn and waited for through a pidfd, so a
timeout needs no helper thread, and reaped with os.wait4 for its peak RSS.
Linux counts the address space a child had before exec, which is its
parent's, into that peak; so jobs are started by a `Spawner`, a helper
forked before the benchmark loads anything large.
"""
from __future__ import annotations

import json
import os
import select
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class JobRun:
    """What one job did: exit code, wall time, peak RSS and its output."""

    exit_code: int | None
    wall_s: float
    cpu_s: float | None
    maxrss_mb: float | None
    timed_out: bool
    stdout: str
    stderr: str


def child_env(root: Path) -> dict[str, str]:
    """Environment for children: the checkout's own `src` first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
    return env


def _measure(argv: list[str], env: dict[str, str], scratch: Path, timeout_s: float) -> dict:
    """Run `python <argv>` with stdout and stderr sent to files in `scratch`.

    On timeout the child is killed and reaped; `exit_code` is then None.
    """
    with open(scratch / "job.out", "wb") as out, open(scratch / "job.err", "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout_s)
            timed_out = not ready
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    return {
        "exit_code": None if timed_out else os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024,  # Linux reports kilobytes
        "timed_out": timed_out,
    }


class Spawner:
    """A forked helper that runs jobs on request, one at a time.

    Requests and replies are JSON lines over two pipes; a job's output
    stays in the files under `scratch`, which the caller reads.
    """

    def __init__(self, env: dict[str, str], scratch: Path):
        self.scratch = scratch
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(req_w)
            os.close(rep_r)
            code = 1
            try:
                with open(req_r) as requests, open(rep_w, "w") as replies:
                    for line in requests:
                        req = json.loads(line)
                        replies.write(json.dumps(_measure(req["argv"], env, scratch, req["timeout_s"])) + "\n")
                        replies.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self._requests = open(req_w, "w")
        self._replies = open(rep_r)

    def run(self, argv: list[str], timeout_s: float) -> JobRun:
        """Run `python <argv>` in a child of the helper and measure it."""
        self._requests.write(json.dumps({"argv": argv, "timeout_s": timeout_s}) + "\n")
        self._requests.flush()
        line = self._replies.readline()
        if not line:
            raise RuntimeError("the job spawner exited")
        return JobRun(
            **json.loads(line),
            stdout=(self.scratch / "job.out").read_text(encoding="utf-8", errors="replace"),
            stderr=(self.scratch / "job.err").read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        """End the helper and wait for it."""
        self._requests.close()
        self._replies.close()
        os.waitpid(self.pid, 0)
