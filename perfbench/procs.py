"""Process bookkeeping from /proc: every process a benchmark run starts
(its child, Ray's GCS, raylet and workers) inherits the environment
variable ``MARK_VAR``, so a run can find, measure and stop exactly its
own processes and nothing else on the host."""

from __future__ import annotations

import os
import signal
import time

MARK_VAR = "PERFBENCH_MARK"
_TICK = os.sysconf("SC_CLK_TCK")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:  # the process ended while we looked
        return b""


def marked_pids(mark: str) -> list[int]:
    """Live processes whose environment carries ``MARK_VAR=mark``."""
    needle = f"{MARK_VAR}={mark}".encode()
    me = os.getpid()
    out = []
    for d in os.listdir("/proc"):
        if d.isdigit() and int(d) != me:
            if needle in _read(f"/proc/{d}/environ").split(b"\0"):
                out.append(int(d))
    return out


def is_ray_worker(pid: int) -> bool:
    cmd = _read(f"/proc/{pid}/cmdline")
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def hwm_mb(pids) -> float:
    """Sum of peak resident set sizes (``VmHWM``) in MiB."""
    kb = 0
    for pid in pids:
        for line in _read(f"/proc/{pid}/status").splitlines():
            if line.startswith(b"VmHWM:"):
                kb += int(line.split()[1])
    return kb / 1024


def run_rss_mb(mark: str, driver: int, workers: int) -> float:
    """Peak RSS of a run: the driver plus its ``workers`` largest Ray worker
    processes. Workers Ray starts beyond one per logical CPU come and go
    with its idle-worker reaping, so counting them would only add noise."""
    sizes = sorted((hwm_mb([p]) for p in marked_pids(mark) if is_ray_worker(p)), reverse=True)
    return hwm_mb([driver]) + sum(sizes[:workers])


def cpu_s(pids) -> float:
    """User plus system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        stat = _read(f"/proc/{pid}/stat")
        if stat:
            fields = stat.rsplit(b")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    return total / _TICK


def kill_marked(mark: str, timeout: float = 20.0) -> int:
    """SIGKILL every process carrying ``mark`` and wait until all are gone
    (or reaped zombies). Returns how many were signalled."""
    pids = marked_pids(mark)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = [p for p in marked_pids(mark) if not _zombie(p)]
        if not alive:
            break
        time.sleep(0.1)
    return len(pids)


def _zombie(pid: int) -> bool:
    stat = _read(f"/proc/{pid}/stat")
    return not stat or stat.rsplit(b")", 1)[1].split()[0] == b"Z"
