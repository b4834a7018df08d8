"""CPU time and peak memory of this process and every process it started.

Pool workers, the gateway and the agent are descendants of the benchmark
process, so their cost is found by walking ``/proc`` for the process
tree rooted here.  Linux only.
"""

from __future__ import annotations

import os
import resource
from pathlib import Path

PROC = Path("/proc")
_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name, or
    ``None`` for a process that has already gone."""
    try:
        raw = (PROC / str(pid) / "stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # The command name is parenthesised and may itself hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    """Every live process whose chain of parents reaches ``root``."""
    children: dict[int, list[int]] = {}
    for entry in PROC.iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry.name))
    found: list[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def process_cpu(pid: int) -> tuple[float, float, float, float]:
    """``(user, sys, reaped_user, reaped_sys)`` seconds of one process:
    its own CPU, then that of its children it has already reaped.  All
    zero once the process has gone."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0, 0.0, 0.0, 0.0
    # After the name: state(0) ppid(1) ... utime(11) stime(12)
    # cutime(13) cstime(14), in clock ticks.
    return tuple(int(v) / _TICK for v in fields[11:15])  # type: ignore[return-value]


def tree_cpu() -> dict[str, float]:
    """User and system CPU seconds of this process and of everything it
    started, split into ``self_*`` and ``children_*``.  Children are the
    live descendants plus the reaped ones, so a worker that exits
    mid-measurement still counts.

    This process is read through ``getrusage`` (microsecond resolution);
    descendants through ``/proc`` (clock-tick resolution).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {"self_user": usage.ru_utime, "self_sys": usage.ru_stime,
           "children_user": reaped.ru_utime, "children_sys": reaped.ru_stime}
    for pid in descendants(os.getpid()):
        user, sys_, reaped_user, reaped_sys = process_cpu(pid)
        # A descendant's own reaped children are themselves descendants
        # that have gone; their time is in its cutime/cstime.
        out["children_user"] += user + reaped_user
        out["children_sys"] += sys_ + reaped_sys
    return out


def cpu_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before[key] for key in before}


def peak_rss_kib(pid: int) -> int:
    """``VmHWM`` (peak resident set) of one process in KiB; 0 once gone."""
    try:
        status = (PROC / str(pid) / "status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def tree_peak_rss_kib() -> int:
    """Sum of the peak resident sets of this process and its live
    descendants."""
    me = os.getpid()
    return peak_rss_kib(me) + sum(peak_rss_kib(pid) for pid in descendants(me))
