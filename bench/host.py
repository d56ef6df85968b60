"""Readings of the host and of processes, all from /proc."""

from __future__ import annotations

import os
import platform
from typing import Any, Dict, List, Set, Tuple

import numpy as np

CLK_TCK = os.sysconf("SC_CLK_TCK")


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _stat_fields(pid: int) -> List[str]:
    """/proc/<pid>/stat after the command name (which may hold spaces):
    index 0 is the state, 1 the parent pid, 11 and 12 utime and stime."""
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def child_pids() -> Set[int]:
    """Pids of this process's live (non-zombie) children."""
    me = os.getpid()
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            state, ppid = _stat_fields(int(entry))[:2]
        except (OSError, ValueError, IndexError):
            continue  # raced with the process exiting
        if int(ppid) == me and state != "Z":
            out.add(int(entry))
    return out


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set of a live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU seconds of this process and of ``pids``."""
    t = os.times()
    total = t.user + t.system
    for pid in pids:
        fields = _stat_fields(pid)
        total += (int(fields[11]) + int(fields[12])) / CLK_TCK
    return total


def host_cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the host since boot, from /proc/stat."""
    with open("/proc/stat") as fh:
        values = [int(v) for v in fh.readline().split()[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values[:8])
