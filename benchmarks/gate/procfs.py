"""``/proc`` readings shared by the benchmark's driver and children."""

from __future__ import annotations


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def cpu_ticks() -> list[int]:
    """The machine's CPU time counters from ``/proc/stat``: user, nice,
    system, idle, iowait, irq, softirq, steal, in clock ticks."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return [int(value) for value in fields[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time between two ``cpu_ticks`` readings that the
    hypervisor gave to other guests (0 on bare metal)."""
    spent = [late - early for early, late in zip(before, after)]
    return spent[7] / sum(spent) if sum(spent) else 0.0
