"""Shared by the workloads: output checks, memory, statistics, XOR roofline."""

from __future__ import annotations

import math
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

MB = 1e6
KiB = 1 << 10
MiB = 1 << 20

#: Scratch space for journals, inside the directory the benchmark runs in.
WORK_ROOT = Path(".perfbench_work")


class CheckFailed(Exception):
    """An output check failed: an exact counter or invariant is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_counters(solution, strategy, cross_bytes: int, chunk: int) -> dict:
    """The paper's counters, cross-checked; returns them as exact values.

    Cross-rack bytes must equal the solution's intact racks accessed x
    chunk size, and λ (max over mean of the intact racks' traffic),
    recomputed from ``traffic_by_rack()``, the balancer's final λ.
    """
    expected = sum(len(s.intact_racks_accessed) for s in solution) * chunk
    check(cross_bytes == expected,
          f"cross-rack bytes {cross_bytes} != intact racks accessed x chunk "
          f"size = {expected}")
    traffic = solution.traffic_by_rack()
    intact = [t for i, t in enumerate(traffic) if i != solution.failed_rack]
    lam = max(intact) / (sum(intact) / len(intact))
    check(lam == strategy.last_trace.final_lambda,
          f"lambda {lam} from traffic_by_rack() != balancer's "
          f"{strategy.last_trace.final_lambda}")
    return {"cross": cross_bytes, "lambda": lam,
            "moves": strategy.last_trace.substitutions}


def _status_kib(key: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key):
                return int(line.split()[1])
    raise CheckFailed(f"/proc/self/status has no {key}")


def reset_peak_rss() -> float:
    """Reset the kernel's peak-RSS mark (VmHWM); return current RSS in MB."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")
    return _status_kib("VmRSS") * 1024 / MB


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss`, in MB."""
    return _status_kib("VmHWM") * 1024 / MB


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of a non-empty sample."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


def xor_roofline_mbps(k: int, chunk_bytes: int, seconds: float = 0.3) -> float:
    """numpy XOR bandwidth on the decode's own shape, in MB/s of input.

    Folding ``k`` chunk-sized buffers into one with ``np.bitwise_xor`` is
    a decode whose coefficients are all 1: the floor under any GF kernel
    that reads the same ``k`` helpers.  The buffers cycle through a
    64 MiB pool, as helper chunks come from a large store.  Median of
    repeated passes over the pool.
    """
    rng = np.random.default_rng(0)
    count = max(2 * k, (64 * MiB) // chunk_bytes)
    pool = [rng.integers(0, 256, chunk_bytes, dtype=np.uint8)
            for _ in range(count)]
    acc = np.empty(chunk_bytes, dtype=np.uint8)
    groups = count // k
    rates = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(rates) < 3:
        t0 = perf_counter()
        for g in range(groups):
            bufs = pool[g * k:(g + 1) * k]
            np.copyto(acc, bufs[0])
            for b in bufs[1:]:
                np.bitwise_xor(acc, b, out=acc)
        rates.append(groups * k * chunk_bytes / (perf_counter() - t0) / MB)
    return median(rates)


def fresh_dir(name: str) -> Path:
    path = WORK_ROOT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_root() -> None:
    shutil.rmtree(WORK_ROOT, ignore_errors=True)
