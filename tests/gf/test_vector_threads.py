"""GF kernels on several threads at once: scratch buffers are per thread.

The executor decodes on a worker thread while the service's repair
thread and its event loop's degraded reads call the same kernels, so a
kernel's scratch space must never be shared between threads.
"""

import sys
import threading

import numpy as np
import pytest

from repro.gf import vector
from repro.gf.field import GF8, GF16
from repro.gf.vector import dot_rows


def on_thread(fn):
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join()
    return out[0]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_scratch_buffers_do_not_alias_across_threads(dtype):
    mine = vector._scratch(dtype, 4096, slot=0)
    theirs = on_thread(lambda: vector._scratch(dtype, 4096, slot=0))
    assert not np.shares_memory(mine, theirs)
    # Within one thread the buffer is reused, not reallocated.
    assert np.shares_memory(mine, vector._scratch(dtype, 4096, slot=0))


@pytest.mark.parametrize("field", [GF8, GF16], ids=["gf8", "gf16"])
def test_concurrent_dot_rows_match_single_thread(field):
    rng = np.random.default_rng(3)
    dtype = vector.buffer_dtype(field)
    high = 1 << field.w
    jobs = []
    for i in range(24):
        size = 8192 + 512 * i
        bufs = [rng.integers(0, high, size, dtype=dtype) for _ in range(6)]
        coeffs = [int(c) for c in rng.integers(1, high, 6)]
        jobs.append((coeffs, bufs))
    expected = [dot_rows(field, c, b) for c, b in jobs]

    results: dict[int, list] = {0: [], 1: []}
    barrier = threading.Barrier(2)

    def worker(tid):
        barrier.wait()
        for _ in range(8):
            order = jobs if tid == 0 else jobs[::-1]
            results[tid].append([dot_rows(field, c, b) for c, b in order])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)

    for tid, rounds in results.items():
        for got in rounds:
            if tid == 1:
                got = got[::-1]
            for want, have in zip(expected, got):
                assert np.array_equal(want, have)
