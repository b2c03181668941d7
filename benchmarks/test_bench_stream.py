"""End-to-end streaming hot path vs the eager path at large stripe counts.

One recovery of every affected stripe in a large cluster, run twice over
the identical solution:

- **eager** — `plan_recovery` materialises every per-stripe plan, then
  `PlanExecutor.execute` runs the windowed pipeline and retains every
  rebuilt buffer in the result;
- **streaming** — `plan_recovery_streaming` yields plans lazily and
  `execute_streaming` consumes them in bounded windows with batched GF
  dispatch, handing rebuilt bytes to a sink.

Both passes are timed once (they run for seconds — statistical rounds
would add minutes for no precision) and their Python allocation peaks
are captured with ``tracemalloc`` over exactly the plan+execute phase,
so the comparison isolates what the streaming path claims to fix:
per-stripe planning overhead and O(stripes) retention.

The numbers land in the pytest-benchmark JSON artifact
(``--benchmark-json=BENCH_stream.json``) under ``extra_info`` —
stripes/sec, peak memory, peak process RSS, cross-rack bytes, and the
streaming/eager ratios — so the perf trajectory is visible PR-over-PR.
At ``--paper-scale`` (10^5+ stripes, the committed baseline) the bench
asserts the acceptance floor: >= 4x lower peak memory.
"""

from __future__ import annotations

import resource
import time
import tracemalloc

import pytest

from repro.cluster.failure import FailureInjector
from repro.experiments.configs import CFS1, build_state
from repro.recovery import (
    CarStrategy,
    PlanExecutor,
    plan_recovery,
    plan_recovery_streaming,
)

#: Tiny chunks: the bench measures coordination overhead (planning,
#: dispatch, retention), which is what dominates real runs once chunk
#: I/O streams at disk speed — GF throughput per byte is identical on
#: both paths and has its own kernel bench.
CHUNK = 64
SEED = 0
WINDOW = 256


@pytest.fixture(scope="module")
def stream_scale(request):
    """Total stripes: smoke-sized by default, 10^5+ at --paper-scale."""
    if request.config.getoption("--paper-scale"):
        return 120_000
    return 2_000


def _build(num_stripes):
    state = build_state(
        CFS1, seed=SEED, with_data=True, chunk_size=CHUNK,
        num_stripes=num_stripes, placement_policy="rack_aligned",
    )
    event = FailureInjector(rng=SEED).fail_random_node(state)
    solution = CarStrategy().solve(state)
    return state, event, solution


def _timed_peak(fn):
    """(result, elapsed_seconds, tracemalloc_peak_bytes) of one call."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def test_streaming_vs_eager_end_to_end(benchmark, stream_scale):
    state, event, solution = _build(stream_scale)
    affected = len(solution.solutions)

    def eager_pass():
        plan = plan_recovery(state, event, solution)
        return PlanExecutor(state).execute(plan, solution)

    eager, eager_s, eager_peak = _timed_peak(eager_pass)
    assert eager.verified

    ok_count = 0

    def sink(stripe_id, rebuilt, ok):
        nonlocal ok_count
        ok_count += ok

    def streaming_pass():
        plan = plan_recovery_streaming(state, event, solution)
        return PlanExecutor(state).execute_streaming(
            plan, window=WINDOW, sink=sink
        )

    streamed, stream_s, stream_peak = benchmark.pedantic(
        lambda: _timed_peak(streaming_pass), rounds=1, iterations=1
    )
    assert ok_count == affected
    assert streamed.cross_rack_bytes == eager.cross_rack_bytes
    assert streamed.intra_rack_bytes == eager.intra_rack_bytes
    assert streamed.bytes_computed_by_node == eager.bytes_computed_by_node

    speedup = eager_s / stream_s
    mem_ratio = eager_peak / stream_peak
    benchmark.extra_info.update(
        {
            "num_stripes": stream_scale,
            "affected_stripes": affected,
            "window": WINDOW,
            "chunk_size": CHUNK,
            "eager_seconds": eager_s,
            "eager_stripes_per_second": affected / eager_s,
            "eager_peak_alloc_bytes": eager_peak,
            "streaming_seconds": stream_s,
            "streaming_stripes_per_second": affected / stream_s,
            "streaming_peak_alloc_bytes": stream_peak,
            "speedup_stripes_per_second": speedup,
            "peak_memory_ratio_eager_over_streaming": mem_ratio,
            "cross_rack_bytes": eager.cross_rack_bytes,
            "intra_rack_bytes": eager.intra_rack_bytes,
            "peak_rss_kib": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss,
        }
    )
    if stream_scale >= 100_000:
        # The acceptance floor for the committed baseline.  There is no
        # speed floor: `execute` runs the same windowed pipeline, so
        # the two passes differ in planning and retention, not in the
        # executor; the O(stripes) retention is what the floor checks.
        assert mem_ratio >= 4.0, f"peak memory only {mem_ratio:.2f}x lower"
    else:
        # Smoke scale: direction must already be right, with headroom
        # left so CI timing noise cannot flake the job.
        assert speedup >= 0.8
        assert mem_ratio >= 1.5
