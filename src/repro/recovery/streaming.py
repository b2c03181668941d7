"""Windowed, batched stripe computation for the recovery executor.

This module is the compute half of
:meth:`~repro.recovery.executor.PlanExecutor.execute_streaming`:

- :func:`windows` slices a lazy ``(solution, stripe_plan)`` iterator
  into bounded windows, so coordinator memory is O(window) regardless of
  stripe count;
- :func:`compute_window` performs every GF decode of a window in one
  pass, **batched by repair signature**: stripes whose repairs use the
  same lost index, helper set, and rack grouping share one repair
  vector, so their chunk buffers are concatenated and each per-rack
  partial decode (Equation 7) becomes a single multi-stripe
  :func:`~repro.gf.vector.dot_rows` kernel call.  GF table lookups are
  elementwise, so the concatenated result sliced per stripe is
  byte-identical to per-stripe calls;
- the per-signature :class:`~repro.erasure.repair.PartialDecodePlan` is
  memoised in the named :data:`REPAIR_GROUP_CACHE`, whose hit/miss rates
  surface through the :mod:`repro.obs` metrics registry (the hit rate is
  exactly the batching opportunity the grouping exploits);
- :func:`computed_windows` runs :func:`compute_window` over every window
  in order — inline, one window ahead on a worker thread, or fanned over
  a process pool with chunk data mapped zero-copy through
  :mod:`repro.io_shm` instead of pickled per task.

Everything here is *pure computation* over read-only state: no tracer,
metrics, journal, or data-store mutation.  That is a hard requirement —
the executor ships, verifies and journals the computed windows on its
own thread, in submission order, while the next windows compute on a
thread or in worker processes.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.cache import BoundedCache
from repro.erasure.repair import PartialDecodePlan, split_repair_vector
from repro.gf.field import gf
from repro.gf.vector import dot_rows
from repro.recovery.planner import StripePlan
from repro.recovery.solution import PerStripeSolution

__all__ = [
    "REPAIR_GROUP_CACHE",
    "StripeOutcome",
    "repair_signature",
    "windows",
    "compute_window",
    "computed_windows",
]

#: Memoised per-signature repair decompositions.  Named, so the cache
#: self-registers with the metrics registry: its hit rate quantifies how
#: often stripes share a repair vector (the batching payoff) and shows
#: up in ``repro-car metrics`` next to the GF table caches.
REPAIR_GROUP_CACHE = BoundedCache(4096, name="exec.repair_groups")


@dataclass
class StripeOutcome:
    """Everything the ship step needs about one computed stripe.

    The stripe's solution and plan stay with the caller's window (an
    outcome is returned in the window's order), so a worker process
    sends back only what it computed.

    Attributes:
        rebuilt: the reconstructed chunk (owned copy, not a batch view).
        ok: byte-exact match against ground truth.
        groups: the repair decomposition's per-rack groups in ship
            order — the failed rack's local fold first, then intact
            racks by key (aggregated mode; empty for direct repair).
        partials: rack key -> partially decoded buffer.  Only populated
            when the executor ships them through its observers
            (telemetry, journal, integrity verification, fault hooks).
    """

    rebuilt: np.ndarray
    ok: bool
    groups: tuple = ()
    partials: dict | None = None


def repair_signature(sol: PerStripeSolution, aggregated: bool):
    """The key under which stripes share a repair vector.

    Two stripes with equal signatures repair with identical coefficient
    rows and identical rack grouping, so their decodes batch into one
    kernel call per rack.
    """
    if aggregated:
        return (
            sol.lost_chunk,
            sol.helpers,
            tuple(sorted(sol.rack_map().items())),
            sol.failed_rack,
        )
    return (sol.lost_chunk, sol.helpers)


def windows(pairs, window: int):
    """Slice an iterator of ``(sol, sp)`` pairs into lists of ``window``."""
    pairs = iter(pairs)
    while True:
        chunk = list(islice(pairs, window))
        if not chunk:
            return
        yield chunk


def _decode_plan(code, sol: PerStripeSolution) -> PartialDecodePlan:
    """The stripe's per-rack repair decomposition, memoised by signature.

    Keyed by the repair vector itself (from the code's own cache), so
    two codes with equal parameters but different generators never
    share an entry.
    """
    y = tuple(code.repair_vector(sol.lost_chunk, list(sol.helpers)))
    return REPAIR_GROUP_CACHE.get_or_build(
        (y, repair_signature(sol, True)),
        lambda: split_repair_vector(
            code, sol.lost_chunk, sol.helpers, sol.rack_map()
        ),
    )


def _ok_flags(data, members, rebuilt_cat: np.ndarray, size: int) -> list[bool]:
    """Per-stripe ground-truth verdicts for one batched group.

    The common case — everything reconstructs — is one comparison over
    the concatenated buffers; only a mismatching group falls back to
    per-stripe comparisons.
    """
    truth = [
        data.chunk(sol.stripe_id, sol.lost_chunk) for sol, _ in members
    ]
    if np.array_equal(rebuilt_cat, np.concatenate(truth) if len(truth) > 1 else truth[0]):
        return [True] * len(members)
    return [
        bool(np.array_equal(truth[i], rebuilt_cat[i * size : (i + 1) * size]))
        for i in range(len(members))
    ]


def _compute_group_aggregated(
    code, field, data, members, keep_partials: bool
) -> list[StripeOutcome]:
    """Batched aggregated decode of stripes sharing one signature."""
    sol0 = members[0][0]
    plan = _decode_plan(code, sol0)
    groups = tuple(
        sorted(
            plan.groups,
            key=lambda g: (g.group_key != sol0.failed_rack, g.group_key),
        )
    )
    size = data.chunk(sol0.stripe_id, plan.groups[0].helper_indices[0]).shape[0]
    many = len(members) > 1
    partials_cat: dict = {}
    rebuilt_cat: np.ndarray | None = None
    for group in plan.groups:
        bufs = [
            np.concatenate(
                [data.chunk(sol.stripe_id, h) for sol, _ in members]
            )
            if many
            else data.chunk(members[0][0].stripe_id, h)
            for h in group.helper_indices
        ]
        partial = dot_rows(field, list(group.coefficients), bufs)
        partials_cat[group.group_key] = partial
        if rebuilt_cat is None:
            rebuilt_cat = partial.copy()
        else:
            np.bitwise_xor(rebuilt_cat, partial, out=rebuilt_cat)
    oks = _ok_flags(data, members, rebuilt_cat, size)
    out = []
    for i in range(len(members)):
        lo, hi = i * size, (i + 1) * size
        out.append(
            StripeOutcome(
                rebuilt=rebuilt_cat[lo:hi].copy(),
                ok=oks[i],
                groups=groups,
                partials=(
                    {k: v[lo:hi] for k, v in partials_cat.items()}
                    if keep_partials
                    else None
                ),
            )
        )
    return out


def _compute_group_direct(code, field, data, members) -> list[StripeOutcome]:
    """Batched direct (RR) reconstruction of same-signature stripes.

    :meth:`RSCode.reconstruct` is ``dot_rows`` over the sorted helper
    set's repair vector; batching concatenates the helper buffers across
    stripes and issues that single combination once.
    """
    sol0 = members[0][0]
    helpers = sol0.helpers  # already sorted
    y = code.repair_vector(sol0.lost_chunk, list(helpers))
    many = len(members) > 1
    bufs = [
        np.concatenate([data.chunk(sol.stripe_id, h) for sol, _ in members])
        if many
        else data.chunk(sol0.stripe_id, h)
        for h in helpers
    ]
    rebuilt_cat = dot_rows(field, y, bufs)
    size = rebuilt_cat.shape[0] // len(members)
    oks = _ok_flags(data, members, rebuilt_cat, size)
    return [
        StripeOutcome(
            rebuilt=rebuilt_cat[i * size : (i + 1) * size].copy(), ok=oks[i]
        )
        for i in range(len(members))
    ]


def compute_window(
    code,
    data,
    pairs: list[tuple[PerStripeSolution, StripePlan]],
    aggregated: bool,
    *,
    batch: bool = True,
    keep_partials: bool = False,
) -> tuple[list[StripeOutcome], float, float]:
    """Decode every stripe of one window, batched by signature.

    Returns the outcomes **in input order** plus the computation's
    wall-clock start/end (the executor emits them as a pipeline span —
    this function itself must stay telemetry-free, see the module
    docstring).
    """
    start = time.perf_counter()
    field = gf(code.w)
    by_sig: dict = {}
    for i, pair in enumerate(pairs):
        sig = repair_signature(pair[0], aggregated) if batch else i
        by_sig.setdefault(sig, []).append((i, pair))
    outcomes: list[StripeOutcome | None] = [None] * len(pairs)
    for entries in by_sig.values():
        members = [pair for _, pair in entries]
        if aggregated:
            computed = _compute_group_aggregated(
                code, field, data, members, keep_partials
            )
        else:
            computed = _compute_group_direct(code, field, data, members)
        for (i, _), outcome in zip(entries, computed):
            outcomes[i] = outcome
    return outcomes, start, time.perf_counter()


def computed_windows(
    code,
    data,
    pairs,
    window: int,
    aggregated: bool,
    *,
    batch: bool = True,
    keep_partials: bool = False,
    overlap: bool = False,
    workers: int | None = None,
    shm: bool | None = None,
):
    """Yield ``(window_pairs, computed)`` for every window, in order.

    ``computed`` is :func:`compute_window`'s result — directly when it
    ran inline, or a future of it when it runs ahead of the consumer:
    on one worker thread (``overlap=True``) or on ``workers > 1``
    processes.  Close the generator to stop early; it then shuts its
    pool down and releases any shared memory.
    """
    wins = windows(pairs, window)
    kwargs = {
        "aggregated": aggregated, "batch": batch,
        "keep_partials": keep_partials,
    }
    if workers is not None and workers > 1:
        yield from _process_windows(code, data, wins, workers, shm, kwargs)
    elif overlap:
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            for win in wins:
                yield win, pool.submit(
                    compute_window, code, data, win, **kwargs
                )
        finally:
            pool.shutdown(wait=True)
    else:
        for win in wins:
            yield win, compute_window(code, data, win, **kwargs)


# -- multi-process execution ------------------------------------------------

#: Per-worker context installed by the pool initializer: (code, data
#: store, compute_window arguments, shared store to close on exit).
#: Module-global because ProcessPoolExecutor initializers cannot return
#: values.
_WORKER: dict | None = None


def _init_worker(payload: bytes) -> None:
    from repro.io_shm import SharedChunkStore

    global _WORKER
    ctx = pickle.loads(payload)
    if ctx["handle"] is not None:
        ctx["shared"] = SharedChunkStore.attach(ctx["handle"])
        ctx["data"] = ctx["shared"].store()
    _WORKER = ctx


def _compute_task(pairs: list) -> tuple[list[StripeOutcome], float, float]:
    ctx = _WORKER
    return compute_window(ctx["code"], ctx["data"], pairs, **ctx["kwargs"])


def _process_windows(code, data, wins, workers: int, shm, kwargs):
    """Compute windows on a process pool, ``workers`` windows ahead.

    The chunk store crosses the process boundary exactly once — as a
    shared-memory mapping by default (``shm=None``/``True``), or pickled
    into the initializer when ``shm=False`` — never per task.
    """
    from repro.io_shm import SharedChunkStore

    use_shm = shm is None or shm
    shared = SharedChunkStore.from_datastore(data) if use_shm else None
    payload = pickle.dumps(
        {
            "code": code,
            "handle": shared.handle if shared is not None else None,
            "data": None if shared is not None else data,
            "kwargs": kwargs,
        }
    )
    try:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(payload,)
        ) as pool:
            queue: deque = deque()
            try:
                for win in wins:
                    queue.append((win, pool.submit(_compute_task, win)))
                    if len(queue) > workers:
                        yield queue.popleft()
                while queue:
                    yield queue.popleft()
            finally:
                for _, future in queue:
                    future.cancel()
    finally:
        if shared is not None:
            shared.close()
