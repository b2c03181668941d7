"""Executes recovery plans on real chunk bytes and verifies the result.

This is the end-to-end correctness check of the whole pipeline: the
selector picks racks, the planner schedules flows, and the executor
performs the actual GF(2^w) arithmetic — rack delegates compute partial
decodes (Equation 7), the replacement node combines them — and compares
every reconstructed chunk byte-for-byte against the
:class:`~repro.cluster.state.DataStore` ground truth.

It also returns the per-node compute and per-scope transfer byte
counters that the timing model (:mod:`repro.sim`) consumes.

There is one execution path.  Stripes are consumed in windows; each
window is decoded in one batched pass (:mod:`repro.recovery.streaming`,
inline, on a worker thread, or in worker processes) and then *shipped*
stripe by stripe on the executor's thread, in plan order.  Shipping a
stripe is :meth:`PlanExecutor._ship_stripe`, the one place its traffic
and compute are accounted.  The per-stripe delta it returns is merged
into the :class:`ExecutionResult` only after the stripe's
``FINAL_COMBINE``, is the stripe's journal commit, and — when a fault
aborts the stripe half-way — is the traffic the robust executor books
as wasted.  Eager :meth:`~PlanExecutor.execute`, streaming, worker,
fault-tolerant and durable runs are configurations of that path.

While a stripe ships, the executor walks the named *pipeline stages*
(:class:`PipelineStage`) through its observers: the
:meth:`PlanExecutor._checkpoint` hook (trace events, stage counters,
journal stage records; the fault layer, :mod:`repro.faults`, extends it
to crash helpers, stall disks, or drop flows at exactly that point) and
:meth:`PlanExecutor._deliver` for every transferred buffer.  The cascade
runs exactly when something is attached — a tracer, a metrics registry,
a journal, ``verify_integrity=True``, or the robust executor's fault
hooks; with nothing attached a stripe is only accounted.

- ``verify_integrity=True`` routes every transferred buffer — raw
  helper chunks and partially decoded aggregates alike — through
  :meth:`PlanExecutor._deliver`: checksummed at creation, passed
  through the :meth:`_transmit` hook (where the fault layer can corrupt
  bytes in flight), and verified on receipt.  A mismatch invokes
  :meth:`_on_corrupt` — here a hard :class:`IntegrityError`, in the
  robust executor a retransmit ladder.  Every shipped payload is
  verified before its stripe commits, and a stripe whose delivery
  escalates is never committed.
- ``journal=`` makes execution crash-resumable: a
  :class:`~repro.durable.journal.RecoveryJournal` receives an intent
  record for every stripe of a window before the previous window
  ships, stage records as cross-rack payloads ship and decodes land,
  and a commit record (with the rebuilt bytes and the stripe's
  traffic/compute delta) once the stripe verifies.  The record
  sequence is the same for every window source and worker count.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import Future
from contextlib import closing, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.state import ClusterState
from repro.durable.checksum import chunk_checksum
from repro.errors import IntegrityError, PlanError
from repro.obs import metrics as _metrics
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.recovery import streaming as _streaming
from repro.recovery.planner import RecoveryPlan, StreamingRecoveryPlan
from repro.recovery.solution import MultiStripeSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durable.journal import RecoveryJournal
    from repro.obs.profile import ResourceSampler
    from repro.obs.progress import ProgressReporter

__all__ = ["PipelineStage", "ExecutionResult", "StripeDelta", "PlanExecutor"]


class PipelineStage(str, enum.Enum):
    """Named points of the per-stripe recovery pipeline.

    These are the stages a fault can be injected at.  Order within one
    stripe: every helper chunk is read (``DISK_READ``), raw chunks move
    to their delegate or the replacement node (``INTRA_TRANSFER`` /
    ``CROSS_TRANSFER``), each rack delegate partially decodes
    (``PARTIAL_DECODE``) and ships the partial across the core
    (``CROSS_TRANSFER`` with a partial payload), the replacement node
    folds the failed rack's survivors (``LOCAL_FOLD``) and combines
    everything (``FINAL_COMBINE``).
    """

    DISK_READ = "disk_read"
    INTRA_TRANSFER = "intra_transfer"
    CROSS_TRANSFER = "cross_transfer"
    PARTIAL_DECODE = "partial_decode"
    LOCAL_FOLD = "local_fold"
    FINAL_COMBINE = "final_combine"


#: Stages worth a write-ahead journal record: the expensive, externally
#: visible transitions (a payload crossed the core, a delegate decoded,
#: the replacement combined).  Disk reads and intra-rack moves are cheap
#: to redo on resume and would triple the journal for no recovery value.
_JOURNALED_STAGES = frozenset(
    {
        PipelineStage.CROSS_TRANSFER,
        PipelineStage.PARTIAL_DECODE,
        PipelineStage.FINAL_COMBINE,
    }
)

_NULL_CONTEXT = nullcontext()


@dataclass
class StripeDelta:
    """One stripe's traffic and compute, as its ship step accounted it."""

    cross_rack_bytes: int = 0
    intra_rack_bytes: int = 0
    bytes_computed_by_node: dict[int, int] = field(default_factory=dict)


@dataclass
class ExecutionResult:
    """Outcome of executing a recovery plan on real data.

    Attributes:
        reconstructed: stripe_id -> rebuilt chunk buffer.
        per_stripe_ok: stripe_id -> byte-exact match against ground truth.
        bytes_computed_by_node: node -> GF input bytes processed (the
            quantity the computation-time model charges).
        cross_rack_bytes / intra_rack_bytes: transfer volume by scope.
    """

    reconstructed: dict[int, np.ndarray] = field(default_factory=dict)
    per_stripe_ok: dict[int, bool] = field(default_factory=dict)
    bytes_computed_by_node: dict[int, int] = field(default_factory=dict)
    cross_rack_bytes: int = 0
    intra_rack_bytes: int = 0

    @property
    def verified(self) -> bool:
        """True iff every stripe reconstructed byte-exactly."""
        return bool(self.per_stripe_ok) and all(self.per_stripe_ok.values())

    @property
    def total_compute_bytes(self) -> int:
        """Total GF input bytes across all nodes."""
        return sum(self.bytes_computed_by_node.values())

    def add(self, delta: StripeDelta) -> None:
        """Fold one stripe's traffic and compute into the totals."""
        self.cross_rack_bytes += delta.cross_rack_bytes
        self.intra_rack_bytes += delta.intra_rack_bytes
        charge = self.bytes_computed_by_node
        for node, nbytes in delta.bytes_computed_by_node.items():
            charge[node] = charge.get(node, 0) + nbytes


@dataclass
class _Run:
    """What one call accumulates across the windows (and robust rounds)
    it ships: the result, where rebuilt chunks go, and progress."""

    result: ExecutionResult
    sink: object = None
    progress: "ProgressReporter | None" = None
    windows_done: int = 0
    intents: int = 0

    def report(self, journaled: bool, final: bool = False) -> None:
        """One rate-limited heartbeat from the current result totals.

        Journal lag is the crash-exposure window: intents written whose
        commits have not landed yet.
        """
        if self.progress is None:
            return
        done = len(self.result.per_stripe_ok)
        update = self.progress.finish if final else self.progress.update
        update(
            done,
            windows_done=self.windows_done,
            cross_rack_bytes=self.result.cross_rack_bytes,
            intra_rack_bytes=self.result.intra_rack_bytes,
            journal_lag=max(0, self.intents - done) if journaled else 0,
        )


class PlanExecutor:
    """Runs a :class:`RecoveryPlan` against a cluster's stored bytes."""

    def __init__(
        self,
        state: ClusterState,
        tracer: Tracer | NullTracer | None = None,
        *,
        journal: "RecoveryJournal | None" = None,
        verify_integrity: bool = False,
        profiler: "ResourceSampler | None" = None,
    ) -> None:
        if state.data is None:
            raise PlanError("executing a plan requires a DataStore")
        self.state = state
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.journal = journal
        self.verify_integrity = verify_integrity
        # Optional background resource sampler bracketing each call.
        # One ``is None`` check per call; stripes never see it.
        self.profiler = profiler
        # The delta of the stripe being shipped.  After a fault escapes
        # the ship step it holds exactly the traffic the aborted stripe
        # consumed (the robust executor charges it as wasted).
        self._in_flight = StripeDelta()

    def execute(
        self, plan: RecoveryPlan, solution: MultiStripeSolution
    ) -> ExecutionResult:
        """Execute and verify every stripe of the plan.

        The windowed pipeline with no decode/ship overlap, every rebuilt
        chunk collected in the result.

        Args:
            plan: the transfer/compute schedule.
            solution: the solution the plan was built from (supplies the
                helper grouping for the repair-vector split).
        """
        return self.execute_streaming(plan, solution, pipelined=False)

    def execute_streaming(
        self,
        plan: RecoveryPlan | StreamingRecoveryPlan,
        solution: MultiStripeSolution | None = None,
        *,
        window: int = 64,
        batch: bool = True,
        pipelined: bool = True,
        workers: int | None = None,
        shm: bool | None = None,
        sink=None,
        progress: "ProgressReporter | None" = None,
    ) -> ExecutionResult:
        """Execute a plan in bounded-memory stripe windows.

        - stripes are consumed ``window`` at a time from a lazy
          iterator, so coordinator memory is O(window) rather than
          O(stripes) (pair with a
          :class:`~repro.recovery.planner.StreamingRecoveryPlan` and a
          ``sink`` to keep even million-stripe runs flat);
        - each window's GF decodes are batched by repair signature
          (one kernel call per shared repair vector, see
          :mod:`repro.recovery.streaming`);
        - with ``pipelined=True`` the next window's decodes run on a
          worker thread while this thread ships the previous window;
          with ``workers > 1`` they run on that many processes.  Either
          way this thread ships, verifies, and journals every stripe in
          plan order, so the result and the journal's record sequence do
          not depend on where the decodes ran.  The decode/ship split is
          recorded as ``exec.stream.aggregate`` / ``exec.stream.ship``
          spans when tracing is on.  Because the metrics registry is not
          thread-safe, an active registry disables the thread overlap.

        Every shipped payload passes the executor's observers (see the
        module docstring): with ``verify_integrity`` each is verified
        before its stripe commits, and a stripe whose delivery escalates
        is never committed.

        Args:
            plan: an eager :class:`RecoveryPlan` (pass its
                ``solution``) or a lazy :class:`StreamingRecoveryPlan`
                (pass ``solution=None``).
            window: stripes decoded per batch (the memory bound).
            batch: group same-signature stripes into one kernel call.
            pipelined: overlap decode and shipping across windows.
            workers: decode windows on this many *processes* (chunk
                data is shared zero-copy via :mod:`repro.io_shm` unless
                ``shm=False``).
            shm: force shared-memory (True) or pickled (False) chunk
                transport for ``workers > 1``; None picks shared memory.
            sink: optional ``sink(stripe_id, rebuilt, ok)`` callback.
                When given, rebuilt chunks are handed off instead of
                accumulated in ``result.reconstructed`` — the O(stripes)
                retention a collecting run cannot avoid.
            progress: optional
                :class:`~repro.obs.progress.ProgressReporter`, updated
                once per shipped window (stripes done, windows, traffic,
                journal lag) and finished when the run completes.

        Raises:
            PlanError: bad window, or plan/solution mismatch.
        """
        run = _Run(ExecutionResult(), sink=sink, progress=progress)
        with self._profiling():
            self._pipeline(
                run, plan, solution, window=window, batch=batch,
                pipelined=pipelined, workers=workers, shm=shm,
            )
        run.report(self.journal is not None, final=True)
        return run.result

    def _profiling(self):
        """The resource sampler bracketing one call, if any."""
        return self.profiler if self.profiler is not None else _NULL_CONTEXT

    def _stream_pairs(
        self,
        plan: RecoveryPlan | StreamingRecoveryPlan,
        solution: MultiStripeSolution | None,
    ):
        """Normalise either plan form into a lazy (sol, sp) iterator."""
        if isinstance(plan, StreamingRecoveryPlan):
            if solution is not None:
                raise PlanError(
                    "a streaming plan carries its own solutions; "
                    "pass solution=None"
                )
            return plan.iter_stripe_plans()
        if solution is None:
            raise PlanError(
                "execute_streaming over an eager RecoveryPlan needs the "
                "MultiStripeSolution it was built from"
            )
        by_id = {sp.stripe_id: sp for sp in plan.stripe_plans}

        def gen():
            for sol in solution.solutions:
                sp = by_id.get(sol.stripe_id)
                if sp is None:
                    raise PlanError(
                        f"no stripe plan for stripe {sol.stripe_id}"
                    )
                yield sol, sp

        return gen()

    def _observed(self) -> bool:
        """Whether anything watches the ship step's pipeline stages."""
        return (
            self.tracer.enabled
            or _metrics.CURRENT is not None
            or self.journal is not None
            or self.verify_integrity
        )

    def _pipeline(
        self,
        run: _Run,
        plan: RecoveryPlan | StreamingRecoveryPlan,
        solution: MultiStripeSolution | None,
        *,
        window: int = 64,
        batch: bool = True,
        pipelined: bool = True,
        workers: int | None = None,
        shm: bool | None = None,
    ) -> None:
        """Decode the plan window by window and ship it into ``run``.

        The intents of window *i* are journalled before window *i-1*
        ships, whichever source computed them.  A fault escaping a ship
        step leaves ``run`` holding every stripe committed before it.
        """
        if window < 1:
            raise PlanError(f"window must be >= 1, got {window}")
        pairs = self._stream_pairs(plan, solution)
        aggregated, repl = plan.aggregated, plan.replacement_node
        observed = self._observed()
        source = _streaming.computed_windows(
            self.state.code, self.state.data, pairs, window, aggregated,
            batch=batch, keep_partials=observed,
            overlap=pipelined and _metrics.CURRENT is None,
            workers=workers, shm=shm,
        )
        with closing(source):
            pending = None
            for idx, (win, computed) in enumerate(source):
                if self.journal is not None:
                    for sol, _sp in win:
                        self.journal.stripe_intent(
                            sol.stripe_id,
                            aggregated=aggregated,
                            lost_chunk=sol.lost_chunk,
                        )
                    run.intents += len(win)
                if pending is not None:
                    self._ship_window(
                        run, *pending, aggregated, repl, observed
                    )
                    run.report(self.journal is not None)
                pending = (idx, win, computed)
            if pending is not None:
                self._ship_window(run, *pending, aggregated, repl, observed)

    def _ship_window(
        self, run: _Run, idx, win, computed, aggregated, repl, observed
    ) -> None:
        """Ship and commit one computed window, stripe by stripe."""
        if isinstance(computed, Future):
            computed = computed.result()
        outcomes, a0, a1 = computed
        result = run.result
        b0 = time.perf_counter()
        before_cross = result.cross_rack_bytes
        before_intra = result.intra_rack_bytes
        mode = "aggregated" if aggregated else "direct"
        for (sol, sp), outcome in zip(win, outcomes):
            sid = sol.stripe_id
            span = (
                self.tracer.span("exec.stripe", stripe_id=sid,
                                 aggregated=aggregated)
                if observed
                else _NULL_CONTEXT
            )
            with span:
                delta = self._ship_stripe(
                    sol, sp, outcome, aggregated, repl, observed
                )
                result.add(delta)
                if run.sink is not None:
                    run.sink(sid, outcome.rebuilt, outcome.ok)
                else:
                    result.reconstructed[sid] = outcome.rebuilt
                result.per_stripe_ok[sid] = outcome.ok
            if not observed:
                continue
            reg = _metrics.CURRENT
            if reg is not None:
                reg.counter("exec.stripes").inc(mode=mode)
            if self.journal is not None:
                self.journal.stripe_commit(
                    sid,
                    outcome.rebuilt,
                    lost_chunk=sol.lost_chunk,
                    ok=outcome.ok,
                    cross_rack_bytes=delta.cross_rack_bytes,
                    intra_rack_bytes=delta.intra_rack_bytes,
                    bytes_computed_by_node=delta.bytes_computed_by_node,
                )
        run.windows_done += 1
        if self.tracer.enabled:
            n = len(outcomes)
            self.tracer.emit_span(
                "exec.stream.aggregate", a0, a1, window=idx, stripes=n
            )
            self.tracer.emit_span(
                "exec.stream.ship", b0, time.perf_counter(), window=idx,
                stripes=n,
                cross_rack_bytes=result.cross_rack_bytes - before_cross,
                intra_rack_bytes=result.intra_rack_bytes - before_intra,
            )

    def _ship_stripe(
        self, sol, sp, outcome, aggregated: bool, repl: int, observed: bool
    ) -> StripeDelta:
        """Ship one computed stripe and account its traffic and compute.

        The only place a stripe's traffic/compute is counted.  Each
        transfer is counted once its delivery returns; with ``observed``
        the stage cascade — disk reads, raw deliveries, partial decodes
        and their deliveries, the local fold, the final combine — fires
        first, in pipeline order.  A hook that raises aborts the stripe
        with :attr:`_in_flight` holding the traffic consumed so far.
        """
        sid = sol.stripe_id
        size = self.state.data.chunk_size
        rack_of = self.state.topology.rack_of
        delta = self._in_flight = StripeDelta()
        if observed:
            for c in sol.helpers:
                node = self.state.placement.node_of(sid, c)
                self._checkpoint(
                    PipelineStage.DISK_READ,
                    stripe_id=sid, node=node, rack=rack_of(node), chunk=c,
                )
        # Raw chunk transfers; partial payloads ship with their decode.
        partial_from = {}
        for t in sp.transfers:
            if t.chunk_index is None:
                partial_from[t.src_node] = t
                continue
            if observed:
                self._deliver(
                    PipelineStage.CROSS_TRANSFER
                    if t.cross_rack
                    else PipelineStage.INTRA_TRANSFER,
                    self.state.data.chunk(sid, t.chunk_index),
                    stripe_id=sid,
                    node=t.src_node,
                    rack=t.src_rack,
                    chunk=t.chunk_index,
                )
            if t.cross_rack:
                delta.cross_rack_bytes += size
            else:
                delta.intra_rack_bytes += size
        charge = delta.bytes_computed_by_node
        if aggregated:
            # Each rack's partial decode is charged to its delegate (or
            # to the replacement node for the failed rack's local fold),
            # the final XOR of the partials to the replacement node.
            for group in outcome.groups:
                if group.group_key == sol.failed_rack:
                    node = repl
                    if observed:
                        self._checkpoint(
                            PipelineStage.LOCAL_FOLD,
                            stripe_id=sid, node=node, rack=rack_of(node),
                        )
                else:
                    node = sp.delegates[group.group_key]
                    xfer = partial_from.get(node)
                    if xfer is None:
                        raise PlanError(
                            f"no partial transfer leaves delegate {node}"
                        )
                    if observed:
                        self._checkpoint(
                            PipelineStage.PARTIAL_DECODE,
                            stripe_id=sid, node=node, rack=group.group_key,
                            is_partial=True,
                        )
                        self._deliver(
                            PipelineStage.CROSS_TRANSFER
                            if xfer.cross_rack
                            else PipelineStage.INTRA_TRANSFER,
                            outcome.partials[group.group_key],
                            stripe_id=sid,
                            node=node,
                            rack=group.group_key,
                            is_partial=True,
                        )
                    if xfer.cross_rack:
                        delta.cross_rack_bytes += size
                    else:
                        delta.intra_rack_bytes += size
                charge[node] = charge.get(node, 0) + group.size * size
            charge[repl] = charge.get(repl, 0) + len(outcome.groups) * size
        else:
            charge[repl] = sol.helper_count * size
        if observed:
            self._checkpoint(
                PipelineStage.FINAL_COMBINE,
                stripe_id=sid, node=repl, rack=rack_of(repl),
            )
        return delta

    # -- observer hooks -------------------------------------------------

    def _checkpoint(
        self,
        stage: PipelineStage,
        *,
        stripe_id: int,
        node: int,
        rack: int,
        chunk: int | None = None,
        is_partial: bool = False,
    ) -> None:
        """Stage hook; the fault-injection executor extends this.

        The base emits one ``exec.stage`` trace event (and a per-stage
        counter) per checkpoint when telemetry is enabled; it is a
        strict no-op otherwise.
        """
        if self.tracer.enabled:
            self.tracer.event(
                "exec.stage",
                stage=stage.value,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                chunk=chunk,
                is_partial=is_partial,
            )
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("exec.stage.checkpoints").inc(stage=stage.value)
        if self.journal is not None and stage in _JOURNALED_STAGES:
            self.journal.stage(
                stripe_id,
                stage.value,
                node=node,
                rack=rack,
                chunk=chunk,
                is_partial=is_partial,
            )

    def _deliver(
        self,
        stage: PipelineStage,
        buf: np.ndarray,
        *,
        stripe_id: int,
        node: int,
        rack: int,
        chunk: int | None = None,
        is_partial: bool = False,
    ) -> np.ndarray:
        """Ship one buffer through a transfer stage, verified on receipt.

        The stage checkpoint fires first (preserving the fault layer's
        crash/stall/drop semantics and checkpoint ordering).  With
        integrity verification off this is the whole story and the
        sender's buffer is returned untouched.  With it on, the buffer
        is checksummed at creation, pushed through :meth:`_transmit`
        (where the fault layer may corrupt it), and re-checksummed on
        receipt; every mismatch calls :meth:`_on_corrupt` and, if that
        returns, retransmits.  Only a buffer whose received checksum
        matches the sender's is ever returned to a decode.
        """
        self._checkpoint(
            stage,
            stripe_id=stripe_id,
            node=node,
            rack=rack,
            chunk=chunk,
            is_partial=is_partial,
        )
        if not self.verify_integrity:
            return buf
        expected = chunk_checksum(buf)
        attempt = 0
        while True:
            received = self._transmit(
                stage,
                buf,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                attempt=attempt,
                is_partial=is_partial,
            )
            if chunk_checksum(received) == expected:
                reg = _metrics.CURRENT
                if reg is not None:
                    reg.counter("integrity.verified").inc(stage=stage.value)
                return received
            attempt += 1
            reg = _metrics.CURRENT
            if reg is not None:
                reg.counter("integrity.corruptions").inc(stage=stage.value)
            self._on_corrupt(
                stage,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                attempt=attempt,
                is_partial=is_partial,
            )

    def _transmit(
        self,
        stage: PipelineStage,
        buf: np.ndarray,
        *,
        stripe_id: int,
        node: int,
        rack: int,
        attempt: int = 0,
        is_partial: bool = False,
    ) -> np.ndarray:
        """Network hook: what the receiver sees.

        The base network is perfect — the sender's buffer arrives as
        is.  The fault layer overrides this to corrupt bytes in flight
        (:attr:`~repro.faults.events.FaultKind.IN_FLIGHT_CORRUPT`).
        """
        return buf

    def _on_corrupt(
        self,
        stage: PipelineStage,
        *,
        stripe_id: int,
        node: int,
        rack: int,
        attempt: int,
        is_partial: bool = False,
    ) -> None:
        """Checksum-mismatch hook; returning means "retransmit".

        Without a fault-handling layer a corrupt receipt is fatal — the
        plain executor has no retry policy, and silently re-reading
        would hide real faults.  The robust executor overrides this
        with the RETRY/ESCALATE ladder.
        """
        raise IntegrityError(
            f"checksum mismatch at {stage.value}: payload from node {node} "
            f"(stripe {stripe_id}, attempt {attempt})"
        )
