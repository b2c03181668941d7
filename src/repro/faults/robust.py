"""Degraded-mode recovery: retries, re-planning, and graceful fallback.

:class:`RobustExecutor` wraps the byte-exact
:class:`~repro.recovery.executor.PlanExecutor` with the failure
handling a real clustered file system needs when the repair itself is
not safe from failures:

- **transient faults** (dropped flows) are retried with capped
  exponential backoff; **stalled disks** are waited out — both
  accounted as simulated wall-clock, never real sleeps;
- **permanent faults** (helper/delegate crashes, or transients that
  exhaust their retry budget) void the current plan for the not-yet
  repaired stripes: the selector and planner are re-invoked with the
  dead nodes excluded, so the re-plan is Theorem-1 minimal over the
  *surviving* racks;
- after ``max_replans`` aggregated re-plans the executor **degrades**
  to direct RR-style recovery (any ``k`` survivors shipped raw), the
  last rung before a typed :class:`~repro.faults.events.RecoveryAbort`.

The degradation ladder is therefore::

    aggregated (CAR)  ->  re-planned aggregated  ->  direct  ->  abort

Every fault and every response is recorded in a
:class:`~repro.faults.events.FaultLog`, in execution order, and the
whole run is deterministic for a fixed injector seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.failure import degraded_view
from repro.cluster.state import ClusterState, FailureEvent
from repro.errors import CoordinatorCrashError, NoValidSolutionError
from repro.faults.backoff import BackoffPolicy
from repro.faults.events import (
    ActionKind,
    FaultEvent,
    FaultKind,
    FaultLog,
    InjectedCrashError,
    RecoveryAbort,
    RecoveryAction,
)
from repro.faults.injector import FaultInjector
from repro.faults.timeline import FaultTimeline
from repro.obs import metrics as _metrics
from repro.obs.tracer import NullTracer, Tracer
from repro.recovery.balancer import GreedyLoadBalancer
from repro.recovery.executor import (
    ExecutionResult,
    PipelineStage,
    PlanExecutor,
    _Run,
)
from repro.recovery.planner import RecoveryPlan, plan_recovery
from repro.recovery.selector import CarSelector
from repro.recovery.solution import MultiStripeSolution, PerStripeSolution

__all__ = ["RobustExecutionResult", "RobustExecutor", "recover_with_faults"]

#: Kinds the checkpoint hook polls for.  In-flight corruption belongs to
#: the transmission hook (:meth:`RobustExecutor._transmit`) — splitting
#: the polls keeps either from draining the other's fire budgets.
_CHECKPOINT_KINDS = frozenset(FaultKind) - {FaultKind.IN_FLIGHT_CORRUPT}
_TRANSMIT_KINDS = frozenset({FaultKind.IN_FLIGHT_CORRUPT})


@dataclass
class RobustExecutionResult:
    """Outcome of a fault-tolerant recovery run.

    Attributes:
        result: merged byte-exact execution result of every stripe that
            completed (each stripe's bytes come from its *successful*
            attempt only).
        log: ordered faults + responses.
        dead_nodes: helpers that crashed (or were escalated) mid-repair.
        replans: aggregated re-plans performed.
        degraded_to_direct: whether the ladder reached direct recovery.
        rounds: execution rounds (1 = no crash interrupted anything).
        wasted_cross_rack_bytes / wasted_intra_rack_bytes: traffic of
            attempts that a crash voided (consumed bandwidth that bought
            no stripe).
        backoff_seconds: simulated wait spent on transfer retries.
        stall_seconds: simulated wait spent on disk stalls.
        final_solution / final_plan: what the last round executed —
            feed these to the timing simulator together with
            :attr:`timeline`.
    """

    result: ExecutionResult
    log: FaultLog
    dead_nodes: frozenset[int]
    replans: int
    degraded_to_direct: bool
    rounds: int
    wasted_cross_rack_bytes: int
    wasted_intra_rack_bytes: int
    backoff_seconds: float
    stall_seconds: float
    final_solution: MultiStripeSolution
    final_plan: RecoveryPlan

    @property
    def verified(self) -> bool:
        """True iff every stripe reconstructed byte-exactly."""
        return self.result.verified

    @property
    def timeline(self) -> FaultTimeline:
        """The log's timing view, for :class:`RecoverySimulator`."""
        return FaultTimeline.from_log(self.log)


class RobustExecutor(PlanExecutor):
    """A :class:`PlanExecutor` that survives faults injected mid-repair.

    Args:
        state: the failed cluster (must hold a DataStore).
        injector: armed fault injector (default: no faults — the run
            then behaves exactly like the plain executor).
        backoff: retry schedule for transient faults.
        max_replans: aggregated re-plans before degrading to direct.
        rebalance: run Algorithm 2 on aggregated re-plans so the
            degraded solution keeps λ low over the surviving racks.
        journal: optional write-ahead journal making the run resumable
            after a coordinator crash.
        verify_integrity: checksum-verify every transferred payload on
            receipt (default on — a fault-aware executor should never
            trust the network).
    """

    def __init__(
        self,
        state: ClusterState,
        injector: FaultInjector | None = None,
        backoff: BackoffPolicy | None = None,
        max_replans: int = 2,
        rebalance: bool = True,
        tracer: Tracer | NullTracer | None = None,
        journal=None,
        verify_integrity: bool = True,
        profiler=None,
    ) -> None:
        super().__init__(
            state,
            tracer=tracer,
            journal=journal,
            verify_integrity=verify_integrity,
            profiler=profiler,
        )
        self.injector = injector or FaultInjector()
        self.backoff = backoff or BackoffPolicy()
        self.max_replans = max_replans
        self.rebalance = rebalance
        self._log: FaultLog | None = None
        self._backoff_total = 0.0
        self._stall_total = 0.0
        self._last_corrupt_event: FaultEvent | None = None

    def _record(self, entry: FaultEvent | RecoveryAction) -> None:
        """Append to the FaultLog, mirroring into the trace/metrics.

        The FaultLog stays the source of truth (its determinism contract
        is unchanged); the tracer gets the same record as a structured
        ``fault.<kind>`` / ``action.<action>`` event in the one JSONL
        stream, and the registry counts faults and responses by kind.
        """
        assert self._log is not None
        self._log.record(entry)
        tracer = self.tracer
        reg = _metrics.CURRENT
        if isinstance(entry, FaultEvent):
            if tracer.enabled:
                tracer.event(
                    f"fault.{entry.kind.value}",
                    stage=entry.stage.value,
                    stripe_id=entry.stripe_id,
                    node=entry.node,
                    rack=entry.rack,
                    attempt=entry.attempt,
                    stall_seconds=entry.stall_seconds,
                )
            if reg is not None:
                reg.counter("faults.injected").inc(kind=entry.kind.value)
        else:
            if tracer.enabled:
                attrs = {
                    "wait_seconds": entry.wait_seconds,
                    "detail": entry.detail,
                }
                if entry.stripe_id is not None:
                    attrs["stripe_id"] = entry.stripe_id
                if entry.node is not None:
                    attrs["node"] = entry.node
                tracer.event(f"action.{entry.action.value}", **attrs)
            if reg is not None:
                reg.counter("faults.actions").inc(action=entry.action.value)

    # -- fault-aware pipeline hook --------------------------------------

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
        super()._checkpoint(
            stage,
            stripe_id=stripe_id,
            node=node,
            rack=rack,
            chunk=chunk,
            is_partial=is_partial,
        )
        if self._log is None:  # not inside run(): behave like the base
            return
        attempt = 0
        while True:
            event = self.injector.poll(
                stage,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                attempt=attempt,
                is_partial=is_partial,
                kinds=_CHECKPOINT_KINDS,
            )
            if event is None:
                return
            self._record(event)
            if event.kind is FaultKind.COORDINATOR_CRASH:
                # Not survivable in-process: the coordinator IS this
                # executor.  Everything not yet journalled dies with it;
                # a RecoverySession resumes from the journal.
                raise CoordinatorCrashError(
                    f"coordinator crashed at {stage.value} "
                    f"(stripe {stripe_id})",
                    event=event,
                    records_written=(
                        self.journal.records_written
                        if self.journal is not None
                        else 0
                    ),
                )
            if event.kind in (FaultKind.HELPER_CRASH, FaultKind.DELEGATE_CRASH):
                raise InjectedCrashError(event)
            attempt += 1
            if attempt >= self.backoff.max_attempts:
                # A disk that never stops stalling / a link that never
                # stops dropping is dead for recovery purposes.
                self._record(
                    RecoveryAction(
                        action=ActionKind.ESCALATE,
                        stripe_id=stripe_id,
                        node=node,
                        detail=(
                            f"{event.kind.value} exceeded "
                            f"{self.backoff.max_attempts} attempts"
                        ),
                    )
                )
                raise InjectedCrashError(event)
            if event.kind is FaultKind.DISK_STALL:
                self._stall_total += event.stall_seconds
                self._record(
                    RecoveryAction(
                        action=ActionKind.WAIT,
                        stripe_id=stripe_id,
                        node=node,
                        wait_seconds=event.stall_seconds,
                        detail="disk stall waited out",
                    )
                )
            else:  # FLOW_DROP
                delay = self.backoff.delay(attempt)
                self._backoff_total += delay
                self._record(
                    RecoveryAction(
                        action=ActionKind.RETRY,
                        stripe_id=stripe_id,
                        node=node,
                        wait_seconds=delay,
                        detail=f"retransmit #{attempt} after drop",
                    )
                )

    # -- in-flight integrity ----------------------------------------------

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
        """Deliver a payload, corrupting it if an armed fault fires.

        The corruption is a deterministic single-element bit flip (the
        position comes from the injector's seeded RNG), so a corrupt run
        replays byte-identically — and the receiver's checksum *must*
        catch it, because one flipped bit changes the CRC.
        """
        if self._log is None:
            return buf
        event = self.injector.poll(
            stage,
            stripe_id=stripe_id,
            node=node,
            rack=rack,
            attempt=attempt,
            is_partial=is_partial,
            kinds=_TRANSMIT_KINDS,
        )
        if event is None:
            return buf
        self._record(event)
        self._last_corrupt_event = event
        corrupted = np.array(buf, copy=True)
        corrupted.flat[self.injector.rng.randrange(corrupted.size)] ^= 1
        return corrupted

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
        """Corrupt receipt: retransmit with backoff, escalate when spent.

        Escalation raises :class:`InjectedCrashError` against the
        sending node — a link that corrupts every retransmission is as
        dead as a crashed helper — which routes into the existing
        REPLAN → DEGRADE ladder.
        """
        if self._log is None or self._last_corrupt_event is None:
            super()._on_corrupt(
                stage,
                stripe_id=stripe_id,
                node=node,
                rack=rack,
                attempt=attempt,
                is_partial=is_partial,
            )
            return
        if attempt >= self.backoff.max_attempts:
            self._record(
                RecoveryAction(
                    action=ActionKind.ESCALATE,
                    stripe_id=stripe_id,
                    node=node,
                    detail=(
                        f"corrupt payload survived "
                        f"{self.backoff.max_attempts} retransmissions"
                    ),
                )
            )
            raise InjectedCrashError(self._last_corrupt_event)
        delay = self.backoff.delay(attempt)
        self._backoff_total += delay
        self._record(
            RecoveryAction(
                action=ActionKind.RETRY,
                stripe_id=stripe_id,
                node=node,
                wait_seconds=delay,
                detail=f"retransmit #{attempt} after corrupt payload",
            )
        )

    # -- the robust loop -------------------------------------------------

    def run(
        self,
        event: FailureEvent,
        solution: MultiStripeSolution,
        plan: RecoveryPlan | None = None,
        *,
        window: int = 64,
        progress=None,
    ) -> RobustExecutionResult:
        """Execute ``solution`` to completion, surviving injected faults.

        Each round runs the windowed pipeline
        (:meth:`~repro.recovery.executor.PlanExecutor.execute_streaming`'s
        path, decodes batched ``window`` stripes at a time) over the
        stripes still pending, with the fault hooks observing every
        ship step; ``progress`` gets a heartbeat per shipped window.

        Raises:
            RecoveryAbort: if recovery is impossible (fewer than ``k``
                survivors for some stripe, the replacement node lost, or
                the round budget exhausted).  The abort carries the full
                :class:`FaultLog` — never a partial/wrong answer.
        """
        log = FaultLog()
        self._log = log
        self._backoff_total = 0.0
        self._stall_total = 0.0
        run = _Run(ExecutionResult(), progress=progress)
        try:
            with self._profiling():
                robust = self._run(event, solution, plan, log, run, window)
        finally:
            self._log = None
        run.report(self.journal is not None, final=True)
        return robust

    def _observed(self) -> bool:
        return self._log is not None or super()._observed()

    def _run(
        self,
        event: FailureEvent,
        solution: MultiStripeSolution,
        plan: RecoveryPlan | None,
        log: FaultLog,
        run: _Run,
        window: int,
    ) -> RobustExecutionResult:
        merged = run.result
        dead: set[int] = set()
        mode_direct = not solution.aggregated
        degraded = False
        replans = 0
        rounds = 0
        wasted_cross = 0
        wasted_intra = 0
        current_sol = solution
        current_plan = (
            plan
            if plan is not None
            else plan_recovery(self.state, event, solution)
        )
        pending = {s.stripe_id for s in current_sol.solutions}
        # Each round either finishes or kills at least one more node, so
        # this bound is never hit by a live scenario — it is a guard
        # against a mis-specified injector.
        max_rounds = self.max_replans + self.state.topology.num_nodes + 2

        while pending:
            rounds += 1
            if rounds > max_rounds:
                self._record(
                    RecoveryAction(
                        action=ActionKind.ABORT,
                        detail="round budget exhausted",
                    )
                )
                raise RecoveryAbort("round budget exhausted", log, dead)
            # Every solution of the round is pending: the first round's
            # are all of them, a re-plan's are exactly the pending ones.
            # No decode runs ahead of shipping: a fault voids the rest of
            # the round, so work done ahead would be thrown away.
            try:
                self._pipeline(
                    run, current_plan, current_sol, window=window,
                    pipelined=False,
                )
            except InjectedCrashError as exc:
                crash = exc
            else:
                break
            wasted_cross += self._in_flight.cross_rack_bytes
            wasted_intra += self._in_flight.intra_rack_bytes
            pending.difference_update(merged.per_stripe_ok)
            if crash.node == event.replacement_node:
                self._record(
                    RecoveryAction(
                        action=ActionKind.ABORT,
                        stripe_id=crash.event.stripe_id,
                        node=crash.node,
                        detail="replacement node lost",
                    )
                )
                raise RecoveryAbort("replacement node lost", log, dead)
            dead.add(crash.node)
            try:
                if not mode_direct and replans < self.max_replans:
                    replans += 1
                    self._record(
                        RecoveryAction(
                            action=ActionKind.REPLAN,
                            stripe_id=crash.event.stripe_id,
                            node=crash.node,
                            detail=(
                                f"aggregated re-plan #{replans} excluding "
                                f"nodes {sorted(dead)}"
                            ),
                        )
                    )
                    current_sol = self._replan_aggregated(pending, dead)
                else:
                    if not mode_direct:
                        mode_direct = True
                        degraded = True
                        self._record(
                            RecoveryAction(
                                action=ActionKind.DEGRADE,
                                node=crash.node,
                                detail=(
                                    "aggregation abandoned after "
                                    f"{replans} re-plans; direct recovery"
                                ),
                            )
                        )
                    else:
                        self._record(
                            RecoveryAction(
                                action=ActionKind.REPLAN,
                                stripe_id=crash.event.stripe_id,
                                node=crash.node,
                                detail=(
                                    f"direct re-plan excluding nodes "
                                    f"{sorted(dead)}"
                                ),
                            )
                        )
                    current_sol = self._replan_direct(pending, dead)
                current_plan = plan_recovery(
                    self.state, event, current_sol, dead_nodes=frozenset(dead)
                )
            except NoValidSolutionError as exc:
                self._record(
                    RecoveryAction(action=ActionKind.ABORT, detail=str(exc))
                )
                raise RecoveryAbort(f"data loss: {exc}", log, dead) from exc

        return RobustExecutionResult(
            result=merged,
            log=log,
            dead_nodes=frozenset(dead),
            replans=replans,
            degraded_to_direct=degraded,
            rounds=rounds,
            wasted_cross_rack_bytes=wasted_cross,
            wasted_intra_rack_bytes=wasted_intra,
            backoff_seconds=self._backoff_total,
            stall_seconds=self._stall_total,
            final_solution=current_sol,
            final_plan=current_plan,
        )

    # -- re-planning ------------------------------------------------------

    def _replan_aggregated(
        self, pending: set[int], dead: set[int]
    ) -> MultiStripeSolution:
        """CAR re-plan of the pending stripes over the surviving racks."""
        selector = CarSelector(self.state.topology, self.state.code.k)
        views = {}
        solutions = []
        for stripe in sorted(pending):
            raw = self.state.stripe_view(stripe)
            views[stripe] = degraded_view(raw, dead, self.state.topology)
            solutions.append(selector.degraded_solution(raw, dead))
        replanned = MultiStripeSolution(
            solutions,
            num_racks=self.state.topology.num_racks,
            aggregated=True,
        )
        if self.rebalance and len(solutions) > 1:
            replanned, _ = GreedyLoadBalancer().balance(
                views, replanned, selector
            )
        return replanned

    def _replan_direct(
        self, pending: set[int], dead: set[int]
    ) -> MultiStripeSolution:
        """RR-style fallback: the first ``k`` survivors, shipped raw."""
        k = self.state.code.k
        solutions = []
        for stripe in sorted(pending):
            view = degraded_view(
                self.state.stripe_view(stripe), dead, self.state.topology
            )
            survivors = sorted(view.surviving)
            if len(survivors) < k:
                raise NoValidSolutionError(
                    f"stripe {stripe}: only {len(survivors)} survivors "
                    f"remain, need {k}"
                )
            chunks_by_rack: dict[int, list[int]] = {}
            for c in survivors[:k]:
                rack = self.state.topology.rack_of(view.surviving[c])
                chunks_by_rack.setdefault(rack, []).append(c)
            solutions.append(
                PerStripeSolution(
                    stripe_id=stripe,
                    lost_chunk=view.lost_chunk,
                    failed_rack=view.failed_rack,
                    chunks_by_rack={
                        r: tuple(sorted(cs))
                        for r, cs in chunks_by_rack.items()
                    },
                )
            )
        return MultiStripeSolution(
            solutions,
            num_racks=self.state.topology.num_racks,
            aggregated=False,
        )


def recover_with_faults(
    state: ClusterState,
    event: FailureEvent,
    strategy,
    injector: FaultInjector | None = None,
    backoff: BackoffPolicy | None = None,
    max_replans: int = 2,
    rebalance: bool = True,
    journal=None,
    verify_integrity: bool = True,
    tracer=None,
) -> RobustExecutionResult:
    """Solve, plan, and robustly execute a recovery in one call.

    Args:
        strategy: any :class:`~repro.recovery.baselines.RecoveryStrategy`.

    Raises:
        RecoveryAbort: as :meth:`RobustExecutor.run`.
    """
    solution = strategy.solve(state)
    plan = plan_recovery(state, event, solution)
    executor = RobustExecutor(
        state,
        injector=injector,
        backoff=backoff,
        max_replans=max_replans,
        rebalance=rebalance,
        journal=journal,
        verify_integrity=verify_integrity,
        tracer=tracer,
    )
    return executor.run(event, solution, plan)
