"""The background repair service: paced, cancellable, crash-resumable.

The repair runs the *existing* durable pipeline — a
:class:`~repro.durable.session.RecoverySession`, whose executor decodes
and ships stripes window by window — in a worker thread, while the
coordinator's event loop keeps serving degraded reads.  Three small pieces adapt that pipeline to a live
service:

- :class:`RepairGovernor` rides the executor's progress-reporter hook
  (called once per shipped window with absolute counters).  For each
  window it charges the *cross-rack byte delta* to the admission
  controller and blocks the worker thread for the modelled wait — the
  token-bucket repair cap and the shared-link queueing are what pace
  recovery against foreground reads.  Between windows it also checks
  the cancellation flag and raises
  :class:`~repro.errors.RepairCancelled`: window commits have already
  hit the journal, so cancellation never loses durable progress.
- :class:`DeadNodeAwareStrategy` wraps any base strategy and, per
  stripe, swaps in :meth:`~repro.recovery.selector.CarSelector.
  degraded_solution` whenever the base pick would read a dead node.
  Stripe ids are preserved, which is exactly the contract
  :meth:`RecoverySession.resume` enforces on the re-solve.
- :class:`RepairService` owns the thread and the replan loop: run (or
  resume, if the journal already exists on disk), catch
  ``RepairCancelled``, fold the newly dead nodes into the strategy, and
  resume from the journal — committed stripes replay from their commit
  records with zero re-shipped cross-rack traffic.  An injected
  coordinator crash (``crash_after_records``) escapes as
  :class:`~repro.errors.CoordinatorCrashError` and parks the service in
  the ``crashed`` state; a fresh coordinator pointed at the same
  journal resumes it.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.cluster.state import ClusterState, FailureEvent
from repro.durable.session import DurableRecoveryResult, RecoverySession
from repro.errors import (
    CoordinatorCrashError,
    RepairCancelled,
    ReproError,
)
from repro.recovery.selector import CarSelector
from repro.recovery.solution import MultiStripeSolution
from repro.service.admission import AdmissionController, ServiceClock

__all__ = ["RepairGovernor", "DeadNodeAwareStrategy", "RepairService"]


class RepairGovernor:
    """Progress hook that paces and can cancel a windowed repair.

    Duck-types :class:`~repro.obs.progress.ProgressReporter`: the
    executor calls :meth:`update` once per shipped window with
    absolute counters, and :meth:`finish` once at the end.  Both forward
    to an optional ``inner`` reporter so normal progress heartbeats keep
    flowing.

    Args:
        admission: where cross-rack byte deltas are charged.
        clock: converts the modelled wait into a worker-thread sleep.
        cancel: event set by the coordinator when a helper node dies.
        dead_nodes: callable returning the current dead-node set (put
            into the raised :class:`~repro.errors.RepairCancelled`).
        inner: optional real progress reporter to forward to.
    """

    def __init__(
        self,
        admission: AdmissionController,
        clock: ServiceClock,
        *,
        cancel: threading.Event | None = None,
        dead_nodes=None,
        inner=None,
    ) -> None:
        self.admission = admission
        self.clock = clock
        self._cancel = cancel
        self._dead_nodes = dead_nodes or (lambda: frozenset())
        self.inner = inner
        self._charged_cross = 0
        self.model_wait_seconds = 0.0
        self.windows_paced = 0

    def _pace(self, cross_rack_bytes: int) -> None:
        delta = cross_rack_bytes - self._charged_cross
        if delta > 0:
            self._charged_cross = cross_rack_bytes
            wait = self.admission.repair_delay(delta)
            self.model_wait_seconds += wait
            self.windows_paced += 1
            self.clock.sleep_sync(wait)

    def _check_cancel(self) -> None:
        if self._cancel is not None and self._cancel.is_set():
            dead = frozenset(self._dead_nodes())
            raise RepairCancelled(
                f"repair cancelled: nodes {sorted(dead)} died mid-repair",
                dead,
            )

    def update(
        self,
        stripes_done: int,
        *,
        windows_done: int = 0,
        cross_rack_bytes: int = 0,
        intra_rack_bytes: int = 0,
        journal_lag: int = 0,
        final: bool = False,
    ) -> None:
        """Per-window hook: charge admission, then maybe cancel."""
        self._pace(cross_rack_bytes)
        if self.inner is not None:
            self.inner.update(
                stripes_done,
                windows_done=windows_done,
                cross_rack_bytes=cross_rack_bytes,
                intra_rack_bytes=intra_rack_bytes,
                journal_lag=journal_lag,
                final=final,
            )
        # Cancel *after* pacing so the committed window is fully charged;
        # the raise happens between windows, when the journal is clean.
        self._check_cancel()

    def finish(
        self,
        stripes_done: int,
        *,
        windows_done: int = 0,
        cross_rack_bytes: int = 0,
        intra_rack_bytes: int = 0,
        journal_lag: int = 0,
    ) -> None:
        """End-of-execution hook: settle the final delta, forward."""
        self._pace(cross_rack_bytes)
        if self.inner is not None:
            self.inner.finish(
                stripes_done,
                windows_done=windows_done,
                cross_rack_bytes=cross_rack_bytes,
                intra_rack_bytes=intra_rack_bytes,
                journal_lag=journal_lag,
            )


class DeadNodeAwareStrategy:
    """Wrap a strategy so its per-stripe picks avoid dead nodes.

    Solves with the base strategy, then re-plans exactly the stripes
    whose chosen helpers live on a dead node, via
    :meth:`~repro.recovery.selector.CarSelector.degraded_solution`.
    Stripe ids are never added or removed — the resume contract.

    Args:
        base: any deterministic recovery strategy.
        dead_nodes: nodes to plan around (the primary failed node is
            already excluded by the cluster state itself).
    """

    def __init__(self, base, dead_nodes) -> None:
        self.base = base
        self.dead_nodes = frozenset(int(n) for n in dead_nodes)

    def solve(self, state: ClusterState) -> MultiStripeSolution:
        solution = self.base.solve(state)
        if not self.dead_nodes:
            return solution
        selector = CarSelector(state.topology, state.code.k)
        out = solution
        for per_stripe in solution.solutions:
            layout = state.placement.stripe_layout(per_stripe.stripe_id)
            if any(
                layout[c] in self.dead_nodes for c in per_stripe.helpers
            ):
                view = state.stripe_view(per_stripe.stripe_id)
                out = out.replace(
                    selector.degraded_solution(view, self.dead_nodes)
                )
        return out


class RepairService:
    """Owns the repair worker thread and its replan/resume loop.

    States (read via the attributes, synchronised by :attr:`done`):

    - running — the thread is executing/replanning;
    - finished — :attr:`result` holds the
      :class:`~repro.durable.session.DurableRecoveryResult`;
    - crashed — :attr:`crash` holds the
      :class:`~repro.errors.CoordinatorCrashError`; the journal on disk
      is the resume point for a fresh service;
    - failed — :attr:`error` holds a terminal error (replan budget
      exhausted or data loss).

    Args:
        state: the failed cluster (failure already applied).
        event: the primary failure being repaired.
        strategy: base recovery strategy (wrapped per attempt with the
            current dead-node set).
        journal_path: the write-ahead journal.  If the file already
            exists the first attempt *resumes* instead of running — that
            is the whole crash-recovery story.
        clock / admission: service pacing.
        window: stripes in flight per streaming window (small, so
            cancellation latency stays low).
        tracer: worker-thread tracer (keep it distinct from the event
            loop's — :class:`~repro.obs.tracer.Tracer` is not
            thread-safe; merge the event lists afterwards).
        progress: optional inner progress reporter.
        session_meta: extra journal-header keys.
        max_replans: cancellations absorbed before giving up.
        crash_after_records: arm a coordinator crash after the n-th
            journal record of the *first* attempt (test hook; mirrors
            the durable layer's crash matrix).
        on_done: callable invoked (from the worker thread) when the
            service reaches a terminal state.
    """

    def __init__(
        self,
        state: ClusterState,
        event: FailureEvent,
        strategy,
        journal_path: str | Path,
        clock: ServiceClock,
        admission: AdmissionController,
        *,
        window: int = 8,
        tracer=None,
        progress=None,
        session_meta: dict | None = None,
        max_replans: int = 3,
        crash_after_records: int | None = None,
        on_done=None,
    ) -> None:
        self.state = state
        self.event = event
        self.base_strategy = strategy
        self.journal_path = Path(journal_path)
        self.clock = clock
        self.admission = admission
        self.window = window
        self.tracer = tracer
        self.progress = progress
        self.session_meta = dict(session_meta or {})
        self.max_replans = max_replans
        self.crash_after_records = crash_after_records
        self.on_done = on_done

        self._dead: set[int] = set()
        self._cancel = threading.Event()
        self._thread: threading.Thread | None = None
        self.done = threading.Event()
        self.result: DurableRecoveryResult | None = None
        self.crash: CoordinatorCrashError | None = None
        self.error: ReproError | None = None
        self.replans = 0
        self.started_model: float | None = None
        self.finished_model: float | None = None

    # -- control ---------------------------------------------------------

    def start(self) -> None:
        """Launch the worker thread (idempotent per service)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-repair", daemon=True
        )
        self._thread.start()

    def mark_dead(self, node_id: int) -> None:
        """A helper node died: request cancellation and re-planning."""
        self._dead.add(int(node_id))
        self._cancel.set()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for a terminal state; True iff reached in time."""
        finished = self.done.wait(timeout)
        if finished and self._thread is not None:
            self._thread.join(timeout=5.0)
        return finished

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Secondary failures the repair is planning around."""
        return frozenset(self._dead)

    # -- worker ----------------------------------------------------------

    def _strategy(self):
        if not self._dead:
            return self.base_strategy
        return DeadNodeAwareStrategy(self.base_strategy, self._dead)

    def _session(self, crash_after_records, governor) -> RecoverySession:
        return RecoverySession(
            self.state,
            self.event,
            self._strategy(),
            self.journal_path,
            window=self.window,
            progress=governor,
            tracer=self.tracer,
            crash_after_records=crash_after_records,
            session_meta={
                **self.session_meta,
                "service": "repair",
                "dead_nodes": sorted(self._dead),
            },
        )

    def _run(self) -> None:
        self.started_model = self.clock.now()
        crash_budget = self.crash_after_records
        try:
            while True:
                self._cancel.clear()
                governor = RepairGovernor(
                    self.admission,
                    self.clock,
                    cancel=self._cancel,
                    dead_nodes=lambda: frozenset(self._dead),
                    inner=self.progress,
                )
                session = self._session(crash_budget, governor)
                crash_budget = None
                try:
                    if self.journal_path.exists():
                        self.result = session.resume()
                    else:
                        self.result = session.run()
                    return
                except RepairCancelled as exc:
                    self.replans += 1
                    if self.tracer is not None:
                        self.tracer.event(
                            "service.repair.replan",
                            dead_nodes=sorted(exc.dead_nodes),
                            replans=self.replans,
                        )
                    if self.replans > self.max_replans:
                        self.error = exc
                        return
                    continue
                except CoordinatorCrashError as exc:
                    self.crash = exc
                    return
                except ReproError as exc:
                    self.error = exc
                    return
        finally:
            self.finished_model = self.clock.now()
            self.done.set()
            if self.on_done is not None:
                self.on_done(self)

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        """Status-reply payload describing the repair's state."""
        if self.result is not None:
            status = "finished"
        elif self.crash is not None:
            status = "crashed"
        elif self.error is not None:
            status = "failed"
        elif self._thread is not None:
            status = "running"
        else:
            status = "idle"
        out = {
            "status": status,
            "failed_node": self.event.failed_node,
            "stripes": self.event.num_stripes,
            "replans": self.replans,
            "dead_nodes": sorted(self._dead),
            "started_model_s": self.started_model,
            "finished_model_s": self.finished_model,
        }
        if self.result is not None:
            out.update(
                verified=self.result.verified,
                replayed=len(self.result.replayed),
                executed=len(self.result.executed),
                cross_rack_bytes=self.result.cross_rack_bytes,
                live_cross_rack_bytes=self.result.live_cross_rack_bytes,
            )
        return out
