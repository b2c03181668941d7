"""Equivalence suite: the streaming executor vs the eager path.

The contract under test is absolute: for any cluster, strategy, window
size, worker count, and telemetry configuration, `execute_streaming`
produces an :class:`ExecutionResult` byte-identical to `execute` — same
rebuilt bytes, same verdicts, same traffic and compute accounting, same
metric counters, and (for durable sessions) a journal that resumes
identically after a crash mid-window.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.durable.journal import JournalReplay, validate_journal_records
from repro.durable.session import RecoverySession
from repro.erasure.rs import RSCode
from repro.errors import (
    CoordinatorCrashError,
    PlanError,
    UnknownChunkError,
)
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    PipelineStage,
    RobustExecutor,
)
from repro.io_shm import SharedChunkStore
from repro.obs import metrics as _metrics
from repro.obs.tracer import Tracer
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.executor import PlanExecutor
from repro.recovery.planner import plan_recovery, plan_recovery_streaming
from repro.recovery.streaming import (
    REPAIR_GROUP_CACHE,
    repair_signature,
    windows,
)


def failed_cluster(seed=0, stripes=14, k=6, m=3, chunk_size=64):
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    data = DataStore(code, stripes, chunk_size=chunk_size, seed=seed)
    state = ClusterState(topo, code, placement, data)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


def strategy_for(name, seed):
    return CarStrategy() if name == "car" else RandomRecoveryStrategy(rng=seed)


def assert_identical(a, b):
    """Two ExecutionResults agree field-for-field, byte-for-byte."""
    assert a.per_stripe_ok == b.per_stripe_ok
    assert set(a.reconstructed) == set(b.reconstructed)
    for sid in a.reconstructed:
        assert np.array_equal(a.reconstructed[sid], b.reconstructed[sid])
    assert a.cross_rack_bytes == b.cross_rack_bytes
    assert a.intra_rack_bytes == b.intra_rack_bytes
    assert a.bytes_computed_by_node == b.bytes_computed_by_node


class TestStreamingEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 200),
        window=st.sampled_from([1, 2, 3, 7, 64]),
        strat=st.sampled_from(["car", "direct"]),
        pipelined=st.booleans(),
        batch=st.booleans(),
    )
    def test_streaming_matches_eager(self, seed, window, strat, pipelined,
                                     batch):
        state, event = failed_cluster(seed=seed)
        sol = strategy_for(strat, seed).solve(state)
        plan = plan_recovery(state, event, sol)
        eager = PlanExecutor(state).execute(plan, sol)
        streamed = PlanExecutor(state).execute_streaming(
            plan, sol, window=window, pipelined=pipelined, batch=batch
        )
        assert eager.verified
        assert_identical(eager, streamed)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100), window=st.sampled_from([1, 5, 64]))
    def test_streaming_plan_matches_eager_plan(self, seed, window):
        state, event = failed_cluster(seed=seed)
        sol = CarStrategy().solve(state)
        eager = PlanExecutor(state).execute(
            plan_recovery(state, event, sol), sol
        )
        splan = plan_recovery_streaming(state, event, sol)
        streamed = PlanExecutor(state).execute_streaming(splan, window=window)
        assert_identical(eager, streamed)

    @pytest.mark.parametrize("strat", ["car", "direct"])
    @pytest.mark.parametrize("use_shm", [True, False])
    def test_workers_match_eager(self, strat, use_shm):
        state, event = failed_cluster(seed=7, stripes=20)
        sol = strategy_for(strat, 7).solve(state)
        plan = plan_recovery(state, event, sol)
        eager = PlanExecutor(state).execute(plan, sol)
        streamed = PlanExecutor(state).execute_streaming(
            plan, sol, window=6, workers=2, shm=use_shm
        )
        assert_identical(eager, streamed)

    def test_sink_receives_every_stripe_and_result_stays_lean(self):
        state, event = failed_cluster(seed=3)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        eager = PlanExecutor(state).execute(plan, sol)
        got = {}
        streamed = PlanExecutor(state).execute_streaming(
            plan, sol, window=4,
            sink=lambda sid, buf, ok: got.__setitem__(sid, buf),
        )
        assert not streamed.reconstructed  # handed off, not retained
        assert streamed.per_stripe_ok == eager.per_stripe_ok
        for sid, buf in eager.reconstructed.items():
            assert np.array_equal(got[sid], buf)

    def test_telemetry_counters_and_spans_match_eager(self):
        state, event = failed_cluster(seed=9, stripes=20)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)

        def run(fn):
            with _metrics.telemetry_scope(_metrics.MetricsRegistry()) as reg:
                tracer = Tracer()
                fn(tracer)
                return reg.snapshot()["metrics"], tracer

        me, te = run(lambda t: PlanExecutor(state, t).execute(plan, sol))
        ms, ts = run(
            lambda t: PlanExecutor(state, t).execute_streaming(
                plan, sol, window=4
            )
        )
        # Checkpoint and stripe counters are label-for-label identical;
        # GF kernel counters agree on totals (batching regroups the
        # series but must move exactly the same bytes).
        assert me["exec.stage.checkpoints"] == ms["exec.stage.checkpoints"]
        assert me["exec.stripes"] == ms["exec.stripes"]

        def gf_total(metrics, name):
            return sum(s["value"] for s in metrics[name]["series"])

        assert gf_total(me, "gf.kernel.bytes") == gf_total(
            ms, "gf.kernel.bytes"
        )
        stripe = lambda tr: [
            e for e in tr.events if e.get("name") == "exec.stripe"
        ]
        assert len(stripe(te)) == len(stripe(ts))
        names = {e.get("name") for e in ts.events}
        assert "exec.stream.aggregate" in names
        assert "exec.stream.ship" in names

    def test_repair_group_cache_is_a_named_metric(self):
        state, event = failed_cluster(seed=5)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        PlanExecutor(state).execute_streaming(plan, sol, window=4)
        reg = _metrics.MetricsRegistry()
        caches = reg.snapshot(include_caches=True)["caches"]
        assert "exec.repair_groups" in caches
        stats = caches["exec.repair_groups"]
        assert stats["hits"] + stats["misses"] > 0


class TestStreamingValidation:
    def test_window_must_be_positive(self):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        with pytest.raises(PlanError):
            PlanExecutor(state).execute_streaming(plan, sol, window=0)

    def test_eager_plan_requires_solution(self):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        with pytest.raises(PlanError):
            PlanExecutor(state).execute_streaming(plan)

    def test_streaming_plan_rejects_solution_argument(self):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        splan = plan_recovery_streaming(state, event, sol)
        with pytest.raises(PlanError):
            PlanExecutor(state).execute_streaming(splan, sol)

    def test_streaming_plan_is_single_shot(self):
        state, event = failed_cluster(seed=1)
        sol = CarStrategy().solve(state)
        splan = plan_recovery_streaming(state, event, sol)
        PlanExecutor(state).execute_streaming(splan, window=4)
        with pytest.raises(PlanError):
            PlanExecutor(state).execute_streaming(splan, window=4)


class TestPipelineConfigurations:
    """Option combinations that run the one windowed pipeline."""

    @pytest.mark.parametrize("strat", ["car", "direct"])
    def test_workers_journal_and_integrity_match_one_worker(
        self, strat, tmp_path
    ):
        from repro.durable.journal import RecoveryJournal, read_journal

        def run(workers):
            state, event = failed_cluster(seed=21, stripes=24)
            sol = strategy_for(strat, 21).solve(state)
            plan = plan_recovery(state, event, sol)
            path = tmp_path / f"{strat}-{workers}.jsonl"
            journal = RecoveryJournal(path)
            journal.begin_session(
                {"stripes": sorted(s.stripe_id for s in sol.solutions)}
            )
            result = PlanExecutor(
                state, journal=journal, verify_integrity=True
            ).execute_streaming(plan, sol, window=5, workers=workers)
            journal.end_session(committed=len(result.per_stripe_ok))
            return result, read_journal(path)

        one, one_records = run(1)
        two, two_records = run(2)
        assert one.verified
        assert_identical(one, two)
        assert two_records == one_records
        commits = [r for r in two_records if r["rec"] == "commit"]
        assert len(commits) == len(two.per_stripe_ok)
        assert sum(c["cross_rack_bytes"] for c in commits) == (
            two.cross_rack_bytes
        )
        assert sum(c["intra_rack_bytes"] for c in commits) == (
            two.intra_rack_bytes
        )
        compute: dict[int, int] = {}
        for c in commits:
            for node, nbytes in c["bytes_computed_by_node"].items():
                compute[int(node)] = compute.get(int(node), 0) + nbytes
        assert compute == two.bytes_computed_by_node

    def test_robust_run_is_window_invariant(self):
        state, event = failed_cluster(seed=23, stripes=20)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)
        # A mid-plan stripe whose delegate crashes after its raw
        # transfers shipped, so the voided attempt wastes traffic.
        victim = next(
            sp for sp in plan.stripe_plans[len(plan.stripe_plans) // 2:]
            if sp.delegates
            and any(t.chunk_index is not None for t in sp.transfers)
        )

        def run(window):
            state, event = failed_cluster(seed=23, stripes=20)
            injector = FaultInjector(
                [
                    FaultSpec(kind=FaultKind.DISK_STALL,
                              stage=PipelineStage.DISK_READ, max_fires=2,
                              stall_seconds=0.5),
                    FaultSpec(kind=FaultKind.FLOW_DROP,
                              stage=PipelineStage.CROSS_TRANSFER,
                              max_fires=2),
                    FaultSpec(kind=FaultKind.IN_FLIGHT_CORRUPT,
                              stage=PipelineStage.INTRA_TRANSFER,
                              max_fires=1),
                    FaultSpec(kind=FaultKind.DELEGATE_CRASH,
                              stage=PipelineStage.PARTIAL_DECODE,
                              stripe_id=victim.stripe_id),
                ],
                seed=5,
            )
            return RobustExecutor(state, injector=injector).run(
                event, CarStrategy().solve(state), window=window
            )

        runs = {window: run(window) for window in (1, 4, 64)}
        base = runs[1]
        assert base.verified
        assert {f.kind for f in base.log.faults} == {
            FaultKind.DISK_STALL, FaultKind.FLOW_DROP,
            FaultKind.IN_FLIGHT_CORRUPT, FaultKind.DELEGATE_CRASH,
        }
        assert base.replans == 1
        assert base.wasted_cross_rack_bytes + base.wasted_intra_rack_bytes
        for window, r in runs.items():
            assert r.log == base.log, f"window {window}"
            assert r.dead_nodes == base.dead_nodes
            assert r.replans == base.replans
            assert r.wasted_cross_rack_bytes == base.wasted_cross_rack_bytes
            assert r.wasted_intra_rack_bytes == base.wasted_intra_rack_bytes
            assert_identical(r.result, base.result)

    def test_workers_emit_the_stage_counters(self):
        state, event = failed_cluster(seed=9, stripes=20)
        sol = CarStrategy().solve(state)
        plan = plan_recovery(state, event, sol)

        def counters(workers):
            with _metrics.telemetry_scope(_metrics.MetricsRegistry()) as reg:
                PlanExecutor(state).execute_streaming(
                    plan, sol, window=4, workers=workers
                )
                metrics = reg.snapshot()["metrics"]
            return metrics["exec.stage.checkpoints"], metrics["exec.stripes"]

        assert counters(2) == counters(1)


class TestStreamingDurability:
    def test_uninterrupted_streaming_session_matches_eager(self, tmp_path):
        state, event = failed_cluster(seed=11, stripes=18)
        eager = RecoverySession(
            state, event, CarStrategy(), tmp_path / "e.jsonl"
        ).run()
        streamed = RecoverySession(
            state, event, CarStrategy(), tmp_path / "s.jsonl",
            window=5,
        ).run()
        assert streamed.verified
        assert streamed.per_stripe_ok == eager.per_stripe_ok
        for sid, buf in eager.reconstructed.items():
            assert np.array_equal(streamed.reconstructed[sid], buf)
        assert streamed.cross_rack_bytes == eager.cross_rack_bytes
        assert streamed.intra_rack_bytes == eager.intra_rack_bytes
        assert streamed.bytes_computed_by_node == eager.bytes_computed_by_node
        # The journal the streaming path wrote is structurally valid.
        validate_journal_records(
            JournalReplay.load(tmp_path / "s.jsonl").records
        )

    @settings(max_examples=8, deadline=None)
    @given(
        crash_after=st.integers(5, 80),
        window=st.sampled_from([1, 3, 7]),
    )
    def test_crash_mid_window_then_resume_is_byte_identical(
        self, crash_after, window
    ):
        import tempfile

        state, event = failed_cluster(seed=13, stripes=18)
        eager = PlanExecutor(state).execute(
            plan_recovery(state, event, sol := CarStrategy().solve(state)),
            sol,
        )
        with tempfile.TemporaryDirectory() as td:
            jp = os.path.join(td, "crash.jsonl")
            session = RecoverySession(
                state, event, CarStrategy(), jp,
                window=window,
                crash_after_records=crash_after,
            )
            try:
                out = session.run()
            except CoordinatorCrashError:
                # Resume until the session completes (resume itself is
                # fault-free: crash_after_records applies per session
                # object, and we build a fresh one).
                out = RecoverySession(
                    state, event, CarStrategy(), jp,
                    window=window,
                ).resume()
            assert out.verified
            assert out.per_stripe_ok == eager.per_stripe_ok
            for sid, buf in eager.reconstructed.items():
                assert np.array_equal(out.reconstructed[sid], buf)
            # Whole-session accounting also matches the uninterrupted
            # run: committed stripes charge once, from their records.
            assert out.cross_rack_bytes == eager.cross_rack_bytes
            assert out.intra_rack_bytes == eager.intra_rack_bytes

    def test_streaming_journal_resumes_on_eager_path(self, tmp_path):
        state, event = failed_cluster(seed=17, stripes=18)
        jp = tmp_path / "x.jsonl"
        with pytest.raises(CoordinatorCrashError):
            RecoverySession(
                state, event, CarStrategy(), jp,
                window=4, crash_after_records=25,
            ).run()
        out = RecoverySession(state, event, CarStrategy(), jp).resume()
        assert out.verified


class TestSharedChunkStore:
    def test_round_trip_and_views(self):
        state, _ = failed_cluster(seed=2, stripes=6)
        with SharedChunkStore.from_datastore(state.data) as shared:
            store = shared.store()
            assert store.num_stripes == state.data.num_stripes
            assert store.chunk_size == state.data.chunk_size
            for stripe in range(state.data.num_stripes):
                for idx in range(state.code.k + state.code.m):
                    assert np.array_equal(
                        store.chunk(stripe, idx),
                        state.data.chunk(stripe, idx),
                    )
                    assert store.matches(
                        stripe, idx, state.data.chunk(stripe, idx)
                    )

    def test_attach_maps_same_bytes(self):
        state, _ = failed_cluster(seed=2, stripes=4)
        shared = SharedChunkStore.from_datastore(state.data)
        try:
            attached = SharedChunkStore.attach(shared.handle)
            try:
                assert np.array_equal(
                    attached.store().chunk(0, 0), state.data.chunk(0, 0)
                )
            finally:
                attached.close()
        finally:
            shared.close()

    def test_views_are_read_only(self):
        state, _ = failed_cluster(seed=2, stripes=4)
        with SharedChunkStore.from_datastore(state.data) as shared:
            buf = shared.store().chunk(0, 0)
            with pytest.raises(ValueError):
                buf[0] = 1

    def test_unknown_chunk_raises(self):
        state, _ = failed_cluster(seed=2, stripes=4)
        with SharedChunkStore.from_datastore(state.data) as shared:
            store = shared.store()
            with pytest.raises(UnknownChunkError):
                store.chunk(99, 0)
            with pytest.raises(UnknownChunkError):
                store.chunk(0, 99)

    def test_close_is_idempotent(self):
        state, _ = failed_cluster(seed=2, stripes=4)
        shared = SharedChunkStore.from_datastore(state.data)
        shared.close()
        shared.close()  # no-op
        shared.unlink()  # alias, also a no-op now


class TestStreamingHelpers:
    def test_windows_partition_in_order(self):
        chunks = list(windows(iter(range(10)), 4))
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_repair_signature_batches_equal_repairs(self):
        state, _ = failed_cluster(seed=4)
        sol = CarStrategy().solve(state)
        for s in sol.solutions:
            assert repair_signature(s, True) == repair_signature(s, True)
        a, b = sol.solutions[0], sol.solutions[1]
        if (a.lost_chunk, a.helpers) != (b.lost_chunk, b.helpers):
            assert repair_signature(a, False) != repair_signature(b, False)
