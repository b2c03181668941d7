"""Where the traced run wraps the program, and what it derives from spans.

Each entry wraps one public function of a layer at the place its caller
binds it, so only the benchmark's own files change what runs.  The
span names are the layer prefixes of the per-layer metrics.
"""

from __future__ import annotations


def _nbytes_of(index: int):
    """Span value: total bytes of the buffers in positional arg ``index``."""
    return lambda args, kwargs, result: float(sum(b.nbytes for b in args[index]))


def _buffer_bytes(args, kwargs, result) -> float:
    buf = args[0]
    return float(getattr(buf, "nbytes", len(buf)))


def install(recorder, workload: str) -> None:
    """Patch every layer ``workload`` exercises into ``recorder``."""
    from repro.cluster.placement import RandomPlacementPolicy
    from repro.durable import checksum, session
    from repro.durable.journal import JournalReplay, RecoveryJournal
    from repro.erasure import repair, rs
    from repro.erasure.rs import RSCode
    from repro.faults import robust
    from repro.faults.robust import RobustExecutor
    from repro.recovery import executor, streaming
    from repro.recovery.baselines import CarStrategy
    from repro.recovery.executor import PlanExecutor
    from repro.recovery.planner import StreamingRecoveryPlan

    p = recorder.patch
    p(RandomPlacementPolicy, "place", "cluster.place")
    p(RSCode, "encode_stripe", "erasure.encode", value=_nbytes_of(1))
    p(CarStrategy, "solve", "recovery.solve")
    p(StreamingRecoveryPlan, "iter_stripe_plans", "recovery.plan", kind="iter")
    p(session, "plan_recovery", "recovery.plan")
    p(robust, "plan_recovery", "recovery.plan")
    p(PlanExecutor, "execute_streaming", "recovery.execute", adopt=True)
    p(RobustExecutor, "run", "recovery.execute", adopt=True)
    # The kernel as the repair path binds it.  The service's degraded
    # reads reach it through repro.erasure.repair too; on the live
    # workload those calls are timed as service.decode instead.
    kernel_modules = [streaming, rs]
    if workload != "live-degraded-reads":
        kernel_modules.append(repair)
    for module in kernel_modules:
        p(module, "dot_rows", "gf.dot_rows", value=_nbytes_of(2))
    p(RecoveryJournal, "stripe_commit", "durable.commit")
    p(executor, "chunk_checksum", "durable.crc", value=_buffer_bytes)
    p(checksum, "chunk_checksum", "durable.crc", value=_buffer_bytes)
    p(JournalReplay, "load", "durable.replay")
    if workload == "large-chunks":
        from repro.network.simulator import FluidNetworkSimulator
        from repro.sim import recovery_sim
        from repro.sim.recovery_sim import RecoverySimulator

        p(RecoverySimulator, "simulate", "sim.simulate")
        p(recovery_sim, "build_tasks", "sim.build_tasks",
          value=lambda a, k, r: float(len(r)))
        p(FluidNetworkSimulator, "run", "network.run")
    if workload == "live-degraded-reads":
        from repro.service import coordinator
        from repro.service.admission import AdmissionController
        from repro.service.protocol import MsgType
        from repro.service.repair import RepairGovernor

        def _is_fetch(args, kwargs, result):
            return 1.0 if args[1].get("type") == MsgType.READ_CHUNK else 0.0

        p(coordinator, "execute_partial_decode", "service.decode")
        p(coordinator, "combine_partials", "service.decode")
        # write_frame only: a read_frame span would include the idle
        # wait for a connection's next request.
        p(coordinator, "write_frame", "service.frame", kind="async",
          value=_is_fetch)
        p(AdmissionController, "client_delay", "service.admission",
          value=lambda a, k, r: float(r))
        p(RepairGovernor, "update", "service.pace")


def common_metrics(summary: dict, *, stripes: int, reps: int,
                   repair_wall: float, balance_moves: int,
                   xor_mbps: float, overhead: float) -> dict:
    """The per-layer metrics every workload reports.

    ``summary`` holds the traced repairs' spans (see
    :meth:`SpanRecorder.summary`) plus the set-up spans under the
    ``setup`` key; ``stripes`` and ``repair_wall`` are per traced repair.
    """
    setup = summary["setup"]
    rep = summary["repair"]

    def get(s, name, key):
        return s.get(name, {}).get(key, 0.0)

    kernel_s = get(rep, "gf.dot_rows", "total")
    kernel_mbps = get(rep, "gf.dot_rows", "value") / kernel_s / 1e6
    return {
        "cluster.place_s": (
            get(setup, "cluster.place", "total")
            / get(setup, "cluster.place", "calls"), "s"),
        "erasure.encode_MBps": (
            get(setup, "erasure.encode", "value")
            / get(setup, "erasure.encode", "total") / 1e6, "MB/s"),
        "recovery.solve_s": (get(rep, "recovery.solve", "total") / reps, "s"),
        "recovery.balance_moves": (balance_moves, "count"),
        "recovery.plan_us_per_stripe": (
            get(rep, "recovery.plan", "total") / (stripes * reps) * 1e6, "us"),
        "recovery.execute_us_per_stripe": (
            get(rep, "recovery.execute", "self") / (stripes * reps) * 1e6,
            "us"),
        "gf.dot_rows_MBps": (kernel_mbps, "MB/s"),
        "gf.dot_rows_share": (kernel_s / (repair_wall * reps), "ratio"),
        "gf.calls_per_stripe": (
            get(rep, "gf.dot_rows", "calls") / (stripes * reps), "count"),
        "numpy.xor_MBps": (xor_mbps, "MB/s"),
        "gf.roofline_fraction": (kernel_mbps / xor_mbps, "ratio"),
        "obs.trace_overhead": (overhead, "ratio"),
    }


def shares(rep: dict, repair_wall: float, reps: int) -> dict:
    """Share of traced repair wall time per layer (self time; detail only)."""
    wall = repair_wall * reps
    return {
        name: round(agg["self"] / wall, 4)
        for name, agg in sorted(rep.items())
        if agg["self"] / wall >= 0.001
    }
