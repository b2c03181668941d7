"""The three offline repair workloads: one failed node, one CAR repair.

``many-stripes``
    CFS3, 10k stripes of 4 KiB, streaming plan and execute.  Per-stripe
    work dominates: solve, planning, executor accounting and about 3.6
    small kernel calls per stripe.  (10k rather than 20k stripes: twice
    the repairs per run, which steadies the median on a host whose
    speed swings.)  Not pipelined: its 4 KiB kernels hold the GIL, so
    on two cores the second thread gains nothing and its hand-offs
    spread the repair times (README.md).
``large-chunks``
    CFS3 at the paper's 100 stripes per seed with 1 MiB chunks, three
    seeds per run, streaming execute plus the fluid simulator on the
    same solution.  GF bytes dominate execution; the only workload that
    runs ``repro.sim`` and ``repro.network``.
``durable-crash-resume``
    CFS2, 3000 stripes of 32 KiB, a journalled ``RecoverySession`` on
    its default eager robust-executor path (integrity checks on), a
    coordinator crash at the middle journal record, then ``resume()``.

Every run fails node 0 (rack 0, the largest rack of both configs), so
the failed rack does not vary with the seed.  One repair runs from the
failure event to the last rebuilt chunk compared byte-for-byte with the
data store, and is checked against the solution's own counters; a run
repeats the same inputs, and any exact counter that differs between
repetitions aborts it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from common import (
    KiB, MB, MiB, CheckFailed, check, check_counters, fresh_dir, median,
    peak_rss_mb, reset_peak_rss, xor_roofline_mbps,
)
from layers import common_metrics, install, shares
from spans import SpanRecorder

VICTIM = 0


@dataclass
class Outcome:
    """One repair: wall time, rebuilt bytes and what must repeat exactly."""

    wall: float
    stripes: int
    rebuilt: int
    wrong: int
    exact: dict
    times: dict = field(default_factory=dict)
    solution: object = None
    event: object = None


class StreamingRepair:
    """CAR through ``plan_recovery_streaming`` + ``execute_streaming``."""

    def __init__(self, name, config, stripes, chunk, inputs, simulate=False,
                 pipelined=True):
        self.name = name
        self.config = config
        self.stripes = stripes
        self.chunk = chunk
        self._inputs = inputs
        self.simulate = simulate
        self.pipelined = pipelined

    def inputs(self, seed: int) -> list[int]:
        return self._inputs(seed)

    def build(self, seed: int):
        from repro.experiments.configs import build_state

        return build_state(self.config, seed, with_data=True,
                           chunk_size=self.chunk, num_stripes=self.stripes)

    def prepare(self, state) -> None:
        pass

    def repair(self, state, recorder=None) -> Outcome:
        from repro.recovery.baselines import CarStrategy
        from repro.recovery.executor import PlanExecutor
        from repro.recovery.planner import plan_recovery_streaming

        data = state.data
        t0 = perf_counter()
        event = state.fail_node(VICTIM)
        lost = dict(event.lost_chunks)
        seen: dict[int, bool] = {}

        def sink(stripe, rebuilt, ok):
            seen[stripe] = bool(np.array_equal(rebuilt, data.chunk(stripe, lost[stripe])))

        if recorder is not None:
            sink = recorder.wrap("bench.verify", sink)
        strategy = CarStrategy()
        solution = strategy.solve(state)
        plan = plan_recovery_streaming(state, event, solution)
        result = PlanExecutor(state).execute_streaming(
            plan, None, sink=sink, pipelined=self.pipelined)
        wall = perf_counter() - t0
        state.heal()
        check(seen.keys() == lost.keys(), "a lost stripe was not delivered")
        return Outcome(
            wall=wall, stripes=len(lost), rebuilt=len(lost) * self.chunk,
            wrong=sum(not ok for ok in seen.values()),
            exact=check_counters(solution, strategy, result.cross_rack_bytes,
                                 self.chunk),
            solution=solution, event=event,
        )

    def extra(self, state, out: Outcome) -> tuple[dict, dict]:
        """The fluid-simulated repair time of the same solution (twice)."""
        if not self.simulate:
            return {}, {}
        from repro.recovery.planner import plan_recovery
        from repro.sim.recovery_sim import RecoverySimulator

        solution, event = out.solution, out.event
        state.fail_node(VICTIM)
        models, walls = [], []
        for _ in range(2):
            t0 = perf_counter()
            plan = plan_recovery(state, event, solution)
            timing = RecoverySimulator(state).simulate(plan, self.chunk)
            walls.append(perf_counter() - t0)
            models.append(timing.total_time)
        state.heal()
        check(models[0] == models[1], "simulated repair time is not repeatable")
        return {"model_repair_s": models[0]}, {"simulate_s": walls}


class DurableRepair:
    """Journalled session, crash at the middle journal record, resume."""

    name = "durable-crash-resume"
    chunk = 32 * KiB
    stripes = 3000
    simulate = False

    def __init__(self):
        from repro.experiments.configs import CFS2

        self.config = CFS2
        self.mid = None
        self.reference = None

    def inputs(self, seed: int) -> list[int]:
        return [seed] * 3

    def build(self, seed: int):
        from repro.experiments.configs import build_state

        return build_state(self.config, seed, with_data=True,
                           chunk_size=self.chunk, num_stripes=self.stripes)

    def prepare(self, state) -> None:
        """Untimed, once per run (every build has the same seed): count
        an uninterrupted session's journal records, and keep the CAR
        solution the counters are checked against."""
        if self.mid is not None:
            return
        from repro.durable.session import RecoverySession
        from repro.recovery.baselines import CarStrategy

        path = fresh_dir("durable-calibrate") / "journal.jsonl"
        event = state.fail_node(VICTIM)
        result = RecoverySession(state, event, CarStrategy(), path).run()
        strategy = CarStrategy()
        self.reference = (strategy, strategy.solve(state))
        state.heal()
        check(result.verified, "uninterrupted durable session did not verify")
        with open(path, "rb") as fh:
            self.mid = sum(1 for _ in fh) // 2

    def repair(self, state, recorder=None) -> Outcome:
        from repro.durable.session import RecoverySession
        from repro.errors import CoordinatorCrashError
        from repro.recovery.baselines import CarStrategy

        path = fresh_dir("durable") / "journal.jsonl"
        data = state.data
        t0 = perf_counter()
        event = state.fail_node(VICTIM)
        lost = dict(event.lost_chunks)
        try:
            RecoverySession(state, event, CarStrategy(), path,
                            crash_after_records=self.mid).run()
            raise CheckFailed("the injected coordinator crash did not fire")
        except CoordinatorCrashError:
            pass
        t_crash = perf_counter()
        resumed = RecoverySession(state, event, CarStrategy(), path).resume()
        t_resumed = perf_counter()
        wrong = sum(
            1 for s, c in lost.items()
            if s not in resumed.reconstructed
            or not np.array_equal(resumed.reconstructed[s], data.chunk(s, c))
        )
        wall = perf_counter() - t0
        state.heal()
        strategy, solution = self.reference
        replayed, executed = set(resumed.replayed), set(resumed.executed)
        check(replayed and executed and not replayed & executed
              and replayed | executed == lost.keys(),
              "resume did not split the stripes into replayed + executed")
        exact = check_counters(solution, strategy, resumed.cross_rack_bytes,
                               self.chunk)
        by_id = {s.stripe_id: s for s in solution}
        live_expected = sum(
            len(by_id[s].intact_racks_accessed) for s in executed) * self.chunk
        check(resumed.live_cross_rack_bytes == live_expected,
              f"resume shipped {resumed.live_cross_rack_bytes} cross-rack "
              f"bytes, its pending stripes need {live_expected}")
        reshipped = _reshipped_cross_transfers(path) * self.chunk
        check(reshipped == 0,
              f"resume re-shipped {reshipped} cross-rack bytes of committed "
              "stripes")
        size = path.stat().st_size
        with open(path, "rb") as fh:
            records = sum(1 for _ in fh)
        exact.update(reshipped=reshipped, journal_bytes=size,
                     journal_records=records,
                     journal_per_rebuilt=size / (len(lost) * self.chunk))
        return Outcome(
            wall=wall, stripes=len(lost), rebuilt=len(lost) * self.chunk,
            wrong=wrong, exact=exact,
            times={"resume_s": t_resumed - t_crash},
        )

    def extra(self, state, out):
        return {}, {}


def _reshipped_cross_transfers(path) -> int:
    """Cross-rack payloads logged after a resume for already-committed stripes."""
    from repro.durable.journal import read_journal

    committed: set[int] = set()
    reshipped = 0
    resumed = False
    for r in read_journal(path):
        if r["rec"] == "resume":
            resumed = True
        elif r["rec"] == "commit" and not resumed:
            committed.add(r["stripe_id"])
        elif (resumed and r["rec"] == "stage"
              and r["stage"] == "cross_transfer"
              and r["stripe_id"] in committed):
            reshipped += 1
    return reshipped


def _workloads():
    from repro.experiments.configs import CFS3

    return {
        "many-stripes": lambda: StreamingRepair(
            "many-stripes", CFS3, 10_000, 4 * KiB, lambda s: [s] * 3,
            pipelined=False),
        "large-chunks": lambda: StreamingRepair(
            "large-chunks", CFS3, 100, MiB,
            lambda s: [3 * s + i for i in range(3)], simulate=True),
        "durable-crash-resume": DurableRepair,
    }


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mbps: list[float] = []
        self.walls: list[float] = []
        self.exact: dict[int, dict] = {}
        self.times: dict[str, list] = {}

    def add(self, seed: int, out: Outcome, timed: bool = True) -> None:
        self.attempted += out.stripes
        self.failed += out.wrong
        if timed:
            self.mbps.append(out.rebuilt / out.wall / MB)
            self.walls.append(out.wall)
            for key, value in out.times.items():
                self.times.setdefault(key, []).append(value)
        first = self.exact.setdefault(seed, out.exact)
        check(first == out.exact,
              f"exact counters changed between repetitions of seed {seed}: "
              f"{first} vs {out.exact}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = _workloads()[workload]()
    return (_run_traced if trace else _run_untraced)(w, seed, seconds)


def _run_untraced(w, seed: int, seconds: float) -> dict:
    """Each build gets an equal share of ``seconds`` of repeated repairs.

    The first repair after a build is the warm-up: it gives the peak-RSS
    sample and is checked like every other, but its wall time (first-use
    allocations, cold caches) stays out of the timed median.
    """
    tally = _Tally()
    setups, rss = [], []
    extra_exact: dict[int, dict] = {}
    inputs = w.inputs(seed)
    share = seconds / len(inputs)
    state = None
    for sub in inputs:
        state = None
        gc.collect()
        t0 = perf_counter()
        state = w.build(sub)
        setups.append(perf_counter() - t0)
        w.prepare(state)
        gc.collect()
        base = reset_peak_rss()
        out = w.repair(state)
        rss.append(peak_rss_mb() - base)
        tally.add(sub, out, timed=False)
        exact, times = w.extra(state, out)
        extra_exact[sub] = exact
        for key, values in times.items():
            tally.times.setdefault(key, []).extend(values)
        spent = out.wall
        # At least one timed repair; another starts only if it should
        # end near the share.
        while True:
            out = w.repair(state)
            tally.add(sub, out)
            spent += out.wall
            if spent + out.wall / 2 >= share:
                break
    exacts = list(tally.exact.values())
    metrics = {
        "setup_s": (median(setups), "s"),
        "cross_rack_bytes": (sum(e["cross"] for e in exacts), "B"),
        "load_balance_rate": (
            sum(e["lambda"] for e in exacts) / len(exacts), "ratio"),
        "repair_MBps": (median(tally.mbps), "MB/s"),
    }
    detail = {
        "fail_rate": tally.failed / tally.attempted,
        "repair_rss_MB": median(rss),
        "repairs": len(tally.mbps),
        "builds": len(setups),
        "repair_s": median(tally.walls),
    }
    if w.simulate:
        detail["model_repair_s"] = sum(
            e["model_repair_s"] for e in extra_exact.values())
        detail["simulate_s"] = median(tally.times["simulate_s"])
    if "resume_s" in tally.times:
        e = exacts[0]
        detail.update(
            resume_s=median(tally.times["resume_s"]),
            reshipped_cross_rack_bytes=e["reshipped"],
            journal_bytes_per_rebuilt_byte=e["journal_per_rebuilt"],
        )
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "detail": detail}


def _run_traced(w, seed: int, seconds: float) -> dict:
    """Per-layer metrics from traced repairs of the run's first input.

    After one warm-up repair, untraced and traced repairs alternate on
    one state, so the tracing overhead compares like with like.
    """
    sub = w.inputs(seed)[0]
    recorder = SpanRecorder()
    install(recorder, w.name)
    try:
        state = w.build(sub)
    finally:
        recorder.close()
    w.prepare(state)
    tally = _Tally()
    plain: list[float] = []
    traced: list[Outcome] = []
    w.repair(state)  # warm-up: first-use allocations and caches
    t_start = perf_counter()
    while not traced or perf_counter() - t_start < seconds:
        plain.append(w.repair(state).wall)
        install(recorder, w.name)
        recorder.run = "repair"
        try:
            out = w.repair(state, recorder)
        finally:
            recorder.close()
        tally.add(sub, out)
        traced.append(out)
    if w.simulate:
        install(recorder, w.name)
        recorder.run = "sim"
        try:
            w.extra(state, traced[0])
        finally:
            recorder.close()
    summary = {run: recorder.summary(run) for run in ("setup", "repair", "sim")}
    reps = len(traced)
    wall = sum(o.wall for o in traced) / reps
    stripes = traced[0].stripes
    e = traced[0].exact
    metrics = common_metrics(
        summary, stripes=stripes, reps=reps, repair_wall=wall,
        balance_moves=e["moves"],
        xor_mbps=xor_roofline_mbps(state.code.k, w.chunk),
        overhead=median([o.wall for o in traced]) / median(plain),
    )
    detail = {"traced_repairs": reps, "untraced_repairs": len(plain),
              "repair_shares": shares(summary["repair"], wall, reps)}
    rep = summary["repair"]
    if w.simulate:
        sim = summary["sim"]
        calls = sim["sim.simulate"]["calls"]
        detail.update({
            "sim.simulate_s": sim["sim.simulate"]["total"] / calls,
            "sim.tasks": sim["sim.build_tasks"]["value"] / calls,
            "network.run_s": sim["network.run"]["total"] / calls,
        })
    if "journal_records" in e:
        commit = rep["durable.commit"]
        crc = rep["durable.crc"]
        detail.update({
            "durable.journal_records": e["journal_records"],
            "durable.journal_bytes": e["journal_bytes"],
            "durable.commit_us": commit["total"] / commit["calls"] * 1e6,
            "durable.crc_MBps": crc["value"] / crc["total"] / MB,
            "durable.replay_s": rep["durable.replay"]["total"] / reps,
        })
    return {"attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "detail": detail, "spans": recorder}
