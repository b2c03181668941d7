"""``live-degraded-reads``: open-loop degraded reads against a live repair.

An in-process :class:`~repro.service.cluster.LocalCluster` (CFS2, real
localhost sockets, modelled link) loses node 0.  Once the failure
detector declares it dead and the background CAR repair starts, one
open-loop generator sends degraded reads of the lost stripes at a few
fixed rates over a pool of two :class:`ServiceClient` connections.  A
read that finds both connections busy waits for one, and every latency
is taken from the moment the read was *due*, so a stall shows in the
reads behind it.  The repair's bandwidth cap is sized from the repair's
own cross-rack bytes so that it outlasts the reads.

Every read's bytes are compared with the data store's ground truth; a
wrong or errored read is counted as failed (and as missing the latency
limit), never raised.  The repair's rebuilt chunks are checked the same
way after it ends.
"""

from __future__ import annotations

import asyncio
import random
from time import perf_counter

import numpy as np

from common import (
    KiB, MB, check, check_counters, fresh_dir, median, peak_rss_mb, quantile,
    reset_peak_rss, xor_roofline_mbps,
)
from layers import common_metrics, install, shares
from spans import SpanRecorder

STRIPES = 600
CHUNK = 32 * KiB
VICTIM = 0
CONNECTIONS = 2
#: Modelled seconds per wall second.  Moderate on purpose: at 1000x the
#: heartbeat leases of live nodes expire under load and reads fail for
#: want of survivors.
SPEEDUP = 10.0
#: Reads per second, one phase each, in this order.  The reference
#: phase (whose latencies are read_p50_ms / read_p99_ms) gets half of
#: the read time, so its p99 rests on about a thousand reads.
RATES = (50, 100, 200, 400, 800)
REFERENCE_RATE = 200
#: Latency limit on p99, from the due time, in ms.
SLO_MS = 50.0
#: The repair is paced to last this many times the read phases.
REPAIR_STRETCH = 1.25
SETUPS = 3


def _phase_seconds(seconds: float) -> list[float]:
    others = len(RATES) - 1
    return [seconds / 2 if r == REFERENCE_RATE else seconds / 2 / others
            for r in RATES]


def _probe_cross_bytes(seed: int) -> int:
    """Cross-rack bytes of the CAR repair of node VICTIM (sizes the cap)."""
    from repro.experiments.configs import CFS2, build_state
    from repro.recovery.baselines import CarStrategy

    probe = build_state(CFS2, seed=seed, num_stripes=STRIPES)
    probe.fail_node(VICTIM)
    return CarStrategy().solve(probe).total_cross_rack_traffic() * CHUNK


async def _read_phase(pool, truth, stripes, rate, duration, rng):
    """One fixed-rate open-loop phase: ``(due, end, lag, status)`` per read."""
    start = perf_counter() + 0.005
    records = []

    async def one(stripe, due, lag):
        client = await pool.get()
        status = "ok"
        try:
            reply = await client.read(stripe)
            got = np.frombuffer(reply["data"], dtype=np.uint8)
            if not np.array_equal(got, truth(stripe, reply["chunk"])):
                status = "wrong"
        except Exception as exc:  # noqa: BLE001 - an errored read is a result
            status = f"error: {exc}"
        finally:
            pool.put_nowait(client)
        records.append((due, perf_counter(), lag, status))

    tasks = []
    for i in range(max(1, int(rate * duration))):
        due = start + i / rate
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        stripe = stripes[rng.randrange(len(stripes))]
        tasks.append(asyncio.create_task(
            one(stripe, due, max(0.0, perf_counter() - due))))
    await asyncio.gather(*tasks)
    return records


def _phase_stats(rate, records, phase_end):
    # A failed read misses the latency limit: it ranks as +inf.
    ranked = [(end - due) * 1e3 if status == "ok" else float("inf")
              for due, end, _, status in records]
    p99 = quantile(ranked, 0.99)
    overrun_ms = (max(r[1] for r in records) - phase_end) * 1e3
    return {
        "rate": rate,
        "reads": len(records),
        "failed": sum(1 for r in records if r[3] != "ok"),
        "p50_ms": quantile(ranked, 0.50),
        "p99_ms": p99,
        "lag_p99_ms": quantile([r[2] * 1e3 for r in records], 0.99),
        # No growing backlog: the last read ends within the limit of
        # the phase's end.
        "meets_slo": p99 <= SLO_MS and overrun_ms <= SLO_MS,
    }


async def _session(seed: int, seconds: float, recorder=None) -> dict:
    from repro.service.cluster import LocalCluster

    # Modelled bytes per modelled second.
    cap = _probe_cross_bytes(seed) / (REPAIR_STRETCH * seconds * SPEEDUP)
    workdir = fresh_dir("live")
    setups = []
    cluster = None
    for _ in range(SETUPS):
        cluster = None  # let the previous build go before the next
        t0 = perf_counter()
        cluster = LocalCluster(
            config="CFS2", seed=seed, num_stripes=STRIPES, chunk_size=CHUNK,
            chunkservers=3, workdir=workdir, speedup=SPEEDUP, repair_cap=cap,
        )
        setups.append(perf_counter() - t0)
    if recorder is not None:
        recorder.run = "repair"
    truth = cluster.state.data.chunk
    rng = random.Random(seed)
    await cluster.start()
    clients = [await cluster.client() for _ in range(CONNECTIONS)]
    pool: asyncio.Queue = asyncio.Queue()
    for c in clients:
        pool.put_nowait(c)
    try:
        base_rss = reset_peak_rss()
        t_kill = perf_counter()
        cluster.kill_node(VICTIM)
        while cluster.coordinator.repair is None:
            check(perf_counter() - t_kill < 30, "node death never detected")
            await asyncio.sleep(0.002)
        t_detect = perf_counter()
        stripes = sorted(cluster.state.affected_stripes())
        phases = []
        for rate, duration in zip(RATES, _phase_seconds(seconds)):
            if recorder is None:
                records = await _read_phase(
                    pool, truth, stripes, rate, duration, rng)
            else:
                # Keeps the loop thread's spans off the repair's stack.
                with recorder.span("bench.reads"):
                    records = await _read_phase(
                        pool, truth, stripes, rate, duration, rng)
            phases.append(_phase_stats(rate, records, perf_counter()))
        repair = cluster.coordinator.repair
        outlasted = not repair.done.is_set()
        finished = await asyncio.to_thread(repair.join, 120.0)
        t_done = perf_counter()
        check(finished, "service repair did not finish within 120 s")
        rss = peak_rss_mb() - base_rss
    finally:
        for c in clients:
            await c.close()
        await cluster.stop()
    check(repair.result is not None,
          f"service repair ended without a result: "
          f"{repair.error or repair.crash}")
    result = repair.result
    lost = dict(cluster.state.placement.chunks_on_node(VICTIM))
    check(lost.keys() == result.per_stripe_ok.keys(),
          "service repair did not cover every lost stripe")
    wrong_stripes = sum(
        1 for s, c in lost.items()
        if not np.array_equal(result.reconstructed[s], truth(s, c)))
    exact = check_counters(result.robust.final_solution,
                           cluster.coordinator.strategy,
                           result.cross_rack_bytes, CHUNK)
    ref = next(p for p in phases if p["rate"] == REFERENCE_RATE)
    meeting = [p["rate"] for p in phases if p["meets_slo"]]
    return {
        "setups": setups,
        "cross": exact["cross"],
        "lambda": exact["lambda"],
        "moves": exact["moves"],
        "repair_s": t_done - t_kill,
        "rebuilt": len(lost) * CHUNK,
        "rss": rss,
        "stripes": len(lost),
        "wrong_stripes": wrong_stripes,
        "reads": sum(p["reads"] for p in phases),
        "reads_failed": sum(p["failed"] for p in phases),
        "degraded_reads": cluster.coordinator.degraded_reads,
        "detail": {
            "read_p50_ms": ref["p50_ms"],
            "read_p99_ms": ref["p99_ms"],
            "read_p99_samples": ref["reads"],
            "read_rate_at_slo": max(meeting) if meeting else 0,
            "slo_p99_ms": SLO_MS,
            "service_repair_s": t_done - t_kill,
            "service.generator_lag_ms": max(p["lag_p99_ms"] for p in phases),
            "detect_s": t_detect - t_kill,
            "repair_verified": bool(result.verified),
            "repair_outlasted_reads": outlasted,
            "failed_reads": sum(p["failed"] for p in phases),
            "wrong_stripes": wrong_stripes,
            "phases": phases,
        },
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        return _run_traced(seed, seconds)
    s = asyncio.run(_session(seed, seconds))
    attempted = s["reads"] + s["stripes"]
    failed = s["reads_failed"] + s["wrong_stripes"]
    metrics = {
        "setup_s": (median(s["setups"]), "s"),
        "cross_rack_bytes": (s["cross"], "B"),
        "load_balance_rate": (s["lambda"], "ratio"),
        "repair_MBps": (s["rebuilt"] / s["repair_s"] / MB, "MB/s"),
    }
    detail = {"fail_rate": failed / attempted, "repair_rss_MB": s["rss"],
              **s["detail"]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": detail}


def _run_traced(seed: int, seconds: float) -> dict:
    """An untraced and a traced session, each on half the read time."""
    half = seconds / 2
    plain = asyncio.run(_session(seed, half))
    recorder = SpanRecorder()
    install(recorder, "live-degraded-reads")
    try:
        s = asyncio.run(_session(seed, half, recorder))
    finally:
        recorder.close()
    check(s["cross"] == plain["cross"] and s["lambda"] == plain["lambda"],
          "traced and untraced service repairs differ in exact counters")
    summary = {run: recorder.summary(run) for run in ("setup", "repair")}
    rep = summary["repair"]
    metrics = common_metrics(
        summary, stripes=s["stripes"], reps=1, repair_wall=s["repair_s"],
        balance_moves=s["moves"], xor_mbps=xor_roofline_mbps(6, CHUNK),
        overhead=s["repair_s"] / plain["repair_s"],
    )
    frames = rep.get("service.frame", {"calls": 0, "total": 0.0, "value": 0})
    decode = rep.get("service.decode", {"total": 0.0})
    admission = rep.get("service.admission", {"calls": 0, "value": 0.0})
    reads = max(1, s["degraded_reads"])
    detail = {
        "service.fetches_per_read": frames["value"] / reads,
        "service.frame_us": frames["total"] / max(1, frames["calls"]) * 1e6,
        "service.decode_ms": decode["total"] / reads * 1e3,
        "service.admission_delay_ms": (
            admission["value"] / max(1, admission["calls"]) * 1e3),
        "service.repair_windows": rep.get("service.pace", {"calls": 0})["calls"],
        "service.generator_lag_ms": s["detail"]["service.generator_lag_ms"],
        "repair_shares": shares(rep, s["repair_s"], 1),
    }
    return {"attempted": s["reads"] + s["stripes"],
            "failed": s["reads_failed"] + s["wrong_stripes"],
            "metrics": metrics, "detail": detail, "spans": recorder}
