"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    repro-car fig7                 # cross-rack traffic (Figure 7)
    repro-car fig8 --runs 10       # load balancing (Figure 8), 10 runs
    repro-car fig9 --runs 3        # recovery time (Figure 9)
    repro-car fig10                # time breakdown (Figure 10)
    repro-car ablation             # traffic decomposition + sweeps
    repro-car all --runs 5         # everything, fast settings

Telemetry::

    repro-car fig7 --runs 2 --telemetry out/   # persist trace + metrics
    repro-car trace out/CFS1/trace.jsonl       # per-stage/per-rack summary
    repro-car metrics out/CFS1/metrics.json    # counters/histograms/caches

Durability::

    repro-car scrub --config CFS2 --corrupt 3     # corrupt, detect, heal
    repro-car durable out/journal.jsonl           # journalled recovery
    repro-car durable out/journal.jsonl --crash-after 9   # ...then crash
    repro-car resume out/journal.jsonl            # resume from the journal
    repro-car durable out/journal.jsonl --window 32 --progress

Streaming hot path::

    repro-car stream --stripes 5000               # throughput + peak RSS
    repro-car stream --workers 2 --shm            # zero-copy worker fan-out
    repro-car stream --json out/stream.json       # machine-readable artifact
    repro-car stream --telemetry out/ --progress  # trace + live status line

Observatory::

    repro-car report out/trace.jsonl              # per-stage attribution
    repro-car export out/trace.jsonl --out t.json # Perfetto-loadable trace
    repro-car export out/trace.jsonl --folded t.folded  # flamegraph stacks

Service::

    repro-car serve out/                          # live cluster, one failure
    repro-car serve out/ --repair-cap 65536       # cap repair bandwidth
    repro-car serve out/ --crash-after 18         # crash; re-run resumes
    repro-car bench-service out/                  # repair-cap sweep table
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import CoordinatorCrashError

from repro.experiments import (
    ALL_CFS,
    CFS1,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_greedy_vs_optimal,
    run_oversubscription_sweep,
    run_traffic_ablation,
)
from repro.experiments.report import (
    render_fig7,
    render_fig8,
    render_fig9,
    render_fig10,
    render_greedy_vs_optimal,
    render_oversubscription,
    render_traffic_ablation,
)

__all__ = ["main", "build_parser", "SUBCOMMANDS"]

#: Every subcommand with its one-line description.  This registry is the
#: single source of truth: it drives the parser's ``choices``, the
#: ``--help`` epilog, and the CLI table in ``docs/API.md``
#: (``tools/gen_api_docs.py``) — so the three can never disagree.
SUBCOMMANDS: dict[str, str] = {
    "fig7": "cross-rack traffic vs chunk size (Figure 7)",
    "fig8": "load balancing: lambda vs greedy iterations (Figure 8)",
    "fig9": "recovery time vs chunk size on the fluid model (Figure 9)",
    "fig10": "recovery time breakdown by stage (Figure 10)",
    "ablation": "traffic decomposition, oversubscription, greedy-vs-optimal",
    "landscape": "repair cost per lost chunk across erasure-code schemes",
    "longrun": "90-day failure-trace replay (repairs, traffic, lambda)",
    "degraded": "degraded-read latency distributions (CAR vs RR)",
    "regen": "regenerating-code sweep (rack-aware MSR, piggybacked RS)",
    "all": "every figure/experiment above at fast settings",
    "trace": "summarise a recorded trace.jsonl (stages, racks, spans)",
    "metrics": "summarise a recorded metrics.json snapshot",
    "report": "per-stage/per-rack bottleneck attribution for a trace",
    "export": "convert a trace to Chrome/Perfetto JSON or flamegraph stacks",
    "scrub": "corrupt chunks, then detect and heal them (integrity pass)",
    "durable": "journalled, crash-resumable recovery run",
    "resume": "resume a crashed durable recovery from its journal",
    "stream": "streaming recovery throughput + peak-RSS measurement",
    "serve": "boot a live in-process cluster, fail a node, repair it",
    "bench-service": "sweep repair-bandwidth caps on the live service",
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    epilog_lines = ["subcommands:"]
    epilog_lines += [
        f"  {name:<14} {desc}" for name, desc in SUBCOMMANDS.items()
    ]
    parser = argparse.ArgumentParser(
        prog="repro-car",
        description=(
            "Reproduce the evaluation of 'Reconsidering Single Failure "
            "Recovery in Clustered File Systems' (DSN 2016)."
        ),
        epilog="\n".join(epilog_lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=list(SUBCOMMANDS),
        metavar="subcommand",
        help="one of the subcommands listed below",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help=(
            "artifact path: a trace.jsonl for 'trace'/'report'/'export', "
            "a metrics.json for 'metrics', the write-ahead journal for "
            "'durable'/'resume', the working directory for "
            "'serve'/'bench-service' (ignored by experiments)"
        ),
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help=(
            "record a span trace and metrics snapshot for experiments "
            "that support it (fig7, regen) into DIR; for 'stream' also "
            "writes a Perfetto-loadable trace.chrome.json, progress "
            "heartbeats, and resource-profile samples"
        ),
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        help="runs to average (defaults per experiment; the paper uses 50)",
    )
    parser.add_argument(
        "--stripes",
        type=int,
        default=None,
        help="stripes per run (paper: 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the base RNG seed"
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        default=False,
        help="append ASCII charts of the series to the tables",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for the experiment runs (default: serial; "
            "results are identical for any worker count)"
        ),
    )
    parser.add_argument(
        "--config",
        choices=["CFS1", "CFS2", "CFS3"],
        default="CFS1",
        help="cluster configuration for 'scrub' and 'durable' (default CFS1)",
    )
    parser.add_argument(
        "--strategy",
        choices=["car", "direct", "rr", "rack-msr"],
        default="car",
        help=(
            "recovery strategy: 'durable' accepts car/direct, "
            "'serve'/'bench-service' accept car/rr/rack-msr (default car)"
        ),
    )
    parser.add_argument(
        "--crash-after",
        dest="crash_after",
        type=int,
        metavar="N",
        default=None,
        help=(
            "inject a coordinator crash after N journal records "
            "('durable'/'resume'); the process exits with status 3 and "
            "the journal is the resume point"
        ),
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="FILE",
        default=None,
        help=(
            "also write the experiment's results as JSON to FILE "
            "(supported by 'regen'; the CI artifact)"
        ),
    )
    parser.add_argument(
        "--corrupt",
        type=int,
        metavar="N",
        default=3,
        help="chunks to silently corrupt before a 'scrub' pass (default 3)",
    )
    parser.add_argument(
        "--window",
        type=int,
        metavar="N",
        default=64,
        help="stripes decoded per batch by the executor (default 64)",
    )
    parser.add_argument(
        "--shm",
        action="store_true",
        default=False,
        help=(
            "share chunk data with 'stream' worker processes through "
            "shared memory (zero-copy) instead of pickling"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        default=False,
        help=(
            "print a live status line to stderr during 'stream', "
            "'durable' and 'resume' runs (stripes/s, windows, "
            "traffic, journal lag, ETA)"
        ),
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help=(
            "output path for 'export' (default: <trace>.chrome.json "
            "next to the input)"
        ),
    )
    parser.add_argument(
        "--folded",
        metavar="FILE",
        default=None,
        help=(
            "also write collapsed-stack flamegraph lines for 'export' "
            "to FILE"
        ),
    )
    parser.add_argument(
        "--clients",
        type=int,
        metavar="N",
        default=3,
        help=(
            "concurrent foreground readers for 'serve'/'bench-service' "
            "(default 3)"
        ),
    )
    parser.add_argument(
        "--repair-cap",
        dest="repair_cap",
        type=int,
        metavar="BYTES_PER_S",
        default=None,
        help=(
            "token-bucket cap on repair bandwidth for 'serve', modelled "
            "bytes/s (default: uncapped — repair still queues on the "
            "shared link)"
        ),
    )
    parser.add_argument(
        "--caps",
        metavar="LIST",
        default=None,
        help=(
            "comma-separated repair caps for 'bench-service', modelled "
            "bytes/s with 'none' for uncapped (default 16384,65536,none)"
        ),
    )
    parser.add_argument(
        "--client-priority",
        dest="client_priority",
        type=float,
        metavar="X",
        default=1.0,
        help=(
            "token multiplier charged to repair bytes while clients are "
            "active ('serve'; >= 1.0, default 1.0 = no preference)"
        ),
    )
    parser.add_argument(
        "--speedup",
        type=float,
        metavar="X",
        default=None,
        help=(
            "modelled seconds per wall second for 'serve'/'bench-service' "
            "(defaults: serve 50, bench-service 10)"
        ),
    )
    return parser


def _kwargs(args: argparse.Namespace, default_runs: int) -> dict:
    kwargs: dict = {"runs": args.runs if args.runs is not None else default_runs}
    if args.stripes is not None:
        kwargs["num_stripes"] = args.stripes
    if args.seed is not None:
        kwargs["base_seed"] = args.seed
    if args.workers is not None:
        kwargs["workers"] = args.workers
    return kwargs


def _maybe_plot(args, results, title, series_of, y_label):
    if not args.plot:
        return ""
    from repro.experiments.plots import series_chart

    charts = [
        series_chart(f"{title} — {res.config.name}", series_of(res), y_label)
        for res in results
    ]
    return "\n\n" + "\n\n".join(charts)


def _run_trace(args: argparse.Namespace) -> str:
    from repro.obs import read_jsonl, render_trace

    return render_trace(read_jsonl(args.path))


def _run_metrics(args: argparse.Namespace) -> str:
    import json

    from repro.obs import render_metrics

    with open(args.path, encoding="utf-8") as fh:
        return render_metrics(json.load(fh))


def _run_report(args: argparse.Namespace) -> str:
    from repro.obs import attribute, read_jsonl, render_attribution

    return render_attribution(attribute(read_jsonl(args.path)))


def _run_export(args: argparse.Namespace) -> str:
    import json
    from pathlib import Path

    from repro.obs import (
        read_jsonl,
        to_chrome_trace,
        validate_chrome_trace,
        write_collapsed_stacks,
    )

    events = read_jsonl(args.path)
    out = (
        Path(args.out)
        if args.out is not None
        else Path(args.path).with_suffix(".chrome.json")
    )
    payload = to_chrome_trace(events)
    count = validate_chrome_trace(payload)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
    )
    lines = [
        f"wrote {count} trace events to {out}"
        " (open in https://ui.perfetto.dev or chrome://tracing)"
    ]
    if args.folded is not None:
        folded = write_collapsed_stacks(events, args.folded)
        lines.append(f"wrote collapsed flamegraph stacks to {folded}")
    return "\n".join(lines)


def _stderr_progress(total_stripes=None):
    """A ProgressReporter rendering a live line on stderr."""
    from repro.obs import ProgressReporter

    return ProgressReporter(
        total_stripes=total_stripes,
        stream=sys.stderr,
        tty=sys.stderr.isatty(),
    )


def _run_fig7(args: argparse.Namespace) -> str:
    kwargs = _kwargs(args, default_runs=50)
    if args.telemetry is not None:
        kwargs["telemetry"] = args.telemetry
    results = run_fig7(**kwargs)
    return render_fig7(results) + _maybe_plot(
        args,
        results,
        "Figure 7: cross-rack traffic (MB) vs chunk size (MB)",
        lambda r: list(r.series.values()),
        "MB",
    )


def _run_fig8(args: argparse.Namespace) -> str:
    results = run_fig8(**_kwargs(args, default_runs=50))
    return render_fig8(results) + _maybe_plot(
        args,
        results,
        "Figure 8: lambda vs iterations",
        lambda r: [r.balanced, r.unbalanced],
        "lambda",
    )


def _run_fig9(args: argparse.Namespace) -> str:
    results = run_fig9(**_kwargs(args, default_runs=3))
    return render_fig9(results) + _maybe_plot(
        args,
        results,
        "Figure 9: recovery time (s/chunk) vs chunk size (MB)",
        lambda r: list(r.series.values()),
        "s",
    )


def _run_fig10(args: argparse.Namespace) -> str:
    return render_fig10(run_fig10(**_kwargs(args, default_runs=10)))


def _run_regen(args: argparse.Namespace) -> str:
    import json
    from pathlib import Path

    from repro.experiments.regen import regen_to_dict, run_regen
    from repro.experiments.report import render_regen

    kwargs = _kwargs(args, default_runs=50)
    if args.telemetry is not None:
        kwargs["telemetry"] = args.telemetry
    results = run_regen(**kwargs)
    out = render_regen(results)
    if args.json_path is not None:
        payload = regen_to_dict(results)
        Path(args.json_path).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out += f"\n\nwrote JSON results to {args.json_path}"
    return out + _maybe_plot(
        args,
        results,
        "Regenerating codes: cross-rack traffic (MB) vs chunk size (MB)",
        lambda r: [o.series for o in r.outcomes.values()],
        "MB",
    )


def _run_landscape(args: argparse.Namespace) -> str:
    from repro.analysis.landscape import repair_landscape
    from repro.experiments import CFS2
    from repro.experiments.report import format_table

    runs = args.runs if args.runs is not None else 5
    stripes = args.stripes if args.stripes is not None else 50
    rows = repair_landscape(CFS2, runs=runs, num_stripes=stripes)
    table = [
        [
            r.scheme,
            f"{r.total_chunks:.2f}",
            "-" if r.cross_rack_chunks is None else f"{r.cross_rack_chunks:.2f}",
            f"{r.storage_overhead:.2f}x",
        ]
        for r in rows
    ]
    return (
        "Repair cost per lost chunk (chunk units), CFS2\n"
        + format_table(["scheme", "total", "cross-rack", "storage"], table)
    )


def _run_degraded(args: argparse.Namespace) -> str:
    from repro.experiments import ALL_CFS
    from repro.experiments.degraded import run_degraded_read
    from repro.experiments.report import format_table

    runs = args.runs if args.runs is not None else 5
    stripes = args.stripes if args.stripes is not None else 50
    rows = []
    for cfg in ALL_CFS:
        res = run_degraded_read(
            cfg, runs=runs, num_stripes=stripes, workers=args.workers
        )
        for name in ("CAR", "RR"):
            d = res.distributions[name]
            rows.append(
                [
                    cfg.name,
                    name,
                    f"{d.mean * 1000:.0f}ms",
                    f"{d.p99 * 1000:.0f}ms",
                    f"{d.worst * 1000:.0f}ms",
                ]
            )
    return (
        "Degraded-read latency per lost-chunk request (4MB chunks)\n"
        + format_table(["CFS", "strategy", "mean", "p99", "max"], rows)
    )


def _run_longrun(args: argparse.Namespace) -> str:
    from repro.experiments import CFS2
    from repro.experiments.configs import build_state
    from repro.experiments.report import format_table
    from repro.recovery import CarStrategy, RandomRecoveryStrategy
    from repro.workloads import FailureTraceGenerator, LongRunSimulator

    stripes = args.stripes if args.stripes is not None else 100
    seed = args.seed if args.seed is not None else 21
    trace = FailureTraceGenerator(
        num_nodes=CFS2.num_nodes, mtbf_hours=1500, seed=seed
    ).generate(horizon_hours=24 * 90)
    rows = []
    for name, factory in (
        ("RR", lambda h: RandomRecoveryStrategy(rng=seed)),
        ("CAR", lambda h: CarStrategy()),
        ("CAR-history", lambda h: CarStrategy(baseline_traffic=list(h))),
    ):
        sim = LongRunSimulator(
            lambda: build_state(CFS2, seed=seed, num_stripes=stripes),
            factory,
            chunk_size=4 << 20,
        )
        rep = sim.replay(trace)
        rows.append(
            [
                name,
                rep.failures,
                f"{rep.total_cross_rack_bytes / 2**30:.1f} GiB",
                f"{rep.total_repair_hours * 60:.1f} min",
                f"{rep.mean_lambda:.3f}",
                f"{rep.long_run_lambda():.3f}",
            ]
        )
    return (
        f"90-day failure trace on CFS2 ({len(trace)} failures)\n"
        + format_table(
            ["strategy", "repairs", "cross-rack", "repair time",
             "event lambda", "long-run lambda"],
            rows,
        )
    )


def _run_ablation(args: argparse.Namespace) -> str:
    runs = args.runs if args.runs is not None else 10
    parts = [
        render_traffic_ablation(
            [
                run_traffic_ablation(cfg, runs=runs, workers=args.workers)
                for cfg in ALL_CFS
            ]
        ),
        render_oversubscription(
            CFS1.name, run_oversubscription_sweep(CFS1)
        ),
        render_greedy_vs_optimal(
            [
                run_greedy_vs_optimal(
                    cfg, runs=max(3, runs // 2), workers=args.workers
                )
                for cfg in ALL_CFS
            ]
        ),
    ]
    return "\n\n".join(parts)


def _cfs_config(name: str):
    from repro.experiments import CFS2, CFS3

    return {"CFS1": CFS1, "CFS2": CFS2, "CFS3": CFS3}[name]


def _run_scrub(args: argparse.Namespace) -> str:
    import random

    from repro.cluster.scrub import Scrubber
    from repro.experiments.configs import build_state
    from repro.experiments.report import format_table
    from repro.obs.metrics import MetricsRegistry, telemetry_scope

    config = _cfs_config(args.config)
    stripes = args.stripes if args.stripes is not None else 20
    seed = args.seed if args.seed is not None else 11
    state = build_state(config, seed=seed, with_data=True,
                        num_stripes=stripes)
    rng = random.Random(seed)
    n_corrupt = max(0, min(args.corrupt, stripes))
    targets = [
        (stripe, rng.randrange(state.code.n))
        for stripe in rng.sample(range(stripes), n_corrupt)
    ]
    for i, (stripe, chunk) in enumerate(targets):
        state.data.corrupt(stripe, chunk, seed=seed + i)
    registry = MetricsRegistry()
    with telemetry_scope(registry):
        report = Scrubber(state).scrub()
    rows = [
        [str(f.stripe_id),
         "?" if f.chunk_index is None else str(f.chunk_index),
         "repaired" if f.repaired else "unrepairable"]
        for f in report.findings
    ]
    metrics = registry.snapshot()["metrics"]
    lines = [
        f"Scrub pass over {config.name} "
        f"({stripes} stripes, {n_corrupt} chunks corrupted)",
        f"  checked : {report.stripes_checked} stripes",
        f"  clean   : {report.clean_stripes}",
        f"  corrupt : {report.corrupt_stripes}"
        f" (all repaired: {'yes' if report.all_repaired else 'NO'})",
    ]
    if rows:
        lines.append(format_table(["stripe", "chunk", "outcome"], rows))
    lines.append(
        "metrics: " + ", ".join(
            f"{name}={int(total)}"
            for name, total in sorted(
                (name, sum(s["value"] for s in metric["series"]))
                for name, metric in metrics.items()
                if name.startswith("scrub.")
            )
        )
    )
    return "\n".join(lines)


def _render_durable(out, verb: str) -> str:
    replayed = ", ".join(map(str, out.replayed)) or "-"
    executed = ", ".join(map(str, out.executed)) or "-"
    total = len(out.replayed) + len(out.executed)
    return "\n".join([
        f"Durable recovery ({verb}) — journal {out.journal_path}",
        f"  stripes : {total} total"
        f" = {len(out.replayed)} replayed + {len(out.executed)} executed",
        f"  replayed: {replayed}",
        f"  executed: {executed}",
        f"  verified: {'yes' if out.verified else 'NO'}",
        f"  traffic : cross-rack {out.cross_rack_bytes} B"
        f" / intra-rack {out.intra_rack_bytes} B (logical session)",
        f"  live    : cross-rack {out.live_cross_rack_bytes} B"
        f" / intra-rack {out.live_intra_rack_bytes} B"
        f" (this incarnation)",
    ])


def _run_durable(args: argparse.Namespace) -> str:
    from repro.experiments.runner import run_durable_recovery

    out = run_durable_recovery(
        _cfs_config(args.config),
        args.path,
        strategy=args.strategy,
        seed=args.seed if args.seed is not None else 0,
        num_stripes=args.stripes if args.stripes is not None else 12,
        crash_after_records=args.crash_after,
        window=args.window,
        progress=_stderr_progress() if args.progress else None,
    )
    return _render_durable(out, "fresh run")


def _run_resume(args: argparse.Namespace) -> str:
    from repro.experiments.runner import resume_durable_recovery

    out = resume_durable_recovery(
        args.path, crash_after_records=args.crash_after,
        window=args.window,
        progress=_stderr_progress() if args.progress else None,
    )
    return _render_durable(out, "resumed")


def _run_stream(args: argparse.Namespace) -> str:
    import json
    import resource
    import time
    from contextlib import nullcontext
    from pathlib import Path

    from repro.cluster.failure import FailureInjector
    from repro.experiments.configs import build_state
    from repro.recovery import (
        CarStrategy,
        PlanExecutor,
        RandomRecoveryStrategy,
        plan_recovery_streaming,
    )

    config = _cfs_config(args.config)
    stripes = args.stripes if args.stripes is not None else 1000
    seed = args.seed if args.seed is not None else 0
    # Small chunks: this command measures the coordination overhead the
    # streaming path removes, not GF throughput.
    state = build_state(config, seed=seed, with_data=True,
                        chunk_size=256, num_stripes=stripes)
    event = FailureInjector(rng=seed).fail_random_node(state)
    strategy = (
        CarStrategy() if args.strategy == "car"
        else RandomRecoveryStrategy(rng=seed)
    )
    solution = strategy.solve(state)
    affected = len(solution.solutions)
    plan = plan_recovery_streaming(state, event, solution)
    # Opt-in observability: --telemetry records trace + metrics +
    # resource profile (and so runs every stripe through the ship
    # step's observer cascade — that is the point); --progress renders
    # a live stderr line either way.  Neither flag set leaves the ship
    # step with nothing to observe.
    telemetry_dir = Path(args.telemetry) if args.telemetry else None
    tracer = registry = profiler = progress = None
    if telemetry_dir is not None:
        from repro.obs import MetricsRegistry, ResourceSampler, Tracer

        telemetry_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer()
        registry = MetricsRegistry()
        profiler = ResourceSampler()
    if telemetry_dir is not None or args.progress:
        from repro.obs import ProgressReporter, jsonl_sink

        progress = ProgressReporter(
            total_stripes=affected,
            sink=(
                jsonl_sink(telemetry_dir / "progress.jsonl")
                if telemetry_dir is not None
                else None
            ),
            stream=sys.stderr if args.progress else None,
            tty=args.progress and sys.stderr.isatty(),
        )
    executor = PlanExecutor(state, tracer, profiler=profiler)
    ok_count = 0

    def sink(stripe_id, rebuilt, ok):
        nonlocal ok_count
        ok_count += ok

    if registry is not None:
        from repro.obs import telemetry_scope

        scope = telemetry_scope(registry)
    else:
        scope = nullcontext()
    t0 = time.perf_counter()
    with scope:
        result = executor.execute_streaming(
            plan,
            window=args.window,
            workers=args.workers,
            shm=args.shm if args.shm else None,
            sink=sink,
            progress=progress,
        )
    elapsed = time.perf_counter() - t0
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    throughput = affected / elapsed if elapsed > 0 else float("inf")
    payload = {
        "config": config.name,
        "strategy": args.strategy,
        "num_stripes": stripes,
        "affected_stripes": affected,
        "window": args.window,
        "workers": args.workers,
        "shm": bool(args.shm),
        "elapsed_seconds": elapsed,
        "stripes_per_second": throughput,
        "peak_rss_kib": peak_rss_kib,
        "cross_rack_bytes": result.cross_rack_bytes,
        "intra_rack_bytes": result.intra_rack_bytes,
        "verified": ok_count == affected,
    }
    lines = [
        f"Streaming recovery — {config.name}, {args.strategy},"
        f" {affected}/{stripes} stripes affected",
        f"  window   : {args.window}"
        + (f", workers {args.workers}" if args.workers else ""),
        f"  elapsed  : {elapsed:.3f} s ({throughput:,.0f} stripes/s)",
        f"  peak RSS : {peak_rss_kib} KiB",
        f"  traffic  : cross-rack {result.cross_rack_bytes} B"
        f" / intra-rack {result.intra_rack_bytes} B",
        f"  verified : {'yes' if payload['verified'] else 'NO'}",
    ]
    if telemetry_dir is not None:
        from repro.obs import write_chrome_trace

        tracer.write_jsonl(telemetry_dir / "trace.jsonl")
        profiler.merge_into(registry)
        profiler.write_jsonl(telemetry_dir / "profile.jsonl")
        registry.write_json(telemetry_dir / "metrics.json")
        write_chrome_trace(tracer.events, telemetry_dir / "trace.chrome.json")
        lines.append(
            f"  wrote trace.jsonl, trace.chrome.json, metrics.json, "
            f"profile.jsonl, progress.jsonl to {telemetry_dir}/"
        )
    if args.json_path is not None:
        Path(args.json_path).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        lines.append(f"  wrote JSON results to {args.json_path}")
    return "\n".join(lines)


def _render_serve_summary(summary: dict) -> str:
    cap = summary.get("repair_cap_bytes_per_s")
    if cap is None:
        cap = (summary.get("admission") or {}).get("repair_cap_bytes_per_s")
    lines = [
        f"Live service run — {summary['config']}, {summary['strategy']},"
        f" node {summary['failed_node']} failed"
        f" ({summary['stripes']} stripes affected)",
        f"  repair   : {summary['replayed']} replayed"
        f" + {summary['executed']} executed,"
        f" verified {'yes' if summary['verified'] else 'NO'}",
        f"  recovery : {summary['recovery_throughput_bytes_per_s']:,.0f}"
        f" B/s over {summary['recovery_model_s']:.3f} model-s"
        + (f" (cap {cap:,.0f} B/s)" if cap else " (uncapped)"),
        f"  clients  : {summary['reads']} reads"
        f" ({summary['contended_reads']} during repair,"
        f" {summary['degraded_reads']} degraded)",
        f"  latency  : p50 {summary['client_p50_model_s'] * 1e3:.1f} ms,"
        f" p99 {summary['client_p99_model_s'] * 1e3:.1f} ms (modelled)",
    ]
    if "trace_path" in summary:
        lines.append(f"  trace    : {summary['trace_path']}")
    return "\n".join(lines)


def _run_serve(args: argparse.Namespace) -> str:
    from pathlib import Path

    from repro.service.bench import run_service

    if args.strategy == "direct":
        raise SystemExit("'serve' strategies are car, rr, or rack-msr")
    workdir = Path(args.path)
    summary = run_service(
        workdir=workdir,
        trace_path=workdir / "trace.jsonl",
        config=args.config,
        seed=args.seed if args.seed is not None else 7,
        num_stripes=args.stripes if args.stripes is not None else 10,
        strategy=args.strategy,
        clients=args.clients,
        speedup=args.speedup if args.speedup is not None else 50.0,
        repair_cap=args.repair_cap,
        client_priority=args.client_priority,
        repair_window=min(args.window, 8),
        crash_after_records=args.crash_after,
    )
    out = _render_serve_summary(summary)
    if args.json_path is not None:
        import json

        Path(args.json_path).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out += f"\n  wrote JSON results to {args.json_path}"
    return out


def _parse_caps(raw: str):
    caps = []
    for part in raw.split(","):
        part = part.strip().lower()
        caps.append(None if part in ("none", "uncapped") else int(part))
    return tuple(caps)


def _run_bench_service(args: argparse.Namespace) -> str:
    from pathlib import Path

    from repro.service.bench import (
        DEFAULT_CAPS,
        render_service_table,
        run_bench_service,
    )

    if args.strategy == "direct":
        raise SystemExit(
            "'bench-service' strategies are car, rr, or rack-msr"
        )
    caps = _parse_caps(args.caps) if args.caps else DEFAULT_CAPS
    kwargs = dict(
        workdir=Path(args.path),
        config=args.config,
        seed=args.seed if args.seed is not None else 7,
        clients=args.clients,
        strategy=args.strategy,
    )
    if args.stripes is not None:
        kwargs["num_stripes"] = args.stripes
    if args.speedup is not None:
        kwargs["speedup"] = args.speedup
    if args.client_priority != 1.0:
        kwargs["client_priority"] = args.client_priority
    rows = run_bench_service(caps, **kwargs)
    out = (
        "Service sweep: repair cap vs recovery throughput vs "
        "foreground latency (modelled)\n" + render_service_table(rows)
    )
    if args.json_path is not None:
        import json

        Path(args.json_path).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out += f"\nwrote JSON results to {args.json_path}"
    return out


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.experiment in ("trace", "metrics", "durable", "resume",
                            "report", "export", "serve", "bench-service")
            and args.path is None):
        parser.error(f"'{args.experiment}' requires a file path argument")
    handlers = {
        "fig7": _run_fig7,
        "fig8": _run_fig8,
        "fig9": _run_fig9,
        "fig10": _run_fig10,
        "ablation": _run_ablation,
        "landscape": _run_landscape,
        "longrun": _run_longrun,
        "degraded": _run_degraded,
        "regen": _run_regen,
        "trace": _run_trace,
        "metrics": _run_metrics,
        "report": _run_report,
        "export": _run_export,
        "scrub": _run_scrub,
        "durable": _run_durable,
        "resume": _run_resume,
        "stream": _run_stream,
        "serve": _run_serve,
        "bench-service": _run_bench_service,
    }
    try:
        if args.experiment == "all":
            outputs = [
                handlers[name](args)
                for name in (
                    "fig7", "fig8", "fig9", "fig10", "ablation", "landscape",
                    "longrun", "degraded", "regen",
                )
            ]
            print("\n\n".join(outputs))
        else:
            print(handlers[args.experiment](args))
    except CoordinatorCrashError as crash:
        print(
            f"coordinator crashed after {crash.records_written} journal "
            f"records: {crash}"
        )
        if args.experiment == "serve":
            print(f"resume with: repro-car serve {args.path}")
        else:
            print(f"resume with: repro-car resume {args.path}")
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
