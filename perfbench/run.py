"""The repair benchmark: one workload per call, or every workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload many-stripes --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced, one table

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a
separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the
workload-specific figures (``detail``).  A failed output check prints
``correct: false`` and exits 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: ``live-degraded-reads`` is not in BENCHMARK.json: a data race in the
#: program makes its failure count vary from run to run (README.md).
WORKLOADS = (
    "many-stripes", "large-chunks", "durable-crash-resume",
    "live-degraded-reads",
)


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; exit 2 if it is not there."""
    sys.path.insert(0, str(HERE))
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    from common import CheckFailed, remove_work_root

    try:
        if workload == "live-degraded-reads":
            import live

            out = live.run(seed, seconds, trace)
        else:
            import repairs

            out = repairs.run(workload, seed, seconds, trace)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        remove_work_root()
    if trace and "spans" in out:
        out["spans"].write(Path(".perfbench_spans.jsonl"))
    print(json.dumps({"workload": workload, "seed": seed,
                      "detail": out["detail"]}, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out["metrics"].items()
        },
    }))
    return 0


def _unit(name: str) -> str:
    """Unit of a ``detail`` figure, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_MB", "MB"), ("_bytes", "B"),
                         ("_s", "s"), ("_at_slo", "reads/s")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("_rate", "_byte")) else "count"


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in its own process, as one table."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
        for name, value in detail.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                print(f"  {name:<34} {value:>16.6g} {_unit(name)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
