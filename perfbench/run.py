"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload standing7 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
traced variant and prints the per-layer metrics (see ``README.md``).
Human-readable report lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. A fuller record (provenance, generator lateness, the
workload-only metrics, failing queries) goes to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_paths() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def provenance(seed: int) -> dict:
    """Host and source identity recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout; the source digest identifies it
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _report(workload: str, metrics: dict, extra: dict) -> None:
    print(f"== {workload} ==")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        import spans

        metrics, details = spans.traced_run(workload, seed, seconds)
    else:
        metrics, details = harness.run(workload, seed, seconds)
    ledger = details.pop("ledger")
    failed_frac = ledger.failed / ledger.attempted
    extra = {"failed_frac": (failed_frac, "1")}
    for key, unit in (
        ("latency_p99_ms", "ms"), ("recovery_ms", "ms"), ("radio_msgs_per_result", "1"),
    ):
        if key in details:
            extra[key] = (details[key], unit)
    _report(name, metrics, extra)
    if not trace:
        print(f"  samples: {details['closed_batches']} closed-loop batches, "
              f"{details['open_batches']} open-loop batches, {details['setups']} set-ups; "
              f"{ledger.failed} of {ledger.attempted} operations failed")
        print(f"  generator lateness p50 {details['lateness_p50_ms']:.3f} ms, "
              f"p99 {details['lateness_p99_ms']:.3f} ms; reference single engine "
              f"{details['reference_rows_per_s']:.0f} rows/s (informational)")
    for error in ledger.errors:
        print(f"  FAILED {error}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }
    record = {
        **result,
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "traffic": dataclasses.asdict(workload.traffic),
        "provenance": provenance(seed),
        "failures": ledger.errors,
        "extra": {key: value for key, (value, _) in extra.items()},
        "details": details,
    }
    harness.OUT.mkdir(exist_ok=True)
    path = harness.OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_paths()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
