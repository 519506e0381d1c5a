"""Self-test of the repository benchmark.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``
(or ``python3 perfbench/selftest.py``). The file name keeps it out of the
tier-1 suite's default collection: it runs every workload end to end
(well under a minute on two cores).

It checks that every workload runs at smoke size, traced and untraced,
emits every metric ``BENCHMARK.json`` names with its unit, and reports
each failure it counts; that the reference comparator counts a
perturbed output as a failed operation and names the query; and that
the command fails without printing a result when the program's sources
are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SMOKE_SECONDS = "0.3"


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload: str, trace: int) -> None:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # The program's own correctness is what the benchmark reports, not
    # what this test asserts: a failure must be counted, flip `correct`
    # and be printed with the failing query or call.
    assert result["attempted"] >= 1
    assert result["correct"] is (result["failed"] == 0)
    reported = [line for line in proc.stdout.splitlines() if line.startswith("  FAILED ")]
    assert len(reported) == min(result["failed"], 20)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]
    # The human-readable report names the workload-only metrics too.
    assert "failed_frac" in proc.stdout


def test_comparator_counts_a_perturbed_segment() -> None:
    import harness
    from repro.data import Row
    from repro.data.streams import StreamElement
    from workloads import WORKLOADS, Ledger

    workload = WORKLOADS["standing7"]
    ledger = Ledger()
    deployment = workload.open(5)
    recorder = harness.Recorder(deployment)
    feed = workload.feed(5)
    harness.closed_loop(deployment, feed, 6, 200, ledger, recorder)
    deployment.close()
    clean = Ledger()
    harness.check_against_reference(workload, 5, recorder, clean)
    assert clean.failed == 0 and clean.attempted > 0

    # Corrupt one emitted row of query 0 inside segment 2.
    sink = deployment.sinks[0]
    at = recorder.marks[2][0]
    assert recorder.marks[3][0] > at, "segment 2 of q0 emitted nothing"
    element = sink[at]
    values = list(element.row.values)
    values[-1] = -1.0
    sink[at] = StreamElement(
        Row.raw(element.row.schema, tuple(values)), element.timestamp, element.source
    )
    perturbed = Ledger()
    harness.check_against_reference(workload, 5, recorder, perturbed)
    assert perturbed.attempted == clean.attempted
    assert perturbed.failed == 1
    assert perturbed.failed / perturbed.attempted > clean.failed / clean.attempted
    assert perturbed.errors[0].startswith("q0: ") and "segment 2" in perturbed.errors[0]


def test_fails_without_the_program() -> None:
    # A directory holding only BENCHMARK.json and the benchmark, kept
    # inside the checkout's ignored output directory.
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
