"""Measurement phases, the reference check and the end-to-end metrics.

One run of one workload goes through these phases; the open and closed
loops alternate in :data:`ROUNDS` interleaved rounds:

1. **Set-up**: ``connect`` through attach, admission and worker spawn,
   until the first row can be pushed. The first set-up is the
   deployment measured; every round then times the workload's
   ``setups_per_round`` more, closed at once. ``setup_s`` is the median
   over all of them, ``admit_qps`` all their admissions over all their
   admission time.
2. **Warm-up**, untimed but checked: one round's worth of closed-loop
   batches. A fresh deployment's young heap triggers full collections
   most often; that start-up cost would otherwise land on the first
   round alone.
3. **Open loop**: batches are due on a fixed schedule at the
   workload's offered rate; each is timed from when its last row was
   due to when the ``punctuate`` closing it returns, so a stall is
   charged to every batch queued behind it. The generator's lateness
   (send time minus due time) is reported beside the latency.
4. **Closed loop**: one client pushes each batch with ``push_many``
   plus a ``punctuate`` and sends the next only when both returned.
5. **Recovery** (workloads with checkpoints): a scripted
   ``kill_worker``, then batches until the first emission.
6. **Reference**, untimed: the oracle deployment replays the very same
   batches, and every query's output in every punctuation segment must
   match it.

The amount of work is fixed by ``--seconds`` and the workload's stated
rates (not by a wall-clock deadline), so two commits measured with the
same arguments ingest identical batches and emit identical outputs;
the phases take about ``--seconds`` on the host the rates were
calibrated on (2 cores, CPython 3.11). Each round starts after a
``gc.collect()``, so every run enters it in the same collector state;
the collector stays enabled inside the rounds.

On a shared host the speed of the machine drifts by a third within
seconds, so no statistic of one short stretch repeats from run to run.
Every metric therefore pools samples taken in every round, spread over
the whole run.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import resource
import statistics
import time
from array import array
from pathlib import Path

from workloads import Deployment, Ledger, Workload

#: Results, span dumps and run records go here (ignored by git).
OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"
#: Interleaved rounds per run.
ROUNDS = 12
#: Share of ``--seconds`` each loop is sized for.
CLOSED_SHARE = 0.4
OPEN_SHARE = 0.5
#: Batches driven after the recovery's first emission, so the restored
#: state is checked against the reference too.
AFTER_RECOVERY = 20


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            pass  # exited meanwhile, or no procfs
    return total_kib / 1024.0


class Recorder:
    """Everything one measured deployment emits, segment by segment.

    ``marks[k]`` holds each query's sink length when batch ``k``'s
    punctuation returned, so segment ``k`` of query ``i`` is
    ``sinks[i][marks[k-1][i]:marks[k][i]]``.
    """

    def __init__(self, deployment: Deployment):
        self.deployment = deployment
        self._sinks = deployment.sinks
        self.marks: list[array] = [array("q", map(len, self._sinks))]
        self.sizes: list[int] = []

    def mark(self, size: int) -> None:
        self.marks.append(array("q", map(len, self._sinks)))
        self.sizes.append(size)

    def grew(self) -> bool:
        return self.marks[-1] != self.marks[-2]

    def fingerprints(self) -> list[list[tuple[int, int]]]:
        """Per query, per segment: (row count, order-free hash sum).

        Emissions of one segment may arrive in any order (shards merge
        in arrival order), so a segment is compared as a multiset.
        """
        out = []
        for i, elements in enumerate(self._sinks):
            per_query = []
            for k in range(1, len(self.marks)):
                lo, hi = self.marks[k - 1][i], self.marks[k][i]
                digest = sum(
                    hash((e.timestamp, e.row.values)) for e in elements[lo:hi]
                ) & 0xFFFFFFFFFFFFFFFF
                per_query.append((hi - lo, digest))
            out.append(per_query)
        return out


def count_admissions(deployment: Deployment, ledger: Ledger) -> None:
    ledger.attempted += deployment.admitted
    for error in deployment.admit_errors:
        ledger.fail(error)


def closed_loop(deployment, feed, batches: int, size: int, ledger, recorder, hook=None):
    """Drive ``batches`` batches back to back; returns per-batch
    (rows, seconds)."""
    samples = []
    for k in range(batches):
        batch = feed.batch(size)
        if hook is not None:
            hook(k)
        start = time.perf_counter()
        deployment.step(batch, ledger)
        samples.append((batch.rows, time.perf_counter() - start))
        recorder.mark(size)
    return samples


def open_loop(deployment, feed, batches: int, size: int, rate: float, ledger, recorder):
    """Offer ``batches`` batches at ``rate`` rows per second; returns
    (latencies, lateness) in seconds, one per batch."""
    interval = size / rate
    latencies: list[float] = []
    lateness: list[float] = []
    origin = time.perf_counter()
    for k in range(batches):
        batch = feed.batch(size)
        due = origin + (k + 1) * interval
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            now = time.perf_counter()
        lateness.append(now - due)
        deployment.step(batch, ledger)
        latencies.append(time.perf_counter() - due)
        recorder.mark(size)
    return latencies, lateness


def recover(deployment, feed, size: int, ledger, recorder, *, limit: int = 200):
    """Kill worker 1, then drive batches until the first emission.

    Returns (recovery seconds, seconds of the first post-kill step — the
    call that finds the dead worker and restores it).
    """
    from repro.runtime.faults import kill_worker

    start = time.perf_counter()
    kill_worker(deployment.session.engine, 1)
    first_step = None
    recovered = None
    for _ in range(limit):
        step_start = time.perf_counter()
        deployment.step(feed.batch(size), ledger)
        end = time.perf_counter()
        recorder.mark(size)
        if first_step is None:
            first_step = end - step_start
        if recorder.grew():
            recovered = end - start
            break
    if recovered is None:
        ledger.fail(f"no emission within {limit} batches after kill_worker")
        recovered = time.perf_counter() - start
    for _ in range(AFTER_RECOVERY):
        deployment.step(feed.batch(size), ledger)
        recorder.mark(size)
    return recovered, first_step


def check_against_reference(workload, seed, recorder, ledger):
    """Replay the recorded batches into the oracle; count mismatches.

    Returns the reference's rows per second over the whole replay
    (informational: the single-engine baseline).
    """
    measured = recorder.fingerprints()
    reference = workload.reference(seed)
    ref_recorder = Recorder(reference)
    ref_ledger = Ledger()
    feed = workload.feed(seed)
    rows = 0
    start = time.perf_counter()
    for size in recorder.sizes:
        batch = feed.batch(size)
        reference.step(batch, ref_ledger)
        rows += batch.rows
        ref_recorder.mark(size)
    elapsed = time.perf_counter() - start
    expected = ref_recorder.fingerprints()
    reference.close()
    if ref_ledger.failed:
        ledger.fail(f"reference run failed: {ref_ledger.errors[:3]}")
    labels = recorder.deployment.labels
    for i, segments in enumerate(measured):
        want = expected[recorder.deployment.ref_index[i]]
        for k, (got, exp) in enumerate(zip(segments, want)):
            ledger.attempted += 1
            if got != exp:
                ledger.fail(
                    f"{labels[i]} segment {k}: {got[0]} rows, "
                    f"reference {exp[0]} rows (digest differs: {got[1] != exp[1]})"
                )
    return rows / elapsed if elapsed else 0.0


def plan(workload: Workload, seconds: float) -> dict:
    """Batch counts for one run of ``seconds``: each loop is sized to
    take its share of ``seconds`` at the workload's stated rates."""
    t = workload.traffic
    return {
        "closed_batches": max(4, round(seconds * CLOSED_SHARE * t.closed_rate / t.closed_batch)),
        "open_batches": max(4, round(seconds * OPEN_SHARE * t.open_rate / t.open_batch)),
    }


def _part(total: int, rounds: int, index: int) -> int:
    return total // rounds + (1 if index < total % rounds else 0)


def timed_setup(workload: Workload, seed: int, setups: list, admits: list) -> Deployment:
    """Set up one deployment, recording its set-up time and its
    (admission calls, admission seconds)."""
    start = time.perf_counter()
    opened = workload.open(seed)
    setups.append(time.perf_counter() - start)
    admits.append((opened.admitted, opened.admit_s))
    return opened


def run(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced run; returns (end-to-end metrics, details).

    Each of :data:`ROUNDS` rounds times its set-ups, then an open-loop
    slice, then a closed-loop slice, and each statistic pools its
    samples across the rounds, so a slow spell of the host lands on a
    slice of each metric rather than on all of one. The host's speed
    switches between two levels about a third apart from one second to
    the next, so the rates are totals over their samples rather than
    medians, which jump from one level to the other with the mix.
    """
    ledger = Ledger()
    sizes = plan(workload, seconds)
    t = workload.traffic
    feed = workload.feed(seed)
    setups: list[float] = []
    admits: list[tuple[int, float]] = []
    latencies: list[float] = []
    lateness: list[float] = []
    batches: list[tuple[int, float]] = []
    round_p50: list[float] = []
    # One untimed set-up first: lazy imports and first-call caches are
    # paid once per process, not on every set-up a user does.
    workload.open(seed).close()
    gc.collect()
    deployment = timed_setup(workload, seed, setups, admits)
    recorder = Recorder(deployment)
    count_admissions(deployment, ledger)
    closed_loop(
        deployment, feed, _part(sizes["closed_batches"], ROUNDS, 0),
        t.closed_batch, ledger, recorder,
    )
    for r in range(ROUNDS):
        gc.collect()
        for _ in range(workload.setups_per_round):
            timed_setup(workload, seed, setups, admits).close()
        lat, late = open_loop(
            deployment, feed, _part(sizes["open_batches"], ROUNDS, r),
            t.open_batch, t.open_rate, ledger, recorder,
        )
        latencies += lat
        lateness += late
        round_p50.append(statistics.median(lat) * 1e3)
        batches += closed_loop(
            deployment, feed, _part(sizes["closed_batches"], ROUNDS, r),
            t.closed_batch, ledger, recorder,
        )
    setup_s = statistics.median(setups)
    admit_qps = sum(n for n, _ in admits) / sum(secs for _, secs in admits)
    details: dict = {"latency_p99_ms": percentile(latencies, 99) * 1e3}
    if "checkpoint_interval" in workload.connect_kwargs:
        recovery_s, first_step = recover(deployment, feed, t.open_batch, ledger, recorder)
        details["recovery_ms"] = recovery_s * 1e3
        details["restore_step_ms"] = first_step * 1e3
        checkpointer = deployment.session.checkpointer
        details["last_replay"] = checkpointer.last_replay
        details["checkpoints_taken"] = checkpointer.checkpoints_taken
    if "network" in deployment.world:
        details.update(radio(deployment))
    rss = peak_rss_mb()
    deployment.close()
    details["reference_rows_per_s"] = check_against_reference(
        workload, seed, recorder, ledger
    )
    metrics = {
        "ingest_rows_per_s": (
            sum(rows for rows, _ in batches) / sum(secs for _, secs in batches), "rows/s"
        ),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "admit_qps": (admit_qps, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    details.update(
        {
            "closed_batches": len(batches),
            "open_batches": len(latencies),
            "setups": len(setups),
            "latency_p50_ms_by_round": round_p50,
            "ingest_rows_per_s_by_batch": [rows / secs for rows, secs in batches],
            "setup_s_samples": setups,
            "admit_qps_samples": [n / secs for n, secs in admits],
            "lateness_p50_ms": statistics.median(lateness) * 1e3,
            "lateness_p99_ms": percentile(lateness, 99) * 1e3,
            "queries": len(deployment.cursors),
            "segments": len(recorder.sizes),
        }
    )
    return metrics, {"ledger": ledger, **details}


def radio(deployment: Deployment) -> dict:
    """Radio transmissions per result row so far (federated only)."""
    stats = deployment.world["network"].stats
    results = sum(len(sink) for sink in deployment.sinks)
    return {
        "radio_transmissions": stats.transmissions,
        "result_rows": results,
        "radio_msgs_per_result": stats.transmissions / results if results else 0.0,
    }
