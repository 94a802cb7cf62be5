#!/usr/bin/env python3
"""Repository benchmark: end-to-end view/update metrics, traced layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload cold-scan --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
their times are scaled to a fixed reference speed (``calibration.py``).
``--trace 1`` first runs the same untraced phase, then wraps every
layer's entry points (``tracing.py``) and runs a second timed phase on
the continuing operation stream; it reports the per-layer metrics and
the tracing overhead.  ``--ops N`` stops after N operations instead of
after ``--seconds`` (used by the determinism test).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report
(sample counts, the deterministic work counts of the timed phase, the
layer ledger) is written to ``perfbench/out/``; a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
#: Set-ups per run; ``setup_s`` is their median.  Each deployment then
#: serves an equal share of the timed phase, so no set-up is built only
#: to be timed.
SETUP_REPEATS = 3
#: The timed phase is cut into consecutive windows of this many seconds
#: of timed work; each window's times are scaled to reference speed by
#: the probes taken in it (``calibration.py``).
WINDOW_SECONDS = 1.0
#: ``peak_rss_mb`` is read once the last deployment has served this many
#: operations (or at the end of the phase, if it serves fewer).  The
#: station keeps every superseded map of its growing log, so the
#: process's resident set grows with each update: read at the end of
#: the phase, it would count how many updates the host's speed let the
#: run complete.
RSS_AT_OPS = 50


def quantile(values, q):
    """Linearly interpolated quantile of ``values`` (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def delta(after, before):
    return {key: after[key] - before.get(key, 0) for key in after
            if isinstance(after[key], (int, float)) and not isinstance(after[key], bool)}


class Phase:
    """One timed phase: a closed loop of operations on one client thread,
    run on one or more deployments in turn (``run`` once per deployment).

    Only the operation calls are timed; the oracle check, the counter
    snapshots and the speed probes between operations run outside the
    timed intervals.
    """

    def __init__(self, recorder=None):
        from calibration import SpeedTrack
        from workloads import run_op

        self.deployment = None
        self.recorder = recorder
        self.run_op = run_op
        self.read_ms = []
        self.update_ms = []
        self.failures = []
        self.soe_seconds = 0.0
        self.meter_misses = {}
        self.chunk_reads = 0
        self.chunk_totals = 0
        self.stored_read = 0
        self.chunks_reencrypted = 0
        self.store_by_kind = {"read": {}, "update": {}}
        #: Station stats and store counters, summed over the deployments.
        self.station_counts = {}
        self.store_counts = {}
        #: ``describe()`` of the last deployment's store at its end.
        self.store_after = None
        #: Timed seconds so far, and the probes taken along them.
        self.speed = SpeedTrack()
        #: Peak RSS (kB) once ``rss_at`` operations of a run completed.
        self.rss_kb = None
        self.op_seconds = []
        self.op_is_read = []
        #: Frames and payload bytes remote reads receive (traced runs).
        self.wire_frames = 0
        self.wire_bytes = 0

    def _counters(self):
        return dict(self.deployment.store.counters)

    def run(self, deployment, stream, oracle, seconds, max_ops=None, rss_at=None):
        """Run operations from ``stream`` on ``deployment`` until this
        call's timed intervals add up to ``seconds`` (or, with
        ``max_ops``, for that many operations); read the peak RSS after
        ``rss_at`` of them."""
        self.deployment = deployment
        station = deployment.station
        recorder = self.recorder
        stats_before = station.stats.as_dict()
        store_before = deployment.store.describe()
        end = self.speed.busy + seconds
        ops = 0
        while (self.speed.busy < end) if max_ops is None else (ops < max_ops):
            op = next(stream)
            before = self._counters()
            error = None
            result = None
            if recorder is not None:
                recorder.active = True
            started = perf_counter()
            try:
                if recorder is not None:
                    result = recorder.call(
                        "bench:" + op.kind, self.run_op, deployment, op
                    )
                else:
                    result = self.run_op(deployment, op)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                error = "%s failed: %r" % (op.kind, exc)
            elapsed = perf_counter() - started
            if recorder is not None:
                recorder.active = False
            self.op_seconds.append(elapsed)
            self.op_is_read.append(op.kind == "read")
            ops += 1
            counts = self.store_by_kind[op.kind]
            for key, value in delta(self._counters(), before).items():
                counts[key] = counts.get(key, 0) + value
            if op.kind == "update":
                self.update_ms.append(elapsed * 1e3)
                if error is None:
                    error = oracle.applied(op, result)
                    self.chunks_reencrypted += result.chunks_reencrypted
            else:
                self.read_ms.append(elapsed * 1e3)
                if error is None:
                    error = oracle.check(op, result)
                    self._account_read(op, result)
            if error is not None:
                self.failures.append(error)
            if ops == rss_at:
                self.rss_kb = peak_rss_kb()
            self.speed.add(elapsed)
        self.store_after = deployment.store.describe()
        for counts, after, before in (
            (self.station_counts, station.stats.as_dict(), stats_before),
            (self.store_counts, self.store_after, store_before),
        ):
            for key, value in delta(after, before).items():
                counts[key] = counts.get(key, 0) + value
        return self

    def _account_read(self, op, outcome):
        self.soe_seconds += outcome.soe_seconds
        self.stored_read += self.deployment.stored_bytes(op.document)
        if outcome.cached:
            return
        # Real work: only a view-cache miss decrypts, hashes and walks.
        for key, value in outcome.meter.items():
            self.meter_misses[key] = self.meter_misses.get(key, 0) + value
        self.chunk_reads += outcome.meter.get("chunks_accessed", 0)
        self.chunk_totals += self.deployment.chunk_count(op.document)

    # ------------------------------------------------------------------
    @property
    def attempted(self):
        return len(self.read_ms) + len(self.update_ms)

    def windows(self):
        """The timed phase cut into consecutive windows of WINDOW_SECONDS
        of timed work, at reference speed: per window, its operation
        count, its timed seconds and its read latencies (ms), scaled by
        the probes taken in that window.  A trailing part-window is
        dropped unless it is the only one."""
        windows, start, position, ops, reads = [], 0.0, 0.0, 0, []
        for elapsed, is_read in zip(self.op_seconds, self.op_is_read):
            ops += 1
            position += elapsed
            if is_read:
                reads.append(elapsed)
            if position - start >= WINDOW_SECONDS or (
                not windows and ops == len(self.op_seconds)
            ):
                scale = self.speed.scale(start, position)
                windows.append((ops, (position - start) * scale,
                                [seconds * scale * 1e3 for seconds in reads]))
                start, ops, reads = position, 0, []
        return windows

    def timing(self):
        """The end-to-end timing figures at reference speed: the median
        of every read, the median over the windows of each window's 90th
        percentile read, and the median over the windows of each
        window's operations per second."""
        windows = self.windows()
        reads = [ms for _ops, _busy, window in windows for ms in window]
        tails = [quantile(window, 0.9) for _ops, _busy, window in windows if window]
        return {
            "read_p50_ms": quantile(reads, 0.5),
            "read_p90_ms": statistics.median(tails) if tails else 0.0,
            "ops_per_s": statistics.median(ops / busy for ops, busy, _reads in windows)
            if windows else 0.0,
            "windows": len(windows),
            "reads": len(reads),
        }

    def wall(self):
        """The same figures as measured, unscaled, over the whole phase,
        with the probe times they were scaled by."""
        return {
            "read_p50_ms": quantile(self.read_ms, 0.5),
            "read_p90_ms": quantile(self.read_ms, 0.9),
            "ops_per_s": self.attempted / self.speed.busy if self.speed.busy else 0.0,
            "probes": len(self.speed.seconds),
            "probe_ms_p10_p50_p90": [quantile(self.speed.seconds, q) * 1e3
                                     for q in (0.1, 0.5, 0.9)],
        }

    def counts(self):
        """Deterministic work counts of the phase (no wall clock)."""
        return {
            "reads": len(self.read_ms),
            "updates": len(self.update_ms),
            "meter_view_misses": dict(sorted(self.meter_misses.items())),
            "station_stats": self.station_counts,
            "store": self.store_counts,
            "chunks_reencrypted": self.chunks_reencrypted,
        }


def end_to_end(phase, setups):
    reads = max(1, len(phase.read_ms))
    timing = phase.timing()
    return {
        "setup_s": (statistics.median(setups), "s"),
        "read_p50_ms": (timing["read_p50_ms"], "ms"),
        "read_p90_ms": (timing["read_p90_ms"], "ms"),
        "ops_per_s": (timing["ops_per_s"], "1/s"),
        "soe_ms_per_read": (phase.soe_seconds * 1e3 / reads, "ms"),
        "peak_rss_mb": ((phase.rss_kb or peak_rss_kb()) / 1024.0, "MB"),
    }


def extra_end_to_end(phase):
    """Update-path and failure figures (see README: not in BENCHMARK.json)."""
    store = phase.store_after
    return {
        "update_p50_ms": quantile(phase.update_ms, 0.5),
        "update_p90_ms": quantile(phase.update_ms, 0.9),
        "failed_share": len(phase.failures) / max(1, phase.attempted),
        "space_amp": store["log_bytes"] / max(1, store["live_bytes"]),
        "samples": {"reads": len(phase.read_ms), "updates": len(phase.update_ms)},
    }


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(phase, ledger, untraced_ops_per_s):
    reads = max(1, len(phase.read_ms))
    updates = len(phase.update_ms)
    ops = max(1, phase.attempted)
    stats = phase.station_counts
    read_store = phase.store_by_kind["read"]
    update_store = phase.store_by_kind["update"]
    meter = phase.meter_misses
    read, update = "bench:read", "bench:update"
    return {
        "server.self_ms": (ledger.self_ms(read, "server:RemoteSession.evaluate"), "ms"),
        "server.bytes_per_read": (phase.wire_bytes / reads, "B"),
        "server.frames_per_read": (phase.wire_frames / reads, "count"),
        "engine.self_ms": (
            ledger.self_ms(read, "engine:SecureStation.evaluate",
                           "engine:SecureStation.stream"), "ms"),
        "engine.view_hit_ratio": (
            ratio(stats["view_hits"], stats["view_hits"] + stats["view_misses"]), "ratio"),
        "engine.plan_hit_ratio": (
            ratio(stats["plan_hits"], stats["plan_hits"] + stats["plan_misses"]), "ratio"),
        "engine.indexed_share": (stats["indexed_requests"] / ops, "ratio"),
        "engine.update_self_ms": (
            ledger.self_ms(update, "engine:SecureStation.update"), "ms"),
        "store.read_ms": (ledger.self_ms(read, "store:ChunkPager.read"), "ms"),
        "store.reads_per_read": (ledger.calls_per_op(read, "store:ChunkPager.read"), "count"),
        "store.bytes_read_per_byte": (
            ratio(read_store.get("bytes_read", 0), phase.stored_read), "ratio"),
        "store.page_hit_ratio": (
            ratio(read_store.get("page_hits", 0),
                  read_store.get("page_hits", 0) + read_store.get("page_misses", 0)),
            "ratio"),
        "store.write_ms": (ledger.self_ms(update, "store:LogStore.apply_update"), "ms"),
        "store.bytes_written_per_update": (
            ratio(update_store.get("bytes_written", 0), updates), "B"),
        "crypto.read_ms": (ledger.self_ms(read, "crypto:BaseReader.read"), "ms"),
        "crypto.read_calls_per_read": (
            ledger.calls_per_op(read, "crypto:BaseReader.read"), "count"),
        "crypto.bytes_decrypted_per_read": (meter.get("bytes_decrypted", 0) / reads, "B"),
        "crypto.bytes_hashed_per_read": (meter.get("bytes_hashed", 0) / reads, "B"),
        "crypto.chunk_share": (ratio(phase.chunk_reads, phase.chunk_totals), "ratio"),
        "crypto.reencrypt_ms": (ledger.self_ms(update, "crypto:BaseScheme.reencrypt"), "ms"),
        "crypto.chunks_reencrypted_per_update": (
            ratio(phase.chunks_reencrypted, updates), "count"),
        "skipindex.navigate_ms": (ledger.self_ms(read, "skipindex:navigate"), "ms"),
        "skipindex.skipped_bytes_per_read": (meter.get("skipped_bytes", 0) / reads, "B"),
        "skipindex.match_ms": (ledger.self_ms(read, "skipindex:StructuralIndex.match"), "ms"),
        "skipindex.planned_chunk_share": (
            ratio(stats["index_planned_chunks"], stats["index_chunks_total"]), "ratio"),
        "skipindex.reencode_ms": (ledger.self_ms(update, "skipindex:reencode"), "ms"),
        "accesscontrol.evaluate_ms": (
            ledger.self_ms(read, "accesscontrol:StreamingEvaluator.run"), "ms"),
        "accesscontrol.events_per_read": (meter.get("events", 0) / reads, "count"),
        "accesscontrol.token_ops_per_read": (meter.get("token_ops", 0) / reads, "count"),
        "xmlkit.serialize_ms": (ledger.self_ms(read, "xmlkit:serialize_events"), "ms"),
        "bench.unattributed_ms": (ledger.self_ms(read, read), "ms"),
        "bench.trace_overhead": (
            ratio(phase.timing()["ops_per_s"], untraced_ops_per_s), "ratio"),
    }


def count_wire(recorder, phase):
    """Count the frames and payload bytes each remote read receives."""
    from repro.server.client import RemoteSession

    original = RemoteSession._recv

    def counting_recv(session):
        frame = original(session)
        if recorder.active:
            phase.wire_frames += 1
            phase.wire_bytes += len(frame.payload)
        return frame

    recorder.patch(RemoteSession, "_recv", counting_recv)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="stop each phase after this many operations")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # One CPU for the whole process: left free to migrate across cores,
    # the client thread and the server's event-loop and executor threads
    # made identical hot-remote runs flip between two latency regimes.
    # The highest allowed CPU, since CPU 0 usually takes most interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    # Keep every file the program writes (the native kernel build, the
    # stores) inside the checkout.
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    tempfile.tempdir = None
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print("perfbench: no program source at %s" % source, file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    import workloads

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print("perfbench: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(workloads.SPECS)), file=sys.stderr)
        return 2

    setups = []
    setups_wall = []
    untraced = Phase()
    deployment = None
    try:
        for attempt in range(SETUP_REPEATS):
            if deployment is not None:
                deployment.close()
                deployment = None
                gc.unfreeze()
            deployment = workloads.Deployment(
                spec, args.seed, workloads.store_directory(OUT, spec, attempt)
            )
            setups.append(deployment.setup_s)
            setups_wall.append(deployment.setup_wall_s)
            # The corpus, the oracle's model trees and the station's
            # long-lived state would otherwise be rescanned by every full
            # collection that the oracle's allocations trigger inside a
            # timed operation.
            gc.collect()
            gc.freeze()
            stream = workloads.operations(spec, args.seed, deployment)
            oracle = workloads.Oracle(deployment)
            part_ops = None
            if args.ops is not None:
                part_ops = (args.ops * (attempt + 1) // SETUP_REPEATS
                            - args.ops * attempt // SETUP_REPEATS)
            last = attempt == SETUP_REPEATS - 1
            untraced.run(deployment, stream, oracle, args.seconds / SETUP_REPEATS,
                         part_ops, RSS_AT_OPS if last else None)
        report = {
            "workload": spec.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "sizes": {
                "documents": spec.documents,
                "keys": spec.documents * len(workloads.SUBJECTS),
                "view_cache_entries": workloads.VIEW_CACHE_ENTRIES,
                "stored_bytes": deployment.total_stored_bytes(),
                "page_cache_bytes": spec.cache_bytes,
                "clients": 1,
                "loop": "closed",
                "sync": "commit",
            },
            "setup_s": setups,
            "setup_wall_s": setups_wall,
            "end_to_end": {k: v for k, (v, _unit) in end_to_end(untraced, setups).items()},
            "update_and_failures": extra_end_to_end(untraced),
            "timing": untraced.timing(),
            "wall": untraced.wall(),
            "peak_rss_mb_at_end": peak_rss_kb() / 1024.0,
            "counts": untraced.counts(),
            "failures": untraced.failures[:20],
        }
        phases = [untraced]
        if args.trace:
            from tracing import SpanRecorder, install

            recorder = SpanRecorder()
            install(recorder, server=spec.remote)
            traced = Phase(recorder)
            if spec.remote:
                count_wire(recorder, traced)
            try:
                traced.run(deployment, stream, oracle, args.seconds, args.ops)
            finally:
                recorder.uninstall()
            phases.append(traced)
            ledger = recorder.ledger()
            metrics = per_layer(traced, ledger, untraced.timing()["ops_per_s"])
            spans_path = os.path.join(
                OUT, "spans-%s-seed%d.tsv.gz" % (spec.name, args.seed)
            )
            recorder.write(spans_path)
            report["trace"] = {
                "spans": len(recorder.start),
                "spans_file": os.path.relpath(spans_path, ROOT),
                "layers_ms_per_read": ledger.layer_ms("bench:read"),
                "layers_ms_per_update": ledger.layer_ms("bench:update"),
                "traced_read_ms": ledger.total_ns("bench:read") / 1e6
                / max(1, ledger.ops("bench:read")),
                "traced_update_ms": ledger.total_ns("bench:update") / 1e6
                / max(1, ledger.ops("bench:update")),
                "per_layer": {k: v for k, (v, _unit) in metrics.items()},
                "counts": traced.counts(),
            }
        else:
            metrics = end_to_end(untraced, setups)
    finally:
        if deployment is not None:
            deployment.close()

    failures = [error for phase in phases for error in phase.failures]
    attempted = sum(phase.attempted for phase in phases)
    report["failed"] = len(failures)
    report["attempted"] = attempted
    path = os.path.join(OUT, "report-%s-seed%d-trace%d.json"
                        % (spec.name, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    extra = report["update_and_failures"]
    print("%s seed %d: %d reads, %d updates in the untraced phase; "
          "update p50 %.2f ms p90 %.2f ms; failed_share %.4f; space_amp %.3f; "
          "report %s" % (
              spec.name, args.seed, extra["samples"]["reads"],
              extra["samples"]["updates"], extra["update_p50_ms"],
              extra["update_p90_ms"], extra["failed_share"], extra["space_amp"],
              os.path.relpath(path, ROOT)))
    for error in failures[:5]:
        print("FAILED: %s" % error)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
