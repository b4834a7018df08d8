"""One benchmark run: set up, measure, check, and compute the metrics.

End-to-end metrics come from an untraced closed loop (for ``serve``,
followed by a seeded open loop reported in the run details).  Per-layer
metrics come from a separate run whose first half is untraced (boundary data: op
counts, ``RunResult.profile``, ``/proc``, the gateway log) and whose
second half is traced (spans around the layers' entry points); the ratio
of the two halves' throughput is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

from perfbench import spans as tracing
from perfbench.check import Tally
from perfbench.loadgen import JobStream, Phase, closed_loop, open_loop, poisson_schedule
from perfbench.procfs import tree_peak_rss_kib
from perfbench.stats import grouped_median, median, percentile, tail
from perfbench.workloads import Rig, Workload, set_up

#: (name, unit, better) of every end-to-end metric, reported untraced.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("cpu_ms_per_job", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric, from the traced run.
PER_LAYER = (
    ("lang.parse_ms_per_job", "ms", "lower"),
    ("lang.self_ms_per_job", "ms", "lower"),
    ("contracts.checks_per_job", "count", "lower"),
    ("contracts.self_ms_per_job", "ms", "lower"),
    ("capability.calls_per_job", "count", "lower"),
    ("capability.self_ms_per_job", "ms", "lower"),
    ("sandbox.sandboxes_per_job", "count", "lower"),
    ("sandbox.grants_per_job", "count", "lower"),
    ("sandbox.setup_ms_per_sandbox", "ms", "lower"),
    ("sandbox.teardown_ms_per_sandbox", "ms", "lower"),
    ("sandbox.audit_ms_per_job", "ms", "lower"),
    ("programs.execs_per_job", "count", "lower"),
    ("programs.self_ms_per_exec", "ms", "lower"),
    ("kernel.syscalls_per_job", "count", "lower"),
    ("kernel.vnode_ops_per_job", "count", "lower"),
    ("kernel.mac_checks_per_job", "count", "lower"),
    ("kernel.dcache_hit_ratio", "ratio", "higher"),
    ("kernel.syscall_self_ms_per_job", "ms", "lower"),
    ("kernel.mac_ms_per_job", "ms", "lower"),
    ("world.fork_ms_per_job", "ms", "lower"),
    ("kernel.serialize.snapshot_ms", "ms", "lower"),
    ("kernel.serialize.snapshot_bytes", "bytes", "lower"),
    ("kernel.store.hits", "count", "higher"),
    ("kernel.store.misses", "count", "lower"),
    ("api.executors.prepare_s", "s", "lower"),
    ("api.executors.overhead_ms_p50", "ms", "lower"),
    ("api.executors.child_sys_ms_per_job", "ms", "lower"),
    ("remote.wire.frames_per_job", "count", "lower"),
    ("remote.wire.bytes_per_job", "bytes", "lower"),
    ("remote.wire.send_ms_per_job", "ms", "lower"),
    ("serve.busy_per_job", "count", "lower"),
    ("serve.cache_hits", "count", "lower"),
    ("serve.agent_ms_p50", "ms", "lower"),
    ("serve.gateway_ms_p50", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

#: Per-layer metrics that need a span inside the job's own process:
#: they read 0 where jobs run in pool workers or agents.
IN_PROCESS_ONLY = (
    "lang.parse_ms_per_job", "lang.self_ms_per_job",
    "contracts.checks_per_job", "contracts.self_ms_per_job",
    "capability.calls_per_job", "capability.self_ms_per_job",
    "sandbox.grants_per_job", "sandbox.setup_ms_per_sandbox",
    "sandbox.teardown_ms_per_sandbox", "sandbox.audit_ms_per_job",
    "programs.self_ms_per_exec", "kernel.dcache_hit_ratio",
    "kernel.syscall_self_ms_per_job", "kernel.mac_ms_per_job",
    "world.fork_ms_per_job",
)

#: Per-layer metrics read from the executor's ``SnapshotStore``: they read
#: 0 where the executor keeps none (every workload but ``serve``).
STORE_ONLY = ("kernel.store.hits", "kernel.store.misses")


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool, workdir: Path, trace_path: Path) -> tuple[dict, dict]:
    """Run ``workload`` once; returns (result line, run details)."""
    tracer = tracing.Tracer() if trace else None
    allowed = sorted(os.sched_getaffinity(0))
    setups: list[Rig] = []
    rig = None
    try:
        for repeat in range(workload.setup_repeats):
            if rig is not None:
                rig.close()
                rig = None
            if tracer is not None:
                # Only the last set-up's snapshot spans are kept.
                tracer.take()
                tracer.bytes.clear()
                tracing.install_setup(tracer)
            if workload.in_process:
                # Set-ups take turns on the CPUs, as measured jobs do (see
                # loadgen.closed_loop): with an even number of set-ups on
                # two CPUs, the median falls between one from each.
                os.sched_setaffinity(0, {allowed[repeat % len(allowed)]})
            try:
                rig = set_up(workload, workdir / f"setup{repeat}")
            finally:
                os.sched_setaffinity(0, allowed)
                if tracer is not None:
                    tracer.unpatch()
            setups.append(rig)
        if tracer is not None:
            return _traced_run(workload, seed, seconds, rig, setups, tracer, trace_path)
        return _untraced_run(workload, seed, seconds, rig, setups)
    finally:
        if rig is not None:
            rig.close()


#: Share of a ``serve`` run given to the open loop.  Its latencies are
#: reported in the run details, not as end-to-end metrics: timed from the
#: scheduled send, they charge every host stall to all the jobs queued
#: behind it, and their tail moved by 20-45% between runs of identical
#: code (README.md, "Noise").
OPEN_LOOP_SHARE = 1 / 3


def _untraced_run(workload: Workload, seed: int, seconds: float,
                  rig: Rig, setups: list[Rig]) -> tuple[dict, dict]:
    reference = rig.reference
    closed_s = seconds * (1 - OPEN_LOOP_SHARE) if workload.open_loop else seconds
    closed = closed_loop(rig.executor, JobStream(workload.body, workload.user, seed, "c"),
                         reference, window=workload.window, seconds=closed_s,
                         rotate_cpus=workload.in_process)
    phases = [closed]
    if workload.open_loop:
        rate = workload.offered_rate_per_s
        opened = open_loop(rig.executor, JobStream(workload.body, workload.user, seed, "o"),
                           reference,
                           schedule=poisson_schedule(seed, rate, seconds * OPEN_LOOP_SHARE))
        phases.append(opened)
    peak_rss_kib = tree_peak_rss_kib()
    tally = _total(phases)
    latencies = closed.latencies_ms
    p90, pct = _tail(latencies)
    metrics = {
        "setup_s": median([setup.setup_s for setup in setups]),
        "jobs_per_s": closed.jobs_per_s,
        "latency_p50_ms": median(latencies) if latencies else 0.0,
        "latency_p90_ms": p90,
        "ok_ratio": tally.passed / tally.submitted if tally.submitted else 0.0,
        "cpu_ms_per_job": 1000 * sum(closed.cpu.values()) / max(closed.received, 1),
        "peak_rss_mb": peak_rss_kib / 1024,
    }
    details = _details(setups, rig, phases, _gateway_events(rig))
    details["latency"] = {"samples": len(latencies), "p90_is_percentile": pct}
    if workload.open_loop:
        opened_ms = opened.latencies_ms
        lateness = [late * 1000 for late in opened.lateness_s]
        open_p90, open_pct = _tail(opened_ms)
        details["open_loop"] = {
            "offered_rate_per_s": rate, "seconds": seconds * OPEN_LOOP_SHARE,
            "scheduled": len(lateness), "samples": len(opened_ms),
            "latency_p50_ms": median(opened_ms) if opened_ms else 0.0,
            "latency_p90_ms": open_p90, "p90_is_percentile": open_pct,
            "lateness_ms_p50": median(lateness) if lateness else 0.0,
            "lateness_ms_p90": percentile(lateness, 90) if lateness else 0.0,
            "lateness_ms_max": max(lateness, default=0.0),
        }
    return _result(tally, setups, END_TO_END, metrics), details


def _traced_run(workload: Workload, seed: int, seconds: float, rig: Rig,
                setups: list[Rig], tracer: tracing.Tracer,
                trace_path: Path) -> tuple[dict, dict]:
    reference = rig.reference
    setup_spans = tracer.take()
    snapshot_bytes = tracer.bytes["kernel.serialize.snapshot"]
    tracer.bytes.clear()
    untraced = closed_loop(rig.executor, JobStream(workload.body, workload.user, seed, "u"),
                           reference, window=workload.window, seconds=seconds / 2,
                           rotate_cpus=workload.in_process)

    # Job kernels' dcache counters, read when their job has returned.
    forks: list = []
    dcache = {"hits": 0, "misses": 0}

    def on_fork(kernel) -> None:
        forks.append((kernel, kernel.stats.dcache_hits, kernel.stats.dcache_misses))

    def after_job(_tag, _result) -> None:
        for kernel, hits, misses in forks:
            dcache["hits"] += kernel.stats.dcache_hits - hits
            dcache["misses"] += kernel.stats.dcache_misses - misses
        forks.clear()

    tracing.install_layers(tracer, on_fork)
    try:
        traced = closed_loop(rig.executor, JobStream(workload.body, workload.user, seed, "t"),
                             reference, window=workload.window, seconds=seconds / 2,
                             rotate_cpus=workload.in_process, after_job=after_job)
    finally:
        tracer.unpatch()
    spans = tracer.take()
    tracer.write(trace_path, itertools.chain(setup_spans, spans))

    names = tracing.summarize(spans)
    layers: dict[str, dict[str, float]] = {}
    for name, row in names.items():
        into = layers.setdefault(tracer.layer_of.get(name, name), {"count": 0, "self_s": 0.0})
        into["count"] += row["count"]
        into["self_s"] += row["self_s"]

    def count(*of: str) -> float:
        return sum(names.get(name, {}).get("count", 0) for name in of)

    def self_ms(*of: str) -> float:
        return 1000 * sum(names.get(name, {}).get("self_s", 0.0) for name in of)

    jobs = max(traced.received, 1)
    ops = reference.ops
    sandboxes = ops["sandboxes_created"] * jobs
    execs = ops["execs"] * jobs
    looked_up = dcache["hits"] + dcache["misses"]
    store = getattr(rig.executor, "store", None)
    events = _gateway_events(rig)
    agent_ms = _agent_intervals_ms(events)
    untraced_agent = [(latency * 1000, agent_ms[tag]) for tag, latency, _r in untraced.done
                      if tag in agent_ms]
    measured = {tag for phase in (untraced, traced) for tag, _l, _r in phase.done}
    busy = sum(1 for event in events
               if event.get("event") == "busy" and event.get("name") in measured)
    submitted = untraced.tally.submitted + traced.tally.submitted
    wire = layers.get("remote.wire", {"count": 0})
    metrics = {
        "lang.parse_ms_per_job": self_ms("lang.parse") / jobs,
        "lang.self_ms_per_job": self_ms("lang.run", "lang.apply") / jobs,
        "contracts.checks_per_job": count("contracts.check") / jobs,
        "contracts.self_ms_per_job": 1000 * layers.get("contracts", {}).get("self_s", 0.0) / jobs,
        "capability.calls_per_job": layers.get("capability", {}).get("count", 0) / jobs,
        "capability.self_ms_per_job": 1000 * layers.get("capability", {}).get("self_s", 0.0) / jobs,
        "sandbox.sandboxes_per_job": ops["sandboxes_created"],
        "sandbox.grants_per_job": count("sandbox.grant") / jobs,
        "sandbox.setup_ms_per_sandbox": (self_ms("sandbox.init", "sandbox.grant", "sandbox.enter")
                                         / sandboxes if sandboxes else 0.0),
        "sandbox.teardown_ms_per_sandbox": (self_ms("sandbox.teardown") / sandboxes
                                            if sandboxes else 0.0),
        "sandbox.audit_ms_per_job": self_ms("sandbox.audit") / jobs,
        "programs.execs_per_job": ops["execs"],
        "programs.self_ms_per_exec": self_ms("programs.main") / execs if execs else 0.0,
        "kernel.syscalls_per_job": ops["total_syscalls"],
        "kernel.vnode_ops_per_job": ops["vnode_ops"],
        "kernel.mac_checks_per_job": ops["mac_checks"],
        "kernel.dcache_hit_ratio": dcache["hits"] / looked_up if looked_up else 0.0,
        "kernel.syscall_self_ms_per_job": self_ms("kernel.syscall") / jobs,
        "kernel.mac_ms_per_job": self_ms("kernel.mac") / jobs,
        "world.fork_ms_per_job": self_ms("world.fork") / jobs,
        "kernel.serialize.snapshot_ms": 1000 * sum(
            end - start for _sid, name, start, end, _p in setup_spans
            if name == "kernel.serialize.snapshot"),
        "kernel.serialize.snapshot_bytes": snapshot_bytes,
        "kernel.store.hits": store.stats["hits"] if store is not None else 0,
        "kernel.store.misses": store.stats["misses"] if store is not None else 0,
        "api.executors.prepare_s": median([setup.prepare_s for setup in setups]),
        "api.executors.overhead_ms_p50": median([
            1000 * (latency - result.profile["startup"] - result.profile["total"])
            for _tag, latency, result in untraced.done]) if untraced.done else 0.0,
        "api.executors.child_sys_ms_per_job": (1000 * untraced.cpu["children_sys"]
                                                / max(untraced.received, 1)),
        "remote.wire.frames_per_job": wire["count"] / jobs,
        "remote.wire.bytes_per_job": sum(tracer.bytes.values()) / jobs,
        "remote.wire.send_ms_per_job": 1000 * names.get("remote.wire.send", {}).get(
            "total_s", 0.0) / jobs,
        "serve.busy_per_job": busy / submitted if submitted else 0.0,
        "serve.cache_hits": _cache_hits(events),
        "serve.agent_ms_p50": (grouped_median([agent for _l, agent in untraced_agent], 1.0)
                               if untraced_agent else 0.0),
        "serve.gateway_ms_p50": (median([latency - agent for latency, agent in untraced_agent])
                                 if untraced_agent else 0.0),
        "trace.overhead_ratio": (traced.jobs_per_s / untraced.jobs_per_s
                                 if untraced.jobs_per_s else 0.0),
    }
    details = _details(setups, rig, [untraced, traced], events)
    details["trace"] = {
        "file": str(trace_path.name), "spans": len(spans), "setup_spans": len(setup_spans),
        "untraced_jobs_per_s": untraced.jobs_per_s, "traced_jobs_per_s": traced.jobs_per_s,
        "unobservable": ([] if workload.in_process else list(IN_PROCESS_ONLY))
                        + (list(STORE_ONLY) if store is None else []),
        "layers_self_ms_per_job": {layer: 1000 * row["self_s"] / jobs
                                   for layer, row in sorted(layers.items())},
    }
    return _result(_total([untraced, traced]), setups, PER_LAYER, metrics), details


# -- shared ------------------------------------------------------------------


def _total(phases: list[Phase]) -> Tally:
    tally = Tally()
    for phase in phases:
        tally = tally.merge(phase.tally)
    return tally


def _tail(latencies: list[float]) -> tuple[float, int]:
    """The reportable tail: p90 where there are enough samples, else
    the highest percentile with enough beyond it, else the maximum."""
    try:
        return tail(latencies)
    except ValueError:
        return max(latencies, default=0.0), 100


def _gateway_events(rig: Rig) -> list[dict]:
    if rig.log_path is None or not rig.log_path.exists():
        return []
    return [json.loads(line) for line in rig.log_path.read_text().splitlines() if line.strip()]


def _cache_hits(events: list[dict]) -> int:
    return sum(1 for event in events if event.get("event") == "cache_hit")


def _busy(events: list[dict]) -> int:
    return sum(1 for event in events if event.get("event") == "busy")


def _agent_intervals_ms(events: list[dict]) -> dict[str, float]:
    """Job name -> milliseconds from the gateway's dispatch to the
    agent's result, from the gateway log's millisecond timestamps."""
    dispatched: dict[str, float] = {}
    out: dict[str, float] = {}
    for event in events:
        name = event.get("name")
        if event.get("event") == "dispatch":
            dispatched[name] = event["ts"]
        elif event.get("event") == "result" and name in dispatched:
            out[name] = 1000 * (event["ts"] - dispatched[name])
    return out


def _details(setups: list[Rig], rig: Rig, phases: list[Phase], events: list[dict]) -> dict:
    return {
        "setup_s_samples": [setup.setup_s for setup in setups],
        "phases": [{"submitted": phase.tally.submitted, "passed": phase.tally.passed,
                    "faults": dict(phase.tally.faults), "wall_s": phase.wall_s,
                    "jobs_per_s": phase.jobs_per_s, "empty_polls": phase.empty_polls,
                    "cpu_s": phase.cpu} for phase in phases],
        "warmup": {"submitted": rig.warmup.submitted, "faults": dict(rig.warmup.faults)},
        "reference_ops": rig.reference.ops,
        "batch_cache_hits": rig.batch_cache_hits,
        "gateway": {"busy": _busy(events),
                    "cache_hits": _cache_hits(events)} if rig.log_path else None,
    }


def _result(tally: Tally, setups: list[Rig], table: tuple, metrics: dict) -> dict:
    """The result line.  A run is correct only if every job passed its
    check, no cache answered any job (like-for-like) and the gateway
    refused nothing (its admission sits above the offered load, so a
    BUSY reply is a regression even when the retry succeeded)."""
    warm_faults = sum(setup.warmup.failed for setup in setups)
    cached = busy = 0
    for setup in setups:
        events = _gateway_events(setup)
        cached += setup.batch_cache_hits + _cache_hits(events)
        busy += _busy(events)
    return {
        "correct": tally.failed == 0 and warm_faults == 0 and cached == 0 and busy == 0,
        "attempted": tally.submitted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _better in table},
    }
