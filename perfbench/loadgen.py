"""Load generators: a closed loop and a seeded open loop.

Both drive an already bound :class:`repro.api.Executor` through its
public ``submit`` / ``as_completed`` verbs, check every result against
the workload's reference, and time each job:

* the **closed loop** keeps ``window`` jobs in flight and sends the next
  one when one returns; a job's latency runs from its submit to its
  result;
* the **open loop** sends on a seeded Poisson schedule whatever the
  system does; a job's latency runs from its *scheduled* send time, so a
  stall also charges the jobs queued behind it, and the generator's own
  lateness is recorded.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Any, Callable

from perfbench.check import Reference, Tally, job_source
from perfbench.procfs import cpu_delta, tree_cpu

#: How long a job may stay unanswered before it is counted missing.
JOB_TIMEOUT_S = 30.0


def poisson_schedule(seed: int, rate: float, seconds: float) -> list[float]:
    """Send offsets (seconds from the phase start) of a Poisson process
    at ``rate`` per second over ``seconds``; the same seed gives the same
    schedule."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(f"open-loop:{seed}")
    offsets: list[float] = []
    at = rng.expovariate(rate)
    while at < seconds:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets


class JobStream:
    """Unique jobs of one workload: its script plus a seeded marker tag."""

    def __init__(self, body: str, user: "str | None", seed: int, prefix: str) -> None:
        from repro.api import ExecutorJob

        self._job = ExecutorJob
        self._body = body
        self._user = user
        self._prefix = prefix
        self._rng = random.Random(f"jobs:{prefix}:{seed}")
        self._count = 0

    def next(self):
        self._count += 1
        tag = f"{self._prefix}{self._count}-{self._rng.getrandbits(32):08x}"
        return self._job(index=self._count, name=tag,
                         source=job_source(self._body, tag), user=self._user)


@dataclass
class Phase:
    """One measured phase: what was sent, what came back, what it cost."""

    tally: Tally = field(default_factory=Tally)
    #: (tag, latency seconds, result) of every job whose result passed.
    done: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu: dict = field(default_factory=dict)
    lateness_s: list = field(default_factory=list)
    #: ``as_completed`` calls that yielded nothing although a job had
    #: finished (see :meth:`_InFlight.collect`).
    empty_polls: int = 0

    @property
    def jobs_per_s(self) -> float:
        """Passed jobs over the whole phase's wall time."""
        return self.tally.passed / self.wall_s if self.wall_s else 0.0

    @property
    def latencies_ms(self) -> list[float]:
        return [latency * 1000 for _tag, latency, _result in self.done]

    @property
    def received(self) -> int:
        return self.tally.submitted - self.tally.faults["missing"]


class _InFlight:
    """The jobs one loop has sent and not yet collected, and the phase
    they are recorded in."""

    def __init__(self, executor, reference: Reference,
                 after_job: "Callable[[str, Any], None] | None") -> None:
        self.executor = executor
        self.reference = reference
        self.after_job = after_job
        self.phase = Phase()
        self.inflight: dict = {}      # handle -> (tag, start time)

    def send(self, job, started: float) -> None:
        self.phase.tally.submitted += 1
        try:
            handle = self.executor.submit(job)
        except Exception as err:  # a refused submit is a failed job
            self.phase.tally.raised(err)
            return
        self.inflight[handle] = (job.name, started)

    def collect(self, timeout: float) -> bool:
        """Take one finished job, waiting at most ``timeout``; False if
        none finished in time."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                handle = next(iter(self.executor.as_completed(
                    list(self.inflight), timeout=max(0.0, deadline - time.perf_counter()))))
                break
            except FuturesTimeout:
                return False
            except StopIteration:
                # Executor.as_completed yields nothing for a handle that
                # finishes between its "done" and "waiting" snapshots
                # (README.md, "Missing results"); asking again finds it.
                self.phase.empty_polls += 1
        finished = time.perf_counter()
        tag, started = self.inflight.pop(handle)
        try:
            result = handle.result()
        except Exception as err:  # BUSY exhaustion, a dead host, an engine bug
            self.phase.tally.raised(err)
            return True
        if self.after_job is not None:
            self.after_job(tag, result)
        if self.phase.tally.check(self.reference, tag, result):
            self.phase.done.append((tag, finished - started, result))
        return True

    def abandon(self) -> None:
        """Count everything still in flight as missing."""
        self.phase.tally.missing(len(self.inflight))
        self.inflight.clear()


def closed_loop(executor, jobs: JobStream, reference: Reference, *, window: int,
                seconds: float, rotate_cpus: bool = False,
                after_job: "Callable[[str, Any], None] | None" = None) -> Phase:
    """Keep ``window`` jobs in flight for ``seconds``, then drain.

    With ``rotate_cpus``, each job is sent from the next CPU this thread
    may use, in turn.  Jobs that run on the sending thread then sample
    every CPU equally: on a virtual machine each virtual CPU's speed
    drifts on its own for seconds at a time, and a single-threaded run
    left on one CPU would report that CPU's drift.
    """
    flight = _InFlight(executor, reference, after_job)
    allowed = sorted(os.sched_getaffinity(0))
    turn = 0
    cpu0 = tree_cpu()
    start = time.perf_counter()
    deadline = start + seconds
    try:
        while True:
            while len(flight.inflight) < window and time.perf_counter() < deadline:
                if rotate_cpus:
                    os.sched_setaffinity(0, {allowed[turn % len(allowed)]})
                    turn += 1
                flight.send(jobs.next(), time.perf_counter())
            if not flight.inflight:
                break
            if not flight.collect(JOB_TIMEOUT_S):
                flight.abandon()
    finally:
        if rotate_cpus:
            os.sched_setaffinity(0, allowed)
    flight.phase.wall_s = time.perf_counter() - start
    flight.phase.cpu = cpu_delta(cpu0, tree_cpu())
    return flight.phase


def open_loop(executor, jobs: JobStream, reference: Reference, *,
              schedule: list[float],
              after_job: "Callable[[str, Any], None] | None" = None) -> Phase:
    """Send one job at each offset of ``schedule``, then drain."""
    flight = _InFlight(executor, reference, after_job)
    cpu0 = tree_cpu()
    start = time.perf_counter()
    sent = 0
    while sent < len(schedule) or flight.inflight:
        now = time.perf_counter()
        while sent < len(schedule) and start + schedule[sent] <= now:
            due = start + schedule[sent]
            flight.send(jobs.next(), due)
            flight.phase.lateness_s.append(time.perf_counter() - due)
            sent += 1
            now = time.perf_counter()
        if sent < len(schedule):
            wait = max(0.0, start + schedule[sent] - now)
            if flight.inflight:
                flight.collect(wait)
            else:
                time.sleep(wait)
        elif not flight.collect(JOB_TIMEOUT_S):
            flight.abandon()
    flight.phase.wall_s = time.perf_counter() - start
    flight.phase.cpu = cpu_delta(cpu0, tree_cpu())
    return flight.phase
