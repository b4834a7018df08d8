"""The four workloads and their set-up.

Each workload runs one job shape against one world through one
executor.  Set-up boots the world afresh, starts the executor (and,
for ``serve``, a gateway and an agent), runs the reference job through a
``Batch(cache=False)`` and then a fixed number of warm-up jobs, so that
everything lazy has happened before the first measured job.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from perfbench.check import REFERENCE_TAG, Reference, ReferenceError, Tally, job_source

#: The Figure-5-style tree walk: print every ``.c`` file under a
#: directory.  The same script as the executor benchmarks' Find walk.
WALK_CAP = """\
#lang shill/cap
provide walk :
  {cur : dir(+contents, +lookup, +path) \\/ file(+path, +read),
   out : file(+append)} -> void;
walk = fun(cur, out) {
  if is_file(cur) && has_ext(cur, "c") then
    append(out, path(cur) + "\\n");
  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then walk(child, out);
    }
}
"""


def walk_body(passes: int) -> str:
    return ('#lang shill/ambient\nrequire "walk.cap";\n'
            'src = open_dir("/usr/src");\n' + "walk(src, stdout);\n" * passes)


@dataclass
class Rig:
    """A set-up workload: the bound executor and what set-up measured."""

    executor: Any
    procs: list = field(default_factory=list)
    log_path: "Path | None" = None
    reference: "Reference | None" = None
    setup_s: float = 0.0
    prepare_s: float = 0.0
    warmup: Tally = field(default_factory=Tally)
    batch_cache_hits: int = 0

    def close(self) -> None:
        """Close the executor, then stop every process set-up started."""
        try:
            self.executor.close()
        finally:
            stop(self.procs)


def stop(procs: list) -> None:
    """Terminate each process in order and wait until it has ended."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


#: The size of the ``usr_src`` world: that of ``repro.bench.SCALE``
#: (``src_subsystems``, ``src_files_per_dir``), written out rather than
#: imported.  Importing ``repro.bench`` loads its statistics stack (about
#: 80 MB), which tripled the benchmark's peak RSS and halved ``fanout``'s
#: throughput, whose pool workers fork from this process.  Frozen here,
#: the world also stays the same if the paper figures are rescaled.
USR_SRC_SUBSYSTEMS = 6
USR_SRC_FILES_PER_DIR = 12

#: Pool workers or channels of the parallel workloads: the CPUs of the
#: 2-core hosts the benchmark was built on.
WORKERS = 2

#: The workload constants recorded with each result.
SETTINGS = ("window", "setup_repeats", "warmup_jobs", "passes", "offered_rate_per_s",
            "gateway")


class Workload:
    """One job shape, one world, one executor."""

    name = ""
    #: Jobs the closed loop keeps in flight.
    window = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 12
    #: Jobs run after the reference job, inside set-up.
    warmup_jobs = 3
    #: Whether jobs run in this process, where every layer can be wrapped.
    in_process = True
    #: Whether a seeded open loop follows the closed loop; its latencies
    #: go to the run details.
    open_loop = False
    user: "str | None" = None

    def __init__(self) -> None:
        self.scripts: dict = {}
        #: The job script; each job appends its own marker line.
        self.body = ""

    def settings(self) -> dict:
        """The constants this workload runs with, for the run details."""
        return {name: getattr(self, name) for name in SETTINGS if hasattr(self, name)}

    def world(self):
        from repro.casestudies.findgrep import usr_src_world

        return usr_src_world(True, subsystems=USR_SRC_SUBSYSTEMS,
                             files_per_dir=USR_SRC_FILES_PER_DIR)

    def start(self, workdir: Path) -> Rig:
        """A fresh executor (and any processes behind it)."""
        from repro.api import SequentialExecutor

        return Rig(SequentialExecutor())


class Walk(Workload):
    name = "walk"
    #: Walks of /usr/src per job.
    passes = 4

    def __init__(self) -> None:
        super().__init__()
        self.scripts = {"walk.cap": WALK_CAP}
        self.body = walk_body(self.passes)


class Install(Workload):
    name = "install"
    user = "root"

    def __init__(self) -> None:
        from repro.casestudies import package_mgmt

        super().__init__()
        self.scripts = dict(package_mgmt.SCRIPTS)
        # The directories the case study's PackageManager works in.
        dirs = {f.name: f.default for f in fields(package_mgmt.PackageManager)}
        self.body = package_mgmt.AMBIENT_SCRIPT_TEMPLATE.format(
            downloads=dirs["downloads"], prefix=dirs["prefix"])

    def world(self):
        from repro.casestudies.package_mgmt import emacs_world

        return emacs_world(True)


class Fanout(Walk):
    name = "fanout"
    in_process = False
    window = WORKERS
    passes = 1
    warmup_jobs = 8

    def start(self, workdir: Path) -> Rig:
        from repro.api import ProcessExecutor

        return Rig(ProcessExecutor(workers=self.window))


class Serve(Workload):
    name = "serve"
    in_process = False
    open_loop = True
    window = WORKERS
    warmup_jobs = 40
    #: Jobs per second the open loop offers: about a third of the
    #: closed loop's capacity on the hosts the benchmark was built on.
    offered_rate_per_s = 180
    #: ``spawn_local_gateway`` settings.  Admission (rate, burst,
    #: max-pending) sits far above what WORKERS channels can offer, so
    #: any BUSY reply is a regression; the result cache is off so that
    #: no job is answered without running.
    gateway = {"rate": 20000, "burst": 20000, "max_pending": 64,
               "concurrency": WORKERS, "result_cache": 0}

    def __init__(self) -> None:
        from repro.casestudies.findgrep import PROBE_AMBIENT

        super().__init__()
        self.body = PROBE_AMBIENT

    def start(self, workdir: Path) -> Rig:
        from repro.api import ServeExecutor
        from repro.remote.agent import spawn_local_agent
        from repro.serve import spawn_local_gateway

        log_path = workdir / "gateway.jsonl"
        procs: list = []
        try:
            gateway_proc, gateway = spawn_local_gateway(
                workdir / "gateway", request_log=log_path,
                **self.gateway)
            procs.append(gateway_proc)
            agent_proc, _address = spawn_local_agent(workdir / "agent", announce=gateway)
            # The agent stops first, so the gateway sees it retire.
            procs.insert(0, agent_proc)
            executor = ServeExecutor(gateway, store=workdir / "client",
                                     concurrency=self.window)
        except BaseException:
            stop(procs)
            raise
        return Rig(executor, procs, log_path)


WORKLOADS = {cls.name: cls for cls in (Walk, Install, Fanout, Serve)}


def set_up(workload: Workload, workdir: Path) -> Rig:
    """Boot, start, check the reference job, warm up; time all of it."""
    from repro.api import Batch, clear_boot_cache

    started = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    clear_boot_cache()
    world = workload.world()
    rig = workload.start(workdir)
    try:
        reference = Batch(world, scripts=workload.scripts, cache=False)
        reference.add(job_source(workload.body, REFERENCE_TAG), user=workload.user,
                      name=REFERENCE_TAG)
        ran = time.perf_counter()
        results = reference.run(executor=rig.executor)
        wall = time.perf_counter() - ran
        if len(results) != 1:
            raise ReferenceError(f"reference batch returned {len(results)} results")
        rig.reference = Reference.from_result(results[0])
        # Everything the reference run cost beyond the job itself: boot
        # source, bind, pool start or PREPARE, the round trip.
        rig.prepare_s = wall - results[0].profile["startup"] - results[0].profile["total"]

        warm = Batch(world, scripts=workload.scripts, cache=False)
        count = workload.warmup_jobs
        for index in range(count):
            tag = f"warm{index}"
            warm.add(job_source(workload.body, tag), user=workload.user, name=tag)
        rig.warmup.submitted = count
        for job, result in warm.as_completed(executor=rig.executor):
            rig.warmup.check(rig.reference, job.name, result)
        rig.warmup.missing(count - rig.warmup.passed - rig.warmup.failed)
        rig.batch_cache_hits = reference.cache_report["hits"] + warm.cache_report["hits"]
        rig.setup_s = time.perf_counter() - started
    except BaseException:
        rig.close()
        raise
    return rig
