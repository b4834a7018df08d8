"""Tests of the benchmark's own helpers (not of the program it measures).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeout
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import loadgen, measure, procfs, spans, stats  # noqa: E402
from perfbench.check import Reference, Tally, job_source  # noqa: E402
from perfbench.measure import END_TO_END, PER_LAYER  # noqa: E402


# -- the p90 rule ------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(100, 90), (1000, 90), (50, 80), (37, 72), (11, 9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    values = list(range(n))
    value, used = stats.tail(values)
    assert used == pct
    assert sum(1 for v in values if v > value) >= stats.TAIL_SAMPLES


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(10)


def test_p90_of_a_hundred_samples_has_exactly_ten_beyond():
    value, pct = stats.tail([float(v) for v in range(1, 101)])
    assert (value, pct) == (90.0, 90)


def test_grouped_median_interpolates_within_the_median_bin():
    # Four samples in the 2 ms bin [1.5, 2.5) and two below: the median
    # (3rd of 6) lies one quarter into that bin.
    assert stats.grouped_median([1, 1, 2, 2, 2, 2], 1.0) == pytest.approx(1.75)
    assert stats.grouped_median([3.0] * 5, 1.0) == pytest.approx(3.0)


# -- self time with nested spans ---------------------------------------------


def test_self_time_subtracts_what_children_cover():
    recorded = [
        (1, "root", 0.0, 10.0, 0),
        (2, "child", 1.0, 4.0, 1),
        (3, "grandchild", 2.0, 3.0, 2),
        (4, "child", 5.0, 7.0, 1),
    ]
    summary = spans.summarize(recorded)
    assert summary["root"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert summary["grandchild"]["self_s"] == pytest.approx(1.0)
    assert summary["child"]["count"] == 2
    assert summary["child"]["self_s"] == pytest.approx(2.0 + 2.0)
    assert summary["child"]["total_s"] == pytest.approx(5.0)


class _Layered:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        time.sleep(0.001)
        return n


def test_tracer_nests_spans_and_restores_the_originals():
    tracer = spans.Tracer()
    original = _Layered.__dict__["outer"]
    tracer.patch(_Layered, "outer", "layer.outer", "layer")
    tracer.patch(_Layered, "inner", "layer.inner", "layer")
    assert _Layered().outer(2) == 3
    tracer.unpatch()
    assert _Layered.__dict__["outer"] is original
    recorded = tracer.take()
    assert len(recorded) == 2
    by_name = {name: (sid, parent) for sid, name, _s, _e, parent in recorded}
    assert by_name["layer.outer"][1] == 0
    assert by_name["layer.inner"][1] == by_name["layer.outer"][0]
    summary = spans.summarize(recorded)
    assert summary["layer.outer"]["self_s"] < summary["layer.inner"]["self_s"]
    assert len(tracer.take()) == 0


# -- /proc readers over child processes --------------------------------------

_CHILD = """
import sys, time
block = bytearray(48 * 1024 * 1024)
for i in range(0, len(block), 4096):
    block[i] = 1
end = time.process_time() + 0.3
while time.process_time() < end:
    pass
sys.stdout.write("ready\\n"); sys.stdout.flush()
sys.stdin.readline()
"""


def test_tree_readers_include_children_live_and_reaped():
    before = procfs.tree_cpu()
    child = subprocess.Popen([sys.executable, "-c", _CHILD], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "ready\n"
        assert child.pid in procfs.descendants(procfs.os.getpid())
        live = procfs.cpu_delta(before, procfs.tree_cpu())
        assert live["children_user"] + live["children_sys"] >= 0.2
        assert procfs.peak_rss_kib(child.pid) >= 48 * 1024
        assert procfs.tree_peak_rss_kib() >= procfs.peak_rss_kib(procfs.os.getpid()) + 48 * 1024
    finally:
        child.communicate("\n", timeout=30)
    reaped = procfs.cpu_delta(before, procfs.tree_cpu())
    assert reaped["children_user"] + reaped["children_sys"] >= 0.2
    assert procfs.peak_rss_kib(child.pid) == 0


# -- the seeded open-loop schedule -------------------------------------------


def test_poisson_schedule_repeats_per_seed():
    first = loadgen.poisson_schedule(7, 200.0, 5.0)
    assert first == loadgen.poisson_schedule(7, 200.0, 5.0)
    assert first != loadgen.poisson_schedule(8, 200.0, 5.0)
    assert first == sorted(first)
    assert 0.0 < first[0] and first[-1] < 5.0
    assert 900 <= len(first) <= 1100


def test_poisson_schedule_rejects_a_non_positive_rate():
    with pytest.raises(ValueError):
        loadgen.poisson_schedule(1, 0.0, 1.0)


# -- the output check --------------------------------------------------------


def _result(stdout, status=0, stderr="", ops=None):
    return SimpleNamespace(stdout=stdout, status=status, stderr=stderr,
                           ops=ops or {"vnode_ops": 4}, profile={"startup": 0.0, "total": 0.0})


REFERENCE = Reference.from_result(_result("/usr/src\njob ref\n"))


def test_check_accepts_the_reference_output_under_another_marker():
    assert REFERENCE.fault("a1", _result("/usr/src\njob a1\n")) is None
    assert job_source("body\n", "a1") == 'body\nappend(stdout, "job a1\\n");\n'


@pytest.mark.parametrize("result, fault", [
    (None, "missing"),
    (_result("/usr/src\njob a2\n"), "stdout differs"),
    (_result("/usr/bin\njob a1\n"), "stdout differs"),
    (_result("/usr/src\njob a1\n", status=1), "status 1"),
    (_result("/usr/src\njob a1\n", stderr="boom"), "stderr differs"),
    (_result("/usr/src\njob a1\n", ops={"vnode_ops": 5}), "ops differ"),
])
def test_check_rejects_wrong_or_missing_results(result, fault):
    tally = Tally(submitted=1)
    assert not tally.check(REFERENCE, "a1", result)
    assert REFERENCE.fault("a1", result) == fault
    assert (tally.passed, tally.failed) == (0, 1)


class _Handle:
    def __init__(self, future):
        self.future = future

    def result(self):
        return self.future.result()


class _FlakyExecutor:
    """Finishes every job except the one named ``lost``; the first
    ``as_completed`` call after a job finishes yields nothing, as the
    real one can for a handle that finishes between its snapshots."""

    def __init__(self, lost):
        self.lost = lost
        self.skip_next = False

    def submit(self, job):
        future = Future()
        if job.name != self.lost:
            future.set_result(_result("/usr/src\n" + f"job {job.name}\n"))
            self.skip_next = True
        return _Handle(future)

    def as_completed(self, handles, timeout=None):
        if self.skip_next:
            self.skip_next = False
            return
        done = [h for h in handles if h.future.done()]
        if not done:
            time.sleep(timeout or 0)
            raise FuturesTimeout()
        yield from done


class _Jobs:
    def __init__(self):
        self.count = 0

    def next(self):
        self.count += 1
        return SimpleNamespace(name=f"j{self.count}")


def test_closed_loop_counts_a_missing_result_and_keeps_going(monkeypatch):
    monkeypatch.setattr(loadgen, "JOB_TIMEOUT_S", 0.05)
    phase = loadgen.closed_loop(_FlakyExecutor(lost="j3"), _Jobs(), REFERENCE,
                                window=2, seconds=0.2)
    assert phase.tally.faults["missing"] == 1
    assert phase.tally.passed == phase.tally.submitted - 1 > 3
    assert phase.received == phase.tally.submitted - 1


# -- like-for-like guards ----------------------------------------------------


def _setup_with_log(tmp_path, *events):
    log = tmp_path / "gateway.jsonl"
    log.write_text("".join(json.dumps(event) + "\n" for event in events))
    return SimpleNamespace(log_path=log, warmup=Tally(), batch_cache_hits=0)


@pytest.mark.parametrize("event, correct", [
    ({"event": "dispatch", "name": "a1", "ts": 1.0}, True),
    ({"event": "busy", "name": "a1", "ts": 1.0}, False),
    ({"event": "cache_hit", "name": "a1", "ts": 1.0}, False),
])
def test_a_busy_reply_or_cache_hit_makes_the_run_incorrect(tmp_path, event, correct):
    tally = Tally(submitted=1, passed=1)
    result = measure._result(tally, [_setup_with_log(tmp_path, event)], END_TO_END,
                             {name: 1.0 for name, _u, _b in END_TO_END})
    assert result["correct"] is correct
    assert (result["attempted"], result["failed"]) == (1, 0)


# -- the benchmark description matches what the command reports --------------


def test_benchmark_json_lists_every_reported_metric():
    described = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in described["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in described["per_layer"]] == \
        list(PER_LAYER)
