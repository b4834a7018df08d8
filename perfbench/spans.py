"""Spans around the program's layer entry points, recorded from outside.

:class:`Tracer` patches the entry points that :func:`install_layers`
and :func:`install_setup` list with wrappers that record one span per
call: an id, a name, start and end (``perf_counter`` seconds) and the id
of the enclosing span on the same thread.  Spans stay in memory until :meth:`Tracer.write` saves them
at the end of the run.  A layer's **self time** is the duration of its
spans minus that of their child spans, so the layers' self times add up
to the time spent under any wrapped call.

Only code running in this process can be wrapped.  Layers that run in
pool workers or agents are seen through what crosses the boundary
(``RunResult.ops`` and ``profile``, wire frames, the gateway log), and
the layer metrics that need a span read 0 there (see README.md).
"""

from __future__ import annotations

import collections
import gzip
import inspect
import itertools
import json
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

Span = tuple  # (id, name, start, end, parent id; 0 for a root span)


class SpanLog:
    """Closed spans, packed as five doubles each (id, name index, start,
    end, parent id) so that a million of them take 40 MB, not 200.
    Iterating yields :data:`Span` tuples."""

    def __init__(self, names: list[str], data: "array | None" = None) -> None:
        self.names = names
        self.data = data if data is not None else array("d")

    def __len__(self) -> int:
        return len(self.data) // 5

    def __iter__(self) -> Iterator[Span]:
        data, names = self.data, self.names
        for at in range(0, len(data), 5):
            yield (int(data[at]), names[int(data[at + 1])], data[at + 2], data[at + 3],
                   int(data[at + 4]))


class Tracer:
    """Records spans while its patches are installed."""

    def __init__(self) -> None:
        self.spans = SpanLog([])
        #: Per-span-name byte counts (frames and snapshots carry sizes).
        self.bytes: "collections.Counter[str]" = collections.Counter()
        #: span name -> layer name.
        self.layer_of: dict[str, str] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def traced(self, name: str, fn: Callable,
               after: "Callable[[Any, tuple, dict], None] | None" = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call;
        ``after(result, args, kwargs)`` runs once the span has closed."""
        names = self.spans.names
        if name not in names:
            names.append(name)
        index = names.index(name)
        data = self.spans.data
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # One extend call, so spans closing on two threads at
                # once cannot interleave their fields.
                data.extend((sid, index, start, end, parent))
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner: Any, attr: str, name: str, layer: str,
              after: "Callable[[Any, tuple, dict], None] | None" = None,
              make: "Callable[[Callable], Callable] | None" = None) -> None:
        """Replace ``owner.attr`` with its traced form until :meth:`unpatch`.
        ``make`` builds a custom wrapper from the original instead."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.layer_of[name] = layer
        wrapped = make(original) if make is not None else self.traced(name, original, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> SpanLog:
        """The spans recorded so far; the tracer starts afresh."""
        data = self.spans.data
        taken = data[:len(data) - len(data) % 5]
        del data[:len(taken)]
        return SpanLog(self.spans.names, taken)

    def write(self, path: Path, spans: Iterable[Span]) -> None:
        """Save spans as gzipped JSON lines: ``[id, name, start, end, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")


# -- analysis --------------------------------------------------------------


def summarize(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Span name -> ``{"count", "self_s", "total_s"}``.  A span's self
    time is its duration minus its children's: children ran on the
    span's own thread, one after another, so their durations add.
    ``spans`` is read twice."""
    covered: dict[int, float] = collections.defaultdict(float)
    for _sid, _name, start, end, parent in spans:
        if parent:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _parent in spans:
        row = out.setdefault(name, {"count": 0, "self_s": 0.0, "total_s": 0.0})
        row["count"] += 1
        row["self_s"] += end - start - covered.get(sid, 0.0)
        row["total_s"] += end - start
    return out


# -- the program's entry points ----------------------------------------------


def _public_functions(cls: type) -> list[str]:
    return [attr for attr, value in vars(cls).items()
            if not attr.startswith("_") and inspect.isfunction(value)]


def _subclasses(cls: type) -> list[type]:
    found, frontier = [], [cls]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                frontier.append(sub)
    return [cls] + found


def _frame_bytes(type_: str, fields: "dict | None", blob: bytes) -> int:
    """Size of one frame as :class:`repro.remote.wire.Connection` frames
    it: the length prefix, the JSON header and the blob."""
    from repro.remote.wire import _HEAD

    header = dict(fields or {})
    header["type"] = type_
    payload = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    return _HEAD.size + len(payload) + len(blob)


def _sent_bytes(_result: Any, args: tuple, kwargs: dict) -> int:
    def frame(type_: str, fields: "dict | None" = None, blob: bytes = b"") -> int:
        return _frame_bytes(type_, fields, blob)   # Connection.send's signature
    return frame(*args[1:], **kwargs)


def _received_bytes(message: Any, _args: tuple, _kwargs: dict) -> int:
    return _frame_bytes(message.type, message.fields, message.blob)


def install_setup(tracer: Tracer) -> None:
    """Entry points that run while the benchmark sets up: the snapshot
    codec (template shipping to pool workers and stores)."""
    from repro.kernel import serialize

    def count(result: Any, _args: tuple, _kwargs: dict) -> None:
        tracer.bytes["kernel.serialize.snapshot"] += len(result)

    for attr in ("snapshot_kernel", "snapshot_kernel_delta"):
        tracer.patch(serialize, attr, "kernel.serialize.snapshot", "kernel.serialize",
                     after=count)


def install_layers(tracer: Tracer, on_fork: "Callable[[Any], None]") -> None:
    """Entry points of every layer a job crosses in this process.
    ``on_fork`` receives each job kernel :meth:`Kernel.fork` returns."""
    from repro.capability.caps import FsCap, PipeFactoryCap, SocketCap
    from repro.contracts.core import Contract
    from repro.contracts.functionctc import GuardedFunction
    from repro.kernel.kernel import Kernel
    from repro.kernel.mac import MacFramework
    from repro.kernel.syscalls import SyscallInterface
    from repro.lang import modules
    from repro.lang.runner import ShillRuntime
    from repro.programs.base import Program
    from repro.remote.wire import Connection
    from repro.sandbox.audit import AuditLog
    from repro.sandbox.session import SessionManager

    # lang: parsing, and the interpreter's own time — run_ambient minus
    # everything below it.  Guarded calls re-enter the interpreter
    # through the apply procedure they are handed, so that procedure is
    # wrapped too: the callee's body is language time, not contract time.
    tracer.patch(modules, "parse_source", "lang.parse", "lang")
    tracer.patch(ShillRuntime, "run_ambient", "lang.run", "lang")
    tracer.layer_of["lang.apply"] = "lang"

    def guarded_invoke(original: Callable) -> Callable:
        def invoke(self, apply_fn, args, kwargs):
            return original(self, tracer.traced("lang.apply", apply_fn), args, kwargs)
        return tracer.traced("contracts.invoke", invoke)

    for cls in _subclasses(GuardedFunction):
        if "invoke" in vars(cls):
            tracer.patch(cls, "invoke", "contracts.invoke", "contracts", make=guarded_invoke)
    for cls in _subclasses(Contract):
        if "check" in vars(cls):
            tracer.patch(cls, "check", "contracts.check", "contracts")

    for cls in (FsCap, PipeFactoryCap, SocketCap):
        for attr in _public_functions(cls):
            tracer.patch(cls, attr, f"capability.{cls.__name__}.{attr}", "capability")

    for attr, name in (("shill_init", "sandbox.init"), ("shill_enter", "sandbox.enter"),
                       ("grant", "sandbox.grant"), ("grant_pipe_factory", "sandbox.grant"),
                       ("grant_socket_factory", "sandbox.grant")):
        tracer.patch(SessionManager, attr, name, "sandbox")
    tracer.patch(SessionManager, "_maybe_cleanup", "sandbox.teardown", "sandbox")
    for attr in _public_functions(AuditLog):
        tracer.patch(AuditLog, attr, "sandbox.audit", "sandbox")

    for cls in _subclasses(Program):
        if "main" in vars(cls):
            tracer.patch(cls, "main", "programs.main", "programs")

    for attr in _public_functions(SyscallInterface):
        tracer.patch(SyscallInterface, attr, "kernel.syscall", "kernel")
    for attr in ("check", "post"):
        tracer.patch(MacFramework, attr, "kernel.mac", "kernel")
    tracer.patch(Kernel, "fork", "world.fork", "world",
                 after=lambda fork, _args, _kwargs: on_fork(fork))

    def frames(name: str, size: Callable) -> Callable:
        def after(result: Any, args: tuple, kwargs: dict) -> None:
            tracer.bytes[name] += size(result, args, kwargs)
        return after

    tracer.patch(Connection, "send", "remote.wire.send", "remote.wire",
                 after=frames("remote.wire.send", _sent_bytes))
    tracer.patch(Connection, "recv", "remote.wire.recv", "remote.wire",
                 after=frames("remote.wire.recv", _received_bytes))
