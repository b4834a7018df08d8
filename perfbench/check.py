"""The per-job output check.

Every job is the workload's script plus one marker line,
``append(stdout, "job <tag>\\n");``, so no two jobs share a source.
During set-up one reference job (tag ``ref``) runs; every later job must
reproduce its stdout up to the marker, its stderr, and its kernel op
counts exactly.  A job fails if its result is missing, it raised, its
status is non-zero, or its output or ops differ from the reference.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Any

REFERENCE_TAG = "ref"


def marker_line(tag: str) -> str:
    return f'append(stdout, "job {tag}\\n");\n'


def job_source(body: str, tag: str) -> str:
    """The workload script ``body`` made unique by its marker line."""
    return body + marker_line(tag)


class ReferenceError(RuntimeError):
    """The reference job itself did not run cleanly: nothing to check
    the workload against."""


@dataclass(frozen=True)
class Reference:
    """What every job of one workload must reproduce."""

    prefix: str          # stdout before the marker's own line
    stderr: str
    ops: dict

    @classmethod
    def from_result(cls, result: Any, tag: str = REFERENCE_TAG) -> "Reference":
        suffix = f"job {tag}\n"
        if result.status != 0 or not result.stdout.endswith(suffix):
            raise ReferenceError(
                f"reference job failed: status {result.status}, "
                f"stdout tail {result.stdout[-80:]!r}, stderr {result.stderr[:200]!r}")
        return cls(result.stdout[:-len(suffix)], result.stderr, dict(result.ops))

    def fault(self, tag: str, result: Any) -> "str | None":
        """Why ``result`` fails the check for job ``tag``, or ``None``."""
        if result is None:
            return "missing"
        if result.status != 0:
            return f"status {result.status}"
        if result.stdout != self.prefix + f"job {tag}\n":
            return "stdout differs"
        if result.stderr != self.stderr:
            return "stderr differs"
        if dict(result.ops) != self.ops:
            return "ops differ"
        return None


@dataclass
class Tally:
    """Jobs submitted, passed and failed (by reason) in one phase."""

    submitted: int = 0
    passed: int = 0
    faults: "collections.Counter[str]" = field(default_factory=collections.Counter)

    @property
    def failed(self) -> int:
        return sum(self.faults.values())

    def check(self, reference: Reference, tag: str, result: Any) -> bool:
        fault = reference.fault(tag, result)
        if fault is None:
            self.passed += 1
            return True
        self.faults[fault] += 1
        return False

    def raised(self, err: BaseException) -> None:
        first = (str(err).splitlines() or [""])[0][:120]
        self.faults[f"raised {type(err).__name__}: {first}"] += 1

    def missing(self, count: int = 1) -> None:
        if count:
            self.faults["missing"] += count

    def merge(self, other: "Tally") -> "Tally":
        return Tally(self.submitted + other.submitted, self.passed + other.passed,
                     self.faults + other.faults)
