"""Persistent, content-addressed snapshot store: booted machines on disk.

The snapshot codec (:mod:`repro.kernel.serialize`) turns a booted
machine into deterministic bytes; this module gives those bytes a home
that outlives the process.  A :class:`SnapshotStore` is a directory of
**blobs keyed by snapshot digest** (the SHA-256 of the snapshot bytes,
exactly :func:`repro.kernel.serialize.snapshot_digest`), plus an index
mapping **world digests** (the `repro.api.World` configuration hash) to
the snapshot they boot to.  Worker fleets — the ``StoreExecutor`` in
:mod:`repro.api.executors` — boot by reading a blob from disk instead of
receiving a multi-hundred-KiB pickle over process ``initargs``, and a
coordinator whose world digest is already linked skips the template
build entirely: zero kernel ops, straight from disk.

Layout (everything under ``root``)::

    blobs/<snapshot-digest>.snap     the snapshot bytes, content-addressed
    worlds/<world-digest>.link       pickled {snapshot, fixtures, stats, ...}

Guarantees:

* **atomic writes** — blobs and links are written to a unique temp file
  and ``os.replace``\\ d into place, so a concurrent reader never sees a
  torn file and racing writers of the same digest agree byte-for-byte
  (content addressing makes the race benign);
* **LRU cap** — at most ``max_blobs`` blobs are retained; ``put`` and
  ``get`` refresh a blob's mtime and eviction drops the stalest first
  (an evicted snapshot is just rebuilt and re-put on the next miss);
* **hit/miss stats** — every lookup is counted, so cache efficacy is
  observable (the ``repro store ls`` CLI and the store benchmarks read
  these).

The store holds only deterministic machine state; it is a cache, never a
source of truth — deleting the directory merely makes the next boot pay
the build again.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import secrets
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.kernel.serialize import SNAPSHOT_PROTOCOL, SnapshotError

#: Default blob cap: a blob is a whole machine image (~100s of KiB), and
#: a long-lived fleet sweeping many configurations must not fill the disk.
DEFAULT_MAX_BLOBS = 64

_BLOB_SUFFIX = ".snap"
_LINK_SUFFIX = ".link"

#: Self-describing framing for blobs that leave the store — over the
#: agent wire protocol or as files copied between hosts.  The digest
#: rides with the bytes so the importer can verify integrity before the
#: payload is trusted: magic, then the 64 hex chars of the SHA-256, then
#: the snapshot bytes themselves.
BLOB_EXPORT_MAGIC = b"SHBLOB1\n"
_DIGEST_HEX_LEN = 64


def default_store_root() -> Path:
    """Where stores live when the caller names none: ``$REPRO_STORE`` if
    set (the CI workflow points this at a cached workspace directory),
    else an XDG-style per-user cache path."""
    env = os.environ.get("REPRO_STORE")
    if env:
        return Path(env)
    cache_home = Path(os.environ.get("XDG_CACHE_HOME", "~/.cache")).expanduser()
    return cache_home / "repro" / "snapshots"


@dataclass(frozen=True)
class StoreEntry:
    """One blob as ``ls`` reports it."""

    digest: str
    size: int
    mtime: float
    worlds: tuple[str, ...]


class SnapshotStore:
    """On-disk, content-addressed snapshot blobs with a world index.

    ``root`` may be a path-like or ``None`` (then
    :func:`default_store_root` decides).  The directory tree is created
    eagerly so a freshly constructed store is immediately usable by
    worker processes that only ever read from it.
    """

    def __init__(self, root: "Path | str | None" = None, *,
                 max_blobs: int = DEFAULT_MAX_BLOBS) -> None:
        if max_blobs < 1:
            raise ValueError("max_blobs must be positive")
        self.root = Path(root) if root is not None else default_store_root()
        self.max_blobs = max_blobs
        self._blobs = self.root / "blobs"
        self._worlds = self.root / "worlds"
        self._blobs.mkdir(parents=True, exist_ok=True)
        self._worlds.mkdir(parents=True, exist_ok=True)
        self.stats = {"hits": 0, "misses": 0, "writes": 0, "evictions": 0}
        self._stats_lock = threading.Lock()

    # -- blobs -------------------------------------------------------------

    def blob_path(self, digest: str) -> Path:
        return self._blobs / f"{digest}{_BLOB_SUFFIX}"

    def has(self, digest: str) -> bool:
        return self.blob_path(digest).exists()

    def put(self, payload: bytes) -> str:
        """Store snapshot bytes; returns their digest.

        Content-addressed, so a re-put of identical bytes is a cheap
        touch (the digest *is* the identity) and concurrent writers of
        the same snapshot cannot disagree.
        """
        digest = hashlib.sha256(payload).hexdigest()
        path = self.blob_path(digest)
        if path.exists():
            self._touch(path)
            return digest
        self._atomic_write(path, payload)
        self._count("writes")
        self._evict()
        return digest

    def get(self, digest: str) -> bytes | None:
        """The snapshot bytes for ``digest``, or ``None`` (a miss)."""
        path = self.blob_path(digest)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            self._count("misses")
            return None
        self._count("hits")
        self._touch(path)
        return payload

    def load(self, digest: str) -> bytes:
        """Like :meth:`get` but a miss is an error — for callers that
        were promised the blob exists (worker boot)."""
        payload = self.get(digest)
        if payload is None:
            raise SnapshotError(
                f"snapshot {digest[:12]}… is not in the store at {self.root} "
                "(evicted between scheduling and worker boot?)")
        return payload

    def restore(self, digest: str):
        """Restore the machine stored under ``digest``.

        Full blobs restore directly; delta blobs resolve their base
        chain against this store (every base a delta references must be
        a blob here, or the restore is a
        :class:`~repro.kernel.serialize.SnapshotError`).  This is the
        one call worker processes and agents boot through, so a blob's
        kind is an encoding detail, never a caller concern.
        """
        from repro.kernel.serialize import restore_any

        return restore_any(self.load(digest), self.load)

    def is_delta(self, digest: str) -> bool:
        """Is the stored blob an incremental (delta) frame?"""
        from repro.kernel.serialize import is_delta

        return is_delta(self.load(digest))

    # -- wire transfer -----------------------------------------------------

    def export_blob(self, digest: str) -> bytes:
        """The stored snapshot as a self-describing transfer frame.

        This is what crosses the agent wire protocol (and what a
        ``scp``'d blob file should look like): the digest travels with
        the bytes, so :meth:`import_blob` on the far side can verify the
        payload before anything trusts it.  A missing blob is an error,
        exactly like :meth:`load` — exporters are callers who were
        promised the blob exists.
        """
        return BLOB_EXPORT_MAGIC + digest.encode("ascii") + self.load(digest)

    def import_blob(self, frame: bytes) -> str:
        """Verify and store an :meth:`export_blob` frame; returns the
        digest the blob now lives under.

        Integrity is checked twice over: the frame must carry the magic
        and a well-formed digest, and the payload must actually hash to
        that digest — a truncated or tampered transfer is a
        :class:`~repro.kernel.serialize.SnapshotError`, never a silently
        poisoned cache entry.
        """
        head_len = len(BLOB_EXPORT_MAGIC) + _DIGEST_HEX_LEN
        if not frame.startswith(BLOB_EXPORT_MAGIC) or len(frame) <= head_len:
            raise SnapshotError("not a blob export frame (bad magic or truncated)")
        claimed = frame[len(BLOB_EXPORT_MAGIC):head_len].decode("ascii")
        payload = frame[head_len:]
        actual = hashlib.sha256(payload).hexdigest()
        if actual != claimed:
            raise SnapshotError(
                f"blob transfer corrupt: frame claims {claimed[:12]}…, "
                f"payload hashes to {actual[:12]}…")
        return self.put(payload)

    # -- the world index ---------------------------------------------------

    def link_world(self, world_digest: str, snapshot_digest: str,
                   meta: "dict[str, Any] | None" = None) -> None:
        """Record that the world configuration hashing to ``world_digest``
        boots to the stored snapshot ``snapshot_digest``.  ``meta`` is
        plain data carried alongside (fixture values, build-time op
        totals) — whatever a store boot needs to fully reconstitute a
        :class:`repro.api.World` without running its build steps."""
        record = {"snapshot": snapshot_digest, "meta": dict(meta or {})}
        self._atomic_write(self._worlds / f"{world_digest}{_LINK_SUFFIX}",
                           pickle.dumps(record, protocol=SNAPSHOT_PROTOCOL))

    def resolve_world(self, world_digest: str) -> "tuple[str, dict] | None":
        """(snapshot digest, meta) for a linked world, or ``None`` when
        the world was never linked — or its blob has since been evicted
        (a dangling link counts as a miss and is left for ``gc``)."""
        path = self._worlds / f"{world_digest}{_LINK_SUFFIX}"
        try:
            record = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            self._count("misses")
            return None
        except Exception:
            # A torn/corrupt link is a cache miss, never an error: the
            # caller rebuilds and re-links over it.
            self._count("misses")
            return None
        snapshot = record["snapshot"]
        if not self.has(snapshot):
            self._count("misses")
            return None
        self._count("hits")
        return snapshot, record["meta"]

    def world_links(self) -> dict[str, str]:
        """world digest -> snapshot digest, for every readable link."""
        links: dict[str, str] = {}
        for path in sorted(self._worlds.glob(f"*{_LINK_SUFFIX}")):
            try:
                links[path.name[: -len(_LINK_SUFFIX)]] = \
                    pickle.loads(path.read_bytes())["snapshot"]
            except Exception:
                continue
        return links

    # -- inspection / maintenance ------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """Every blob, stalest first (the eviction order)."""
        links = self.world_links()
        by_blob: dict[str, list[str]] = {}
        for world, snapshot in links.items():
            by_blob.setdefault(snapshot, []).append(world)
        out = []
        for path in self._blob_paths_stalest_first():
            digest = path.name[: -len(_BLOB_SUFFIX)]
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            out.append(StoreEntry(digest, stat.st_size, stat.st_mtime,
                                  tuple(sorted(by_blob.get(digest, ())))))
        return out

    def gc(self, keep: "int | None" = None) -> list[str]:
        """Evict stalest blobs beyond ``keep`` (default: ``max_blobs``)
        and drop world links whose blob is gone.  Returns the evicted
        blob digests, stalest first."""
        limit = self.max_blobs if keep is None else max(keep, 0)
        evicted = self._evict(limit)
        for path in self._worlds.glob(f"*{_LINK_SUFFIX}"):
            try:
                snapshot = pickle.loads(path.read_bytes())["snapshot"]
            except Exception:
                snapshot = None
            if snapshot is None or not self.has(snapshot):
                path.unlink(missing_ok=True)
        return evicted

    def __len__(self) -> int:
        return sum(1 for _ in self._blobs.glob(f"*{_BLOB_SUFFIX}"))

    def __repr__(self) -> str:
        return f"<SnapshotStore {self.root} blobs={len(self)}>"

    # -- plumbing ----------------------------------------------------------

    def _count(self, key: str) -> None:
        with self._stats_lock:
            self.stats[key] += 1

    def _blob_paths_stalest_first(self) -> list[Path]:
        """Every blob, stalest first.  A blob another thread or process
        unlinks between the listing and its ``stat`` is left out."""
        aged: list[tuple[float, str, Path]] = []
        for path in self._blobs.glob(f"*{_BLOB_SUFFIX}"):
            try:
                mtime = path.stat().st_mtime
            except FileNotFoundError:
                continue
            # mtime first, digest as the deterministic tie-break (filesystem
            # timestamps are coarse enough for same-second writes to tie).
            aged.append((mtime, path.name, path))
        aged.sort(key=lambda entry: entry[:2])
        return [path for _, _, path in aged]

    def _evict(self, limit: "int | None" = None) -> list[str]:
        """Drop stalest blobs over ``limit`` — but never a blob some
        *live* delta frame's chain is based on (evicting the base would
        turn every restore through that delta into a
        :class:`~repro.kernel.serialize.SnapshotError`).  The pin set is
        recomputed after each eviction, so once a delta itself goes its
        base becomes evictable; when everything over the cap is pinned
        the store stays over cap rather than orphan a chain."""
        limit = self.max_blobs if limit is None else limit
        evicted: list[str] = []
        while True:
            paths = self._blob_paths_stalest_first()
            if len(paths) <= limit:
                break
            pinned = self._chain_bases(paths)
            victim = next(
                (p for p in paths
                 if p.name[: -len(_BLOB_SUFFIX)] not in pinned), None)
            if victim is None:
                break
            try:
                victim.unlink()
            except FileNotFoundError:
                continue        # another thread or process evicted it first
            evicted.append(victim.name[: -len(_BLOB_SUFFIX)])
            self._count("evictions")
        return evicted

    def _chain_bases(self, paths: "list[Path]") -> set[str]:
        """Every digest some live delta blob directly references.  Each
        link of a longer chain is itself a live delta pinning *its*
        base, so direct references cover chains transitively.  Only the
        72-byte frame header is read per blob — no op counters, no
        payload decode."""
        from repro.kernel.serialize import delta_base_digest, is_delta

        # magic(6) + version(1) + kind(1) + the base digest hex.
        head_len = 8 + _DIGEST_HEX_LEN
        pinned: set[str] = set()
        for path in paths:
            try:
                with path.open("rb") as fh:
                    head = fh.read(head_len)
            except OSError:
                continue
            try:
                if is_delta(head):
                    pinned.add(delta_base_digest(head))
            except SnapshotError:
                continue
        return pinned

    def _atomic_write(self, path: Path, payload: bytes) -> None:
        # Unique per write, not per process: two threads writing the same
        # blob or link must never share (and rename away) one temp file.
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.{secrets.token_hex(4)}.tmp")
        try:
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass
