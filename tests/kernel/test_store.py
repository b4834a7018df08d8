"""The persistent snapshot store: blobs, the world index, LRU, stats."""

from __future__ import annotations

import hashlib
import os
import pickle

import pytest

from repro.kernel.store import SnapshotStore, default_store_root


@pytest.fixture()
def store(tmp_path) -> SnapshotStore:
    return SnapshotStore(tmp_path / "store", max_blobs=4)


def _age(store: SnapshotStore, digest: str, seconds: float) -> None:
    """Backdate a blob's mtime (filesystem timestamps are too coarse for
    LRU tests to rely on write order alone)."""
    path = store.blob_path(digest)
    stat = path.stat()
    os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))


class TestBlobs:
    def test_put_is_content_addressed(self, store):
        payload = b"snapshot-bytes"
        digest = store.put(payload)
        assert digest == hashlib.sha256(payload).hexdigest()
        assert store.get(digest) == payload
        assert store.has(digest)

    def test_put_is_idempotent(self, store):
        digest = store.put(b"x")
        assert store.put(b"x") == digest
        assert len(store) == 1
        assert store.stats["writes"] == 1

    def test_get_miss_returns_none_and_counts(self, store):
        assert store.get("0" * 64) is None
        assert store.stats == {"hits": 0, "misses": 1, "writes": 0, "evictions": 0}
        digest = store.put(b"x")
        store.get(digest)
        assert store.stats["hits"] == 1

    def test_load_raises_on_missing_blob(self, store):
        from repro.kernel.serialize import SnapshotError

        with pytest.raises(SnapshotError, match="not in the store"):
            store.load("f" * 64)

    def test_no_temp_files_left_behind(self, store):
        store.put(b"a")
        store.put(b"b")
        leftovers = [p for p in store.root.rglob("*.tmp")]
        assert leftovers == []

    def test_reopening_sees_existing_blobs(self, store):
        digest = store.put(b"persisted")
        reopened = SnapshotStore(store.root, max_blobs=4)
        assert reopened.get(digest) == b"persisted"


class TestEviction:
    def test_cap_evicts_stalest_first(self, store):
        digests = [store.put(bytes([i])) for i in range(4)]
        for offset, digest in enumerate(digests):
            _age(store, digest, 100 - offset * 10)  # digests[0] is stalest
        store.put(b"one-too-many")
        assert len(store) == 4
        assert not store.has(digests[0])
        assert all(store.has(d) for d in digests[1:])
        assert store.stats["evictions"] == 1

    def test_get_refreshes_lru_position(self, store):
        digests = [store.put(bytes([i])) for i in range(4)]
        for offset, digest in enumerate(digests):
            _age(store, digest, 100 - offset * 10)
        store.get(digests[0])  # refresh the stalest
        store.put(b"one-too-many")
        assert store.has(digests[0])
        assert not store.has(digests[1])

    def test_gc_keep(self, store):
        for i in range(4):
            digest = store.put(bytes([i]))
            _age(store, digest, 100 - i * 10)
        evicted = store.gc(keep=1)
        assert len(evicted) == 3
        assert len(store) == 1

    def test_max_blobs_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path, max_blobs=0)


def _fake_delta(base_digest: str, payload: bytes = b"body") -> bytes:
    """A frame that *parses* as a delta (GC only reads the 72-byte header,
    so the body never has to decode)."""
    from repro.kernel.serialize import SNAPSHOT_VERSION, _KIND_DELTA, _MAGIC

    return _MAGIC + bytes([SNAPSHOT_VERSION]) + _KIND_DELTA \
        + base_digest.encode("ascii") + payload


class TestDeltaChainPinning:
    """Eviction must never orphan a delta by dropping the base it was
    encoded against — a live delta pins its base blob."""

    def test_lru_skips_a_pinned_base(self, store):
        base = store.put(b"\xffbase-full-frame")
        delta = store.put(_fake_delta(base))
        fillers = [store.put(bytes([i])) for i in range(2)]
        _age(store, base, 100)  # base is by far the stalest...
        for offset, digest in enumerate(fillers):
            _age(store, digest, 50 - offset * 10)
        store.put(b"one-too-many")
        # ...yet the delta keeps it alive; the stalest *unpinned* blob goes.
        assert store.has(base) and store.has(delta)
        assert not store.has(fillers[0])

    def test_gc_keep_skips_pinned_bases(self, store):
        base = store.put(b"\xffbase-full-frame")
        delta = store.put(_fake_delta(base))
        _age(store, base, 100)
        _age(store, delta, 10)
        evicted = store.gc(keep=1)
        # The stalest blob is the base, but it is pinned; the delta (its
        # only dependant) is the one that goes.
        assert store.has(base)
        assert evicted == [delta]

    def test_gc_drains_a_chain_leaf_first(self, store):
        """The pin set is recomputed after each eviction: draining to
        zero evicts the delta first, *then* its newly-unpinned base —
        never the base while the delta is still live."""
        base = store.put(b"\xffbase-full-frame")
        delta = store.put(_fake_delta(base))
        _age(store, base, 100)  # stalest, yet pinned until the delta goes
        evicted = store.gc(keep=0)
        assert evicted == [delta, base]
        assert len(store) == 0

    def test_base_becomes_evictable_once_the_delta_is_gone(self, store):
        base = store.put(b"\xffbase-full-frame")
        delta = store.put(_fake_delta(base))
        store.blob_path(delta).unlink()
        _age(store, base, 100)
        for i in range(3):
            digest = store.put(bytes([i]))
            _age(store, digest, 10 - i)
        store.put(b"one-too-many")
        assert not store.has(base)

    def test_chain_middle_links_are_pinned_transitively(self, store):
        """full ← delta1 ← delta2: delta1 is both a delta and a base; as
        long as delta2 lives, both earlier links must survive."""
        base = store.put(b"\xffbase-full-frame")
        delta1 = store.put(_fake_delta(base, b"level one"))
        delta2 = store.put(_fake_delta(delta1, b"level two"))
        _age(store, base, 100)
        _age(store, delta1, 90)
        filler = store.put(b"victim")
        _age(store, filler, 70)
        store.put(b"one-too-many")
        assert store.has(base) and store.has(delta1) and store.has(delta2)
        assert not store.has(filler)

    def test_restore_survives_eviction_pressure(self, tmp_path):
        """Regression: with naive LRU the aged-out base was evicted and
        ``restore`` of the still-live delta raised ``SnapshotError``."""
        from repro.api import World
        from repro.kernel.serialize import (restore_kernel, snapshot_kernel,
                                            snapshot_kernel_delta)

        store = SnapshotStore(tmp_path / "store", max_blobs=4)
        kernel = World().boot().kernel
        payload = snapshot_kernel(kernel)
        base = store.put(payload)
        mutant = kernel.fork()
        sys = mutant.syscalls(mutant.spawn_process("root", "/"))
        sys.write_whole("/tmp/notes.txt", b"delta payload")
        delta = store.put(
            snapshot_kernel_delta(mutant, restore_kernel(payload), base))
        fillers = [store.put(bytes([i])) for i in range(2)]
        _age(store, base, 100)  # the base would be LRU's first victim
        for offset, digest in enumerate(fillers):
            _age(store, digest, 50 - offset * 10)
        store.put(b"eviction pressure")
        restored = store.restore(delta)
        check = restored.syscalls(restored.spawn_process("root", "/"))
        assert check.read_whole("/tmp/notes.txt") == b"delta payload"


class TestWorldIndex:
    def test_link_and_resolve(self, store):
        snapshot = store.put(b"machine")
        store.link_world("w" * 64, snapshot, meta={"fixtures": {"jpeg": 2}})
        resolved = store.resolve_world("w" * 64)
        assert resolved is not None
        digest, meta = resolved
        assert digest == snapshot
        assert meta == {"fixtures": {"jpeg": 2}}

    def test_unlinked_world_is_a_miss(self, store):
        assert store.resolve_world("nope") is None
        assert store.stats["misses"] == 1

    def test_dangling_link_is_a_miss_and_gc_prunes_it(self, store):
        snapshot = store.put(b"machine")
        store.link_world("w" * 64, snapshot)
        store.blob_path(snapshot).unlink()
        assert store.resolve_world("w" * 64) is None
        store.gc()
        assert store.world_links() == {}

    def test_corrupt_link_is_a_miss(self, store):
        snapshot = store.put(b"machine")
        store.link_world("w" * 64, snapshot)
        (store.root / "worlds" / ("w" * 64 + ".link")).write_bytes(b"garbage")
        assert store.resolve_world("w" * 64) is None

    def test_relink_overwrites(self, store):
        first = store.put(b"one")
        second = store.put(b"two")
        store.link_world("w", first)
        store.link_world("w", second)
        resolved = store.resolve_world("w")
        assert resolved is not None and resolved[0] == second

    def test_link_meta_round_trips_plain_data(self, store):
        snapshot = store.put(b"machine")
        meta = {"stats": {"vnode_ops": 123}, "default_user": "alice",
                "fixtures": {"blob": b"\x00\x01"}}
        store.link_world("w", snapshot, meta=meta)
        _digest, loaded = store.resolve_world("w")
        assert loaded == meta
        assert pickle.dumps(loaded)  # stays plain data


class TestInspection:
    def test_entries_report_size_and_worlds(self, store):
        snapshot = store.put(b"machine-bytes")
        store.link_world("wd1", snapshot)
        store.link_world("wd2", snapshot)
        [entry] = store.entries()
        assert entry.digest == snapshot
        assert entry.size == len(b"machine-bytes")
        assert entry.worlds == ("wd1", "wd2")

    def test_default_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        assert default_store_root() == tmp_path / "envstore"
        store = SnapshotStore()
        assert store.root == tmp_path / "envstore"


class TestThreads:
    """One store shared by threads, as ThreadExecutor and the gateway
    share theirs: racing writers of one world or blob, eviction under
    concurrent unlinks, and counters that add up."""

    THREADS = 4
    ROUNDS = 60

    def _hammer(self, store: SnapshotStore, worker: int, errors: list) -> None:
        try:
            for i in range(self.ROUNDS):
                shared = store.put(b"shared-%d" % (i % 3))
                store.link_world("world-%d" % (i % 2), shared, {"round": i})
                own = store.put(b"own-%d-%d" % (worker, i))
                store.get(own)
                store.get(shared)
                store.resolve_world("world-%d" % (i % 2))
                store.entries()
                if i % 10 == 0:
                    store.gc()
        except BaseException as err:        # reported on the main thread
            errors.append(err)

    def test_racing_threads_never_collide(self, tmp_path):
        import threading

        store = SnapshotStore(tmp_path / "store", max_blobs=3)
        errors: list = []
        threads = [threading.Thread(target=self._hammer, args=(store, n, errors))
                   for n in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert list(store.root.rglob("*.tmp")) == []
        lookups = self.THREADS * self.ROUNDS * 3   # two gets + one resolve per round
        assert store.stats["hits"] + store.stats["misses"] == lookups
        # Every own blob is new; racing writers of a shared blob may both write.
        assert store.stats["writes"] >= self.THREADS * self.ROUNDS
        # Each unlink is counted once, by the thread that made it.
        assert 0 < store.stats["evictions"] <= store.stats["writes"]
        # Every write is followed by its writer's eviction pass.
        assert len(store) <= 3
