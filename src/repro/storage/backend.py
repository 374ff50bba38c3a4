"""The pluggable storage engine interface: namespaced KV with atomic batches.

Every ledger store (world state, private data, private hashes, transient
store, block store) sits on one :class:`KVBackend` per peer.  The backend
speaks only ``(namespace, key) -> bytes``; the stores own their codecs.
Two engines implement the interface:

* :class:`repro.storage.memory.MemoryBackend` — in-process tables with a
  lazily maintained sorted index per namespace (no full-store scans);
* :class:`repro.storage.wal.WalBackend` — a persistent engine with an
  append-only write-ahead log, periodic compacted snapshots and
  replay-on-open recovery.

The unit of durability is the :class:`WriteBatch`: the committer stages a
whole block's worth of writes (public + hashed + plaintext + bookkeeping
+ the block itself) into one batch and commits it atomically — a failure
mid-block leaves the backend exactly as it was before the block.
"""

from __future__ import annotations

import abc
import bisect
from typing import Callable, Iterator, Optional

from repro.common.errors import ReproError

#: Separator for composite keys.  ``\x00`` sorts before every printable
#: character, so ``prefix + SEP`` bounds cover exactly one composite level.
SEP = "\x00"

#: Sentinel distinguishing "not staged in this batch" from "staged delete".
MISSING = object()


class StorageError(ReproError):
    """A storage engine failed (corrupt file, closed backend, bad batch)."""


def compose_key(*parts: str) -> str:
    """Join composite key parts; parts must not contain :data:`SEP`."""
    return SEP.join(parts)


def split_key(key: str) -> list[str]:
    return key.split(SEP)


def prefix_bounds(*parts: str) -> tuple[str, str]:
    """``(start, end)`` range covering every key under the composite prefix.

    ``end`` is the exact successor of the separator, so a key part may
    start with any character (``prefix + "\xff"`` would drop every key
    whose first character lies above U+00FF).
    """
    joined = SEP.join(parts)
    return joined + SEP, joined + "\x01"


class WriteBatch:
    """An ordered set of puts/deletes applied atomically by ``commit``.

    Staged writes are readable back through :meth:`staged` so multi-step
    commit logic (e.g. metadata read-modify-write within one block) sees
    its own pending effects.  ``on_commit`` callbacks run only after the
    backend has durably applied the batch — stores use them to update
    their in-memory indexes without risking divergence on failure.
    """

    __slots__ = ("_ops", "_staged", "_callbacks")

    def __init__(self) -> None:
        self._ops: list[tuple[str, str, Optional[bytes]]] = []
        self._staged: dict[tuple[str, str], Optional[bytes]] = {}
        self._callbacks: list[Callable[[], None]] = []

    def put(self, namespace: str, key: str, value: bytes) -> None:
        self._ops.append((namespace, key, value))
        self._staged[(namespace, key)] = value

    def delete(self, namespace: str, key: str) -> None:
        self._ops.append((namespace, key, None))
        self._staged[(namespace, key)] = None

    def staged(self, namespace: str, key: str):
        """The staged value (``None`` = staged delete), or :data:`MISSING`."""
        return self._staged.get((namespace, key), MISSING)

    def on_commit(self, callback: Callable[[], None]) -> None:
        self._callbacks.append(callback)

    @property
    def ops(self) -> list[tuple[str, str, Optional[bytes]]]:
        return self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def run_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()


class KVBackend(abc.ABC):
    """Namespaced key/value storage with sorted range scans and batches."""

    kind: str = "abstract"

    # -- point operations ---------------------------------------------------
    @abc.abstractmethod
    def get(self, namespace: str, key: str) -> Optional[bytes]: ...

    def put(self, namespace: str, key: str, value: bytes) -> None:
        batch = WriteBatch()
        batch.put(namespace, key, value)
        self.commit(batch)

    def delete(self, namespace: str, key: str) -> None:
        batch = WriteBatch()
        batch.delete(namespace, key)
        self.commit(batch)

    # -- scans --------------------------------------------------------------
    @abc.abstractmethod
    def range(
        self, namespace: str, start: str = "", end: Optional[str] = None
    ) -> Iterator[tuple[str, bytes]]:
        """Key-sorted ``(key, value)`` pairs with ``start <= key < end``."""

    def prefix(self, namespace: str, *parts: str) -> Iterator[tuple[str, bytes]]:
        """Range scan over one composite-key prefix level."""
        start, end = prefix_bounds(*parts)
        return self.range(namespace, start, end)

    @abc.abstractmethod
    def count(self, namespace: str) -> int:
        """Number of keys in ``namespace`` (O(1) on both engines)."""

    @abc.abstractmethod
    def namespaces(self) -> list[str]:
        """Every non-empty namespace (for audits and bootstrap resets)."""

    # -- atomic batches ------------------------------------------------------
    @abc.abstractmethod
    def commit(self, batch: WriteBatch) -> None:
        """Apply every op in ``batch`` atomically, then run its callbacks."""

    # -- lifecycle -----------------------------------------------------------
    def sync(self) -> None:
        """Force buffered writes down to the durable medium (no-op default)."""

    def close(self) -> None:
        """Cleanly release resources."""

    def crash(self) -> None:
        """Simulate process death: drop handles without a clean close."""

    @abc.abstractmethod
    def reopen(self) -> "KVBackend":
        """Recover a backend over the same durable medium after a crash."""


class SortedTables:
    """Per-namespace hash tables plus a lazily rebuilt sorted key index.

    Point ops are O(1); a range scan pays one ``sorted()`` only when keys
    were added or removed since the last scan — replacing the seed stores'
    full-store scan+sort on every iteration.
    """

    __slots__ = ("_tables", "_sorted")

    def __init__(self) -> None:
        self._tables: dict[str, dict[str, bytes]] = {}
        self._sorted: dict[str, Optional[list[str]]] = {}

    def get(self, namespace: str, key: str) -> Optional[bytes]:
        table = self._tables.get(namespace)
        return table.get(key) if table else None

    def set(self, namespace: str, key: str, value: bytes) -> None:
        table = self._tables.setdefault(namespace, {})
        if key not in table:
            self._sorted[namespace] = None  # new key invalidates the index
        table[key] = value

    def remove(self, namespace: str, key: str) -> None:
        table = self._tables.get(namespace)
        if table is not None and table.pop(key, None) is not None:
            self._sorted[namespace] = None

    def count(self, namespace: str) -> int:
        table = self._tables.get(namespace)
        return len(table) if table else 0

    def namespaces(self) -> list[str]:
        return sorted(ns for ns, table in self._tables.items() if table)

    def sorted_keys(self, namespace: str) -> list[str]:
        keys = self._sorted.get(namespace)
        if keys is None:
            keys = sorted(self._tables.get(namespace, ()))
            self._sorted[namespace] = keys
        return keys

    def scan(
        self, namespace: str, start: str = "", end: Optional[str] = None
    ) -> Iterator[tuple[str, bytes]]:
        keys = self.sorted_keys(namespace)
        table = self._tables.get(namespace, {})
        lo = bisect.bisect_left(keys, start) if start else 0
        hi = bisect.bisect_left(keys, end) if end is not None else len(keys)
        for key in keys[lo:hi]:
            yield key, table[key]

    def apply(self, ops: list[tuple[str, str, Optional[bytes]]]) -> None:
        for namespace, key, value in ops:
            if value is None:
                self.remove(namespace, key)
            else:
                self.set(namespace, key, value)

    def snapshot(self) -> dict[str, dict[str, bytes]]:
        return {ns: dict(table) for ns, table in self._tables.items() if table}

    def load(self, data: dict[str, dict[str, bytes]]) -> None:
        self._tables = {ns: dict(table) for ns, table in data.items()}
        self._sorted = {}


def read_through(
    backend: KVBackend, batch: Optional[WriteBatch], namespace: str, key: str
) -> Optional[bytes]:
    """Read ``key`` seeing any write staged in ``batch`` first."""
    if batch is not None:
        staged = batch.staged(namespace, key)
        if staged is not MISSING:
            return staged
    return backend.get(namespace, key)


def write_op(
    backend: KVBackend,
    batch: Optional[WriteBatch],
    namespace: str,
    key: str,
    value: Optional[bytes],
    on_commit: Optional[Callable[[], None]] = None,
) -> None:
    """Stage one op into ``batch``, or apply it immediately when batchless."""
    if batch is None:
        batch = WriteBatch()
        if value is None:
            batch.delete(namespace, key)
        else:
            batch.put(namespace, key, value)
        if on_commit is not None:
            batch.on_commit(on_commit)
        backend.commit(batch)
        return
    if value is None:
        batch.delete(namespace, key)
    else:
        batch.put(namespace, key, value)
    if on_commit is not None:
        batch.on_commit(on_commit)
