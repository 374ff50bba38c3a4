"""Pluggable storage engines for the ledger layer.

See :mod:`repro.storage.backend` for the interface contract,
:mod:`repro.storage.memory` and :mod:`repro.storage.wal` for the two
engines, and :mod:`repro.storage.factory` for construction by kind (the
``state_backend`` run switch, ``REPRO_STATE_BACKEND=memory|wal``).
"""

from repro.storage.backend import (
    MISSING,
    SEP,
    KVBackend,
    SortedTables,
    StorageError,
    WriteBatch,
    compose_key,
    prefix_bounds,
    read_through,
    split_key,
    write_op,
)
from repro.storage.factory import BACKEND_KINDS, open_backend
from repro.storage.memory import MemoryBackend
from repro.storage.wal import WalBackend

__all__ = [
    "KVBackend",
    "MemoryBackend",
    "WalBackend",
    "WriteBatch",
    "SortedTables",
    "StorageError",
    "SEP",
    "MISSING",
    "compose_key",
    "split_key",
    "prefix_bounds",
    "read_through",
    "write_op",
    "open_backend",
    "BACKEND_KINDS",
]
