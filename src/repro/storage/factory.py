"""Backend construction by kind (``memory`` or ``wal``).

WAL backends opened without an explicit directory live under one
process-wide temp root removed at interpreter exit, so test suites and
simulations can churn through wal-backed networks without littering.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from pathlib import Path
from typing import Optional

from repro.common.env import BACKEND_KINDS
from repro.storage.backend import KVBackend, StorageError
from repro.storage.memory import MemoryBackend
from repro.storage.wal import WalBackend

_temp_root: Optional[Path] = None


def storage_root() -> Path:
    """Process-wide scratch root for unnamed WAL backends."""
    global _temp_root
    if _temp_root is None:
        _temp_root = Path(tempfile.mkdtemp(prefix="repro-state-"))
        atexit.register(shutil.rmtree, _temp_root, True)
    return _temp_root


def open_backend(
    kind: str = "memory",
    directory: Optional[str | Path] = None,
    name: Optional[str] = None,
) -> KVBackend:
    """Open a backend of ``kind`` (one of :data:`BACKEND_KINDS`).

    For ``wal``, ``directory`` selects (or creates) the engine directory;
    ``name`` appends a subdirectory (one ledger per peer under a shared
    network directory).  Without a directory a fresh scratch directory is
    allocated under :func:`storage_root`.
    """
    if kind not in BACKEND_KINDS:
        raise StorageError(f"unknown state backend {kind!r} (choose from {BACKEND_KINDS})")
    if kind == "memory":
        return MemoryBackend()
    if directory is None:
        directory = Path(tempfile.mkdtemp(prefix=f"{name or 'ledger'}-", dir=storage_root()))
    else:
        directory = Path(directory)
        if name:
            directory = directory / name
    return WalBackend(directory)
