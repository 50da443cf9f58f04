"""The pluggable storage contract a durable shard writes through.

A backend owns one shard's data directory and moves *opaque JSON-safe
dicts*: it never interprets engine state (that is
:mod:`repro.storage.snapshot`'s job), it only guarantees the durability
semantics the recovery layer builds on:

- :meth:`StorageBackend.write_snapshot` is **atomic** — a crash during
  the write leaves the previous snapshot intact, never a half-written
  one;
- :meth:`StorageBackend.append_wal` is **fsynced** before it returns —
  once an ingest micro-batch's record is appended, a ``kill -9``
  cannot lose it;
- :meth:`StorageBackend.read_wal` **degrades through torn tails** — a
  record cut short by a crash (partial line, bad checksum, seq gap) ends
  the replayable prefix instead of raising, and the tail is truncated so
  later appends cannot interleave with garbage;
- :meth:`StorageBackend.read_snapshot` returns ``None`` for a missing
  *or corrupt* snapshot — the caller falls back to a full WAL replay.

Genuine failures of the guarantee itself (unwritable directory, fsync
failure) raise :class:`~repro.errors.StorageError`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

#: Version of the on-disk snapshot/WAL envelope schema.  Bumped on any
#: incompatible layout change; readers refuse (snapshot) or stop (WAL)
#: at records written by a different format.
SNAPSHOT_FORMAT = 1


@runtime_checkable
class StorageBackend(Protocol):
    """What the durable service layer requires of a storage plugin."""

    @property
    def data_dir(self) -> str:
        """The shard's data directory (owned by this backend)."""
        ...

    def write_snapshot(self, state: Dict[str, Any]) -> None:
        """Atomically persist a full engine-state dict."""
        ...

    def read_snapshot(self) -> Optional[Dict[str, Any]]:
        """The last good snapshot state, or ``None`` when missing or
        corrupt (checksum/format mismatch) — never an exception for
        bad bytes."""
        ...

    def append_wal(self, record: Dict[str, Any]) -> int:
        """Durably append one WAL record; returns its sequence number.
        The record is on disk (flushed + fsynced) when this returns."""
        ...

    def read_wal(self) -> List[Dict[str, Any]]:
        """Every intact WAL record in order, stopping at (and
        truncating) the first torn/corrupt line."""
        ...

    def close(self) -> None:
        """Release file handles (idempotent)."""
        ...
