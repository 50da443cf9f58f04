"""JSON-lines storage backend: one snapshot file + an append-only WAL.

Layout inside the data directory::

    snapshot.json   {"format": 1, "checksum": "...", "state": {...}}
    wal.jsonl       {"seq": 0, "checksum": "...", "record": {...}}\\n ...

Durability mechanics:

- the snapshot is written to a temp file in the same directory, fsynced,
  then ``os.replace``d over the old one (and the directory fsynced), so
  a crash mid-write can never destroy the previous good snapshot;
- every WAL append is flushed and fsynced before returning — the
  micro-batch boundary is the durability boundary;
- both carry a SHA-256 checksum over the canonical (sorted-keys,
  compact) JSON of their payload.  A snapshot failing its checksum reads
  as ``None``; a WAL line failing its checksum — or torn mid-line by a
  crash, or out of sequence — ends the replayable prefix, and the file
  is truncated back to the last good byte so subsequent appends never
  interleave with garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional

from repro.errors import StorageError
from repro.storage.backend import SNAPSHOT_FORMAT

SNAPSHOT_FILENAME = "snapshot.json"
WAL_FILENAME = "wal.jsonl"


def canonical_json(payload: Any) -> str:
    """Canonical serialisation checksums are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum(payload: Any) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class JsonLinesBackend:
    """Stdlib-only :class:`~repro.storage.backend.StorageBackend`.

    Args:
        data_dir: Directory to own (created if missing).  One backend —
            one shard — one directory; sharing a directory between two
            live services corrupts both.
    """

    def __init__(self, data_dir: str) -> None:
        try:
            os.makedirs(data_dir, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create data dir {data_dir!r}: {exc}")
        self._data_dir = data_dir
        self.snapshot_path = os.path.join(data_dir, SNAPSHOT_FILENAME)
        self.wal_path = os.path.join(data_dir, WAL_FILENAME)
        self._wal_handle = None
        # Unknown until the WAL has been scanned; append_wal loads it
        # lazily so append-without-recover still sequences correctly.
        self._next_seq: Optional[int] = None

    @property
    def data_dir(self) -> str:
        return self._data_dir

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def write_snapshot(self, state: Dict[str, Any]) -> None:
        envelope = {
            "format": SNAPSHOT_FORMAT,
            "checksum": checksum(state),
            "state": state,
        }
        tmp_path = self.snapshot_path + ".tmp"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self.snapshot_path)
            self._fsync_dir()
        except OSError as exc:
            raise StorageError(
                f"cannot write snapshot {self.snapshot_path!r}: {exc}"
            )

    def read_snapshot(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            return None  # unreadable/corrupt: recover from the WAL alone
        if not isinstance(envelope, dict):
            return None
        if envelope.get("format") != SNAPSHOT_FORMAT:
            return None
        state = envelope.get("state")
        if not isinstance(state, dict):
            return None
        if checksum(state) != envelope.get("checksum"):
            return None
        return state

    # ------------------------------------------------------------------
    # WAL
    # ------------------------------------------------------------------
    def append_wal(self, record: Dict[str, Any]) -> int:
        if self._next_seq is None:
            self.read_wal()  # scan (and truncate) once to learn the seq
        assert self._next_seq is not None
        seq = self._next_seq
        line = canonical_json(
            {"seq": seq, "checksum": checksum(record), "record": record}
        )
        try:
            handle = self._wal()
            handle.write(line.encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        except OSError as exc:
            raise StorageError(f"cannot append WAL {self.wal_path!r}: {exc}")
        self._next_seq = seq + 1
        return seq

    def read_wal(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        good_bytes = 0
        try:
            with open(self.wal_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self._next_seq = 0
            return records
        except OSError as exc:
            raise StorageError(f"cannot read WAL {self.wal_path!r}: {exc}")
        for line in raw.split(b"\n"):
            if not line:
                # the final newline (or an empty torn tail)
                break
            entry = self._parse_line(line, expected_seq=len(records))
            if entry is None:
                break  # torn/corrupt/out-of-sequence: end of good prefix
            records.append(entry)
            good_bytes += len(line) + 1
        if good_bytes < len(raw):
            self._truncate_wal(good_bytes)
        self._next_seq = len(records)
        return records

    def close(self) -> None:
        self._close_wal()

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_line(
        line: bytes, expected_seq: int
    ) -> Optional[Dict[str, Any]]:
        try:
            envelope = json.loads(line)
        except ValueError:
            return None
        if not isinstance(envelope, dict):
            return None
        record = envelope.get("record")
        if not isinstance(record, dict):
            return None
        if envelope.get("seq") != expected_seq:
            return None
        if checksum(record) != envelope.get("checksum"):
            return None
        return record

    def _wal(self):
        if self._wal_handle is None:
            self._wal_handle = open(self.wal_path, "ab")
        return self._wal_handle

    def _close_wal(self) -> None:
        if self._wal_handle is not None:
            try:
                self._wal_handle.close()
            except OSError:
                pass
            self._wal_handle = None

    def _truncate_wal(self, size: int) -> None:
        self._close_wal()
        try:
            with open(self.wal_path, "ab") as handle:
                handle.truncate(size)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise StorageError(
                f"cannot truncate WAL {self.wal_path!r}: {exc}"
            )

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self._data_dir, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds: best effort
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)
