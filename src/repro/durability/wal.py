"""The write-ahead delta log.

One line per committed mediator update transaction:

``W1 <crc32-hex> <payload-json>\\n``

with payload::

    {"txn": N,
     "sources": {name: {"seq": K, "cursor": C-or-null,
                        "delta": [[relation, {attr: value, ...}, sign], ...]}}}

``txn`` is the global 1-based committed-transaction index, strictly
increasing across the file.  Per source, ``seq`` is a monotone counter of
WAL records mentioning that source — the ``(source, seq)`` pair is the
replay idempotence key: a checkpoint remembers the highest seq per source
it absorbed, and recovery skips any component at or below it.  ``cursor``
is the source-log position the component's net delta brings a reader up to
(``null`` when the announcement arrived without one); ``delta`` is the
transaction's net :class:`~repro.deltas.Delta` for that source; a source
delta's counts are ±1, so ``sign`` is the count.

The log is *torn-tail tolerant*: the reader stops at the first line that
fails any validation (bad prefix, CRC mismatch, malformed JSON, missing
key, non-increasing ``txn``) and returns everything before it.  A crash
mid-append therefore costs at most the record being written — which the
recovery protocol re-derives from the source's own log, since the source
commits *before* the mediator ever sees the announcement.

Appends are flushed to the OS on every record; pass ``sync=True`` to also
``fsync`` (real durability at real cost — the simulated crash tests model
the crash as an exception, so the default keeps them fast).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.deltas import Delta
from repro.errors import MediatorError
from repro.relalg import Row

__all__ = ["WalSourceEntry", "WalRecord", "WriteAheadLog"]

_MAGIC = "W1"


def _encode_delta(delta: Delta) -> List:
    return [[rel, dict(zip(r._names, r._values)), n] for rel, r, n in delta.atoms()]


def _decode_delta(atoms: List) -> Delta:
    delta = Delta()
    for rel, row_dict, n in atoms:
        delta.add(rel, Row(row_dict), n)
    return delta


@dataclass(frozen=True)
class WalSourceEntry:
    """One source's component of a committed transaction's WAL record."""

    seq: int
    cursor: Optional[int]
    delta: Delta


@dataclass(frozen=True)
class WalRecord:
    """One committed mediator update transaction, as logged."""

    txn: int
    sources: Mapping[str, WalSourceEntry]

    def encode(self) -> bytes:
        payload = {
            "txn": self.txn,
            "sources": {
                name: {
                    "seq": entry.seq,
                    "cursor": entry.cursor,
                    "delta": _encode_delta(entry.delta),
                }
                for name, entry in self.sources.items()
            },
        }
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        return f"{_MAGIC} {crc:08x} {body}\n".encode("utf-8")

    @staticmethod
    def decode(line: bytes) -> Optional["WalRecord"]:
        """One line back into a record, or ``None`` on any corruption."""
        try:
            text = line.decode("utf-8")
            magic, crc_hex, body = text.split(" ", 2)
            if magic != _MAGIC:
                return None
            if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != int(crc_hex, 16):
                return None
            payload = json.loads(body)
            sources = {
                name: WalSourceEntry(
                    seq=int(component["seq"]),
                    cursor=component["cursor"],
                    delta=_decode_delta(component["delta"]),
                )
                for name, component in payload["sources"].items()
            }
            return WalRecord(txn=int(payload["txn"]), sources=sources)
        except (ValueError, KeyError, TypeError):
            return None


class WriteAheadLog:
    """An append-only, checksummed log of committed update transactions."""

    def __init__(self, path: str, sync: bool = False):
        self.path = path
        self.sync = sync
        self._records = self.read_records(path)
        self._fh = open(path, "ab")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @staticmethod
    def read_records(path: str) -> List[WalRecord]:
        """Every valid record, in order, stopping at the first invalid one.

        A missing file is an empty log.  The stop-at-first-invalid rule is
        what makes a torn final append harmless; it also means a corrupted
        middle record truncates the usable log there — everything after an
        unverifiable record is unverifiable too.
        """
        if not os.path.exists(path):
            return []
        with open(path, "rb") as fh:
            data = fh.read()
        records: List[WalRecord] = []
        last_txn = 0
        for line in data.split(b"\n"):
            if not line:
                continue
            record = WalRecord.decode(line)
            if record is None or record.txn <= last_txn:
                break
            records.append(record)
            last_txn = record.txn
        return records

    @property
    def records(self) -> List[WalRecord]:
        """The valid records currently in the log (copies of the list)."""
        return list(self._records)

    @property
    def last_txn(self) -> int:
        """The newest logged transaction index (0 for an empty log)."""
        return self._records[-1].txn if self._records else 0

    def source_seqs(self) -> Dict[str, int]:
        """Per-source highest WAL sequence number in the log."""
        seqs: Dict[str, int] = {}
        for record in self._records:
            for name, entry in record.sources.items():
                seqs[name] = max(seqs.get(name, 0), entry.seq)
        return seqs

    def size(self) -> int:
        """Current file size in bytes."""
        self._fh.flush()
        return os.path.getsize(self.path)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: WalRecord, torn: bool = False) -> int:
        """Append one record; returns bytes written.

        ``torn=True`` simulates a crash landing inside the write: only a
        prefix of the encoded line (cutting into the JSON body, no
        newline) reaches the file.  The record is **not** added to the
        in-memory list — it never durably existed.
        """
        if record.txn <= self.last_txn:
            raise MediatorError(
                f"WAL txn {record.txn} not past last logged txn {self.last_txn}"
            )
        encoded = record.encode()
        if torn:
            prefix = encoded[: max(len(encoded) // 2, len(_MAGIC) + 10)]
            self._fh.write(prefix)
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
            return len(prefix)
        self._fh.write(encoded)
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        self._records.append(record)
        return len(encoded)

    def compact(self, through_txn: int) -> int:
        """Drop records with ``txn <= through_txn``; returns how many.

        Called after a checkpoint *publishes* — never before, so a crash
        mid-checkpoint still finds every record the previous checkpoint
        did not absorb.  Rewrite is atomic (temp file + ``os.replace``).
        """
        kept = [r for r in self._records if r.txn > through_txn]
        dropped = len(self._records) - len(kept)
        if dropped == 0:
            # Still rewrite when the file has a torn tail to shed? No:
            # appends after a torn tail would be unreadable.  A torn tail
            # only exists after a crash, and recovery always compacts or
            # truncates before reuse (see WriteAheadLog.truncate_tail).
            return 0
        self._fh.close()
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            for record in kept:
                fh.write(record.encode())
            fh.flush()
            if self.sync:
                os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._records = kept
        self._fh = open(self.path, "ab")
        return dropped

    def truncate_tail(self) -> bool:
        """Rewrite the file to exactly the valid records (drop a torn tail).

        Returns True when anything was shed.  Reusing a log whose file
        ends mid-record would glue the next append onto the torn bytes and
        make *it* unreadable too, so any writer opening an existing log
        should call this first (the manager does).
        """
        self._fh.flush()
        expected = sum(len(r.encode()) for r in self._records)
        actual = os.path.getsize(self.path)
        if actual == expected:
            return False
        self._fh.close()
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            for record in self._records:
                fh.write(record.encode())
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")
        return True

    def close(self) -> None:
        self._fh.close()

    def __repr__(self) -> str:
        return f"<WriteAheadLog {self.path!r} records={len(self._records)}>"
