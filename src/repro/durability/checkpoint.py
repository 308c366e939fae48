"""Non-quiescent incremental checkpoints of the mediator's local store.

A checkpoint is one JSON file ``ckpt-<id>.json`` holding::

    {"format": 1, "id": N, "parent": N-1-or-null, "complete": true,
     "wal_txn": T, "source_seqs": {...}, "cursors": {...},
     "nodes": {name: {"columns": [...], "rows": [[values, mult], ...]}}}

``wal_txn`` is the committed-transaction index the image corresponds to
(WAL records at or below it are absorbed); ``source_seqs`` carries the
per-source WAL sequence floor for idempotent replay; ``cursors`` the
per-source log positions the image reflects.  A *base* checkpoint
(``parent: null``) stores every storing node; an *incremental* one stores
only the nodes dirtied since its parent — recovery walks the parent chain
newest-first, taking each node's newest image, until the base closes the
set.

Atomicity is rename-based: the payload is written to ``.tmp`` in full and
published with ``os.replace``.  A crash mid-checkpoint leaves only a
``.tmp`` (never loaded) plus the intact previous chain — and since the WAL
is compacted only *after* publish, every record the previous chain needs
is still there.

Checkpoints are taken at transaction boundaries — between IUP update
transactions, never inside one — which is what lets them run without
quiescing the queue: the store is always transaction-consistent at that
instant, and queued-but-unreflected announcements are simply not part of
the image (their log entries sit past the recorded cursors).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import MediatorError

__all__ = ["CheckpointPolicy", "CheckpointStore"]

_FORMAT = 1
_NAME_RE = re.compile(r"^ckpt-(\d+)\.json$")


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the durability manager takes an incremental checkpoint.

    A checkpoint is due after ``every_txns`` committed transactions or
    ``every_wal_bytes`` of WAL growth since the last one, whichever trips
    first; a non-positive value disables that trigger.  Both disabled
    means checkpoints only on demand (:meth:`DurabilityManager.checkpoint`).
    """

    every_txns: int = 8
    every_wal_bytes: int = 64 * 1024

    def due(self, txns_since: int, wal_bytes_since: int) -> bool:
        """True when either trigger has tripped."""
        if self.every_txns > 0 and txns_since >= self.every_txns:
            return True
        if self.every_wal_bytes > 0 and wal_bytes_since >= self.every_wal_bytes:
            return True
        return False


class CheckpointStore:
    """Reads and writes the checkpoint files of one durability directory."""

    def __init__(self, directory: str):
        self.directory = directory

    def path_for(self, ckpt_id: int) -> str:
        return os.path.join(self.directory, f"ckpt-{ckpt_id:08d}.json")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write(self, payload: Dict, abort_before_publish: bool = False) -> str:
        """Atomically publish one checkpoint; returns its path.

        ``abort_before_publish=True`` simulates the mid-checkpoint crash:
        the ``.tmp`` is fully written but the rename never happens.
        """
        ckpt_id = payload["id"]
        payload = dict(payload, format=_FORMAT, complete=True)
        path = self.path_for(ckpt_id)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            # json.dumps runs the C encoder; json.dump always iterates in Python.
            fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
            fh.flush()
        if abort_before_publish:
            return tmp
        os.replace(tmp, path)
        return path

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load_all(self) -> Dict[int, Dict]:
        """Every valid published checkpoint, keyed by id.

        Unparseable files, format mismatches, and anything not marked
        ``complete`` are skipped (``.tmp`` leftovers never match the file
        name pattern in the first place).
        """
        out: Dict[int, Dict] = {}
        if not os.path.isdir(self.directory):
            return out
        for name in os.listdir(self.directory):
            match = _NAME_RE.match(name)
            if not match:
                continue
            try:
                with open(os.path.join(self.directory, name), encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                continue
            if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
                continue
            if not payload.get("complete") or payload.get("id") != int(match.group(1)):
                continue
            out[payload["id"]] = payload
        return out

    def latest_id(self) -> Optional[int]:
        """The newest published checkpoint id, if any."""
        ids = self.load_all()
        return max(ids) if ids else None

    def resolve_chain(
        self, storing_nodes: Iterable[str]
    ) -> Tuple[Dict, Dict[str, Dict]]:
        """The newest usable checkpoint chain, resolved to per-node images.

        Walks candidates newest-first; for each, follows the parent chain
        collecting each node's *newest* image until a base checkpoint
        closes it.  Returns ``(newest_checkpoint_meta, node_images)``.
        A candidate whose chain is broken (missing parent) or, once
        closed, does not cover every storing node is skipped — the next
        older candidate is tried.  Raises when nothing usable remains.
        """
        storing = set(storing_nodes)
        checkpoints = self.load_all()
        for candidate in sorted(checkpoints, reverse=True):
            nodes: Dict[str, Dict] = {}
            meta = checkpoints[candidate]
            current: Optional[Dict] = meta
            usable = False
            while current is not None:
                for name, image in current["nodes"].items():
                    nodes.setdefault(name, image)
                parent = current.get("parent")
                if parent is None:
                    usable = True
                    break
                current = checkpoints.get(parent)
            if usable and storing <= set(nodes):
                return meta, {name: nodes[name] for name in storing}
        raise MediatorError(
            f"no usable checkpoint chain in {self.directory!r}; cold-initialize instead"
        )
