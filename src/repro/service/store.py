"""Disk-backed content-addressed result store for measurement results.

The engine's in-memory :class:`~repro.engine.cache.MeasurementCache` keys
every result on the full content of its query — environment fingerprint
plus request key.  :class:`ResultStore`
persists those same ``(key, result)`` pairs on disk so the cache survives
process restarts and is shared across concurrent worker processes:

* **Content addressing** — :func:`canonical_key_bytes` deterministically
  serialises a cache-key tuple (ints, floats via ``float.hex``, strings,
  nested tuples and the simulator's frozen dataclasses) and
  :func:`key_digest` hashes it to the blob name, so two processes always
  agree on where a result lives.  The engine key already carries any
  fault fingerprint, so fault honesty is inherited, not re-implemented.
* **Atomic writes** — blobs are written to a private temp file (named
  after the writer's pid) and published with ``os.replace``; readers can
  never observe a half-written blob under its final name.
* **Checksum-verified reads** — every blob embeds the SHA-256 of its
  payload; a corrupted or truncated blob is detected, dropped, and
  reported as a miss — never returned.
* **Size-bounded LRU eviction** — the store evicts least-recently-used
  blobs (file mtime, refreshed on every hit) once ``max_bytes`` is
  exceeded; the entry just written is always protected.  ``put`` rescans
  the tree only once this handle's writes since its last scan exceed half
  the headroom that scan saw, so a put costs O(1) far from the budget.
* **Crash recovery** — temp files whose writer pid is dead are reaped on
  open, so a SIGKILL mid-``put`` leaves no debris and loses at most the
  entry being written.

Layout under ``root``::

    meta.json               # {"schema": "atlas-store/1"}
    objects/<d2>/<digest>.blob
    tmp/<digest>.<pid>.<seq>.part

The store is safe to share between processes without locks: writes are
atomic renames, reads are tolerant of concurrent eviction (an unlinked
blob is just a miss), and eviction skips files that vanish mid-scan.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from threading import Lock
from typing import Any, Iterator

import numpy as np

from repro.engine.forkpool import Counters

__all__ = [
    "DEFAULT_MAX_BYTES",
    "ResultStore",
    "STORE_SCHEMA",
    "StoreKeyError",
    "StoreStats",
    "canonical_key_bytes",
    "key_digest",
]

#: Schema identifier embedded in every blob header and ``meta.json``.
STORE_SCHEMA = "atlas-store/1"

#: Default size budget of a store (LRU-evicted beyond this).
DEFAULT_MAX_BYTES = 2 * 1024**3

#: First bytes of every blob file; anything else is corrupt on sight.
_MAGIC = b"ATLASTORE1\n"

#: Pickle protocol of blob payloads (fixed so digests of payload bytes are
#: comparable across interpreter minor versions that share protocol 4).
_PICKLE_PROTOCOL = 4


class StoreKeyError(TypeError):
    """A cache key contains a value with no canonical byte encoding."""


# --------------------------------------------------------------- key encoding
def _encode(value: Any, out: bytearray) -> None:
    if value is None:
        out += b"z;"
    elif value is True:
        out += b"b1;"
    elif value is False:
        out += b"b0;"
    elif isinstance(value, int):
        out += b"i%d;" % value
    elif isinstance(value, float):
        out += b"f" + float(value).hex().encode("ascii") + b";"
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s%d:" % len(raw)
        out += raw
    elif isinstance(value, bytes):
        out += b"y%d:" % len(value)
        out += value
    elif isinstance(value, np.generic):
        _encode(value.item(), out)
    elif isinstance(value, np.ndarray):
        raw = np.ascontiguousarray(value).tobytes()
        out += b"a" + str(value.dtype).encode("ascii") + b"|"
        out += ",".join(str(dim) for dim in value.shape).encode("ascii") + b"|"
        out += b"%d:" % len(raw)
        out += raw
    elif isinstance(value, (tuple, list)):
        out += b"("
        for item in value:
            _encode(item, out)
        out += b")"
    elif isinstance(value, dict):
        encoded = []
        for key, item in value.items():
            pair = bytearray()
            _encode(key, pair)
            _encode(item, pair)
            encoded.append(bytes(pair))
        out += b"<"
        for pair in sorted(encoded):
            out += pair
        out += b">"
    elif isinstance(value, (set, frozenset)):
        encoded = []
        for item in value:
            member = bytearray()
            _encode(item, member)
            encoded.append(bytes(member))
        out += b"{"
        for member in sorted(encoded):
            out += member
        out += b"}"
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        name = f"{cls.__module__}.{cls.__qualname__}".encode("ascii")
        out += b"D%d:" % len(name)
        out += name
        out += b"("
        for field in dataclasses.fields(value):
            _encode(field.name, out)
            _encode(getattr(value, field.name), out)
        out += b")"
    else:
        raise StoreKeyError(
            f"cache key component {value!r} of type {type(value).__name__} has no "
            "canonical encoding; extend repro.service.store._encode or keep it out "
            "of environment fingerprints"
        )


def canonical_key_bytes(key: Any) -> bytes:
    """Deterministic byte serialisation of a cache key.

    Stable across processes and machines for the value kinds that appear in
    engine cache keys (scalars, strings, nested tuples, numpy scalars and
    arrays, and frozen dataclasses — encoded with their qualified class name
    and field values).  Floats encode via ``float.hex`` so the mapping is
    exact, not repr-rounded.
    """
    out = bytearray()
    _encode(key, out)
    return bytes(out)


def key_digest(key: Any) -> str:
    """Content address of a cache key: SHA-256 of its canonical bytes."""
    return hashlib.sha256(canonical_key_bytes(key)).hexdigest()


# -------------------------------------------------------------------- stats
@dataclass
class StoreStats(Counters):
    """Per-process counters of one :class:`ResultStore` handle.

    Fork pools fold their workers' counts in (:mod:`repro.engine.forkpool`),
    so the handle a pool's parent holds also counts its workers' traffic.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt_dropped: int = 0
    reaped_temp: int = 0
    put_errors: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists but owned elsewhere
        return True
    except OSError:  # pragma: no cover - conservative: assume alive
        return True
    return True


# -------------------------------------------------------------------- store
class ResultStore:
    """Persistent content-addressed store of measurement results.

    Parameters
    ----------
    root:
        Directory of the store (created if missing).
    max_bytes:
        Size budget of the ``objects/`` tree; least-recently-used blobs are
        evicted beyond it.  ``None`` disables eviction.
    reap:
        Reap dead writers' temp files on open (crash recovery; default on).
    """

    def __init__(
        self,
        root: str | Path,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        reap: bool = True,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._tmp.mkdir(parents=True, exist_ok=True)
        self._seq = count()
        self._lock = Lock()
        # Eviction bookkeeping, under _lock: total bytes the last scan left on
        # disk (None before the first scan) and bytes put since that scan.
        self._scanned_total: int | None = None
        self._unscanned_bytes = 0
        meta = self.root / "meta.json"
        if not meta.exists():
            self._atomic_write(meta, json.dumps({"schema": STORE_SCHEMA}).encode() + b"\n")
        if reap:
            self.reap_temp()

    # ----------------------------------------------------------------- paths
    def path_for(self, digest: str) -> Path:
        """Final blob path of a digest (two-character shard directories)."""
        return self._objects / digest[:2] / f"{digest}.blob"

    def _tmp_path(self, digest: str) -> Path:
        return self._tmp / f"{digest}.{os.getpid()}.{next(self._seq)}.part"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    # ------------------------------------------------------------------- put
    def put(self, key: Any, value: Any) -> str:
        """Persist ``value`` under ``key`` and return the blob digest.

        The blob is staged in ``tmp/`` (fsynced) and published with one
        atomic rename, then the LRU budget is enforced — protecting the
        entry just written, which is therefore always retrievable
        immediately after ``put`` returns.

        Enforcing the budget means a scan of the whole store, so ``put``
        only scans once the bytes this handle has written since its last
        scan exceed half the headroom (``max_bytes`` minus the total) that
        scan saw.  The store cannot grow past the budget without this
        handle's own writes crossing that line, so a single writer makes
        exactly the eviction decisions of a scan on every put.  With
        several writers, another writer's bytes are seen at this handle's
        next scan (and at that writer's own scans); a direct
        :meth:`evict_if_needed` call always scans.
        """
        digest = key_digest(key)
        payload = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
        header = json.dumps(
            {
                "schema": STORE_SCHEMA,
                "key": digest,
                "payload_size": len(payload),
                "payload_sha256": hashlib.sha256(payload).hexdigest(),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("ascii")
        blob = _MAGIC + header + b"\n" + payload
        final = self.path_for(digest)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_path(digest)
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)
        except OSError:
            self.stats.put_errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        self.stats.bytes_written += len(blob)
        if self._scan_due(len(blob)):
            self.evict_if_needed(protect=(digest,))
        return digest

    def _scan_due(self, written: int) -> bool:
        """Count ``written`` bytes; whether ``put`` should rescan the store now."""
        if self.max_bytes is None:
            return False
        with self._lock:
            self._unscanned_bytes += written
            if self._scanned_total is None:
                return True
            return self._unscanned_bytes > (self.max_bytes - self._scanned_total) / 2

    # ------------------------------------------------------------------- get
    def get(self, key: Any) -> Any | None:
        """Return the stored value under ``key`` or ``None`` on a miss.

        Any validation failure — bad magic, unparsable header, size or
        checksum mismatch, digest mismatch — drops the blob and reports a
        miss; a corrupted entry is never returned.
        """
        digest = key_digest(key)
        path = self.path_for(digest)
        try:
            blob = path.read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            self.stats.misses += 1
            return None
        value, valid = self._decode(blob, digest)
        if not valid:
            self._drop_corrupt(path)
            self.stats.misses += 1
            return None
        try:
            os.utime(path)  # refresh LRU recency for cross-process eviction
        except OSError:
            pass  # concurrently evicted: the value we hold is still good
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        return value

    def contains(self, key: Any) -> bool:
        """Whether a blob exists for ``key`` (without validating it)."""
        return self.path_for(key_digest(key)).exists()

    def _decode(self, blob: bytes, digest: str) -> tuple[Any, bool]:
        if not blob.startswith(_MAGIC):
            return None, False
        newline = blob.find(b"\n", len(_MAGIC))
        if newline < 0:
            return None, False
        try:
            header = json.loads(blob[len(_MAGIC) : newline])
        except ValueError:
            return None, False
        payload = blob[newline + 1 :]
        if (
            not isinstance(header, dict)
            or header.get("schema") != STORE_SCHEMA
            or header.get("key") != digest
            or header.get("payload_size") != len(payload)
            or header.get("payload_sha256") != hashlib.sha256(payload).hexdigest()
        ):
            return None, False
        try:
            return pickle.loads(payload), True
        except Exception:
            # The checksum matched, so this is a same-content re-serialisation
            # issue (e.g. a renamed class), not disk corruption — still a miss.
            return None, False

    def _drop_corrupt(self, path: Path) -> None:
        self.stats.corrupt_dropped += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # -------------------------------------------------------------- eviction
    def entries(self) -> Iterator[tuple[Path, int, float]]:
        """Yield ``(path, size, mtime)`` of every blob currently on disk."""
        try:
            shards = sorted(self._objects.iterdir())
        except FileNotFoundError:
            return
        for shard in shards:
            try:
                names = sorted(shard.iterdir())
            except (FileNotFoundError, NotADirectoryError):
                continue
            for path in names:
                if path.suffix != ".blob":
                    continue
                try:
                    stat = path.stat()
                except FileNotFoundError:
                    continue
                yield path, stat.st_size, stat.st_mtime

    def entry_count(self) -> int:
        """Number of blobs currently on disk."""
        return sum(1 for _ in self.entries())

    def total_bytes(self) -> int:
        """Total size of all blobs currently on disk."""
        return sum(size for _, size, _ in self.entries())

    def evict_if_needed(self, protect: tuple[str, ...] = ()) -> int:
        """Enforce ``max_bytes``, never evicting the protected digests.

        Returns the number of evicted blobs.  Oldest-``mtime`` first; hits
        refresh mtime, so this is LRU across every process sharing the
        directory.
        """
        if self.max_bytes is None:
            return 0
        with self._lock:
            listing = sorted(self.entries(), key=lambda entry: (entry[2], entry[0].name))
            total = sum(size for _, size, _ in listing)
            protected = {f"{digest}.blob" for digest in protect}
            evicted = 0
            for path, size, _ in listing:
                if total <= self.max_bytes:
                    break
                if path.name in protected:
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evicted += 1
            self.stats.evictions += evicted
            self._scanned_total = total
            self._unscanned_bytes = 0
            return evicted

    # ------------------------------------------------------------- recovery
    def reap_temp(self) -> int:
        """Remove temp files left by dead writers; return how many.

        Temp names embed the writer's pid (``<digest>.<pid>.<seq>.part``);
        a file whose pid no longer exists is debris from a crashed or
        SIGKILLed ``put`` and is deleted.  Live writers' files are left
        alone, as are files this process is still writing.
        """
        reaped = 0
        try:
            names = list(self._tmp.iterdir())
        except FileNotFoundError:
            return 0
        for path in names:
            parts = path.name.split(".")
            pid: int | None = None
            if len(parts) >= 3:
                try:
                    pid = int(parts[1])
                except ValueError:
                    pid = None
            if pid is not None and (pid == os.getpid() or _pid_alive(pid)):
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            reaped += 1
        self.stats.reaped_temp += reaped
        return reaped

    def verify(self) -> dict:
        """Validate every blob on disk; corrupt ones are dropped.

        Returns ``{"checked": n, "ok": n, "corrupt": [paths...]}`` — the
        post-crash health check used by the recovery tests and the daemon's
        startup log.
        """
        checked = ok = 0
        corrupt: list[str] = []
        for path, _, _ in list(self.entries()):
            checked += 1
            digest = path.name[: -len(".blob")]
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            _, valid = self._decode(blob, digest)
            if valid:
                ok += 1
            else:
                corrupt.append(str(path))
                self._drop_corrupt(path)
        return {"checked": checked, "ok": ok, "corrupt": corrupt}

    def clear(self) -> None:
        """Drop every blob (counters keep accumulating)."""
        for path, _, _ in list(self.entries()):
            try:
                os.unlink(path)
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Compact description of the store's location and budget."""
        return f"ResultStore(root={str(self.root)!r}, max_bytes={self.max_bytes})"
