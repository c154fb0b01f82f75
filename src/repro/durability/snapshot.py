"""Atomic, integrity-checked, multi-generation snapshot storage.

The write protocol makes a crash at *any* instant recoverable:

1. pickle the state object to bytes and hash it (SHA-256);
2. write the payload to ``<name>.tmp``, ``fsync`` it, and rename it to
   its final name (atomic on POSIX);
3. write a per-generation sidecar manifest (``snap-<seq>.meta.json`` —
   sequence number, payload file name, checksum, simulation clock, event
   count) the same way, so every retained generation stays independently
   verifiable;
4. write the top-level ``MANIFEST.json`` pointing at the new generation,
   again via temp file + ``fsync`` + rename;
5. prune generations outside the keep window, sweep orphaned ``.tmp``
   debris, and best-effort ``fsync`` the directory.

Because the manifest is replaced only *after* its payload is safely on
disk, the manifest always points at a complete, verifiable snapshot: a
kill mid-write leaves at worst an orphaned ``.tmp`` file and the previous
generations intact.

Recovery ladder
---------------
:meth:`SnapshotStore.load_latest` re-hashes the payload before
unpickling.  When the newest generation fails — corrupt manifest,
missing or checksum-failing payload, torn pickle — it does **not** give
up: it walks the retained generations newest-first (their sidecar
manifests carry the checksums) and restores the newest one that
verifies, recording what happened in a structured
:class:`RecoveryReport` (surfaced through the runner into the result
export).  Only when *every* retained generation fails does it raise a
:class:`SnapshotError` listing everything it tried.

Environment faults
------------------
:func:`atomic_write` exposes chaos fault points (``<site>.write`` /
``<site>.rename`` / ``<site>.written`` — see :mod:`repro.chaos`) so the
chaos layer can inject ``ENOSPC``, torn renames (real ``.tmp`` debris),
and byte-level corruption exactly where a hostile host would.  With no
injector installed the points are no-op global reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.chaos.hooks import TornRename, fault_point

__all__ = [
    "SnapshotConfig",
    "SnapshotError",
    "SnapshotInfo",
    "SnapshotStore",
    "RecoveryReport",
    "MANIFEST_NAME",
    "SNAPSHOT_FORMAT",
    "atomic_write",
]

MANIFEST_NAME = "MANIFEST.json"
#: Bump when the payload layout changes incompatibly.
#: 2: engines carry audit-monitor state (repro.audit); results grew an
#:    ``audit`` field.
#: 3: engines carry the hostile-cloud layer (spot market, breaker,
#:    preemption bookkeeping); results grew a ``spot`` field.  Format-2
#:    engines lack those attributes, so resuming one would crash
#:    mid-run — reject the manifest up front instead.
#: 4: the fractional-fleet layer is gone: ``EngineConfig`` and
#:    ``ExperimentResult`` lost their ``alloc`` field.  Both are frozen
#:    slots dataclasses whose ``__setstate__`` zips fields with the
#:    pickled values, so a format-3 snapshot of a k > 1 run would
#:    otherwise resume silently as a single-winner run.
#: 5: the event queue's heap holds ``(time, priority, seq, event)``
#:    tuples instead of bare events; a format-4 heap would fail on the
#:    first pop after resume.
#: 6: the reflection store keeps only win counts (``SelectionRecord`` is
#:    gone, so a format-5 portfolio payload fails mid-unpickle), and
#:    ``EngineConfig`` lost ``reserved_discount``, which would shift
#:    every later field's pickled value by one (see format 4).
SNAPSHOT_FORMAT = 6


class SnapshotError(RuntimeError):
    """A snapshot could not be written, found, or verified."""


@dataclass(slots=True, frozen=True)
class SnapshotConfig:
    """Where and how often run state is snapshotted.

    Parameters
    ----------
    directory:
        Snapshot directory (created on first write).
    interval_seconds:
        Wall-clock period between periodic snapshots; ``None`` disables
        the wall-clock trigger.
    every_events:
        Snapshot every N processed simulation events — deterministic
        across hosts, which is what tests and the CI kill/resume smoke
        job want.  ``None`` disables the event-count trigger.
    keep:
        How many verified snapshots to retain (≥ 1); older payloads are
        pruned after each successful write.  With ``keep >= 2`` the
        recovery ladder can fall back past a corrupted newest generation.
    """

    directory: str | Path
    interval_seconds: float | None = 300.0
    every_events: int | None = None
    keep: int = 2

    def __post_init__(self) -> None:
        if self.interval_seconds is not None and self.interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be positive, got {self.interval_seconds}"
            )
        if self.every_events is not None and self.every_events < 1:
            raise ValueError(
                f"every_events must be >= 1, got {self.every_events}"
            )
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")

    @property
    def path(self) -> Path:
        return Path(self.directory)


@dataclass(slots=True, frozen=True)
class SnapshotInfo:
    """Manifest metadata of one verified snapshot."""

    sequence: int
    payload: str
    sha256: str
    sim_time: float
    events_processed: int
    completed: bool

    @property
    def filename(self) -> str:
        return self.payload


@dataclass(slots=True, frozen=True)
class RecoveryReport:
    """What :meth:`SnapshotStore.load_latest` had to do to find a
    loadable snapshot.

    ``fallback`` is True when the generation the manifest pointed at (or
    the manifest itself) was unusable and an older retained generation
    was restored instead.  ``tried`` lists every payload examined in
    order; ``errors`` carries one description per *failed* attempt.
    """

    requested: str | None  # what the manifest pointed at (None: unreadable)
    recovered: str  # payload actually restored
    recovered_sequence: int
    fallback: bool
    tried: tuple[str, ...]
    errors: tuple[str, ...]
    swept_tmp: int = 0

    def to_dict(self) -> dict:
        return {
            "requested": self.requested,
            "recovered": self.recovered,
            "recovered_sequence": self.recovered_sequence,
            "fallback": self.fallback,
            "tried": list(self.tried),
            "errors": list(self.errors),
            "swept_tmp": self.swept_tmp,
        }


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, data: bytes, site: str = "fs") -> None:
    """Write *data* to *path* via temp file + fsync + rename.

    A crash at any instant leaves either the previous file or the new one,
    never a torn write (plus, at worst, an orphaned ``.tmp``).  Shared with
    the parallel subsystem's cell cache and the tracer's resume rewrite.

    *site* names the chaos fault points this write exposes
    (``<site>.write`` / ``<site>.rename`` / ``<site>.written``); an
    injected :class:`~repro.chaos.hooks.TornRename` leaves the temp file
    behind — the same debris a real mid-rename crash leaves."""
    fault_point(f"{site}.write", path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        fault_point(f"{site}.rename", path)
        os.replace(tmp, path)
    except TornRename:
        # An injected crash between write and rename: the .tmp survives,
        # exactly like a real kill at this instant would leave it.
        raise
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    fault_point(f"{site}.written", path)


class SnapshotStore:
    """Reads and writes snapshots in one directory."""

    def __init__(self, config: SnapshotConfig) -> None:
        self.config = config
        self.directory = config.path
        #: What the last :meth:`load_latest` had to do (None before any
        #: load); the durable runner folds it into the result export when
        #: recovery had to fall back.
        self.last_recovery: RecoveryReport | None = None

    # -- writing ------------------------------------------------------------

    def write(
        self,
        state: Any,
        sequence: int,
        sim_time: float,
        events_processed: int,
        completed: bool = False,
    ) -> SnapshotInfo:
        """Atomically persist *state* as snapshot number *sequence*."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        name = f"snap-{sequence:08d}.pkl"
        atomic_write(self.directory / name, payload, site="snapshot.payload")
        info = SnapshotInfo(
            sequence=sequence,
            payload=name,
            sha256=digest,
            sim_time=float(sim_time),
            events_processed=int(events_processed),
            completed=bool(completed),
        )
        manifest = self._manifest_dict(info)
        body = (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
        # Sidecar first: the generation must be independently verifiable
        # before the top-level manifest ever points at it.
        atomic_write(self._meta_path(sequence), body, site="snapshot.meta")
        atomic_write(self.directory / MANIFEST_NAME, body, site="snapshot.manifest")
        self._prune(current=info.sequence, keep_payload=info.payload)
        self.sweep_debris()
        return info

    @staticmethod
    def _manifest_dict(info: SnapshotInfo) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "sequence": info.sequence,
            "payload": info.payload,
            "sha256": info.sha256,
            "sim_time": info.sim_time,
            "events_processed": info.events_processed,
            "completed": info.completed,
        }

    def _meta_path(self, sequence: int) -> Path:
        return self.directory / f"snap-{sequence:08d}.meta.json"

    @staticmethod
    def _sequence_of(path: Path) -> int | None:
        """Parse the sequence number out of ``snap-<seq>.*`` names."""
        stem = path.name.split(".", 1)[0]
        try:
            return int(stem.split("-", 1)[1])
        except (IndexError, ValueError):  # foreign file
            return None

    def _prune(self, current: int, keep_payload: str | None = None) -> None:
        """Drop generations outside the keep window ending at *current*.

        Deletes payloads *and* their sidecar manifests whose sequence is
        older than the newest ``keep`` generations — or **newer** than
        *current*, which only happens when sequence numbering restarted
        (a fresh run reusing the directory): those high-numbered leftovers
        are stale state from a previous run and must never win a
        newest-first recovery scan.  The payload the current manifest
        points at (*keep_payload*) is never deleted, whatever its number.
        """
        cutoff = current - self.config.keep + 1
        for path in list(self.directory.glob("snap-*.pkl")) + list(
            self.directory.glob("snap-*.meta.json")
        ):
            seq = self._sequence_of(path)
            if seq is None:  # pragma: no cover - foreign file
                continue
            if keep_payload is not None and path.name in (
                keep_payload,
                self._meta_path_name(keep_payload),
            ):
                continue
            if seq < cutoff or seq > current:
                path.unlink(missing_ok=True)

    @staticmethod
    def _meta_path_name(payload: str) -> str:
        return payload.removesuffix(".pkl") + ".meta.json"

    def sweep_debris(self) -> int:
        """Delete orphaned ``*.tmp`` files (mid-``atomic_write`` crash
        leftovers); returns how many were removed.  Run on every write
        and at resume startup."""
        swept = 0
        for path in self.directory.glob("*.tmp"):
            try:
                path.unlink()
                swept += 1
            except OSError:  # pragma: no cover - raced or permission
                pass
        return swept

    # -- reading ------------------------------------------------------------

    def manifest(self) -> SnapshotInfo:
        """Parse and validate the manifest; raise if absent or malformed."""
        path = self.directory / MANIFEST_NAME
        if not path.is_file():
            raise SnapshotError(f"no snapshot manifest at {path}")
        return self._parse_manifest(path)

    def _parse_manifest(self, path: Path) -> SnapshotInfo:
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"unreadable snapshot manifest {path}: {exc}") from exc
        if raw.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"snapshot format {raw.get('format')!r} is not supported "
                f"(expected {SNAPSHOT_FORMAT})"
            )
        try:
            return SnapshotInfo(
                sequence=int(raw["sequence"]),
                payload=str(raw["payload"]),
                sha256=str(raw["sha256"]),
                sim_time=float(raw["sim_time"]),
                events_processed=int(raw["events_processed"]),
                completed=bool(raw.get("completed", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot manifest {path}: {exc}") from exc

    def _verify(self, info: SnapshotInfo) -> Any:
        """Checksum and unpickle the generation *info* describes."""
        path = self.directory / info.payload
        if not path.is_file():
            raise SnapshotError(f"snapshot payload {path} is missing")
        payload = path.read_bytes()
        digest = hashlib.sha256(payload).hexdigest()
        if digest != info.sha256:
            raise SnapshotError(
                f"snapshot payload {path} fails its checksum "
                f"(expected {info.sha256}, got {digest})"
            )
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise SnapshotError(
                f"snapshot payload {path} failed to unpickle: {exc}"
            ) from exc

    def generations(self) -> list[SnapshotInfo]:
        """Every retained generation with a parseable sidecar manifest,
        newest (highest sequence) first.  Unparseable sidecars are
        skipped — the recovery ladder treats them as failed candidates."""
        infos: list[SnapshotInfo] = []
        for path in self.directory.glob("snap-*.meta.json"):
            try:
                infos.append(self._parse_manifest(path))
            except SnapshotError:
                continue
        infos.sort(key=lambda info: info.sequence, reverse=True)
        return infos

    def load_latest(self) -> tuple[Any, SnapshotInfo]:
        """Load, verify, and unpickle the newest loadable snapshot.

        Prefers the generation the manifest points at; on corruption
        falls back generation-by-generation (newest first) through the
        retained sidecar manifests.  Sets :attr:`last_recovery` on
        success; raises :class:`SnapshotError` listing every failed
        attempt when nothing survives.
        """
        if not self.directory.is_dir():
            raise SnapshotError(
                f"no snapshot manifest at {self.directory / MANIFEST_NAME}"
            )
        swept = self.sweep_debris()
        tried: list[str] = []
        errors: list[str] = []
        requested: str | None = None
        primary: SnapshotInfo | None = None
        try:
            primary = self.manifest()
            requested = primary.payload
        except SnapshotError as exc:
            errors.append(str(exc))
        if primary is not None:
            tried.append(primary.payload)
            try:
                state = self._verify(primary)
            except SnapshotError as exc:
                errors.append(str(exc))
            else:
                self.last_recovery = RecoveryReport(
                    requested=requested,
                    recovered=primary.payload,
                    recovered_sequence=primary.sequence,
                    fallback=False,
                    tried=tuple(tried),
                    errors=(),
                    swept_tmp=swept,
                )
                return state, primary
        # The newest generation is unusable: walk the retained sidecar
        # manifests newest-first for the freshest one that still verifies.
        for info in self.generations():
            if info.payload in tried:
                continue
            tried.append(info.payload)
            try:
                state = self._verify(info)
            except SnapshotError as exc:
                errors.append(str(exc))
                continue
            self.last_recovery = RecoveryReport(
                requested=requested,
                recovered=info.payload,
                recovered_sequence=info.sequence,
                fallback=True,
                tried=tuple(tried),
                errors=tuple(errors),
                swept_tmp=swept,
            )
            return state, info
        if not tried and not errors:
            raise SnapshotError(
                f"no snapshot manifest at {self.directory / MANIFEST_NAME}"
            )
        detail = "; ".join(errors) if errors else "no verifiable generation"
        raise SnapshotError(
            f"no loadable snapshot generation in {self.directory} "
            f"(tried {tried or 'nothing'}): {detail}"
        )
