"""Write-ahead ingest log: the replayable record of everything fed in.

Checkpoints snapshot the runtime at one instant; everything ingested *after*
the snapshot would be gone on a crash.  The WAL closes that window: every
ingest tick (:meth:`Runtime.ingest_many`; :meth:`Runtime.ingest` is a
one-row tick) appends its submissions here **before** they reach the
scoring service, so recovery is "restore the latest checkpoint, then replay
the tail of the log" — and
because the fused pipeline is deterministic, the replayed runtime lands on
detections bitwise-identical to the uninterrupted run.

Disk format
-----------
The log is a directory of append-only segment files::

    wal-<checkpoint_id:06d>-<sequence:04d>.log

``checkpoint_id`` names the checkpoint whose state the segment's records
*follow* (segment rotation is keyed to checkpoint ids: taking checkpoint N
rotates to ``wal-N-0000``); ``sequence`` increments when a segment of the
same epoch is reopened (crash recovery never appends to a possibly-torn
file — it starts a fresh segment).  Each segment starts with a 16-byte
header (magic, checkpoint id, sequence) followed by CRC-framed records::

    u32 payload_length | u32 crc32(payload) | payload

A torn tail — a partial frame or a CRC mismatch from a crash mid-write —
terminates replay of that segment: the damaged record and anything after it
in the file is dropped, which is exactly right because nothing is ever
appended after a torn record (recovery rotates first).  A payload encodes
one ingest tick: a ``u8`` record kind, a ``u32`` submission count, then the
submissions.  Every record is written as kind 2 (a tick).  Older builds
also wrote kind 1 for a single ``Runtime.ingest`` call; the reader still
accepts it, and since such a record holds exactly one submission, replay
feeds it as a one-row tick like any other record.  Feature arrays
round-trip through raw IEEE-754 bytes (``ndarray.tobytes`` /
``np.frombuffer``) — lossless by construction.

Durability is fsync-batched: ``fsync_every=1`` (the default) makes every
append call durable before the submission is scored; larger values trade the
tail of a crash for fewer ``fsync`` stalls; ``0`` leaves flushing to the OS.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "WalPosition",
    "WalRecord",
    "WriteAheadLog",
    "fsync_path",
    "list_segments",
    "read_segment",
    "read_tail",
]

_MAGIC = b"RPROWAL1"
_HEADER = struct.Struct("<8sII")  # magic, checkpoint_id, sequence
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_RECORD_HEAD = struct.Struct("<BI")  # record kind, submission count
_SID_LEN = struct.Struct("<H")  # utf-8 stream id length
_LEVEL_AND_LEN = struct.Struct("<BdI")  # has_level, level, action length
_LEN = struct.Struct("<I")  # interaction length
_FLOAT64 = np.dtype(np.float64)
_KIND_INGEST = 1  # one Runtime.ingest call, written by older builds (read only)
_KIND_TICK = 2  # one ingest tick: the only kind written
_MAX_PAYLOAD = 1 << 31  # sanity bound against garbage length fields

Submission = Tuple[str, np.ndarray, np.ndarray, Optional[float]]


class WalPosition(NamedTuple):
    """A point in the log: segments sort by ``(checkpoint_id, sequence)``."""

    checkpoint_id: int
    sequence: int


class WalRecord(NamedTuple):
    """One decoded ingest tick."""

    submissions: List[Submission]


def _segment_name(position: WalPosition) -> str:
    return f"wal-{position.checkpoint_id:06d}-{position.sequence:04d}.log"


def _parse_segment_name(name: str) -> Optional[WalPosition]:
    if not (name.startswith("wal-") and name.endswith(".log")):
        return None
    body = name[len("wal-") : -len(".log")]
    head, _, tail = body.partition("-")
    if not (head.isdigit() and tail.isdigit()):
        return None
    return WalPosition(int(head), int(tail))


# ---------------------------------------------------------------------- #
# Record codec
# ---------------------------------------------------------------------- #
def _float64_row(values) -> np.ndarray:
    """``values`` coerced as the scoring session coerces them (flat float64),
    so the bytes logged are the bytes scored."""
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64).reshape(-1))


def _decode_submission(buffer: memoryview, offset: int) -> Tuple[Submission, int]:
    (sid_len,) = _SID_LEN.unpack_from(buffer, offset)
    offset += _SID_LEN.size
    stream_id = bytes(buffer[offset : offset + sid_len]).decode("utf-8")
    has_level, level, a_len = _LEVEL_AND_LEN.unpack_from(buffer, offset + sid_len)
    offset += sid_len + _LEVEL_AND_LEN.size
    action = np.frombuffer(buffer, dtype=np.float64, count=a_len, offset=offset).copy()
    (i_len,) = _LEN.unpack_from(buffer, offset + 8 * a_len)
    offset += 8 * a_len + _LEN.size
    interaction = np.frombuffer(buffer, dtype=np.float64, count=i_len, offset=offset).copy()
    return (stream_id, action, interaction, level if has_level else None), offset + 8 * i_len


def _encode_columns(tick) -> bytes:
    """The payload of a columnar tick — ``stream_ids``/``levels`` lists and
    C-contiguous float64 ``(n, d)`` ``actions``/``interactions`` arrays, as
    :class:`repro.serving.service.Tick` holds them — byte for byte what
    encoding its rows one by one gives: each row is a slice of one buffer
    view instead of a ``tobytes`` copy, and the widths are packed once."""
    a_len, i_len = tick.actions.shape[1], tick.interactions.shape[1]
    a_step, i_step = 8 * a_len, 8 * i_len
    actions = memoryview(tick.actions).cast("B")
    interactions = memoryview(tick.interactions).cast("B")
    i_head = _LEN.pack(i_len)
    parts: List = [_RECORD_HEAD.pack(_KIND_TICK, len(tick.stream_ids))]
    for row, (stream_id, level) in enumerate(zip(tick.stream_ids, tick.levels)):
        sid = stream_id.encode("utf-8")
        if len(sid) > 0xFFFF:
            raise ValueError(f"stream id of {len(sid)} utf-8 bytes exceeds the WAL bound")
        known = level is not None
        parts += (
            _SID_LEN.pack(len(sid)),
            sid,
            _LEVEL_AND_LEN.pack(known, level if known else 0.0, a_len),
            actions[row * a_step : (row + 1) * a_step],
            i_head,
            interactions[row * i_step : (row + 1) * i_step],
        )
    return b"".join(parts)


def _encode_record(submissions: Sequence[Sequence]) -> bytes:
    """One record's payload, built by a single ``b"".join`` over its parts."""
    actions = getattr(submissions, "actions", None)
    if (
        type(actions) is np.ndarray
        and actions.dtype is _FLOAT64
        and actions.flags.c_contiguous
        and actions.size
    ):
        return _encode_columns(submissions)
    parts: List = [_RECORD_HEAD.pack(_KIND_TICK, len(submissions))]
    for submission in submissions:
        if len(submission) == 4:
            stream_id, a, i, level = submission
        elif len(submission) == 3:
            (stream_id, a, i), level = submission, None
        else:
            raise ValueError(
                "submission must be (stream_id, action, interaction[, level]), "
                f"got {len(submission)} elements"
            )
        sid = (stream_id if type(stream_id) is str else str(stream_id)).encode("utf-8")
        if len(sid) > 0xFFFF:
            raise ValueError(f"stream id of {len(sid)} utf-8 bytes exceeds the WAL bound")
        # Inline test: C-contiguous float64 rows (the common case) skip the call.
        if not (type(a) is np.ndarray and a.dtype is _FLOAT64 and a.flags.c_contiguous):
            a = _float64_row(a)
        if not (type(i) is np.ndarray and i.dtype is _FLOAT64 and i.flags.c_contiguous):
            i = _float64_row(i)
        known = level is not None
        level_and_len = _LEVEL_AND_LEN.pack(known, float(level) if known else 0.0, a.size)
        parts += (_SID_LEN.pack(len(sid)), sid, level_and_len, a.tobytes())
        parts += (_LEN.pack(i.size), i.tobytes())
    return b"".join(parts)


def _decode_record(payload: bytes) -> WalRecord:
    buffer = memoryview(payload)
    kind, count = _RECORD_HEAD.unpack_from(buffer, 0)
    if kind not in (_KIND_INGEST, _KIND_TICK):
        raise ValueError(f"unknown WAL record kind {kind}")
    offset = _RECORD_HEAD.size
    submissions: List[Submission] = []
    for _ in range(count):
        submission, offset = _decode_submission(buffer, offset)
        submissions.append(submission)
    return WalRecord(submissions)


# ---------------------------------------------------------------------- #
# Writer
# ---------------------------------------------------------------------- #
def fsync_path(path: Path) -> None:
    """fsync one file or directory (directories hold the entry names)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """Appender over a directory of CRC-framed segments.

    Not internally locked: the owning runtime serialises appends, rotation
    and checkpointing under its durability lock (the log *is* the ingest
    order, so callers must already be serialised for replay to mean
    anything).
    """

    def __init__(self, directory: Union[str, Path], *, fsync_every: int = 1) -> None:
        if fsync_every < 0:
            raise ValueError(f"fsync_every must be >= 0, got {fsync_every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_every = fsync_every
        self._file: Optional[io.BufferedWriter] = None
        self._position: Optional[WalPosition] = None
        self._appends_since_sync = 0
        self._unsynced_bytes = 0
        # Cumulative counters (exported via stats()/Prometheus).
        self.records_appended = 0
        self.batches_appended = 0
        self.bytes_appended = 0
        self.bytes_fsynced = 0
        self.fsyncs = 0
        self.segments_created = 0

    # ------------------------------------------------------------------ #
    @property
    def position(self) -> Optional[WalPosition]:
        """Position of the open segment (None before :meth:`open`)."""
        return self._position

    @property
    def is_open(self) -> bool:
        return self._file is not None

    def open(self, checkpoint_id: int = 0) -> WalPosition:
        """Start appending in epoch ``checkpoint_id``.

        Always begins a *fresh* segment — one past the highest existing
        sequence of that epoch — so recovery never appends after a tail that
        may be torn.
        """
        if self._file is not None:
            raise RuntimeError("write-ahead log is already open")
        existing = [
            position.sequence
            for position, _ in list_segments(self.directory)
            if position.checkpoint_id == checkpoint_id
        ]
        sequence = max(existing) + 1 if existing else 0
        return self._start_segment(WalPosition(checkpoint_id, sequence))

    def rotate(self, checkpoint_id: int) -> WalPosition:
        """Close the open segment and begin the epoch of ``checkpoint_id``.

        Called (under the runtime's durability lock) immediately before a
        checkpoint's state export: the rotation point is the state cut, and
        the new position is what the checkpoint manifest records as the start
        of its replay tail.

        The sequence is computed from disk exactly as :meth:`open` computes
        it — one past the highest existing sequence of the target epoch —
        because a crash between a rotation and its checkpoint's publish can
        orphan a segment of an epoch the store never recorded; assuming 0
        would collide with it after recovery.  The new segment is created
        (and durably named) *before* the previous one is closed, so a failed
        rotation — segment collision, disk full, EMFILE — leaves the log
        open and appendable on its previous segment.
        """
        if self._file is None:
            raise RuntimeError("write-ahead log is not open")
        self.sync()
        existing = [
            position.sequence
            for position, _ in list_segments(self.directory)
            if position.checkpoint_id == checkpoint_id
        ]
        sequence = max(existing) + 1 if existing else 0
        previous_file = self._file
        previous_position = self._position
        self._file = None
        try:
            position = self._start_segment(WalPosition(checkpoint_id, sequence))
        except BaseException:
            if self._file is not None and self._file is not previous_file:
                # _start_segment failed after opening the new file (e.g. the
                # header write or fsync raised): discard the half-made file.
                try:
                    self._file.close()
                except OSError:
                    pass
            self._file = previous_file
            self._position = previous_position
            raise
        previous_file.close()
        return position

    def _start_segment(self, position: WalPosition) -> WalPosition:
        path = self.directory / _segment_name(position)
        if path.exists():
            raise FileExistsError(f"WAL segment already exists: {path}")
        self._file = open(path, "xb")
        self._file.write(_HEADER.pack(_MAGIC, position.checkpoint_id, position.sequence))
        self._file.flush()
        os.fsync(self._file.fileno())
        fsync_path(self.directory)  # the new name itself must survive
        self._position = position
        self._appends_since_sync = 0
        self._unsynced_bytes = 0
        self.segments_created += 1
        return position

    def append(self, submissions: Sequence[Sequence]) -> None:
        """Append one ingest tick as one record."""
        if self._file is None:
            raise RuntimeError("write-ahead log is not open")
        payload = _encode_record(submissions)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload))
        self._file.write(frame)
        self._file.write(payload)
        written = len(frame) + len(payload)
        self.bytes_appended += written
        self._unsynced_bytes += written
        self.records_appended += len(submissions)
        self.batches_appended += 1
        self._appends_since_sync += 1
        if self.fsync_every and self._appends_since_sync >= self.fsync_every:
            self.sync()
        else:
            self._file.flush()

    def sync(self) -> None:
        """Flush and fsync the open segment."""
        if self._file is None:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self.bytes_fsynced += self._unsynced_bytes
        self._unsynced_bytes = 0
        self._appends_since_sync = 0

    def close(self) -> None:
        """Sync and close the open segment (counters stay readable)."""
        if self._file is None:
            return
        self.sync()
        self._file.close()
        self._file = None

    def prune(self, position: WalPosition) -> int:
        """Delete segments strictly before ``position``; returns the count.

        Called after a durable-store checkpoint lands: segments before its
        rotation point are fully contained in the checkpoint state and no
        longer needed for recovery of the live chain.
        """
        removed = 0
        for segment_position, path in list_segments(self.directory):
            if segment_position < position and segment_position != self._position:
                path.unlink()
                removed += 1
        if removed:
            fsync_path(self.directory)
        return removed

    def stats(self) -> dict:
        """JSON-safe counters for ``/stats`` and the Prometheus renderer."""
        return {
            "records_appended": self.records_appended,
            "batches_appended": self.batches_appended,
            "bytes_appended": self.bytes_appended,
            "bytes_fsynced": self.bytes_fsynced,
            "fsyncs": self.fsyncs,
            "segments_created": self.segments_created,
            "segments_on_disk": len(list_segments(self.directory)),
            "fsync_every": self.fsync_every,
            "position": list(self._position) if self._position else None,
            "open": self.is_open,
        }


# ---------------------------------------------------------------------- #
# Reader
# ---------------------------------------------------------------------- #
def list_segments(directory: Union[str, Path]) -> List[Tuple[WalPosition, Path]]:
    """Every segment in ``directory``, sorted by ``(checkpoint_id, sequence)``."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    segments = []
    for path in directory.iterdir():
        position = _parse_segment_name(path.name)
        if position is not None:
            segments.append((position, path))
    segments.sort(key=lambda item: item[0])
    return segments


def read_segment(path: Union[str, Path]) -> Tuple[List[WalRecord], int]:
    """Decode one segment; returns ``(records, torn_records)``.

    A partial frame or CRC mismatch ends the segment: the damaged record is
    dropped (counted in ``torn_records``) and — because appends never follow
    a torn record — nothing valid can exist after it.  A corrupt *header*
    (wrong magic, or a name that contradicts the header) raises: that is not
    a crash artefact but real corruption.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        # Crash during segment creation: header never landed. Nothing to read.
        return [], (1 if data else 0)
    magic, checkpoint_id, sequence = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError(f"not a WAL segment (bad magic): {path}")
    named = _parse_segment_name(Path(path).name)
    if named is not None and named != (checkpoint_id, sequence):
        raise ValueError(
            f"WAL segment {path} header says {(checkpoint_id, sequence)} "
            f"but its name says {tuple(named)}"
        )
    records: List[WalRecord] = []
    offset = _HEADER.size
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            return records, 1  # torn frame header
        length, crc = _FRAME.unpack_from(data, offset)
        if length > _MAX_PAYLOAD or offset + _FRAME.size + length > len(data):
            return records, 1  # torn payload (or garbage length)
        payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
        if zlib.crc32(payload) != crc:
            return records, 1  # torn mid-payload write
        records.append(_decode_record(payload))
        offset += _FRAME.size + length
    return records, 0


class ReplayTail(NamedTuple):
    """Everything the log holds at or after one checkpoint's position."""

    records: List[WalRecord]
    segments: int
    torn_records: int

    @property
    def submissions(self) -> int:
        return sum(len(record.submissions) for record in self.records)


def read_tail(directory: Union[str, Path], position: WalPosition) -> ReplayTail:
    """Decode every record in segments at or after ``position``.

    ``position`` is the ``(checkpoint_id, sequence)`` a checkpoint manifest
    recorded at its rotation; the tail is what must be replayed on top of
    that checkpoint's state.
    """
    records: List[WalRecord] = []
    segments = 0
    torn = 0
    for segment_position, path in list_segments(directory):
        if segment_position < position:
            continue
        segments += 1
        decoded, torn_records = read_segment(path)
        records.extend(decoded)
        torn += torn_records
    return ReplayTail(records, segments, torn)
