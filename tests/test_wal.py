"""Unit tests for the write-ahead ingest log (repro.durability.wal).

Covers the disk format's crash contract in isolation: bitwise codec
round-trips, fresh-segment-on-open (never append after a possibly-torn
tail), rotation keyed to checkpoint ids, torn-tail detection at every byte
boundary, pruning, the fsync-batching counters, and refused appends that
leave nothing in the log.
"""

from __future__ import annotations

import errno
import hashlib
import os
import struct

import numpy as np
import pytest

from repro.durability.wal import (
    WalDamagedError,
    WalPosition,
    WriteAheadLog,
    _decode_record,
    _encode_record,
    list_segments,
    read_segment,
    read_tail,
)


def legacy(payload: bytes) -> bytes:
    """``payload`` as older builds wrote a single ``Runtime.ingest`` call:
    the same bytes under record kind 1 instead of 2."""
    assert payload[0] == 2
    return b"\x01" + payload[1:]


def make_submission(rng, *, stream="cam-0", dims=(6, 3), level=0.5):
    return (
        stream,
        rng.standard_normal(dims[0]),
        rng.standard_normal(dims[1]),
        level,
    )


class TestRecordCodec:
    def test_round_trips_bitwise(self):
        rng = np.random.default_rng(0)
        submissions = [
            make_submission(rng, stream="cam-0", level=0.25),
            make_submission(rng, stream="καμ-1", level=None),  # non-ASCII id
            make_submission(rng, stream="cam-2", level=-1.5e-300),
        ]
        record = _decode_record(_encode_record(submissions))
        assert len(record.submissions) == 3
        for original, decoded in zip(submissions, record.submissions):
            assert decoded[0] == original[0]
            # Bitwise: the exact IEEE-754 payload, not approximate equality.
            assert decoded[1].tobytes() == np.asarray(
                original[1], dtype=np.float64
            ).tobytes()
            assert decoded[2].tobytes() == np.asarray(
                original[2], dtype=np.float64
            ).tobytes()
            assert decoded[3] == original[3]

    def test_legacy_single_ingest_records_decode_as_one_row_ticks(self):
        rng = np.random.default_rng(1)
        payload = _encode_record([make_submission(rng)])
        tick = _decode_record(payload)
        single = _decode_record(legacy(payload))
        assert len(single.submissions) == 1
        for ours, theirs in zip(single.submissions[0], tick.submissions[0]):
            assert np.array_equal(ours, theirs)

    def test_unknown_kinds_are_refused(self):
        payload = _encode_record([make_submission(np.random.default_rng(1))])
        with pytest.raises(ValueError, match="unknown WAL record kind 4"):
            _decode_record(b"\x04" + payload[1:])

    def test_flush_markers_round_trip_in_log_order(self, tmp_path):
        rng = np.random.default_rng(3)
        wal = WriteAheadLog(tmp_path)
        wal.open(0)
        wal.append([make_submission(rng)])
        wal.append_flush(32)
        wal.append([make_submission(rng)])
        assert (wal.records_appended, wal.batches_appended) == (2, 2)
        wal.close()
        tail = read_tail(tmp_path, WalPosition(0, 0))
        assert [record.min_fill for record in tail.records] == [None, 32, None]
        assert tail.records[1].submissions == [] and tail.submissions == 2

    def test_submission_arity_is_validated(self):
        with pytest.raises(ValueError, match="stream_id, action"):
            _encode_record([("cam-0", np.zeros(3))])

    def test_three_element_submission_means_unknown_level(self):
        rng = np.random.default_rng(2)
        record = _decode_record(
            _encode_record([("cam-0", rng.standard_normal(4), rng.standard_normal(2))])
        )
        assert record.submissions[0][3] is None

    def test_golden_bytes(self):
        """The on-disk record format is frozen: logs written by any earlier
        build must replay.  Pins the sha256 of records covering both kinds
        (kind 1 as older builds wrote it: :func:`legacy`),
        3- and 4-tuples, a ``None`` level, NumPy/int levels, and the coerced
        slow path (int arrays, lists, tuples, strided, reversed, 2-D and
        Fortran-ordered features)."""
        grid = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0 - 1.5
        records = [
            (
                [
                    ("cam-0", grid[0], grid[1, :3], 0.25),
                    ("cam-1", grid[2], grid[3, :3], None),
                    ("cam-2", grid[1], grid[0, 3:]),
                    ("kamera-ü", grid[:, 0], grid[0, ::2], np.float32(0.5)),
                    ("ints", np.arange(5), [1, -2, 3], 2),
                    ("lists", [0.1, -0.0, 1e300], (2.5,), -1.0),
                    ("matrix", grid[:2, :2], np.asfortranarray(grid[:2, :2]), None),
                ],
                True,
            ),
            ([("cam-0", grid[3], grid[2, 1:4], 0.75)], False),
            ([("cam-3", grid[0, ::-1], grid[1, :3])], False),
        ]
        digest = hashlib.sha256()
        for submissions, tick in records:
            payload = _encode_record(submissions)
            digest.update(payload if tick else legacy(payload))
        assert digest.hexdigest() == (
            "1f3a837545148039145066a8abc3b0b5eed124204a2d0314b524ec236aa3e11d"
        )


class TestWriter:
    def test_open_append_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        wal = WriteAheadLog(tmp_path)
        position = wal.open(0)
        assert position == WalPosition(0, 0)
        first = [make_submission(rng)]
        second = [make_submission(rng), make_submission(rng, stream="cam-1")]
        wal.append(first)
        wal.append(second)
        wal.close()

        tail = read_tail(tmp_path, WalPosition(0, 0))
        assert tail.segments == 1
        assert tail.torn_records == 0
        assert [len(record.submissions) for record in tail.records] == [1, 2]
        assert tail.submissions == 3

    def test_open_never_reuses_a_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open(0)
        wal.close()
        # A recovering process must start a fresh segment: the previous tail
        # may be torn and nothing is ever appended after a torn record.
        again = WriteAheadLog(tmp_path)
        assert again.open(0) == WalPosition(0, 1)
        again.close()
        positions = [position for position, _ in list_segments(tmp_path)]
        assert positions == [WalPosition(0, 0), WalPosition(0, 1)]

    def test_rotate_starts_the_checkpoint_epoch(self, tmp_path):
        rng = np.random.default_rng(4)
        wal = WriteAheadLog(tmp_path)
        wal.open(0)
        wal.append([make_submission(rng)])
        assert wal.rotate(1) == WalPosition(1, 0)
        wal.append([make_submission(rng)])
        # Same-epoch rotation (explicit-path checkpoint twice between store
        # checkpoints) bumps the sequence instead.
        assert wal.rotate(1) == WalPosition(1, 1)
        wal.close()
        tail = read_tail(tmp_path, WalPosition(1, 0))
        assert tail.segments == 2
        assert tail.submissions == 1  # the epoch-0 record is before the cut

    def test_rotate_skips_orphaned_segments_of_the_target_epoch(self, tmp_path):
        # A crash between rotate(N) and checkpoint N's publish orphans
        # wal-N-0000 while the store's latest checkpoint stays at M; after
        # recovery the next checkpoint re-allocates id N, and rotate(N) must
        # not collide with the orphan — the sequence comes from disk, exactly
        # as open() computes it.
        rng = np.random.default_rng(11)
        wal = WriteAheadLog(tmp_path)
        wal.open(1)
        orphan = WriteAheadLog(tmp_path)
        assert orphan.open(2) == WalPosition(2, 0)
        orphan.close()
        wal.append([make_submission(rng)])
        assert wal.rotate(2) == WalPosition(2, 1)
        wal.append([make_submission(rng)])
        wal.close()
        tail = read_tail(tmp_path, WalPosition(2, 1))
        assert tail.submissions == 1

    def test_failed_rotation_leaves_the_log_appendable(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        wal = WriteAheadLog(tmp_path)
        position = wal.open(0)
        wal.append([make_submission(rng)])

        def boom(self, pos):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(WriteAheadLog, "_start_segment", boom)
        with pytest.raises(OSError):
            wal.rotate(1)
        monkeypatch.undo()
        # The failed rotation must not brick durable ingest: the previous
        # segment stays open and appendable.
        assert wal.is_open
        assert wal.position == position
        wal.append([make_submission(rng)])
        wal.close()
        tail = read_tail(tmp_path, WalPosition(0, 0))
        assert tail.submissions == 2
        assert tail.torn_records == 0

    def test_prune_removes_segments_before_position(self, tmp_path):
        rng = np.random.default_rng(5)
        wal = WriteAheadLog(tmp_path)
        wal.open(0)
        wal.append([make_submission(rng)])
        wal.rotate(1)
        wal.append([make_submission(rng)])
        position = wal.rotate(2)
        removed = wal.prune(position)
        assert removed == 2
        remaining = [position for position, _ in list_segments(tmp_path)]
        assert remaining == [WalPosition(2, 0)]
        wal.close()

    def test_fsync_batching_counters(self, tmp_path):
        rng = np.random.default_rng(6)
        wal = WriteAheadLog(tmp_path, fsync_every=3)
        wal.open(0)
        for _ in range(7):
            wal.append([make_submission(rng)])
        # 7 appends at fsync_every=3 -> syncs after the 3rd and 6th.
        assert wal.fsyncs == 2
        assert wal.records_appended == 7
        assert wal.batches_appended == 7
        assert wal.bytes_fsynced < wal.bytes_appended
        wal.close()  # close syncs the remainder
        assert wal.bytes_fsynced == wal.bytes_appended
        stats = wal.stats()
        assert stats["records_appended"] == 7
        assert stats["segments_on_disk"] == 1
        assert stats["open"] is False

    def test_fsync_every_zero_leaves_flushing_to_the_os(self, tmp_path):
        rng = np.random.default_rng(7)
        wal = WriteAheadLog(tmp_path, fsync_every=0)
        wal.open(0)
        wal.append([make_submission(rng)])
        assert wal.fsyncs == 0
        wal.close()
        assert wal.fsyncs == 1  # close always syncs

    def test_append_requires_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(RuntimeError, match="not open"):
            wal.append([("cam-0", np.zeros(3), np.zeros(2), None)])
        with pytest.raises(RuntimeError, match="not open"):
            wal.rotate(1)

    def test_double_open_is_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open(0)
        with pytest.raises(RuntimeError, match="already open"):
            wal.open(1)
        wal.close()


class TestTornTails:
    def write_reference(self, tmp_path, records=3, seed=8):
        rng = np.random.default_rng(seed)
        wal = WriteAheadLog(tmp_path)
        wal.open(0)
        for _ in range(records):
            wal.append([make_submission(rng)])
        wal.close()
        (_, path), = list_segments(tmp_path)
        return path

    def test_truncation_at_every_byte_drops_only_the_torn_record(self, tmp_path):
        path = self.write_reference(tmp_path)
        data = path.read_bytes()
        full_records, _ = read_segment(path)
        assert len(full_records) == 3
        # Record boundaries: parse the frame chain.
        boundaries = [16]  # header size
        offset = 16
        while offset < len(data):
            length, _ = struct.unpack_from("<II", data, offset)
            offset += 8 + length
            boundaries.append(offset)
        assert boundaries[-1] == len(data)
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            if cut < 16:
                records, torn = read_segment(path)
                assert records == []
                assert torn == (1 if cut else 0)
                continue
            records, torn = read_segment(path)
            complete = sum(1 for b in boundaries if b <= cut) - 1
            assert len(records) == complete, f"cut at byte {cut}"
            assert torn == (0 if cut in boundaries else 1), f"cut at byte {cut}"
            # Whatever survives is bitwise-identical to the uncut prefix.
            for kept, original in zip(records, full_records):
                assert len(kept.submissions) == len(original.submissions)
                for left, right in zip(kept.submissions, original.submissions):
                    assert left[0] == right[0]
                    assert left[1].tobytes() == right[1].tobytes()
                    assert left[2].tobytes() == right[2].tobytes()
                    assert left[3] == right[3]

    def test_corrupt_payload_byte_is_detected_by_crc(self, tmp_path):
        path = self.write_reference(tmp_path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # flip one byte inside the last record's payload
        path.write_bytes(bytes(data))
        records, torn = read_segment(path)
        assert len(records) == 2
        assert torn == 1

    def test_garbage_appended_after_records_is_a_torn_tail(self, tmp_path):
        path = self.write_reference(tmp_path)
        with open(path, "ab") as handle:
            handle.write(os.urandom(11))
        records, torn = read_segment(path)
        assert len(records) == 3
        assert torn == 1

    def test_bad_magic_raises(self, tmp_path):
        path = self.write_reference(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="bad magic"):
            read_segment(path)

    def test_header_name_mismatch_raises(self, tmp_path):
        path = self.write_reference(tmp_path)
        renamed = path.with_name("wal-000042-0000.log")
        path.rename(renamed)
        with pytest.raises(ValueError, match="its name says"):
            read_segment(renamed)

    def test_headerless_file_is_an_empty_torn_segment(self, tmp_path):
        path = self.write_reference(tmp_path)
        path.write_bytes(b"RPRO")  # crash during segment creation
        records, torn = read_segment(path)
        assert records == []
        assert torn == 1


class TestRefusedAppends:
    """An append that raises leaves the segment as it was before it."""

    @staticmethod
    def fail_next(monkeypatch, name, error):
        """Make the next ``os.<name>`` call raise ``error``; later calls run."""
        real = getattr(os, name)
        armed = [True]

        def faulty(*args):
            if armed[0]:
                armed[0] = False
                raise error
            return real(*args)

        monkeypatch.setattr(os, name, faulty)

    @staticmethod
    def assert_damaged(wal, tick, errno_):
        for _ in range(2):  # every later append, not only the next one
            with pytest.raises(WalDamagedError, match="until the log rotates") as raised:
                wal.append(tick)
            assert isinstance(raised.value.__cause__, OSError)
            assert raised.value.__cause__.errno == errno_

    @staticmethod
    def ticks(count, seed=21):
        rng = np.random.default_rng(seed)
        return [[make_submission(rng, stream=f"cam-{k}")] for k in range(count)]

    def write(self, directory, ticks, fsync_every=1):
        wal = WriteAheadLog(directory, fsync_every=fsync_every)
        wal.open(0)
        for tick in ticks:
            wal.append(tick)
        wal.close()
        ((_, path),) = list_segments(directory)
        return wal, path.read_bytes()

    def test_a_failed_fsync_is_truncated_and_a_retry_logs_the_tick_once(
        self, tmp_path, monkeypatch
    ):
        ticks = self.ticks(3)
        twin, expected = self.write(tmp_path / "twin", ticks)
        wal = WriteAheadLog(tmp_path / "live")
        wal.open(0)
        wal.append(ticks[0])
        self.fail_next(monkeypatch, "fsync", OSError(errno.EIO, "I/O error"))
        with pytest.raises(OSError, match="I/O error"):
            wal.append(ticks[1])
        # Only the appends before the refused one count.
        assert (wal.batches_appended, wal.fsyncs) == (1, 1)
        for tick in ticks[1:]:  # the retry, then the rest
            wal.append(tick)
        wal.close()
        ((_, path),) = list_segments(tmp_path / "live")
        # Byte for byte the log of a run that never failed.
        assert path.read_bytes() == expected
        tail = read_tail(tmp_path / "live", WalPosition(0, 0))
        assert (len(tail.records), tail.torn_records) == (3, 0)
        for name in ("records_appended", "batches_appended", "bytes_appended", "bytes_fsynced"):
            assert getattr(wal, name) == getattr(twin, name), name

    def test_a_short_write_is_truncated(self, tmp_path, monkeypatch):
        ticks = self.ticks(3, seed=22)
        _, expected = self.write(tmp_path / "twin", ticks)
        wal = WriteAheadLog(tmp_path / "live")
        wal.open(0)
        wal.append(ticks[0])
        real = WriteAheadLog._write

        def half_then_full(self, data):
            real(self, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(WriteAheadLog, "_write", half_then_full)
        with pytest.raises(OSError, match="No space"):
            wal.append(ticks[1])
        monkeypatch.undo()
        for tick in ticks[1:]:
            wal.append(tick)
        wal.close()
        ((_, path),) = list_segments(tmp_path / "live")
        assert path.read_bytes() == expected

    def test_a_failed_truncation_refuses_appends_until_rotate(self, tmp_path, monkeypatch):
        ticks = self.ticks(4, seed=23)
        wal = WriteAheadLog(tmp_path)
        wal.open(0)
        wal.append(ticks[0])
        self.fail_next(monkeypatch, "fsync", OSError(errno.EIO, "I/O error"))
        self.fail_next(monkeypatch, "ftruncate", OSError(errno.EROFS, "Read-only file system"))
        with pytest.raises(OSError, match="I/O error"):
            wal.append(ticks[1])
        self.assert_damaged(wal, ticks[2], errno.EROFS)
        assert wal.batches_appended == 1
        position = wal.rotate(1)
        wal.append(ticks[3])
        wal.close()
        tail = read_tail(tmp_path, position)
        assert [record.submissions[0][0] for record in tail.records] == ["cam-3"]

    def test_a_failed_fsync_behind_unsynced_appends_refuses_appends_until_rotate(
        self, tmp_path, monkeypatch
    ):
        # At fsync_every=3 the third append syncs the two before it too.
        # After a failed fsync the OS may have dropped their pages, and a
        # later fsync that succeeds would not say so.
        ticks = self.ticks(4, seed=24)
        wal = WriteAheadLog(tmp_path, fsync_every=3)
        wal.open(0)
        wal.append(ticks[0])
        wal.append(ticks[1])
        self.fail_next(monkeypatch, "fsync", OSError(errno.EIO, "I/O error"))
        with pytest.raises(OSError, match="I/O error"):
            wal.append(ticks[2])
        # The refused record itself is gone; the two before it stay.
        records, torn = read_segment(wal.directory / "wal-000000-0000.log")
        assert ([r.submissions[0][0] for r in records], torn) == (["cam-0", "cam-1"], 0)
        self.assert_damaged(wal, ticks[2], errno.EIO)
        with pytest.raises(WalDamagedError):
            wal.append_flush(4)
        assert (wal.batches_appended, wal.fsyncs) == (2, 0)
        position = wal.rotate(1)
        wal.append(ticks[3])
        wal.close()
        tail = read_tail(tmp_path, position)
        assert [record.submissions[0][0] for record in tail.records] == ["cam-3"]
