"""Crash-replay determinism: the property tests of the durability plane.

The contract under test: a durable runtime killed at *any* record boundary —
including a torn, partially-written WAL record — recovers to a state from
which replaying the remaining traffic produces detections and model-version
swaps **bitwise-identical** to the uninterrupted oracle run.

Three layers of evidence:

* an exhaustive in-process sweep that snapshots the durability directory
  after every single record and recovers from each snapshot;
* torn-write variants that truncate / corrupt the newest WAL segment
  mid-record (the CRC must detect and drop exactly the damaged record);
* a subprocess that fits, ingests and then SIGKILLs itself (no drain, no
  close, WAL left open) — the real crash, not a simulation of one.

Streams first seen in the WAL tail are placed against the route counts the
checkpoint's routes rebuild, and land where the live run put them.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from durability_workload import (
    TOTAL_RECORDS,
    build_config,
    run_oracle,
    snapshot_outcome,
    start_runtime,
    training_features,
    workload_records,
)
from repro import Runtime
from repro.durability.checkpoints import unpack_state
from repro.durability.wal import list_segments, read_segment
from repro.nn.serialization import load_state


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """The uninterrupted run's outcome (and a sanity check of the workload)."""
    outcome = run_oracle(tmp_path_factory.mktemp("oracle") / "dur")
    # The workload must exercise the full loop: detections on every stream
    # AND at least one drift-triggered publish, so recovery is proven to
    # reproduce version swaps, not just scores.
    assert outcome["model_version"] >= 2, "workload produced no drift publish"
    assert outcome["update_reports"] >= 1
    assert all(len(rows) > 0 for rows in outcome["detections"].values())
    return outcome


@pytest.fixture(scope="module")
def boundary_snapshots(tmp_path_factory):
    """One copy of the durability directory after every ingested record.

    ``snapshots[k]`` is the on-disk state a SIGKILL immediately after record
    ``k`` would leave behind (fsync_every=1: every append is durable before
    it is scored).  Taken from a single live run — the copies see exactly
    the bytes a crashed process would.
    """
    base = tmp_path_factory.mktemp("sweep")
    root = base / "live"
    runtime = start_runtime(root)
    snapshots = {0: base / "snap-000"}
    shutil.copytree(root, snapshots[0])
    for index, record in enumerate(workload_records(), start=1):
        runtime.ingest(*record)
        snapshots[index] = base / f"snap-{index:03d}"
        shutil.copytree(root, snapshots[index])
    runtime.close()
    return snapshots


def recover_and_finish(snapshot: Path, resume_from: int):
    """Recover from a snapshot, replay the remaining records, drain.

    Works on a private copy: the recovered runtime keeps auto-checkpointing
    while it catches up, and that must not mutate a snapshot shared with
    other tests.
    """
    workdir = Path(tempfile.mkdtemp(prefix="recover-")) / "dur"
    shutil.copytree(snapshot, workdir)
    try:
        recovered = Runtime.recover(workdir)
        for record in workload_records()[resume_from:]:
            recovered.ingest(*record)
        recovered.drain()
        outcome = snapshot_outcome(recovered)
        replayed = recovered._replayed_records
        torn = recovered._replayed_torn
        recovered.close()
        return outcome, replayed, torn
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)


def assert_matches_oracle(outcome, oracle, *, context):
    assert outcome["model_version"] == oracle["model_version"], context
    assert outcome["anomaly_threshold"] == oracle["anomaly_threshold"], context
    # Update *reports*, like detections, are reporting rather than persisted
    # state: a publish that happened before the restore checkpoint is in the
    # restored model (model_version above proves it) but is not re-reported.
    assert outcome["update_reports"] <= oracle["update_reports"], context
    for stream, rows in oracle["detections"].items():
        recovered_rows = outcome["detections"][stream]
        # The recovered runtime only *reports* detections produced after the
        # restore point (reporting is not persisted state), so its rows are
        # a suffix of the oracle's — and that suffix must match bitwise:
        # same segments, same float scores, same decisions, same serving
        # model version for every one.
        assert len(recovered_rows) <= len(rows), context
        assert rows[len(rows) - len(recovered_rows) :] == recovered_rows, (
            f"{context}: stream {stream} diverged"
        )


class TestBoundarySweep:
    def test_recovery_from_every_record_boundary_matches_oracle(
        self, boundary_snapshots, oracle
    ):
        for k in range(TOTAL_RECORDS + 1):
            outcome, _, torn = recover_and_finish(boundary_snapshots[k], k)
            assert torn == 0, f"boundary {k}: clean snapshot reported torn records"
            assert_matches_oracle(outcome, oracle, context=f"boundary {k}")

    def test_replay_counts_account_for_every_post_checkpoint_record(
        self, boundary_snapshots
    ):
        # At boundary k the WAL tail holds exactly the records since the
        # last auto-checkpoint: k mod 10 under the every-10-records policy
        # (the initial full checkpoint is record 0's rotation point).
        for k in (0, 1, 9, 10, 11, 25, TOTAL_RECORDS):
            # Copy first: recover() opens a fresh WAL segment in the
            # directory, which would mutate the shared snapshot.
            workdir = Path(tempfile.mkdtemp(prefix="replay-count-")) / "dur"
            shutil.copytree(boundary_snapshots[k], workdir)
            try:
                recovered = Runtime.recover(workdir)
                assert recovered._replayed_records == k % 10, f"boundary {k}"
                recovered.close()
            finally:
                shutil.rmtree(workdir.parent, ignore_errors=True)


class TestTornWrites:
    def tearable(self, snapshots):
        """Boundaries whose newest WAL segment holds at least one record."""
        out = []
        for k in range(1, TOTAL_RECORDS + 1):
            position, path = list_segments(snapshots[k] / "wal")[-1]
            records, _ = read_segment(path)
            if records:
                out.append((k, path, len(records)))
        return out

    def test_truncated_tail_record_is_dropped_and_replay_matches(
        self, boundary_snapshots, oracle, tmp_path
    ):
        # Tear the newest record in half at a spread of boundaries: recovery
        # must land exactly one record earlier, and re-feeding from there
        # (the un-acked submission is re-sent, as a real client would)
        # reproduces the oracle bitwise.
        tearable = self.tearable(boundary_snapshots)
        assert len(tearable) >= TOTAL_RECORDS // 2
        for k, segment, _ in tearable[:: max(1, len(tearable) // 8)]:
            torn_root = tmp_path / f"torn-{k:03d}"
            shutil.copytree(boundary_snapshots[k], torn_root)
            torn_segment = torn_root / "wal" / segment.name
            data = torn_segment.read_bytes()
            torn_segment.write_bytes(data[:-3])  # mid-record tear
            outcome, _, torn = recover_and_finish(torn_root, k - 1)
            assert torn == 1, f"boundary {k}: tear not detected"
            assert_matches_oracle(outcome, oracle, context=f"torn boundary {k}")

    def test_corrupted_payload_is_dropped_by_crc(
        self, boundary_snapshots, oracle, tmp_path
    ):
        k, segment, _ = self.tearable(boundary_snapshots)[-1]
        torn_root = tmp_path / "crc"
        shutil.copytree(boundary_snapshots[k], torn_root)
        torn_segment = torn_root / "wal" / segment.name
        data = bytearray(torn_segment.read_bytes())
        data[-2] ^= 0xFF  # flip a byte inside the final record's payload
        torn_segment.write_bytes(bytes(data))
        outcome, _, torn = recover_and_finish(torn_root, k - 1)
        assert torn == 1
        assert_matches_oracle(outcome, oracle, context=f"crc boundary {k}")


def write_format_3(path: Path, arrays, metadata) -> None:
    """An ``.npz`` as format 3 wrote it: zlib-compressed entries."""
    blob = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays, __metadata__=blob)


def downgrade_to_format_3(root: Path) -> None:
    """Rewrite every checkpoint under ``root`` byte-for-byte the way format 3
    laid it out: compressed archives, and ``state.npz`` with one ``a<N>``
    entry per array leaf named by a string marker."""
    for directory in sorted((root / "checkpoints").iterdir()):
        manifest_path = directory / "runtime.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format"] = 3
        manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        for weights_path in directory.glob("version_*.npz"):
            write_format_3(weights_path, *load_state(weights_path))
        arrays, metadata = load_state(directory / "state.npz")
        leaves = {}

        def mark(value):
            if isinstance(value, np.ndarray):
                leaves[f"a{len(leaves)}"] = value
                return {"__ndarray__": f"a{len(leaves) - 1}"}
            if isinstance(value, dict):
                return {key: mark(item) for key, item in value.items()}
            if isinstance(value, list):
                return [mark(item) for item in value]
            return value

        structure = mark(unpack_state(metadata, arrays))
        write_format_3(directory / "state.npz", leaves, {"state": structure})


class TestFormat3Store:
    def test_format_3_store_recovers_and_chains_format_4_deltas(
        self, boundary_snapshots, oracle, tmp_path
    ):
        """A store written before state buffers (killed after record 13, its
        two checkpoints in format 3) recovers bitwise; the recovered runtime
        chains a format-4 delta onto the format-3 parent, and a second crash
        on that mixed chain recovers bitwise too."""
        root = tmp_path / "old"
        shutil.copytree(boundary_snapshots[13], root)
        downgrade_to_format_3(root)
        with np.load(root / "checkpoints" / "ckpt-000002" / "state.npz") as archive:
            assert len(archive.files) > 10 and "a0" in archive.files

        recovered = Runtime.recover(root)
        assert recovered._replayed_records == 3
        records = workload_records()
        for record in records[13:25]:
            recovered.ingest(*record)
        # The tenth ingest after recovery (record 23) fired the
        # every-10-records rule: a format-4 delta whose parent (and reused
        # weight files) are format 3.
        latest = json.loads((root / "checkpoints" / "ckpt-000003" / "runtime.json").read_text())
        parent = json.loads((root / "checkpoints" / latest["parent"] / "runtime.json").read_text())
        assert (latest["format"], latest["kind"], parent["format"]) == (4, "delta", 3)
        crashed_again = tmp_path / "mixed"
        shutil.copytree(root, crashed_again)

        for record in records[25:]:
            recovered.ingest(*record)
        recovered.drain()
        outcome = snapshot_outcome(recovered)
        recovered.close()
        assert_matches_oracle(outcome, oracle, context="format-3 store")

        outcome, replayed, torn = recover_and_finish(crashed_again, 25)
        assert (replayed, torn) == (2, 0)
        assert_matches_oracle(outcome, oracle, context="format-3 parent, format-4 delta")


class TestMissingWal:
    def test_missing_tail_fails_loudly_and_replay_wal_false_opts_out(
        self, boundary_snapshots, tmp_path
    ):
        root = tmp_path / "no-wal"
        shutil.copytree(boundary_snapshots[15], root)
        shutil.rmtree(root / "wal")
        with pytest.raises(RuntimeError, match="replay_wal=False"):
            Runtime.recover(root)
        accepted = Runtime.recover(root, replay_wal=False)
        assert accepted._replayed_records == 0
        accepted.close()


class TestSigkillSubprocess:
    @pytest.mark.parametrize("kill_after", [4, 13, 30])
    def test_sigkilled_process_resumes_bitwise(self, kill_after, oracle, tmp_path):
        root = tmp_path / "victim"
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH", "")) if part
        )
        process = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).with_name("durability_workload.py")),
                str(root),
                str(kill_after),
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
        )
        assert process.returncode == -signal.SIGKILL, (
            f"victim should die by SIGKILL, got rc={process.returncode}\n"
            f"stderr: {process.stderr}"
        )
        assert root.is_dir(), "victim died before creating the durability root"
        outcome, replayed, torn = recover_and_finish(root, kill_after)
        assert torn == 0  # fsync_every=1: every acked record is whole
        assert replayed == kill_after % 10
        assert_matches_oracle(
            outcome, oracle, context=f"sigkill after {kill_after} records"
        )


def placement_ticks():
    """Three streams, then four more that first appear after tick 6 — the
    tick the test below cuts its checkpoint at."""
    features = training_features()
    rng = np.random.default_rng(77)
    ticks = []
    for position in range(16):
        names = [f"old-{k}" for k in range(3)]
        if position >= 6:
            names += [f"new-{k}" for k in range(4)]
        ticks.append(
            [
                (
                    name,
                    rng.random(features.action_dim),
                    rng.random(features.interaction_dim),
                    float(rng.random()),
                )
                for name in names
            ]
        )
    return ticks


class TestPlacementRecovery:
    def test_streams_first_seen_after_the_checkpoint_recover_to_their_shards(
        self, tmp_path
    ):
        """A new stream goes to the shard with the fewest pinned routes, so
        recovery must rebuild the counts from the checkpoint's routes: the
        WAL tail then places the streams it introduces exactly as the live
        run did, and everything after the crash is bitwise equal."""
        ticks = placement_ticks()
        root = tmp_path / "live"
        live = Runtime.from_config(
            build_config(root, checkpoint_every_records=None)
        ).fit(training_features())
        for tick in ticks[:6]:
            live.ingest_many(tick)
        live.checkpoint()
        for tick in ticks[6:10]:
            live.ingest_many(tick)
        shutil.copytree(root, tmp_path / "crashed")

        recovered = Runtime.recover(tmp_path / "crashed")
        assert recovered._replayed_records == sum(map(len, ticks[6:10]))
        names = [name for name, *_ in ticks[-1]]
        placed = [live.service.shard_index(name) for name in names]
        # Three old streams leave counts (2, 1); the new ones level them.
        assert placed == [0, 1, 0, 1, 0, 1, 0]
        assert [recovered.service.shard_index(name) for name in names] == placed
        for tick in ticks[10:]:
            assert recovered.ingest_many(tick) == live.ingest_many(tick)
        assert recovered.drain() == live.drain()
        for name in names:
            rows, oracle = recovered.detections(name), live.detections(name)
            assert rows and oracle[len(oracle) - len(rows) :] == rows, name
        recovered.close()
        live.close()
