"""Crash-safe persistence: round-trips under damage, strict and not."""

import json
import os

import pytest

from repro.core.persistence import (
    DEFAULT_BACKUPS,
    SNAPSHOT_KIND,
    STATE_VERSION,
    atomic_write_text,
    backup_path,
    dumps_predictor,
    encode_artifact,
    load_predictor,
    loads_predictor,
    predictor_to_state,
    save_predictor,
)
from repro.exceptions import PersistenceError
from repro.resilience import bit_flip, torn_copy
from tests.resilience.helpers import cold_predictor, small_predictor


@pytest.fixture()
def predictor():
    return small_predictor()


@pytest.fixture()
def saved(predictor, tmp_path):
    return save_predictor(predictor, tmp_path / "state.json")


class TestAtomicWrite:
    def test_no_temp_file_left_behind(self, predictor, tmp_path):
        path = save_predictor(predictor, tmp_path / "state.json")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_rewrite_rotates_previous_generation(self, predictor, tmp_path):
        path = save_predictor(predictor, tmp_path / "state.json")
        first = path.read_text()
        predictor.insert([0.5, 0.5], 0, cost=1.0)
        save_predictor(predictor, path)
        assert backup_path(path, 1).read_text() == first
        assert path.read_text() != first

    def test_backup_chain_rotates_oldest_out(self, predictor, tmp_path):
        path = tmp_path / "state.json"
        contents = []
        for round_index in range(4):
            predictor.insert([0.5, 0.5], 0, cost=float(round_index))
            save_predictor(predictor, path, backups=2)
            contents.append(path.read_text())
        # Newest backup is generation 1, older is generation 2; the
        # first write's content has been rotated out entirely.
        assert backup_path(path, 1).read_text() == contents[2]
        assert backup_path(path, 2).read_text() == contents[1]
        assert not backup_path(path, 3).exists()

    def test_backups_zero_keeps_no_chain(self, predictor, tmp_path):
        path = tmp_path / "state.json"
        save_predictor(predictor, path, backups=0)
        save_predictor(predictor, path, backups=0)
        assert not backup_path(path, 1).exists()

    def test_negative_backups_rejected(self, predictor, tmp_path):
        with pytest.raises(PersistenceError):
            save_predictor(predictor, tmp_path / "s.json", backups=-1)

    def test_atomic_write_text_replaces_not_appends(self, tmp_path):
        path = tmp_path / "doc.txt"
        atomic_write_text(path, "long initial contents")
        atomic_write_text(path, "short")
        assert path.read_text() == "short"


class TestDocumentFormat:
    def test_envelope_carries_version_and_checksum(self, predictor):
        header, state = dumps_predictor(predictor).splitlines()
        header = json.loads(header)
        assert header["artifact"] == "predictor-snapshot"
        assert header["version"] == STATE_VERSION == 3
        assert isinstance(header["crc"], int)
        assert isinstance(json.loads(state)["crc"], int)

    def test_loads_round_trip(self, predictor):
        restored = loads_predictor(dumps_predictor(predictor))
        assert restored.total_points == predictor.total_points


class TestCorruptionStrict:
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 0.99])
    def test_truncation_detected(self, saved, fraction):
        saved.write_text(torn_copy(saved.read_text(), fraction))
        with pytest.raises(PersistenceError):
            load_predictor(saved)

    @pytest.mark.parametrize("position", [100, 1000, 5000])
    def test_bit_flip_detected(self, saved, position):
        saved.write_text(bit_flip(saved.read_text(), position))
        with pytest.raises(PersistenceError):
            load_predictor(saved)

    def test_version_mismatch_detected(self, predictor, saved):
        state = predictor_to_state(predictor)
        saved.write_text(encode_artifact(SNAPSHOT_KIND, 99, [state]))
        with pytest.raises(PersistenceError, match="version"):
            load_predictor(saved)

    def test_missing_file_raises_persistence_error(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_predictor(tmp_path / "nope.json")

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PersistenceError):
            load_predictor(path)

    def test_crafted_state_behind_valid_checksums_is_wrapped(
        self, predictor, tmp_path
    ):
        # A CRC is no proof against a crafted file: a state that checks
        # out but cannot rebuild a predictor is still a PersistenceError.
        state = predictor_to_state(predictor)
        del state["transforms"]
        path = tmp_path / "crafted.json"
        path.write_text(encode_artifact(SNAPSHOT_KIND, STATE_VERSION, [state]))
        with pytest.raises(PersistenceError, match="malformed"):
            load_predictor(path)

    @pytest.mark.parametrize("entry", ["loads_predictor", "load_predictor"])
    def test_a_cut_bucket_is_malformed_through_either_entry(
        self, predictor, tmp_path, entry
    ):
        # One bucket cut from four fields to three, re-stamped with
        # valid checksums: the in-memory and the file restore share one
        # restore step, so both report it as damage.
        state = predictor_to_state(predictor)
        histogram = next(
            h for row in state["histograms"] for h in row if h["buckets"]
        )
        assert len(histogram["buckets"][0]) == 4
        histogram["buckets"][0] = histogram["buckets"][0][:3]
        document = encode_artifact(SNAPSHOT_KIND, STATE_VERSION, [state])
        with pytest.raises(PersistenceError, match="malformed") as caught:
            if entry == "loads_predictor":
                loads_predictor(document)
            else:
                path = tmp_path / "cut.json"
                path.write_text(document)
                load_predictor(path)
        assert isinstance(caught.value.__cause__, ValueError)


class TestRecoveryNonStrict:
    def test_recovers_from_backup_generation(self, predictor, tmp_path):
        path = save_predictor(predictor, tmp_path / "state.json")
        before = predictor.total_points
        predictor.insert([0.5, 0.5], 0, cost=1.0)
        save_predictor(predictor, path)  # rotates the old file to .bak1
        path.write_text(torn_copy(path.read_text(), 0.4))
        restored = load_predictor(path, strict=False)
        assert restored.total_points == before

    def test_walks_past_corrupt_backup_to_older_one(
        self, predictor, tmp_path
    ):
        path = tmp_path / "state.json"
        before = predictor.total_points
        save_predictor(predictor, path, backups=2)
        predictor.insert([0.5, 0.5], 0, cost=1.0)
        save_predictor(predictor, path, backups=2)
        predictor.insert([0.5, 0.6], 0, cost=1.0)
        save_predictor(predictor, path, backups=2)
        path.write_text(torn_copy(path.read_text(), 0.3))
        bak1 = backup_path(path, 1)
        bak1.write_text(bit_flip(bak1.read_text(), 123))
        restored = load_predictor(path, strict=False)
        assert restored.total_points == before

    def test_falls_back_to_cold_predictor(self, saved):
        saved.write_text("{not json")
        cold = cold_predictor()
        restored = load_predictor(saved, strict=False, cold=cold)
        assert restored is cold

    def test_cold_factory_called_lazily(self, predictor, saved):
        calls = []

        def factory():
            calls.append(1)
            return cold_predictor()

        # Intact file: the factory must not run.
        restored = load_predictor(saved, strict=False, cold=factory)
        assert restored.total_points == predictor.total_points
        assert calls == []
        # Corrupt file, no backups: now it must.
        saved.write_text(torn_copy(saved.read_text(), 0.2))
        restored = load_predictor(saved, strict=False, cold=factory)
        assert calls == [1]
        assert restored.total_points == 0

    def test_non_strict_without_cold_reraises_primary_error(self, saved):
        saved.write_text(torn_copy(saved.read_text(), 0.5))
        with pytest.raises(PersistenceError):
            load_predictor(saved, strict=False)

    def test_recovered_cold_predictor_functions(self, saved):
        """The cold fallback is a working predictor, not a stub."""
        saved.write_text("")
        restored = load_predictor(
            saved, strict=False, cold=cold_predictor
        )
        assert restored.predict([0.5, 0.5]) is None  # cold = no samples
        restored.insert([0.2, 0.2], 0, cost=1.0)
        assert restored.total_points == 1


class TestCrashSimulation:
    def test_default_backups_survive_torn_overwrite(
        self, predictor, tmp_path
    ):
        """A crash mid-overwrite (simulated via a direct torn write)
        never loses the previous generation."""
        assert DEFAULT_BACKUPS >= 1
        path = save_predictor(predictor, tmp_path / "state.json")
        save_predictor(predictor, path)
        document = dumps_predictor(predictor)
        for fraction in (0.05, 0.35, 0.65, 0.95):
            path.write_text(document[: int(len(document) * fraction)])
            restored = load_predictor(path, strict=False)
            assert restored.total_points == predictor.total_points

    def test_predictions_identical_after_recovery(
        self, predictor, tmp_path
    ):
        import numpy as np

        path = save_predictor(predictor, tmp_path / "state.json")
        save_predictor(predictor, path)
        path.write_text(torn_copy(path.read_text(), 0.5))
        restored = load_predictor(path, strict=False)
        points = np.random.default_rng(5).uniform(0, 1, size=(100, 2))
        for a, b in zip(
            predictor.predict_batch(points), restored.predict_batch(points), strict=True
        ):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.plan_id == b.plan_id

    def test_fsync_failure_surfaces_as_persistence_error(
        self, predictor, tmp_path, monkeypatch
    ):
        def broken_fsync(fd):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(PersistenceError):
            save_predictor(predictor, tmp_path / "state.json")
