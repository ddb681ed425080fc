"""FsStore through its blob primitives: validate, quarantine, recompute.

``tests/runner/test_cache.py`` pins the shard-level behavior through
``shard_path``; this suite runs the corruption battery through the blob
primitives (``get``/``put``/``discard``) that ``load``/``store`` are
built on, plus the canonical layout and payload bytes.
"""

import json

import pytest

from repro.experiments.acceptance import SweepConfig
from repro.runner import (
    FsStore,
    create_store,
    decompose_sweep,
    execute_units,
    run_unit,
    unit_key,
)
from repro.runner.store import encode_outcome

CONFIG = SweepConfig(label="store-test", m=2, samples_per_bucket=2)
ALGOS = ("cu-udp-edf-vd",)


def make_unit(index: int = 4):
    return decompose_sweep(CONFIG, ALGOS)[index]


def blob_path(store, unit):
    """Where a unit's blob lives."""
    return store._blob_path(store.key(unit))


@pytest.fixture
def store(tmp_path):
    return create_store("fs", tmp_path)


class TestInterface:
    def test_create_store_builds_an_fs_store(self, tmp_path):
        store = create_store("fs", tmp_path)
        assert isinstance(store, FsStore)
        assert store.root == tmp_path

    @pytest.mark.parametrize("kind", ["s3", "object"])
    def test_create_store_rejects_unknown_kind(self, tmp_path, kind):
        with pytest.raises(ValueError, match="unknown shard store"):
            create_store(kind, tmp_path)

    def test_round_trip(self, store):
        unit = make_unit()
        outcome = run_unit(unit)
        store.store(unit, outcome)
        assert store.load(unit) == outcome
        assert (store.hits, store.misses, store.stored) == (1, 0, 1)

    def test_cold_store_misses(self, store):
        assert store.load(make_unit()) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_blob_primitives(self, store):
        key = unit_key(make_unit())
        assert store.get(key) is None
        store.put(key, "payload\n")
        assert store.get(key) == "payload\n"
        store.discard(key)
        assert store.get(key) is None
        store.discard(key)  # idempotent on absent blobs


class TestCorruption:
    """Damage quarantines as a miss and is recomputed."""

    def _primed(self, store):
        unit = make_unit()
        store.store(unit, run_unit(unit))
        return unit

    def test_garbage_bytes_rejected(self, store):
        unit = self._primed(store)
        blob_path(store, unit).write_text("not json at all {{{")
        assert store.load(unit) is None
        assert store.rejected == 1

    def test_truncated_write_rejected(self, store):
        unit = self._primed(store)
        path = blob_path(store, unit)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load(unit) is None
        assert store.rejected == 1

    def test_tampered_payload_rejected(self, store):
        unit = self._primed(store)
        path = blob_path(store, unit)
        data = json.loads(path.read_text())
        data["samples"] = -3
        path.write_text(json.dumps(data))
        assert store.load(unit) is None

    def test_key_mismatch_rejected(self, store):
        unit = self._primed(store)
        path = blob_path(store, unit)
        data = json.loads(path.read_text())
        data["key"] = "0" * 64
        path.write_text(json.dumps(data))
        assert store.load(unit) is None

    def test_corrupted_shard_is_recomputed_not_loaded(self, store):
        unit = self._primed(store)
        good = run_unit(unit)
        blob_path(store, unit).write_text('{"key": "wrong"}')
        outcomes = execute_units([unit], cache=store)
        assert outcomes == [good]
        assert store.load(unit) == good


class TestLayout:
    def test_two_level_fan_out(self, store):
        unit = make_unit()
        key = unit_key(unit)
        path = store.store(unit, run_unit(unit))
        assert path == store.root / key[:2] / f"{key}.json"
        assert path == store.shard_path(unit)

    def test_payload_bytes_are_the_canonical_encoding(self, store):
        for unit in decompose_sweep(CONFIG, ALGOS):
            outcome = run_unit(unit)
            path = store.store(unit, outcome)
            assert store.key(unit) == unit_key(unit)
            assert path.read_text() == encode_outcome(unit, outcome)

    def test_put_overwrites_atomically(self, store):
        store.put("deadbeef", "first\n")
        store.put("deadbeef", "second\n")
        assert store.get("deadbeef") == "second\n"
        # no temp file survives the rename
        assert [p.name for p in (store.root / "de").iterdir()] == ["deadbeef.json"]
