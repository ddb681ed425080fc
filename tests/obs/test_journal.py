"""The event journal: crash-safe appends, env gating, and observe-only.

Two contracts matter.  Mechanically, the journal must be a durable
JSONL stream — one atomic line per event, readable while half-written,
tolerant of a damaged tail, followable from a second process.
Scientifically, it must be *observe-only*: the ISSUE's differential bar
is that serial and cluster runs with the journal on produce
``SweepResult``s, WAR tables and shard-cache bytes bit-identical to the
same runs with it off.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments.acceptance import SweepConfig
from repro.experiments.weighted import weighted_acceptance_ratio
from repro.obs.journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalFollower,
    active_journal,
    journal_env,
    open_journal,
    read_events,
)
from repro.runner import create_store, registered_backends, run_sweep

CONFIG = SweepConfig(label="journal-test", m=2, samples_per_bucket=3)
ALGOS = ("cu-udp-edf-vd", "ca-nosort-f-f-edf-vd")


@pytest.fixture(autouse=True)
def _no_ambient_journal(monkeypatch):
    monkeypatch.delenv("REPRO_OBS_JOURNAL", raising=False)


class TestJournalWriter:
    def test_one_line_per_event_with_clock_fields(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.emit("alpha", key="k1")
        journal.emit("beta", value=2)
        journal.close()
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["ev"] == "alpha" and first["key"] == "k1"
        assert second["ev"] == "beta" and second["value"] == 2
        for event in (first, second):
            assert event["pid"] == os.getpid()
            assert isinstance(event["ts"], float)
            assert isinstance(event["mono"], float)
        assert first["mono"] <= second["mono"]

    def test_open_journal_stamps_schema_header(self, tmp_path):
        journal = open_journal(tmp_path / "j.jsonl", campaign="c1")
        journal.close()
        events = read_events(tmp_path / "j.jsonl")
        assert events[0]["ev"] == "open"
        assert events[0]["schema"] == JOURNAL_SCHEMA
        assert events[0]["campaign"] == "c1"

    def test_appends_never_truncate(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = Journal(path)
        first.emit("one")
        first.close()
        second = Journal(path)
        second.emit("two")
        second.close()
        assert [e["ev"] for e in read_events(path)] == ["one", "two"]

    def test_creates_parent_directories(self, tmp_path):
        journal = Journal(tmp_path / "deep" / "nested" / "j.jsonl")
        journal.emit("here")
        journal.close()
        assert read_events(tmp_path / "deep" / "nested" / "j.jsonl")


class TestEnvGating:
    def test_off_by_default(self):
        assert active_journal() is None

    def test_env_knob_activates(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(path))
        journal = active_journal()
        assert journal is not None and journal.path == path
        # same env -> same cached instance; changed env -> re-resolved
        assert active_journal() is journal
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(tmp_path / "other.jsonl"))
        assert active_journal().path == tmp_path / "other.jsonl"
        monkeypatch.delenv("REPRO_OBS_JOURNAL")
        assert active_journal() is None

    def test_journal_env_sets_and_restores(self, tmp_path):
        path = tmp_path / "j.jsonl"
        assert "REPRO_OBS_JOURNAL" not in os.environ
        with journal_env(path) as journal:
            assert os.environ["REPRO_OBS_JOURNAL"] == str(path)
            assert journal is not None and journal.path == path
            # workers resolve the same file from the inherited env
            assert active_journal().path == path
        assert "REPRO_OBS_JOURNAL" not in os.environ

    def test_journal_env_none_leaves_ambient(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(tmp_path / "ambient.jsonl"))
        with journal_env(None) as journal:
            assert journal.path == tmp_path / "ambient.jsonl"
        with journal_env(tmp_path / "explicit.jsonl") as journal:
            assert journal.path == tmp_path / "explicit.jsonl"
        assert os.environ["REPRO_OBS_JOURNAL"] == str(tmp_path / "ambient.jsonl")


class TestReader:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_events(tmp_path / "absent.jsonl")

    def test_damaged_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"ev":"good","mono":1.0}\n'
            "{torn json\n"
            "[1, 2, 3]\n"
            "\n"
            '{"ev":"also-good","mono":2.0}\n'
            '{"ev":"truncated-tail"'
        )
        assert [e["ev"] for e in read_events(path)] == ["good", "also-good"]

    def test_follower_yields_each_event_exactly_once(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        follower = JournalFollower(path)
        assert follower.poll() == []  # no file yet
        journal.emit("one")
        journal.emit("two")
        assert [e["ev"] for e in follower.poll()] == ["one", "two"]
        assert follower.poll() == []
        journal.emit("three")
        assert [e["ev"] for e in follower.poll()] == ["three"]
        journal.close()

    def test_follower_holds_back_partial_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w") as handle:
            handle.write('{"ev":"whole"}\n{"ev":"par')
        follower = JournalFollower(path)
        assert [e["ev"] for e in follower.poll()] == ["whole"]
        with open(path, "a") as handle:
            handle.write('tial"}\n')
        assert [e["ev"] for e in follower.poll()] == ["partial"]


# -- the differential bar ---------------------------------------------------------
def war_table(result) -> dict[str, float]:
    return {
        name: weighted_acceptance_ratio(result.buckets, series)
        for name, series in result.ratios.items()
    }


def blob_map(store) -> dict[str, bytes]:
    root = Path(store.root)
    return {p.stem: p.read_bytes() for p in sorted(root.rglob("*.json"))}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Journal-off serial ground truth: result, WAR table, shard bytes."""
    store = create_store("fs", tmp_path_factory.mktemp("journal-ref"))
    result = run_sweep(CONFIG, ALGOS, cache=store)
    return result, war_table(result), blob_map(store)


class TestObserveOnly:
    @pytest.mark.parametrize("backend", registered_backends())
    def test_journal_on_is_bit_identical(
        self, backend, reference, tmp_path, monkeypatch
    ):
        path = tmp_path / "journal.jsonl"
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(path))
        store = create_store("fs", tmp_path / "store")
        result = run_sweep(CONFIG, ALGOS, jobs=2, cache=store, backend=backend)
        expected, expected_war, expected_blobs = reference
        assert result == expected
        assert war_table(result) == expected_war
        assert blob_map(store) == expected_blobs
        # ... and the journal really was written while we ran
        events = read_events(path)
        kinds = {e["ev"] for e in events}
        assert {"sweep-start", "exec-start", "exec-done", "done",
                "sweep-done"} <= kinds
        done = [e for e in events if e["ev"] == "done"]
        assert len(done) == len({e["key"] for e in done}) > 0

    def test_worker_processes_write_the_same_file(self, tmp_path, monkeypatch):
        """Cluster workers journal their claims/executions themselves."""
        path = tmp_path / "journal.jsonl"
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(path))
        run_sweep(CONFIG, ALGOS, jobs=2, backend="cluster")
        events = read_events(path)
        conductor = os.getpid()
        claim_pids = {e["pid"] for e in events if e["ev"] == "claim"}
        assert claim_pids and conductor not in claim_pids
        assert {e["ev"] for e in events} >= {"claim", "exec-done", "heartbeat"}
