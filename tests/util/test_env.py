"""Validated env-knob parsing (REPRO_SAMPLES / REPRO_M and subsystem knobs)."""

import pytest

from repro.util.env import (
    OBS_MODES,
    RUNNER_BACKENDS,
    heartbeat_interval_from_env,
    journal_flush_interval_from_env,
    journal_path_from_env,
    lease_timeout_from_env,
    m_values_from_env,
    straggler_factor_from_env,
    obs_mode_from_env,
    positive_float_env,
    positive_int_env,
    runner_backend_from_env,
    samples_from_env,
)


class TestPositiveIntEnv:
    def test_fallback_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLES", raising=False)
        assert positive_int_env("REPRO_SAMPLES", 42) == 42

    def test_parses_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLES", "1000")
        assert samples_from_env() == 1000

    @pytest.mark.parametrize("bad", ["0", "-3", "ten", "3.5"])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SAMPLES", bad)
        with pytest.raises(ValueError, match="REPRO_SAMPLES"):
            samples_from_env()


class TestObsMode:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert obs_mode_from_env() == "off"

    @pytest.mark.parametrize("mode", OBS_MODES)
    def test_parses_every_mode(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_OBS", mode)
        assert obs_mode_from_env() == mode

    @pytest.mark.parametrize("bad", ["on", "TRACE", "metrics,trace", "1"])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_OBS", bad)
        with pytest.raises(ValueError, match="REPRO_OBS"):
            obs_mode_from_env()


class TestRunnerBackendKnob:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_BACKEND", raising=False)
        assert runner_backend_from_env() == ""

    @pytest.mark.parametrize("name", RUNNER_BACKENDS)
    def test_parses_every_backend(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", name)
        assert runner_backend_from_env() == name

    @pytest.mark.parametrize("bad", ["threads", "pool", "POOL", "serial,pool", "1"])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", bad)
        with pytest.raises(ValueError, match="REPRO_RUNNER_BACKEND"):
            runner_backend_from_env()


class TestClusterTimingKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_HEARTBEAT", raising=False)
        monkeypatch.delenv("REPRO_RUNNER_LEASE", raising=False)
        assert heartbeat_interval_from_env() == 2.0
        assert lease_timeout_from_env() == 300.0

    def test_parses_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_HEARTBEAT", "0.5")
        monkeypatch.setenv("REPRO_RUNNER_LEASE", "30")
        assert heartbeat_interval_from_env() == 0.5
        assert lease_timeout_from_env() == 30.0

    @pytest.mark.parametrize("knob,reader", [
        ("REPRO_RUNNER_HEARTBEAT", heartbeat_interval_from_env),
        ("REPRO_RUNNER_LEASE", lease_timeout_from_env),
    ])
    @pytest.mark.parametrize("bad", ["0", "-1.5", "soon"])
    def test_rejects_invalid(self, monkeypatch, knob, reader, bad):
        monkeypatch.setenv(knob, bad)
        with pytest.raises(ValueError, match=knob):
            reader()


class TestJournalKnobs:
    def test_journal_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_JOURNAL", raising=False)
        assert journal_path_from_env() == ""
        assert journal_path_from_env("fallback.jsonl") == "fallback.jsonl"

    def test_journal_path_parses(self, monkeypatch, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        monkeypatch.setenv("REPRO_OBS_JOURNAL", path)
        assert journal_path_from_env() == path

    @pytest.mark.parametrize("bad", [" padded.jsonl", "trailing.jsonl ", "  "])
    def test_journal_rejects_malformed_paths(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_OBS_JOURNAL", bad)
        with pytest.raises(ValueError, match="REPRO_OBS_JOURNAL"):
            journal_path_from_env()

    def test_journal_rejects_directories(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_JOURNAL", str(tmp_path))
        with pytest.raises(ValueError, match="REPRO_OBS_JOURNAL"):
            journal_path_from_env()

    def test_flush_interval_default_and_parse(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_JOURNAL_FLUSH", raising=False)
        assert journal_flush_interval_from_env() == 2.0
        monkeypatch.setenv("REPRO_OBS_JOURNAL_FLUSH", "0.25")
        assert journal_flush_interval_from_env() == 0.25

    @pytest.mark.parametrize("bad", ["0", "-2", "often"])
    def test_flush_interval_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_OBS_JOURNAL_FLUSH", bad)
        with pytest.raises(ValueError, match="REPRO_OBS_JOURNAL_FLUSH"):
            journal_flush_interval_from_env()

    def test_straggler_factor_default_and_parse(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_STRAGGLER", raising=False)
        assert straggler_factor_from_env() == 4.0
        monkeypatch.setenv("REPRO_OBS_STRAGGLER", "2.5")
        assert straggler_factor_from_env() == 2.5
        monkeypatch.setenv("REPRO_OBS_STRAGGLER", "1")
        assert straggler_factor_from_env() == 1.0

    @pytest.mark.parametrize("bad", ["0", "-4", "0.5", "0.999", "lots"])
    def test_straggler_factor_rejects_invalid(self, monkeypatch, bad):
        """Below 1 would flag faster-than-typical units — always a typo."""
        monkeypatch.setenv("REPRO_OBS_STRAGGLER", bad)
        with pytest.raises(ValueError, match="REPRO_OBS_STRAGGLER"):
            straggler_factor_from_env()


class TestPositiveFloatEnv:
    def test_fallback_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER_LEASE", raising=False)
        assert positive_float_env("REPRO_RUNNER_LEASE", 1.25) == 1.25

    def test_accepts_scientific_notation(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER_LEASE", "1e2")
        assert positive_float_env("REPRO_RUNNER_LEASE", 1.0) == 100.0


class TestMValues:
    def test_fallback_is_paper_sweep(self, monkeypatch):
        monkeypatch.delenv("REPRO_M", raising=False)
        assert m_values_from_env() == (2, 4, 8)

    def test_parses_csv_with_spaces(self, monkeypatch):
        monkeypatch.setenv("REPRO_M", "2, 4")
        assert m_values_from_env() == (2, 4)

    @pytest.mark.parametrize("bad", ["0", "2,-4", "two", ","])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_M", bad)
        with pytest.raises(ValueError, match="REPRO_M"):
            m_values_from_env()



#: One valid, non-default setting per knob parser: ``{parser: (var, raw)}``.
KNOB_SETTINGS = {
    "samples_from_env": ("REPRO_SAMPLES", "7"),
    "m_values_from_env": ("REPRO_M", "3,5"),
    "obs_mode_from_env": ("REPRO_OBS", "metrics"),
    "journal_path_from_env": ("REPRO_OBS_JOURNAL", "events.jsonl"),
    "journal_flush_interval_from_env": ("REPRO_OBS_JOURNAL_FLUSH", "0.5"),
    "straggler_factor_from_env": ("REPRO_OBS_STRAGGLER", "2.5"),
    "runner_backend_from_env": ("REPRO_RUNNER_BACKEND", "cluster"),
    "heartbeat_interval_from_env": ("REPRO_RUNNER_HEARTBEAT", "0.75"),
    "lease_timeout_from_env": ("REPRO_RUNNER_LEASE", "42.0"),
    "fault_spec_from_env": ("REPRO_RUNNER_FAULT", "crash:rate=0.3"),
}


def knob_parsers() -> dict:
    """Every ``*_from_env`` parser of :mod:`repro.util.env`, plus the
    fault-injection spec the cluster workers read."""
    from repro.runner import faults
    from repro.util import env

    parsers = {
        name: getattr(env, name)
        for name in env.__all__
        if name.endswith("_from_env")
    }
    parsers["fault_spec_from_env"] = faults.fault_spec_from_env
    return parsers


def _parse_knobs_in_child(conn) -> None:
    conn.send({name: parse() for name, parse in knob_parsers().items()})
    conn.close()


class TestKnobsResolveIdenticallyInWorkers:
    """No knob is snapshotted per process: a setting made after import
    is what both the parent and a cluster worker process read."""

    def test_every_parser_has_a_setting(self):
        assert set(knob_parsers()) == set(KNOB_SETTINGS)

    def test_parent_and_worker_agree(self, monkeypatch):
        from repro.runner.cluster import _mp_context

        for var, _ in KNOB_SETTINGS.values():
            monkeypatch.delenv(var, raising=False)
        defaults = {name: parse() for name, parse in knob_parsers().items()}
        for var, raw in KNOB_SETTINGS.values():
            monkeypatch.setenv(var, raw)
        parent = {name: parse() for name, parse in knob_parsers().items()}
        assert all(parent[name] != defaults[name] for name in parent)

        ctx = _mp_context()
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_parse_knobs_in_child, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "worker process sent nothing"
            worker = receiver.recv()
        finally:
            child.join(timeout=60)
        assert child.exitcode == 0
        assert worker == parent
