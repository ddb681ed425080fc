"""Recorders, span nesting, exporters and the module-level obs facade."""

import json

import pytest

from repro import obs
from repro.obs import (
    MetricsRecorder,
    MetricsRegistry,
    NullRecorder,
    TraceRecorder,
    chrome_trace,
    render_table,
    to_json,
    write_chrome_trace,
)


@pytest.fixture
def trace_recorder():
    """Install a fresh TraceRecorder on the global registry, then restore."""
    obs.clear()
    previous = obs.set_recorder(TraceRecorder(obs.REGISTRY))
    yield obs.get_recorder()
    obs.set_recorder(previous)
    obs.clear()


class TestModes:
    def test_default_recorder_modes(self):
        registry = MetricsRegistry()
        assert NullRecorder(registry).enabled is False
        assert MetricsRecorder(registry).enabled is True
        assert MetricsRecorder(registry).records_spans is False
        assert TraceRecorder(registry).records_spans is True

    def test_facade_mode_string(self):
        previous = obs.set_recorder(NullRecorder(obs.REGISTRY))
        try:
            assert obs.mode() == "off"
            obs.set_recorder(MetricsRecorder(obs.REGISTRY))
            assert obs.mode() == "metrics"
            obs.set_recorder(TraceRecorder(obs.REGISTRY))
            assert obs.mode() == "trace"
        finally:
            obs.set_recorder(previous)

    def test_set_recorder_returns_previous(self):
        first = obs.get_recorder()
        second = NullRecorder(obs.REGISTRY)
        assert obs.set_recorder(second) is first
        assert obs.set_recorder(first) is second


class TestSpans:
    def test_no_spans_without_tracing(self):
        previous = obs.set_recorder(NullRecorder(obs.REGISTRY))
        try:
            with obs.span("outer"):
                pass
            assert obs.spans() == []
        finally:
            obs.set_recorder(previous)

    def test_nesting_depth_and_parent(self, trace_recorder):
        with obs.span("outer", kind="a"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        records = {(r.name, r.depth, r.parent) for r in obs.spans()}
        assert ("outer", 0, None) in records
        assert ("inner", 1, "outer") in records
        assert len(obs.spans()) == 3

    def test_inner_closes_before_outer_and_nests_in_time(self, trace_recorder):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.spans()
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.start <= inner.start
        assert inner.start + inner.duration <= outer.start + outer.duration + 1e-9

    def test_span_recorded_on_exception(self, trace_recorder):
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("boom")
        assert [r.name for r in obs.spans()] == ["failing"]
        # the stack unwound: a new span is top-level again
        with obs.span("after"):
            pass
        assert obs.spans()[-1].depth == 0

    def test_name_is_positional_only(self):
        # attrs may freely use 'name' as a key
        with obs.span("s", name="attr-value"):
            pass


class TestPayloadTransport:
    def test_capture_and_absorb_roundtrip(self, trace_recorder):
        obs.REGISTRY.add("c", 2)
        obs.REGISTRY.observe("h", 1.5)
        with obs.span("unit"):
            pass
        payload = obs.capture_payload()
        obs.clear()
        assert obs.spans() == []
        # only zeroed counter-scope keys remain after a clear
        assert all(v == 0 for v in obs.REGISTRY.counters().values())
        obs.absorb_payload(payload)
        assert obs.REGISTRY.counters()["c"] == 2
        assert obs.REGISTRY.histogram("h").count == 1
        assert [r.name for r in obs.spans()] == ["unit"]

    def test_absorb_none_is_noop(self):
        obs.absorb_payload(None)
        obs.absorb_payload({})


class TestExporters:
    def test_to_json_shape(self, trace_recorder):
        obs.REGISTRY.add("b", 1)
        obs.REGISTRY.add("a", 2)
        obs.REGISTRY.set_gauge("g", 0.25)
        obs.REGISTRY.observe("h", 2.0)
        with obs.span("s"):
            pass
        doc = to_json(obs.REGISTRY, obs.spans(), mode=obs.mode())
        assert doc["schema"].startswith("repro-obs-snapshot/")
        assert doc["mode"] == "trace"
        assert list(doc["counters"])[0] == "a"  # sorted
        assert doc["gauges"] == {"g": 0.25}
        assert doc["histograms"]["h"]["count"] == 1
        assert doc["spans"] == {"count": 1, "by_name": {"s": 1}}
        json.dumps(doc)  # must be serializable as-is

    def test_render_table_sections(self, trace_recorder):
        obs.REGISTRY.add("some.counter", 3)
        obs.REGISTRY.set_gauge("util", 0.5)
        obs.REGISTRY.observe("lat", 1.0)
        with obs.span("work"):
            pass
        text = render_table(obs.REGISTRY, obs.spans())
        for needle in (
            "obs counters",
            "obs gauges",
            "obs histograms",
            "obs spans",
            "some.counter",
            "util",
            "lat",
            "work",
        ):
            assert needle in text

    def test_render_table_empty(self):
        assert render_table(MetricsRegistry()) == ""

    def test_chrome_trace_events(self, trace_recorder, tmp_path):
        with obs.span("outer", bucket=0.5):
            with obs.span("inner"):
                pass
        doc = chrome_trace(obs.spans())
        assert len(doc["traceEvents"]) == 2
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"name", "pid", "tid", "args"} <= set(event)
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["outer"]["args"]["bucket"] == 0.5
        assert by_name["inner"]["args"]["parent_span"] == "outer"
        path = write_chrome_trace(obs.spans(), tmp_path / "trace.json")
        assert json.loads(path.read_text())["traceEvents"]


class TestEnvConfiguration:
    def test_knob_selects_recorder(self, monkeypatch):
        from repro.obs import _configure_from_env

        previous = obs.get_recorder()
        try:
            monkeypatch.setenv("REPRO_OBS", "metrics")
            _configure_from_env()
            assert obs.mode() == "metrics"
            monkeypatch.setenv("REPRO_OBS", "trace")
            _configure_from_env()
            assert obs.mode() == "trace"
        finally:
            obs.set_recorder(previous)
