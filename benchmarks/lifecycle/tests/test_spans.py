"""The span recorder: attribution, self time, recursion, missing rows."""

import sys
import time
import types

import pytest

from metrics import PER_LAYER, per_layer
from spans import ROOT, SpanRecorder, SpanRow


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def fake_layers():
    """An importable module with a nested pair of layer functions."""
    module = types.ModuleType("fake_layers")

    def inner():
        time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        module.inner()  # looked up on the module at call time, like repro

    def countdown(n):
        time.sleep(0.005)
        if n:
            module.countdown(n - 1)

    module.inner, module.outer, module.countdown = inner, outer, countdown
    sys.modules["fake_layers"] = module
    yield module
    del sys.modules["fake_layers"]


def test_planted_sleep_lands_in_the_right_span(fake_layers):
    recorder = SpanRecorder()
    recorder.install(
        [
            SpanRow("fake_layers", "outer", "fake.outer"),
            SpanRow("fake_layers", "inner", "fake.inner"),
        ]
    )
    try:
        with recorder.span(ROOT):
            fake_layers.outer()
    finally:
        recorder.uninstall()
    account = recorder.account()
    inner, outer = account.inside["fake.inner"], account.inside["fake.outer"]
    assert 0.03 <= inner.self_s < 0.06
    assert 0.02 <= outer.self_s < 0.05  # the inner sleep is not the outer's
    assert outer.total_s == pytest.approx(outer.self_s + inner.self_s)
    assert account.root_self_s < 0.01
    assert (inner.calls, outer.calls, account.roots) == (1, 1, 1)


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span(ROOT):
        clock.advance(1.0)
        with recorder.span("a"):
            clock.advance(2.0)
            with recorder.span("b"):
                clock.advance(4.0)
            with recorder.span("b"):
                clock.advance(8.0)
            clock.advance(16.0)
        clock.advance(32.0)
    with recorder.span("a"):
        clock.advance(64.0)
    account = recorder.account()
    assert account.root_s == 63.0
    assert account.root_self_s == 33.0
    assert account.inside["a"].self_s == 18.0
    assert account.inside["a"].total_s == 30.0
    assert account.inside["b"].self_s == 12.0
    assert account.inside["b"].calls == 2
    assert account.outside["a"].self_s == 64.0  # set-up, not the timed region
    inside_self = sum(t.self_s for t in account.inside.values())
    assert inside_self + account.root_self_s == account.root_s
    assert account.residual_share == pytest.approx(33.0 / 63.0)


def test_recursive_span_is_not_counted_twice(fake_layers):
    recorder = SpanRecorder()
    recorder.install([SpanRow("fake_layers", "countdown", "fake.countdown")])
    try:
        with recorder.span(ROOT):
            fake_layers.countdown(3)
    finally:
        recorder.uninstall()
    account = recorder.account()
    totals = account.inside["fake.countdown"]
    assert totals.calls == 4
    # Four nested spans, one stretch of time: both sums equal the outermost.
    assert totals.total_s == pytest.approx(totals.self_s)
    assert totals.self_s + account.root_self_s == pytest.approx(account.root_s)
    assert 0.02 <= totals.total_s < 0.06


def test_reentrant_span_under_another_name(fake_layers):
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span(ROOT):
        with recorder.span("a"):
            clock.advance(1.0)
            with recorder.span("b"):
                clock.advance(2.0)
                with recorder.span("a"):
                    clock.advance(4.0)
    account = recorder.account()
    assert account.inside["a"].self_s == 5.0
    assert account.inside["a"].total_s == 7.0  # the outer one only
    assert account.inside["b"].self_s == 2.0


def test_missing_attribute_reports_null_instead_of_raising(fake_layers, capsys):
    recorder = SpanRecorder()
    recorder.install(
        [
            SpanRow("fake_layers", "renamed_away", "core.audit.validate"),
            SpanRow("no_such_module", "anything", "packing.strip.pack"),
            SpanRow("fake_layers", "inner", "fake.inner"),
        ]
    )
    try:
        with recorder.span(ROOT):
            fake_layers.inner()
    finally:
        recorder.uninstall()
    assert "core.audit.validate" in capsys.readouterr().err
    assert recorder.missing_spans() == ["core.audit.validate", "packing.strip.pack"]
    values = per_layer(recorder, recorder.account(), {}, 0.0)
    assert values["core.audit.validate_s"] is None
    assert values["core.audit.validate_calls"] is None
    assert values["packing.strip.pack_s"] is None
    assert values["core.link_sched.build_s"] == 0.0  # idle, not missing
    assert set(values) == {layer.name for layer in PER_LAYER}


def test_a_surviving_row_keeps_the_span_alive(fake_layers):
    recorder = SpanRecorder()
    recorder.install(
        [
            SpanRow("fake_layers", "gone", "fake.inner"),
            SpanRow("fake_layers", "inner", "fake.inner"),
        ]
    )
    recorder.uninstall()
    assert recorder.missing_spans() == []


def test_uninstall_restores_and_exceptions_close_spans(fake_layers):
    original = fake_layers.inner

    def boom():
        raise KeyError("planted")

    fake_layers.boom = boom
    recorder = SpanRecorder()
    recorder.install(
        [
            SpanRow("fake_layers", "inner", "fake.inner"),
            SpanRow("fake_layers", "boom", "fake.boom"),
        ]
    )
    assert fake_layers.inner is not original
    with recorder.span(ROOT):
        with pytest.raises(KeyError):
            fake_layers.boom()
    recorder.uninstall()
    assert fake_layers.inner is original
    assert fake_layers.boom is boom
    assert recorder.account().inside["fake.boom"].calls == 1


def test_outcome_classifier_counts_useful_results(fake_layers):
    fake_layers.probe = lambda value: value
    recorder = SpanRecorder()
    recorder.install(
        [SpanRow("fake_layers", "probe", "packing.rpp.can_pack", lambda r: r > 0)]
    )
    try:
        for value in (1, 0, 2, 0):
            fake_layers.probe(value)
    finally:
        recorder.uninstall()
    values = per_layer(recorder, recorder.account(), {}, 0.0)
    assert values["packing.rpp.feasible_ratio"] == 0.5


def test_spans_written_as_jsonl(tmp_path):
    import json

    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span(ROOT):
        with recorder.span("a"):
            clock.advance(1.0)
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [
        {"id": 0, "parent": None, "name": ROOT, "start": 0.0, "end": 1.0},
        {"id": 1, "parent": 0, "name": "a", "start": 0.0, "end": 1.0},
    ]
