"""Span recorder: self-time arithmetic and the Chrome trace export."""

import spans
from repro.obs.trace_schema import validate_chrome_trace
from repro.sim.engine import Engine


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has a child
    # c [2, 3].  Self times: root 10-3-4=3, a 3-1=2, b 4, c 1.
    recorder = spans.SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    recorder.begin("root")
    recorder.begin("a")
    recorder.begin("c")
    recorder.end()
    recorder.end()
    recorder.begin("b")
    recorder.end()
    recorder.end()
    assert recorder.self_s == {"root": 3, "a": 2, "b": 4, "c": 1}
    assert recorder.calls == {"root": 1, "a": 1, "b": 1, "c": 1}
    by_name = {span[1]: span for span in recorder.spans}
    assert by_name["root"][4] == 0
    assert by_name["a"][4] == by_name["root"][0]
    assert by_name["c"][4] == by_name["a"][0]
    assert by_name["b"][4] == by_name["root"][0]


def test_root_spans_get_their_own_sim_id_and_keep_caps_storage():
    recorder = spans.SpanRecorder(clock=FakeClock(range(100)), keep=3)
    for _ in range(2):
        recorder.begin("root")
        recorder.begin("child")
        recorder.end()
        recorder.end()
    assert recorder.calls == {"root": 2, "child": 2}
    assert recorder.total_spans == 4
    assert len(recorder.spans) == 3
    assert sorted(span[5] for span in recorder.spans) == [1, 1, 2]


def test_chrome_trace_is_valid():
    recorder = spans.SpanRecorder(clock=FakeClock([0.0, 0.5, 1.0, 2.0]))
    recorder.begin("root")
    recorder.begin("child")
    recorder.end()
    recorder.end()
    document = recorder.chrome_trace()
    assert validate_chrome_trace(document) == []
    assert len(document["traceEvents"]) == 2


def test_traced_layers_wraps_and_restores():
    original = vars(Engine)["run"]
    with spans.traced_layers(spans.SpanRecorder()):
        assert vars(Engine)["run"] is not original
        assert vars(Engine)["run"].__wrapped__ is original
    assert vars(Engine)["run"] is original


def test_every_layer_has_an_entry_point():
    owner = spans._entry_owner()
    assert set(owner.values()) == {layer for layer, _ in spans.LAYERS}
