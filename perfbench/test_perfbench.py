"""Tests of the benchmark's own parts: generators, span arithmetic, oracle."""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import braidcover.cli as cli  # noqa: E402


def test_same_seed_same_lines():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7)
        b = workloads.generate(name, 7)
        assert [op.line for op in a] == [op.line for op in b]
        assert workloads.lines_digest(a) == workloads.lines_digest(b)
        assert workloads.lines_digest(a) != workloads.lines_digest(
            workloads.generate(name, 8))


def test_generated_words_match_their_lines():
    """The oracle's letter tuples spell the same braid as the line."""
    from braidcover.braid import parse_braid
    import b3oracle
    for name in workloads.WORKLOADS:
        for op in workloads.generate(name, 3):
            if op.word is None:
                continue
            assert b3oracle.braids_equal(parse_braid(op.line), op.word), op.line


def _span(name, start, end, parent, counters=None, observe_s=0.0):
    return [name, start, end, parent, 0, "ok", counters, observe_s]


def test_self_time_on_nested_trace():
    trace = [
        _span("cli.run_batch", 0.0, 10.0, -1),
        _span("braid.classify_baldwin", 1.0, 4.0, 0),
        _span("braid.twist_search", 2.0, 3.0, 1, {"braid.twist_states": 5}),
        _span("ordercheck.todd_coxeter", 5.0, 9.0, 0,
              {"ordercheck.cosets_defined": 8, "ordercheck.group_order_sum": 4}),
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0]
    # a child's observer time is taken off its parent, not off the child
    trace[2][spans.OBSERVE_S] = 0.5
    assert spans.self_times(trace) == [3.0, 1.5, 1.0, 4.0]
    trace[2][spans.OBSERVE_S] = 0.0
    m = spans.layer_metrics(trace)
    assert m["cli.self_s"] == 3.0
    assert m["braid.classify_s"] == 3.0          # classify and its twist search
    assert m["ordercheck.coset_enum_s"] == 4.0
    assert m["braid.classify_calls"] == 1
    assert m["braid.twist_states"] == 5
    assert m["ordercheck.coset_yield"] == 0.5
    assert m["ordercheck.exhausted"] == 0


def _pipeline_self_s(monkeypatch, observe_sleep):
    """cli.self_s of a wrapped run_pipeline calling a wrapped tietze_simplify
    whose observer sleeps for observe_sleep seconds."""
    def slow_observer(result):
        time.sleep(observe_sleep)
        return {"presentation.max_relator_len": 1}
    monkeypatch.setitem(spans.OBSERVERS, "presentation.tietze_simplify", slow_observer)
    recorder = spans.SpanRecorder()
    inner = recorder._wrap("presentation.tietze_simplify", lambda: None)
    outer = recorder._wrap("cli.run_pipeline", lambda: inner())
    outer()
    return spans.layer_metrics(recorder.take())


def test_observer_time_stays_out_of_self_time(monkeypatch):
    quick = _pipeline_self_s(monkeypatch, 0.0)
    slow = _pipeline_self_s(monkeypatch, 0.2)
    assert slow["presentation.max_relator_len"] == 1
    assert abs(slow["cli.self_s"] - quick["cli.self_s"]) < 0.05
    assert slow["presentation.tietze_s"] < 0.05


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == spans.per_layer_units()


def test_oracle_flags_tampered_determinant():
    op = workloads.member({"family": 1, "d": 1, "a": (2, 2)})
    results, counts = cli.run_batch([op.line])
    outcome = (results[0], "ok")
    assert oracle.check(op, outcome) == ([], True)
    results[0]["determinant"] += 1
    problems, decided = oracle.check(op, outcome)
    assert any("determinant" in p for p in problems)
    assert not decided


def test_oracle_counts_raise_as_failed():
    op = workloads.member({"family": 2, "d": 1, "m": 3})
    problems, decided = oracle.check(op, RuntimeError("boom"))
    assert problems and not decided


def test_recorder_catches_internal_calls_and_restores():
    import braidcover.braid as braid
    original = braid.classify_baldwin
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        cli.run_batch(["h s1 s2^-2 s1 s2^-2"])   # looked up in cli, so wrapped
    finally:
        recorder.uninstall()
    assert braid.classify_baldwin is original
    recorded = recorder.take()
    names = [s[spans.NAME] for s in recorded]
    # _prepare_type1 classifies again inside the normalizer
    inner = [s for s in recorded if s[spans.NAME] == "braid.classify_baldwin"
             and recorded[s[spans.PARENT]][spans.NAME] == "braid.normalize_type1_d1"]
    assert inner
    assert names[0] == "cli.run_batch" and recorded[0][spans.PARENT] == -1
    assert recorder.missing == []


def test_recorder_reports_missing_names(monkeypatch):
    layers = {k: dict(v) for k, v in spans.LAYERS.items()}
    layers["braid"]["no_such_function"] = "braid.parse_s"
    monkeypatch.setattr(spans, "LAYERS", layers)
    recorder = spans.SpanRecorder()
    recorder.install()
    recorder.uninstall()
    assert recorder.missing == ["braid.no_such_function"]


def test_tail_is_nearest_rank():
    assert harness.tail(list(range(100)), 90) == (89, 10)
    assert harness.tail(list(range(60)), 75) == (44, 15)
    assert harness.tail(list(range(1000)), 99) == (989, 10)
    assert harness.tail([5.0], 99) == (5.0, 0)
