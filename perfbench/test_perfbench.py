"""Self-tests for the benchmark's own arithmetic.

Run from the root of a checkout with ``python3 -m pytest perfbench``; they
need neither numpy nor ``wlns``.
"""

import pytest

import stats
from tracing import Recorder, covered, layer_self_seconds, self_times


def test_no_percentile_until_ten_samples_lie_beyond_it():
    assert stats.tail_percentile(list(range(10))) is None
    assert stats.tail_percentile(list(range(11))) is None
    # 20 samples: p50 is rank 10, leaving exactly 10 beyond it
    assert stats.tail_percentile([float(i) for i in range(1, 21)]) == ("p50", 10.0)


def test_highest_qualifying_percentile_is_chosen():
    values = [float(i) for i in range(1, 101)]
    assert stats.tail_percentile(values) == ("p90", 90.0)
    values = [float(i) for i in range(1, 1001)]
    assert stats.tail_percentile(values) == ("p99", 990.0)
    values = [float(i) for i in range(1, 10_011)]
    assert stats.tail_percentile(values) == ("p99.9", 10_000.0)


def test_percentile_ignores_input_order():
    values = [float(i) for i in range(1, 101)]
    assert stats.tail_percentile(values[::-1]) == stats.tail_percentile(values)


def test_summary_reports_median_percentile_and_count():
    summary = stats.summarize([3.0, 1.0, 2.0], "s")
    assert summary == {
        "unit": "s", "median": 2.0, "percentile": None,
        "percentile_value": None, "samples": 3, "min": 1.0, "values": [3.0, 1.0, 2.0],
    }
    summary = stats.summarize([float(i) for i in range(1, 101)], "ms")
    assert (summary["median"], summary["percentile"], summary["samples"]) == (50.5, "p90", 100)
    with pytest.raises(ValueError):
        stats.summarize([], "s")


def test_nearest_rank_counts_samples_beyond():
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == (2.0, 2)
    assert stats.nearest_rank([1.0, 2.0, 3.0, 4.0], 100) == (4.0, 0)
    assert stats.nearest_rank([5.0], 1) == (5.0, 0)


def test_fft_floor_ratio_uses_36_transforms():
    assert stats.TRANSFORMS_PER_STEP == 36
    assert stats.fft_floor_ratio(72.0, 2.0) == pytest.approx(1.0)
    assert stats.fft_floor_ratio(360.0, 1.0) == pytest.approx(10.0)


def span(i, start, end, parent=None, name="a.f", pass_id="p"):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "pass_id": pass_id}


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered([(0.0, 2.0), (1.0, 3.0)]) == 3.0
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_children_only_once():
    spans = [
        span(0, 0.0, 10.0, name="bench.pass"),
        span(1, 1.0, 4.0, parent=0, name="cli.main"),
        span(2, 3.0, 6.0, parent=0, name="field.read"),  # overlaps span 1
        span(3, 1.5, 2.0, parent=1, name="field.write"),  # grandchild
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)
    layers = layer_self_seconds(spans)
    assert layers == pytest.approx({"bench": 5.0, "cli": 2.5, "field": 3.5})


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, 0.0, 2.0), span(1, 1.0, 5.0, parent=0, name="b.g")]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_totals_filter_by_pass():
    spans = [span(0, 0.0, 1.0, pass_id="p0"), span(1, 0.0, 2.0, pass_id="p1")]
    assert layer_self_seconds(spans, {"p1"}) == {"a": 2.0}


def test_recorder_nests_spans_and_stays_silent_when_disabled():
    rec = Recorder(True)
    rec.pass_id = "p"
    with rec.span("bench.pass"):
        with rec.span("field.f"):
            pass
    assert [(s["name"], s["parent"], s["pass_id"]) for s in rec.spans] == [
        ("bench.pass", None, "p"), ("field.f", 0, "p"),
    ]
    assert all(s["end"] >= s["start"] for s in rec.spans)
    assert len(rec.durations("field.f", "p")) == 1
    assert rec.durations("field.f", "other") == []
    off = Recorder(False)
    with off.span("x.y"):
        pass
    assert off.spans == []
