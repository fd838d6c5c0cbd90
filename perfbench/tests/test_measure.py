"""The benchmark's arithmetic on hand-built inputs."""

import pytest

from perfbench import measure


class TestPercentile:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert measure.percentile(list(range(999)), 99) is None
        assert measure.percentile(list(range(1000)), 99) == 989

    def test_p50_needs_twenty_samples(self):
        assert measure.percentile([1.0] * 19, 50) is None
        assert measure.percentile(list(range(1, 21)), 50) == 10

    def test_nearest_rank_ignores_input_order(self):
        values = [float(v) for v in range(2000, 0, -1)]
        assert measure.percentile(values, 99) == 1980.0
        assert measure.percentile(values, 50) == 1000.0

    def test_empty_is_unsupported(self):
        assert measure.percentile([], 50) is None


class TestFreshness:
    def test_batches_are_cut_by_accepted_ordinal(self):
        due = [0.0, 1.0, 2.0, 3.0, 4.0]
        values, late = measure.freshness(due, [2.5, 5.0, 9.0], batch_size=2, run_end=6.0)
        assert values == [2.5, 1.5, 3.0, 2.0, 5.0]
        assert late == [False, False, False, False, True]

    def test_event_published_by_the_final_flush_is_a_miss(self):
        values, late = measure.freshness([0.0, 0.1], [7.0], batch_size=4, run_end=5.0)
        assert values == [7.0, pytest.approx(6.9)]
        assert late == [True, True]

    def test_publish_count_must_match_the_batches(self):
        with pytest.raises(ValueError):
            measure.freshness([0.0, 1.0, 2.0], [1.0], batch_size=2, run_end=9.0)
        with pytest.raises(ValueError):
            measure.freshness([0.0], [1.0, 2.0], batch_size=2, run_end=9.0)


def _step(rate, achieved, late_frac=0.0, refused=0, depth=(0, 0)):
    return {"rate": rate, "achieved_rate": achieved, "late_frac": late_frac,
            "refused": refused, "depth_start": depth[0], "depth_end": depth[1]}


class TestSustainedRate:
    def test_highest_passing_step_wins(self):
        steps = [_step(100, 99.0), _step(200, 201.0), _step(400, 390.0),
                 _step(800, 540.0, late_frac=0.6)]
        assert measure.sustained_rate(steps, batch_size=64) == 390.0

    def test_a_failing_low_step_does_not_stop_the_ladder(self):
        # the count-only batch cut leaves low-rate events waiting longest
        steps = [_step(100, 98.0, late_frac=0.2), _step(200, 199.0), _step(400, 401.0)]
        assert measure.sustained_rate(steps, batch_size=64) == 401.0

    def test_refusals_and_backlog_growth_fail_a_step(self):
        steps = [_step(100, 99.0), _step(200, 200.0, refused=1),
                 _step(400, 399.0, depth=(10, 75))]
        assert measure.sustained_rate(steps, batch_size=64) == 99.0

    def test_one_percent_late_still_passes(self):
        assert measure.step_passes(_step(200, 200.0, late_frac=0.01), 64)
        assert not measure.step_passes(_step(200, 200.0, late_frac=0.011), 64)

    def test_no_passing_step_is_zero(self):
        assert measure.sustained_rate([_step(100, 99.0, late_frac=1.0)], 64) == 0.0


def _span(sid, parent, name, start, end, cpu=None, thread="main", result=None):
    cpu = (0.0, end - start) if cpu is None else cpu
    return (sid, parent, name, start, end, cpu[0], cpu[1], thread, None, result)


class TestSelfTime:
    def test_children_are_subtracted_from_the_parent(self):
        spans = [
            _span(1, None, "a", 0.0, 10.0),
            _span(2, 1, "b", 1.0, 4.0),
            _span(3, 2, "c", 2.0, 3.0),
            _span(4, 1, "b", 6.0, 7.0),
        ]
        selfs = measure.self_times(spans)
        assert selfs[1][0] == pytest.approx(6.0)
        assert selfs[2][0] == pytest.approx(2.0)
        assert selfs[3][0] == pytest.approx(1.0)
        assert selfs[4][0] == pytest.approx(1.0)
        assert sum(w for w, _ in selfs.values()) == pytest.approx(10.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            _span(1, None, "a", 0.0, 10.0),
            _span(2, 1, "b", 2.0, 6.0),
            _span(3, 1, "b", 4.0, 8.0),
            _span(4, 1, "b", 9.0, 12.0),
        ]
        assert measure.self_times(spans)[1][0] == pytest.approx(3.0)

    def test_wall_minus_cpu_is_the_wait_inside_the_span(self):
        spans = [
            _span(1, None, "a", 0.0, 10.0, cpu=(0.0, 6.0)),
            _span(2, 1, "b", 1.0, 5.0, cpu=(0.5, 4.5)),
        ]
        wall, cpu = measure.self_times(spans)[1]
        assert (wall, cpu) == (pytest.approx(6.0), pytest.approx(2.0))

    def test_layer_is_the_longest_dotted_prefix(self):
        layers = ["serve", "serve.index", "core.engine"]
        assert measure.layer_of("serve.index.top_k", layers) == "serve.index"
        assert measure.layer_of("serve.indexer", layers) == "serve"
        assert measure.layer_of("core.engines", layers) == "core.engines"


class TestUnattributed:
    def test_idle_spans_and_waits_after_empty_rounds_are_not_busy(self):
        spans = [
            _span(1, None, "work", 0.0, 2.0),
            _span(2, None, "bench.idle", 2.5, 5.0),
            _span(3, None, "work", 5.0, 6.0),
            _span(4, None, "round", 0.0, 1.0, thread="worker", result=0),
            _span(5, None, "round", 4.0, 5.0, thread="worker", result=64),
            _span(6, None, "round", 5.5, 6.0, thread="worker", result=0),
        ]
        gap, busy = measure.unattributed(spans, ("bench.idle",), {"round": 0})
        # main: window 6, idle 2.5, covered 3 -> gap 0.5
        # worker: window 6, idle 3 (after the first empty round), covered 2.5 -> gap 0.5
        assert busy == pytest.approx(3.5 + 3.0)
        assert gap == pytest.approx(1.0)
