"""Tests for repro.sim.recorder."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.recorder import RunRecorder, TickSample


def make_sample(t, delay=1.0, processed=100.0, offered=100.0, dropped=0.0,
                parallelism=4, extra=0):
    return TickSample(
        t_s=t, delay_s=delay, processed=processed, offered=offered,
        dropped=dropped, parallelism=parallelism, extra_slots=extra,
    )


class TestSeries:
    def test_times(self):
        recorder = RunRecorder()
        for t in (1.0, 2.0, 3.0):
            recorder.record_tick(make_sample(t))
        assert list(recorder.times()) == [1.0, 2.0, 3.0]

    def test_delay_series_preserves_nan(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(1.0, delay=float("nan"), processed=0))
        recorder.record_tick(make_sample(2.0, delay=5.0))
        series = recorder.delay_series()
        assert math.isnan(series[0]) and series[1] == 5.0

    def test_parallelism_series(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(1.0, parallelism=3))
        recorder.record_tick(make_sample(2.0, parallelism=5))
        assert list(recorder.parallelism_series()) == [3.0, 5.0]

    def test_extra_slots_series(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(1.0, extra=2))
        assert list(recorder.extra_slots_series()) == [2.0]


class TestProcessingRatio:
    def test_ratio_one_when_keeping_up(self):
        recorder = RunRecorder()
        for t in range(60):
            recorder.record_tick(make_sample(float(t)))
        assert recorder.processing_ratio_series()[-1] == pytest.approx(1.0)

    def test_ratio_below_one_when_constrained(self):
        recorder = RunRecorder()
        for t in range(60):
            recorder.record_tick(make_sample(float(t), processed=80.0))
        assert recorder.processing_ratio_series()[-1] == pytest.approx(0.8)

    def test_ratio_above_one_when_draining(self):
        """Section 8.4: ratio > 1 means queued events are being consumed."""
        recorder = RunRecorder()
        for t in range(60):
            recorder.record_tick(make_sample(float(t), processed=130.0))
        assert recorder.processing_ratio_series()[-1] > 1.0

    def test_ratio_defaults_to_one_without_offered(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(0.0, processed=0.0, offered=0.0))
        assert recorder.processing_ratio_series()[0] == 1.0

    def test_windowing_limits_lookback(self):
        recorder = RunRecorder()
        for t in range(40):
            recorder.record_tick(make_sample(float(t), processed=0.0))
        for t in range(40, 80):
            recorder.record_tick(make_sample(float(t), processed=100.0))
        # With a 30-tick window the early zeros are out of scope by t=79.
        assert recorder.processing_ratio_series(window_ticks=30)[-1] == (
            pytest.approx(1.0)
        )


class TestDistributions:
    def test_mean_delay_weighted_by_events(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(1.0, delay=1.0, processed=300.0))
        recorder.record_tick(make_sample(2.0, delay=4.0, processed=100.0))
        assert recorder.mean_delay() == pytest.approx(1.75)

    def test_percentile_endpoints(self):
        recorder = RunRecorder()
        for t, d in enumerate((1.0, 2.0, 3.0, 4.0)):
            recorder.record_tick(make_sample(float(t), delay=d))
        assert recorder.delay_percentile(0) == 1.0
        assert recorder.delay_percentile(100) == 4.0

    def test_percentile_weighting(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(0.0, delay=1.0, processed=990.0))
        recorder.record_tick(make_sample(1.0, delay=100.0, processed=10.0))
        assert recorder.delay_percentile(95) == 1.0
        assert recorder.delay_percentile(99.9) == 100.0

    def test_empty_distribution_is_nan(self):
        recorder = RunRecorder()
        assert math.isnan(recorder.mean_delay())
        assert math.isnan(recorder.delay_percentile(50))

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1,
                    max_size=60))
    def test_percentile_within_observed_range(self, delays):
        recorder = RunRecorder()
        for t, d in enumerate(delays):
            recorder.record_tick(make_sample(float(t), delay=d))
        p50 = recorder.delay_percentile(50)
        assert min(delays) <= p50 <= max(delays)


class TestQualityAccounting:
    def test_processed_fraction_full_when_no_drops(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(0.0))
        assert recorder.processed_fraction() == 1.0

    def test_processed_fraction_reflects_drops(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(0.0, dropped=25.0, offered=100.0))
        assert recorder.processed_fraction() == pytest.approx(0.75)

    def test_totals(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(0.0, processed=10, offered=20, dropped=5))
        recorder.record_tick(make_sample(1.0, processed=30, offered=20, dropped=0))
        assert recorder.total_processed() == 40
        assert recorder.total_offered() == 40
        assert recorder.total_dropped() == 5

    def test_empty_run_fraction_is_one(self):
        assert RunRecorder().processed_fraction() == 1.0


class TestAdaptationLog:
    def test_records_events(self):
        recorder = RunRecorder()
        recorder.record_adaptation(100.0, "scale out", "bottleneck")
        events = recorder.adaptations
        assert events[0].t_s == 100.0
        assert events[0].action == "scale out"
        assert events[0].detail == "bottleneck"

    def test_records_faults_separately(self):
        recorder = RunRecorder()
        recorder.record_fault(50.0, "site-crash", "edge-1 crashed")
        assert recorder.faults[0].kind == "site-crash"
        assert recorder.adaptations == []


class TestAnnotations:
    def test_merges_adaptations_and_faults_in_time_order(self):
        recorder = RunRecorder()
        recorder.record_adaptation(100.0, "scale out", "bottleneck")
        recorder.record_fault(50.0, "site-crash", "edge-1 crashed")
        recorder.record_fault(150.0, "site-crash:revert", "edge-1 recovered")
        merged = recorder.annotations()
        assert [e.t_s for e in merged] == [50.0, 100.0, 150.0]
        assert merged[0].action == "fault:site-crash"
        assert merged[1].action == "scale out"
        assert merged[2].action == "fault:site-crash:revert"

    def test_adaptation_precedes_fault_at_equal_time(self):
        recorder = RunRecorder()
        recorder.record_fault(60.0, "link-degrade", "")
        recorder.record_adaptation(60.0, "re-assign", "")
        merged = recorder.annotations()
        assert [e.action for e in merged] == ["re-assign", "fault:link-degrade"]

    def test_does_not_mutate_underlying_logs(self):
        recorder = RunRecorder()
        recorder.record_adaptation(10.0, "re-assign", "")
        recorder.record_fault(5.0, "site-crash", "")
        recorder.annotations()
        assert len(recorder.adaptations) == 1
        assert len(recorder.faults) == 1


class TestIdleWindowNan:
    """Regression: an all-idle window must not poison the distributions."""

    def test_all_idle_run_yields_nan_summaries(self):
        recorder = RunRecorder()
        for t in (1.0, 2.0, 3.0):
            recorder.record_tick(
                make_sample(t, delay=float("nan"), processed=0.0)
            )
        assert math.isnan(recorder.mean_delay())
        assert math.isnan(recorder.delay_percentile(95))

    def test_idle_window_between_busy_ticks_is_skipped(self):
        recorder = RunRecorder()
        recorder.record_tick(make_sample(1.0, delay=2.0, processed=100.0))
        recorder.record_tick(
            make_sample(2.0, delay=float("nan"), processed=0.0)
        )
        recorder.record_tick(make_sample(3.0, delay=4.0, processed=100.0))
        assert recorder.mean_delay() == pytest.approx(3.0)
        assert recorder.delay_percentile(100) == pytest.approx(4.0)

    def test_distribution_helpers_skip_nan_defensively(self):
        # Even if a NaN observation reaches the internal arrays (e.g. a
        # future recording path forgets the record_tick guard), the
        # percentile/mean helpers must drop it rather than let NaN
        # propagate through sort/cumsum.
        recorder = RunRecorder()
        recorder.record_tick(make_sample(1.0, delay=2.0, processed=100.0))
        recorder._delay_values.append(float("nan"))
        recorder._delay_weights.append(50.0)
        assert recorder.mean_delay() == pytest.approx(2.0)
        assert recorder.delay_percentile(99) == pytest.approx(2.0)
