"""Unit tests for the metrics collector and the report helpers."""

import pytest

from repro.core.messages import BrachaMessage, CrossLayerMessage, DolevMessage, MessageType
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import (
    boxplot_stats,
    mean,
    median,
    relative_variation_percent,
    summarize_variations,
    variation_range,
)


class TestCollector:
    def test_record_send_accumulates_bytes_and_counts(self):
        collector = MetricsCollector()
        message = BrachaMessage(MessageType.SEND, 0, 0, b"abcd")
        size = collector.record_send(10.0, 0, 1, message)
        assert size == message.wire_size()
        collector.record_send(20.0, 0, 2, message)
        assert collector.message_count == 2
        assert collector.total_bytes == 2 * message.wire_size()
        assert collector.messages_by_process[0] == 2

    def test_record_flight_equals_one_record_send_per_destination(self):
        echo = BrachaMessage(MessageType.ECHO, 0, 0, b"abcd", creator=1)
        ready = BrachaMessage(MessageType.READY, 0, 0, b"abcd", creator=1)
        flights = [(10.0, 0, [1, 2, 3], echo), (10.0, 0, [4], ready), (20.0, 2, [0, 1], echo)]

        one_by_one = MetricsCollector()
        for time, sender, dests, message in flights:
            for dest in dests:
                one_by_one.record_send(time, sender, dest, message)
        charged_once = MetricsCollector()
        sizes = [charged_once.record_flight(*flight) for flight in flights]
        assert sizes == [echo.wire_size(), ready.wire_size(), echo.wire_size()]
        assert charged_once.snapshot() == one_by_one.snapshot()
        assert charged_once.message_count == 6

    def test_record_flight_shows_a_subclass_every_send(self):
        class Logging(MetricsCollector):
            def __init__(self):
                super().__init__()
                self.seen = []

            def record_send(self, time, sender, dest, message):
                self.seen.append((time, sender, dest))
                return super().record_send(time, sender, dest, message)

        collector = Logging()
        message = BrachaMessage(MessageType.SEND, 0, 0, b"abcd")
        collector.record_flight(5.0, 0, [3, 1, 2], message)
        assert collector.seen == [(5.0, 0, 3), (5.0, 0, 1), (5.0, 0, 2)]
        assert collector.message_count == 3

    def test_type_breakdown_for_bracha_and_dolev(self):
        collector = MetricsCollector()
        echo = BrachaMessage(MessageType.ECHO, 0, 0, b"x", creator=1)
        collector.record_send(0, 0, 1, echo)
        collector.record_send(0, 0, 1, DolevMessage(content=echo, path=(2,)))
        collector.record_send(0, 0, 1, DolevMessage(content=b"raw", path=()))
        collector.record_send(0, 0, 1, CrossLayerMessage(mtype=MessageType.READY_ECHO))
        snapshot = collector.snapshot()
        assert snapshot.messages_by_type["ECHO"] == 1
        assert snapshot.messages_by_type["DOLEV[ECHO]"] == 1
        assert snapshot.messages_by_type["DOLEV[RAW]"] == 1
        assert snapshot.messages_by_type["READY_ECHO"] == 1

    def test_first_delivery_wins(self):
        collector = MetricsCollector()
        collector.record_delivery(5.0, 1, 0, 0, b"a")
        collector.record_delivery(9.0, 1, 0, 0, b"b")
        snapshot = collector.snapshot()
        assert snapshot.delivery_times[(1, (0, 0))] == 5.0
        assert snapshot.delivered_payloads[(1, (0, 0))] == b"a"

    def test_delivery_latency_requires_all_processes(self):
        collector = MetricsCollector()
        collector.record_delivery(5.0, 0, 0, 0, b"a")
        collector.record_delivery(12.0, 1, 0, 0, b"a")
        snapshot = collector.snapshot()
        assert snapshot.delivery_latency((0, 0), [0, 1]) == 12.0
        assert snapshot.delivery_latency((0, 0), [0, 1, 2]) is None

    def test_delivery_latency_of_no_processes_is_undefined(self):
        """Regression: an empty process set (everyone Byzantine or
        crashed) must report None — an undefined measurement — rather
        than a fabricated 0.0 ms latency."""
        collector = MetricsCollector()
        collector.record_delivery(5.0, 0, 0, 0, b"a")
        snapshot = collector.snapshot()
        assert snapshot.delivery_latency((0, 0), []) is None
        assert snapshot.delivery_latency((0, 0), [], start_time=3.0) is None

    def test_deliveries_for_and_delivering_processes(self):
        collector = MetricsCollector()
        collector.record_delivery(1.0, 3, 0, 7, b"v")
        collector.record_delivery(2.0, 1, 0, 7, b"v")
        collector.record_delivery(2.0, 1, 0, 8, b"w")
        snapshot = collector.snapshot()
        assert snapshot.deliveries_for((0, 7)) == {3: b"v", 1: b"v"}
        assert snapshot.delivering_processes((0, 7)) == (1, 3)

    def test_state_sizes(self):
        collector = MetricsCollector()
        collector.record_state_size(0, 10)
        collector.record_state_size(1, 25)
        snapshot = collector.snapshot()
        assert snapshot.peak_state_size == 25
        assert snapshot.total_state_size == 35

    def test_end_time_tracks_latest_event(self):
        collector = MetricsCollector()
        collector.record_send(10.0, 0, 1, BrachaMessage(MessageType.SEND, 0, 0, b""))
        collector.record_time(99.0)
        assert collector.snapshot().end_time == 99.0

    def test_message_without_wire_size_counts_zero_bytes(self):
        collector = MetricsCollector()
        collector.record_send(0.0, 0, 1, object())
        assert collector.total_bytes == 0
        assert collector.message_count == 1


class TestReport:
    def test_relative_variation_percent(self):
        assert relative_variation_percent(50.0, 100.0) == -50.0
        assert relative_variation_percent(150.0, 100.0) == 50.0

    def test_relative_variation_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            relative_variation_percent(1.0, 0.0)

    def test_relative_variation_propagates_missing_measurements(self):
        # ``mean_or_none`` yields None when every run in a slice failed;
        # the variation is then unknown, not a TypeError.
        assert relative_variation_percent(None, 100.0) is None
        assert relative_variation_percent(50.0, None) is None
        assert relative_variation_percent(None, None) is None

    def test_boxplot_stats(self):
        stats = boxplot_stats(list(range(101)))
        assert stats.median == 50.0
        assert stats.q1 == 25.0
        assert stats.q3 == 75.0
        assert stats.low == pytest.approx(2.5)
        assert stats.high == pytest.approx(97.5)
        assert stats.count == 101
        assert stats.format().startswith("[")

    # Recorded from ``numpy.percentile(values, [2.5, 25, 50, 75, 97.5])``
    # (default linear method) when the dependency was dropped.
    NUMPY_ROWS = [
        ([7.25], (7.25, 7.25, 7.25, 7.25, 7.25)),
        ([3.0, 1.0], (1.05, 1.5, 2.0, 2.5, 2.95)),
        (
            [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4],
            (0.115, 0.30000000000000004, 0.8, 2.4000000000000004, 5.919999999999999),
        ),
        (
            [-12.5, 3.75, 0.0, 8.125, -1.5, 22.0, 4.0, 4.0, 9.5, -30.25, 17.0],
            (-25.8125, -0.75, 4.0, 8.8125, 20.75),
        ),
    ]

    @pytest.mark.parametrize("values, row", NUMPY_ROWS)
    def test_boxplot_stats_equals_the_recorded_numpy_rows(self, values, row):
        stats = boxplot_stats(values)
        assert stats.as_row() == row  # bit-equal, not approx
        assert stats.count == len(values)

    def test_boxplot_stats_equals_numpy_where_it_is_installed(self):
        numpy = pytest.importorskip("numpy")
        import random

        rng = random.Random(7)
        for _ in range(300):
            values = [
                rng.choice((rng.uniform(-100.0, 100.0), float(rng.randint(-9, 9))))
                for _ in range(rng.choice((1, 2, 3, 5, 8, 40, 41, 101)))
            ]
            expected = numpy.percentile(
                numpy.asarray(values, dtype=float), [2.5, 25.0, 50.0, 75.0, 97.5]
            )
            assert boxplot_stats(values).as_row() == tuple(float(x) for x in expected)
            assert median(values) == float(numpy.median(values))

    def test_importing_repro_does_not_import_numpy(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        probe = (
            "import sys, repro, repro.metrics.report; "
            "sys.exit('numpy imported' if 'numpy' in sys.modules else 0)"
        )
        subprocess.run(
            [sys.executable, "-c", probe],
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )

    def test_boxplot_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot_stats([])

    def test_variation_range(self):
        assert variation_range([-5.0, 2.0, -7.0]) == (-7.0, 2.0)
        with pytest.raises(ValueError):
            variation_range([])

    def test_summarize_variations(self):
        measured = {"a": [50.0, 80.0], "b": [10.0]}
        reference = {"a": [100.0, 100.0], "b": [10.0]}
        summary = summarize_variations(measured, reference)
        assert summary["a"] == (-50.0, -20.0)
        assert summary["b"] == (0.0, 0.0)

    def test_summarize_variations_skips_missing_references(self):
        assert summarize_variations({"a": [1.0]}, {}) == {}

    def test_mean_and_median(self):
        assert mean([1, 2, 3]) == 2.0
        assert median([1, 2, 3, 100]) == 2.5
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            median([])
