"""The metrics core: exact concurrent counting and Prometheus text.

The hot-path contract is the whole point of the per-thread-cell design:
``inc``/``observe`` never take a lock, yet after every worker joins the
snapshot must be *exact* — no sampled or approximate totals. The hammer
tests below drive 12 threads through shared counter and histogram
children and assert the totals to the last increment.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA_VERSION,
    RATE_HORIZON,
    SUMMARY_WINDOW,
    MetricsRegistry,
    merge_families,
    render_prometheus,
    set_enabled,
)

THREADS = 12
PER_THREAD = 5_000


def _hammer(work) -> None:
    """Run ``work(thread_index)`` on THREADS threads through a barrier."""
    barrier = threading.Barrier(THREADS)
    errors: list[BaseException] = []

    def runner(index: int) -> None:
        try:
            barrier.wait()
            work(index)
        except BaseException as exc:  # pragma: no cover - debug aid
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestCounterExactness:
    def test_threaded_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", "hammered")

        def work(_index: int) -> None:
            for _ in range(PER_THREAD):
                counter.inc()

        _hammer(work)
        assert counter.value == THREADS * PER_THREAD

    def test_threaded_labeled_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "labeled_total", "hammered", labelnames=("lane",)
        )
        # All threads bump both children — contention on the *family*,
        # not just private children.
        even, odd = counter.labels("even"), counter.labels("odd")

        def work(index: int) -> None:
            for step in range(PER_THREAD):
                (even if (index + step) % 2 == 0 else odd).inc(2)

        _hammer(work)
        assert even.value + odd.value == 2 * THREADS * PER_THREAD

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("mono_total", "monotone")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestHistogramExactness:
    def test_threaded_observations_are_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", "latencies", buckets=(0.001, 0.01, 0.1, 1.0)
        )
        values = [0.0005, 0.005, 0.05, 0.5, 5.0]

        def work(index: int) -> None:
            for step in range(PER_THREAD):
                hist.observe(values[(index + step) % len(values)])

        _hammer(work)
        cumulative, total, count = hist.snapshot()
        expected_count = THREADS * PER_THREAD
        assert count == expected_count
        # The +Inf bucket is implicit: cumulative finite buckets end
        # below the total count exactly by the overflow observations.
        per_value = expected_count // len(values)
        assert cumulative == [
            per_value, 2 * per_value, 3 * per_value, 4 * per_value
        ]
        assert total == pytest.approx(
            per_value * sum(values), rel=1e-9
        )

    def test_bucket_sums_equal_observation_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", "h")
        for value in (0.0, 1e-5, 0.02, 3.0, 99.0):
            hist.observe(value)
        cumulative, _total, count = hist.snapshot()
        assert count == 5
        assert len(cumulative) == len(DEFAULT_BUCKETS)
        # Cumulative buckets are monotone and bounded by the count.
        assert all(
            a <= b for a, b in zip(cumulative, cumulative[1:])
        )
        assert cumulative[-1] <= count


class TestSummary:
    @staticmethod
    def _child():
        return MetricsRegistry().summary(
            "lat_seconds", "latency", labelnames=("circuit",)
        ).labels("x")

    def test_rate_decays_to_zero_when_idle(self):
        child = self._child()
        for _ in range(10):
            child.observe(0.001, now=100.25)
        assert child.rate(now=100.5) == pytest.approx(10 / RATE_HORIZON)
        # Once every stamp is older than the horizon the rate is zero.
        assert child.rate(now=100.25 + RATE_HORIZON + 0.1) == 0.0
        assert child.rate(now=150.0) == 0.0

    def test_rate_spans_a_window_filled_within_the_horizon(self):
        child = self._child()
        for index in range(SUMMARY_WINDOW):
            child.observe(0.001, now=200.0 + index * 0.001)
        now = 200.0 + SUMMARY_WINDOW * 0.001
        assert child.rate(now=now) == pytest.approx(1000.0)

    def test_window_is_bounded_but_totals_are_exact(self):
        child = self._child()
        for index in range(3000):
            child.observe(index * 1e-4)
        total, count = child.totals()
        assert count == 3000
        assert total == pytest.approx(sum(i * 1e-4 for i in range(3000)))
        # Nearest-rank quantiles over the last 512 observations only:
        # indexes 2488..2999.
        (q50, p50), (q99, p99) = child.quantiles()
        assert (q50, q99) == (0.5, 0.99)
        assert p50 == pytest.approx((2488 + 255) * 1e-4)
        assert p99 == pytest.approx((2488 + 506) * 1e-4)

    def test_threaded_observations_are_exact(self):
        child = self._child()
        stop = threading.Event()
        reads = []

        def reader():
            # Snapshots race the writers' appends to the shared window.
            while not stop.is_set():
                reads.append((child.quantiles(), child.rate()))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        watcher = threading.Thread(target=reader)
        watcher.start()
        try:
            _hammer(lambda index: [
                child.observe(float(index)) for _ in range(PER_THREAD)
            ])
        finally:
            stop.set()
            watcher.join(timeout=30)
            sys.setswitchinterval(previous)
        assert not watcher.is_alive() and reads
        total, count = child.totals()
        assert count == THREADS * PER_THREAD
        assert total == PER_THREAD * sum(range(THREADS))
        assert len(child._window) == SUMMARY_WINDOW

    def test_empty_window_has_no_quantiles(self):
        child = self._child()
        assert child.quantiles() == []
        assert child.rate() == 0.0

    def test_exposition_lines(self):
        registry = MetricsRegistry()
        summary = registry.summary(
            "lat_seconds", "latency", labelnames=("circuit",)
        )
        summary.labels("a").observe(0.5)
        summary.labels("a").observe(0.25)
        registry.summary("idle_seconds", "never observed")
        text = registry.render()
        assert "# TYPE lat_seconds summary\n" in text
        assert 'lat_seconds{circuit="a",quantile="0.5"} 0.25\n' in text
        assert 'lat_seconds{circuit="a",quantile="0.99"} 0.5\n' in text
        assert 'lat_seconds_sum{circuit="a"} 0.75\n' in text
        assert 'lat_seconds_count{circuit="a"} 2\n' in text
        # An empty window renders no quantile lines, only the totals.
        assert "idle_seconds{" not in text
        assert "idle_seconds_sum 0\n" in text
        assert "idle_seconds_count 0\n" in text
        families = registry.collect()
        assert json.loads(json.dumps(families)) == families

    def test_merge_keeps_summaries_intact(self):
        def families(value):
            registry = MetricsRegistry()
            registry.summary(
                "lat_seconds", "latency", labelnames=("circuit",)
            ).labels("a").observe(value)
            return registry.collect()

        merged = merge_families(
            [
                (families(0.1), {"shard": "0", "replica": "0"}),
                (families(0.2), {"shard": "0", "replica": "1"}),
            ]
        )
        (family,) = merged
        assert family["type"] == "summary"
        for sample, value in zip(family["samples"], (0.1, 0.2)):
            assert sample["quantiles"] == [[0.5, value], [0.99, value]]
            assert sample["sum"] == value and sample["count"] == 1
        text = render_prometheus(merged)
        assert (
            'lat_seconds{circuit="a",quantile="0.5",replica="1",shard="0"}'
            ' 0.2\n'
        ) in text
        assert (
            'lat_seconds_count{circuit="a",replica="0",shard="0"} 1\n'
        ) in text

    def test_disable_skips_observations(self):
        child = self._child()
        set_enabled(False)
        try:
            child.observe(1.0)
        finally:
            set_enabled(True)
        assert child.totals() == (0, 0)
        assert child.quantiles() == []


class TestGaugeLevels:
    def test_inc_dec_pairs_ignore_the_kill_switch(self):
        gauge = MetricsRegistry().gauge("depth", "d", labelnames=("k",))
        child = gauge.labels("x")
        child.inc()
        set_enabled(False)
        try:
            child.inc(2)
            child.dec()
        finally:
            set_enabled(True)
        child.dec(2)
        assert child.value == 0


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "x")
        b = registry.counter("x_total", "x")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_labelname_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "x", labelnames=("b",))

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "dashes are not prometheus")

    def test_collector_callback_families_merge_in(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a").inc()
        registry.register_collector(
            lambda: [
                {
                    "name": "b_gauge",
                    "type": "gauge",
                    "help": "b",
                    "samples": [{"labels": {}, "value": 7.0}],
                }
            ]
        )
        names = {family["name"] for family in registry.collect()}
        assert names == {"a_total", "b_gauge"}

    def test_same_name_families_from_collectors_share_one_entry(self):
        registry = MetricsRegistry()
        servers = [MetricsRegistry(), MetricsRegistry()]
        for index, server in enumerate(servers):
            server.counter(
                "served_total", "s", labelnames=("server",)
            ).labels(str(index)).inc()
            registry.register_collector(server.collect)
        (family,) = registry.collect()
        assert [s["labels"] for s in family["samples"]] == [
            {"server": "0"}, {"server": "1"}
        ]
        assert registry.render().count("# TYPE served_total counter") == 1

    def test_collect_is_json_round_trippable(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a", labelnames=("k",)).labels("v").inc()
        registry.histogram("h_seconds", "h").observe(0.5)
        registry.gauge("g", "g").set(1.5)
        families = registry.collect()
        assert json.loads(json.dumps(families)) == families

    def test_disable_skips_bumps(self):
        registry = MetricsRegistry()
        counter = registry.counter("toggled_total", "t")
        counter.inc()
        set_enabled(False)
        try:
            counter.inc(100)
        finally:
            set_enabled(True)
        counter.inc()
        assert counter.value == 2


class TestRenderer:
    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter(
            "req_total", "requests", labelnames=("op",)
        ).labels("eval").inc(3)
        registry.histogram(
            "dur_seconds", "durations", buckets=(0.1, 1.0)
        ).observe(0.5)
        text = registry.render()
        assert "# HELP req_total requests\n" in text
        assert "# TYPE req_total counter\n" in text
        assert 'req_total{op="eval"} 3\n' in text
        assert 'dur_seconds_bucket{le="0.1"} 0\n' in text
        assert 'dur_seconds_bucket{le="1"} 1\n' in text
        assert 'dur_seconds_bucket{le="+Inf"} 1\n' in text
        assert "dur_seconds_sum 0.5\n" in text
        assert "dur_seconds_count 1\n" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "esc_total", "escapes", labelnames=("why",)
        ).labels('quote " slash \\ newline \n').inc()
        text = registry.render()
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_merge_families_tags_workers(self):
        def families(value):
            return [
                {
                    "name": "up",
                    "type": "gauge",
                    "help": "u",
                    "samples": [{"labels": {}, "value": value}],
                }
            ]

        merged = merge_families(
            [
                (families(1.0), {"shard": "0", "replica": "0"}),
                (families(2.0), {"shard": "0", "replica": "1"}),
            ]
        )
        (family,) = merged
        labels = sorted(
            tuple(sorted(sample["labels"].items()))
            for sample in family["samples"]
        )
        assert labels == [
            (("replica", "0"), ("shard", "0")),
            (("replica", "1"), ("shard", "0")),
        ]
        # Merged families still render as one valid exposition.
        assert 'up{' in render_prometheus(merged)

    def test_schema_version_is_stamped(self):
        assert isinstance(METRICS_SCHEMA_VERSION, int)
        assert METRICS_SCHEMA_VERSION >= 1
