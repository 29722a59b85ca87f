"""Unit tests for the micro-batching queue itself.

The end-to-end suites exercise the batcher through the server; these
tests pin down the queue's own contracts — continuous batching (an idle
key flushes on the next tick, a busy one coalesces behind its running
batch for at most ``window``), the ``max_batch`` early-flush boundary,
drain/close while a batch is running, and the per-request fail-over
that keeps one bad query from poisoning its batch neighbors.
"""

import asyncio
import threading

import pytest

from repro.serve import BatchKey, MicroBatcher

KEY = BatchKey(circuit="sprinkler", kind="eval")
OTHER = BatchKey(circuit="asia", kind="eval")


class RecordingDispatch:
    """A dispatch stub that logs every batch it receives."""

    def __init__(self, result=lambda request: request * 10, hold=None):
        self.batches = []
        self.result = result
        self.release = threading.Event()
        self.release.set()
        self.entered = threading.Event()
        # How many leading dispatches the release gate holds (None: all).
        self.hold = hold

    def __call__(self, key, requests):
        self.batches.append((key, list(requests)))
        self.entered.set()
        # Block here (when told to) to model a slow tape replay — the
        # event loop keeps running while the executor thread waits.
        if self.hold is None or len(self.batches) <= self.hold:
            assert self.release.wait(timeout=30)
        return [self.result(request) for request in requests]

    def held(self):
        """Close the gate; returns an awaitable that resolves once a
        dispatch is parked against it."""
        self.release.clear()
        self.entered.clear()
        return asyncio.get_running_loop().run_in_executor(
            None, self.entered.wait, 5
        )


async def ticks(count=5):
    """Let the event loop run a few iterations."""
    for _ in range(count):
        await asyncio.sleep(0)


class TestCoalescing:
    def test_window_coalesces_concurrent_submits(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.02, max_batch=64)
            results = await asyncio.gather(
                batcher.submit(KEY, 1),
                batcher.submit(KEY, 2),
                batcher.submit(KEY, 3),
            )
            await batcher.drain()
            return results

        assert asyncio.run(scenario()) == [10, 20, 30]
        assert [requests for _, requests in dispatch.batches] == [[1, 2, 3]]

    def test_distinct_keys_never_share_a_batch(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.02, max_batch=64)
            await asyncio.gather(
                batcher.submit(KEY, 1), batcher.submit(OTHER, 2)
            )
            await batcher.drain()

        asyncio.run(scenario())
        keys = {key for key, _ in dispatch.batches}
        assert keys == {KEY, OTHER}
        assert all(len(requests) == 1 for _, requests in dispatch.batches)

    def test_max_batch_flushes_early_without_waiting_the_window(self):
        dispatch = RecordingDispatch()

        async def scenario():
            # A window so long that only the max_batch trigger can
            # explain a flush inside the test timeout.
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=4)
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(batcher.submit(KEY, index) for index in range(4))
                ),
                timeout=10,
            )
            batcher.close()
            return results

        assert asyncio.run(scenario()) == [0, 10, 20, 30]
        assert [requests for _, requests in dispatch.batches] == [
            [0, 1, 2, 3]
        ]

    def test_submits_beyond_the_boundary_open_a_fresh_bucket(self):
        """max_batch + k submits → one full batch now, k once it is done.

        The boundary race to pin: the (max_batch+1)-th request must not
        be silently absorbed into the already-flushed batch, nor starve
        with its timer eaten by the flush.
        """
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.02, max_batch=4)
            results = await asyncio.gather(
                *(batcher.submit(KEY, index) for index in range(6))
            )
            await batcher.drain()
            return results

        assert asyncio.run(scenario()) == [0, 10, 20, 30, 40, 50]
        assert [requests for _, requests in dispatch.batches] == [
            [0, 1, 2, 3],
            [4, 5],
        ]

    def test_stats_count_requests_and_batches(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.01, max_batch=4)
            await asyncio.gather(
                *(batcher.submit(KEY, index) for index in range(5))
            )
            await batcher.drain()
            return batcher.stats()

        stats = asyncio.run(scenario())
        assert stats["requests"] == 5
        assert stats["batches"] == 2
        assert stats["largest_batch"] == 4
        assert stats["mean_batch"] == pytest.approx(2.5)


class TestContinuousBatching:
    def test_lone_submit_does_not_wait_the_window(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            try:
                return await asyncio.wait_for(batcher.submit(KEY, 4), 1.0)
            finally:
                batcher.close()

        assert asyncio.run(scenario()) == 40
        assert [requests for _, requests in dispatch.batches] == [[4]]

    def test_same_tick_burst_forms_one_batch(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            try:
                return await asyncio.wait_for(
                    asyncio.gather(
                        *(batcher.submit(KEY, index) for index in range(5))
                    ),
                    1.0,
                )
            finally:
                batcher.close()

        assert asyncio.run(scenario()) == [0, 10, 20, 30, 40]
        assert [requests for _, requests in dispatch.batches] == [
            [0, 1, 2, 3, 4]
        ]

    def test_submits_behind_a_running_batch_form_one_follow_up(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            parked = dispatch.held()
            first = batcher.submit(KEY, 1)
            await parked
            # Arrivals on separate ticks while the gate is shut.
            followers = []
            for request in (2, 3, 4):
                followers.append(batcher.submit(KEY, request))
                await ticks()
            await asyncio.sleep(0.05)
            assert len(dispatch.batches) == 1
            assert not any(future.done() for future in followers)
            dispatch.release.set()
            results = await asyncio.wait_for(
                asyncio.gather(first, *followers), 5
            )
            await batcher.drain()
            return results, batcher.stats()

        results, stats = asyncio.run(scenario())
        assert results == [10, 20, 30, 40]
        assert [requests for _, requests in dispatch.batches] == [
            [1], [2, 3, 4]
        ]
        assert stats["batches"] == 2

    def test_window_bounds_the_wait_behind_a_held_batch(self):
        dispatch = RecordingDispatch(hold=1)

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.05, max_batch=64)
            parked = dispatch.held()
            first = batcher.submit(KEY, 1)
            await parked
            follower = batcher.submit(KEY, 2)
            await ticks()
            assert len(dispatch.batches) == 1
            # The first batch is still held: only the window can have
            # released the follow-up, which runs beside it.
            result = await asyncio.wait_for(follower, 5)
            assert not first.done()
            dispatch.release.set()
            await batcher.drain()
            return result, await first

        assert asyncio.run(scenario()) == (20, 10)
        assert [requests for _, requests in dispatch.batches] == [[1], [2]]


class TestDrain:
    def test_drain_waits_for_an_inflight_flush(self):
        """drain() must block on a batch already executing, not just
        flush open windows."""
        dispatch = RecordingDispatch()
        dispatch.release.clear()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.001, max_batch=64)
            future = batcher.submit(KEY, 7)
            # Wait until the dispatch is genuinely on the executor
            # thread, stuck against the release gate.
            await asyncio.get_running_loop().run_in_executor(
                None, dispatch.entered.wait, 5
            )
            release = asyncio.get_running_loop().call_later(
                0.05, dispatch.release.set
            )
            try:
                await batcher.drain()
            finally:
                release.cancel()
                dispatch.release.set()
            # After drain, the submit's future must already be resolved.
            assert future.done()
            return await future

        assert asyncio.run(scenario()) == 70

    def test_drain_flushes_a_still_open_window(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            future = batcher.submit(KEY, 3)
            await batcher.drain()
            assert future.done()
            return await future

        assert asyncio.run(scenario()) == 30

    def test_drain_runs_the_bucket_behind_a_running_batch(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            parked = dispatch.held()
            futures = [batcher.submit(KEY, 1)]
            await parked
            futures += [batcher.submit(KEY, 2), batcher.submit(KEY, 3)]
            release = asyncio.get_running_loop().call_later(
                0.05, dispatch.release.set
            )
            try:
                await asyncio.wait_for(batcher.drain(), 10)
            finally:
                release.cancel()
                dispatch.release.set()
            assert all(future.done() for future in futures)
            return [future.result() for future in futures]

        assert asyncio.run(scenario()) == [10, 20, 30]
        assert [requests for _, requests in dispatch.batches] == [
            [1], [2, 3]
        ]

    def test_close_behind_a_running_batch_strands_nothing(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            parked = dispatch.held()
            running = batcher.submit(KEY, 1)
            await parked
            queued = batcher.submit(KEY, 2)
            batcher.close()
            assert queued.cancelled()
            dispatch.release.set()
            result = await asyncio.wait_for(running, 5)
            await asyncio.wait_for(batcher.drain(), 5)
            return result

        assert asyncio.run(scenario()) == 10
        assert [requests for _, requests in dispatch.batches] == [[1]]

    def test_close_cancels_queued_requests(self):
        dispatch = RecordingDispatch()

        async def scenario():
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            future = batcher.submit(KEY, 3)
            batcher.close()
            with pytest.raises(asyncio.CancelledError):
                await future

        asyncio.run(scenario())
        assert dispatch.batches == []


class TestFailover:
    def test_one_bad_request_fails_alone(self):
        """A batch-wide failure re-runs per request: neighbors succeed,
        only the offender sees its error."""
        calls = []

        def dispatch(key, requests):
            calls.append(list(requests))
            if any(request == "bad" for request in requests):
                raise ValueError("poisoned batch")
            return [f"ok:{request}" for request in requests]

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.02, max_batch=64)
            results = await asyncio.gather(
                batcher.submit(KEY, "a"),
                batcher.submit(KEY, "bad"),
                batcher.submit(KEY, "b"),
                return_exceptions=True,
            )
            await batcher.drain()
            return results

        good_a, bad, good_b = asyncio.run(scenario())
        assert good_a == "ok:a"
        assert good_b == "ok:b"
        assert isinstance(bad, ValueError)
        # One coalesced attempt, then one single-request re-run each.
        assert calls[0] == ["a", "bad", "b"]
        assert sorted(
            tuple(batch) for batch in calls[1:]
        ) == [("a",), ("b",), ("bad",)]

    def test_single_request_failure_skips_the_rerun(self):
        calls = []

        def dispatch(key, requests):
            calls.append(list(requests))
            raise RuntimeError("always broken")

        async def scenario():
            batcher = MicroBatcher(dispatch, window=0.005, max_batch=64)
            with pytest.raises(RuntimeError):
                await batcher.submit(KEY, "only")
            await batcher.drain()

        asyncio.run(scenario())
        assert calls == [["only"]]

    def test_fail_over_is_neither_a_flush_nor_a_trigger(self):
        """The re-runs of a failed batch are not flushes, and finishing
        them releases the waiting bucket exactly once."""
        calls = []
        release = threading.Event()
        entered = threading.Event()

        def dispatch(key, requests):
            calls.append(list(requests))
            if len(calls) == 1:
                entered.set()
                assert release.wait(timeout=30)
            if len(requests) > 1 and "bad" in requests:
                raise ValueError("poisoned batch")
            return [f"ok:{request}" for request in requests]

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(dispatch, window=60.0, max_batch=64)
            failing = [batcher.submit(KEY, name) for name in ("a", "bad")]
            await loop.run_in_executor(None, entered.wait, 5)
            follower = batcher.submit(KEY, "c")
            release.set()
            results = await asyncio.wait_for(
                asyncio.gather(*failing, follower), 5
            )
            await batcher.drain()
            await ticks()
            return results, batcher.stats()

        results, stats = asyncio.run(scenario())
        assert results == ["ok:a", "ok:bad", "ok:c"]
        assert calls[0] == ["a", "bad"]
        assert sorted(map(tuple, calls[1:3])) == [("a",), ("bad",)]
        # The follow-up runs once, after the re-runs, as one batch.
        assert calls[3:] == [["c"]]
        assert stats["batches"] == 2
        assert stats["requests"] == 3
