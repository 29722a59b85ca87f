"""The micro-batching queue: coalesce concurrent queries into one replay.

Single queries are the natural unit for clients, but the engine's unit
of throughput is the *batch*: one vectorized tape replay answers a whole
evidence batch for nearly the cost of one query. The
:class:`MicroBatcher` bridges the two by batching *continuously*:
requests that agree on a :class:`BatchKey` (circuit, workload kind,
format) join one bucket, and the bucket is executed as **one**
``evaluate_batch`` / ``marginals_batch`` / ``quantized_marginals_batch``
call on a worker thread, its per-row results scattered back to each
request's future.

When should a bucket go? When no batch of its key is executing, on the
next event-loop tick, so a lone request never waits and a pipelined
burst read in one tick still forms one batch. While a batch of its key
runs, the bucket collects everything that arrives meanwhile and goes
when that batch finishes, when ``max_batch`` requests have gathered, or
when ``window`` seconds have passed since its first request, whichever
comes first. The window is therefore an upper bound on coalescing wait,
never a floor.

Error attribution: when a coalesced batch fails as a whole (one bad
evidence variable, one zero-probability instance), the batcher falls
back to per-request execution so each caller receives *its own* error —
a stranger's malformed query never poisons a neighbor's answer.

Each batcher counts its flushes on a :class:`MetricsRegistry` of its own
(``problp_batch_size`` / ``problp_batch_wait_seconds`` by circuit and
kind), which its server exports; a fail-over re-run is not a flush and
does not start one.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Sequence

from ..arith.fixedpoint import FixedPointFormat
from ..arith.floatingpoint import FloatFormat
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import now_us

AnyFormat = FixedPointFormat | FloatFormat

#: Upper bound on how long a bucket waits behind a running batch of its
#: key before it executes anyway, concurrently. An idle key never waits.
DEFAULT_BATCH_WINDOW = 0.002
DEFAULT_MAX_BATCH = 256


@dataclass(frozen=True)
class BatchKey:
    """What must agree for two requests to share one tape replay.

    Formats are frozen dataclasses carrying their rounding mode, so the
    key cleanly separates e.g. ``fixed:1:15`` nearest-even traffic from
    truncate traffic.
    """

    circuit: str
    kind: str  # "eval" | "marginals" | "theta"
    fmt: AnyFormat | None = None
    joint: bool = False


class MicroBatcher:
    """Coalesce per-key requests continuously; scatter results back.

    ``dispatch(key, requests)`` is the (blocking) batch executor — it
    runs on ``executor`` via ``run_in_executor`` and must return one
    result per request, in order. The batcher itself lives on the event
    loop: ``submit`` is the only entry point and must be awaited on the
    loop thread.

    A bucket whose key has no batch executing flushes on the next loop
    tick. Otherwise it flushes when that batch finishes, when it holds
    ``max_batch`` requests, or ``window`` seconds after its first
    request, whichever is first: ``window`` bounds the coalescing wait
    from above and is never a floor.
    """

    def __init__(
        self,
        dispatch: Callable[[BatchKey, Sequence[Any]], Sequence[Any]],
        *,
        window: float = DEFAULT_BATCH_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        executor=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._dispatch = dispatch
        self.window = window
        self.max_batch = max_batch
        self._executor = executor
        self._pending: dict[BatchKey, list[tuple]] = {}
        self._opened: dict[BatchKey, float] = {}
        self._timers: dict[BatchKey, asyncio.Handle] = {}
        # Batches of each key between flush and finish (fail-over
        # re-runs included); a key absent here is idle.
        self._running: dict[BatchKey, int] = {}
        self._inflight: set[asyncio.Task] = set()
        self.metrics = MetricsRegistry()
        self._wait_seconds = self.metrics.histogram(
            "problp_batch_wait_seconds",
            "Time from a bucket's first request to its flush "
            "(coalesce wait).",
            labelnames=("circuit", "kind"),
        )
        self._batch_size = self.metrics.histogram(
            "problp_batch_size",
            "Requests coalesced into one flushed batch.",
            labelnames=("circuit", "kind"),
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self.largest_batch = 0

    def stats(self, circuit: str | None = None) -> dict:
        """Flush counts from ``problp_batch_size``, for one circuit or all."""
        requests = batches = 0
        for (name, _kind), child in self._batch_size.children():
            if circuit is None or name == circuit:
                _, total, count = child.snapshot()
                requests += int(total)
                batches += count
        return {
            "requests": requests,
            "batches": batches,
            "largest_batch": self.largest_batch,
            "mean_batch": requests / batches if batches else 0.0,
        }

    def submit(self, key: BatchKey, request: Any, trace=None) -> Awaitable[Any]:
        """Enqueue one request; resolves to its scattered result.

        A traced request (``trace`` is a :class:`repro.obs.tracing.Trace`)
        gets ``batch.wait`` / ``batch.execute`` / ``scatter`` spans
        stamped on it as its batch moves through the queue.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._pending.setdefault(key, [])
        wait_span = trace.span("batch.wait") if trace is not None else None
        bucket.append((request, future, trace, wait_span))
        if len(bucket) == 1:
            self._opened[key] = time.monotonic()
        if len(bucket) >= self.max_batch:
            self._flush(key)
        elif len(bucket) == 1:
            if key in self._running:
                # Coalesce behind the running batch, but no longer than
                # the window: then this bucket runs beside it.
                self._timers[key] = loop.call_later(
                    self.window, self._flush, key
                )
            else:
                # Idle key: go on the next tick, after the requests
                # already scheduled this tick have joined the bucket.
                self._timers[key] = loop.call_soon(self._flush, key)
        return future

    def _flush(self, key: BatchKey) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        batch = self._pending.pop(key, None)
        opened = self._opened.pop(key, None)
        if not batch:
            return
        self._running[key] = self._running.get(key, 0) + 1
        task = asyncio.ensure_future(self._run(key, batch, opened))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _finished(self, key: BatchKey) -> None:
        """One batch of ``key`` is done: its waiting bucket goes now."""
        left = self._running[key] - 1
        if left:
            self._running[key] = left
        else:
            del self._running[key]
        if key in self._pending:
            self._flush(key)

    async def _run(
        self, key: BatchKey, batch: list[tuple], opened: float | None
    ) -> None:
        try:
            await self._execute(key, batch, opened)
        finally:
            self._finished(key)

    async def _execute(
        self, key: BatchKey, batch: list[tuple], opened: float | None
    ) -> None:
        loop = asyncio.get_running_loop()
        requests = [request for request, _, _, _ in batch]
        self.largest_batch = max(self.largest_batch, len(requests))
        if opened is not None:
            self._wait_seconds.labels(key.circuit, key.kind).observe(
                time.monotonic() - opened
            )
        self._batch_size.labels(key.circuit, key.kind).observe(len(requests))
        execute_start = now_us()
        for _, _, _, wait_span in batch:
            if wait_span is not None:
                wait_span.end(execute_start)
        try:
            results = await loop.run_in_executor(
                self._executor, self._dispatch, key, requests
            )
            execute_end = now_us()
            for _, _, trace, _ in batch:
                if trace is not None:
                    trace.span(
                        "batch.execute",
                        start_us=execute_start,
                        batch_size=len(requests),
                    ).end(execute_end)
            # strict: a dispatch returning the wrong count must fail
            # loudly (and per-request, below) — a silent zip truncation
            # would strand the trailing futures forever.
            for (_, future, trace, _), result in zip(
                batch, results, strict=True
            ):
                scatter = (
                    trace.span("scatter", start_us=execute_end)
                    if trace is not None else None
                )
                if not future.done():
                    future.set_result(result)
                if scatter is not None:
                    scatter.end()
        except Exception as error:  # noqa: BLE001 — mapped to wire errors
            if len(batch) == 1:
                _, future, _, _ = batch[0]
                if not future.done():
                    future.set_exception(error)
            else:
                # Attribute the failure: re-run each request alone so
                # only the offending ones error — concurrently, so the
                # innocent neighbors pay pool latency, not a serial
                # sweep of up to max_batch single-row replays.
                await asyncio.gather(
                    *(
                        self._fail_over(loop, key, request, future)
                        for request, future, _, _ in batch
                    )
                )

    async def _fail_over(
        self, loop, key: BatchKey, request: Any, future: asyncio.Future
    ) -> None:
        try:
            results = await loop.run_in_executor(
                self._executor, self._dispatch, key, [request]
            )
            (result,) = results
        except Exception as error:  # noqa: BLE001 — mapped to wire errors
            if not future.done():
                future.set_exception(error)
            return
        if not future.done():
            future.set_result(result)

    async def drain(self) -> None:
        """Flush every bucket and wait until no batch is in flight."""
        while self._pending or self._inflight:
            for key in list(self._pending):
                self._flush(key)
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def close(self) -> None:
        """Cancel timers and reject whatever is still queued.

        Batches already executing run to completion and resolve their
        own futures.
        """
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for batch in self._pending.values():
            for _, future, _, _ in batch:
                if not future.done():
                    future.cancel()
        self._pending.clear()
        self._opened.clear()
